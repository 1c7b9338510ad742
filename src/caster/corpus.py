"""SMILES tokenization and pair-corpus ingestion.

A SMILES string is treated purely as a token sequence: bracket atoms
``[...]``, the two-letter halogens ``Cl``/``Br`` and ``%nn`` ring labels
stay whole, every other character is its own token.  No valence or
aromaticity checks are performed; strings are assumed pre-canonicalized.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field

log = logging.getLogger(__name__)

LABELLED = "labelled"
UNLAB = "unlabelled"

# Two-letter atoms of the organic subset that must never be split.
TWO_LETTER_ATOMS = ("Cl", "Br")

# Characters allowed outside bracket expressions: atoms (upper/lower
# letters), ring digits, bonds, branches, dot, %nn labels, wildcard.
_PLAIN_CHARS = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    "abcdefghijklmnopqrstuvwxyz"
    "0123456789"
    "()-=#$:/\\.%*"
)
# Characters allowed inside a bracket expression, e.g. [13CH3+], [C@@H].
_BRACKET_CHARS = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    "abcdefghijklmnopqrstuvwxyz"
    "0123456789"
    "+-@*:"
)


class SmilesParseError(ValueError):
    """Raised when a string violates the SMILES token grammar."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class CorpusFormatError(ValueError):
    """Raised when a corpus file violates its TSV schema."""


def undecodable(path, error: type[ValueError]) -> ValueError:
    """Build `error` naming the path and line of a file's first non-UTF-8 byte.

    Called after reading `path` as UTF-8 text failed; the bytes are read
    again to find the line, counting newlines as text mode does
    (``\n``, ``\r\n`` or a bare ``\r``).
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as err:
        head = data[: err.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        return error(f"{path}: line {line}: invalid UTF-8 byte 0x{data[err.start]:02x}")
    return error(f"{path}: invalid UTF-8")  # the file changed since the failed read


def _char_class(chars) -> str:
    return "[" + "".join(sorted(map(re.escape, chars))) + "]"


# The scanner's greedy left-to-right rule as one alternation, tried in its
# order: a bracket atom, a %nn ring label (ASCII digits), Cl, Br, then one
# plain character.  A string the matches do not cover, or whose
# parentheses do not balance, is one `_scan` refuses.
_TOKEN = re.compile(
    rf"\[{_char_class(_BRACKET_CHARS)}+\]|%[0-9][0-9]|Cl|Br|{_char_class(_PLAIN_CHARS - {'%'})}"
)
_PAREN = re.compile(r"[()]")


def atom_tokenize(smiles: str) -> list[str]:
    """Split a SMILES string into atom/bond tokens.

    Bracket expressions, ``Cl``/``Br`` and ``%nn`` ring labels are kept
    whole; every other character becomes a single token.  The token list
    concatenates back to the input exactly.

    The tokens are one `findall` of a compiled pattern, accepted when they
    cover the whole string and its parentheses balance.  Any other string
    goes to the character scanner `_scan`, which names its fault; the two
    agree on every string (tests/test_corpus.py).

    Raises:
        SmilesParseError: empty input, unbalanced brackets/parentheses,
            malformed ``%`` label, or a character outside the SMILES
            alphabet.  The error names the byte offset.
    """
    tokens = _TOKEN.findall(smiles)
    if smiles and len("".join(tokens)) == len(smiles) and _balanced(smiles):
        return tokens
    return _scan(smiles)


def _balanced(smiles: str) -> bool:
    depth = 0
    for p in _PAREN.findall(smiles):
        depth += 1 if p == "(" else -1
        if depth < 0:
            return False
    return depth == 0


def _scan(smiles: str) -> list[str]:
    """`atom_tokenize` one character at a time: the slow version, which
    names the first fault of a string the pattern does not accept."""
    if not smiles:
        raise SmilesParseError("empty SMILES string", 0)

    tokens: list[str] = []
    depth = 0
    i = 0
    n = len(smiles)
    while i < n:
        ch = smiles[i]
        if ch == "[":
            j = smiles.find("]", i + 1)
            if j < 0:
                raise SmilesParseError("unbalanced '[': missing ']'", i)
            if j == i + 1:
                raise SmilesParseError("empty bracket expression", i)
            body = smiles[i + 1 : j]
            for off, c in enumerate(body, start=i + 1):
                if c == "[":
                    raise SmilesParseError("nested '[' inside bracket", off)
                if c not in _BRACKET_CHARS:
                    raise SmilesParseError(
                        f"character {c!r} not allowed inside brackets", off
                    )
            tokens.append(smiles[i : j + 1])
            i = j + 1
        elif ch == "]":
            raise SmilesParseError("']' without matching '['", i)
        elif ch == "%":
            if i + 2 >= n or not ("0" <= smiles[i + 1] <= "9" and "0" <= smiles[i + 2] <= "9"):
                raise SmilesParseError("'%' must be followed by two digits", i)
            tokens.append(smiles[i : i + 3])
            i += 3
        elif smiles[i : i + 2] in TWO_LETTER_ATOMS:
            tokens.append(smiles[i : i + 2])
            i += 2
        else:
            if ch not in _PLAIN_CHARS:
                raise SmilesParseError(f"character {ch!r} outside SMILES alphabet", i)
            if ch == "(":
                depth += 1
            elif ch == ")":
                if depth == 0:
                    raise SmilesParseError("')' without matching '('", i)
                depth -= 1
            tokens.append(ch)
            i += 1
    if depth != 0:
        raise SmilesParseError("unbalanced '(': missing ')'", n - 1)
    return tokens


@dataclass(frozen=True)
class PairExample:
    """A compound pair with an optional binary interaction label."""

    left: str
    right: str
    label: int | None = None

    def key(self) -> tuple[str, str]:
        """Order-independent identity of the pair."""
        return (self.left, self.right) if self.left <= self.right else (self.right, self.left)


@dataclass
class PairCorpus:
    """A list of pair examples, all labelled or all unlabelled.

    `rows` holds, for a corpus read by `load_pair_corpus`, the 0-based data
    row of each example in its file (header and blank lines not counted),
    so a skipped row leaves a gap; `tokens` maps each of its compounds to
    the atom tokens the loader checked it with, so that featurizing does
    not tokenize it again.  Both are None for a corpus built in memory.
    """

    examples: list[PairExample]
    kind: str  # LABELLED or UNLAB
    rows: list[int] | None = field(default=None, compare=False, repr=False)
    tokens: dict[str, list[str]] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.kind not in (LABELLED, UNLAB):
            raise ValueError(f"unknown corpus kind {self.kind!r}")
        if self.rows is not None and len(self.rows) != len(self.examples):
            raise ValueError(f"{len(self.rows)} row numbers for {len(self.examples)} examples")
        seen = set()
        for ex in self.examples:
            if self.kind == LABELLED and ex.label not in (0, 1):
                raise ValueError(f"labelled corpus requires label in {{0,1}}, got {ex.label!r}")
            if self.kind == UNLAB and ex.label is not None:
                raise ValueError("unlabelled corpus must not carry labels")
            k = ex.key()
            if k in seen:
                raise ValueError(f"duplicate unordered pair {k}")
            seen.add(k)
            if self.tokens is not None and not (ex.left in self.tokens and ex.right in self.tokens):
                raise ValueError(f"no tokens for a compound of pair {k}")

    def __len__(self) -> int:
        return len(self.examples)

    def __iter__(self):
        return iter(self.examples)

    def drugs(self) -> list[str]:
        """Sorted unique compound strings across both pair slots."""
        return sorted({s for ex in self.examples for s in (ex.left, ex.right)})

    def labels(self) -> list[int]:
        if self.kind != LABELLED:
            raise ValueError("unlabelled corpus has no labels")
        return [ex.label for ex in self.examples]


def load_pair_corpus(path, kind: str) -> PairCorpus:
    """Load a pair corpus from a TSV file with a header row.

    Labelled schema is ``smiles_1<TAB>smiles_2<TAB>label`` with label in
    {0,1}; unlabelled is ``smiles_1<TAB>smiles_2``.  Extra columns in an
    unlabelled file are ignored with a warning.  Rows whose SMILES do not
    tokenize are skipped and counted; each distinct SMILES is tokenized
    once.  Duplicate unordered pairs are rejected.  The file is read one
    line at a time.  The corpus's `rows` number its examples by data row,
    and its `tokens` keep each compound's atom tokens.
    """
    if kind not in (LABELLED, UNLAB):
        raise ValueError(f"unknown corpus kind {kind!r}")
    try:
        with open(path, encoding="utf-8") as fh:
            try:
                examples, rows, tokens, skipped = _read_pairs(path, fh, kind)
            except CorpusFormatError:
                # an undecodable byte anywhere in the file is the error
                # reported, even after a bad row
                fh.read()
                raise
    except UnicodeDecodeError:
        raise undecodable(path, CorpusFormatError) from None
    if skipped:
        log.warning("%s: skipped %d rows with unparseable SMILES", path, skipped)
    log.info("%s: loaded %d %s pairs", path, len(examples), kind)
    return PairCorpus(examples, kind, rows, tokens)


def _read_pairs(
    path, fh, kind: str
) -> tuple[list[PairExample], list[int], dict[str, list[str]], int]:
    """The examples of an open pair TSV, the data row of each, the tokens
    of each of their compounds and the number of rows skipped."""
    first = fh.readline()
    if not first:
        raise CorpusFormatError(f"{path}: empty file, header row required")
    first = first.rstrip("\n")
    header = first.split("\t")
    if len(header) < 2 or header[0] != "smiles_1" or header[1] != "smiles_2":
        raise CorpusFormatError(
            f"{path}: line 1: header must start with smiles_1<TAB>smiles_2, got {first!r}"
        )
    if kind == LABELLED:
        if len(header) < 3 or header[2] != "label":
            raise CorpusFormatError(f"{path}: line 1: labelled corpus needs a label column")
        ncols = 3
    else:
        if len(header) > 2:
            log.warning(
                "%s: unlabelled corpus has extra columns %s; they are ignored",
                path, header[2:],
            )
        ncols = 2

    examples: list[PairExample] = []
    rows: list[int] = []
    seen: dict[tuple[str, str], int] = {}
    # the tokenizer's verdict on each distinct SMILES: its tokens or its error
    verdicts: dict[str, list[str] | SmilesParseError] = {}
    skipped = 0
    data_row = -1
    for lineno, line in enumerate(fh, start=2):
        line = line.rstrip("\n")
        if not line:
            continue
        data_row += 1
        fields = line.split("\t")
        if len(fields) < ncols:
            raise CorpusFormatError(f"{path}: line {lineno}: expected {ncols} columns, got {len(fields)}")
        left, right = fields[0], fields[1]
        label = None
        if kind == LABELLED:
            if fields[2] not in ("0", "1"):
                raise CorpusFormatError(f"{path}: line {lineno}: label must be 0 or 1, got {fields[2]!r}")
            label = int(fields[2])
        err = _verdict(verdicts, left) or _verdict(verdicts, right)
        if err is not None:
            log.debug("%s: line %d skipped: %s", path, lineno, err)
            skipped += 1
            continue
        ex = PairExample(left, right, label)
        key = ex.key()
        if key in seen:
            raise CorpusFormatError(
                f"{path}: line {lineno}: duplicate unordered pair {key} (first at line {seen[key]})"
            )
        seen[key] = lineno
        examples.append(ex)
        rows.append(data_row)
    tokens = {s: verdicts[s] for ex in examples for s in (ex.left, ex.right)}
    return examples, rows, tokens, skipped


def _verdict(verdicts: dict[str, list[str] | SmilesParseError], smiles: str) -> SmilesParseError | None:
    """The error tokenizing `smiles` raises, or None; each string is
    tokenized on its first lookup only."""
    if smiles not in verdicts:
        try:
            verdicts[smiles] = atom_tokenize(smiles)
        except SmilesParseError as err:
            verdicts[smiles] = err
    verdict = verdicts[smiles]
    return verdict if isinstance(verdict, SmilesParseError) else None


def write_pair_corpus(path, corpus: PairCorpus) -> None:
    """Write a pair corpus back to its TSV schema."""
    with open(path, "w", encoding="utf-8") as fh:
        if corpus.kind == LABELLED:
            fh.write("smiles_1\tsmiles_2\tlabel\n")
            for ex in corpus:
                fh.write(f"{ex.left}\t{ex.right}\t{ex.label}\n")
        else:
            fh.write("smiles_1\tsmiles_2\n")
            for ex in corpus:
                fh.write(f"{ex.left}\t{ex.right}\n")


def load_smiles_corpus(path) -> list[str]:
    """Load a single-compound corpus: one SMILES per line, no header.

    Unparseable lines are skipped with a logged count.
    """
    return _read_smiles(path)[0]


def _read_smiles(path) -> tuple[list[str], list[list[str]]]:
    """`load_smiles_corpus`'s compounds and the atom tokens of each."""
    out: list[str] = []
    tokens: list[list[str]] = []
    skipped = 0
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                s = line.strip()
                if not s:
                    continue
                try:
                    tokens.append(atom_tokenize(s))
                except SmilesParseError:
                    skipped += 1
                    continue
                out.append(s)
    except UnicodeDecodeError:
        raise undecodable(path, CorpusFormatError) from None
    if skipped:
        log.warning("%s: skipped %d unparseable SMILES", path, skipped)
    log.info("%s: loaded %d compounds", path, len(out))
    return out, tokens
