"""Sequential pattern mining over tokenized SMILES corpora.

Starting from atom/bond tokens, the miner repeatedly merges the most
frequent adjacent token pair until the best pair falls below a frequency
threshold or a merge budget is exhausted.  The ordered merge rules double
as a deterministic segmenter for new strings, and the tokens that remain
frequent in the fully segmented corpus form the substructure vocabulary
used for featurization.

Conventions (fixed so results are reproducible across platforms):

* pair counts are total occurrence counts across the corpus, counting
  every adjacent index position (so "CCC" contributes twice to (C, C));
* replacement is greedy left-to-right and non-overlapping within a string;
* ties on the maximum count are broken by the lexicographically smallest
  (left, right) pair.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field

DEFAULT_MAX_MERGES = 30_000

VOCAB_MAGIC = "spm-vocab v1"


class VocabularyError(ValueError):
    """Raised for invalid mining inputs or malformed vocabulary files."""


@dataclass(frozen=True)
class MergeRule:
    """One merge step: adjacent (left, right) tokens become left+right."""

    left: str
    right: str
    merged: str
    rank: int
    frequency_at_merge: int

    def __post_init__(self):
        if self.merged != self.left + self.right:
            raise VocabularyError(f"merged token {self.merged!r} != {self.left!r} + {self.right!r}")


@dataclass
class Vocabulary:
    """Ordered merge rules plus the final substructure list.

    `substructures` is an ordered list of (token, frequency) pairs; its
    order defines the feature index of each substructure and is preserved
    by the file round-trip.
    """

    base_tokens: frozenset[str]
    merges: list[MergeRule]
    substructures: list[tuple[str, int]]
    eta: int
    ell: int
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.substructures:
            raise VocabularyError("vocabulary has no substructures (k = 0)")
        if len(self.merges) > self.ell:
            raise VocabularyError(f"{len(self.merges)} merges exceed the ell={self.ell} budget")
        for i, rule in enumerate(self.merges):
            if rule.rank != i:
                raise VocabularyError("merge ranks must be consecutive from 0")
            if rule.frequency_at_merge < self.eta:
                raise VocabularyError(
                    f"merge {rule.merged!r} was below the eta={self.eta} threshold"
                )
        self._index = {tok: i for i, (tok, _) in enumerate(self.substructures)}
        if len(self._index) != len(self.substructures):
            raise VocabularyError("duplicate substructure tokens")

    @property
    def k(self) -> int:
        return len(self.substructures)

    def tokens(self) -> list[str]:
        return [tok for tok, _ in self.substructures]

    def index_of(self, token: str) -> int | None:
        return self._index.get(token)

    def to_text(self) -> str:
        lines = [f"{VOCAB_MAGIC} eta={self.eta} ell={self.ell}"]
        for rule in self.merges:
            lines.append(f"{rule.left}\t{rule.right}\t{rule.frequency_at_merge}")
        lines.append("")
        for tok, freq in self.substructures:
            lines.append(f"{tok}\t{freq}")
        return "\n".join(lines) + "\n"

    def content_hash(self) -> str:
        """SHA-256 of the canonical serialization; ties checkpoints to vocabularies."""
        return hashlib.sha256(self.to_text().encode("utf-8")).hexdigest()

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_text())

    @classmethod
    def from_text(cls, text: str) -> "Vocabulary":
        lines = text.splitlines()
        if not lines or not lines[0].startswith(VOCAB_MAGIC):
            raise VocabularyError(f"missing {VOCAB_MAGIC!r} header")
        header = lines[0].split()
        try:
            eta = int(header[2].removeprefix("eta="))
            ell = int(header[3].removeprefix("ell="))
        except (IndexError, ValueError) as err:
            raise VocabularyError(f"malformed header {lines[0]!r}") from err

        merges: list[MergeRule] = []
        i = 1
        while i < len(lines) and lines[i]:
            parts = lines[i].split("\t")
            if len(parts) != 3:
                raise VocabularyError(f"line {i + 1}: expected left<TAB>right<TAB>freq")
            left, right, freq = parts
            merges.append(MergeRule(left, right, left + right, len(merges), _frequency(freq, i)))
            i += 1
        i += 1  # blank separator
        substructures: list[tuple[str, int]] = []
        while i < len(lines) and lines[i]:
            parts = lines[i].split("\t")
            if len(parts) != 2:
                raise VocabularyError(f"line {i + 1}: expected substructure<TAB>freq")
            substructures.append((parts[0], _frequency(parts[1], i)))
            i += 1

        # The file format does not carry base tokens; reconstruct the
        # derivable part (enough for segmentation and featurization).
        merged_names = {r.merged for r in merges}
        base = {t for r in merges for t in (r.left, r.right)} | {t for t, _ in substructures}
        return cls(frozenset(base - merged_names), merges, substructures, eta, ell)

    @classmethod
    def load(cls, path) -> "Vocabulary":
        with open(path, encoding="utf-8") as fh:
            try:
                return cls.from_text(fh.read())
            except VocabularyError as err:
                raise VocabularyError(f"{path}: {err}") from None


def _frequency(text: str, i: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise VocabularyError(f"line {i + 1}: frequency {text!r} is not an integer") from None


def _replace_pair(tokens: list[str], left: str, right: str, merged: str) -> list[str]:
    """Greedy left-to-right, non-overlapping replacement of one pair."""
    out: list[str] = []
    i = 0
    n = len(tokens)
    while i < n:
        if i + 1 < n and tokens[i] == left and tokens[i + 1] == right:
            out.append(merged)
            i += 2
        else:
            out.append(tokens[i])
            i += 1
    return out


def _pair_counts(tokens: list[str]) -> Counter:
    return Counter(zip(tokens, tokens[1:]))


def mine_vocabulary(
    corpus: list[list[str]],
    eta: int,
    ell: int | None = None,
) -> Vocabulary:
    """Mine frequent substructures from a tokenized corpus.

    Merges the most frequent adjacent pair while its count is at least
    `eta`, up to `ell` merges (default 30,000).  The pair index is updated
    incrementally but the result is exactly what a full rescan after every
    merge would produce.

    The returned substructure list holds every token whose frequency in
    the final segmented corpus is at least `eta`, ordered by descending
    frequency then token text.
    """
    if not corpus:
        raise VocabularyError("empty corpus")
    if eta < 1:
        raise VocabularyError(f"eta must be >= 1, got {eta}")
    if ell is None:
        ell = DEFAULT_MAX_MERGES
    if ell < 0:
        raise VocabularyError(f"ell must be >= 0, got {ell}")

    work = [list(seq) for seq in corpus]
    base_tokens = frozenset(tok for seq in work for tok in seq)

    counts: Counter = Counter()
    where: dict[tuple[str, str], set[int]] = {}
    for si, seq in enumerate(work):
        for pair, c in _pair_counts(seq).items():
            counts[pair] += c
            where.setdefault(pair, set()).add(si)

    merges: list[MergeRule] = []
    for rank in range(ell):
        if not counts:
            break
        best_count = max(counts.values())
        if best_count < eta:
            break
        pair = min(p for p, c in counts.items() if c == best_count)
        left, right = pair
        merged = left + right

        for si in sorted(where[pair]):
            old = work[si]
            new = _replace_pair(old, left, right, merged)
            old_pairs = _pair_counts(old)
            new_pairs = _pair_counts(new)
            for p, c in old_pairs.items():
                counts[p] -= c
                if counts[p] == 0:
                    del counts[p]
                if p not in new_pairs:
                    where[p].discard(si)
            for p, c in new_pairs.items():
                counts[p] += c
                where.setdefault(p, set()).add(si)
            work[si] = new

        merges.append(MergeRule(left, right, merged, rank, best_count))

    freq = Counter(tok for seq in work for tok in seq)
    substructures = sorted(
        ((tok, c) for tok, c in freq.items() if c >= eta),
        key=lambda tc: (-tc[1], tc[0]),
    )
    if not substructures:
        raise VocabularyError(
            f"no token reaches frequency threshold eta={eta}; lower eta or grow the corpus"
        )
    return Vocabulary(base_tokens, merges, substructures, eta, ell)


def segment(tokens: list[str], vocab: Vocabulary) -> list[str]:
    """Apply the vocabulary's merges in rank order to a token sequence.

    Unknown tokens pass through unchanged; the output always concatenates
    back to the input string.
    """
    seq = list(tokens)
    for rule in vocab.merges:
        if rule.left in seq:
            seq = _replace_pair(seq, rule.left, rule.right, rule.merged)
    return seq
