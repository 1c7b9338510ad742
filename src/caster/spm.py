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

Both hot paths keep the sequence as linked symbols, as SentencePiece's
BPE encoder does, and are exact shortcuts of the plain algorithms
(details in `mine_vocabulary` and `segment`):

* the miner links every string's symbols in one array, with no link
  across a string boundary, and indexes each pair by the positions of its
  left symbols.  A merge visits only those positions, updates the counts
  from their neighbours, and takes the best pair from a lazy max-heap
  instead of scanning every count;
* the segmenter takes the next merge from a min-heap of (rank,
  position).  A merge re-ranks only the two pairs next to it, and no
  pair goes back to a rank the walk has passed.
"""

from __future__ import annotations

import hashlib
import heapq
from array import array
from bisect import bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from .corpus import undecodable

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
    by the file round-trip.  Construction refuses what mining cannot
    produce.
    """

    merges: list[MergeRule]
    substructures: list[tuple[str, int]]
    eta: int
    ell: int
    _index: dict[str, int] = field(init=False, repr=False, compare=False)
    _ranks: dict[tuple[str, str], tuple[int, ...]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        _check_thresholds(self.eta, self.ell)
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
        for tok, freq in self.substructures:
            if freq < self.eta:
                raise VocabularyError(
                    f"substructure {tok!r} has frequency {freq}, below the eta={self.eta} threshold"
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

    def merge_ranks(self) -> dict[tuple[str, str], tuple[int, ...]]:
        """Every rank of each merge pair, ascending; built on first use.

        Built lazily, not on construction, so that loading a vocabulary
        does not pay for it.  `merges` must not change after the first call.
        """
        if self._ranks is None:
            ranks: dict[tuple[str, str], list[int]] = {}
            for rule in self.merges:
                ranks.setdefault((rule.left, rule.right), []).append(rule.rank)
            self._ranks = {pair: tuple(r) for pair, r in ranks.items()}
        return self._ranks

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
        header = lines[0].split() if lines else []
        if header[:2] != VOCAB_MAGIC.split():
            raise VocabularyError(f"missing {VOCAB_MAGIC!r} header")
        try:
            if len(header) != 4 or header[2][:4] != "eta=" or header[3][:4] != "ell=":
                raise ValueError
            eta, ell = int(header[2][4:]), int(header[3][4:])
        except ValueError:
            raise VocabularyError(
                f"malformed header {lines[0]!r}; expected '{VOCAB_MAGIC} eta=<int> ell=<int>'"
            ) from None

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
        for j in range(i, len(lines)):
            if lines[j].strip():
                raise VocabularyError(f"line {j + 1}: unexpected {lines[j]!r} after the substructure section")
        return cls(merges, substructures, eta, ell)

    @classmethod
    def load(cls, path) -> "Vocabulary":
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError:
            raise undecodable(path, VocabularyError) from None
        try:
            return cls.from_text(text)
        except VocabularyError as err:
            raise VocabularyError(f"{path}: {err}") from None


def _check_thresholds(eta: int, ell: int) -> None:
    if eta < 1:
        raise VocabularyError(f"eta must be >= 1, got {eta}")
    if ell < 0:
        raise VocabularyError(f"ell must be >= 0, got {ell}")


def _frequency(text: str, i: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise VocabularyError(f"line {i + 1}: frequency {text!r} is not an integer") from None


def mine_vocabulary(
    corpus: list[list[str]],
    eta: int,
    ell: int | None = None,
) -> Vocabulary:
    """Mine frequent substructures from a tokenized corpus.

    Merges the most frequent adjacent pair while its count is at least
    `eta`, up to `ell` merges (default 30,000).  The result is exactly what
    a full rescan after every merge would produce:

    * every string's symbols sit in one array, each string in a run of
      consecutive positions, linked to their neighbours with no link
      across a string boundary.  `where` lists, under each pair, the
      positions of left symbols that have spelled it.  The links and
      these lists are 32-bit arrays, `array("i")`, so a corpus holds
      fewer than 2**31 tokens, and a pair's list goes with its count:
      when the count reaches 0, no listed position still spells the pair;
    * a merge visits its pair's positions in ascending order, so it is
      greedy left to right within each string, and skips a position whose
      two symbols no longer spell the pair.  Symbols only grow, so a pair
      never comes back to a position that has lost it, and left+right is
      longer than both parts, so a merge makes no new site of its own
      pair;
    * each site subtracts the pairs it breaks and adds the pairs it makes
      with its current neighbours.  Where two sites touch, the pair added
      by the first is subtracted by the second, so the counts stay exact;
    * the best pair comes from a lazy max-heap of (-count, pair).  A pair
      is pushed when its count rises.  A popped entry whose count has
      since fallen is pushed again with its current count, and one whose
      pair is gone or counted higher is dropped.  Tuples order by
      (left, right), so ties break as `min` over the tied pairs does.

    The returned substructure list holds every token whose frequency in
    the final segmented corpus is at least `eta`, ordered by descending
    frequency then token text.
    """
    if ell is None:
        ell = DEFAULT_MAX_MERGES
    _check_thresholds(eta, ell)

    seq: list[str | None] = [tok for tokens in corpus for tok in tokens]
    n = len(seq)
    if not n:
        raise VocabularyError("empty corpus: no tokens to mine")
    nxt = array("i", range(1, n + 1))  # n: no next symbol
    prv = array("i", range(-1, n - 1))  # -1: no previous symbol
    end = 0
    for tokens in corpus:
        if tokens:
            prv[end] = -1
            end += len(tokens)
            nxt[end - 1] = n

    counts: dict[tuple[str, str], int] = {}
    where: defaultdict[tuple[str, str], array] = defaultdict(lambda: array("i"))
    for i, j in enumerate(nxt):
        if j < n:
            pair = (seq[i], seq[j])
            counts[pair] = counts.get(pair, 0) + 1
            where[pair].append(i)
    heap = [(-c, pair) for pair, c in counts.items()]
    heapq.heapify(heap)

    merges: list[MergeRule] = []
    while heap and len(merges) < ell:
        neg, pair = heap[0]
        count = counts.get(pair, 0)
        if count != -neg:
            if 0 < count < -neg:
                heapq.heapreplace(heap, (-count, pair))
            else:
                heapq.heappop(heap)
            continue
        if count < eta:
            break
        heapq.heappop(heap)
        left, right = pair
        merged = left + right

        delta: dict[tuple[str, str], int] = {}
        sites = 0
        for i in sorted(where.pop(pair)):
            j = nxt[i]  # while seq[i] is still `left`, the symbol it was listed with
            if seq[i] != left or seq[j] != right:
                continue  # stale: a merge has changed this pair since it was listed
            seq[i] = merged
            seq[j] = None  # merged into i
            k = nxt[i] = nxt[j]
            if k < n:
                prv[k] = i
                p = (right, seq[k])
                delta[p] = delta.get(p, 0) - 1
                p = (merged, seq[k])
                delta[p] = delta.get(p, 0) + 1
                where[p].append(i)
            h = prv[i]
            if h >= 0:
                p = (seq[h], left)
                delta[p] = delta.get(p, 0) - 1
                p = (seq[h], merged)
                delta[p] = delta.get(p, 0) + 1
                where[p].append(h)
            sites += 1
        delta[pair] = delta.get(pair, 0) - sites

        for p, d in delta.items():
            c = counts.get(p, 0) + d
            if c:
                counts[p] = c
                if d > 0:
                    heapq.heappush(heap, (-c, p))
            else:
                counts.pop(p, None)
                where.pop(p, None)
        merges.append(MergeRule(left, right, merged, len(merges), count))

    freq = Counter(tok for tok in seq if tok is not None)
    substructures = sorted(
        ((tok, c) for tok, c in freq.items() if c >= eta),
        key=lambda tc: (-tc[1], tc[0]),
    )
    if not substructures:
        raise VocabularyError(
            f"no token reaches frequency threshold eta={eta}; lower eta or grow the corpus"
        )
    return Vocabulary(merges, substructures, eta, ell)


def segment(tokens: list[str], vocab: Vocabulary) -> list[str]:
    """Apply the vocabulary's merges in rank order to a token sequence.

    Equal to walking every rule in rank order, where a rule whose pair is
    absent changes nothing and a rule that applies merges all its sites
    greedily left to right.  Instead of walking, the sequence is a linked
    list of symbols with a min-heap of (rank, position) entries, one per
    adjacent pair that some rank above the last rank applied can still
    merge:

    * a pair enters the heap at its smallest rank above the last rank
      applied.  That guard matters: a merged token can equal a base token
      or an earlier product, so one pair can hold several ranks, and a
      rule's product can recreate a pair whose earlier rank the walk has
      already passed;
    * entries pop in (rank, position) order, so all sites of one rank are
      applied left to right before any higher rank, as the walk does;
    * a merge re-ranks only the two pairs next to the merged token.  An
      entry whose pair has since changed is stale and skipped: tokens only
      grow, so a pair is unchanged exactly when both its tokens still
      spell the rule.

    Unknown tokens pass through unchanged; the output always concatenates
    back to the input string.
    """
    ranks = vocab.merge_ranks()
    merges = vocab.merges
    seq: list[str | None] = list(tokens)
    n = len(seq)
    nxt = list(range(1, n + 1))  # n: no next symbol
    prv = list(range(-1, n - 1))  # -1: no previous symbol
    heap = [(r[0], i) for i, r in enumerate(map(ranks.get, zip(seq, seq[1:]))) if r]
    heapq.heapify(heap)
    while heap:
        rank, i = heapq.heappop(heap)
        rule = merges[rank]
        j = nxt[i]
        if seq[i] != rule.left or j == n or seq[j] != rule.right:
            continue  # stale: a merge has changed this pair since it was pushed
        seq[i] = rule.merged
        seq[j] = None  # merged into i
        k = nxt[i] = nxt[j]
        if k < n:
            prv[k] = i
            pair_ranks = ranks.get((rule.merged, seq[k]))
            if pair_ranks and pair_ranks[-1] > rank:
                heapq.heappush(heap, (pair_ranks[bisect_right(pair_ranks, rank)], i))
        h = prv[i]
        if h >= 0:
            pair_ranks = ranks.get((seq[h], rule.merged))
            if pair_ranks and pair_ranks[-1] > rank:
                heapq.heappush(heap, (pair_ranks[bisect_right(pair_ranks, rank)], h))
    return [tok for tok in seq if tok is not None]
