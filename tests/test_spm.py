"""Miner and segmenter correctness against naive oracles, plus vocab IO."""

import re
import tracemalloc
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from caster.cli import main
from caster.corpus import atom_tokenize, load_smiles_corpus
from caster.spm import MergeRule, Vocabulary, VocabularyError, mine_vocabulary, segment
from caster.synthetic import compound_pool


# --- independent oracle: rescan the whole corpus every iteration -----------

def naive_replace(seq, left, right, merged):
    out = []
    i = 0
    while i < len(seq):
        if i + 1 < len(seq) and seq[i] == left and seq[i + 1] == right:
            out.append(merged)
            i += 2
        else:
            out.append(seq[i])
            i += 1
    return out


def naive_miner(corpus, eta, ell):
    """Full-rescan reference: recount all adjacent pairs after every merge."""
    work = [list(seq) for seq in corpus]
    merges = []
    for rank in range(ell):
        counts = Counter()
        for seq in work:
            counts.update(zip(seq, seq[1:]))
        if not counts:
            break
        best = max(counts.values())
        if best < eta:
            break
        left, right = min(p for p, c in counts.items() if c == best)
        work = [naive_replace(seq, left, right, left + right) for seq in work]
        merges.append((left, right, best, rank))
    freq = Counter(tok for seq in work for tok in seq)
    subs = sorted(((t, c) for t, c in freq.items() if c >= eta), key=lambda tc: (-tc[1], tc[0]))
    return merges, subs, work


def reference_segment(tokens, vocab):
    """Sequential rule walk: apply every merge rule in rank order."""
    seq = list(tokens)
    for rule in vocab.merges:
        if rule.left in seq:
            seq = naive_replace(seq, rule.left, rule.right, rule.merged)
    return seq


# Multi-character base tokens that equal merge products ("A"+"B" = "AB"),
# so one pair can be merged at several ranks.
COLLIDING = ("A", "B", "AB", "C", "BC")

# Rules over COLLIDING: A+B and B+C spell base tokens, (AB, C) and (A, BC)
# can follow the rule that rebuilds their pair, and (A, A), (AA, A) overlap
# themselves.
COLLIDING_RULES = (
    ("A", "B"), ("B", "C"), ("AB", "C"), ("A", "BC"), ("AB", "BC"), ("C", "AB"),
    ("A", "A"), ("AA", "A"), ("B", "B"),
)

# A few distinct strings, each drawn several times, so that one merge
# rewrites several strings and their count deltas add up.
colliding_corpora = st.lists(
    st.lists(st.sampled_from(COLLIDING), min_size=1, max_size=12), min_size=1, max_size=6
).flatmap(lambda distinct: st.lists(st.sampled_from(distinct), min_size=1, max_size=20))

# Strings of zero to three tokens, so that most neighbouring tokens of the
# corpus lie across a string boundary, where no pair may be counted.
boundary_corpora = st.lists(st.lists(st.sampled_from(COLLIDING), max_size=3), min_size=1, max_size=30)

# Mined at eta=2: (ab, c) is merged at ranks 0 and 2.
REPEATED_PAIR_CORPUS = [["ab", "c"]] * 6 + [["a", "b", "c"]] * 3 + [["a", "b"]] * 2

# Mined at eta=2: merging (Y, AB) takes (AB, C) from 3 to 0, so its site
# list is dropped; merging (A, B) later forms (AB, C) again at 2 new sites.
DROPPED_PAIR_CORPUS = [["Y", "AB", "C"]] * 3 + [["Y", "AB"]] + [["A", "B", "C"]] * 2


def random_corpus(rng, max_strings=50, max_len=20, alphabet=("A", "B", "C", "D")):
    n = rng.integers(1, max_strings + 1)
    return [
        [alphabet[i] for i in rng.integers(0, len(alphabet), rng.integers(1, max_len + 1))]
        for _ in range(n)
    ]


class TestMineVocabulary:
    def test_two_string_example(self):
        # brute-force adjacent-pair count over {"CCO","CCN"}: (C,C)x2 is the
        # only pair reaching 2, everything after the merge has count 1
        corpus = [atom_tokenize("CCO"), atom_tokenize("CCN")]
        vocab = mine_vocabulary(corpus, eta=2)
        assert [(m.left, m.right, m.frequency_at_merge) for m in vocab.merges] == [("C", "C", 2)]
        assert vocab.substructures == [("CC", 2)]

    def test_zero_merge_budget(self):
        corpus = [atom_tokenize("CCO"), atom_tokenize("CCN")]
        vocab = mine_vocabulary(corpus, eta=1, ell=0)
        assert vocab.merges == []
        # substructures are the base tokens with their frequencies
        assert dict(vocab.substructures) == {"C": 4, "O": 1, "N": 1}

    def test_threshold_boundary(self):
        corpus = [["C", "C"]] * 60
        accepted = mine_vocabulary(corpus, eta=50)
        assert [(m.left, m.right, m.frequency_at_merge) for m in accepted.merges] == [("C", "C", 60)]
        rejected = mine_vocabulary(corpus, eta=61)
        assert rejected.merges == []
        assert rejected.substructures == [("C", 120)]

    @pytest.mark.parametrize("corpus", [[], [[]], [[], []]])
    def test_empty_corpus_rejected(self, corpus):
        with pytest.raises(VocabularyError, match="empty corpus: no tokens to mine"):
            mine_vocabulary(corpus, eta=1)

    def test_unreachable_threshold_rejected(self):
        with pytest.raises(VocabularyError, match="threshold"):
            mine_vocabulary([["C", "O"]], eta=5)

    def test_matches_naive_simulator(self, rng):
        for _ in range(60):
            corpus = random_corpus(rng)
            eta = int(rng.integers(1, 8))
            ell = int(rng.integers(0, 30))
            vocab = mine_vocabulary(corpus, eta, ell)
            merges, subs, _ = naive_miner(corpus, eta, ell)
            assert [(m.left, m.right, m.frequency_at_merge, m.rank) for m in vocab.merges] == merges
            assert vocab.substructures == subs

    @settings(max_examples=400, deadline=None)
    @given(colliding_corpora | boundary_corpora, st.integers(1, 6), st.integers(0, 25))
    @example([["A"], ["B"]] * 5, 1, 25)  # every (A, B) and (B, A) spans two strings
    @example([[], ["A", "B"], [], ["A"], ["B", "A"], ["B"], []] * 3, 1, 25)
    @example([["A", "A"], ["A"], [], ["A", "A", "A"], ["A"]] * 2, 2, 25)
    @example(DROPPED_PAIR_CORPUS, 2, 25)
    def test_matches_naive_simulator_on_colliding_tokens(self, corpus, eta, ell):
        merges, subs, _ = naive_miner(corpus, eta, ell)
        if not subs:
            message = "threshold" if any(corpus) else "empty corpus"
            with pytest.raises(VocabularyError, match=message):
                mine_vocabulary(corpus, eta, ell)
            return
        vocab = mine_vocabulary(corpus, eta, ell)
        assert [(m.left, m.right, m.frequency_at_merge, m.rank) for m in vocab.merges] == merges
        assert vocab.substructures == subs

    def test_repeated_pair_example(self):
        # (ab,c)=6 beats (a,b)=5; merging (a,b) then recreates (ab,c) three times
        vocab = mine_vocabulary(REPEATED_PAIR_CORPUS, eta=2)
        assert [(m.left, m.right, m.frequency_at_merge) for m in vocab.merges] == [
            ("ab", "c", 6), ("a", "b", 5), ("ab", "c", 3)
        ]
        assert vocab.substructures == [("abc", 9), ("ab", 2)]
        assert vocab.merge_ranks()[("ab", "c")] == (0, 2)

    def test_traced_memory_per_position(self):
        # positions live in 32-bit arrays and a pair's site list goes with
        # its count: about 142 traced bytes per position, where a miner that
        # holds positions as Python ints and keeps every list takes 214
        pool = compound_pool(300, 0, min_len=30, max_len=60, n_fragments=40, fragment_seed=0)
        corpus = [atom_tokenize(s) for s in pool]
        positions = sum(map(len, corpus))
        tracemalloc.start()
        try:
            mine_vocabulary(corpus, eta=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert positions == 20_524
        assert peak / positions < 175

    def test_monotone_in_eta(self, rng):
        for _ in range(20):
            corpus = random_corpus(rng, max_strings=20)
            previous = None
            for eta in (1, 2, 3, 5, 8):
                try:
                    n_merges = len(mine_vocabulary(corpus, eta).merges)
                except VocabularyError:
                    n_merges = 0
                if previous is not None:
                    assert n_merges <= previous
                previous = n_merges


class TestSegment:
    def _vocab(self, merges, subs=(("CC", 2),), eta=1, ell=100):
        rules = [MergeRule(l, r, l + r, i, 99) for i, (l, r) in enumerate(merges)]
        return Vocabulary(rules, list(subs), eta, ell)

    def test_single_rule(self):
        vocab = self._vocab([("C", "C")])
        assert segment(atom_tokenize("CCO"), vocab) == ["CC", "O"]

    def test_empty_merges_is_identity(self):
        vocab = self._vocab([])
        assert segment(atom_tokenize("CCO"), vocab) == ["C", "C", "O"]

    def test_rank_ordered_greedy(self):
        vocab = self._vocab([("C", "C"), ("CC", "CC")])
        assert segment(atom_tokenize("CCCC"), vocab) == ["CCCC"]

    def test_unknown_tokens_pass_through(self):
        vocab = self._vocab([("C", "C")])
        assert segment(["X", "C", "C", "Y"], vocab) == ["X", "CC", "Y"]

    def test_reproduces_miner_working_set(self, rng):
        # segmenting a training string must equal its final mined form
        for _ in range(25):
            corpus = random_corpus(rng, max_strings=15)
            eta = int(rng.integers(1, 5))
            try:
                vocab = mine_vocabulary(corpus, eta)
            except VocabularyError:
                continue
            _, _, final_work = naive_miner(corpus, eta, vocab.ell)
            for seq, mined in zip(corpus, final_work):
                assert segment(seq, vocab) == mined

    def test_repeated_pair_example(self):
        vocab = mine_vocabulary(REPEATED_PAIR_CORPUS, eta=2)
        assert segment(["a", "b", "c"], vocab) == ["abc"]
        assert segment(["a", "b", "ab", "c"], vocab) == ["ab", "abc"]

    def test_product_recreating_a_passed_pair_is_not_merged(self):
        # the walk applies (AB,C) before (A,B) creates an AB token; a loop that
        # always merges the lowest-ranked pair present would merge it anyway
        vocab = self._vocab([("AB", "C"), ("A", "B")])
        assert segment(["A", "B", "C"], vocab) == ["AB", "C"]
        assert segment(["AB", "C", "A", "B", "C"], vocab) == ["ABC", "AB", "C"]

    @pytest.mark.parametrize("merges", [
        [("AB", "C"), ("A", "B"), ("AB", "C")],
        [("A", "B"), ("B", "C"), ("A", "B"), ("AB", "C"), ("A", "BC")],
        [("B", "C"), ("A", "BC"), ("A", "B"), ("AB", "C"), ("B", "C")],
        [("A", "A"), ("AA", "A"), ("A", "A"), ("AA", "AA")],
    ])
    def test_repeated_pairs_match_rule_walk(self, merges):
        vocab = self._vocab(merges)
        for text in ("ABC", "ABCABC", "AABCBC", "ABABCC", "AAAAAAA", "CABBCA"):
            tokens = list(text)
            assert segment(tokens, vocab) == reference_segment(tokens, vocab)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.sampled_from(COLLIDING), st.sampled_from(COLLIDING)), min_size=2, max_size=12),
        st.lists(st.lists(st.sampled_from(COLLIDING), min_size=2, max_size=20), max_size=5),
    )
    def test_matches_rule_walk_on_hand_built_rules(self, merge_pairs, probes):
        rules = [MergeRule(l, r, l + r, i, 1) for i, (l, r) in enumerate(merge_pairs)]
        vocab = Vocabulary(rules, [("A", 1)], 1, 100)
        # each product spelled out letter by letter meets the rules that built it
        for tokens in probes + [list(rule.merged) for rule in rules]:
            assert segment(tokens, vocab) == reference_segment(tokens, vocab)

    @settings(max_examples=200, deadline=None)
    @given(
        colliding_corpora | boundary_corpora,
        st.integers(1, 4),
        st.lists(st.lists(st.sampled_from(COLLIDING), min_size=2, max_size=20), max_size=5),
    )
    def test_matches_rule_walk_on_mined_vocabularies(self, corpus, eta, probes):
        try:
            vocab = mine_vocabulary(corpus, eta)
        except VocabularyError:
            return
        _, _, final_work = naive_miner(corpus, eta, vocab.ell)
        for tokens, mined in zip(corpus, final_work):
            assert segment(tokens, vocab) == reference_segment(tokens, vocab) == mined
        for tokens in probes + [list(rule.merged) for rule in vocab.merges]:
            assert segment(tokens, vocab) == reference_segment(tokens, vocab)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from(COLLIDING_RULES), min_size=1, max_size=10),
        st.lists(st.lists(st.sampled_from(COLLIDING), min_size=2, max_size=40), min_size=1, max_size=5),
    )
    def test_heap_matches_rule_walk_where_products_collide(self, merge_pairs, probes):
        # the heap's stale-entry check and its "above the last rank" guard
        # against the walk, on rules whose products are base tokens or
        # rebuild pairs the walk has passed, with pairs repeated across ranks
        rules = [MergeRule(l, r, l + r, i, 1) for i, (l, r) in enumerate(merge_pairs)]
        vocab = Vocabulary(rules, [("A", 1)], 1, 100)
        for tokens in probes:
            for seq in (tokens, list("".join(tokens))):
                assert segment(seq, vocab) == reference_segment(seq, vocab)

    @given(
        st.lists(st.sampled_from(["A", "B", "C"]), min_size=1, max_size=25),
        st.lists(st.tuples(st.sampled_from(["A", "B", "C", "AB", "BC"]), st.sampled_from(["A", "B", "C"])), max_size=5),
    )
    def test_lossless(self, tokens, merge_pairs):
        rules = [MergeRule(l, r, l + r, i, 1) for i, (l, r) in enumerate(merge_pairs)]
        vocab = Vocabulary(rules, [("A", 1)], 1, 100)
        assert "".join(segment(tokens, vocab)) == "".join(tokens)


class TestVocabularyFile:
    def test_roundtrip_preserves_segmentation(self, tmp_path, rng):
        corpus = [atom_tokenize(s) for s in ("CCOCC", "CCNCC", "CCOCC(N)O", "OCCN")]
        # pad the corpus so a couple of merges clear the threshold
        corpus = corpus * 3
        vocab = mine_vocabulary(corpus, eta=4)
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        loaded = Vocabulary.load(path)
        assert loaded.merges == vocab.merges
        assert loaded.substructures == vocab.substructures
        assert (loaded.eta, loaded.ell) == (vocab.eta, vocab.ell)
        assert loaded.content_hash() == vocab.content_hash()
        for seq in corpus:
            assert segment(seq, loaded) == segment(seq, vocab)

    def test_header_format(self):
        vocab = mine_vocabulary([["C", "C"]] * 3, eta=2)
        text = vocab.to_text()
        assert text.startswith("spm-vocab v1 eta=2 ell=30000\n")
        assert "C\tC\t3\n" in text

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a vocab\n")
        with pytest.raises(VocabularyError):
            Vocabulary.load(path)

    @pytest.mark.parametrize("lineno", [2, 4])  # a merge line, a substructure line
    def test_bad_frequency_names_file_and_line(self, tmp_path, lineno):
        lines = mine_vocabulary([["C", "C"]] * 3, eta=2).to_text().splitlines()
        assert lines[lineno - 1].endswith("\t3")
        lines[lineno - 1] = lines[lineno - 1][:-1] + "x"
        with pytest.raises(VocabularyError, match=f"^line {lineno}: frequency 'x' is not an integer$"):
            Vocabulary.from_text("\n".join(lines))
        path = tmp_path / "vocab.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(VocabularyError, match=f"^{re.escape(str(path))}: line {lineno}: frequency"):
            Vocabulary.load(path)

    def test_undecodable_byte_names_file_and_line(self, tmp_path):
        text = mine_vocabulary([["C", "C"]] * 3, eta=2).to_text().encode()
        path = tmp_path / "vocab.txt"
        path.write_bytes(text.replace(b"\n\n", b"\n\xff\n", 1))  # line 3: the separator
        with pytest.raises(VocabularyError, match=f"^{re.escape(str(path))}: line 3: invalid UTF-8 byte 0xff$"):
            Vocabulary.load(path)

    @pytest.mark.parametrize("text, message", [
        pytest.param("spm-vocab v1 eta=0 ell=10\n\nC\t3\n", "eta must be >= 1, got 0", id="eta-0"),
        pytest.param("spm-vocab v1 eta=1 ell=-1\n\nC\t3\n", "ell must be >= 0, got -1", id="ell-negative"),
        pytest.param(
            "spm-vocab v1 eta=5 ell=10\n\nC\t9\nO\t2\n",
            "substructure 'O' has frequency 2, below the eta=5 threshold",
            id="frequency-below-eta",
        ),
        pytest.param(
            "spm-vocab v1 eta=5 ell=10\n\nC\t-3\n",
            "substructure 'C' has frequency -3, below the eta=5 threshold",
            id="frequency-negative",
        ),
        pytest.param("spm-vocab v17 eta=1 ell=10\n\nC\t3\n", "missing 'spm-vocab v1' header", id="version-v17"),
        pytest.param(
            "spm-vocab v1 2 30 junk\n\nC\t3\n",
            "malformed header 'spm-vocab v1 2 30 junk'; expected 'spm-vocab v1 eta=<int> ell=<int>'",
            id="header-without-names",
        ),
        pytest.param(
            "spm-vocab v1 eta=1 ell=5\n\nC\t3\n\nO\t1\n",
            "line 5: unexpected 'O\\t1' after the substructure section",
            id="line-after-substructures",
        ),
        pytest.param(
            "spm-vocab v1 eta=1 ell=5\n\tC\t3\n\n\t3\nC\t2\n",
            "merge rank 0 has an empty side: '' + 'C'",
            id="empty-merge-side",
        ),
        pytest.param(
            "spm-vocab v1 eta=1 ell=5\n\nC\t3\n\t3\n",
            "substructure at index 1 is empty",
            id="empty-substructure",
        ),
        pytest.param(
            "spm-vocab v1 eta=1 ell=5\n\nC\t3\nO\t2\nC\t2\n",
            "substructure 'C' appears at index 0 and index 2",
            id="repeated-substructure",
        ),
    ])
    def test_refuses_what_mining_cannot_produce(self, tmp_path, text, message):
        path = tmp_path / "vocab.txt"
        path.write_text(text)
        with pytest.raises(VocabularyError, match=f"^{re.escape(str(path))}: {re.escape(message)}$"):
            Vocabulary.load(path)

    def test_substructure_order_is_index_order(self):
        vocab = mine_vocabulary([["C", "C"], ["C", "O"], ["O", "C"]], eta=1, ell=0)
        # descending frequency, ties by token text; index_of matches list order
        assert [vocab.index_of(tok) for tok, _ in vocab.substructures] == list(range(vocab.k))


# Byte values a damaged text file is likely to hold: the format's separators
# and digits, SMILES characters, non-UTF-8 lead bytes, or anything else.
DAMAGE_BYTES = st.sampled_from(b"\t\n\r 0123456789-=+eC()[]l\x80\xc3\xff") | st.integers(0, 255)
DAMAGE = dict(
    cut=st.none() | st.floats(0.0, 1.0, exclude_max=True),
    flips=st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True), DAMAGE_BYTES), max_size=3),
    inserts=st.lists(
        st.tuples(st.floats(0.0, 1.0), st.lists(DAMAGE_BYTES, min_size=1, max_size=4).map(bytes)),
        max_size=3,
    ),
)


def damage(data: bytes, cut, flips, inserts) -> bytes:
    """`data` with bytes overwritten, then inserted, then the tail cut off."""
    out = bytearray(data)
    for where, value in flips:
        out[int(where * len(out))] = value
    for where, chunk in inserts:
        at = int(where * len(out))
        out[at:at] = chunk
    if cut is not None:
        del out[int(cut * len(out)) :]
    return bytes(out)


@pytest.fixture(scope="module")
def saved_vocabulary(tmp_path_factory):
    corpus = [atom_tokenize(s) for s in ("CCOCC", "CCNCC", "CCOCC(N)O", "OCCN", "c1ccccc1Cl")] * 3
    path = tmp_path_factory.mktemp("vocab") / "vocab.txt"
    mine_vocabulary(corpus, eta=3).save(path)
    return path


@settings(max_examples=300, deadline=None)
@given(**DAMAGE)
def test_damaged_vocabulary_raises_only_vocabulary_error(saved_vocabulary, cut, flips, inserts):
    damaged = saved_vocabulary.with_name("damaged.txt")
    damaged.write_bytes(damage(saved_vocabulary.read_bytes(), cut, flips, inserts))
    try:
        Vocabulary.load(damaged)
    except VocabularyError as err:
        assert str(damaged) in str(err)


class TestMineCorpusFile:
    def test_duplicate_lines_mine_like_the_naive_miner(self, tmp_path):
        lines = ["CCOCC", "CCNCC", "CCOCC", "OCCN", "CCOCC", "CCNCC", "c1ccccc1", "OCCN"] * 3
        path = tmp_path / "compounds.smi"
        path.write_text("\n".join(lines) + "\n")
        assert load_smiles_corpus(path) == lines
        out = tmp_path / "vocab.txt"
        assert main(["mine", "--corpus", str(path), "--min-freq", "3", "--out", str(out)]) == 0
        vocab = Vocabulary.load(out)
        merges, subs, _ = naive_miner([atom_tokenize(s) for s in lines], 3, vocab.ell)
        assert merges
        assert [(m.left, m.right, m.frequency_at_merge, m.rank) for m in vocab.merges] == merges
        assert vocab.substructures == subs


@pytest.fixture
def rng():
    import numpy as np

    return np.random.default_rng(20240811)


class TestVocabularyInvariants:
    def test_merged_token_must_concatenate(self):
        with pytest.raises(VocabularyError):
            MergeRule("C", "C", "CO", 0, 5)

    def test_merge_budget_enforced(self):
        rules = [MergeRule("C", "C", "CC", 0, 5), MergeRule("CC", "C", "CCC", 1, 5)]
        with pytest.raises(VocabularyError, match="budget"):
            Vocabulary(rules, [("CC", 5)], eta=1, ell=1)

    def test_threshold_enforced(self):
        rules = [MergeRule("C", "C", "CC", 0, 3)]
        with pytest.raises(VocabularyError, match="threshold"):
            Vocabulary(rules, [("CC", 5)], eta=4, ell=10)

    def test_rank_order_enforced(self):
        rules = [MergeRule("C", "C", "CC", 1, 5)]
        with pytest.raises(VocabularyError, match="consecutive"):
            Vocabulary(rules, [("CC", 5)], eta=1, ell=10)
