"""Functional vectors: shared-substructure bits and batches."""

import numpy as np
import pytest

from caster.corpus import PairCorpus, PairExample, atom_tokenize, load_pair_corpus, write_pair_corpus
from caster.featurize import (
    featurize_pairs,
    functional_representation,
    index_rows,
    substructure_membership,
)
from caster.spm import MergeRule, Vocabulary, mine_vocabulary, segment
from caster.synthetic import unlabelled_pair_corpus


@pytest.fixture
def vocab():
    # substructures ["CC", "O", "N"], one merge rule C+C
    return Vocabulary(
        [MergeRule("C", "C", "CC", 0, 5)],
        [("CC", 5), ("O", 3), ("N", 2)],
        eta=1,
        ell=100,
    )


class TestFunctionalRepresentation:
    def test_identical_pair_reduces_to_membership(self, vocab):
        np.testing.assert_array_equal(
            functional_representation("CCO", "CCO", vocab), [1.0, 1.0, 0.0]
        )

    def test_only_shared_substructures(self, vocab):
        np.testing.assert_array_equal(
            functional_representation("CCO", "CCN", vocab), [1.0, 0.0, 0.0]
        )

    def test_disjoint_alphabets_give_zero_vector(self, vocab):
        np.testing.assert_array_equal(
            functional_representation("CC", "OO", vocab), [0.0, 0.0, 0.0]
        )

    def test_symmetry(self, vocab):
        a, b = "CCON", "CCO"
        np.testing.assert_array_equal(
            functional_representation(a, b, vocab), functional_representation(b, a, vocab)
        )

    def test_membership_not_substring(self, vocab):
        # "C" alone never merges into "CC", so the CC bit stays off even
        # though "C" is a substring of "CC"
        np.testing.assert_array_equal(
            functional_representation("C", "CC", vocab), [0.0, 0.0, 0.0]
        )

    def test_elementwise_and_of_memberships(self, vocab, subtests=None):
        # oracle: segment both strings, intersect index sets
        for a, b in [("CCO", "CCN"), ("OCCN", "NCCO"), ("CCOO", "OOCC")]:
            x = functional_representation(a, b, vocab)
            expected = np.zeros(vocab.k)
            shared = substructure_membership(a, vocab) & substructure_membership(b, vocab)
            for i in shared:
                expected[i] = 1.0
            np.testing.assert_array_equal(x, expected)

    def test_tokens_outside_the_vocabulary_are_dropped(self, vocab):
        # "S" and the unmerged "C" are no substructures; no None is left behind
        assert substructure_membership("CCSNC", vocab) == {0, 2}
        assert substructure_membership("SCS", vocab) == set()

    def test_duplicate_tokens_do_not_change_bits(self, vocab):
        once = functional_representation("CCO", "CCO", vocab)
        many = functional_representation("CCOOO", "CCO", vocab)
        np.testing.assert_array_equal(once, many)


class TestBatchFeaturization:
    def test_matrix_matches_per_pair(self, vocab):
        corpus = PairCorpus(
            [PairExample("CCO", "CCN", 1), PairExample("CC", "OO", 0), PairExample("OCC", "CCO", 1)],
            "labelled",
        )
        X, y = featurize_pairs(corpus, vocab)
        assert X.shape == (3, 3)
        np.testing.assert_array_equal(y, [1, 0, 1])
        for row, ex in zip(X, corpus):
            np.testing.assert_array_equal(row, functional_representation(ex.left, ex.right, vocab))

    def test_unlabelled_returns_no_labels(self, vocab):
        corpus = PairCorpus([PairExample("CCO", "CCN")], "unlabelled")
        X, y = featurize_pairs(corpus, vocab)
        assert y is None and X.shape == (1, 3)


def per_row_fill(corpus, vocab):
    """Oracle for featurize_pairs: each row's shared indices set in a zero
    matrix one row at a time."""
    X = np.zeros((len(corpus), vocab.k), dtype=np.float64)
    for row, ex in enumerate(corpus):
        shared = substructure_membership(ex.left, vocab) & substructure_membership(ex.right, vocab)
        X[row, sorted(shared)] = 1.0
    return X


class TestIndexRows:
    @pytest.fixture(scope="class")
    def mined(self):
        corpus = unlabelled_pair_corpus(200, 60, seed=3)
        vocab = mine_vocabulary([atom_tokenize(s) for s in corpus.drugs()], eta=5)
        return corpus, vocab

    def test_featurize_pairs_equals_the_per_row_fill(self, mined):
        corpus, vocab = mined
        X, _ = featurize_pairs(corpus, vocab)
        expected = per_row_fill(corpus, vocab)
        assert X.dtype == expected.dtype and X.flags.c_contiguous
        assert np.array_equal(X, expected)
        assert (X.sum(axis=1) == 0).any() and (X.sum(axis=1) > 1).any()  # the corpus has both kinds

    def test_rows_are_the_sorted_shared_indices(self, mined):
        corpus, vocab = mined
        rows = index_rows(corpus, vocab)
        assert rows.shape == (len(corpus), vocab.k)
        for i, ex in enumerate(corpus):
            shared = substructure_membership(ex.left, vocab) & substructure_membership(ex.right, vocab)
            np.testing.assert_array_equal(rows.indices[rows.indptr[i] : rows.indptr[i + 1]], sorted(shared))

    def test_one_segmentation_per_distinct_compound(self, mined, monkeypatch):
        import caster.featurize

        corpus, vocab = mined
        calls = []

        def counted(smiles, v):
            calls.append(smiles)
            return substructure_membership(smiles, v)

        monkeypatch.setattr(caster.featurize, "substructure_membership", counted)
        index_rows(corpus, vocab)
        assert sorted(calls) == corpus.drugs()

    def test_a_loaded_corpus_segments_the_tokens_it_was_read_with(self, mined, monkeypatch, tmp_path):
        import caster.featurize

        corpus, vocab = mined
        write_pair_corpus(tmp_path / "pairs.tsv", corpus)
        loaded = load_pair_corpus(tmp_path / "pairs.tsv", "unlabelled")
        segmented = []

        def counted(tokens, v):
            segmented.append("".join(tokens))
            return segment(tokens, v)

        def refused(smiles):
            raise AssertionError(f"{smiles} tokenized again")

        monkeypatch.setattr(caster.featurize, "segment", counted)
        monkeypatch.setattr(caster.featurize, "atom_tokenize", refused)
        rows = index_rows(loaded, vocab)
        assert sorted(segmented) == corpus.drugs()
        monkeypatch.undo()
        expected = index_rows(corpus, vocab)
        assert rows.indptr.tolist() == expected.indptr.tolist()
        assert rows.indices.tolist() == expected.indices.tolist()

    def test_functional_representation_is_the_dense_row(self, mined):
        corpus, vocab = mined
        for ex in list(corpus)[:20]:
            x = functional_representation(ex.left, ex.right, vocab)
            assert x.shape == (vocab.k,)
            assert np.array_equal(x, index_rows([ex], vocab).toarray()[0])
