"""Functional vectors: shared-substructure bits and batches."""

import numpy as np
import pytest

from caster.corpus import PairCorpus, PairExample, atom_tokenize
from caster.featurize import (
    featurize_pairs,
    functional_representation,
    substructure_membership,
)
from caster.spm import MergeRule, Vocabulary, segment


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
