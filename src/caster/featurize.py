"""Multi-hot functional vectors for compound pairs.

A pair's functional vector has bit i set when substructure i occurs in
the segmentation token set of *both* compounds, so it is symmetric in
the pair and insensitive to repeated tokens within one string.

Vectors are dense float arrays (k is at most a few thousand); the sparse
index-set form of one compound is `substructure_membership`.
"""

from __future__ import annotations

import numpy as np

from .corpus import PairCorpus, atom_tokenize
from .spm import Vocabulary, segment


def substructure_membership(smiles: str, vocab: Vocabulary) -> set[int]:
    """Indices of vocabulary substructures present in a compound's segmentation."""
    present = set()
    for tok in segment(atom_tokenize(smiles), vocab):
        idx = vocab.index_of(tok)
        if idx is not None:
            present.add(idx)
    return present


def functional_representation(left: str, right: str, vocab: Vocabulary) -> np.ndarray:
    """k-dimensional multi-hot vector of substructures shared by both compounds."""
    shared = substructure_membership(left, vocab) & substructure_membership(right, vocab)
    x = np.zeros(vocab.k, dtype=np.float64)
    if shared:
        x[sorted(shared)] = 1.0
    return x


def featurize_pairs(
    corpus: PairCorpus, vocab: Vocabulary
) -> tuple[np.ndarray, np.ndarray | None]:
    """Featurize a whole corpus into a row-major (n, k) binary matrix.

    Returns (X, y) where y is the label vector for labelled corpora and
    None otherwise.  Per-compound memberships are cached, so corpora that
    reuse compounds featurize in O(unique compounds) segmentations.
    """
    cache: dict[str, set[int]] = {}

    def member(s: str) -> set[int]:
        if s not in cache:
            cache[s] = substructure_membership(s, vocab)
        return cache[s]

    X = np.zeros((len(corpus), vocab.k), dtype=np.float64)
    for row, ex in enumerate(corpus):
        X[row, sorted(member(ex.left) & member(ex.right))] = 1.0
    if corpus.kind == "labelled":
        y = np.array(corpus.labels(), dtype=np.float64)
        return X, y
    return X, None
