"""Multi-hot functional vectors for compound pairs.

A pair's functional vector has bit i set when substructure i occurs in
the segmentation token set of *both* compounds, so it is symmetric in
the pair and insensitive to repeated tokens within one string.

Vectors are dense float arrays by default (k is at most a few thousand);
for larger vocabularies use the sparse index-set form directly via
`substructure_membership`, or `export_features`, which writes sparse
index lists.
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


def _shared_indices(corpus: PairCorpus, vocab: Vocabulary):
    """Yield (example, sorted shared substructure indices) in corpus order.

    Per-compound memberships are cached, so corpora that reuse compounds
    featurize in O(unique compounds) segmentations.
    """
    cache: dict[str, set[int]] = {}

    def member(s: str) -> set[int]:
        if s not in cache:
            cache[s] = substructure_membership(s, vocab)
        return cache[s]

    for ex in corpus:
        yield ex, sorted(member(ex.left) & member(ex.right))


def featurize_pairs(
    corpus: PairCorpus, vocab: Vocabulary
) -> tuple[np.ndarray, np.ndarray | None]:
    """Featurize a whole corpus into a row-major (n, k) binary matrix.

    Returns (X, y) where y is the label vector for labelled corpora and
    None otherwise.
    """
    X = np.zeros((len(corpus), vocab.k), dtype=np.float64)
    for row, (_, shared) in enumerate(_shared_indices(corpus, vocab)):
        X[row, shared] = 1.0
    if corpus.kind == "labelled":
        y = np.array(corpus.labels(), dtype=np.float64)
        return X, y
    return X, None


def export_features(path, corpus: PairCorpus, vocab: Vocabulary) -> None:
    """Write sparse features as TSV: pair_id, comma-separated indices, label.

    pair_id is the 0-based row index in the corpus; the label column is
    present only for labelled corpora.
    """
    labelled = corpus.kind == "labelled"
    with open(path, "w", encoding="utf-8") as fh:
        for row, (ex, shared) in enumerate(_shared_indices(corpus, vocab)):
            idx = ",".join(map(str, shared))
            fh.write(f"{row}\t{idx}\t{int(ex.label)}\n" if labelled else f"{row}\t{idx}\n")
