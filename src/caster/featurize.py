"""Multi-hot functional vectors for compound pairs.

A pair's functional vector has bit i set when substructure i occurs in
the segmentation token set of *both* compounds, so it is symmetric in
the pair and insensitive to repeated tokens within one string.

A pair shares a handful of the k substructures, so the vectors are built
as index lists, one `nn.MultiHot` row per pair (`index_rows`), with one
segmentation per distinct compound.  Scoring and explaining read them in
that form; `featurize_pairs` and `functional_representation` return their
dense float64 form, bit for bit, for training and inspection.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from .corpus import PairCorpus, PairExample, atom_tokenize
from .nn import MultiHot
from .spm import Vocabulary, segment


def substructure_membership(smiles: str, vocab: Vocabulary) -> set[int]:
    """Indices of vocabulary substructures present in a compound's segmentation."""
    return _members(atom_tokenize(smiles), vocab)


def _members(tokens: list[str], vocab: Vocabulary) -> set[int]:
    # one lookup per segment token in the vocabulary's own index; a token
    # that is no substructure maps to None
    present = set(map(vocab._index.get, segment(tokens, vocab)))
    present.discard(None)
    return present


def index_rows(pairs: Iterable[PairExample], vocab: Vocabulary) -> MultiHot:
    """The functional vectors of `pairs` as MultiHot rows of sorted indices.

    Each distinct compound is segmented once, however many pairs it is in;
    a corpus read by `load_pair_corpus` segments the tokens it was checked
    with.
    """
    cache: dict[str, set[int]] = {}
    tokens = pairs.tokens if isinstance(pairs, PairCorpus) else None

    def member(s: str) -> set[int]:
        if s not in cache:
            cache[s] = substructure_membership(s, vocab) if tokens is None else _members(tokens[s], vocab)
        return cache[s]

    indptr = [0]
    indices: list[int] = []
    for ex in pairs:
        indices += sorted(member(ex.left) & member(ex.right))
        indptr.append(len(indices))
    return MultiHot(indptr, indices, vocab.k)


def functional_representation(left: str, right: str, vocab: Vocabulary) -> np.ndarray:
    """k-dimensional multi-hot vector of substructures shared by both compounds."""
    return index_rows([PairExample(left, right)], vocab).toarray()[0]


def featurize_pairs(
    corpus: PairCorpus, vocab: Vocabulary
) -> tuple[np.ndarray, np.ndarray | None]:
    """Featurize a whole corpus into a row-major (n, k) binary matrix, the
    dense form of `index_rows(corpus, vocab)`.

    Returns (X, y) where y is the label vector for labelled corpora and
    None otherwise.
    """
    X = index_rows(corpus, vocab).toarray()
    if corpus.kind == "labelled":
        y = np.array(corpus.labels(), dtype=np.float64)
        return X, y
    return X, None
