"""Seeded inputs for the benchmark workloads.

Every function here is a pure function of its arguments: the same seed
gives the same compounds, pairs and rows.  Compounds come from
`caster.synthetic.compound_pool`; the pairings, multi-hot rows and labels
are drawn here.
"""

from __future__ import annotations

import numpy as np

from caster.corpus import UNLAB, PairCorpus, PairExample
from caster.synthetic import compound_pool

# Long compounds: about 69 atom tokens each, over a 40-fragment library.
LONG_COMPOUNDS = {"min_len": 30, "max_len": 60, "n_fragments": 40}
MINE_POOL = 2000
ETA = 5

# Paper-scale arrays for the train workload (k as in the ROADMAP baselines).
TRAIN_K = 1722
TRAIN_NNZ = 17
UNLABELLED_ROWS = 1024
LABELLED_ROWS = 2560


def derive(seed: int, stream: int) -> int:
    """An independent seed for one input stream of a workload."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def long_compounds(n: int, seed: int, fragment_seed: int) -> list[str]:
    return compound_pool(n, seed, fragment_seed=fragment_seed, **LONG_COMPOUNDS)


def held_out(n: int, seed: int, fragment_seed: int, exclude) -> list[str]:
    """`n` distinct compounds over the same fragment library, none in `exclude`."""
    seen = set(exclude)
    out: list[str] = []
    draw = 0
    while len(out) < n:
        for s in long_compounds(n, derive(seed, draw), fragment_seed):
            if s not in seen and len(out) < n:
                seen.add(s)
                out.append(s)
        draw += 1
    return out


def recurring_pairs(compounds: list[str], rounds: int, seed: int) -> PairCorpus:
    """Pairs in which every compound recurs exactly `rounds` times.

    Each round pairs up a fresh permutation of the compounds; a round that
    would repeat an earlier pair is redrawn.  Needs an even compound count.
    """
    if len(compounds) % 2:
        raise ValueError("recurring_pairs needs an even number of compounds")
    rng = np.random.default_rng(seed)
    keys: set[tuple[str, str]] = set()
    examples: list[PairExample] = []
    for _ in range(rounds):
        while True:
            perm = rng.permutation(len(compounds))
            batch = [PairExample(compounds[a], compounds[b]) for a, b in perm.reshape(-1, 2)]
            batch_keys = {ex.key() for ex in batch}
            if not batch_keys & keys:
                break
        keys |= batch_keys
        examples.extend(batch)
    return PairCorpus(examples, UNLAB)


def multi_hot_rows(n: int, k: int, nnz: int, seed: int, planted: int | None = None, labels=None):
    """`n` rows with exactly `nnz` ones each.

    With `planted`, rows whose label is 1 carry bit `planted` in place of
    one random bit, and no row of label 0 carries it.
    """
    rng = np.random.default_rng(seed)
    width = k if planted is None else k - 1
    idx = np.argpartition(rng.random((n, width)), nnz, axis=1)[:, :nnz]
    if planted is not None:
        idx = idx + (idx >= planted)
        idx[np.asarray(labels) == 1, 0] = planted
    X = np.zeros((n, k), dtype=np.float64)
    np.put_along_axis(X, idx, 1.0, axis=1)
    return X


def train_arrays(seed: int):
    """(unlabelled rows, labelled rows, labels, planted bit) for the train workload."""
    rng = np.random.default_rng(derive(seed, 0))
    planted = int(rng.integers(TRAIN_K))
    y = rng.permutation(np.repeat([1.0, 0.0], LABELLED_ROWS // 2))
    U = multi_hot_rows(UNLABELLED_ROWS, TRAIN_K, TRAIN_NNZ, derive(seed, 1))
    X = multi_hot_rows(LABELLED_ROWS, TRAIN_K, TRAIN_NNZ, derive(seed, 2), planted, y)
    return U, X, y, planted
