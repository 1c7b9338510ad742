"""Synthetic SMILES-like corpora with a planted interaction motif.

Compounds are random token strings over a small chemical alphabet; a
configurable motif (by default a nitrate-like group) is spliced into a
fraction of them.  A pair interacts exactly when both compounds carry the
motif, which gives ground truth for learnability and explanation tests:
the motif is multi-token, so the miner must reassemble it, and the
motif's feature bit is the only label-relevant signal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import LABELLED, UNLAB, PairCorpus, PairExample

DEFAULT_MOTIF = "O=[N+]([O-])"

_ATOMS = ["C", "N", "O", "S", "P", "F", "I", "Cl", "Br", "c", "n", "s", "B", "[Se]", "[nH]", "[Si]"]
_ATOM_WEIGHTS = np.array([2.0, 1.2, 1.2, 1.0, 0.8, 0.8, 0.6, 0.8, 0.8, 1.0, 0.8, 0.6, 0.6, 0.5, 0.5, 0.5])
_BONDS = ["=", "#"]

# The atom CDF, built as `Generator.choice(p=...)` builds it, so a draw
# through it returns what `choice` would for the same generator state.
_ATOM_CDF = (_ATOM_WEIGHTS / _ATOM_WEIGHTS.sum()).cumsum()
_ATOM_CDF /= _ATOM_CDF[-1]
_ATOM_CDF.flags.writeable = False


def _draw_atom(rng: np.random.Generator) -> str:
    """One weighted atom from one `rng.random()` double."""
    return _ATOMS[int(_ATOM_CDF.searchsorted(rng.random(), side="right"))]


def _fragment_library(rng: np.random.Generator, n_fragments: int, length: int = 3) -> list[str]:
    """Reusable multi-token chunks; their recurrence is what gives the miner
    frequent patterns beyond the planted motif."""
    frags = set()
    while len(frags) < n_fragments:
        toks = [_draw_atom(rng) for _ in range(length)]
        if rng.random() < 0.4:
            toks[rng.integers(1, length)] = _BONDS[int(rng.integers(len(_BONDS)))]
        frags.add("".join(toks))
    return sorted(frags)


def _random_compound(
    rng: np.random.Generator, fragments: list[str], min_len: int, max_len: int
) -> str:
    """Interleave library fragments with random atoms, bonds and one branch."""
    n = int(rng.integers(min_len, max_len + 1))
    tokens: list[str] = []
    prev_bond = True  # avoid a leading bond
    while len(tokens) < n:
        roll = rng.random()
        if fragments and roll < 0.22:
            tokens.append(fragments[int(rng.integers(len(fragments)))])
            prev_bond = False
        elif not prev_bond and roll < 0.34:
            tokens.append(_BONDS[int(rng.integers(len(_BONDS)))])
            prev_bond = True
        else:
            tokens.append(_draw_atom(rng))
            prev_bond = False
    if tokens[-1] in _BONDS:
        tokens.append("C")
    if rng.random() < 0.3 and len(tokens) > 3:
        pos = int(rng.integers(1, len(tokens) - 1))
        tokens.insert(pos, f"({_draw_atom(rng)})")
    return "".join(tokens)


def compound_pool(
    n: int,
    seed: int,
    motif: str = DEFAULT_MOTIF,
    motif_fraction: float = 0.55,
    min_len: int = 8,
    max_len: int = 16,
    n_fragments: int = 12,
    fragment_seed: int | None = None,
) -> list[str]:
    """Generate `n` compounds; roughly `motif_fraction` of them carry the motif.

    `fragment_seed` fixes the reusable fragment library independently of the
    compound draws, so separate pools can share one substructure universe
    the way labelled and unlabelled corpora share chemistry.
    """
    rng = np.random.default_rng(seed)
    frag_rng = np.random.default_rng(seed if fragment_seed is None else fragment_seed)
    fragments = _fragment_library(frag_rng, n_fragments)
    pool: list[str] = []
    for i in range(n):
        s = _random_compound(rng, fragments, min_len, max_len)
        if rng.random() < motif_fraction:
            cut = int(rng.integers(0, len(s) + 1))
            # splice on a token boundary: back off if we would split Cl/Br or a bracket
            while 0 < cut < len(s) and (
                s[cut] in "])" or s[cut - 1] in "[(%" or s[cut - 1 : cut + 1] in ("Cl", "Br")
                or (s[cut - 1] == "[" or (cut >= 2 and s[cut - 2] == "["))
            ):
                cut -= 1
            s = s[:cut] + motif + s[cut:]
        pool.append(s)
    return pool


@dataclass
class PlantedMotifData:
    pairs: PairCorpus
    motif: str
    compounds: list[str]
    with_motif: list[str]
    without_motif: list[str]


def planted_motif_dataset(
    n_pairs: int = 2000,
    n_compounds: int = 300,
    seed: int = 0,
    motif: str = DEFAULT_MOTIF,
    motif_fraction: float = 0.55,
    flip_fraction: float = 0.0,
    fragment_seed: int | None = None,
) -> PlantedMotifData:
    """Labelled pair corpus where label 1 means both compounds contain the motif.

    Positives and negatives are balanced; `flip_fraction` optionally flips
    that share of labels to make the task noisy.  Deterministic in `seed`.
    """
    rng = np.random.default_rng(seed + 1)
    compounds = compound_pool(n_compounds, seed, motif, motif_fraction, fragment_seed=fragment_seed)
    has_motif = [motif in s for s in compounds]
    unique = sorted(set(compounds))

    pos_cands = []
    neg_cands = []
    for i, a in enumerate(unique):
        for b in unique[i + 1 :]:
            (pos_cands if motif in a and motif in b else neg_cands).append((a, b))
    n_pos = n_pairs // 2
    n_neg = n_pairs - n_pos
    if n_pos > len(pos_cands) or n_neg > len(neg_cands):
        raise ValueError(
            f"cannot draw {n_pairs} pairs from {n_compounds} compounds; enlarge the pool"
        )
    chosen_pos = [pos_cands[i] for i in sorted(rng.choice(len(pos_cands), n_pos, replace=False))]
    chosen_neg = [neg_cands[i] for i in sorted(rng.choice(len(neg_cands), n_neg, replace=False))]

    examples = [PairExample(a, b, 1) for a, b in chosen_pos]
    examples += [PairExample(a, b, 0) for a, b in chosen_neg]
    order = rng.permutation(len(examples))
    examples = [examples[i] for i in order]
    if flip_fraction > 0.0:
        n_flip = int(round(flip_fraction * len(examples)))
        for i in rng.choice(len(examples), n_flip, replace=False):
            ex = examples[i]
            examples[i] = PairExample(ex.left, ex.right, 1 - ex.label)

    return PlantedMotifData(
        PairCorpus(examples, LABELLED),
        motif,
        compounds,
        [s for s, m in zip(compounds, has_motif) if m],
        [s for s, m in zip(compounds, has_motif) if not m],
    )


def unlabelled_pair_corpus(
    n_pairs: int,
    n_compounds: int,
    seed: int,
    motif: str = DEFAULT_MOTIF,
    motif_fraction: float = 0.55,
    fragment_seed: int | None = None,
) -> PairCorpus:
    """Random unlabelled pairs over a fresh compound pool (same distribution)."""
    rng = np.random.default_rng(seed + 2)
    unique = sorted(
        set(compound_pool(n_compounds, seed + 3, motif, motif_fraction, fragment_seed=fragment_seed))
    )
    cands = [(a, b) for i, a in enumerate(unique) for b in unique[i + 1 :]]
    if n_pairs > len(cands):
        raise ValueError(f"cannot draw {n_pairs} distinct pairs from {n_compounds} compounds")
    chosen = [cands[i] for i in sorted(rng.choice(len(cands), n_pairs, replace=False))]
    return PairCorpus([PairExample(a, b) for a, b in chosen], UNLAB)
