"""The planted-motif generator's stream: fast draws against `Generator.choice`,
and golden digests of the corpora every demo, test and benchmark starts from."""

import hashlib

import numpy as np
import pytest

from caster.synthetic import (
    _ATOM_WEIGHTS,
    _ATOMS,
    _draw_atom,
    compound_pool,
    planted_motif_dataset,
    unlabelled_pair_corpus,
)

LONG = {"min_len": 30, "max_len": 60, "n_fragments": 40}


def digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def pair_lines(corpus) -> list[str]:
    return [f"{ex.left}\t{ex.right}\t{ex.label}" for ex in corpus.examples]


@pytest.mark.parametrize("seed", [0, 1, 104729])
def test_draw_atom_matches_choice(seed):
    # the CDF draw against the `choice` call it replaced, from equal generators
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    weights = _ATOM_WEIGHTS / _ATOM_WEIGHTS.sum()
    n = 40_000  # 120,000 draws over the three seeds
    drawn = [_draw_atom(fast) for _ in range(n)]
    oracle = [_ATOMS[int(slow.choice(len(_ATOMS), p=weights))] for _ in range(n)]
    assert drawn == oracle
    assert set(drawn) == set(_ATOMS)
    assert fast.bit_generator.state == slow.bit_generator.state


# SHA-256 of each corpus's lines, computed with `Generator.choice` drawing the
# atoms: the CDF draw must leave every stream bit-identical.
GOLDEN = {
    0: {
        "pool": "b7a0dd81f8c2ea4952a75804c14fe36c8c23a56077af690415b01343cc633a2e",
        "long": "89e3ce6a0c9ab419d1626edd6d692a12ffc97c8094d82bd79e73b39526b04c51",
        "planted": "908ea526b8d8ab07b75998e955dd86be4207e2b641dae9593d93e43aa3f5ef53",
        "unlabelled": "085174a460c27c1953c287f7f54d6e21347f17735a777e7cdf08c7cdc517ffb1",
    },
    7: {
        "pool": "2249a07178d39940e01de0de56a24a10f2e925e06a958f056117f6ac40904404",
        "long": "4e9e74118b57eb419f1f20276fe7f926a27d98084030988409499c5bf3a766bf",
        "planted": "f1fbc6c772a07028c6c6c56a57e5a6dd79186d6e17011b5e093dc95b3df36c6b",
        "unlabelled": "4e97cb7afaf1bc2b4cab1ac8579beac9fa919605abf381b85b0aec2531ec0dab",
    },
    104729: {
        "pool": "a719f226ad0e3ac2dc951e069e773908b68ec697e6886079983236fe1c5a1f39",
        "long": "70f972b8bcdafda7d0d53ff8cf6c48e43a3aac562ea07fe683bfe9692080c672",
        "planted": "f1811cd8f86b56b2da60c63ae0bc771234b4c29ad9560a0124c95aedf7e354e3",
        "unlabelled": "2a3349b6df1071c2e9a722d1ec0f944cf02db6b6ee871d7a6d0e2673f4beb7e7",
    },
}


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_corpora_match_golden_digests(seed):
    data = planted_motif_dataset(n_pairs=400, n_compounds=200, seed=seed, flip_fraction=0.1)
    got = {
        "pool": digest(compound_pool(300, seed)),
        "long": digest(compound_pool(200, seed, fragment_seed=seed + 1, **LONG)),
        "planted": digest(pair_lines(data.pairs) + data.compounds),
        "unlabelled": digest(pair_lines(unlabelled_pair_corpus(500, 200, seed))),
    }
    assert got == GOLDEN[seed]
