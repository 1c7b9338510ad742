"""Turn compound pairs into multi-hot shared-substructure vectors.

A pair's functional vector has bit i set exactly when substructure i
appears in the segmentations of BOTH compounds.  The representation is
symmetric, binary, and sparse; a whole corpus becomes an (n, k) matrix.

Run:  python demos/02_featurize_pairs.py
"""

import numpy as np

from caster.corpus import atom_tokenize
from caster.featurize import featurize_pairs, functional_representation
from caster.spm import mine_vocabulary
from caster.synthetic import DEFAULT_MOTIF, planted_motif_dataset

data = planted_motif_dataset(n_pairs=400, n_compounds=200, seed=1)
vocab = mine_vocabulary([atom_tokenize(s) for s in data.compounds], eta=35)
names = vocab.tokens()
print(f"vocabulary: k={vocab.k} substructures")

left = data.with_motif[0]
right = data.with_motif[1]
x = functional_representation(left, right, vocab)
print(f"\npair of two motif-carrying compounds:")
print(f"  left : {left}")
print(f"  right: {right}")
print(f"  shared substructures: {[names[i] for i in np.flatnonzero(x)]}")
assert x[vocab.index_of(DEFAULT_MOTIF)] == 1.0

x_sym = functional_representation(right, left, vocab)
assert np.array_equal(x, x_sym)
print("  (swapping the pair gives the identical vector)")

no_motif = data.without_motif[0]
x2 = functional_representation(left, no_motif, vocab)
print(f"\npair with a motif-free compound {no_motif}:")
print(f"  shared substructures: {[names[i] for i in np.flatnonzero(x2)]}")
assert x2[vocab.index_of(DEFAULT_MOTIF)] == 0.0

X, y = featurize_pairs(data.pairs, vocab)
print(f"\nwhole corpus: X is {X.shape}, {X.mean():.1%} of bits set, labels balanced at {y.mean():.0%}")
motif_bit = X[:, vocab.index_of(DEFAULT_MOTIF)]
print(f"motif bit equals the interaction label on {np.mean(motif_bit == y):.1%} of pairs")
