"""Frequent-substructure mining and interpretable interaction prediction.

The pipeline: tokenize SMILES corpora, mine frequent substructures by
iterative pair merging, featurize compound pairs as multi-hot shared
substructure vectors, train a semi-supervised auto-encoder with a
dictionary projection and a perceptron predictor, and read predictions
back as per-substructure coefficients.
"""

from .corpus import (
    PairCorpus,
    PairExample,
    SmilesParseError,
    atom_tokenize,
    load_pair_corpus,
    load_smiles_corpus,
)
from .featurize import (
    featurize_pairs,
    functional_representation,
    substructure_membership,
)
from .metrics import coefficient_correlation, f1_at_threshold, pr_auc, roc_auc
from .model import (
    CasterModel,
    LossWeights,
    ModelConfig,
    TrainingConfig,
    TrainResult,
    classification_loss,
    explain_pair,
    load_checkpoint,
    pretrain,
    reconstruction_loss,
    ridge_coefficients,
    save_checkpoint,
    train,
)
from .spm import MergeRule, Vocabulary, mine_vocabulary, segment

__version__ = "0.1.0"

__all__ = [
    "PairCorpus",
    "PairExample",
    "SmilesParseError",
    "atom_tokenize",
    "load_pair_corpus",
    "load_smiles_corpus",
    "MergeRule",
    "Vocabulary",
    "mine_vocabulary",
    "segment",
    "featurize_pairs",
    "functional_representation",
    "substructure_membership",
    "roc_auc",
    "pr_auc",
    "f1_at_threshold",
    "coefficient_correlation",
    "CasterModel",
    "LossWeights",
    "ModelConfig",
    "TrainingConfig",
    "TrainResult",
    "reconstruction_loss",
    "classification_loss",
    "ridge_coefficients",
    "explain_pair",
    "pretrain",
    "train",
    "save_checkpoint",
    "load_checkpoint",
    "__version__",
]
