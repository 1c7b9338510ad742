"""Interaction model: auto-encoder, dictionary projection, predictor.

The pipeline embeds a pair's multi-hot substructure vector x into a latent
z, reconstructs x from z (reconstruction loss), expresses z in the basis
of encoded single-hot substructure indicators via a ridge projection whose
closed form is differentiated analytically (projection loss), and feeds
the magnified projection coefficients to a batch-normalized perceptron
that scores the interaction probability (classification loss).

The coefficients of a batch Z (n, d) are Z P with P = M^{-1} B (d x k),
M = B B^T + lambda1 I: rank d.  The perceptron's first layer is linear, so
it reads them as an `nn.LowRank` input, and no step, score or explanation
forms the (n, k) coefficient array.

Training is two-staged: unsupervised pre-training on unlabelled pairs
minimizes alpha*recon + beta*projection; supervised fine-tuning adds
gamma*classification with ROC-AUC early stopping on a validation split.
"""

from __future__ import annotations

import json
import logging
import math
import os
import zlib
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import metrics
from .corpus import PairCorpus, PairExample
from .featurize import featurize_pairs, index_rows
from .nn import MLP, Adam, Identity, LowRank, MultiHot, Parameters, sigmoid, writing
from .spm import Vocabulary

log = logging.getLogger(__name__)

CKPT_MAGIC = "caster-ckpt"
CKPT_VERSION = 3

_CLAMP = 1e-12
# rows per predict_pairs pass: bounds the (rows, h) activations of the
# predictor's hidden layers (h = 1024 by default)
_PREDICT_ROWS = 1024


class TrainingError(RuntimeError):
    """Raised when optimization produces non-finite values or bad splits."""


class CheckpointError(ValueError):
    """Raised for malformed checkpoints or vocabulary mismatches."""


@dataclass(frozen=True)
class LossWeights:
    """Weights of the aggregated loss and the projection regularizers."""

    alpha: float = 0.1
    beta: float = 0.1
    gamma: float = 1.0
    lambda1: float = 1e-5
    lambda2: float = 0.1

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "lambda2"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be a finite number >= 0, got {value}")
        if not (math.isfinite(self.lambda1) and self.lambda1 > 0):
            raise ValueError(f"lambda1 must be a finite number > 0 for the projection solve, got {self.lambda1}")


@dataclass(frozen=True)
class ModelConfig:
    """Architecture of the encoder, decoder and predictor stacks."""

    latent_dim: int = 50
    encoder_hidden: tuple[int, ...] = (500, 500)
    decoder_hidden: tuple[int, ...] = (500, 500)
    predictor_hidden: tuple[int, ...] = (1024, 1024, 1024, 256, 64)
    magnifier: float = 100.0

    def __post_init__(self):
        for name in ("encoder_hidden", "decoder_hidden", "predictor_hidden"):
            if any(size < 1 for size in getattr(self, name)):
                raise ValueError(f"{name} sizes must be >= 1, got {getattr(self, name)}")
        if not (math.isfinite(self.magnifier) and self.magnifier > 0):
            raise ValueError(f"magnifier must be a finite number > 0, got {self.magnifier}")


@dataclass(frozen=True)
class TrainingConfig:
    batch_size: int = 256
    lr: float = 1e-3
    pretrain_epochs: int = 1
    max_epochs: int = 20
    patience: int = 5
    split_ratio: tuple[float, float, float] = (0.7, 0.1, 0.2)
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2 (batch normalization)")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be a finite number > 0, got {self.lr}")
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        for name in ("pretrain_epochs", "patience", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not all(r > 0 for r in self.split_ratio) or abs(sum(self.split_ratio) - 1.0) > 1e-9:
            raise ValueError("split ratios must be positive and sum to 1")


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

def reconstruction_loss(x: np.ndarray, xhat: np.ndarray) -> float:
    """Binary cross-entropy summed over features, averaged over the batch."""
    x = np.atleast_2d(x)
    xhat = np.clip(np.atleast_2d(xhat), _CLAMP, 1.0 - _CLAMP)
    if x.shape != xhat.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {xhat.shape}")
    per_sample = -(x * np.log(xhat) + (1.0 - x) * np.log(1.0 - xhat)).sum(axis=1)
    return float(per_sample.mean())


def classification_loss(p: np.ndarray, y: np.ndarray) -> float:
    """Binary cross-entropy of interaction probabilities, batch-averaged."""
    p = np.clip(np.asarray(p, dtype=np.float64), _CLAMP, 1.0 - _CLAMP)
    y = np.asarray(y, dtype=np.float64)
    return float(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)).mean())


# ---------------------------------------------------------------------------
# Ridge projection
# ---------------------------------------------------------------------------

def cho_factor(M: np.ndarray) -> np.ndarray:
    """Inverse Cholesky factor F = L^{-1} of the symmetric positive-definite
    M = L L^T, so that M^{-1} = F^T F."""
    return np.linalg.inv(np.linalg.cholesky(M))


def cho_solve(F: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """M^{-1} rhs as two products, F^T (F rhs), for a factor F from `cho_factor`."""
    return F.T @ (F @ rhs)


def _gram(B: np.ndarray, lambda1: float) -> np.ndarray:
    """M = B B^T + lambda1 I."""
    return B @ B.T + lambda1 * np.eye(B.shape[0])


def _dual_solve(Z: np.ndarray, B: np.ndarray, lambda1: float):
    """W = (B B^T + lambda1 I)^{-1} Z^T for a batch Z (n, d), and the factor.

    Returns W (d, n) and the d x d inverse Cholesky factor, which the
    backward pass reuses: every solve after the factorization is two
    products on numpy's BLAS (see "One BLAS" in the README).
    """
    factor = cho_factor(_gram(B, lambda1))
    return cho_solve(factor, Z.T), factor


def ridge_coefficients(z: np.ndarray, B: np.ndarray, lambda1: float) -> np.ndarray:
    """Closed-form minimizer of 0.5*||z - B r||^2 + (lambda1/2)*||r||^2.

    Solves the d x d system (B B^T + lambda1 I) w = z and returns B^T w,
    which equals the k x k solution (B^T B + lambda1 I)^{-1} B^T z.
    Accepts a single vector (d,) or a batch (n, d) and returns matching
    shapes.  lambda1 must be positive.
    """
    if lambda1 <= 0:
        raise ValueError(f"lambda1 must be positive (the projection solve requires it), got {lambda1}")
    single = z.ndim == 1
    Z = np.atleast_2d(z)
    d = B.shape[0]
    if Z.shape[1] != d:
        raise ValueError(f"z has dimension {Z.shape[1]}, basis has d={d}")
    R = _dual_solve(Z, B, lambda1)[0].T @ B
    return R[0] if single else R


@dataclass(frozen=True, eq=False)
class Scorer:
    """What predicting and explaining read of an encoder, frozen.

    Holds the key it was built for, (encoder generation, lambda1), and
    P = M^{-1} B, d x k and read-only, where B is the dictionary basis and
    M = B B^T + lambda1 I; neither outlives the build.  The ridge
    coefficients of latent vectors Z are Z P, so no call after the build
    solves anything: `predict_pairs` feeds the predictor
    LowRank(Z, magnifier P), and `explain_pair` computes only the columns
    of P it ranks.  The predictor is not part of it; it
    is read live on every call.  Get one from `CasterModel.scorer()`,
    which rebuilds it whenever the key has changed.
    """

    key: tuple[int, float]
    P: np.ndarray

    @classmethod
    def build(cls, key: tuple[int, float], B: np.ndarray) -> "Scorer":
        P = cho_solve(cho_factor(_gram(B, key[1])), B)
        P.setflags(write=False)
        return cls(key, P)


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------

def _check_shapes(state: dict[str, np.ndarray], shapes: dict[str, tuple[int, ...]]) -> None:
    """Refuse `state` unless its arrays have exactly the names and shapes in `shapes`."""
    if state.keys() != shapes.keys():
        missing = sorted(shapes.keys() - state.keys())
        extra = sorted(state.keys() - shapes.keys())
        raise CheckpointError(f"missing arrays {missing}, unexpected arrays {extra}")
    for name, value in state.items():
        if value.shape != shapes[name]:
            raise CheckpointError(f"array {name!r} is {value.shape}, model expects {shapes[name]}")


class CasterModel:
    """Encoder/decoder/predictor triple over a fixed substructure vocabulary."""

    def __init__(
        self,
        k: int,
        config: ModelConfig | None = None,
        weights: LossWeights | None = None,
        seed: int = 0,
        vocab_hash: str = "",
        *,
        _state: dict[str, np.ndarray] | None = None,
    ):
        """Layers drawn from `seed`; `load_checkpoint` passes `_state`, the
        stored arrays, which the layers take instead of drawing any.  Arrays
        whose names and shapes are not those of `k` and `config` raise
        CheckpointError before any layer is allocated."""
        self.config = c = config or ModelConfig()
        self.weights = weights or LossWeights()
        self.k = k
        self.vocab_hash = vocab_hash
        d = c.latent_dim
        if not 0 < d < k:
            raise ValueError(f"latent_dim must satisfy 0 < d < k, got d={d}, k={k}")
        stacks = (
            (k, c.encoder_hidden, d, False, "encoder"),
            (d, c.decoder_hidden, k, False, "decoder"),
            (k, c.predictor_hidden, 1, True, "predictor"),
        )
        if _state is not None:
            _check_shapes(_state, {n: s for sizes in stacks for n, s in MLP.state_shapes(*sizes).items()})
        rng = np.random.default_rng(seed) if _state is None else None
        self.encoder, self.decoder, self.predictor = (MLP(i, h, o, rng, bn, name) for i, h, o, bn, name in stacks)
        # the dictionary basis is the encoding of this identity; perfbench's
        # tracer tells basis passes from data passes by this object
        self._eye = Identity(k)
        self._scorer: Scorer | None = None
        if _state is not None:
            for mlp in self._stacks():
                mlp.load_state(_state)

    def _stacks(self) -> tuple[MLP, MLP, MLP]:
        return self.encoder, self.decoder, self.predictor

    def parameters(self) -> Parameters:
        stacks = self._stacks()
        return Parameters({n: a for mlp in stacks for n, a in mlp.parameters().items()}, stacks)

    def state_arrays(self) -> Parameters:
        stacks = self._stacks()
        return Parameters({n: a for mlp in stacks for n, a in mlp.state_arrays().items()}, stacks)

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: arr.copy() for name, arr in self.state_arrays().items()}

    def restore(self, snap: dict[str, np.ndarray]) -> None:
        arrays = self.state_arrays()
        with writing(arrays):
            for name, value in snap.items():
                arrays[name][...] = value

    # -- forward pieces ----------------------------------------------------

    def encode(self, x: np.ndarray | MultiHot) -> np.ndarray:
        """Latent rows of a batch x, dense or MultiHot, or of one vector (k,)."""
        single = x.ndim == 1
        z = self.encoder.infer(x[None] if single else x)
        return z[0] if single else z

    def dictionary_basis(self) -> np.ndarray:
        """d x k basis whose column i is the encoding of single-hot i.

        Recomputed from the current encoder parameters on every call
        (`scorer()` keeps one for reuse).  The first layer maps the k x k
        identity to W_1^T + b_1 without a product; the result equals
        encoding np.eye(k) bit for bit.
        """
        rows, _ = self.encoder.forward(self._eye)
        return rows.T

    def scorer(self) -> Scorer:
        """The frozen scorer of the current encoder and lambda1.

        The last scorer is reused while the encoder's generation and lambda1
        are those it was built for; otherwise a new one is built through
        `dictionary_basis`.  The encoder's arrays are read-only and every
        write to them (an optimizer step, `restore`, a checkpoint load) goes
        through `nn.writing`, which moves the generation, so the key cannot
        miss a change; an in-place edit outside it raises ValueError.
        """
        key = (self.encoder.generation, self.weights.lambda1)
        if self._scorer is None or self._scorer.key != key:
            self._scorer = Scorer.build(key, self.dictionary_basis())
        return self._scorer

    def project(self, z: np.ndarray) -> np.ndarray:
        """Ridge projection coefficients z P of latent vectors, (d,) or
        (n, d), in the dictionary basis."""
        return z @ self.scorer().P

    def predict_pairs(self, X: np.ndarray | MultiHot) -> np.ndarray:
        """Interaction probabilities for a batch of functional vectors, dense
        or MultiHot, scored `_PREDICT_ROWS` rows at a time through the
        encoder's and the predictor's `MLP.infer`, inference-mode batch norm
        as a per-feature scale and shift.

        The predictor reads the magnified coefficients Z P as
        LowRank(Z, magnifier P), so no (rows, k) array is formed; from
        MultiHot rows, neither is the encoder's input.
        """
        if not isinstance(X, MultiHot):
            X = np.atleast_2d(X)
        V = self.config.magnifier * self.scorer().P
        out = np.empty(X.shape[0], dtype=np.float64)
        for lo in range(0, X.shape[0], _PREDICT_ROWS):
            logits = self.predictor.infer(LowRank(self.encode(X[lo : lo + _PREDICT_ROWS]), V))
            out[lo : lo + _PREDICT_ROWS] = sigmoid(logits[:, 0])
        return out

    # -- one training step (forward + analytic backward) --------------------

    def step(self, X: np.ndarray, y: np.ndarray | None, out: dict[str, np.ndarray] | None = None):
        """Aggregated loss and gradients for one batch.

        Returns (loss, parts, grads) where parts holds the unweighted
        recon/proj/clf values.  L_proj is taken in closed form: with
        W = (B B^T + lambda1 I)^{-1} Z^T the ridge residual is lambda1 W^T
        and dL_proj/dR = 0, so only the classification loss is differentiated
        through the solve.  The predictor reads magnifier R = W^T (magnifier B)
        as a LowRank input and returns the gradients of both factors, so no
        step forms an (n, k) array.  Batch norm trains on the batch.

        `out`, the grads of an earlier step of the same kind (labelled or
        not, same weights), takes this step's gradients in place of new
        arrays, which grads then holds: the same values bit for bit, as no
        array of it is read before it is written.
        """
        w = self.weights
        n = X.shape[0]
        lam1 = w.lambda1

        Z, cache_x = self.encoder.forward(X)
        Brows, cache_u = self.encoder.forward(self._eye)
        B = Brows.T

        Wsol, factor = _dual_solve(Z, B, lam1)  # (d, n)
        lp = 0.5 * lam1 * float((Z * Wsol.T).sum(axis=1).mean()) + w.lambda2 * float((B**2).sum())

        dec_logits, cache_d = self.decoder.forward(Z)
        Xhat = sigmoid(dec_logits, out=dec_logits)
        lr_loss = reconstruction_loss(X, Xhat)

        lc = 0.0
        if y is not None:
            logits, cache_p = self.predictor.forward(LowRank(Wsol.T, self.config.magnifier * B))
            p = sigmoid(logits[:, 0])
            lc = classification_loss(p, y)

        loss = w.alpha * lr_loss + w.beta * lp + (w.gamma * lc if y is not None else 0.0)
        if not np.isfinite(loss):
            raise TrainingError(
                f"non-finite loss (recon={lr_loss}, proj={lp}, clf={lc}); "
                "check the learning rate and input featurization"
            )

        grad_Z = np.zeros_like(Z)
        grad_B = np.zeros_like(B)
        grads: dict[str, np.ndarray] = {}

        if w.alpha != 0.0:
            # alpha (Xhat - X) / n, into Xhat: nothing reads it after this
            g_dec = np.subtract(Xhat, X, out=Xhat)
            g_dec *= w.alpha
            g_dec /= n
            gz, dec_grads = self.decoder.backward(cache_d, g_dec, out=out)
            grad_Z += gz
            grads.update(dec_grads)

        if w.beta != 0.0:
            grad_Z += w.beta * lam1 * Wsol.T / n
            grad_B += w.beta * (2.0 * w.lambda2 * B - (lam1 / n) * (Wsol @ Wsol.T) @ B)

        if y is not None and w.gamma != 0.0:
            g_logits = (w.gamma * (p - y) / n)[:, None]
            # the gradients of the predictor input's two factors, Wsol^T and magnifier B
            (grad_Wt, grad_mB), pred_grads = self.predictor.backward(cache_p, g_logits, out=out)
            grads.update(pred_grads)

            # Back through Wsol = M^{-1} Z^T with M = B B^T + lam1 I.
            grad_B += self.config.magnifier * grad_mB
            grad_Zt = cho_solve(factor, grad_Wt.T)
            grad_Z += grad_Zt.T
            grad_M = -grad_Zt @ Wsol.T
            grad_B += (grad_M + grad_M.T) @ B

        if w.alpha != 0.0 or w.beta != 0.0 or (y is not None and w.gamma != 0.0):
            # nothing reads the gradient of X or of the identity
            _, enc_from_data = self.encoder.backward(cache_x, grad_Z, input_grad=False, out=out)
            _, enc_from_basis = self.encoder.backward(cache_u, grad_B.T, input_grad=False)
            for name, g in enc_from_data.items():
                g += enc_from_basis[name]
            grads.update(enc_from_data)

        parts = {"recon": lr_loss, "proj": lp, "clf": lc}
        return loss, parts, grads


# ---------------------------------------------------------------------------
# Data splitting
# ---------------------------------------------------------------------------

def split_indices(n: int, config: TrainingConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic train/validation/test index split: a seeded permutation cut by ``split_ratio``."""
    perm = np.random.default_rng(config.seed).permutation(n)
    r_train, r_val, _ = config.split_ratio
    n_train = int(round(n * r_train))
    n_val = int(round(n * r_val))
    return perm[:n_train], perm[n_train : n_train + n_val], perm[n_train + n_val :]


def _check_both_classes(y: np.ndarray, name: str) -> None:
    # ValueError: this is an input-validation failure, not a runtime one
    if len(y) == 0 or y.min() == y.max():
        raise ValueError(f"{name} split does not contain both classes")


# ---------------------------------------------------------------------------
# Two-stage training
# ---------------------------------------------------------------------------

def _epoch(model: CasterModel, adam: Adam, X: np.ndarray, y: np.ndarray | None, order: np.ndarray, batch_size: int):
    """One pass over the rows of X in `order`: a training step and an update
    per batch, yielding the batch's loss and unweighted loss parts.  A last
    batch of one row is skipped, since batch norm cannot train on it.

    Each step after the first writes its gradients into the arrays the step
    before returned, which Adam has read, so one gradient set is alive at a
    time and none is freed and allocated again per step."""
    grads = None
    for lo in range(0, len(order), batch_size):
        batch = order[lo : lo + batch_size]
        if len(batch) >= 2:
            loss, parts, grads = model.step(X[batch], None if y is None else y[batch], out=grads)
            adam.step(grads)
            yield {"loss": loss, **parts}


def pretrain(
    model: CasterModel,
    unlabelled: PairCorpus,
    vocab: Vocabulary,
    config: TrainingConfig,
) -> list[dict]:
    """Stage 1: unsupervised training on unlabelled pairs.

    Minimizes alpha*recon + beta*proj for `config.pretrain_epochs` epochs.
    Returns one history row per batch with the unweighted loss parts.
    """
    if len(unlabelled) == 0:
        raise TrainingError("unlabelled corpus is empty")
    X, _ = featurize_pairs(unlabelled, vocab)
    return pretrain_arrays(model, X, config)


def pretrain_arrays(model: CasterModel, X: np.ndarray, config: TrainingConfig) -> list[dict]:
    """`pretrain` on the functional vectors X.  Fewer than two rows take no
    step, since a step needs a batch of two, so any epoch refuses them."""
    if config.pretrain_epochs and X.shape[0] < 2:
        raise TrainingError(f"pretraining needs at least 2 unlabelled rows to take a step, got {X.shape[0]}")
    rng = np.random.default_rng(config.seed)
    adam = Adam(model.parameters(), lr=config.lr)
    history: list[dict] = []
    for epoch in range(config.pretrain_epochs):
        order = rng.permutation(X.shape[0])
        for bi, row in enumerate(_epoch(model, adam, X, None, order, config.batch_size)):
            history.append({"epoch": epoch, "batch": bi, **row})
    return history


@dataclass
class TrainResult:
    history: list[dict]
    best_epoch: int
    test_metrics: dict[str, float]
    test_scores: np.ndarray
    test_labels: np.ndarray
    split: dict[str, np.ndarray] = field(repr=False, default_factory=dict)


def train(
    model: CasterModel,
    labelled: PairCorpus,
    vocab: Vocabulary,
    config: TrainingConfig,
) -> TrainResult:
    """Stage 2: supervised fine-tuning with early stopping.

    Splits the corpus per `config`, minimizes the aggregated loss, tracks
    validation ROC-AUC each epoch, restores the best checkpoint and
    reports test metrics.
    """
    X, y = featurize_pairs(labelled, vocab)
    if y is None:
        raise TrainingError("supervised training needs a labelled corpus")
    return train_arrays(model, X, y, config)


def train_arrays(model: CasterModel, X: np.ndarray, y: np.ndarray, config: TrainingConfig) -> TrainResult:
    idx_train, idx_val, idx_test = split_indices(X.shape[0], config)
    for name, idx in (("train", idx_train), ("validation", idx_val), ("test", idx_test)):
        _check_both_classes(y[idx], name)

    rng = np.random.default_rng(config.seed + 1)
    adam = Adam(model.parameters(), lr=config.lr)
    history: list[dict] = []
    best_auc = -np.inf
    best_epoch = -1
    best_state = model.snapshot()
    bad_epochs = 0

    for epoch in range(config.max_epochs):
        order = idx_train[rng.permutation(len(idx_train))]
        rows = list(_epoch(model, adam, X, y, order, config.batch_size))
        val_auc = metrics.roc_auc(model.predict_pairs(X[idx_val]), y[idx_val])
        row = {key: sum(r[key] for r in rows) / len(rows) for key in rows[0]}
        row.update({"epoch": epoch, "val_roc_auc": val_auc})
        history.append(row)
        log.info("epoch %d: loss=%.4f val_roc_auc=%.4f", epoch, row["loss"], val_auc)

        if val_auc > best_auc:
            best_auc = val_auc
            best_epoch = epoch
            for name, a in model.state_arrays().items():
                np.copyto(best_state[name], a)
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs > config.patience:
                break

    model.restore(best_state)
    test_scores = model.predict_pairs(X[idx_test])
    test_labels = y[idx_test]
    test_metrics = {
        "roc_auc": metrics.roc_auc(test_scores, test_labels),
        "pr_auc": metrics.pr_auc(test_scores, test_labels),
        "f1": metrics.f1_at_threshold(test_scores, test_labels),
    }
    return TrainResult(
        history,
        best_epoch,
        test_metrics,
        test_scores,
        test_labels,
        {"train": idx_train, "val": idx_val, "test": idx_test},
    )


# ---------------------------------------------------------------------------
# Explanation
# ---------------------------------------------------------------------------

def explain_pair(model: CasterModel, left: str, right: str, vocab: Vocabulary) -> list[tuple[str, float]]:
    """Magnified projection coefficients of the substructures present in a pair.

    Returns (substructure, coefficient) sorted by descending coefficient
    magnitude; empty (with a warning) when the pair shares no vocabulary
    substructure.
    """
    return _explain_row(model, index_rows([PairExample(left, right)], vocab), vocab)


_NOTHING_SHARED = "pair shares no vocabulary substructure; nothing to explain"


def _explain_row(model: CasterModel, x: MultiHot, vocab: Vocabulary) -> list[tuple[str, float]]:
    """The ranked table `explain_pair` returns for one MultiHot row x: the
    coefficients z P[:, S] of the substructures S present in x and of no
    others, magnified; empty, with a warning and no projection, when x is
    empty.  The encoder reads only the columns of its first layer at S."""
    present = x.indices
    if len(present) == 0:
        log.warning(_NOTHING_SHARED)
        return []
    magnified = model.config.magnifier * (model.encode(x)[0] @ model.scorer().P[:, present])
    ranked = sorted(range(len(present)), key=lambda j: (-abs(magnified[j]), j))
    # index the substructures directly: vocab.tokens() builds all k names
    return [(vocab.substructures[present[j]][0], float(magnified[j])) for j in ranked]


# ---------------------------------------------------------------------------
# Checkpoint persistence
# ---------------------------------------------------------------------------

# the starts of a v1 (decimal text) and a v2 (.npz zip archive) checkpoint
_OLD_MAGICS = ((b"caster-ckpt v1", "v1 text"), (b"PK\x03\x04", "v2 (.npz)"))
_FLOAT = np.dtype("<f8")
# the header line of the default architecture is about 2 kB
_HEADER_LIMIT = 1 << 20


def save_checkpoint(path, model: CasterModel) -> None:
    """Write `model` at `path`: a JSON header line (magic, version, sizes,
    loss weights, magnifier, vocabulary hash, each state array's [name,
    shape]), each array's raw little-endian float64 bytes in C order, and
    the CRC-32 of every byte before it.  The round-trip is exact."""
    arrays = {name: np.ascontiguousarray(a, dtype=_FLOAT) for name, a in model.state_arrays().items()}
    header = {
        "magic": CKPT_MAGIC,
        "version": CKPT_VERSION,
        "k": model.k,
        **asdict(model.config),
        **asdict(model.weights),
        "vocab_hash": model.vocab_hash,
        "arrays": [[name, a.shape] for name, a in arrays.items()],
    }
    line = json.dumps(header).encode("utf-8") + b"\n"
    crc = zlib.crc32(line)
    with open(path, "wb") as fh:
        fh.write(line)
        for a in arrays.values():
            a.tofile(fh)
            crc = zlib.crc32(a, crc)
        fh.write(crc.to_bytes(4, "little"))


def _read_checkpoint(fh):
    """The header's model settings and the state arrays, read only once the
    file's size is what the header's shapes and the CRC take."""
    line = fh.readline(_HEADER_LIMIT)
    for magic, version in _OLD_MAGICS:
        if line.startswith(magic):
            raise CheckpointError(
                f"this is a {CKPT_MAGIC} {version} checkpoint, which this version no longer "
                f"reads; re-train the model to write a v{CKPT_VERSION} checkpoint"
            )
    if not line.endswith(b"\n"):
        raise CheckpointError(f"no header line within the first {_HEADER_LIMIT} bytes")
    try:
        header = json.loads(line)
    except (ValueError, RecursionError) as err:
        raise CheckpointError(f"not a {CKPT_MAGIC} v{CKPT_VERSION} checkpoint: {err}") from None
    found = (header.get("magic"), header.get("version")) if isinstance(header, dict) else None
    if found != (CKPT_MAGIC, CKPT_VERSION):
        raise CheckpointError(f"header has (magic, version) {found}, expected {(CKPT_MAGIC, CKPT_VERSION)}")
    try:
        k = int(header["k"])
        config = ModelConfig(
            latent_dim=int(header["latent_dim"]),
            encoder_hidden=tuple(int(n) for n in header["encoder_hidden"]),
            decoder_hidden=tuple(int(n) for n in header["decoder_hidden"]),
            predictor_hidden=tuple(int(n) for n in header["predictor_hidden"]),
            magnifier=float(header["magnifier"]),
        )
        weights = LossWeights(**{f.name: float(header[f.name]) for f in fields(LossWeights)})
        stored_hash = str(header["vocab_hash"])
        shapes = {}
        for name, shape in header["arrays"]:
            if not isinstance(name, str) or name in shapes:
                raise ValueError(f"array name {name!r} repeats or is not a string")
            if not all(type(n) is int and n >= 0 for n in shape):
                raise ValueError(f"array {name!r} has shape {shape!r}")
            shapes[name] = tuple(shape)
    except (KeyError, TypeError, ValueError) as err:
        raise CheckpointError(f"malformed header: {err!r}") from err

    expected = 8 * sum(math.prod(shape) for shape in shapes.values()) + 4
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if left != expected:
        raise CheckpointError(f"{left} bytes follow the header line, whose arrays and CRC take {expected}")
    crc = zlib.crc32(line)
    state = {}
    for name, shape in shapes.items():
        a = np.fromfile(fh, _FLOAT, math.prod(shape))
        crc = zlib.crc32(a, crc)
        state[name] = a.reshape(shape)
    if fh.read(4) != crc.to_bytes(4, "little"):
        raise CheckpointError("CRC-32 mismatch: the file is damaged")
    return k, config, weights, stored_hash, state


def load_checkpoint(path, vocab: Vocabulary | None = None) -> CasterModel:
    """Load a checkpoint, refusing a vocabulary whose hash does not match.

    A malformed file raises CheckpointError naming `path`; a file that
    cannot be opened raises OSError.
    """
    try:
        with open(path, "rb") as fh:
            k, config, weights, stored_hash, state = _read_checkpoint(fh)
        if vocab is not None and (expected := vocab.content_hash()) != stored_hash:
            raise CheckpointError(
                f"checkpoint was trained against a different vocabulary "
                f"(stored hash {stored_hash[:12]}..., expected {expected[:12]}...)"
            )
        return CasterModel(k, config, weights, vocab_hash=stored_hash, _state=state)
    except CheckpointError as err:
        raise CheckpointError(f"{path}: {err}") from None
    except ValueError as err:  # CasterModel's own check of d against k
        raise CheckpointError(f"{path}: header describes no valid model: {err}") from err
