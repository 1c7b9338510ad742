"""Losses, ridge projection, model pieces, two-stage training, checkpoints."""

import json
import math
import tracemalloc
import zlib
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import cho_factor, cho_solve

import caster.model
import caster.nn
from caster.corpus import PairCorpus, PairExample
from caster.featurize import featurize_pairs, functional_representation, index_rows
from caster.model import (
    CasterModel,
    CheckpointError,
    LossWeights,
    ModelConfig,
    TrainingConfig,
    TrainingError,
    classification_loss,
    explain_pair,
    load_checkpoint,
    pretrain_arrays,
    reconstruction_loss,
    ridge_coefficients,
    save_checkpoint,
    split_indices,
    train,
    train_arrays,
)
from caster.nn import Adam, LowRank, MultiHot, writing
from caster.spm import MergeRule, Vocabulary

from test_nn import assert_written, gradient_check, inference_oracle


@pytest.fixture
def rng():
    return np.random.default_rng(4242)


def primal_ridge(z, B, lam):
    """Oracle for ridge_coefficients: the k x k system (B^T B + lam I) r = B^T z."""
    M = B.T @ B + lam * np.eye(B.shape[1])
    factor = cho_factor(M)
    rhs = B.T @ np.atleast_2d(z).T
    R = cho_solve(factor, rhs)
    R += cho_solve(factor, rhs - M @ R)
    return R.T[0] if z.ndim == 1 else R.T


def projection_loss(z, B, r, lambda1: float, lambda2: float) -> float:
    """Oracle for the closed-form L_proj of CasterModel.step: the ridge
    projection objective plus the basis Frobenius penalty, for any r.

    The residual and coefficient terms are averaged over the batch; the
    lambda2 * ||B||_F^2 term is charged once (it regularizes parameters,
    not data).  `CasterModel.step` evaluates it at the ridge solution in
    closed form: (lambda1/2) mean(z^T (B B^T + lambda1 I)^{-1} z) + lambda2 ||B||^2.
    """
    z = np.atleast_2d(z)
    r = np.atleast_2d(r)
    resid = z - r @ B.T
    data_term = 0.5 * float((resid**2).sum(axis=1).mean())
    coef_term = 0.5 * lambda1 * float((r**2).sum(axis=1).mean())
    return data_term + coef_term + lambda2 * float((B**2).sum())


def reference_step(model, X, y):
    """Oracle for CasterModel.step: the projection loss charged on the n x k
    coefficients R and residual Z - R B^T, and its gradient pushed back
    through the ridge solve with the (zero) gradient of R included."""
    w = model.weights
    n = X.shape[0]
    lam1 = w.lambda1

    Z, cache_x = model.encoder.forward(X)
    Brows, cache_u = model.encoder.forward(model._eye)
    B = Brows.T

    Wsol, factor = caster.model._dual_solve(Z, B, lam1)
    R = Wsol.T @ B

    resid = Z - R @ B.T
    lp = (
        0.5 * float((resid**2).sum(axis=1).mean())
        + 0.5 * lam1 * float((R**2).sum(axis=1).mean())
        + w.lambda2 * float((B**2).sum())
    )

    dec_logits, cache_d = model.decoder.forward(Z)
    Xhat = caster.nn.sigmoid(dec_logits)
    lr_loss = reconstruction_loss(X, Xhat)

    lc = 0.0
    if y is not None:
        logits, cache_p = model.predictor.forward(model.config.magnifier * R)
        P = caster.nn.sigmoid(logits[:, 0])
        lc = classification_loss(P, y)

    loss = w.alpha * lr_loss + w.beta * lp + (w.gamma * lc if y is not None else 0.0)

    grad_Z = np.zeros_like(Z)
    grad_B = np.zeros_like(B)
    grad_R = np.zeros_like(R)
    grad_dicts = []

    if w.alpha != 0.0:
        gz, dec_grads = model.decoder.backward(cache_d, w.alpha * (Xhat - X) / n)
        grad_Z += gz
        grad_dicts.append(dec_grads)

    if w.beta != 0.0:
        grad_Z += w.beta * resid / n
        grad_R += w.beta * (lam1 * R - resid @ B) / n
        grad_B += w.beta * (2.0 * w.lambda2 * B - resid.T @ R / n)

    if y is not None and w.gamma != 0.0:
        g_pin, pred_grads = model.predictor.backward(cache_p, (w.gamma * (P - y) / n)[:, None])
        grad_R += model.config.magnifier * g_pin
        grad_dicts.append(pred_grads)

    grad_W = B @ grad_R.T
    grad_B += Wsol @ grad_R
    grad_Zt = caster.model.cho_solve(factor, grad_W)
    grad_Z += grad_Zt.T
    grad_M = -grad_Zt @ Wsol.T
    grad_B += (grad_M + grad_M.T) @ B

    if w.alpha != 0.0 or w.beta != 0.0 or (y is not None and w.gamma != 0.0):
        _, enc_from_data = model.encoder.backward(cache_x, grad_Z, input_grad=False)
        _, enc_from_basis = model.encoder.backward(cache_u, grad_B.T, input_grad=False)
        grad_dicts.extend([enc_from_data, enc_from_basis])
    parts = {"recon": lr_loss, "proj": lp, "clf": lc}
    grads = {}
    for grad_dict in grad_dicts:
        for name, g in grad_dict.items():
            grads[name] = grads[name] + g if name in grads else g
    return loss, parts, grads


def oracle_predict_pairs(model, X, chunk=1024):
    """Oracle for predict_pairs: the dictionary basis rebuilt on every call
    and the (n, k) coefficients fed to the textbook inference pass."""
    X = np.atleast_2d(X)
    B = model.dictionary_basis()
    out = np.empty(X.shape[0])
    for lo in range(0, X.shape[0], chunk):
        R = ridge_coefficients(model.encode(X[lo : lo + chunk]), B, model.weights.lambda1)
        logits = inference_oracle(model.predictor, model.config.magnifier * R)
        out[lo : lo + chunk] = caster.nn.sigmoid(logits[:, 0])
    return out


def oracle_explain_pair(model, left, right, vocab):
    """Oracle for explain_pair: the dictionary basis rebuilt on every call."""
    x = functional_representation(left, right, vocab)
    present = np.flatnonzero(x)
    if len(present) == 0:
        return []
    r = ridge_coefficients(model.encode(x), model.dictionary_basis(), model.weights.lambda1)
    magnified = model.config.magnifier * r
    ranked = sorted(present, key=lambda i: (-abs(magnified[i]), i))
    return [(vocab.tokens()[i], float(magnified[i])) for i in ranked]


def tiny_model(k=10, d=3, seed=0, weights=None, **cfg_kwargs):
    defaults = dict(
        latent_dim=d, encoder_hidden=(8,), decoder_hidden=(8,), predictor_hidden=(8, 6)
    )
    defaults.update(cfg_kwargs)
    return CasterModel(k, ModelConfig(**defaults), weights or LossWeights(), seed=seed)


class TestLosses:
    def test_reconstruction_uniform_predictor(self):
        x = np.zeros(10)
        xhat = np.full(10, 0.5)
        assert reconstruction_loss(x, xhat) == pytest.approx(10 * math.log(2), rel=1e-12)

    def test_reconstruction_perfect_limit(self):
        x = np.array([1.0, 0.0, 1.0])
        xhat = np.array([1 - 1e-9, 1e-9, 1 - 1e-9])
        assert reconstruction_loss(x, xhat) < 1e-7

    def test_reconstruction_vs_scalar_oracle(self, rng):
        x = (rng.random((4, 6)) < 0.5).astype(float)
        xhat = rng.uniform(0.01, 0.99, (4, 6))
        oracle = 0.0
        for t in range(4):
            for i in range(6):
                oracle += -(x[t, i] * math.log(xhat[t, i]) + (1 - x[t, i]) * math.log(1 - xhat[t, i]))
        oracle /= 4
        assert reconstruction_loss(x, xhat) == pytest.approx(oracle, abs=1e-12)

    def test_reconstruction_clamps_boundary(self):
        x = np.array([1.0, 0.0])
        xhat = np.array([0.0, 1.0])  # worst case, exact boundary
        loss = reconstruction_loss(x, xhat)
        assert np.isfinite(loss) and loss > 0

    def test_classification_values(self, rng):
        assert classification_loss(np.array([0.5]), np.array([1.0])) == pytest.approx(math.log(2))
        p = rng.uniform(0.05, 0.95, 12)
        y = rng.integers(0, 2, 12).astype(float)
        oracle = float(np.mean([-(yi * math.log(pi) + (1 - yi) * math.log(1 - pi)) for pi, yi in zip(p, y)]))
        assert classification_loss(p, y) == pytest.approx(oracle, abs=1e-12)

    def test_projection_zero_basis(self, rng):
        z = rng.normal(size=5)
        r = rng.normal(size=7)
        B = np.zeros((5, 7))
        expected = 0.5 * float(z @ z) + 0.05 * float(r @ r)
        assert projection_loss(z, B, r, lambda1=0.1, lambda2=0.3) == pytest.approx(expected)

    def test_projection_frobenius_term(self):
        B = np.array([[1.0, 2.0], [3.0, 4.0]])
        z = np.zeros(2)
        r = np.zeros(2)
        assert projection_loss(z, B, r, 0.0, 0.7) == pytest.approx(0.7 * 30.0)

    def test_projection_at_ridge_solution_identity(self, rng):
        # B = I, r* = z/(1+lam): first two terms collapse to lam/(2(1+lam)) ||z||^2
        z = rng.normal(size=6)
        B = np.eye(6)
        for lam in (0.1, 1.0, 3.0):
            r = ridge_coefficients(z, B, lam)
            value = projection_loss(z, B, r, lam, 0.0)
            assert value == pytest.approx(0.5 * lam / (1 + lam) * float(z @ z), rel=1e-10)

    def test_losses_nonnegative(self, rng):
        for _ in range(10):
            x = (rng.random(5) < 0.5).astype(float)
            xhat = rng.uniform(1e-6, 1 - 1e-6, 5)
            assert reconstruction_loss(x, xhat) >= 0.0
            p = rng.uniform(1e-6, 1 - 1e-6, 5)
            y = rng.integers(0, 2, 5).astype(float)
            assert classification_loss(p, y) >= 0.0


class TestRidge:
    def test_identity_basis_shrinkage(self, rng):
        z = rng.normal(size=4)
        for lam in (0.1, 1.0):
            np.testing.assert_allclose(ridge_coefficients(z, np.eye(4), lam), z / (1 + lam), rtol=1e-12)

    def test_matches_gradient_descent_oracle(self, rng):
        # plain GD from zero stays in the row space and converges on it
        d, k, lam = 4, 9, 1e-5
        for _ in range(5):
            B = rng.normal(size=(d, k))
            z = rng.normal(size=d)
            r = ridge_coefficients(z, B, lam)
            step = 1.0 / (np.linalg.norm(B, 2) ** 2 + lam)
            r_gd = np.zeros(k)
            for _ in range(4000):
                r_gd -= step * (B.T @ (B @ r_gd - z) + lam * r_gd)
            assert np.max(np.abs(r - r_gd)) < 1e-6

    def test_routes_agree(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 9))
            k = int(rng.integers(d + 2, 3 * d + 7))
            B = 0.15 * rng.normal(size=(d, k))
            z = 0.15 * rng.normal(size=(3, d))
            lam = 10.0 ** rng.uniform(-8, 0)
            r = ridge_coefficients(z, B, lam)
            assert np.max(np.abs(r - primal_ridge(z, B, lam))) < 1e-8

    def test_stationarity_residual(self, rng):
        for _ in range(20):
            d, k = 5, 12
            B = rng.normal(size=(d, k))
            z = rng.normal(size=d)
            lam = 10.0 ** rng.uniform(-6, 0)
            r = ridge_coefficients(z, B, lam)
            lhs = (B.T @ B + lam * np.eye(k)) @ r
            rhs = B.T @ z
            assert np.linalg.norm(lhs - rhs) <= 1e-8 * max(1.0, np.linalg.norm(rhs))

    def test_singular_system_advises_positive_lambda(self, rng):
        B = np.zeros((3, 5))
        B[0, 0] = 1.0  # rank 1, not full column rank
        with pytest.raises(ValueError, match="lambda1"):
            ridge_coefficients(rng.normal(size=3), B, 0.0)

    def test_minimizes_objective(self, rng):
        d, k, lam = 3, 7, 0.05
        B = rng.normal(size=(d, k))
        z = rng.normal(size=d)
        r_star = ridge_coefficients(z, B, lam)
        best = projection_loss(z, B, r_star, lam, 0.0)
        for _ in range(30):
            perturbed = r_star + rng.normal(size=k) * 0.01
            assert projection_loss(z, B, perturbed, lam, 0.0) >= best - 1e-12


def refined_dual_solve(Z, B, lam):
    """Oracle for _dual_solve: scipy's Cholesky solve of (B B^T + lam I) W =
    Z^T, sharpened by two residual-correction passes."""
    M = B @ B.T + lam * np.eye(B.shape[0])
    factor = cho_factor(M)
    W = cho_solve(factor, Z.T)
    for _ in range(2):
        W += cho_solve(factor, Z.T - M @ W)
    return W


class TestNumpySolve:
    """caster's numpy Cholesky solve against scipy's, where the projection is
    worst conditioned: lambda1 = 1e-5 and a nearly rank-deficient basis."""

    # float64 is the model's only dtype; each case checks its arrays have it
    @pytest.mark.parametrize("dtype", [np.float64])
    def test_matches_scipy(self, rng, dtype):
        d, k, n, lam = 8, 60, 5, 1e-5
        for _ in range(10):
            B = 0.1 * rng.normal(size=(d, k))
            B[-1] = rng.normal(size=d - 1) @ B[:-1] + 1e-7 * rng.normal(size=k)
            Z = 0.1 * rng.normal(size=(n, d))
            M = B @ B.T + lam * np.eye(d)
            assert np.linalg.cond(M) > 1e5
            factor = cho_factor(M)
            ref = refined_dual_solve(Z, B, lam)

            # caster's factor is the inverse of scipy's
            F = caster.model.cho_factor(M)
            scipy_L = np.tril(factor[0]) if factor[1] else np.triu(factor[0]).T
            assert np.abs(F @ scipy_L - np.eye(d)).max() <= 1e-10

            W, _ = caster.model._dual_solve(Z, B, lam)
            assert W.dtype == dtype
            assert np.abs(W - ref).max() <= 1e-10 * np.abs(ref).max()
            R, R_ref = W.T @ B, ref.T @ B
            assert np.abs(R - R_ref).max() <= 1e-10 * np.abs(R_ref).max()

    @pytest.mark.parametrize("cond", [1e2, 1e4, 1e6, 1e8, 1e10])
    def test_conditioning_sweep(self, cond):
        # M = B B^T + lam I has eigenvalues c, log-spaced from 1 to 1/cond:
        # B's singular values are sqrt(c - lam) with lam = min(c) / 2
        d, k, n = 50, 300, 64
        eps = np.finfo(np.float64).eps
        c = np.logspace(0, -np.log10(cond), d)
        lam = 0.5 * c[-1]
        for seed in range(5):
            rng = np.random.default_rng([seed, round(np.log10(cond))])
            U, _ = np.linalg.qr(rng.normal(size=(d, d)))
            V, _ = np.linalg.qr(rng.normal(size=(k, d)))
            B = (U * np.sqrt(c - lam)) @ V.T
            Z = rng.normal(size=(n, d))
            assert np.linalg.cond(B @ B.T + lam * np.eye(d)) == pytest.approx(cond, rel=1e-3)
            ref = refined_dual_solve(Z, B, lam)
            W, _ = caster.model._dual_solve(Z, B, lam)
            assert np.abs(W - ref).max() <= cond * eps * np.abs(ref).max()


class TestIdentityFreeBasis:
    """The encoder's basis pass against the slow pass over np.eye(k)."""

    @pytest.mark.parametrize("dtype", ["float64"])
    def test_basis_equals_identity_pass(self, rng, dtype):
        m = tiny_model(k=300, d=8, encoder_hidden=(64, 32), seed=1)
        with writing(m.encoder.parameters()):
            for layer in m.encoder.layers:
                layer.b[...] = rng.normal(size=layer.b.shape)
        oracle = m.encoder.forward(np.eye(m.k))[0].T
        assert m.dictionary_basis().dtype == dtype
        np.testing.assert_array_equal(m.dictionary_basis(), oracle)

    def test_step_equals_identity_pass(self, rng):
        m = tiny_model(k=300, d=8, encoder_hidden=(64, 32), seed=2)
        oracle = tiny_model(k=300, d=8, encoder_hidden=(64, 32), seed=2)
        oracle._eye = np.eye(oracle.k)  # the encoder multiplies by it
        X = (rng.random((16, 300)) < 0.05).astype(float)
        y = rng.integers(0, 2, 16).astype(float)
        for labels in (y, None):
            loss, parts, grads = m.step(X, labels)
            oracle_loss, oracle_parts, oracle_grads = oracle.step(X, labels)
            assert loss == oracle_loss and parts == oracle_parts
            assert grads.keys() == oracle_grads.keys()
            for name, g in oracle_grads.items():
                np.testing.assert_array_equal(grads[name], g, err_msg=name)


class TestModelPieces:
    def test_single_layer_encoder_columns(self, rng):
        m = tiny_model(k=6, d=3, encoder_hidden=())
        W = m.encoder.layers[0].W
        with writing(m.encoder.parameters()):
            m.encoder.layers[0].b[...] = 0.0
        B = m.dictionary_basis()
        np.testing.assert_allclose(B, W)
        e1 = np.zeros(6)
        e1[0] = 1.0
        np.testing.assert_allclose(m.encode(e1), W[:, 0])

    def test_zero_input_gives_bias(self, rng):
        m = tiny_model(k=6, d=3, encoder_hidden=())
        with writing(m.encoder.parameters()):
            m.encoder.layers[0].b[...] = rng.normal(size=3)
        np.testing.assert_allclose(m.encode(np.zeros(6)), m.encoder.layers[0].b)

    def test_zero_weight_encoder_basis(self):
        m = tiny_model(k=6, d=3, encoder_hidden=())
        with writing(m.encoder.parameters()):
            m.encoder.layers[0].W[...] = 0.0
            m.encoder.layers[0].b[...] = [1.0, 2.0, 3.0]
        B = m.dictionary_basis()
        for i in range(6):
            np.testing.assert_allclose(B[:, i], [1.0, 2.0, 3.0])

    def test_deep_basis_matches_per_column_encode(self, rng):
        m = tiny_model(k=5, d=2, encoder_hidden=(7, 7))
        B = m.dictionary_basis()
        for i in range(5):
            u = np.zeros(5)
            u[i] = 1.0
            # batched and single-row GEMMs may round differently; the values
            # agree to full double precision
            np.testing.assert_allclose(B[:, i], m.encode(u), rtol=1e-12, atol=1e-15)

    def test_basis_consistency_after_update(self, rng):
        m = tiny_model(k=8, d=3)
        X = (rng.random((6, 8)) < 0.5).astype(float)
        y = rng.integers(0, 2, 6).astype(float)
        from caster.nn import Adam

        adam = Adam(m.parameters(), lr=1e-3)
        for _ in range(3):
            _, _, grads = m.step(X, y)
            adam.step(grads)
        B = m.dictionary_basis()
        for i in range(8):
            u = np.zeros(8)
            u[i] = 1.0
            np.testing.assert_allclose(B[:, i], m.encode(u), rtol=1e-12, atol=1e-15)

    def test_encode_deterministic(self, rng):
        m = tiny_model()
        x = (rng.random(10) < 0.5).astype(float)
        a = m.encode(x)
        b = m.encode(x)
        np.testing.assert_array_equal(a, b)
        assert np.all(np.isfinite(a))

    def test_zero_predictor_gives_half(self, rng):
        m = tiny_model()
        with writing(m.predictor.parameters()):
            for layer in m.predictor.layers:
                layer.W[...] = 0.0
                layer.b[...] = 0.0
        X = (rng.random((4, 10)) < 0.5).astype(float)
        np.testing.assert_array_equal(m.predict_pairs(X), 0.5)

    def test_magnifier_first_layer_scaling_invariance(self, rng):
        # doubling the magnifier while halving first-layer weights keeps the
        # first pre-activation unchanged
        m = tiny_model(seed=3)
        r = rng.normal(size=(4, 10))
        pre_a = (m.config.magnifier * r) @ m.predictor.layers[0].W.T
        m2 = tiny_model(seed=3, magnifier=2 * m.config.magnifier)
        with writing(m2.predictor.parameters()):
            m2.predictor.layers[0].W[...] = 0.5 * m.predictor.layers[0].W
        pre_b = (m2.config.magnifier * r) @ m2.predictor.layers[0].W.T
        np.testing.assert_allclose(pre_a, pre_b, rtol=1e-12)

    def test_default_architecture_builds(self):
        m = CasterModel(100, ModelConfig(), LossWeights(), seed=0)
        assert [l.out_dim for l in m.encoder.layers] == [500, 500, 50]
        assert [l.out_dim for l in m.decoder.layers] == [500, 500, 100]
        assert [l.out_dim for l in m.predictor.layers] == [1024, 1024, 1024, 256, 64, 1]
        p = m.predict_pairs(np.zeros(100))
        assert p.shape == (1,) and 0.0 < p[0] < 1.0

    def test_latent_dim_must_be_below_k(self):
        with pytest.raises(ValueError, match="latent_dim"):
            CasterModel(10, ModelConfig(latent_dim=10), LossWeights())


class TestStepGradient:
    def test_full_loss_gradient_small(self, rng):
        m = tiny_model(k=8, d=3, seed=11)
        X = (rng.random((5, 8)) < 0.4).astype(float)
        y = rng.integers(0, 2, 5).astype(float)
        # nudge every parameter off exact zeros so no ReLU sits on its kink
        params = m.parameters()
        with writing(params):
            for arr in params.values():
                arr += 0.02 * rng.normal(size=arr.shape)

        def loss_fn():
            loss, _, grads = m.step(X, y)
            return loss, grads

        report = gradient_check(loss_fn, m.parameters(), tolerance=1e-4, step=1e-5,
                                max_entries_per_param=20, rng=rng)
        assert report.passed, f"{report.max_rel_error} at {report.worst_param}"

    @pytest.mark.parametrize("weights, labelled, absent", [
        (LossWeights(), True, ()),
        (LossWeights(alpha=0.0), True, ("decoder",)),
        (LossWeights(), False, ("predictor",)),
    ])
    def test_gradient_keys_are_the_parameters_that_move(self, rng, weights, labelled, absent):
        m = tiny_model(k=8, d=3, seed=11, weights=weights)
        X = (rng.random((5, 8)) < 0.4).astype(float)
        y = rng.integers(0, 2, 5).astype(float) if labelled else None
        _, _, grads = m.step(X, y)
        params = m.parameters()
        skipped = {name for stack in absent for name in getattr(m, stack).parameters()}
        assert skipped or not absent
        assert grads.keys() == params.keys() - skipped
        for name, g in grads.items():
            assert g.shape == params[name].shape

    @pytest.mark.parametrize("weights, labelled", [
        (LossWeights(), True),
        (LossWeights(), False),
        (LossWeights(alpha=0.0), True),
    ])
    def test_step_into_out_equals_a_fresh_step(self, rng, weights, labelled):
        # out is an earlier step's gradients, all NaN: a value read before it is written shows
        m = tiny_model(k=8, d=3, seed=11, weights=weights)
        X = (rng.random((5, 8)) < 0.4).astype(float)
        y = rng.integers(0, 2, 5).astype(float) if labelled else None
        _, _, out = m.step(X, y)
        for g in out.values():
            g.fill(np.nan)
        loss, parts, fresh = m.step(X, y)
        got_loss, got_parts, got = m.step(X, y, out=out)
        assert (got_loss, got_parts) == (loss, parts)
        assert list(got) == list(fresh)
        assert_written([out[name] for name in got], list(got.values()), list(fresh.values()))


def _closed_form_case(size, rng):
    """A model and a multi-hot batch: toy, k=300, or paper scale (the default
    architecture, k=1722, batch 256, about 17 substructures per row)."""
    if size == "toy":
        m, n = tiny_model(k=10, d=3, seed=5), 6
    elif size == "k300":
        m, n = tiny_model(k=300, d=8, encoder_hidden=(64, 32), seed=6), 32
    else:
        m, n = CasterModel(1722, ModelConfig(), LossWeights(), seed=0), 256
    X = (rng.random((n, m.k)) < min(0.4, 17 / m.k)).astype(float)
    y = rng.integers(0, 2, n).astype(float)
    return m, X, y


class _Tainted(np.ndarray):
    """An array that records the shape of every array computed from it."""

    shapes: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = [a.view(np.ndarray) if isinstance(a, _Tainted) else a for a in inputs]
        if "out" in kwargs:
            kwargs["out"] = tuple(o.view(np.ndarray) for o in kwargs["out"])
            return getattr(ufunc, method)(*plain, **kwargs)
        result = getattr(ufunc, method)(*plain, **kwargs)
        if not isinstance(result, np.ndarray):
            return result
        _Tainted.shapes.append(result.shape)
        return result.view(_Tainted)


class TestClosedFormProjection:
    """step's closed-form projection loss against reference_step, which
    charges it on the n x k coefficients and differentiates through the solve."""

    @pytest.mark.parametrize(
        "size, dtype, tol",
        [
            ("toy", "float64", 1e-13),
            ("k300", "float64", 1e-13),
            ("paper", "float64", 1e-13),
        ],
    )
    def test_step_matches_reference(self, rng, size, dtype, tol):
        m, X, y = _closed_form_case(size, rng)
        snap = m.snapshot()
        feeds_batchnorm = {f"predictor.{i}.b" for i in range(len(m.config.predictor_hidden))}
        for labels in (y, None):
            loss, parts, grads = m.step(X, labels)
            m.restore(snap)
            ref_loss, ref_parts, ref_grads = reference_step(m, X, labels)
            m.restore(snap)
            assert (parts["recon"], parts["proj"]) == (ref_parts["recon"], ref_parts["proj"])
            # the predictor reads its input in another order of products
            assert abs(loss - ref_loss) <= tol * abs(ref_loss)
            assert abs(parts["clf"] - ref_parts["clf"]) <= tol * abs(ref_parts["clf"])
            assert grads.keys() == ref_grads.keys()
            for name, ref in ref_grads.items():
                assert grads[name].dtype == ref.dtype == dtype, name
                # a bias that feeds a batch norm has gradient 0, so both
                # values are rounding noise; scale by its layer's W
                scale = ref_grads[name[:-1] + "W"] if name in feeds_batchnorm else ref
                assert np.abs(grads[name] - ref).max() <= tol * np.abs(scale).max(), name

    @pytest.mark.parametrize("size", ["toy", "k300", "paper"])
    def test_residual_is_lambda1_w(self, rng, size):
        # B has full row rank d < k, so every z lies in its span
        m, X, _ = _closed_form_case(size, rng)
        lam1 = m.weights.lambda1
        Z, B = m.encode(X), m.dictionary_basis()
        W, _ = caster.model._dual_solve(Z, B, lam1)
        resid = Z - (W.T @ B) @ B.T
        assert np.abs(resid - lam1 * W.T).max() <= 1e-9 * np.abs(lam1 * W.T).max()

    @pytest.mark.parametrize("size", ["toy", "k300", "paper"])
    def test_proj_part_equals_projection_loss(self, rng, size):
        m, X, _ = _closed_form_case(size, rng)
        w = m.weights
        Z, B = m.encode(X), m.dictionary_basis()
        general = projection_loss(Z, B, ridge_coefficients(Z, B, w.lambda1), w.lambda1, w.lambda2)
        _, parts, _ = m.step(X, None)
        assert parts["proj"] == pytest.approx(general, rel=1e-12)

    def test_no_step_forms_a_coefficient_matrix(self, rng, monkeypatch):
        # taint what the ridge solve returns: W = M^{-1} Z^T in a step, P =
        # M^{-1} B in the scorer's build, and every array computed from them
        m, X, y = _closed_form_case("k300", rng)
        n, k = X.shape
        solve = caster.model.cho_solve
        solves = []

        def tainted_solve(F, rhs):
            solves.append(rhs.shape)
            return solve(F, rhs).view(_Tainted)

        monkeypatch.setattr(caster.model, "cho_solve", tainted_solve)
        for labels, expected_solves in ((None, 1), (y, 2)):
            _Tainted.shapes.clear()
            solves.clear()
            m.step(X, labels)
            assert _Tainted.shapes and (n, k) not in _Tainted.shapes
            assert len(solves) == expected_solves
        m.scorer()
        _Tainted.shapes.clear()
        solves.clear()
        m.predict_pairs(X)
        assert _Tainted.shapes and (n, k) not in _Tainted.shapes
        assert solves == []
        # the check sees the (n, k) coefficients of the reference step
        _Tainted.shapes.clear()
        reference_step(m, X, y)
        assert (n, k) in _Tainted.shapes


def _toy_supervised(rng, n=240, k=12):
    """Separable toy problem: label = bit 0 of the functional vector."""
    X = (rng.random((n, k)) < 0.35).astype(float)
    y = X[:, 0].copy()
    # ensure both classes in any contiguous split
    if y[:24].min() == y[:24].max():
        y[0] = 1 - y[0]
        X[0, 0] = y[0]
    return X, y


def _record_steps(monkeypatch) -> list:
    """Wrap CasterModel.step; each call appends (rows, loss, parts, grads)."""
    calls = []
    step = CasterModel.step

    def recorded(self, X, y, out=None):
        result = step(self, X, y, out=out)
        calls.append((X.shape[0], *result))
        return result

    monkeypatch.setattr(CasterModel, "step", recorded)
    return calls


class TestTraining:
    def test_pretrain_skips_a_last_batch_of_one_row(self, rng, monkeypatch):
        calls = _record_steps(monkeypatch)
        X = (rng.random((33, 12)) < 0.35).astype(float)
        history = pretrain_arrays(tiny_model(k=12, d=4), X, TrainingConfig(batch_size=16, pretrain_epochs=3))
        assert [(h["epoch"], h["batch"]) for h in history] == [(e, b) for e in range(3) for b in range(2)]
        assert [rows for rows, *_ in calls] == [16, 16] * 3

    def _train_33_rows(self, rng, monkeypatch):
        """A labelled run whose training split has 33 rows, batch 16, and
        the steps it took."""
        calls = _record_steps(monkeypatch)
        X, y = _toy_supervised(rng, n=47)
        result = train_arrays(tiny_model(k=12, d=4), X, y,
                              TrainingConfig(batch_size=16, max_epochs=3, patience=5, seed=2))
        assert len(result.split["train"]) == 33 and len(result.history) == 3
        return result.history, calls

    def test_train_skips_a_last_batch_of_one_row(self, rng, monkeypatch):
        _, calls = self._train_33_rows(rng, monkeypatch)
        assert [rows for rows, *_ in calls] == [16, 16] * 3

    def test_train_history_is_the_mean_of_the_steps(self, rng, monkeypatch):
        history, calls = self._train_33_rows(rng, monkeypatch)
        for epoch, row in enumerate(history):
            steps = calls[2 * epoch : 2 * epoch + 2]
            assert row["epoch"] == epoch
            assert row["loss"] == pytest.approx(math.fsum(loss for _, loss, *_ in steps) / 2, rel=1e-12)
            for key in ("recon", "proj", "clf"):
                assert row[key] == pytest.approx(math.fsum(parts[key] for _, _, parts, _ in steps) / 2, rel=1e-12)

    def test_pretrain_refuses_rows_that_take_no_step(self, rng):
        m = tiny_model(k=12, d=4)
        before = m.snapshot()
        X = (rng.random((1, 12)) < 0.35).astype(float)
        with pytest.raises(TrainingError, match="at least 2 unlabelled rows to take a step, got 1"):
            pretrain_arrays(m, X, TrainingConfig(batch_size=16, pretrain_epochs=3))
        assert pretrain_arrays(m, X, TrainingConfig(pretrain_epochs=0)) == []
        for name, a in m.state_arrays().items():
            np.testing.assert_array_equal(a, before[name], err_msg=name)

    def test_an_epoch_keeps_one_gradient_set(self, rng, monkeypatch):
        """Every step after the first writes into the first step's gradient
        arrays, so no step's traced peak holds a second gradient set."""
        calls = _record_steps(monkeypatch)
        m = tiny_model(k=300, d=8, encoder_hidden=(64,), decoder_hidden=(64,), predictor_hidden=(64, 64))
        X = (rng.random((256, 300)) < 0.05).astype(float)
        y = rng.integers(0, 2, 256).astype(float)
        epoch = caster.model._epoch(m, Adam(m.parameters()), X, y, np.arange(256), 32)
        peaks = []
        tracemalloc.start()
        try:
            for _ in epoch:  # each item is one step and its update
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.reset_peak()
        finally:
            tracemalloc.stop()
        steps = [grads for *_, grads in calls]
        assert len(peaks) == len(steps) == 8
        first = steps[0]
        per_set = sum(g.nbytes for g in first.values())
        growth = [(peak - peaks[0]) / per_set for peak in peaks]
        assert max(growth) <= 0.25, growth
        for grads in steps[1:]:
            assert list(grads) == list(first)
            assert all(grads[name] is g for name, g in first.items())

    def test_pretrain_reduces_reconstruction(self, rng):
        m = tiny_model(k=12, d=4)
        X = (rng.random((600, 12)) < 0.35).astype(float)
        config = TrainingConfig(batch_size=32, pretrain_epochs=2, seed=1)
        history = pretrain_arrays(m, X, config)
        first_batch = history[0]["recon"]
        last_epoch = [h["recon"] for h in history if h["epoch"] == 1]
        assert np.mean(last_epoch) < first_batch

    def test_pretrain_noop_when_weights_zero(self, rng):
        weights = LossWeights(alpha=0.0, beta=0.0, gamma=1.0)
        m = tiny_model(k=12, d=4, weights=weights)
        before = m.snapshot()
        X = (rng.random((64, 12)) < 0.35).astype(float)
        pretrain_arrays(m, X, TrainingConfig(batch_size=16, pretrain_epochs=1, seed=0))
        after = m.state_arrays()
        for name, value in before.items():
            np.testing.assert_array_equal(value, after[name])

    def test_pretrain_deterministic(self, rng):
        X = (rng.random((128, 12)) < 0.35).astype(float)
        snaps = []
        for _ in range(2):
            m = tiny_model(k=12, d=4, seed=9)
            pretrain_arrays(m, X, TrainingConfig(batch_size=32, pretrain_epochs=2, seed=9))
            snaps.append(m.snapshot())
        for name in snaps[0]:
            np.testing.assert_array_equal(snaps[0][name], snaps[1][name])

    def test_train_learns_separable_toy(self, rng):
        X, y = _toy_supervised(rng)
        m = tiny_model(k=12, d=4, predictor_hidden=(16, 8))
        config = TrainingConfig(batch_size=16, lr=3e-3, max_epochs=25, patience=8, seed=2)
        result = train_arrays(m, X, y, config)
        assert result.test_metrics["roc_auc"] >= 0.9
        assert len(result.history) <= 25

    def test_train_deterministic_history(self, rng):
        X, y = _toy_supervised(rng)
        histories = []
        for _ in range(2):
            m = tiny_model(k=12, d=4, seed=4)
            result = train_arrays(m, X, y, TrainingConfig(batch_size=32, max_epochs=4, patience=5, seed=4))
            histories.append(result.history)
        assert histories[0] == histories[1]

    def test_patience_zero_stops_after_first_plateau(self, rng):
        X, y = _toy_supervised(rng)
        m = tiny_model(k=12, d=4, seed=1)
        result = train_arrays(m, X, y, TrainingConfig(batch_size=32, max_epochs=30, patience=0, seed=1))
        if len(result.history) < 30:  # early stop happened
            # exactly one epoch ran after the last improvement
            assert len(result.history) == result.best_epoch + 2

    def test_missing_class_in_split_rejected(self, rng):
        X = (rng.random((60, 12)) < 0.35).astype(float)
        y = np.ones(60)
        m = tiny_model(k=12, d=4)
        with pytest.raises(Exception, match="both classes"):
            train_arrays(m, X, y, TrainingConfig(batch_size=16, seed=0))

    def test_gamma_zero_gives_chance_level(self, rng):
        # no supervised signal: mean test AUC over seeds stays near chance
        X, y = _toy_supervised(rng, n=300)
        aucs = []
        for seed in range(3):
            m = tiny_model(k=12, d=4, weights=LossWeights(gamma=0.0), seed=seed)
            result = train_arrays(
                m, X, y, TrainingConfig(batch_size=32, max_epochs=5, patience=10, seed=seed)
            )
            aucs.append(result.test_metrics["roc_auc"])
        assert abs(float(np.mean(aucs)) - 0.5) <= 0.1


class TestSplits:
    def test_ratio_split_sizes(self):
        tr, va, te = split_indices(1000, TrainingConfig(seed=0))
        assert (len(tr), len(va), len(te)) == (700, 100, 200)
        assert sorted(np.concatenate([tr, va, te])) == list(range(1000))

    def test_fold_mode_partitions(self):
        folds = []
        for i in range(5):
            config = TrainingConfig(seed=3, split_mode="folds:5", fold_index=i)
            tr, va, te = split_indices(500, config)
            folds.append(np.concatenate([tr, va, te]))
        all_idx = np.concatenate(folds)
        assert len(all_idx) == 500 and len(set(all_idx.tolist())) == 500

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            TrainingConfig(batch_size=1)
        for ratio in ((0.5, 0.2, 0.2), (math.nan, 0.5, 0.5)):
            with pytest.raises(ValueError, match="split ratios"):
                TrainingConfig(split_ratio=ratio)
        with pytest.raises(ValueError):
            TrainingConfig(split_mode="folds:1")
        # a fold index means nothing to a ratio split
        with pytest.raises(ValueError, match="fold_index applies only with split_mode 'folds:<n>', got 1"):
            TrainingConfig(fold_index=1)
        with pytest.raises(ValueError):
            LossWeights(lambda1=0.0)
        with pytest.raises(ValueError):
            LossWeights(alpha=-0.1)


@pytest.fixture
def small_vocab():
    return Vocabulary(
        [MergeRule("C", "C", "CC", 0, 9)],
        [("CC", 9), ("O", 5), ("N", 4), ("S", 2)],
        eta=1,
        ell=10,
    )


class TestExplain:
    def test_empty_for_disjoint_pair(self, small_vocab, caplog):
        m = tiny_model(k=4, d=2)
        with caplog.at_level("WARNING"):
            table = explain_pair(m, "CC", "OO", small_vocab)
        assert table == []
        assert any("nothing to explain" in rec.message for rec in caplog.records)
        assert m._scorer is None  # nothing to rank, so nothing projected

    def test_only_present_substructures_ranked_by_magnitude(self, small_vocab):
        m = tiny_model(k=4, d=2, seed=8)
        table = explain_pair(m, "CCO", "OCC", small_vocab)
        names = [t for t, _ in table]
        assert set(names) == {"CC", "O"}
        mags = [abs(c) for _, c in table]
        assert mags == sorted(mags, reverse=True)

    def test_coefficients_are_magnified(self, small_vocab):
        m = tiny_model(k=4, d=2, seed=8)
        from caster.featurize import functional_representation

        x = functional_representation("CCO", "OCC", small_vocab)
        r = m.project(m.encode(x))
        table = dict(explain_pair(m, "CCO", "OCC", small_vocab))
        idx = {tok: i for i, (tok, _) in enumerate(small_vocab.substructures)}
        for tok, coef in table.items():
            assert coef == pytest.approx(100.0 * r[idx[tok]])


def _scorer_case(size, dtype, seed=6):
    """A model, a vocabulary of k bracket atoms (no merges, so each atom is
    its own substructure), 12 pairs that share a few of them and the pairs'
    functional vectors.  Every array of the model has `dtype`."""
    if size == "toy":
        m = tiny_model(k=10, d=3, seed=seed)
    else:
        m = tiny_model(k=300, d=8, encoder_hidden=(64, 32), seed=seed)
    assert {a.dtype for a in m.state_arrays().values()} == {np.dtype(dtype)}
    atoms = [f"[C{i}]" for i in range(m.k)]
    vocab = Vocabulary([], [(a, 1) for a in atoms], eta=1, ell=0)
    rng = np.random.default_rng(seed)
    examples = []
    for _ in range(12):
        shared, only_left, only_right = np.split(rng.permutation(m.k)[:9], [3, 6])
        left = "".join(atoms[i] for i in np.concatenate([shared, only_left]))
        right = "".join(atoms[i] for i in np.concatenate([only_right, shared]))
        examples.append(PairExample(left, right))
    pairs = PairCorpus(examples, "unlabelled")
    X, _ = featurize_pairs(pairs, vocab)
    return m, vocab, pairs, X


def assert_matches_oracle(m, vocab, pairs, X):
    """Scores and explanations of `m` against the recompute-per-call oracle;
    returns the scores."""
    scores = m.predict_pairs(X)
    oracle = oracle_predict_pairs(m, X)
    assert np.abs(scores - oracle).max() <= 1e-12
    assert np.abs(m.predict_pairs(index_rows(pairs, vocab)) - oracle).max() <= 1e-12
    for ex in pairs:
        table = explain_pair(m, ex.left, ex.right, vocab)
        expected = oracle_explain_pair(m, ex.left, ex.right, vocab)
        assert [tok for tok, _ in table] == [tok for tok, _ in expected]
        np.testing.assert_allclose([c for _, c in table], [c for _, c in expected], rtol=0, atol=1e-12)
    return scores


class TestScorer:
    """The frozen scorer against the oracle that rebuilds B on every call,
    including after every way the encoder or lambda1 can change."""

    @pytest.mark.parametrize("dtype", ["float64"])
    @pytest.mark.parametrize("size", ["toy", "k300"])
    def test_matches_oracle(self, size, dtype):
        m, vocab, pairs, X = _scorer_case(size, dtype)
        first = assert_matches_oracle(m, vocab, pairs, X)
        np.testing.assert_array_equal(assert_matches_oracle(m, vocab, pairs, X), first)
        z = m.encode(X)
        B = m.dictionary_basis()
        for zs in (z, z[0]):
            r = ridge_coefficients(zs, B, m.weights.lambda1)
            assert m.project(zs).shape == r.shape
            assert np.abs(m.project(zs) - r).max() <= 1e-12 * np.abs(r).max()

    def test_index_rows_are_scored_in_chunks(self, monkeypatch):
        # chunks of 5 rows split the 13 pairs unevenly; the last pair shares nothing
        m, vocab, pairs, X = _scorer_case("k300", "float64")
        pairs = PairCorpus([*pairs, PairExample("[C1]", "[C2]")], "unlabelled")
        X, _ = featurize_pairs(pairs, vocab)
        rows = index_rows(pairs, vocab)
        whole = m.predict_pairs(rows)
        monkeypatch.setattr(caster.model, "_PREDICT_ROWS", 5)
        assert np.abs(m.predict_pairs(rows) - whole).max() <= 1e-12
        assert np.abs(whole - oracle_predict_pairs(m, X)).max() <= 1e-12
        assert m.predict_pairs(rows[:0]).shape == (0,)

    def test_unchanged_model_builds_basis_once(self, monkeypatch):
        m, vocab, pairs, X = _scorer_case("k300", "float64")
        basis = CasterModel.dictionary_basis
        calls = []

        def counted(model):
            calls.append(model)
            return basis(model)

        monkeypatch.setattr(CasterModel, "dictionary_basis", counted)
        for _ in range(3):
            m.predict_pairs(X)
            for ex in pairs:
                explain_pair(m, ex.left, ex.right, vocab)
            m.project(m.encode(X))
        assert len(calls) == 1
        assert m.scorer() is m.scorer()

    def test_scorer_is_read_only(self):
        m, _, _, _ = _scorer_case("toy", "float64")
        s = m.scorer()
        assert s.P.shape == (3, 10)
        with pytest.raises(ValueError):
            s.P[0, 0] = 1.0

    def _changed(self, change, dtype):
        """Score once, apply `change` to the model, and check that the output
        moved and still equals the oracle."""
        m, vocab, pairs, X = _scorer_case("k300", dtype)
        before = assert_matches_oracle(m, vocab, pairs, X)
        m = change(m, X) or m
        after = assert_matches_oracle(m, vocab, pairs, X)
        assert np.abs(after - before).max() > 0

    @pytest.mark.parametrize("dtype", ["float64"])
    def test_after_adam_step(self, dtype):
        def adam_step(m, X):
            y = np.arange(len(X)) % 2.0
            _, _, grads = m.step(X, y)
            Adam(m.parameters(), lr=1e-2).step(grads)

        self._changed(adam_step, dtype)

    @pytest.mark.parametrize("dtype", ["float64"])
    def test_after_restore(self, dtype):
        def restore(m, X):
            other, _, _, _ = _scorer_case("k300", dtype, seed=7)
            m.restore(other.snapshot())

        self._changed(restore, dtype)

    @pytest.mark.parametrize("dtype", ["float64"])
    def test_outside_write_is_refused(self, dtype):
        m, vocab, pairs, X = _scorer_case("k300", dtype)
        before = assert_matches_oracle(m, vocab, pairs, X)
        W = m.encoder.layers[0].W
        with pytest.raises(ValueError, match="read-only"):
            W[5, int(np.flatnonzero(X[0])[0])] += 0.25
        with pytest.raises(ValueError, match="read-only"):
            np.add(W, 1.0, out=W)
        np.testing.assert_array_equal(assert_matches_oracle(m, vocab, pairs, X), before)

    @pytest.mark.parametrize("dtype", ["float64"])
    def test_after_lambda1_change(self, dtype):
        def new_weights(m, X):
            m.weights = LossWeights(lambda1=0.5)

        self._changed(new_weights, dtype)

    @pytest.mark.parametrize("dtype", ["float64"])
    def test_model_from_checkpoint(self, tmp_path, dtype):
        def reload(m, X):
            other, _, _, _ = _scorer_case("k300", dtype, seed=7)
            save_checkpoint(tmp_path / "model.ckpt", other)
            loaded = load_checkpoint(tmp_path / "model.ckpt")
            np.testing.assert_array_equal(loaded.predict_pairs(X), other.predict_pairs(X))
            return loaded

        self._changed(reload, dtype)


def layer_by_layer_predict(model, X):
    """predict_pairs through `inference_oracle`, batch norm written out from
    the running statistics, in one chunk."""
    V = model.config.magnifier * model.scorer().P
    Z = inference_oracle(model.encoder, X)
    logits = inference_oracle(model.predictor, LowRank(Z, V))
    return caster.nn.sigmoid(logits[:, 0])


def as_index_rows(X):
    """The rows of a dense 0/1 array as a MultiHot."""
    rows, cols = np.nonzero(X)
    return MultiHot(np.searchsorted(rows, np.arange(X.shape[0] + 1)), cols, X.shape[1])


class TestInferencePass:
    """Scoring through `MLP.infer`: against the layer-by-layer path, and
    writing to no input and no model array."""

    def test_paper_size_matches_the_layer_by_layer_path(self):
        m = CasterModel(1722, ModelConfig(), LossWeights(), seed=0)
        rng = np.random.default_rng(17)
        X = (rng.random((400, m.k)) < 17 / m.k).astype(float)
        # batch norm away from its initial identity: drawn gamma and beta, and
        # running statistics from training-mode passes over these rows
        with writing(m.predictor.parameters()):
            for bn in m.predictor.norms:
                bn.gamma[...] = rng.uniform(0.5, 1.5, bn.gamma.shape)
                bn.beta[...] = rng.normal(scale=0.1, size=bn.beta.shape)
        V = m.config.magnifier * m.scorer().P
        for _ in range(5):
            m.predictor.forward(LowRank(m.encode(X), V))
        expected = layer_by_layer_predict(m, X)
        assert np.ptp(expected) > 0.1
        for rows in (X, as_index_rows(X)):
            assert np.abs(m.predict_pairs(rows) - expected).max() <= 1e-12

    def test_scoring_writes_to_no_input_and_no_model_array(self):
        m, vocab, pairs, X = _scorer_case("k300", "float64")
        rows = index_rows(pairs, vocab)
        expected = m.predict_pairs(X)
        arrays = [X, rows.indptr, rows.indices, *m.state_arrays().values()]
        copies = [a.copy() for a in arrays]
        for a in arrays:  # a write to any of them raises
            a.flags.writeable = False
        np.testing.assert_array_equal(m.predict_pairs(X), expected)
        assert np.abs(m.predict_pairs(rows) - expected).max() <= 1e-12
        for ex in pairs:
            explain_pair(m, ex.left, ex.right, vocab)
        for a, copy in zip(arrays, copies):
            np.testing.assert_array_equal(a, copy)

    def test_step_writes_to_no_input_and_no_parameter(self, rng):
        # a step moves the running statistics, and nothing else
        m, X, y = _closed_form_case("k300", rng)
        params = m.parameters()
        stats = {n: a for n, a in m.state_arrays().items() if n not in params}
        before = {n: a.copy() for n, a in m.state_arrays().items()}
        inputs = [X, y]
        copies = [a.copy() for a in inputs]
        for a in inputs:
            a.flags.writeable = False
        m.step(X, y)
        for a, copy in zip(inputs, copies):
            np.testing.assert_array_equal(a, copy)
        for name, a in m.state_arrays().items():
            if name in stats:
                assert np.abs(a - before[name]).max() > 0, name
            else:
                np.testing.assert_array_equal(a, before[name], err_msg=name)


class TestWriteStamp:
    """Every sanctioned write moves the encoder's generation, and the
    scoring calls after it build exactly one new scorer."""

    @staticmethod
    def _scorer_builds(monkeypatch):
        build = caster.model.Scorer.build.__func__
        keys = []

        def counted(cls, key, B):
            keys.append(key)
            return build(cls, key, B)

        monkeypatch.setattr(caster.model.Scorer, "build", classmethod(counted))
        return keys

    def _one_rebuild(self, monkeypatch, change, writes=True):
        m, vocab, pairs, X = _scorer_case("toy", "float64")
        m.predict_pairs(X)
        generation = m.encoder.generation
        builds = self._scorer_builds(monkeypatch)
        m = change(m, X) or m
        assert (m.encoder.generation > generation) if writes else (m.encoder.generation == generation)
        for _ in range(2):
            assert_matches_oracle(m, vocab, pairs, X)
            m.project(m.encode(X))
        assert builds == [(m.encoder.generation, m.weights.lambda1)]

    def test_adam_step(self, monkeypatch):
        def adam_step(m, X):
            _, _, grads = m.step(X, np.arange(len(X)) % 2.0)
            Adam(m.parameters(), lr=1e-2).step(grads)

        self._one_rebuild(monkeypatch, adam_step)

    def test_restore(self, monkeypatch):
        def restore(m, X):
            m.restore(tiny_model(k=10, d=3, seed=7).snapshot())

        self._one_rebuild(monkeypatch, restore)

    def test_load_checkpoint(self, monkeypatch, tmp_path):
        def reload(m, X):
            save_checkpoint(tmp_path / "model.ckpt", m)
            return load_checkpoint(tmp_path / "model.ckpt")

        self._one_rebuild(monkeypatch, reload)

    def test_lambda1_change(self, monkeypatch):
        def new_weights(m, X):
            m.weights = LossWeights(lambda1=0.5)

        self._one_rebuild(monkeypatch, new_weights, writes=False)

    def test_loaded_parameters_are_read_only(self, tmp_path):
        m = tiny_model(seed=5)
        save_checkpoint(tmp_path / "model.ckpt", m)
        loaded = load_checkpoint(tmp_path / "model.ckpt")
        params = loaded.parameters()
        assert any(name.startswith("encoder.") for name in params)
        for name, arr in loaded.state_arrays().items():
            # batch-norm running statistics stay writable: training updates them
            assert arr.flags.writeable == (name not in params), name

    def test_writing_restores_the_flags_of_a_plain_mapping(self):
        m = tiny_model()
        W = m.encoder.layers[0].W
        free = np.zeros(3)
        with writing({"W": W, "free": free}):
            W[0, 0] = 1.0
            free[0] = 1.0
        assert not W.flags.writeable and free.flags.writeable


class TestAdamInPlace:
    """Adam's buffered update against the textbook expressions it replaces."""

    @pytest.mark.parametrize("dtype", ["float64"])
    def test_bit_identical_to_the_plain_formula(self, rng, dtype):
        m = tiny_model(k=12, d=4, seed=3)
        X = (rng.random((8, 12)) < 0.4).astype(float)
        y = np.arange(8) % 2.0
        adam = Adam(m.parameters(), lr=1e-2)
        ref = {name: a.copy() for name, a in m.parameters().items()}
        ref_m = {name: np.zeros_like(a) for name, a in ref.items()}
        ref_v = {name: np.zeros_like(a) for name, a in ref.items()}
        b1, b2, lr, eps = adam.beta1, adam.beta2, adam.lr, adam.eps
        for t in range(1, 4):
            _, _, grads = m.step(X, y)
            adam.step(grads)
            bc1, bc2 = 1.0 - b1**t, 1.0 - b2**t
            for name, g in grads.items():
                p, mo, v = ref[name], ref_m[name], ref_v[name]
                mo += (1.0 - b1) * (g - mo)
                v += (1.0 - b2) * (g * g - v)
                p -= lr * (mo / bc1) / (np.sqrt(v / bc2) + eps)
            params = m.parameters()
            for name in ref:
                assert params[name].dtype == np.dtype(dtype), name
                np.testing.assert_array_equal(params[name], ref[name], err_msg=name)
                np.testing.assert_array_equal(adam.m[name], ref_m[name], err_msg=name)
                np.testing.assert_array_equal(adam.v[name], ref_v[name], err_msg=name)


def save_v2_checkpoint(path, model, dtype=None):
    """Write `model` as a v2 checkpoint: an np.savez zip archive of the state
    arrays and a JSON header stored as uint8.  With `dtype`, the header has
    the `dtype` entry of v2 files from before float64 became the only dtype,
    and the arrays are in `dtype`."""
    cfg = model.config
    header = {
        "magic": "caster-ckpt", "version": 2, "k": model.k, "d": cfg.latent_dim,
        "encoder_hidden": cfg.encoder_hidden, "decoder_hidden": cfg.decoder_hidden,
        "predictor_hidden": cfg.predictor_hidden, **asdict(model.weights),
        "magnifier": cfg.magnifier, "vocab_hash": model.vocab_hash,
    }
    if dtype is not None:
        header["dtype"] = dtype
    with open(path, "wb") as fh:
        np.savez(
            fh,
            header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
            **{name: a.astype(dtype or np.float64) for name, a in model.state_arrays().items()},
        )


def checkpoint_bytes(header, arrays):
    """A v3 checkpoint laid out by hand: the JSON header line, each array's
    little-endian float64 bytes and the CRC-32 of all of them.  `arrays`
    holds (name, array) pairs; header["arrays"] describes them unless given."""
    header = {**header}
    header.setdefault("arrays", [[name, list(a.shape)] for name, a in arrays])
    body = json.dumps(header).encode() + b"\n" + b"".join(np.asarray(a, "<f8").tobytes() for _, a in arrays)
    return body + zlib.crc32(body).to_bytes(4, "little")


def split_checkpoint(data):
    """The header (without `arrays`) and the (name, array) pairs of v3 bytes."""
    line, _, rest = data.partition(b"\n")
    header = json.loads(line)
    arrays, at = [], 0
    for name, shape in header.pop("arrays"):
        size = 8 * math.prod(shape)
        arrays.append((name, np.frombuffer(rest[at : at + size], "<f8").reshape(shape)))
        at += size
    return header, arrays


@pytest.fixture(scope="module")
def saved_checkpoint(tmp_path_factory):
    """A checkpoint's path, its bytes and the offsets of its records: the
    header line, each array and the CRC trailer."""
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    save_checkpoint(path, tiny_model(seed=3))
    data = path.read_bytes()
    records = [0, data.index(b"\n") + 1]
    for _, shape in json.loads(data[: records[1]])["arrays"]:
        records.append(records[-1] + 8 * math.prod(shape))
    assert records[-1] == len(data) - 4
    return path, data, records


class TestCheckpoint:
    @staticmethod
    def _vocab(count=1):
        """A vocabulary of 10 bracket atoms; the hash depends on `count`."""
        return Vocabulary([], [(f"[C{i}]", count) for i in range(10)], eta=1, ell=0)

    def test_roundtrip_preserves_predictions(self, tmp_path, rng):
        m = tiny_model(k=10, d=3, seed=21)
        m.vocab_hash = self._vocab().content_hash()
        X = (rng.random((20, 10)) < 0.4).astype(float)
        y = rng.integers(0, 2, 20).astype(float)
        from caster.nn import Adam

        adam = Adam(m.parameters(), lr=1e-3)
        for _ in range(4):
            _, _, grads = m.step(X, y)
            adam.step(grads)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, m)
        loaded = load_checkpoint(path, vocab=self._vocab())
        np.testing.assert_allclose(loaded.predict_pairs(X), m.predict_pairs(X), atol=1e-6)
        # the arrays are stored in binary, so the round-trip is exact
        np.testing.assert_array_equal(loaded.predict_pairs(X), m.predict_pairs(X))

    def test_vocab_hash_mismatch_refused(self, tmp_path):
        m = tiny_model()
        m.vocab_hash = self._vocab().content_hash()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, m)
        assert self._vocab(2).content_hash() != m.vocab_hash
        with pytest.raises(CheckpointError, match="vocabulary"):
            load_checkpoint(path, vocab=self._vocab(2))

    def test_layout_is_header_line_raw_arrays_and_crc(self, tmp_path):
        m = tiny_model(seed=4)
        m.vocab_hash = "abc123"
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, m)
        cfg = m.config
        header = {
            "magic": "caster-ckpt", "version": 3, "k": m.k, "latent_dim": cfg.latent_dim,
            "encoder_hidden": list(cfg.encoder_hidden), "decoder_hidden": list(cfg.decoder_hidden),
            "predictor_hidden": list(cfg.predictor_hidden), "magnifier": cfg.magnifier,
            **asdict(m.weights), "vocab_hash": "abc123",
        }
        stored, arrays = split_checkpoint(path.read_bytes())
        assert stored == header
        assert sorted(name for name, _ in arrays) == sorted(m.state_arrays())
        assert path.read_bytes() == checkpoint_bytes(stored, arrays)

    def test_malformed_checkpoint_rejected(self, tmp_path):
        good_path = tmp_path / "good.ckpt"
        save_checkpoint(good_path, tiny_model())
        good = good_path.read_bytes()
        header, arrays = split_checkpoint(good)
        line_end = good.index(b"\n") + 1
        W = "encoder.0.W"
        others = [(name, a) for name, a in arrays if name != W]
        W_shape = dict(arrays)[W].shape

        def with_header(**changes):
            return checkpoint_bytes({**header, **changes}, arrays)

        def with_shape(*shape):
            return with_header(arrays=[[name, list(shape) if name == W else list(a.shape)] for name, a in arrays])

        v2 = tmp_path / "v2.ckpt"
        save_v2_checkpoint(v2, tiny_model())
        flipped = bytearray(good)
        flipped[line_end + 5] ^= 1
        cases = [
            (b"", "no header line"),
            (b"not a checkpoint\n", "not a caster-ckpt v3 checkpoint"),
            (b"{not json\n", "not a caster-ckpt v3 checkpoint"),
            (b"[" * 100_000 + b"\n", "not a caster-ckpt v3 checkpoint"),
            (b"caster-ckpt v1\nk=10\nd=3\n", "v1 text checkpoint"),
            (v2.read_bytes(), r"caster-ckpt v2 \(\.npz\) checkpoint, which this version no longer reads"),
            (good[: line_end - 1], "no header line"),
            (b"[1, 2]\n", r"\(magic, version\) None"),
            (good + b"junk", "bytes follow the header line"),
            (good[: line_end + 20], "bytes follow the header line"),
            (good[:-1], "bytes follow the header line"),
            (bytes(flipped), "CRC-32 mismatch"),
            (good[:-4] + bytes(4), "CRC-32 mismatch"),
            (checkpoint_bytes(header, others), "missing arrays"),
            (checkpoint_bytes(header, [*arrays, ("extra", np.zeros(2))]), "unexpected arrays"),
            (checkpoint_bytes(header, [(name, a[:-1] if name == W else a) for name, a in arrays]), "model expects"),
            (checkpoint_bytes(header, [*arrays, (W, dict(arrays)[W])]), "malformed header.*'encoder.0.W' repeats"),
            (with_header(arrays=[[1, [2]], ["extra", [2]]]), "malformed header.*array name 1 repeats or is not a string"),
            (with_shape(-1, W_shape[1]), "malformed header.*has shape"),
            (with_shape(2.5, W_shape[1]), "malformed header.*has shape"),
            (with_shape("8", W_shape[1]), "malformed header.*has shape"),
            (with_shape(True, W_shape[1]), "malformed header.*has shape"),
            # the size check refuses a shape far beyond the file before any array is read
            (with_shape(10**6, 10**6), "bytes follow the header line"),
            (with_header(arrays=5), "malformed header"),
            (with_header(magic="other"), r"\('other', 3\), expected \('caster-ckpt', 3\)"),
            (with_header(version=2), r"\('caster-ckpt', 2\)"),
            (with_header(latent_dim="three"), "malformed header"),
            (with_header(lambda1=0.0), "malformed header"),
            (with_header(beta=math.nan), "malformed header.*beta must be a finite number >= 0, got nan"),
            (with_header(latent_dim=10), "no valid model"),
            # sizes the arrays do not have are refused before a layer is allocated
            (with_header(k=10**12), r"'encoder.0.W' is \(8, 10\), model expects \(8, 1000000000000\)"),
            (with_header(predictor_hidden=[10**12, 6]), "model expects"),
        ]
        path = tmp_path / "bad.ckpt"
        for content, message in cases:
            path.write_bytes(content)
            with pytest.raises(CheckpointError, match=message) as info:
                load_checkpoint(path)
            assert str(path) in str(info.value)

    def test_refused_before_any_array_is_read(self, saved_checkpoint, tmp_path, monkeypatch):
        _, data, _ = saved_checkpoint

        def no_read(*args):
            raise AssertionError("load_checkpoint read an array")

        monkeypatch.setattr(caster.model.np, "fromfile", no_read)
        path = tmp_path / "bad.ckpt"
        for content in (data[:-1], data + b"\0", b'{"magic": "caster-ckpt", "version": 2}\n' + data):
            path.write_bytes(content)
            with pytest.raises(CheckpointError):
                load_checkpoint(path)

    def test_load_draws_no_random_weights(self, tmp_path, monkeypatch):
        m = tiny_model(seed=5)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, m)

        def no_draw(*args):
            raise AssertionError("load_checkpoint drew random weights")

        monkeypatch.setattr(caster.nn, "glorot_uniform", no_draw)
        loaded = load_checkpoint(path)
        saved = m.state_arrays()
        for name, arr in loaded.state_arrays().items():
            assert arr.tobytes() == saved[name].tobytes()

    def test_missing_file_is_os_error(self, tmp_path):
        with pytest.raises(OSError):
            load_checkpoint(tmp_path / "absent.ckpt")

    @settings(max_examples=400, deadline=None)
    @given(
        cut=st.none() | st.floats(0.0, 1.0, exclude_max=True),
        flips=st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True), st.integers(0, 255)), max_size=3),
        record_flips=st.lists(
            st.tuples(st.floats(0.0, 1.0, exclude_max=True), st.integers(0, 45), st.integers(0, 255)),
            max_size=3,
        ),
    )
    def test_damaged_file_raises_only_checkpoint_error(self, saved_checkpoint, cut, flips, record_flips):
        path, data, records = saved_checkpoint
        damaged = bytearray(data)
        for where, value in flips:
            damaged[int(where * len(data))] = value
        for record, offset, value in record_flips:
            damaged[min(records[int(record * len(records))] + offset, len(data) - 1)] = value
        if cut is not None:
            del damaged[int(cut * len(data)) :]
        damaged_path = path.with_name("damaged.ckpt")
        damaged_path.write_bytes(bytes(damaged))
        if damaged == data:
            load_checkpoint(damaged_path)
            return
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(damaged_path)
        assert str(damaged_path) in str(info.value)

    def test_loss_weights_and_config_roundtrip(self, tmp_path):
        weights = LossWeights(alpha=0.2, beta=0.3, gamma=0.9, lambda1=1e-4, lambda2=0.05)
        m = tiny_model(weights=weights, magnifier=50.0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, m)
        assert list(tmp_path.iterdir()) == [path]
        loaded = load_checkpoint(path)
        assert loaded.weights == weights
        assert loaded.config == m.config
        assert loaded.config.magnifier == 50.0
        saved_arrays = m.state_arrays()
        for name, arr in loaded.state_arrays().items():
            assert arr.dtype == np.float64
            assert arr.tobytes() == saved_arrays[name].tobytes()

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_v2_checkpoint_refused_naming_v2(self, tmp_path, dtype):
        path = tmp_path / "model.ckpt"
        save_v2_checkpoint(path, tiny_model(seed=8), dtype)
        with pytest.raises(CheckpointError, match=r"caster-ckpt v2 \(\.npz\) checkpoint.*re-train") as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)


class TestTrainOnCorpus:
    def test_train_from_pair_corpus(self, small_vocab, rng):
        # build a corpus whose label depends on sharing "CC"
        examples = []
        strings_with = ["CCO", "CCN", "OCC", "NCC", "CCS", "SCC", "CCOO", "OOCC"]
        strings_without = ["ON", "NO", "SO", "OS", "OON", "NOO", "SON", "NOS"]
        n = 0
        for i, a in enumerate(strings_with):
            for b in strings_with[i + 1 :]:
                examples.append(PairExample(a, b, 1))
        for i, a in enumerate(strings_without):
            for b in strings_without[i + 1 :]:
                examples.append(PairExample(a, b, 0))
        corpus = PairCorpus(examples, "labelled")
        m = tiny_model(k=4, d=2, predictor_hidden=(8,))
        config = TrainingConfig(batch_size=8, max_epochs=10, patience=3, seed=0)
        result = train(m, corpus, small_vocab, config)
        assert result.test_metrics["roc_auc"] >= 0.9


class TestPretrainOnCorpus:
    def test_pretrain_from_pair_corpus(self, small_vocab):
        from caster.corpus import PairCorpus, PairExample
        from caster.model import pretrain

        pairs = PairCorpus(
            [PairExample("CCO", "CCN"), PairExample("OCC", "NCC"), PairExample("CCS", "SCC"),
             PairExample("ON", "NO"), PairExample("CCOO", "OOCC"), PairExample("SON", "NOS")],
            "unlabelled",
        )
        m = tiny_model(k=4, d=2)
        history = pretrain(m, pairs, small_vocab, TrainingConfig(batch_size=3, pretrain_epochs=2, seed=0))
        assert len(history) == 4  # two epochs of two batches
        assert all(np.isfinite(row["loss"]) for row in history)

    def test_pretrain_rejects_empty_corpus(self, small_vocab):
        from caster.corpus import PairCorpus
        from caster.model import TrainingError, pretrain

        m = tiny_model(k=4, d=2)
        with pytest.raises(TrainingError, match="empty"):
            pretrain(m, PairCorpus([], "unlabelled"), small_vocab, TrainingConfig(seed=0))

