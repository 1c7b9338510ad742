"""Layer backward passes vs central finite differences; Adam behavior.

Also home of `gradient_check`, the finite-difference oracle that
`test_model.py` and acceptance criterion 2 import.
"""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from caster.nn import MLP, Adam, BatchNorm1d, Dense, Identity, LowRank, MultiHot, sigmoid, writing


@pytest.fixture
def rng():
    return np.random.default_rng(99)


def fd_grad(f, arr, h=1e-6):
    """Central finite differences of scalar f() w.r.t. arr entries."""
    g = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = arr[idx]
        arr[idx] = orig + h
        fp = f()
        arr[idx] = orig - h
        fm = f()
        arr[idx] = orig
        g[idx] = (fp - fm) / (2 * h)
        it.iternext()
    return g


@dataclass
class GradCheckReport:
    max_rel_error: float
    passed: bool
    worst_param: str
    worst_index: tuple
    n_checked: int
    per_param: dict[str, float]


def gradient_check(
    loss_fn,
    params: dict[str, np.ndarray],
    tolerance: float = 1e-4,
    step: float = 1e-5,
    max_entries_per_param: int | None = None,
    rng: np.random.Generator | None = None,
) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    `loss_fn` takes no arguments, reads the (mutated) `params` arrays and
    returns (loss, grads) with grads keyed like `params`.  Each entry is
    set through `writing`, so read-only parameters can be checked too.
    The relative error uses a small floor in the denominator so
    finite-difference noise on near-zero gradients does not register as
    failure.
    """

    def put(p, idx, value):
        with writing(params):
            p[idx] = value

    loss, analytic = loss_fn()
    if not np.isfinite(loss):
        raise ValueError(f"loss is not finite: {loss}")

    max_rel = 0.0
    worst = ("", ())
    n_checked = 0
    per_param: dict[str, float] = {}
    for name, p in params.items():
        a = analytic.get(name)
        if a is None:
            continue
        indices = list(np.ndindex(p.shape))
        if max_entries_per_param is not None and len(indices) > max_entries_per_param:
            picker = rng if rng is not None else np.random.default_rng(0)
            chosen = picker.choice(len(indices), size=max_entries_per_param, replace=False)
            indices = [indices[i] for i in chosen]
        param_max = 0.0
        for idx in indices:
            orig = p[idx]
            put(p, idx, orig + step)
            loss_plus, _ = loss_fn()
            put(p, idx, orig - step)
            loss_minus, _ = loss_fn()
            put(p, idx, orig)
            numeric = (loss_plus - loss_minus) / (2.0 * step)
            rel = abs(a[idx] - numeric) / max(abs(a[idx]), abs(numeric), 1e-4)
            param_max = max(param_max, rel)
            n_checked += 1
            if rel > max_rel:
                max_rel = rel
                worst = (name, idx)
        per_param[name] = param_max
    return GradCheckReport(max_rel, max_rel <= tolerance, worst[0], worst[1], n_checked, per_param)


class TestDense:
    def test_identity_layer(self, rng):
        layer = Dense(3, 3, rng)
        layer.W[...] = np.eye(3)
        layer.b[...] = 0.0
        x = rng.normal(size=(5, 3))
        np.testing.assert_array_equal(layer.forward(x), x)

    def test_constant_layer(self, rng):
        layer = Dense(3, 2, rng)
        layer.W[...] = 0.0
        layer.b[...] = [1.5, -2.0]
        out = layer.forward(rng.normal(size=(4, 3)))
        np.testing.assert_array_equal(out, np.tile([1.5, -2.0], (4, 1)))

    def test_backward_matches_finite_differences(self, rng):
        # random 4x3 layer against the FD oracle, step 1e-3 as a smoke value
        layer = Dense(3, 4, rng)
        x = rng.normal(size=(6, 3))
        target = rng.normal(size=(6, 4))

        def loss():
            diff = layer.forward(x) - target
            return 0.5 * float((diff**2).sum())

        grad_out = layer.forward(x) - target
        grad_x, grad_W, grad_b = layer.backward(x, grad_out)
        for arr, analytic in ((layer.W, grad_W), (layer.b, grad_b)):
            numeric = fd_grad(loss, arr, h=1e-3)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-7)
        numeric_x = fd_grad(loss, x, h=1e-3)
        np.testing.assert_allclose(grad_x, numeric_x, rtol=1e-4, atol=1e-7)

    def test_shape_mismatch_rejected(self, rng):
        layer = Dense(3, 4, rng)
        with pytest.raises(ValueError):
            layer.forward(np.zeros((2, 5)))
        with pytest.raises(ValueError):
            layer.backward(np.zeros((2, 3)), np.zeros((2, 5)))

    def test_identity_input_matches_dense_identity(self, rng):
        # the fast path against the product with a materialised identity
        layer = Dense(7, 4, rng)
        layer.b[...] = rng.normal(size=4)
        eye = np.eye(7)
        np.testing.assert_array_equal(layer.forward(Identity(7)), layer.forward(eye))
        grad_out = rng.normal(size=(7, 4))
        _, grad_W, grad_b = layer.backward(Identity(7), grad_out)
        _, oracle_W, oracle_b = layer.backward(eye, grad_out)
        np.testing.assert_array_equal(grad_W, oracle_W)
        np.testing.assert_array_equal(grad_b, oracle_b)
        with pytest.raises(ValueError):
            layer.forward(Identity(6))

    @pytest.mark.parametrize("n, d, k", [(6, 3, 9), (2, 3, 9), (6, 1, 9), (6, 4, 3)])
    def test_low_rank_input_matches_the_product(self, rng, n, d, k):
        # the rank-d path against the layer applied to the materialised U @ V
        layer = Dense(k, 5, rng)
        layer.b[...] = rng.normal(size=5)
        U, V = rng.normal(size=(n, d)), rng.normal(size=(d, k))
        x = LowRank(U, V)
        assert x.shape == (n, k)
        grad_out = rng.normal(size=(n, 5))
        (grad_U, grad_V), grad_W, grad_b = layer.backward(x, grad_out)
        grad_X, oracle_W, oracle_b = layer.backward(U @ V, grad_out)
        pairs = [
            (layer.forward(x), layer.forward(U @ V)),
            (grad_W, oracle_W),
            (grad_b, oracle_b),
            (grad_U, grad_X @ V.T),
            (grad_V, U.T @ grad_X),
        ]
        for got, oracle in pairs:
            assert got.shape == oracle.shape
            assert np.abs(got - oracle).max() <= 1e-13 * np.abs(oracle).max()
        skipped, skipped_W, skipped_b = layer.backward(x, grad_out, input_grad=False)
        assert skipped is None
        np.testing.assert_array_equal(skipped_W, grad_W)
        np.testing.assert_array_equal(skipped_b, grad_b)
        with pytest.raises(ValueError):
            Dense(k + 1, 5, rng).forward(x)

    def test_low_rank_backward_reuses_the_forward_product(self, rng):
        # V @ W^T is formed once per input and weight array; no (n, k) array
        layer = Dense(9, 5, rng)
        x = LowRank(rng.normal(size=(6, 3)), rng.normal(size=(3, 9)))
        out = layer.forward(x)
        product = x.times(layer.W)
        assert product.shape == (3, 5)
        layer.backward(x, np.ones_like(out))
        assert x.times(layer.W) is product
        other = Dense(9, 5, rng)
        assert x.times(other.W) is not product
        np.testing.assert_array_equal(x.times(other.W), x.V @ other.W.T)

    def test_glorot_bounds_and_determinism(self):
        a = Dense(40, 30, np.random.default_rng(5))
        b = Dense(40, 30, np.random.default_rng(5))
        np.testing.assert_array_equal(a.W, b.W)
        limit = np.sqrt(6.0 / 70.0)
        assert np.all(np.abs(a.W) <= limit)


@st.composite
def multi_hot_rows(draw):
    """(k, rows): k in 1..50 and up to 8 index sets, with up to two empty
    rows before and after them."""
    k = draw(st.integers(1, 50))
    middle = draw(st.lists(st.sets(st.integers(0, k - 1), max_size=k), max_size=8))
    lead, trail = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    return k, [set()] * lead + middle + [set()] * trail


def as_multi_hot(rows, k):
    indptr = np.cumsum([0] + [len(r) for r in rows])
    return MultiHot(indptr, [i for r in rows for i in sorted(r)], k)


class TestMultiHot:
    @settings(max_examples=300, deadline=None)
    @given(case=multi_hot_rows(), out_dim=st.integers(1, 7), seed=st.integers(0, 2**32 - 1))
    @example(case=(6, []), out_dim=3, seed=0)  # no rows
    @example(case=(6, [{1, 4}]), out_dim=3, seed=0)  # one row
    @example(case=(50, [set(), {0, 49}, set(), set(range(50)), set()]), out_dim=3, seed=0)
    def test_forward_matches_the_dense_product(self, case, out_dim, seed):
        # the gather-sum path against the layer applied to the dense 0/1 rows
        k, rows = case
        rng = np.random.default_rng(seed)
        layer = Dense(k, out_dim, rng)
        layer.b[...] = rng.normal(size=out_dim)
        x = as_multi_hot(rows, k)
        assert len(x) == len(rows) and x.shape == (len(rows), k)
        dense = np.zeros((len(rows), k))
        for i, r in enumerate(rows):
            dense[i, sorted(r)] = 1.0
        np.testing.assert_array_equal(x.toarray(), dense)
        got, oracle = layer.forward(x), layer.forward(dense)
        assert got.shape == oracle.shape == (len(rows), out_dim)
        assert np.abs(got - oracle).max(initial=0.0) <= 1e-13 * np.abs(oracle).max(initial=0.0)

    def test_empty_row_gets_the_bias(self, rng):
        layer = Dense(6, 3, rng)
        layer.b[...] = rng.normal(size=3)
        out = layer.forward(as_multi_hot([set(), {2}, set()], 6))
        np.testing.assert_array_equal(out[[0, 2]], np.tile(layer.b, (2, 1)))
        np.testing.assert_array_equal(out[1], layer.W[:, 2] + layer.b)

    @pytest.mark.parametrize(
        "indptr, indices, message",
        [
            ([0, 2], [4, 1], "row 0 is not sorted: index 1 follows 4"),
            ([0, 1, 3], [0, 3, 3], "row 1 repeats: index 3 follows 3"),
            ([0, 1, 2], [2, 6], r"index 6 is outside \[0, 6\)"),
            ([0, 1], [-1], r"index -1 is outside \[0, 6\)"),
            ([0, 2, 1], [1, 2], "indptr must rise"),
            ([0, 1], [1, 2], "indptr must rise"),
        ],
    )
    def test_refuses_bad_indices(self, indptr, indices, message):
        with pytest.raises(ValueError, match=message):
            MultiHot(indptr, indices, 6)

    def test_a_fall_between_rows_is_allowed(self):
        x = MultiHot([0, 2, 3, 3, 5], [3, 5, 1, 0, 5], 6)
        np.testing.assert_array_equal(np.flatnonzero(x.toarray()[3]), [0, 5])

    def test_row_slices(self):
        rows = [{1}, set(), {0, 2, 5}, {4}, set()]
        x = as_multi_hot(rows, 6)
        dense = x.toarray()
        for sl in (slice(0, 2), slice(1, 4), slice(2, None), slice(4, 2), slice(None)):
            np.testing.assert_array_equal(x[sl].toarray(), dense[sl])
        with pytest.raises(ValueError, match="contiguous"):
            x[::2]

    def test_is_forward_only(self, rng):
        layer = Dense(6, 3, rng)
        x = as_multi_hot([{1}, {2, 3}], 6)
        with pytest.raises(TypeError, match="forward-only"):
            layer.backward(x, np.ones((2, 3)), input_grad=False)


class TestBatchNorm:
    def test_training_normalizes_batch(self, rng):
        bn = BatchNorm1d(4)
        # variance well above epsilon so the eps shift stays below tolerance
        x = rng.normal(loc=3.0, scale=12.0, size=(64, 4))
        out, _ = bn.forward(x)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.var(axis=0), 1.0, atol=1e-6)

    def test_forward_does_not_write_its_input(self, rng):
        bn = BatchNorm1d(4)
        x = rng.normal(size=(8, 4))
        copy = x.copy()
        x.flags.writeable = False
        bn.forward(x)
        np.testing.assert_array_equal(x, copy)

    def test_batch_of_one_rejected(self, rng):
        bn = BatchNorm1d(4)
        with pytest.raises(ValueError):
            bn.forward(rng.normal(size=(1, 4)))

    def test_backward_matches_finite_differences(self, rng):
        # the running statistics move on every call but do not enter the output
        bn = BatchNorm1d(3)
        bn.gamma[...] = rng.normal(size=3)
        bn.beta[...] = rng.normal(size=3)
        x = rng.normal(size=(7, 3))
        target = rng.normal(size=(7, 3))

        def loss():
            out, _ = bn.forward(x)
            return 0.5 * float(((out - target) ** 2).sum())

        out, cache = bn.forward(x)
        grad_x, grad_gamma, grad_beta = bn.backward(cache, out - target)
        np.testing.assert_allclose(grad_gamma, fd_grad(loss, bn.gamma), rtol=1e-5, atol=1e-8)
        np.testing.assert_allclose(grad_beta, fd_grad(loss, bn.beta), rtol=1e-5, atol=1e-8)
        np.testing.assert_allclose(grad_x, fd_grad(loss, x), rtol=1e-5, atol=1e-8)


class TestMLP:
    def test_backward_full_stack(self, rng):
        mlp = MLP(5, (8, 6), 2, rng, batchnorm=True, name="net")
        x = rng.normal(size=(9, 5))
        target = rng.normal(size=(9, 2))
        params = mlp.parameters()

        def loss_fn():
            out, caches = mlp.forward(x)
            diff = out - target
            loss = 0.5 * float((diff**2).sum())
            _, grads = mlp.backward(caches, diff)
            return loss, grads

        report = gradient_check(loss_fn, params, tolerance=1e-4, step=1e-5)
        assert report.passed, f"max rel err {report.max_rel_error} at {report.worst_param}"

    def test_backward_through_low_rank_input(self, rng):
        # the input's two factors are checked as parameters of the loss
        mlp = MLP(7, (8, 6), 2, rng, batchnorm=True, name="net")
        U, V = rng.normal(size=(9, 3)), rng.normal(size=(3, 7))
        target = rng.normal(size=(9, 2))
        params = {**mlp.parameters(), "U": U, "V": V}

        def loss_fn():
            out, caches = mlp.forward(LowRank(U, V))
            diff = out - target
            (grad_U, grad_V), grads = mlp.backward(caches, diff)
            return 0.5 * float((diff**2).sum()), {**grads, "U": grad_U, "V": grad_V}

        report = gradient_check(loss_fn, params, tolerance=1e-4, step=1e-5)
        assert report.passed, f"max rel err {report.max_rel_error} at {report.worst_param}"
        assert {"U", "V"} <= report.per_param.keys()

    @pytest.mark.parametrize("hidden", [(), (8, 6)])
    def test_backward_without_input_gradient(self, rng, hidden):
        mlp = MLP(5, hidden, 2, rng, batchnorm=True, name="net")
        out, caches = mlp.forward(rng.normal(size=(9, 5)))
        grad_out = rng.normal(size=out.shape)
        grad_x, full = mlp.backward(caches, grad_out)
        skipped_x, skipped = mlp.backward(caches, grad_out, input_grad=False)
        assert grad_x.shape == (9, 5) and skipped_x is None
        assert skipped.keys() == full.keys()
        for name, g in full.items():
            np.testing.assert_array_equal(skipped[name], g, err_msg=name)

    def test_load_state_takes_the_arrays(self, rng):
        source = MLP(5, (8,), 2, rng, batchnorm=True, name="net")
        state = {name: arr + 1.0 for name, arr in source.state_arrays().items()}
        target = MLP(5, (8,), 2, None, batchnorm=True, name="net")
        target.load_state(state)
        arrays = target.state_arrays()
        assert arrays.keys() == state.keys()
        assert all(arrays[name] is state[name] for name in state)

    def test_forward_bitwise_deterministic(self, rng):
        mlp = MLP(4, (8,), 3, rng)
        x = rng.normal(size=(5, 4))
        a, _ = mlp.forward(x)
        b, _ = mlp.forward(x)
        np.testing.assert_array_equal(a, b)


def nan_like(arrays):
    """Arrays shaped as `arrays`, all NaN, so a value read before it is
    written survives into the result."""
    return [np.full_like(a, np.nan) for a in arrays]


def assert_written(given, got, fresh):
    """`got` are the arrays `given`, each holding bit for bit its `fresh`
    counterpart, with no NaN left."""
    assert len(given) == len(got) == len(fresh)
    for o, g, f in zip(given, got, fresh):
        assert g is o
        assert g.shape == f.shape and g.tobytes() == f.tobytes()
        assert not np.isnan(g).any()


class TestOutArrays:
    """A backward pass given `out` writes its parameter gradients into it."""

    @pytest.mark.parametrize("form", ["dense", "low-rank", "identity"])
    def test_dense(self, rng, form):
        layer = Dense(12, 5, rng)
        x = Identity(12) if form == "identity" else stack_input(form, rng)
        grad_out = rng.normal(size=(x.shape[0], 5))
        fresh = layer.backward(x, grad_out)
        out = nan_like([layer.W, layer.b])
        got = layer.backward(x, grad_out, out=out)
        assert_written(out, got[1:], fresh[1:])
        for g, f in zip(got[0], fresh[0]) if form == "low-rank" else [(got[0], fresh[0])]:
            np.testing.assert_array_equal(g, f)

    def test_batchnorm(self, rng):
        bn = BatchNorm1d(4)
        bn.gamma[...] = rng.uniform(0.5, 2.0, 4)
        _, cache = bn.forward(rng.normal(size=(9, 4)))
        grad_out = rng.normal(size=(9, 4))
        fresh = bn.backward(cache, grad_out)
        out = nan_like([bn.gamma, bn.beta])
        got = bn.backward(cache, grad_out, out=out)
        assert_written(out, got[1:], fresh[1:])
        np.testing.assert_array_equal(got[0], fresh[0])

    @pytest.mark.parametrize("batchnorm", [False, True])
    def test_mlp(self, rng, batchnorm):
        mlp = MLP(5, (8, 6), 2, rng, batchnorm=batchnorm, name="net")
        y, caches = mlp.forward(rng.normal(size=(9, 5)))
        grad_out = rng.normal(size=y.shape)
        fresh_x, fresh = mlp.backward(caches, grad_out)
        names = list(mlp.parameters())
        out = dict(zip(names, nan_like(mlp.parameters().values())))
        other = out["other.0.W"] = np.full(3, np.nan)  # another stack's name is left alone
        got_x, got = mlp.backward(caches, grad_out, out=out)
        assert list(got) == list(fresh) and sorted(got) == sorted(names)
        assert_written([out[n] for n in got], list(got.values()), list(fresh.values()))
        np.testing.assert_array_equal(got_x, fresh_x)
        assert np.isnan(other).all()


INPUT_FORMS = ["dense", "multi-hot", "low-rank"]


def stack_input(form, rng, k=12):
    """Nine rows of width k as a dense array, a MultiHot (with an empty row) or
    a rank-3 LowRank."""
    if form == "dense":
        return rng.normal(size=(9, k))
    if form == "multi-hot":
        return as_multi_hot([set(rng.choice(k, size=s, replace=False)) for s in (0, 1, 2, 3, 4, 5, 6, 2, 1)], k)
    return LowRank(rng.normal(size=(9, 3)), rng.normal(size=(3, k)))


def input_arrays(x):
    """The arrays an input to a stack is made of."""
    if isinstance(x, MultiHot):
        return [x.indptr, x.indices]
    if isinstance(x, LowRank):
        return [x.U, x.V]
    return [x]


def batchnorm_stack(rng, k=12):
    """A batch-norm stack with drawn gamma, beta and running statistics."""
    mlp = MLP(k, (8, 6), 2, rng, batchnorm=True, name="net")
    with writing(mlp.parameters()):
        for bn in mlp.norms:
            bn.gamma[...] = rng.uniform(0.5, 2.0, bn.gamma.shape)
            bn.beta[...] = rng.normal(size=bn.beta.shape)
    for bn in mlp.norms:
        bn.running_mean[...] = rng.normal(scale=2.0, size=bn.running_mean.shape)
        bn.running_var[...] = rng.uniform(0.05, 4.0, bn.running_var.shape)
    return mlp


def inference_oracle(mlp, x):
    """Oracle for MLP.infer: the textbook inference pass, layer by layer.

    Each hidden layer is Dense.forward, then batch norm from the running
    statistics, (a - running_mean) / sqrt(running_var + eps) * gamma + beta,
    then ReLU.
    """
    h = x
    for i, layer in enumerate(mlp.layers[:-1]):
        a = layer.forward(h)
        if mlp.norms:
            bn = mlp.norms[i]
            a = (a - bn.running_mean) / np.sqrt(bn.running_var + bn.eps) * bn.gamma + bn.beta
        h = np.maximum(a, 0.0)
    return mlp.layers[-1].forward(h)


class TestInfer:
    """MLP.infer against `inference_oracle`."""

    @pytest.mark.parametrize("form", INPUT_FORMS)
    def test_bit_for_bit_without_batchnorm(self, rng, form):
        # the encoder and the decoder
        mlp = MLP(12, (8, 6), 3, rng)
        x = stack_input(form, rng)
        np.testing.assert_array_equal(mlp.infer(x), inference_oracle(mlp, x))

    @pytest.mark.parametrize("form", INPUT_FORMS)
    def test_batchnorm_within_rounding(self, rng, form):
        # the predictor: batch norm as one scale and one shift rounds differently
        mlp = batchnorm_stack(rng)
        x = stack_input(form, rng)
        expected = inference_oracle(mlp, x)
        assert np.abs(mlp.infer(x) - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_reads_the_running_statistics_live(self, rng):
        mlp = batchnorm_stack(rng)
        x = stack_input("dense", rng)
        before = mlp.infer(x)
        mlp.norms[0].running_mean += 1.0
        after = mlp.infer(x)
        assert np.abs(after - before).max() > 0
        expected = inference_oracle(mlp, x)
        assert np.abs(after - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("form", INPUT_FORMS)
    def test_writes_to_no_input_and_no_model_array(self, rng, form):
        mlp = batchnorm_stack(rng)
        x = stack_input(form, rng)
        arrays = [*input_arrays(x), *mlp.state_arrays().values()]
        copies = [a.copy() for a in arrays]
        for a in arrays:  # a write to any of them raises
            a.flags.writeable = False
        mlp.infer(x)
        for a, copy in zip(arrays, copies):
            np.testing.assert_array_equal(a, copy)


class TestAdam:
    def test_zero_gradient_is_noop(self, rng):
        params = {"w": rng.normal(size=(3, 3))}
        before = params["w"].copy()
        adam = Adam(params, lr=0.1)
        adam.step({"w": np.zeros((3, 3))})
        np.testing.assert_array_equal(params["w"], before)
        assert adam.step_count == 1

    def test_descends_against_constant_gradient(self):
        params = {"w": np.array([0.0])}
        adam = Adam(params, lr=0.01)
        for _ in range(50):
            adam.step({"w": np.array([2.5])})
        assert params["w"][0] < 0.0

    def test_first_step_is_signed_lr(self):
        # closed form: m_hat = g, v_hat = g^2 -> update = -lr * g / (|g| + eps)
        for g in (3.0, -0.4, 1e-3):
            params = {"w": np.array([1.0])}
            adam = Adam(params, lr=0.05)
            adam.step({"w": np.array([g])})
            expected = 1.0 - 0.05 * g / (abs(g) + 1e-8)
            assert params["w"][0] == pytest.approx(expected, rel=1e-12)

    def test_blocks_match_the_textbook_formula(self, rng):
        # 3 * 2**15 + 7 = 17 * 5783 elements: three full blocks and a partial
        # one; read-only like an MLP's arrays, with a transposed-view gradient
        shape = (17, 5783)
        assert shape[0] * shape[1] == 3 * Adam.block + 7
        params = {"w": rng.normal(size=shape), "b": rng.normal(size=5)}
        for a in params.values():
            a.flags.writeable = False
        ref = {name: a.copy() for name, a in params.items()}
        ref_m = {name: np.zeros_like(a) for name, a in ref.items()}
        ref_v = {name: np.zeros_like(a) for name, a in ref.items()}
        adam = Adam(params, lr=1e-2)
        b1, b2, lr, eps = adam.beta1, adam.beta2, adam.lr, adam.eps
        for t in range(1, 6):
            grads = {"w": rng.normal(size=shape[::-1]).T, "b": rng.normal(size=5)}
            assert not grads["w"].flags.c_contiguous
            adam.step(grads)
            bc1, bc2 = 1.0 - b1**t, 1.0 - b2**t
            for name, g in grads.items():
                p, mo, v = ref[name], ref_m[name], ref_v[name]
                mo += (1.0 - b1) * (g - mo)
                v += (1.0 - b2) * (g * g - v)
                p -= lr * (mo / bc1) / (np.sqrt(v / bc2) + eps)
        for name in ref:
            np.testing.assert_array_equal(params[name], ref[name], err_msg=name)
            np.testing.assert_array_equal(adam.m[name], ref_m[name], err_msg=name)
            np.testing.assert_array_equal(adam.v[name], ref_v[name], err_msg=name)
            assert not params[name].flags.writeable

    def test_non_contiguous_parameter_refused(self, rng):
        # its flat view would be a copy, and the update would be lost
        with pytest.raises(ValueError, match="'w' is not"):
            Adam({"b": np.zeros(3), "w": rng.normal(size=(6, 4)).T})


class TestGradientCheck:
    def test_quadratic_loss_exact(self, rng):
        params = {"p": rng.normal(size=6)}

        def loss_fn():
            return 0.5 * float((params["p"] ** 2).sum()), {"p": params["p"].copy()}

        report = gradient_check(loss_fn, params, tolerance=1e-6)
        assert report.passed
        assert isinstance(report, GradCheckReport)

    def test_corrupted_gradient_detected(self, rng):
        params = {"p": rng.normal(size=6)}

        def loss_fn():
            return 0.5 * float((params["p"] ** 2).sum()), {"p": 1.25 * params["p"]}

        report = gradient_check(loss_fn, params, tolerance=1e-4)
        assert not report.passed

    def test_nonfinite_loss_rejected(self):
        params = {"p": np.array([1.0])}

        def loss_fn():
            return float("nan"), {"p": np.array([0.0])}

        with pytest.raises(ValueError):
            gradient_check(loss_fn, params)


def test_relu_and_sigmoid_basics():
    # an identity stack shows its hidden ReLU, in the training and the inference pass
    mlp = MLP(3, (3,), 3, None)
    with writing(mlp.parameters()):
        for layer in mlp.layers:
            layer.W[...] = np.eye(3)
    x = np.array([[-2.0, 0.0, 3.0]])
    np.testing.assert_array_equal(mlp.forward(x)[0], [[0.0, 0.0, 3.0]])
    np.testing.assert_array_equal(mlp.infer(x), [[0.0, 0.0, 3.0]])
    assert sigmoid(0.0) == 0.5
    assert 0.0 < sigmoid(-30.0) < 1e-12 or sigmoid(-30.0) >= 0.0
    np.testing.assert_allclose(sigmoid(np.array([50.0])), 1.0)
