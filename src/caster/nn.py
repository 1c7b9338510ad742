"""Minimal dense-network building blocks on numpy.

Hand-written forward/backward passes for affine layers, ReLU, sigmoid and
1-D batch normalization, plus a bias-corrected Adam optimizer.  Forward
passes train (batch norm moves its running statistics) and pass their
caches explicitly, so one layer can be applied to several inputs within
one step; `MLP.infer`, which scoring uses, keeps none.  Backward passes
take numpy's `out=` convention for their parameter gradients, so a
training loop can write each step's into the last one's.  An affine layer
also takes three inputs that stand for matrices it never builds:
`Identity` (the n x n identity), `LowRank` (a product U @ V of rank d) and,
forward only, `MultiHot` (0/1 rows held as their index lists).  Double
precision throughout.  The central-finite-difference gradient checker that
verifies these passes lives in the tests (`tests/test_nn.py`).

An MLP's trainable arrays are read-only.  They change only inside
`writing`, which stamps the stack with a new generation, so whatever is
derived from a stack can be kept until its generation moves.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from contextlib import contextmanager

import numpy as np
from scipy.special import expit as sigmoid  # numerically stable logistic


def glorot_uniform(out_dim: int, in_dim: int, rng: np.random.Generator) -> np.ndarray:
    limit = math.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform(-limit, limit, size=(out_dim, in_dim))


# stamps for MLP.generation, unique across all stacks of the process
_generations = itertools.count(1)


class Parameters(dict):
    """Named arrays (views, not copies) and the stacks that own them."""

    def __init__(self, arrays: Mapping[str, np.ndarray], owners: tuple):
        super().__init__(arrays)
        self.owners = owners


@contextmanager
def writing(arrays: Mapping[str, np.ndarray]):
    """The one way to write parameter arrays in place.

    Makes `arrays` writable for the block.  On leaving it, each array gets
    its write flag back, and each owner (`Parameters.owners`; a plain
    mapping has none) takes a new generation and freezes its trainable
    arrays again, including arrays it adopted inside the block.
    """
    targets = list(arrays.values())
    flags = [a.flags.writeable for a in targets]
    for a in targets:
        a.flags.writeable = True
    try:
        yield
    finally:
        for a, flag in zip(targets, flags):
            a.flags.writeable = flag
        stamp = next(_generations)
        for owner in getattr(arrays, "owners", ()):
            owner.generation = stamp
            owner.freeze()


class Identity:
    """The n x n identity matrix as a Dense input, never materialised.

    Dense maps it to W^T + b and takes grad_out^T as its weight gradient:
    the values an n x n product would give, without the product.
    """

    ndim = 2
    # bytes per element of the matrix it stands for, as on an ndarray
    itemsize = np.dtype(np.float64).itemsize

    def __init__(self, n: int):
        self.shape = (n, n)


class LowRank:
    """The n x k product U @ V of U (n, d) and V (d, k) as a Dense input,
    never materialised.

    Dense maps it to U (V W^T) + b, takes (grad_out^T U) V as its weight
    gradient and returns its input gradient as the pair (grad_U, grad_V):
    the values the n x k product would give, at rank-d cost.
    """

    ndim = 2

    def __init__(self, U: np.ndarray, V: np.ndarray):
        self.U = U
        self.V = V
        self.shape = (U.shape[0], V.shape[1])
        self._VWt = (None, None)

    def times(self, W: np.ndarray) -> np.ndarray:
        """V @ W^T, formed on the first call for the weight array W, so a
        layer's forward and backward passes share one product."""
        if self._VWt[0] is not W:
            self._VWt = (W, self.V @ W.T)
        return self._VWt[1]


class MultiHot:
    """An n x k batch of 0/1 rows as CSR index lists, a forward-only Dense
    input.

    Row i has ones at `indices[indptr[i]:indptr[i + 1]]`, which must be
    strictly increasing and inside [0, k).  Dense maps it to the sum of
    the rows of W^T at each row's indices, plus b: the values the dense
    product gives, reading only those columns of W.
    """

    ndim = 2

    def __init__(self, indptr, indices, k: int):
        indptr = np.asarray(indptr, dtype=np.intp)
        indices = np.asarray(indices, dtype=np.intp)
        if indptr.ndim != 1 or indices.ndim != 1 or len(indptr) == 0:
            raise ValueError("indptr and indices must be 1-D, with indptr holding at least one offset")
        # slicing and array methods: np.diff and np.any cost microseconds
        # each, and explain_pair builds one of these per call
        if indptr[0] != 0 or indptr[-1] != len(indices) or (indptr[1:] < indptr[:-1]).any():
            raise ValueError(f"indptr must rise from 0 to len(indices) = {len(indices)}")
        if len(indices) and (indices.min() < 0 or indices.max() >= k):
            raise ValueError(f"index {indices[(indices < 0) | (indices >= k)][0]} is outside [0, {k})")
        step = indices[1:] - indices[:-1]
        bad = (step <= 0).nonzero()[0]
        if len(bad):
            bad = bad[~np.isin(bad + 1, indptr)]  # a step into the next row may fall
        if len(bad):
            i = bad[0]
            row = np.searchsorted(indptr, i, side="right") - 1
            kind = "repeats" if step[i] == 0 else "is not sorted"
            raise ValueError(f"row {row} {kind}: index {indices[i + 1]} follows {indices[i]}")
        self.indptr = indptr
        self.indices = indices
        self.shape = (len(indptr) - 1, k)

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, rows: slice) -> "MultiHot":
        start, stop, step = rows.indices(len(self))
        if step != 1:
            raise ValueError("a MultiHot takes only contiguous row slices")
        ptr = self.indptr[start : max(start, stop) + 1]
        return MultiHot(ptr - ptr[0], self.indices[ptr[0] : ptr[-1]], self.shape[1])

    def toarray(self) -> np.ndarray:
        """The dense (n, k) float64 array of the rows."""
        x = np.zeros(self.shape)
        x[np.repeat(np.arange(len(self)), np.diff(self.indptr)), self.indices] = 1.0
        return x


class Dense:
    """Affine map y = x W^T + b for row-major batches."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator | None):
        """Glorot-uniform weights drawn from `rng`; with rng None, W is left
        uninitialised for a caller that assigns it."""
        if rng is None:
            self.W = np.empty((out_dim, in_dim))
        else:
            self.W = glorot_uniform(out_dim, in_dim, rng)
        self.b = np.zeros(out_dim)

    @property
    def in_dim(self) -> int:
        return self.W.shape[1]

    @property
    def out_dim(self) -> int:
        return self.W.shape[0]

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ValueError(f"expected input of shape (n, {self.in_dim}), got {x.shape}")
        if isinstance(x, Identity):
            return np.add(self.W.T, self.b, order="C")
        if isinstance(x, MultiHot):
            # gather the rows of W^T, then sum each non-empty row's segment
            y = np.tile(self.b, (x.shape[0], 1))
            filled = (x.indptr[1:] > x.indptr[:-1]).nonzero()[0]
            if len(filled):
                y[filled] += np.add.reduceat(self.W.T[x.indices], x.indptr[filled], axis=0)
            return y
        y = x.U @ x.times(self.W) if isinstance(x, LowRank) else x @ self.W.T
        y += self.b  # into the product: no second (n, out) array
        return y

    def backward(self, x: np.ndarray, grad_out: np.ndarray, input_grad: bool = True, out=None):
        """Gradients for the cached input `x`; returns (grad_x, grad_W, grad_b).

        grad_x is None when `input_grad` is False, and the pair
        (grad_U, grad_V) for a LowRank input.  `out`, a pair of arrays shaped
        as W and b, takes grad_W and grad_b in place of new arrays; the
        values are the same bit for bit.
        """
        if grad_out.shape != (x.shape[0], self.out_dim):
            raise ValueError(f"upstream gradient shape {grad_out.shape} does not match output")
        if isinstance(x, MultiHot):
            raise TypeError("a MultiHot input is forward-only; train on the dense array")
        grad_W, grad_b = (None, None) if out is None else out
        if isinstance(x, LowRank):
            grad_x = (grad_out @ x.times(self.W).T, (x.U.T @ grad_out) @ self.W) if input_grad else None
            grad_W = np.matmul(grad_out.T @ x.U, x.V, out=grad_W)
        else:
            grad_x = grad_out @ self.W if input_grad else None
            if not isinstance(x, Identity):
                grad_W = np.matmul(grad_out.T, x, out=grad_W)
            else:  # a view of grad_out, or its copy into out
                grad_W = grad_out.T if grad_W is None else np.positive(grad_out.T, out=grad_W)
        return grad_x, grad_W, grad_out.sum(axis=0, out=grad_b)


class BatchNorm1d:
    """Per-feature normalization over the batch, moving the running
    statistics; `scale_shift` is inference mode, the affine map they define."""

    momentum = 0.1
    eps = 1e-5

    def __init__(self, dim: int):
        self.gamma = np.ones(dim)
        self.beta = np.zeros(dim)
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)

    def forward(self, x: np.ndarray):
        if x.shape[0] < 2:
            raise ValueError("batch normalization needs batch size >= 2")
        mean = x.mean(axis=0)
        var = x.var(axis=0)  # biased, matches the normalization below
        inv = 1.0 / np.sqrt(var + self.eps)
        xhat = x - mean
        xhat *= inv
        self.running_mean += self.momentum * (mean - self.running_mean)
        self.running_var += self.momentum * (var - self.running_var)
        y = self.gamma * xhat
        y += self.beta
        return y, (xhat, inv)

    def scale_shift(self) -> tuple[np.ndarray, np.ndarray]:
        """Inference mode as x s + c, from the arrays as they are now."""
        s = self.gamma / np.sqrt(self.running_var + self.eps)
        return s, self.beta - self.running_mean * s

    def backward(self, cache, grad_out: np.ndarray, out=None):
        """Returns (grad_x, grad_gamma, grad_beta) for the cached forward call;
        `out`, a pair of arrays shaped as gamma and beta, takes grad_gamma and
        grad_beta in place of new arrays."""
        xhat, inv = cache
        grad_gamma, grad_beta = (None, None) if out is None else out
        grad_gamma = (grad_out * xhat).sum(axis=0, out=grad_gamma)
        grad_beta = grad_out.sum(axis=0, out=grad_beta)
        dxhat = grad_out * self.gamma
        # (inv / n) (n dxhat - sum(dxhat) - xhat sum(dxhat xhat)), term by
        # term into dxhat, with one scratch array for the two products by xhat
        n = xhat.shape[0]
        scratch = dxhat * xhat
        total, weighted = dxhat.sum(axis=0), scratch.sum(axis=0)
        dxhat *= n
        dxhat -= total
        dxhat -= np.multiply(xhat, weighted, out=scratch)
        dxhat *= inv / n
        return dxhat, grad_gamma, grad_beta


class MLP:
    """Dense stack with ReLU hidden units, optional batch norm, linear output.

    Its trainable arrays are read-only outside `writing`.
    """

    def __init__(
        self,
        in_dim: int,
        hidden: tuple[int, ...],
        out_dim: int,
        rng: np.random.Generator | None,
        batchnorm: bool = False,
        name: str = "mlp",
    ):
        dims = [in_dim, *hidden, out_dim]
        self.name = name
        self.layers = [Dense(dims[i], dims[i + 1], rng) for i in range(len(dims) - 1)]
        self.norms = [BatchNorm1d(h) for h in hidden] if batchnorm else None
        self.generation = next(_generations)
        self.freeze()

    def freeze(self) -> None:
        """Make the trainable arrays read-only; running statistics stay
        writable, because training updates them in place."""
        for a in self.parameters().values():
            a.flags.writeable = False

    def parameters(self) -> Parameters:
        """Trainable arrays, keyed by stable names (views, not copies)."""
        params: dict[str, np.ndarray] = {}
        for i, layer in enumerate(self.layers):
            params[f"{self.name}.{i}.W"] = layer.W
            params[f"{self.name}.{i}.b"] = layer.b
        if self.norms:
            for i, bn in enumerate(self.norms):
                params[f"{self.name}.{i}.bn.gamma"] = bn.gamma
                params[f"{self.name}.{i}.bn.beta"] = bn.beta
        return Parameters(params, (self,))

    def state_arrays(self) -> Parameters:
        """Trainable parameters plus non-trainable running statistics."""
        arrays = self.parameters()
        if self.norms:
            for i, bn in enumerate(self.norms):
                arrays[f"{self.name}.{i}.bn.running_mean"] = bn.running_mean
                arrays[f"{self.name}.{i}.bn.running_var"] = bn.running_var
        return arrays

    @staticmethod
    def state_shapes(in_dim: int, hidden: tuple[int, ...], out_dim: int, batchnorm: bool = False,
                     name: str = "mlp") -> dict[str, tuple[int, ...]]:
        """The name and shape of each array `state_arrays` gives for an MLP
        of these sizes, found without allocating any."""
        dims = [in_dim, *hidden, out_dim]
        shapes = {}
        for i in range(len(dims) - 1):
            shapes[f"{name}.{i}.W"] = (dims[i + 1], dims[i])
            shapes[f"{name}.{i}.b"] = (dims[i + 1],)
        for i, h in enumerate(hidden if batchnorm else ()):
            for attr in ("gamma", "beta", "running_mean", "running_var"):
                shapes[f"{name}.{i}.bn.{attr}"] = (h,)
        return shapes

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        """Take `arrays[name]` for each name `state_arrays` lists, without
        copying, and freeze the trainable ones."""
        with writing(self.state_arrays()):
            for i, layer in enumerate(self.layers):
                layer.W = arrays[f"{self.name}.{i}.W"]
                layer.b = arrays[f"{self.name}.{i}.b"]
            for i, bn in enumerate(self.norms or ()):
                for attr in ("gamma", "beta", "running_mean", "running_var"):
                    setattr(bn, attr, arrays[f"{self.name}.{i}.bn.{attr}"])

    def forward(self, x: np.ndarray):
        """The training pass: batch norm reads the batch's statistics and
        moves its running ones.  Returns (output, caches) for `backward`.

        caches[i] is (input, batch-norm cache, output) of hidden layer i, the
        output after its ReLU, which is the next layer's input.
        """
        caches = []
        h = x
        for i, layer in enumerate(self.layers[:-1]):
            a = layer.forward(h)
            bn_cache = None
            if self.norms:
                a, bn_cache = self.norms[i].forward(a)
            np.maximum(a, 0.0, out=a)
            caches.append((h, bn_cache, a))
            h = a
        caches.append(h)
        return self.layers[-1].forward(h), caches

    def infer(self, x: np.ndarray) -> np.ndarray:
        """The inference pass, with no caches: each hidden product takes
        batch norm as `scale_shift`'s scale and shift, and the ReLU, in
        place.  Bit for bit `forward`'s output without batch norm.  Writes
        to no array it is given or the stack holds.
        """
        h = x
        for i, layer in enumerate(self.layers[:-1]):
            h = layer.forward(h)
            if self.norms:
                s, c = self.norms[i].scale_shift()
                h *= s
                h += c
            np.maximum(h, 0.0, out=h)
        return self.layers[-1].forward(h)

    def backward(self, caches, grad_out: np.ndarray, input_grad: bool = True, out=None):
        """Returns (grad_input, grads) for the forward call that built `caches`.

        With `input_grad` False the first layer skips its input gradient and
        grad_input is None; for a LowRank input it is the pair (grad_U, grad_V).
        `out`, a mapping that holds an array for each name `parameters` lists
        (other names are ignored), takes the gradients in place of new
        arrays: grads then holds those arrays.
        """

        def into(i: int, a: str, b: str):
            return None if out is None else (out[f"{self.name}.{i}.{a}"], out[f"{self.name}.{i}.{b}"])

        grads: dict[str, np.ndarray] = {}
        h_last = caches[-1]
        last = len(self.layers) - 1
        g, gW, gb = self.layers[-1].backward(h_last, grad_out, input_grad or last > 0, out=into(last, "W", "b"))
        grads[f"{self.name}.{last}.W"] = gW
        grads[f"{self.name}.{last}.b"] = gb
        for i in range(last - 1, -1, -1):
            x_in, bn_cache, h_out = caches[i]
            g *= h_out > 0  # h_out > 0 exactly where its input to the ReLU is
            if self.norms:
                g, ggamma, gbeta = self.norms[i].backward(bn_cache, g, out=into(i, "bn.gamma", "bn.beta"))
                grads[f"{self.name}.{i}.bn.gamma"] = ggamma
                grads[f"{self.name}.{i}.bn.beta"] = gbeta
            g, gW, gb = self.layers[i].backward(x_in, g, input_grad or i > 0, out=into(i, "W", "b"))
            grads[f"{self.name}.{i}.W"] = gW
            grads[f"{self.name}.{i}.b"] = gb
        return g, grads


class Adam:
    """Bias-corrected Adam over a dict of named parameter arrays, updated in
    place through `writing`.  The parameters must be C-contiguous."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8
    # elements per slice of an update: its operands and scratch stay in cache
    block = 1 << 15

    def __init__(self, params: dict[str, np.ndarray], lr: float = 1e-3):
        for name, p in params.items():
            if not p.flags.c_contiguous:
                raise ValueError(f"Adam updates C-contiguous parameters in place; {name!r} is not")
        self.params = params
        self.lr = lr
        self.step_count = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        """One update, bit for bit the textbook expressions

            m += (1 - beta1) * (g - m)
            v += (1 - beta2) * (g * g - v)
            p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)

        evaluated in the same order, one slice of `block` elements at a
        time, into two block-sized scratch arrays.  The scratch is freed on
        return: kept between steps, it would add to the memory peak of the
        next training step.  A non-contiguous gradient is copied once.
        """
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        size = min(self.block, max((g.size for g in grads.values()), default=0))
        scratch = (np.empty(size), np.empty(size))

        with writing(self.params):
            for name, g in grads.items():
                # flat views, taken here: a view taken outside `writing` stays read-only
                p = self.params[name].reshape(-1)
                m = self.m[name].reshape(-1)
                v = self.v[name].reshape(-1)
                g = np.ascontiguousarray(g).reshape(-1)
                for lo in range(0, p.size, self.block):
                    hi = min(lo + self.block, p.size)
                    gs, ms, vs = g[lo:hi], m[lo:hi], v[lo:hi]
                    a, b = scratch[0][: hi - lo], scratch[1][: hi - lo]
                    np.subtract(gs, ms, out=a)
                    np.multiply(1.0 - self.beta1, a, out=a)
                    ms += a
                    np.multiply(gs, gs, out=a)
                    np.subtract(a, vs, out=a)
                    np.multiply(1.0 - self.beta2, a, out=a)
                    vs += a
                    np.divide(ms, bc1, out=a)
                    np.multiply(self.lr, a, out=a)
                    np.divide(vs, bc2, out=b)
                    np.sqrt(b, out=b)
                    np.add(b, self.eps, out=b)
                    np.divide(a, b, out=a)
                    p[lo:hi] -= a
