"""Dense numeric substrate: BEV feature maps, small MLPs, 2D convolution and
symmetric max aggregation, each with analytic gradients, plus a central
finite-difference gradient checker.

Everything runs in float64. All operations are pure: inputs are never
mutated, identical inputs produce bit-identical outputs, and values can be
shared across threads after construction.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import EmptyGroupError, EvaluationError, ShapeError

try:
    # Multi-threaded BLAS reductions are not bit-stable across thread counts;
    # the determinism contract (identical outputs regardless of threads)
    # requires pinning BLAS to one thread for the process.
    import threadpoolctl

    _BLAS_PIN = threadpoolctl.threadpool_limits(limits=1, user_api="blas")
except ImportError:   # pragma: no cover - the dependency is declared
    _BLAS_PIN = None

Array = np.ndarray


def relu(x: Array) -> Array:
    return np.maximum(x, 0.0)


def sigmoid(x: Array) -> Array:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class FeatureMap:
    """Dense C x H x W activation grid, row-major with C the slowest axis.

    The backing array is frozen at construction; every operation returns a
    new map.
    """

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.array(data, dtype=np.float64, order="C")
        self._adopt(arr)

    def _adopt(self, arr: np.ndarray) -> None:
        if arr.ndim != 3:
            raise ShapeError(f"feature map must be 3-d (C,H,W), got ndim={arr.ndim}")
        if not np.all(np.isfinite(arr)):
            raise EvaluationError("feature map contains non-finite values")
        arr.flags.writeable = False
        self.data = arr

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "FeatureMap":
        """Adopt a freshly allocated float64 C-array without copying."""
        m = cls.__new__(cls)
        m._adopt(np.ascontiguousarray(arr, dtype=np.float64))
        return m

    @classmethod
    def zeros(cls, channels: int, height: int, width: int) -> "FeatureMap":
        return cls._wrap(np.zeros((channels, height, width)))

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def __eq__(self, other) -> bool:
        return isinstance(other, FeatureMap) and np.array_equal(self.data, other.data)

    def __repr__(self) -> str:
        return f"FeatureMap(C={self.channels}, H={self.height}, W={self.width})"


@dataclass
class MlpParams:
    """Stack of affine layers with a rectifier between them.

    Hidden layers are always rectified; the last layer is rectified only when
    ``rectify_last`` is set.
    """

    layers: list  # list of (weight out x in, bias out)
    rectify_last: bool = False

    def __post_init__(self):
        if not self.layers:
            raise ShapeError("MLP needs at least one layer")
        self.layers = [(np.asarray(w, dtype=np.float64), np.asarray(b, dtype=np.float64))
                       for w, b in self.layers]
        for k, (w, b) in enumerate(self.layers):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ShapeError(f"layer {k}: weight {w.shape} / bias {b.shape} mismatch")
            if k > 0 and w.shape[1] != self.layers[k - 1][0].shape[0]:
                raise ShapeError(
                    f"layer {k}: input dim {w.shape[1]} != layer {k-1} output dim "
                    f"{self.layers[k - 1][0].shape[0]}")

    @classmethod
    def init(cls, dims: Sequence[int], rng: np.random.Generator,
             rectify_last: bool = False) -> "MlpParams":
        """Seeded init, uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)].

        ``dims`` is (in, hidden..., out).
        """
        layers = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            w = rng.uniform(-bound, bound, size=(fan_out, fan_in))
            b = rng.uniform(-bound, bound, size=fan_out)
            layers.append((w, b))
        return cls(layers, rectify_last=rectify_last)

    @property
    def in_dim(self) -> int:
        return self.layers[0][0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.layers[-1][0].shape[0]

    def to_vector(self) -> Array:
        return np.concatenate([np.concatenate([w.ravel(), b]) for w, b in self.layers])

    def from_vector(self, vec: Array) -> "MlpParams":
        """New params with the same shapes, values taken from ``vec``."""
        out, k = [], 0
        for w, b in self.layers:
            nw, nb = w.size, b.size
            out.append((vec[k:k + nw].reshape(w.shape), vec[k + nw:k + nw + nb].copy()))
            k += nw + nb
        if k != vec.size:
            raise ShapeError(f"parameter vector has {vec.size} entries, expected {k}")
        return MlpParams(out, rectify_last=self.rectify_last)


def mlp_forward(x, p: MlpParams) -> Array:
    """Evaluate the MLP on a single input vector."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 1 or a.shape[0] != p.in_dim:
        raise ShapeError(f"MLP input has shape {a.shape}, expected ({p.in_dim},)")
    last = len(p.layers) - 1
    for k, (w, b) in enumerate(p.layers):
        a = w @ a + b
        if k < last or p.rectify_last:
            a = relu(a)
    return a


def mlp_forward_batch(xs: Array, p: MlpParams) -> Array:
    """Row-wise forward for an (n, in_dim) batch.

    Not bit-identical to per-row ``mlp_forward``: BLAS may block and order a
    GEMM's reductions differently from a matrix-vector product, and a row's
    last bits may depend on its position in the batch. What holds is that
    the result is a pure function of the input array (values and shape), so
    identical batches give identical bits."""
    a = np.asarray(xs, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != p.in_dim:
        raise ShapeError(f"MLP batch input has shape {a.shape}, expected (n, {p.in_dim})")
    last = len(p.layers) - 1
    for k, (w, b) in enumerate(p.layers):
        a = a @ w.T + b
        if k < last or p.rectify_last:
            a = relu(a)
    return a


def mlp_backward(x, p: MlpParams, grad_out: Array):
    """Gradients of ``grad_out . mlp_forward(x, p)`` w.r.t. x and all layers.

    Returns (grad_x, [(grad_w, grad_b), ...]).
    """
    a = np.asarray(x, dtype=np.float64)
    acts = [a]
    pre = []
    last = len(p.layers) - 1
    for k, (w, b) in enumerate(p.layers):
        z = w @ acts[-1] + b
        pre.append(z)
        acts.append(relu(z) if (k < last or p.rectify_last) else z)
    g = np.asarray(grad_out, dtype=np.float64)
    grads = [None] * len(p.layers)
    for k in range(last, -1, -1):
        if k < last or p.rectify_last:
            g = g * (pre[k] > 0)
        w, _ = p.layers[k]
        grads[k] = (np.outer(g, acts[k]), g.copy())
        g = w.T @ g
    return g, grads


@dataclass
class Conv2dParams:
    """Plain 2D cross-correlation layer: out x in x kH x kW kernel, zero
    padding, symmetric stride."""

    kernel: Array
    bias: Array
    stride: int = 1
    padding: int = 0

    def __post_init__(self):
        self.kernel = np.asarray(self.kernel, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.kernel.ndim != 4:
            raise ShapeError(f"conv kernel must be 4-d, got {self.kernel.shape}")
        if self.bias.shape != (self.kernel.shape[0],):
            raise ShapeError(
                f"conv bias shape {self.bias.shape} != ({self.kernel.shape[0]},)")
        if self.stride < 1 or self.padding < 0:
            raise ShapeError(f"stride {self.stride} / padding {self.padding} invalid")

    @classmethod
    def init(cls, in_channels: int, out_channels: int, kernel_size: int,
             rng: np.random.Generator, stride: int = 1, padding: int = 0) -> "Conv2dParams":
        fan_in = in_channels * kernel_size * kernel_size
        bound = 1.0 / np.sqrt(fan_in)
        kernel = rng.uniform(-bound, bound,
                             size=(out_channels, in_channels, kernel_size, kernel_size))
        bias = rng.uniform(-bound, bound, size=out_channels)
        return cls(kernel, bias, stride=stride, padding=padding)

    def out_hw(self, height: int, width: int) -> tuple:
        kh, kw = self.kernel.shape[2], self.kernel.shape[3]
        oh = (height + 2 * self.padding - kh) // self.stride + 1
        ow = (width + 2 * self.padding - kw) // self.stride + 1
        return oh, ow

    def to_vector(self) -> Array:
        return np.concatenate([self.kernel.ravel(), self.bias])

    def from_vector(self, vec: Array) -> "Conv2dParams":
        nk = self.kernel.size
        if vec.size != nk + self.bias.size:
            raise ShapeError(f"parameter vector has {vec.size} entries, "
                             f"expected {nk + self.bias.size}")
        return Conv2dParams(vec[:nk].reshape(self.kernel.shape), vec[nk:].copy(),
                            stride=self.stride, padding=self.padding)


_CONV_CHUNK_FLOATS = 4_000_000   # im2col buffer cap, ~32 MB of float64


def _conv_windows(padded: Array, kh: int, kw: int, stride: int) -> Array:
    """(C, OH, OW, kh, kw) view of all receptive fields."""
    sw = np.lib.stride_tricks.sliding_window_view(padded, (kh, kw), axis=(1, 2))
    return sw[:, ::stride, ::stride]


def _row_chunks(oh: int, ow: int, patch: int):
    rows = max(1, _CONV_CHUNK_FLOATS // max(1, patch * ow))
    for y0 in range(0, oh, rows):
        yield y0, min(oh, y0 + rows)


def _conv2d_raw(data: Array, p: Conv2dParams) -> Array:
    cin, h, w = data.shape
    cout, kin, kh, kw = p.kernel.shape
    if cin != kin:
        raise ShapeError(f"conv input has {cin} channels, kernel expects {kin}")
    oh, ow = p.out_hw(h, w)
    if oh < 1 or ow < 1:
        raise ShapeError(f"degenerate conv output {oh}x{ow} for input {h}x{w}")
    padded = np.pad(data, ((0, 0), (p.padding, p.padding), (p.padding, p.padding)))
    # Strategy is a pure function of the shapes, so identical inputs always
    # take the same arithmetic path.
    if kh == 1 and kw == 1:
        sl = padded[:, :oh * p.stride:p.stride, :ow * p.stride:p.stride]
        out = p.kernel.reshape(cout, cin) @ np.ascontiguousarray(sl).reshape(cin, -1)
    elif (cout * kh * kw <= 256 and cin >= 16
          and cout * kh * kw * padded.shape[1] * padded.shape[2] <= 6 * 10**7):
        # Few output taps, fat input: one GEMM against the whole padded map,
        # then gather the shifted tap planes. Reads the input exactly once.
        hp, wp = padded.shape[1], padded.shape[2]
        a = p.kernel.transpose(0, 2, 3, 1).reshape(cout * kh * kw, cin)
        taps = (a @ padded.reshape(cin, hp * wp)).reshape(cout, kh, kw, hp, wp)
        out3 = np.zeros((cout, oh, ow))
        for ky in range(kh):
            for kx in range(kw):
                out3 += taps[:, ky, kx,
                             ky:ky + oh * p.stride:p.stride,
                             kx:kx + ow * p.stride:p.stride]
        out = out3.reshape(cout, oh * ow)
    else:
        # im2col in row chunks -> one fat GEMM per chunk. Chunking splits
        # independent output columns, but BLAS may round a chunk's GEMM
        # differently from a whole-map one; the chunks are a function of the
        # shapes alone, so identical inputs still give identical bits.
        windows = _conv_windows(padded, kh, kw, p.stride)
        patch = cin * kh * kw
        wmat = p.kernel.reshape(cout, patch)
        out = np.empty((cout, oh * ow))
        for y0, y1 in _row_chunks(oh, ow, patch):
            cols = windows[:, y0:y1].transpose(0, 3, 4, 1, 2).reshape(patch, -1)
            out[:, y0 * ow:y1 * ow] = wmat @ cols
    out += p.bias[:, None]
    return out.reshape(cout, oh, ow)


def conv2d_forward(m: FeatureMap, p: Conv2dParams) -> FeatureMap:
    """Cross-correlation with zero padding (the usual 'conv' layer)."""
    return FeatureMap._wrap(_conv2d_raw(m.data, p))


def conv2d_backward(m: FeatureMap, p: Conv2dParams, grad_out: Array):
    """Gradients of ``sum(grad_out * conv2d_forward(m, p))``.

    Returns (grad_input (C,H,W), grad_kernel, grad_bias).
    """
    data = m.data
    cin, h, w = data.shape
    cout, _, kh, kw = p.kernel.shape
    oh, ow = p.out_hw(h, w)
    g = np.asarray(grad_out, dtype=np.float64)
    if g.shape != (cout, oh, ow):
        raise ShapeError(f"grad_out shape {g.shape} != {(cout, oh, ow)}")
    padded = np.pad(data, ((0, 0), (p.padding, p.padding), (p.padding, p.padding)))
    windows = _conv_windows(padded, kh, kw, p.stride)
    patch = cin * kh * kw
    wmat = p.kernel.reshape(cout, patch)
    gflat = g.reshape(cout, oh * ow)
    grad_kernel = np.zeros((cout, patch))
    grad_padded = np.zeros_like(padded)
    for y0, y1 in _row_chunks(oh, ow, patch):
        cols = windows[:, y0:y1].transpose(0, 3, 4, 1, 2).reshape(patch, -1)
        gchunk = gflat[:, y0 * ow:y1 * ow]
        grad_kernel += gchunk @ cols.T
        gcols = (wmat.T @ gchunk).reshape(cin, kh, kw, y1 - y0, ow)
        for ky in range(kh):
            for kx in range(kw):
                gp = grad_padded[:, y0 * p.stride + ky:
                                 y0 * p.stride + ky + (y1 - y0) * p.stride:p.stride,
                                 kx:kx + ow * p.stride:p.stride]
                gp += gcols[:, ky, kx]
    grad_bias = gflat.sum(axis=1)
    if p.padding:
        grad_in = grad_padded[:, p.padding:p.padding + h, p.padding:p.padding + w]
    else:
        grad_in = grad_padded
    return grad_in, grad_kernel.reshape(p.kernel.shape), grad_bias


def max_reduce(rows) -> Array:
    """Elementwise maximum over a non-empty collection of equal-length
    vectors; invariant under any permutation of the rows."""
    mat = np.asarray(list(rows), dtype=np.float64)
    if mat.size == 0 or mat.ndim != 2:
        raise EmptyGroupError("max_reduce needs at least one vector")
    return mat.max(axis=0)


def max_reduce_backward(rows, grad_out: Array) -> Array:
    """Subgradient of ``grad_out . max_reduce(rows)`` w.r.t. the stacked
    rows; ties route to the first row attaining the max."""
    mat = np.asarray(list(rows), dtype=np.float64)
    if mat.size == 0 or mat.ndim != 2:
        raise EmptyGroupError("max_reduce needs at least one vector")
    winners = mat.argmax(axis=0)
    grads = np.zeros_like(mat)
    grads[winners, np.arange(mat.shape[1])] = np.asarray(grad_out, dtype=np.float64)
    return grads


@dataclass
class GradReport:
    """Outcome of an analytic-vs-numeric gradient comparison."""

    max_abs_diff: float
    max_rel_diff: float
    passed: bool
    tolerance: float


def finite_diff_check(f: Callable[[Array], float],
                      grad: Callable[[Array], Array],
                      params: Array,
                      epsilon: float = 1e-3,
                      tol: float = 1e-3) -> GradReport:
    """Compare ``grad(params)`` against central differences of ``f``.

    Per-coordinate numeric gradient is (f(p+eps e_i) - f(p-eps e_i)) / 2 eps.
    Relative deviation is measured against max(|analytic|, |numeric|, 1e-6)
    so a uniformly scaled-up analytic gradient always fails.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    theta = np.asarray(params, dtype=np.float64).copy()
    f0 = float(f(theta))
    if not np.isfinite(f0):
        raise EvaluationError(f"objective is non-finite at the check point: {f0}")
    analytic = np.asarray(grad(theta), dtype=np.float64)
    if analytic.shape != theta.shape:
        raise ShapeError(f"gradient shape {analytic.shape} != params {theta.shape}")
    numeric = np.empty_like(theta)
    for i in range(theta.size):
        saved = theta[i]
        theta[i] = saved + epsilon
        fp = float(f(theta))
        theta[i] = saved - epsilon
        fm = float(f(theta))
        theta[i] = saved
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise EvaluationError(f"objective non-finite near coordinate {i}")
        numeric[i] = (fp - fm) / (2.0 * epsilon)
    abs_diff = np.abs(analytic - numeric)
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    rel_diff = abs_diff / scale
    max_abs = float(abs_diff.max()) if theta.size else 0.0
    max_rel = float(rel_diff.max()) if theta.size else 0.0
    return GradReport(max_abs_diff=max_abs, max_rel_diff=max_rel,
                      passed=bool(max_rel <= tol), tolerance=tol)
