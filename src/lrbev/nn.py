"""Dense numeric substrate: BEV feature maps, small MLPs, 2D convolution and
symmetric max aggregation, each with analytic gradients, plus a central
finite-difference gradient checker. Every conv is stride-1 and keeps its
input's height and width: ``Conv2dParams`` holds an odd square kernel and
derives its zero padding from it.

Everything runs in float64. All operations are pure: inputs are never
mutated, identical inputs produce bit-identical outputs, and values can be
shared across threads after construction.
"""
from __future__ import annotations

import ctypes
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import EmptyGroupError, EvaluationError, ShapeError

# (setter, getter) thread-count symbols of the OpenBLAS builds numpy ships
# with or links against: the scipy-openblas wheels (64- and 32-bit ints),
# a 64_-suffixed ILP64 build, and a plain build.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _openblas_libs() -> list:
    """Paths of the OpenBLAS libraries mapped into this process; empty
    where ``/proc/self/maps`` cannot be read (non-Linux)."""
    try:
        with open("/proc/self/maps") as fh:
            return sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return []


def _pin_openblas() -> bool:
    """Set every OpenBLAS library mapped into the process to one thread
    through its own C API; True when at least one was found and each now
    reports one thread."""
    pinned = 0
    for path in _openblas_libs():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            return False
        for setter, getter in _OPENBLAS_THREAD_SYMBOLS:
            set_fn, get_fn = getattr(lib, setter, None), getattr(lib, getter, None)
            if set_fn is None or get_fn is None:
                continue
            set_fn.restype, set_fn.argtypes = None, [ctypes.c_int]
            get_fn.restype, get_fn.argtypes = ctypes.c_int, []
            set_fn(1)
            if get_fn() != 1:
                return False
            pinned += 1
            break
        else:
            return False
    return pinned > 0


def _pin_blas() -> bool:
    """Pin BLAS to one thread for the process; True if the pin took effect.

    With one thread, a BLAS call's arithmetic cannot depend on how many
    threads the library would split it across, and BLAS's own threads do
    not compete for the cores with the worker threads of
    ``lrbev.parallel``. threadpoolctl is used when installed; otherwise
    the OpenBLAS that numpy loaded is pinned directly."""
    try:
        import threadpoolctl
    except ImportError:
        return _pin_openblas()
    threadpoolctl.threadpool_limits(limits=1, user_api="blas")
    blas = [i for i in threadpoolctl.threadpool_info() if i["user_api"] == "blas"]
    return bool(blas) and all(i["num_threads"] == 1 for i in blas)


# Whether BLAS runs one thread per call; every stage runs on a single
# thread when it does not (parallel.WORKERS).
BLAS_PINNED = _pin_blas()

Array = np.ndarray


def relu(x: Array) -> Array:
    return np.maximum(x, 0.0)


def sigmoid(x: Array) -> Array:
    """Logistic function; exponentiates only -|x|, so it never overflows."""
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


def _finite(a: np.ndarray) -> np.ndarray:
    """``a``, once checked to hold no NaN or infinity: the check made on
    every feature map and conv output."""
    if not np.isfinite(a).all():
        raise EvaluationError("feature map contains non-finite values")
    return a


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
        _finite(arr)
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
    """Stack of affine layers with a rectifier between them; the last layer
    is linear."""

    layers: list  # list of (weight out x in, bias out)

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
    def init(cls, dims: Sequence[int], rng: np.random.Generator) -> "MlpParams":
        """Seeded init, uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)].

        ``dims`` is (in, hidden..., out).
        """
        layers = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            w = rng.uniform(-bound, bound, size=(fan_out, fan_in))
            b = rng.uniform(-bound, bound, size=fan_out)
            layers.append((w, b))
        return cls(layers)

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
        return MlpParams(out)


def mlp_forward(x, p: MlpParams) -> Array:
    """Evaluate the MLP on a single input vector."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 1 or a.shape[0] != p.in_dim:
        raise ShapeError(f"MLP input has shape {a.shape}, expected ({p.in_dim},)")
    for w, b in p.layers[:-1]:
        a = relu(w @ a + b)
    w, b = p.layers[-1]
    return w @ a + b


# Within one GEMM shape, BLAS computes a row or column alike wherever it
# sits, except in the last, partial block of the GEMM's rows or columns,
# as long as the operands keep contiguous rows (F-ordered copies of the
# same values took other bits in GEMMs of up to 64 columns). GEMM operands
# padded with zeros to a multiple of this many rows (MLP batches) or
# columns (the per-tap GEMMs of ``_tap_rows``, all ``tap_columns`` wide)
# give each one the same bits wherever it sits in the operand.
BLAS_BLOCK = 8


def mlp_forward_batch(xs: Array, p: MlpParams) -> Array:
    """Row-wise forward for an (n, in_dim) batch.

    A batch of more than one row runs padded with zero rows to a multiple
    of ``BLAS_BLOCK``, so a row's bits do not depend on its place in the
    batch: permuting the rows permutes the output rows, bit for bit (checked
    under the OpenBLAS SkylakeX, Haswell, Sandybridge, Prescott and Nehalem
    kernels by ``tests/test_blas_kernels.py``). Not bit-identical to per-row
    ``mlp_forward``: BLAS may block and order a GEMM's reductions
    differently from a matrix-vector product."""
    a = np.asarray(xs, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != p.in_dim:
        raise ShapeError(f"MLP batch input has shape {a.shape}, expected (n, {p.in_dim})")
    n = len(a)
    if n > 1 and n % BLAS_BLOCK:
        a = np.concatenate([a, np.zeros((-n % BLAS_BLOCK, a.shape[1]))])
    # Each layer's GEMM, bias and rectifier write into one array: the
    # operations of ``relu(a @ w.T + b)``, so the same bits.
    last = len(p.layers) - 1
    for k, (w, b) in enumerate(p.layers):
        a = np.matmul(a, w.T)
        a += b
        if k < last:
            np.maximum(a, 0.0, out=a)
    return a[:n]


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
        acts.append(relu(z) if k < last else z)
    g = np.asarray(grad_out, dtype=np.float64)
    grads = [None] * len(p.layers)
    for k in range(last, -1, -1):
        if k < last:
            g = g * (pre[k] > 0)
        w, _ = p.layers[k]
        grads[k] = (np.outer(g, acts[k]), g.copy())
        g = w.T @ g
    return g, grads


@dataclass
class Conv2dParams:
    """Plain 2D cross-correlation layer: an out x in x k x k kernel, k odd,
    at stride 1 with ``padding`` = k // 2 zero cells on every side, so the
    output keeps the input's height and width."""

    kernel: Array
    bias: Array

    def __post_init__(self):
        self.kernel = np.asarray(self.kernel, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        shape = self.kernel.shape
        if len(shape) != 4 or shape[2] != shape[3] or shape[2] % 2 == 0:
            raise ShapeError(f"conv kernel must be out x in x k x k with k odd, "
                             f"got {shape}")
        if self.bias.shape != (shape[0],):
            raise ShapeError(f"conv bias shape {self.bias.shape} != ({shape[0]},)")

    @property
    def padding(self) -> int:
        return self.kernel.shape[2] // 2

    @classmethod
    def init(cls, in_channels: int, out_channels: int, kernel_size: int,
             rng: np.random.Generator) -> "Conv2dParams":
        fan_in = in_channels * kernel_size * kernel_size
        bound = 1.0 / np.sqrt(fan_in)
        kernel = rng.uniform(-bound, bound,
                             size=(out_channels, in_channels, kernel_size, kernel_size))
        bias = rng.uniform(-bound, bound, size=out_channels)
        return cls(kernel, bias)

    def to_vector(self) -> Array:
        return np.concatenate([self.kernel.ravel(), self.bias])

    def from_vector(self, vec: Array) -> "Conv2dParams":
        nk = self.kernel.size
        if vec.size != nk + self.bias.size:
            raise ShapeError(f"parameter vector has {vec.size} entries, "
                             f"expected {nk + self.bias.size}")
        return Conv2dParams(vec[:nk].reshape(self.kernel.shape), vec[nk:].copy())


# A band holds at most this many floats of its widest activation (an input
# or output band, or its im2col block), ~2 MB of float64, so its GEMMs work
# out of cache.
_BAND_FLOATS = 1 << 18


def band_rows(channels: int, width: int) -> int:
    """Rows per band of an activation with this many channels and columns."""
    return max(1, _BAND_FLOATS // max(1, channels * width))


def _spans(start: int, stop: int, rows: int):
    for y in range(start, stop, max(1, rows)):
        yield y, min(stop, y + rows)


def tap_columns(channels: int, height: int, width: int) -> int:
    """Columns of every per-tap GEMM of a conv reading ``channels`` channels
    of a ``height`` x ``width`` map: a band of ``band_rows`` rows, or the
    whole map when it is lower, rounded up to whole ``BLAS_BLOCK``s."""
    n = min(band_rows(channels, width), height) * width
    return n + -n % BLAS_BLOCK


def _tap_rows(p: Conv2dParams, chunks, rows: int, width: int, span: int) -> Array:
    """Per-tap GEMM results (Cout, kh, kw, rows, W) of the conv ``p`` on
    ``rows`` input rows arriving as consecutive (Cin, n, W) chunks: one GEMM
    of every kernel tap against each run of ``span`` columns of a chunk,
    counted from its first, a shorter last run padded with zero columns to
    ``span``. Callers pass the conv's ``tap_columns`` of the whole map, so
    every tap GEMM of a conv has one shape, and a column's taps do not
    depend on how the chunks cut the map (see ``BLAS_BLOCK``)."""
    cout, cin, kh, kw = p.kernel.shape
    kmat = p.kernel.transpose(0, 2, 3, 1).reshape(cout * kh * kw, cin)
    taps = np.empty((cout, kh, kw, rows, width))
    flat = taps.reshape(cout * kh * kw, -1)
    done = 0
    for chunk in chunks:
        b = chunk.reshape(cin, -1)
        n = b.shape[1]
        for c in range(0, n, span):
            m = min(span, n - c)
            out = flat[:, done + c:done + c + m]
            if m < span:
                out[:] = np.matmul(kmat, np.pad(b[:, c:], ((0, 0), (0, span - m))))[:, :m]
            else:
                np.matmul(kmat, b[:, c:c + span], out=out)
        done += n
    return taps


def _add_taps(acc: Array, taps: Array, y0: int) -> None:
    """Adds ``taps`` (Cout, kh, kw, rows, W), the per-tap GEMM results of a
    conv on its input rows from ``y0`` on, in (ky, kx) order onto ``acc``,
    its output inside a border of its padding, which takes the taps that
    fall on the zero padding. The input row behind tap (ky, kx) of an
    output cell rises with ky, so adding ascending row spans sums every
    cell in (ky, kx) order."""
    _, kh, kw, rows, width = taps.shape
    for ky in range(kh):
        ya = y0 + kh - 1 - ky
        for kx in range(kw):
            xa = kw - 1 - kx
            acc[:, ya:ya + rows, xa:xa + width] += taps[:, ky, kx]


def _tap_view(padded: Array, ky: int, kx: int, y0: int, y1: int, width: int) -> Array:
    """View of the cells of ``padded`` that kernel tap (ky, kx) meets for
    output rows ``y0`` to ``y1`` and ``width`` output columns."""
    return padded[:, y0 + ky:y1 + ky, kx:kx + width]


def _im2col(p: Conv2dParams, padded: Array, y0: int, y1: int, width: int,
            buf: Array) -> Array:
    """The (Cin*kh*kw, rows*W) im2col columns of output rows ``y0`` to
    ``y1`` of ``p`` over ``padded``, an input that already carries its zero
    padding, written into the flat scratch ``buf``."""
    _, cin, kh, kw = p.kernel.shape
    n = y1 - y0
    cols = buf[:cin * kh * kw * n * width].reshape(cin, kh, kw, n, width)
    for ky in range(kh):
        for kx in range(kw):
            cols[:, ky, kx] = _tap_view(padded, ky, kx, y0, y1, width)
    return cols.reshape(cin * kh * kw, n * width)


def _im2col_band(p: Conv2dParams, width: int) -> int:
    """Output rows per im2col band of ``p`` at this output width."""
    cout, cin, kh, kw = p.kernel.shape
    return band_rows(max(cout, cin * kh * kw), width)


def _im2col_rows(p: Conv2dParams, padded: Array, y0: int, y1: int):
    """Output rows ``y0`` to ``y1`` of ``p`` over ``padded`` by im2col: one
    GEMM per band of ``_im2col_band`` rows; yields ``(ya, yb, rows)`` per
    band, in scratch that the next band reuses. The GEMM adds the bias
    itself: its weight is ``[kernel | bias]`` and each band's im2col block
    ends in a row of ones, written after the band's columns, so a shorter
    last band has it at another offset of the scratch."""
    cout, cin, kh, kw = p.kernel.shape
    k = cin * kh * kw
    width = padded.shape[2] - kw + 1
    band = min(_im2col_band(p, width), y1 - y0)
    wmat = np.concatenate([p.kernel.reshape(cout, k), p.bias[:, None]], axis=1)
    buf = np.empty((k + 1) * band * width)
    out = np.empty(cout * band * width)
    for ya, yb in _spans(y0, y1, band):
        n = (yb - ya) * width
        _im2col(p, padded, ya, yb, width, buf)
        buf[k * n:(k + 1) * n] = 1.0
        o = out[:cout * n].reshape(cout, n)
        np.matmul(wmat, buf[:(k + 1) * n].reshape(k + 1, n), out=o)
        yield ya, yb, o.reshape(cout, yb - ya, width)


def _pad(data: Array, padding: int) -> Array:
    widths = ((0, 0), (padding, padding), (padding, padding))
    return np.pad(data, widths) if padding else data


def _tap_conv(data: Array, p: Conv2dParams) -> Array:
    """The conv ``p`` of ``data`` by per-tap GEMMs: the ``_tap_rows`` taps
    of the whole map, one GEMM per run of ``tap_columns(Cin, H, W)``
    columns from the first, added in (ky, kx) order (``_add_taps``), then
    the bias. These are the GEMM shape and the sums of
    ``heads.r2l_forward``'s first block and first trunk conv."""
    cin, h, w = data.shape
    pad = p.padding
    acc = np.zeros((p.kernel.shape[0], h + 2 * pad, w + 2 * pad))
    _add_taps(acc, _tap_rows(p, (data,), h, w, tap_columns(cin, h, w)), 0)
    return acc[:, pad:pad + h, pad:pad + w] + p.bias[:, None, None]


def _conv2d_raw(data: Array, p: Conv2dParams) -> Array:
    """The conv ``p`` of the (Cin, H, W) array ``data`` by im2col, in the
    bands of ``_im2col_rows``; the one conv path of ``conv2d_forward``."""
    cin, h, w = data.shape
    cout, kin = p.kernel.shape[:2]
    if cin != kin:
        raise ShapeError(f"conv input has {cin} channels, kernel expects {kin}")
    out = np.empty((cout, h, w))
    for ya, yb, rows in _im2col_rows(p, _pad(data, p.padding), 0, h):
        out[:, ya:yb] = rows
    return out


def conv2d_forward(m: FeatureMap, p: Conv2dParams) -> FeatureMap:
    """Cross-correlation with zero padding (the usual 'conv' layer), the
    output as high and wide as ``m``."""
    return FeatureMap._wrap(_conv2d_raw(m.data, p))


def conv2d_backward(m: FeatureMap, p: Conv2dParams, grad_out: Array):
    """Gradients of ``sum(grad_out * conv2d_forward(m, p))``, band by band
    on the im2col columns of the forward pass.

    Returns (grad_input (C,H,W), grad_kernel, grad_bias).
    """
    data = m.data
    cin, h, w = data.shape
    cout, _, kh, kw = p.kernel.shape
    g = np.asarray(grad_out, dtype=np.float64)
    if g.shape != (cout, h, w):
        raise ShapeError(f"grad_out shape {g.shape} != {(cout, h, w)}")
    pad = p.padding
    padded = _pad(data, pad)
    wmat = p.kernel.reshape(cout, -1)
    gflat = g.reshape(cout, h * w)
    band = min(_im2col_band(p, w), h)
    buf = np.empty(wmat.shape[1] * band * w)
    grad_kernel = np.zeros(wmat.shape)
    grad_padded = np.zeros_like(padded)
    for y0, y1 in _spans(0, h, band):
        gband = gflat[:, y0 * w:y1 * w]
        grad_kernel += gband @ _im2col(p, padded, y0, y1, w, buf).T
        gcols = (wmat.T @ gband).reshape(cin, kh, kw, y1 - y0, w)
        for ky in range(kh):
            for kx in range(kw):
                _tap_view(grad_padded, ky, kx, y0, y1, w)[:] += gcols[:, ky, kx]
    grad_in = grad_padded[:, pad:pad + h, pad:pad + w]
    return grad_in, grad_kernel.reshape(p.kernel.shape), gflat.sum(axis=1)


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
