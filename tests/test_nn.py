"""Tensor-core kernels: MLP, conv2d, max aggregation, gradient checker."""

import numpy as np
import pytest

from lrbev import nn
from lrbev.errors import EmptyGroupError, EvaluationError, ShapeError
from lrbev.nn import (Conv2dParams, FeatureMap, MlpParams, conv2d_backward,
                      conv2d_forward, finite_diff_check, max_reduce,
                      max_reduce_backward, mlp_backward, mlp_forward)


class TestFeatureMap:
    def test_shape_properties(self):
        m = FeatureMap(np.zeros((3, 4, 5)))
        assert (m.channels, m.height, m.width) == (3, 4, 5)

    def test_rejects_non_3d(self):
        with pytest.raises(ShapeError):
            FeatureMap(np.zeros((3, 4)))

    def test_rejects_nan(self):
        data = np.zeros((1, 2, 2))
        data[0, 0, 0] = np.nan
        with pytest.raises(EvaluationError):
            FeatureMap(data)

    def test_immutable(self):
        m = FeatureMap(np.zeros((1, 2, 2)))
        with pytest.raises(ValueError):
            m.data[0, 0, 0] = 1.0


class TestMlpForward:
    def test_identity_weights_with_rectifier(self):
        # the hidden rectifier clamps the negative component; the identity
        # output layer passes the rest through
        p = MlpParams([(np.eye(2), np.zeros(2)), (np.eye(2), np.zeros(2))])
        assert np.array_equal(mlp_forward([1.0, -2.0], p), [1.0, 0.0])

    def test_zero_input_zero_bias(self):
        rng = np.random.default_rng(0)
        p = MlpParams([(rng.normal(size=(3, 2)), np.zeros(3)),
                       (rng.normal(size=(2, 3)), np.zeros(2))])
        assert np.array_equal(mlp_forward([0.0, 0.0], p), [0.0, 0.0])

    def test_affine_map_hand_value(self):
        # [2,3].[1,1] - 1 = 4
        p = MlpParams([(np.array([[2.0, 3.0]]), np.array([-1.0]))])
        assert np.array_equal(mlp_forward([1.0, 1.0], p), [4.0])

    def test_dimension_mismatch(self):
        p = MlpParams([(np.eye(2), np.zeros(2))])
        with pytest.raises(ShapeError):
            mlp_forward([1.0, 2.0, 3.0], p)

    def test_layer_chain_validated(self):
        with pytest.raises(ShapeError):
            MlpParams([(np.zeros((3, 2)), np.zeros(3)),
                       (np.zeros((2, 4)), np.zeros(2))])

    def test_init_bounds(self):
        rng = np.random.default_rng(1)
        p = MlpParams.init((9, 16, 4), rng)
        for (w, b), fan_in in zip(p.layers, (9, 16)):
            bound = 1.0 / np.sqrt(fan_in)
            assert np.abs(w).max() <= bound and np.abs(b).max() <= bound

    def test_vector_round_trip(self):
        rng = np.random.default_rng(2)
        p = MlpParams.init((3, 5, 2), rng)
        q = p.from_vector(p.to_vector())
        for (w1, b1), (w2, b2) in zip(p.layers, q.layers):
            assert np.array_equal(w1, w2) and np.array_equal(b1, b2)


class TestConv2d:
    def test_scalar_scale(self):
        m = FeatureMap(np.ones((1, 3, 3)))
        p = Conv2dParams(np.full((1, 1, 1, 1), 2.0), np.zeros(1))
        assert np.array_equal(conv2d_forward(m, p).data, np.full((1, 3, 3), 2.0))

    def test_hand_sum(self):
        m = FeatureMap([[[1.0, 2.0], [3.0, 4.0]]])
        p = Conv2dParams(np.ones((1, 1, 2, 2)), np.zeros(1))
        assert np.array_equal(conv2d_forward(m, p).data, [[[10.0]]])

    def test_identity_stride_two_subsamples(self):
        rng = np.random.default_rng(3)
        m = FeatureMap(rng.normal(size=(2, 6, 8)))
        kernel = np.zeros((2, 2, 1, 1))
        kernel[[0, 1], [0, 1], 0, 0] = 1.0
        p = Conv2dParams(kernel, np.zeros(2), stride=2)
        assert np.array_equal(conv2d_forward(m, p).data, m.data[:, ::2, ::2])

    def test_identity_kernel_exact(self):
        rng = np.random.default_rng(4)
        for c in (1, 3, 80):
            m = FeatureMap(rng.normal(size=(c, 5, 7)))
            kernel = np.zeros((c, c, 1, 1))
            kernel[np.arange(c), np.arange(c), 0, 0] = 1.0
            out = conv2d_forward(m, Conv2dParams(kernel, np.zeros(c)))
            assert np.array_equal(out.data, m.data)

    def test_channel_mismatch(self):
        m = FeatureMap(np.zeros((2, 3, 3)))
        p = Conv2dParams(np.zeros((1, 3, 1, 1)), np.zeros(1))
        with pytest.raises(ShapeError):
            conv2d_forward(m, p)

    def test_degenerate_output(self):
        m = FeatureMap(np.zeros((1, 2, 2)))
        p = Conv2dParams(np.zeros((1, 1, 3, 3)), np.zeros(1))
        with pytest.raises(ShapeError):
            conv2d_forward(m, p)

    def test_output_dims_formula(self):
        p = Conv2dParams(np.zeros((4, 2, 3, 3)), np.zeros(4), stride=2, padding=1)
        assert p.out_hw(16, 16) == (8, 8)


def _gemm_then_bias(p, padded, y0, y1):
    """The rows of ``nn._im2col_rows`` on its bands, with the bias added
    after each band's GEMM instead of inside it."""
    cout, cin, kh, kw = p.kernel.shape
    width = padded.shape[2] - kw + 1
    band = min(nn._im2col_band(p, width), y1 - y0)
    buf = np.empty(cin * kh * kw * band * width)
    for ya, yb in nn._spans(y0, y1, band):
        o = p.kernel.reshape(cout, -1) @ nn._im2col(p, padded, ya, yb, width, buf)
        o += p.bias[:, None]
        yield ya, yb, o.reshape(cout, yb - ya, width)


class TestIm2colBands:
    """The bias inside the im2col GEMM: a ones row ends each band's block,
    at another offset of the scratch for a shorter last band."""

    @pytest.mark.parametrize("h", [3, 12, 14], ids=["one", "several", "ragged"])
    def test_bands_equal_the_whole_maps_rows(self, monkeypatch, h):
        """4-row bands: a map of one band, of three, and of three and a
        two-row band. The rows of every band, from a run over the whole map
        or over the rows from any band start on, equal the whole-map conv's
        bit for bit and the GEMM with the bias added after it."""
        monkeypatch.setattr(nn, "_BAND_FLOATS", 72 * 4 * 16)
        rng = np.random.default_rng(h)
        p = Conv2dParams.init(8, 8, 3, rng, padding=1)
        data = rng.normal(size=(8, h, 16))
        padded = nn._pad(data, 1)
        assert nn._im2col_band(p, 16) == 4
        whole = nn._conv2d_raw(data, p)
        for y0 in range(0, h, 4):
            got = [(ya, yb, rows.copy()) for ya, yb, rows in nn._im2col_rows(p, padded, y0, h)]
            want = list(_gemm_then_bias(p, padded, y0, h))
            assert [(ya, yb) for ya, yb, _ in got] == [(ya, yb) for ya, yb, _ in want]
            assert got[-1][1] == h
            for (ya, yb, rows), (_, _, after) in zip(got, want):
                assert np.array_equal(rows, whole[:, ya:yb])
                assert np.array_equal(rows, after)

    @pytest.mark.parametrize("width", [16, 128, 1440], ids=["tiny", "desk", "paper"])
    def test_shipped_convs_keep_the_bits_of_the_bias_added_after(self, width):
        """At the widths and im2col conv shapes of the shipped configs (the
        second and last encoder blocks, the second trunk conv and the 1x1
        heads), the bias inside the GEMM gives the bits of adding it after
        the GEMM. Not every shape does: in a sweep, inputs of 400 or more
        im2col rows, single-channel outputs and bands whose column count is
        not a multiple of 8 differed in the last bit."""
        rng = np.random.default_rng(width)
        for cin, cout, k in ((2, 2, 3), (2, 512, 3), (8, 8, 3), (8, 512, 3),
                             (2, 1, 1), (2, 2, 1), (2, 3, 1), (4, 4, 3), (4, 1, 1),
                             (4, 2, 1), (4, 3, 1)):
            p = Conv2dParams.init(cin, cout, k, rng, padding=k // 2)
            h = 3 * min(nn._im2col_band(p, width), 8) + 1
            padded = nn._pad(rng.normal(size=(cin, h, width)), k // 2)
            for (_, _, rows), (_, _, after) in zip(nn._im2col_rows(p, padded, 0, h),
                                                   _gemm_then_bias(p, padded, 0, h)):
                assert np.array_equal(rows, after), (cin, cout, k)


# (rows, inner dimension) of tap GEMMs: the desk and tiny first blocks, the
# first trunk conv and a first block on 400 LiDAR channels.
TAP_SHAPES = [(72, 160), (18, 112), (36, 512), (72, 496)]


@pytest.mark.parametrize("m, k", TAP_SHAPES)
def test_tap_gemm_columns_keep_their_bits_in_any_block(m, k):
    """The one BLAS assumption of ``nn._tap_rows``: in GEMMs of one shape,
    ``tap_columns`` wide, on C-ordered operands, permuting whole
    ``BLAS_BLOCK``s of columns permutes the output columns bit for bit.
    Widths from one block to a band of a 64-column map."""
    rng = np.random.default_rng([67, m, k])
    a = rng.uniform(-1.0, 1.0, size=(m, k))
    for h, w in ((1, 8), (3, 8), (4, 8), (23, 24), (4, 64), (48, 64)):
        n = nn.tap_columns(k, h, w)
        b = rng.normal(size=(k, n))
        want = a @ b
        for _ in range(3):
            blocks = rng.permutation(n // nn.BLAS_BLOCK)[:, None] * nn.BLAS_BLOCK
            cols = (blocks + np.arange(nn.BLAS_BLOCK)).ravel()
            got = a @ np.ascontiguousarray(b[:, cols])
            assert np.array_equal(got, want[:, cols]), (h, w, n)


class TestMaxReduce:
    def test_hand_value(self):
        assert np.array_equal(max_reduce([[1.0, 5.0], [3.0, 2.0]]), [3.0, 5.0])

    def test_singleton(self):
        v = np.array([0.5, -1.0, 2.0])
        assert np.array_equal(max_reduce([v]), v)

    def test_idempotent_on_duplicates(self):
        v = np.array([0.5, -1.0])
        assert np.array_equal(max_reduce([v, v]), v)

    def test_empty_raises(self):
        with pytest.raises(EmptyGroupError):
            max_reduce([])

    def test_permutation_invariant_exact(self):
        rng = np.random.default_rng(5)
        for s in range(50):
            rows = rng.normal(size=(int(rng.integers(1, 10)), 6))
            base = max_reduce(rows)
            for _ in range(4):
                assert np.array_equal(max_reduce(rows[rng.permutation(len(rows))]),
                                      base)


class TestFiniteDiff:
    def test_quadratic_passes(self):
        rep = finite_diff_check(lambda t: float(t[0] ** 2),
                                lambda t: np.array([2.0 * t[0]]),
                                np.array([3.0]))
        assert rep.passed and rep.max_rel_diff < 1e-3

    def test_l1_away_from_kink(self):
        target = 1.5
        rep = finite_diff_check(lambda t: float(abs(t[0] - target)),
                                lambda t: np.array([np.sign(t[0] - target)]),
                                np.array([3.0]))
        assert rep.passed

    def test_perturbed_gradient_fails(self):
        # 10% analytic error must be flagged
        rep = finite_diff_check(lambda t: float(t[0] ** 2),
                                lambda t: np.array([2.2 * t[0]]),
                                np.array([3.0]))
        assert not rep.passed

    def test_passed_iff_within_tolerance(self):
        rep = finite_diff_check(lambda t: float(t[0] ** 2),
                                lambda t: np.array([2.0 * t[0]]),
                                np.array([3.0]), tol=1e-16)
        assert rep.passed == (rep.max_rel_diff <= rep.tolerance)

    def test_non_finite_objective(self):
        with pytest.raises(EvaluationError):
            finite_diff_check(lambda t: float("nan"), lambda t: t, np.array([1.0]))

    def test_bad_epsilon(self):
        with pytest.raises(ValueError):
            finite_diff_check(lambda t: 0.0, lambda t: t, np.array([1.0]), epsilon=0)


class TestGradients:
    def test_mlp_gradcheck_many_seeds(self):
        passed = 0
        for s in range(100):
            rng = np.random.default_rng([100, s])
            p = MlpParams.init((3, 6, 2), rng)
            x = rng.normal(size=3)
            # keep pre-activations clear of the rectifier kink
            pre = p.layers[0][0] @ x + p.layers[0][1]
            if np.abs(pre).min() < 1e-2:
                continue
            c = rng.normal(size=2)
            theta = p.to_vector()

            def f(v):
                return float(c @ mlp_forward(x, p.from_vector(v)))

            def grad(v):
                _, gl = mlp_backward(x, p.from_vector(v), c)
                return np.concatenate([np.concatenate([gw.ravel(), gb])
                                       for gw, gb in gl])

            rep = finite_diff_check(f, grad, theta, epsilon=1e-3, tol=1e-3)
            assert rep.passed, f"seed {s}: {rep.max_rel_diff}"
            passed += 1
        assert passed >= 80

    def test_conv_gradcheck(self):
        for s in range(100):
            rng = np.random.default_rng([101, s])
            m = FeatureMap(rng.normal(size=(2, 4, 5)))
            p = Conv2dParams.init(2, 3, 2, rng, padding=1)
            c = rng.normal(size=(3, *p.out_hw(4, 5)))
            theta = p.to_vector()

            def f(v):
                return float((c * conv2d_forward(m, p.from_vector(v)).data).sum())

            def grad(v):
                _, gk, gb = conv2d_backward(m, p.from_vector(v), c)
                return np.concatenate([gk.ravel(), gb])

            rep = finite_diff_check(f, grad, theta, epsilon=1e-3, tol=1e-3)
            assert rep.passed, f"seed {s}: {rep.max_rel_diff}"

    def test_conv_input_gradient(self):
        rng = np.random.default_rng(102)
        m = FeatureMap(rng.normal(size=(2, 4, 4)))
        p = Conv2dParams.init(2, 2, 3, rng, padding=1)
        c = rng.normal(size=(2, 4, 4))
        gin, _, _ = conv2d_backward(m, p, c)
        theta = m.data.ravel().copy()

        def f(v):
            return float((c * conv2d_forward(FeatureMap(v.reshape(2, 4, 4)), p).data).sum())

        rep = finite_diff_check(f, lambda v: gin.ravel(), theta)
        assert rep.passed

    def test_max_gradcheck_ties_routed_to_first(self):
        rows = np.array([[1.0, 5.0], [1.0, 2.0]])
        g = max_reduce_backward(rows, np.array([1.0, 1.0]))
        assert np.array_equal(g, [[1.0, 1.0], [0.0, 0.0]])


class TestDeterminism:
    def test_bit_identical_across_thread_counts(self):
        """A single-threaded BLAS subprocess must reproduce the parent's
        conv output bit for bit."""
        import subprocess
        import sys
        prog = (
            "import os; os.environ['OPENBLAS_NUM_THREADS']='1'; "
            "os.environ['OMP_NUM_THREADS']='1'; "
            "import numpy as np; from lrbev.nn import FeatureMap, "
            "Conv2dParams, conv2d_forward; rng = np.random.default_rng(77); "
            "m = FeatureMap(rng.normal(size=(70, 20, 20))); "
            "p = Conv2dParams.init(70, 8, 3, rng, padding=1); "
            "import hashlib; "
            "print(hashlib.sha256(conv2d_forward(m, p).data.tobytes()).hexdigest())"
        )
        child = subprocess.run([sys.executable, "-c", prog],
                               capture_output=True, text=True, check=True)
        import hashlib
        rng = np.random.default_rng(77)
        m = FeatureMap(rng.normal(size=(70, 20, 20)))
        p = Conv2dParams.init(70, 8, 3, rng, padding=1)
        here = hashlib.sha256(conv2d_forward(m, p).data.tobytes()).hexdigest()
        assert child.stdout.strip() == here

    def test_forward_bit_identical_across_runs(self):
        rng = np.random.default_rng(6)
        m = FeatureMap(rng.normal(size=(70, 10, 10)))
        p = Conv2dParams.init(70, 4, 3, rng, padding=1)
        mlp = MlpParams.init((5, 8, 3), rng)
        x = rng.normal(size=5)
        assert np.array_equal(conv2d_forward(m, p).data, conv2d_forward(m, p).data)
        assert np.array_equal(mlp_forward(x, mlp), mlp_forward(x, mlp))


def test_import_pins_openblas_to_one_thread():
    import ctypes

    import lrbev
    from lrbev import nn

    libs = nn._openblas_libs()
    if not libs:
        pytest.skip("numpy did not load OpenBLAS")
    threads = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for _, getter in nn._OPENBLAS_THREAD_SYMBOLS:
            fn = getattr(lib, getter, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                threads.append(fn())
                break
    assert lrbev.nn.BLAS_PINNED
    assert threads and all(t == 1 for t in threads)
