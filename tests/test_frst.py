import json
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import fracspec as fs
from conftest import traced_peak, trapezoid_pairing
from fracspec.distributions import DistributionDescriptor as DD
from fracspec.fraccore import KERNEL_BLOCK_ELEMENTS, TWO_PI_LD, _LatticeSum, _uniform_step
from fracspec.frst import (
    _correlate,
    _frst_params,
    _integrand_probe,
    _kernel_meta,
    _kernel_plan,
    _spread,
    frst_forward,
    frst_point,
    frst_reconstruct,
    frst_synthesis,
    grid_from_csv,
    grid_to_csv,
    symmetric_log_xi_axis,
    write_json,
)
from fracspec.frwt import _frwt_params
from fracspec.windows import (
    SUPPORT_RADII,
    admissibility_cgpsi,
    window_by_name,
)


def modulated_gaussian(width, n, half_width, om0=4.0):
    t = np.linspace(-half_width, half_width, n)
    vals = np.exp(1j * om0 * t) * np.exp(-t * t / (2 * width * width))
    return fs.SampledSignal(-half_width, t[1] - t[0], vals)


def stockwell_oracle(g, sig, x_axis, xi_axis):
    """Independent classical-ST implementation (alpha = pi/2 formula)."""
    t = sig.t_grid
    w = sig.trapezoid_weights()
    out = np.empty((x_axis.size, xi_axis.size), complex)
    for j, xi in enumerate(xi_axis):
        for i, x in enumerate(x_axis):
            integrand = sig.samples * np.conj(g.eval(xi * (t - x))) * np.exp(-1j * xi * t)
            out[i, j] = abs(xi) / np.sqrt(2 * np.pi) * np.sum(integrand * w)
    return out


class TestTFGrid:
    def test_validation(self):
        x = np.linspace(-1, 1, 5)
        xi = np.array([0.5, 1.0, 2.0])
        vals = np.zeros((5, 3), complex)
        fs.TFGrid(x, xi, vals, {})
        with pytest.raises(ValueError):
            fs.TFGrid(x[::-1], xi, vals, {})
        with pytest.raises(ValueError):
            fs.TFGrid(x, np.array([0.001, 1.0, 2.0]), vals, {})
        bad = vals.copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            fs.TFGrid(x, xi, bad, {})

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_axis_entries(self, bad):
        # NaN compares False both ways, so no ordering test catches it
        x = np.linspace(-1.0, 1.0, 5)
        xi = np.array([0.5, 1.0, 2.0])
        with pytest.raises(ValueError, match="finite"):
            fs.TFGrid([0.0, bad, 1.0], xi, np.zeros((3, 3), complex), {})
        with pytest.raises(ValueError, match="finite"):
            fs.TFGrid(x, [0.5, 1.0, bad], np.zeros((5, 3), complex), {})
        sig = fs.gaussian_signal(1.0, 256, 8.0)
        p = fs.make_frac_param(1.0)
        x_bad = np.append(x[:-1], bad)
        with pytest.raises(ValueError, match="finite"):
            frst_forward(p, window_by_name("hermite1"), sig, x_bad, xi)
        with pytest.raises(ValueError, match="finite"):
            fs.frwt_forward(p, window_by_name("mexican-hat"), sig, x_bad, xi)
        with pytest.raises(ValueError, match="finite"):
            fs.frwt_forward(p, window_by_name("mexican-hat"), sig, x, np.append(xi, bad))

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        x = np.linspace(-2, 2, 7)
        xi = symmetric_log_xi_axis(0.5, 4.0, 5)
        vals = rng.normal(size=(7, 10)) + 1j * rng.normal(size=(7, 10))
        grid = fs.TFGrid(x, xi, vals, {"transform": "FRST", "alpha": 1.0,
                                       "window": "mexican-hat"})
        csv = tmp_path / "g.csv"
        meta = tmp_path / "g.meta.json"
        grid_to_csv(grid, csv, meta)
        back = grid_from_csv(csv, meta)
        assert np.array_equal(back.values, grid.values)
        assert np.array_equal(back.x_axis, grid.x_axis)
        assert back.meta["window"] == "mexican-hat"

    def test_malformed_csv(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("nope\n")
        with pytest.raises(fs.MalformedCSV):
            grid_from_csv(bad)

    @pytest.mark.parametrize("text, match", [
        # a header and no rows: refused, and np.loadtxt, which would warn, is not called
        ("x,xi,re,im\n", "empty grid file"),
        ("x,xi,re,im\n\n# no rows\n", "empty grid file"),
        ("x,xi,re,im\n0,1,0,0\n0,2,0,0\n1,1,0,0\n", "complete x/xi product"),
        # a complete product written xi-major would load transposed
        ("x,xi,re,im\n0,1,1,0\n1,1,2,0\n0,2,11,0\n1,2,12,0\n", "complete x/xi product"),
        # repeated rows hiding the missing cells (0, 2) and (1, 1)
        ("x,xi,re,im\n0,1,1,0\n0,1,1,0\n1,2,12,0\n1,2,12,0\n", "complete x/xi product"),
        ("x,xi,re,im\n0,1,zero,0\n", "could not convert"),
    ])
    def test_malformed_rows(self, tmp_path, text, match):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        with pytest.raises(fs.MalformedCSV, match=match):
            grid_from_csv(bad)


def canonical(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=1) + "\n").encode()


def block(shape, start=0.1):
    return (start + np.arange(np.prod(shape)) / 7.0).reshape(shape).tolist()


class TestWriteJson:
    """write_json writes the bytes of json.dumps(obj, sort_keys=True, indent=1)."""

    @pytest.mark.parametrize("obj", [
        [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e16, 0.1],
        {"nan": float("nan"), "inf": float("inf"), "ninf": -float("inf"), "zero": -0.0},
        [0, -7, 2 ** 70, True, False, None],
        {"b": True, "a": None, "c": 3},
        ["é", "日本", '"q"', "back\\slash", "ctl\x00\x1f\n\t", "", "\ud83d"],
        {"é": 1.5, "\n": [1.0], "": {}},
        [], {}, [[]], [[], []], [{}], [[{}]], [[], [1.0]],
        [[1.0], [2.0, 3.0]],
        [[1.0, 2.0], (3.0, 4.0)],
        (1.0, 2.0), [(1.0, 2.0), (3.0, 4.0)], ((),),
        [np.float64(0.1), np.float64(-0.0), np.float64(1e16)],
        {"eps": list(np.array([0.5, 0.25, 0.125]))},
        [[np.float64(0.1), 0.2], [0.3, np.float64(0.4)]],
        [1.0, float("nan"), 2.0], [[1.0, 2.0], [float("inf"), 3.0]],
        [1.0, 2, 3.0], [[1.0, 2.0], [3, 4.0]], [1.0, True],
        [[1.5]], [[[0.25]]],
        block((3,)), block((2, 3)), block((8, 11, 2)), block((2, 1, 3, 2)),
        {"z": block((2, 2)), "a": {"y": block((3,)), "b": [block((1, 2)), "s"]}},
        3.5, float("nan"), 7, "top", None, True,
    ])
    def test_bytes_match_json(self, tmp_path, obj):
        path = tmp_path / "o.json"
        write_json(path, obj)
        assert path.read_bytes() == canonical(obj)

    # error: the key the TypeError must name, or None for json.dumps' own TypeError
    @pytest.mark.parametrize("obj, error", [
        pytest.param({1: 2.0, 2.5: [1.0], None: "n", True: 0}, "int: 1", id="obj0"),
        pytest.param({"a": {3: [1.0, 2.0]}}, "int: 3", id="obj1"),
        pytest.param({1: 1, "a": 2}, "int: 1", id="obj2"),
        pytest.param([np.int64(3)], None, id="obj3"),
        pytest.param({"k": np.int64(3)}, None, id="obj4"),
        pytest.param([1.0, np.bool_(True)], None, id="obj5"),
        pytest.param([object()], None, id="obj6"),
        pytest.param({"k": {1.0, 2.0}}, None, id="obj7"),
    ])
    def test_non_plain_input_behaves_as_json(self, tmp_path, obj, error):
        # a type json refuses raises json's TypeError; a non-str key, which
        # json would write as a string, raises a TypeError naming the key
        path = tmp_path / "o.json"
        with pytest.raises(TypeError) as got:
            write_json(path, obj)
        assert not path.exists()
        if error is None:
            with pytest.raises(TypeError) as want:
                json.dumps(obj, sort_keys=True, indent=1)
            assert str(got.value) == str(want.value)
        else:
            assert str(got.value) == f"keys must be str, not {error}"

    def test_circular_value_is_refused(self, tmp_path):
        loop = [1.0]
        loop.append(loop)
        inner = []
        inner.append(inner)
        circle = {}
        circle["a"] = [circle]
        # [inner, inner] would loop forever in the float-block scan without its guard
        for obj in (loop, [inner, inner], {"a": [[inner]]}, circle):
            with pytest.raises(RecursionError):
                write_json(tmp_path / "o.json", obj)
        assert not (tmp_path / "o.json").exists()

    SCALARS = (st.none() | st.booleans() | st.integers() | st.floats() | st.text()
               | st.floats(allow_nan=False, allow_infinity=False).map(np.float64))
    BLOCKS = st.lists(st.integers(1, 3), min_size=1, max_size=3).flatmap(
        lambda shape: st.lists(st.floats(allow_nan=False, allow_infinity=False),
                               min_size=int(np.prod(shape)), max_size=int(np.prod(shape)))
        .map(lambda v: np.reshape(np.array(v, dtype=float), shape).tolist()))
    VALUES = st.recursive(
        SCALARS | BLOCKS,
        lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
                       | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
        max_leaves=24)

    @settings(derandomize=True, deadline=None, max_examples=200, database=None)
    @given(obj=VALUES)
    def test_property_bytes_match_json(self, tmp_path_factory, obj):
        path = tmp_path_factory.getbasetemp() / "property.json"   # rewritten per example
        write_json(path, obj)
        assert path.read_bytes() == canonical(obj)


class TestForward:
    def test_zero_operator_at_alpha_zero(self, unit_gauss):
        sig = fs.gaussian_signal(1.0, 256, 6.0)
        x = np.linspace(-2, 2, 9)
        xi = symmetric_log_xi_axis(0.5, 2.0, 4)
        grid = frst_forward(fs.make_frac_param(0.0), unit_gauss, sig, x, xi)
        assert np.all(grid.values == 0)
        grid_d = frst_forward(fs.make_frac_param(0.0), unit_gauss, DD.delta(), x, xi)
        assert np.all(grid_d.values == 0)

    def test_alpha_pi_rejected(self, unit_gauss):
        sig = fs.gaussian_signal(1.0, 256, 6.0)
        with pytest.raises(fs.SingularAngle):
            frst_forward(fs.make_frac_param(np.pi), unit_gauss, sig,
                         np.linspace(-1, 1, 5), symmetric_log_xi_axis(0.5, 2.0, 4))

    def test_sampling_guard_counts_the_carrier(self, p_half):
        # the carrier (2 pi/dt - 2)/4 at |xi| = 4 aliases onto frequency -2
        sig = fs.gaussian_signal(1.0, 3072, 12.0)
        g = window_by_name(f"modulated:hermite1:{float(2 * np.pi / sig.dt - 2) / 4!r}")
        with pytest.raises(fs.UndersampledChirp):
            frst_forward(p_half, g, sig, np.linspace(-1, 1, 3), np.array([-4.0, 4.0]))

    def test_classical_st_special_case(self, p_half, unit_gauss):
        sig = fs.gaussian_signal(1.0, 512, 8.0)
        x = np.linspace(-2, 2, 9)
        xi = symmetric_log_xi_axis(0.5, 4.0, 6)
        grid = frst_forward(p_half, unit_gauss, sig, x, xi)
        oracle = stockwell_oracle(unit_gauss, sig, x, xi)
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(grid.values - oracle)) / scale < 1e-8

    def test_st_point_of_delta(self, hermite):
        # alpha = pi/2: |xi| conj(g(-xi x)) / sqrt(2 pi), g(t) = -t e^{-t^2/2}
        for x, xi in [(0.7, 1.3), (-1.2, 0.4), (0.5, -2.5)]:
            u = x * xi
            want = abs(xi) / np.sqrt(2 * np.pi) * u * np.exp(-u * u / 2)
            assert_allclose(fs.st_point(hermite, DD.delta(), x, xi), want, rtol=1e-14, atol=0)

    def test_delta_closed_form(self, p_third, hermite):
        rng = np.random.default_rng(11)
        for _ in range(100):
            x = rng.uniform(-2, 2)
            xi = rng.choice([-1, 1]) * rng.uniform(0.3, 4.0)
            got = frst_point(p_third, hermite, DD.delta(), x, xi)
            expected = (abs(xi) * p_third.c_alpha
                        * np.conj(hermite.eval(np.array([-xi * x]))[0])
                        * np.exp(1j * p_third.c1 * xi * xi / 2))
            assert abs(got - expected) < 1e-12 * max(1.0, abs(expected))

        # descriptor grids: a three-term comb over both xi signs, per cell
        # sum_j w_j |xi| C_a conj(g(xi (a_j - x))) e^{i (c1 (a_j^2 + xi^2)/2 - c2 a_j xi)}
        terms = [(-0.7, 0, 1.5), (0.2, 0, -0.5 + 2.0j), (1.1, 0, 0.8j)]
        comb = DD.delta_comb(terms)
        x = np.linspace(-2.0, 2.0, 7)
        xi = symmetric_log_xi_axis(0.3, 4.0, 5)
        X, XI = np.meshgrid(x, xi, indexing="ij")
        for alpha in (np.pi / 3, 4.0):
            p = fs.make_frac_param(alpha)
            grid = frst_forward(p, hermite, comb, x, xi)
            expected = sum(
                w * np.abs(XI) * p.c_alpha * np.conj(hermite.eval(XI * (a - X)))
                * np.exp(1j * (0.5 * p.c1 * (a * a + XI * XI) - p.c2 * a * XI))
                for a, _, w in terms)
            assert_allclose(grid.values, expected, rtol=1e-12, atol=0)

        # the batched grid against per-cell points, combs of order 0..4, also
        # for a window whose carrier varies 20 times faster than its envelope
        x = np.linspace(-2.0, 2.0, 24)
        xi = symmetric_log_xi_axis(0.3, 4.0, 6)
        for alpha in (np.pi / 3, 4.0):
            p = fs.make_frac_param(alpha)
            for g in (hermite, window_by_name("modulated:hermite1:20")):
                for order in range(5):
                    comb = DD.delta_comb([(a, order, w) for a, _, w in terms])
                    grid = frst_forward(p, g, comb, x, xi).values
                    cells = np.array([[frst_point(p, g, comb, a, b) for b in xi] for a in x])
                    err = np.max(np.abs(grid - cells)) / np.max(np.abs(cells))
                    assert err <= 1e-13, (alpha, g.name, order, err)

    def test_rez1_lhs_covariance_paths(self, p_third, hermite):
        # closed-form delta formula vs the generic pairing path for the
        # gauge-prefactored transform, at random probes and scales
        rng = np.random.default_rng(12)
        for _ in range(100):
            x = rng.uniform(-2, 2)
            xi = rng.choice([-1, 1]) * rng.uniform(0.3, 3.0)
            eps = rng.uniform(2.0 ** -10, 0.5)
            X, XI = eps * x, xi / eps
            paired = frst_point(p_third, hermite, DD.delta(), X, XI, drop_xi_chirp=True)
            closed = (abs(XI) * p_third.c_alpha
                      * np.conj(hermite.eval(np.array([-XI * X]))[0]))
            assert abs(paired - closed) <= 1e-12 * max(1.0, abs(closed))

    def test_global_phase_invariance(self, p_third, hermite):
        sig = fs.gaussian_signal(1.0, 512, 8.0)
        rot = fs.SampledSignal(sig.t0, sig.dt, sig.samples * np.exp(0.7j))
        x = np.linspace(-2, 2, 7)
        xi = symmetric_log_xi_axis(0.5, 2.0, 5)
        a = frst_forward(p_third, hermite, sig, x, xi)
        b = frst_forward(p_third, hermite, rot, x, xi)
        assert_allclose(np.abs(a.values), np.abs(b.values), rtol=1e-12)

    def test_linearity(self, p_third, hermite):
        s1 = fs.gaussian_signal(1.0, 512, 8.0)
        s2 = fs.gaussian_signal(0.5, 512, 8.0)
        mix = fs.SampledSignal(s1.t0, s1.dt, 2.0 * s1.samples - 1.5j * s2.samples)
        x = np.linspace(-2, 2, 7)
        xi = symmetric_log_xi_axis(0.5, 2.0, 5)
        gm = frst_forward(p_third, hermite, mix, x, xi).values
        g1 = frst_forward(p_third, hermite, s1, x, xi).values
        g2 = frst_forward(p_third, hermite, s2, x, xi).values
        assert_allclose(gm, 2.0 * g1 - 1.5j * g2, atol=1e-12)

    def test_distribution_grid_matches_smooth_density(self, hermite):
        # the grid kernels on a signal against trapezoid pairings of the
        # signal with each cell's probe
        sig = fs.gaussian_signal(1.0, 2048, 8.0)
        x = np.linspace(-1, 1, 3)
        for alpha in (np.pi / 3, 4.0):
            p = fs.make_frac_param(alpha)
            for forward, params, xi in (
                    (frst_forward, lambda a, b: _frst_params(p, a, b, False),
                     symmetric_log_xi_axis(0.5, 1.0, 2)),
                    (fs.frwt_forward, lambda a, b: _frwt_params(p, a, b),
                     fs.positive_log_xi_axis(0.5, 2.0, 3))):
                by_grid = forward(p, hermite, sig, x, xi).values
                by_cells = np.array([[trapezoid_pairing(sig, _integrand_probe(
                    p, hermite, *params(a, b))) for b in xi] for a in x])
                assert np.max(np.abs(by_grid - by_cells)) < 1e-12, (alpha, forward.__name__)


class TestSignalCells:
    """A signal at any family of cells goes through the spectral kernel.
    Oracle: the trapezoid pairing of the signal with each cell's probe,
    within 2e-15 of its largest value."""

    SIG = fs.gaussian_signal(1.0, 1024, 12.0, modulation=1.5)

    def oracle(self, p, g, params, x, xi):
        return np.array([trapezoid_pairing(self.SIG, _integrand_probe(p, g, *params(a, b)))
                         for a, b in zip(np.ravel(x), np.ravel(xi))]).reshape(np.shape(x))

    @pytest.mark.parametrize("alpha", [np.pi / 3, 1.0, 4.0])
    def test_cells_match_trapezoid(self, alpha, hermite):
        p = fs.make_frac_param(alpha)
        rng = np.random.default_rng(41)
        # unsorted x with a repeated value, both signs of xi, and the last
        # cell beyond the signal's reach
        x = rng.uniform(-3, 3, 24)
        x[8:12] = x[3]
        x[-1] = 40.0
        xi = rng.uniform(0.3, 4.0, 24) * rng.choice([-1, 1], 24)
        X, XI = x[:4, None], xi[None, :3]
        for cells, params, xs, xis in (
                (lambda a, b: fs.frst.frst_point(p, hermite, self.SIG, a, b),
                 lambda a, b: _frst_params(p, a, b, False), x, xi),
                (lambda a, b: fs.frwt.frwt_point(p, hermite, self.SIG, a, b),
                 lambda a, b: _frwt_params(p, a, b), x, np.abs(xi)),
                (lambda a, b: fs.frst.frst_point(p, hermite, self.SIG, a, b),
                 lambda a, b: _frst_params(p, a, b, False), X, XI)):
            want = self.oracle(p, hermite, params, *np.broadcast_arrays(xs, xis))
            got = cells(xs, xis)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 2e-15 * np.max(np.abs(want))
        assert fs.frst.frst_point(p, hermite, self.SIG, 40.0, 1.0) == 0

    def test_single_cells(self, p_third, hermite):
        for x, xi in ((0.3, 1.2), (-1.1, -0.6), (2.0, 3.5)):
            want = self.oracle(p_third, hermite, lambda a, b: _frst_params(p_third, a, b, False),
                               x, xi)
            assert abs(frst_point(p_third, hermite, self.SIG, x, xi) - want) <= 2e-15 * abs(want)
            s = abs(xi)
            want = self.oracle(fs.CLASSICAL_FT_PARAM, hermite,
                               lambda a, b: _frwt_params(fs.CLASSICAL_FT_PARAM, a, b), x, s)
            assert abs(fs.wt_point(hermite, self.SIG, x, s) - want) <= 2e-15 * abs(want)

    def test_empty_cells(self, p_third, hermite):
        none = np.array([])
        assert fs.frst.frst_point(p_third, hermite, self.SIG, none, none).shape == (0,)
        assert fs.frwt.frwt_point(p_third, hermite, self.SIG, none[:, None],
                                  np.ones((1, 3))).shape == (0, 3)

    @pytest.mark.parametrize("alpha", [np.pi / 6, np.pi / 3, 4.0])
    def test_bridge_sides_match_trapezoid(self, alpha, hermite):
        p = fs.make_frac_param(alpha)
        pts = [(a, b) for a in np.linspace(-2, 2, 8) for b in np.linspace(0.5, 4.0, 8)]
        rep = fs.frst_frwt_bridge(p, hermite, self.SIG, pts)
        x, xi = np.array(pts).T
        lhs = self.oracle(p, hermite, lambda a, b: _frst_params(p, a, b, True), x, xi)
        w = self.oracle(p, fs.modulate(hermite, p.c2), lambda a, b: _frwt_params(p, a, 1.0 / b),
                        x, xi)
        rhs = np.sqrt(xi) * p.c_alpha * np.exp(1j * (0.5 * p.c1 * x * x - p.c2 * x * xi)) * w
        for got, want in ((rep.lhs, lhs), (rep.rhs, rhs)):
            assert np.max(np.abs(np.array(got) - want)) <= 1e-15 * np.max(np.abs(want))

    def test_unresolved_cells_refused(self, p_third, hermite):
        # the probe's band 2 |xi| SUPPORT_RADII/width against 2 pi/dt
        limit = np.pi / (self.SIG.dt * SUPPORT_RADII)
        assert np.isfinite(frst_point(p_third, hermite, self.SIG, 0.0, 0.99 * limit))
        with pytest.raises(fs.UndersampledChirp):
            frst_point(p_third, hermite, self.SIG, 0.0, 1.01 * limit)
        with pytest.raises(fs.UndersampledChirp):
            fs.wt_point(hermite, self.SIG, 0.0, 1.0 / (1.01 * limit))

    @pytest.mark.parametrize("x, xi", [(np.nan, 1.0), (np.inf, 1.0), (0.0, np.nan), (0.0, np.inf)])
    def test_non_finite_cells_refused(self, p_third, hermite, x, xi):
        # the kernel's reach would drop such a cell and return 0
        with pytest.raises(ValueError, match="finite"):
            frst_point(p_third, hermite, self.SIG, x, xi)

    @pytest.mark.parametrize("f", [DD.delta(), DD.homogeneous("abs", 0.5)], ids=["delta", "sqrt-abs"])
    @pytest.mark.parametrize("x, xi", [(np.nan, 1.0), (np.inf, 1.0), (-np.inf, 1.0),
                                       (0.0, np.nan), (0.0, np.inf), (0.0, -np.inf)])
    def test_non_finite_cells_refused_for_descriptors(self, hermite, f, x, xi):
        # the same refusal as a signal's: no 0j, NaN or numpy warning
        p = fs.make_frac_param(1.0)
        with pytest.raises(ValueError, match="^cells need a finite x and xi$"):
            frst_point(p, hermite, f, x, xi)
        with pytest.raises(ValueError, match="^cells need a finite x and xi$"):
            frst_point(p, hermite, f, np.array([0.5, x]), np.array([1.0, xi]), drop_xi_chirp=True)


class TestCombDerivatives:
    """Delta combs of order 1..4 against mpmath derivatives of the probe.

    The probes are t -> amp conj(g((t - x) d)) e^{i (c1 t^2/2 - omega t)};
    WINDOWS holds u -> conj(g(u)) as an analytic function of u, so
    <delta^(k)(. - a), phi> = (-1)^k phi^(k)(a) is differentiated in 40-digit
    arithmetic from the probe itself, not from its Gaussian form, and is the
    oracle of ``GaussianForm.derivative``.  The modulated window varies 20
    times faster than its envelope.
    """

    WINDOWS = {"hermite1": lambda u: -u * mp.exp(-u * u / 2),
               "mexican-hat": lambda u: (1 - u * u) * mp.exp(-u * u / 2),
               "modulated:hermite1:20": lambda u: -u * mp.exp(-u * u / 2 - 20j * u)}
    # (comb terms, cells x, FRST scales, FRWT scales, bound).  The second set
    # sits at |x| ~ 4 with |xi| = 16 (FRWT 1/16), where a probe's exponent
    # about the origin, s x^2/2 with s = (xi/w)^2, reaches ~2000: a form
    # about the origin was 7e-13 off there.  Its 1.2e-14 is the rounding of
    # the probes' chirp phases, which order 0, read from the probe's fn,
    # shares at 8.8e-15.
    SETS = [([(0.6, 1.0), (-1.3, 0.5 - 0.25j)], np.array([-1.5, -0.5, 0.5, 1.5]),
             symmetric_log_xi_axis(0.25, 4.0, 3), fs.positive_log_xi_axis(0.25, 4.0, 4), 1e-14),
            ([(3.9, 1.0), (-4.1, 0.5 - 0.25j)], np.array([-4.1, -3.97, 3.9, 4.03]),
             np.array([-16.0, -8.0, 8.0, 16.0]), np.array([1 / 16, 1 / 8]), 2.5e-14)]

    def _oracle(self, p, g, order, terms, x_axis, xi_axis, frst):
        c1, c2 = mp.mpf(p.c1), mp.mpf(p.c2)
        out = np.empty((x_axis.size, xi_axis.size), complex)
        for i, x in enumerate(map(mp.mpf, x_axis)):
            for j, xi in enumerate(map(mp.mpf, xi_axis)):
                if frst:
                    amp = abs(xi) * mp.mpc(p.c_alpha) * mp.expj(c1 * xi * xi / 2)
                    d, omega = xi, c2 * xi
                else:
                    amp = xi ** -0.5 * mp.expj(-c1 * x * x / 2)
                    d, omega = 1 / xi, 0

                def phi(t):
                    return amp * g((t - x) * d) * mp.expj(c1 * t * t / 2 - omega * t)

                out[i, j] = complex(sum(mp.mpc(w) * (-1) ** order * mp.diff(phi, mp.mpf(a), order)
                                        for a, w in terms))
        return out

    @pytest.mark.parametrize("window", ["hermite1", "mexican-hat", "modulated:hermite1:20"])
    @pytest.mark.parametrize("alpha", [1.0, np.pi / 3, 4.0])
    def test_orders_one_to_four_match_mpmath(self, alpha, window):
        p = fs.make_frac_param(alpha)
        g = window_by_name(window)
        for terms, x, frst_xi, frwt_xi, bound in self.SETS:
            for order in (1, 2, 3, 4):
                comb = DD.delta_comb([(a, order, w) for a, w in terms])
                for forward, xi, frst in ((frst_forward, frst_xi, True),
                                          (fs.frwt_forward, frwt_xi, False)):
                    got = forward(p, g, comb, x, xi).values
                    with mp.workdps(40):
                        want = self._oracle(p, self.WINDOWS[window], order, terms, x, xi, frst)
                    err = np.max(np.abs(got - want)) / np.max(np.abs(want))
                    assert err <= bound, (x[0], order, forward.__name__, err)


class TestSynthesis:
    def _small_grid(self, p, g):
        sig = fs.gaussian_signal(1.0, 512, 8.0)
        x = np.linspace(-4, 4, 33)
        xi = symmetric_log_xi_axis(0.5, 4.0, 12)
        return frst_forward(p, g, sig, x, xi)

    def test_zero_grid(self, p_third, hermite):
        x = np.linspace(-2, 2, 9)
        xi = symmetric_log_xi_axis(0.5, 2.0, 5)
        F = fs.TFGrid(x, xi, np.zeros((9, 10), complex), {})
        out = frst_synthesis(p_third, hermite, F, np.linspace(-1, 1, 11))
        assert np.all(out == 0)

    def test_linearity_in_grid(self, p_third, hermite):
        F = self._small_grid(p_third, hermite)
        t = np.linspace(-2, 2, 21)
        one = frst_synthesis(p_third, hermite, F, t)
        two = frst_synthesis(
            p_third, hermite,
            fs.TFGrid(F.x_axis, F.xi_axis, 2.0 * F.values, F.meta), t)
        assert_allclose(two, 2.0 * one, rtol=1e-12)

    def test_singular_angle(self, hermite):
        F = self._small_grid(fs.make_frac_param(np.pi / 3), hermite)
        with pytest.raises(fs.SingularAngle):
            frst_synthesis(fs.make_frac_param(0.0), hermite, F, np.linspace(-1, 1, 5))

    def test_grid_too_coarse(self, p_third, hermite):
        x = np.linspace(-1, 1, 2)
        xi = np.array([0.5, -0.5][::-1])
        F = fs.TFGrid(x, xi, np.zeros((2, 2), complex), {})
        with pytest.raises(fs.GridTooCoarse):
            frst_synthesis(p_third, hermite, F, np.linspace(-1, 1, 5))


def log_trapezoid_weights(xi_axis):
    """d xi weights per sign branch: trapezoid in log|xi| times |xi|."""
    w = np.zeros(xi_axis.size)
    for branch in (np.flatnonzero(xi_axis < 0), np.flatnonzero(xi_axis > 0)):
        for a, b in zip(branch[:-1], branch[1:]):
            h = abs(np.log(abs(xi_axis[b])) - np.log(abs(xi_axis[a])))
            w[a] += 0.5 * h
            w[b] += 0.5 * h
    return w * np.abs(xi_axis)


def x_trapezoid_weights(x_axis):
    w = np.zeros(x_axis.size)
    for a in range(x_axis.size - 1):
        w[a] += 0.5 * (x_axis[a + 1] - x_axis[a])
        w[a + 1] += 0.5 * (x_axis[a + 1] - x_axis[a])
    return w


def negated(p):
    """Parameters of the inverse kernel K_{-alpha}."""
    p.require_regular("kernel negation")
    return fs.FracParam(alpha=(2.0 * np.pi - p.alpha) % (2.0 * np.pi), c1=-p.c1, c2=-p.c2,
                        c_alpha=np.conj(p.c_alpha), kind=fs.AngleKind.REGULAR)


def frst_synthesis_oracle(p, g, F, t):
    """|sin a| * sum_ij F(x_i, xi_j) g(xi_j (t - x_i)) K_{-a}(t, xi_j) w_i w_j,
    the module docstring's synthesis written as a plain double loop."""
    wx = x_trapezoid_weights(F.x_axis)
    wxi = log_trapezoid_weights(F.xi_axis)
    out = np.zeros(t.size, complex)
    for i, x in enumerate(F.x_axis):
        for j, xi in enumerate(F.xi_axis):
            out += (F.values[i, j] * g.eval(xi * (t - x))
                    * fs.kernel_eval(negated(p), t, xi) * wx[i] * wxi[j])
    return abs(np.sin(p.alpha)) * out


class TestSynthesisOracle:
    @pytest.mark.parametrize("alpha", [np.pi / 3, 4.0])
    def test_matches_double_loop(self, alpha, hermite):
        p = fs.make_frac_param(alpha)
        rng = np.random.default_rng(41)
        x = np.linspace(-3, 3, 7)
        xi = symmetric_log_xi_axis(0.5, 3.0, 4)
        vals = rng.normal(size=(7, 8)) + 1j * rng.normal(size=(7, 8))
        F = fs.TFGrid(x, xi, vals, {})
        t = np.linspace(-4, 4, 41)
        got = frst_synthesis(p, hermite, F, t)
        want = frst_synthesis_oracle(p, hermite, F, t)
        assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))


def correlate_oracle(g, t, x, d, omega, h):
    """C[i, j] = sum_k conj(g(d_j (t_k - x_i))) e^{-i omega_j t_k} h_k from
    the full window matrix of every column."""
    out = np.empty((x.size, d.size), complex)
    for j in range(d.size):
        gm = g.eval((t[None, :] - x[:, None]) * d[j])
        out[:, j] = np.conj(gm) @ (h * np.exp(-1j * omega[j] * t))
    return out


def spread_oracle(g, t, x, d, omega, H):
    """s(t_k) = sum_j e^{i omega_j t_k} sum_i g(d_j (t_k - x_i)) H[i, j]."""
    out = np.zeros(t.size, complex)
    for j in range(d.size):
        out += np.exp(1j * omega[j] * t) * (g.eval((t[:, None] - x[None, :]) * d[j]) @ H[:, j])
    return out


KERNEL_WINDOWS = ["hermite1", "mexican-hat", "gauss", "dog:6", "modulated:dog:6:-1.3",
                  "modulated:mexican-hat:4.0", "dilated:hermite1:0.3", "dilated:gauss:2.5",
                  "dilated:modulated:hermite1:2.5:0.5", "modulated:dilated:mexican-hat:2.0:-3.0"]


class TestBandedKernels:
    """The spectral kernels against full window matrices (the name is that of
    the banded kernels they replaced)."""

    @settings(derandomize=True, deadline=None, max_examples=80, database=None)
    @given(window=st.sampled_from(KERNEL_WINDOWS),
           x_kind=st.sampled_from(["non-uniform", "one", "two", "uniform"]),
           n_x=st.integers(3, 48),
           n_t=st.sampled_from([40, 321, 1000]),
           log2_d=st.lists(st.floats(-5.0, 4.0), min_size=2, max_size=6),
           flip=st.lists(st.booleans(), min_size=6, max_size=6),
           c=st.floats(-2.0, 2.0),
           seed=st.integers(0, 2 ** 16))
    def test_match_dense(self, window, x_kind, n_x, n_t, log2_d, flip, c, seed):
        # support radii 10 decay scales / |d| run from below one t step to
        # far beyond the [-9, 9] grid
        g = window_by_name(window)
        rng = np.random.default_rng(seed)
        t = np.linspace(-9.0, 9.0, n_t)
        x = {"non-uniform": np.sort(rng.uniform(-14.0, 14.0, n_x)),
             "one": rng.uniform(-10.0, 10.0, 1),
             "two": np.sort(rng.uniform(-10.0, 10.0, 2)),
             "uniform": np.linspace(-12.0, 12.0, n_x)}[x_kind]
        d = np.array([(-1.0 if s else 1.0) * 2.0 ** v for v, s in zip(log2_d, flip)])
        omega = c * d
        h = rng.normal(size=n_t) + 1j * rng.normal(size=n_t)
        got = _correlate(g, t, x, d, omega, h)
        want = correlate_oracle(g, t, x, d, omega, h)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        if x.size < 2:
            return
        H = rng.normal(size=(x.size, d.size)) + 1j * rng.normal(size=(x.size, d.size))
        ts = rng.permutation(t)   # synthesis accepts t in any order
        got = _spread(g, ts, x, d, omega, H)
        want = spread_oracle(g, ts, x, d, omega, H)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestSpectralKernel:
    """The spectral kernel's parts against their dense forms, at the geometry
    of test_round_trip_admissible_pair: N = 320 on [-9, 9], x on [-20, 20]."""

    @pytest.mark.parametrize("adjoint", [False, True])
    @pytest.mark.parametrize("n_x, n", [(3, 31), (4, 2941), (127, 40), (704, 2941)])
    def test_chirp_z_matches_dense_sum(self, adjoint, n_x, n):
        ld = np.longdouble
        rng = np.random.default_rng(n_x + n)
        delta = TWO_PI_LD / (ld(1024) * ld(18.0 / 319.0))
        x = np.linspace(-20.0, 20.0, n_x)   # rounded off its progression
        xs = x.astype(ld) + 9.0
        size = (3, n_x if adjoint else n)
        v = rng.normal(size=size) + 1j * rng.normal(size=size)
        want = _LatticeSum(delta, n, xs, None)(v, adjoint)
        got = _LatticeSum(delta, n, xs, _uniform_step(x))(v, adjoint)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("window, c, case", [
        ("mexican-hat", 1.1547005383792517, "wide band"),
        ("modulated:mexican-hat:4.0", 12.0, "long phases")])
    def test_kernels_match_dense(self, window, c, case):
        g = window_by_name(window)
        rng = np.random.default_rng(7)
        t = np.linspace(-9.0, 9.0, 320)
        x = np.linspace(-20.0, 20.0, 704)
        d = np.array([-16.0, -3.0, 0.25, 16.0])
        omega = c * d
        band = 2.0 * np.abs(d) * SUPPORT_RADII / g.width   # each column's band in mu
        top = np.abs(omega) + np.abs(d) * (abs(g.carrier) + SUPPORT_RADII / g.width)
        if case == "wide band":
            period = 2.0 * np.pi / (t[1] - t[0])
            assert np.any(band > 2 * period)   # a band spans the DTFT period twice
        else:
            assert np.max(top) * np.max(np.abs(x)) > 8000.0   # phases in radians
        h = rng.normal(size=t.size) + 1j * rng.normal(size=t.size)
        got = _correlate(g, t, x, d, omega, h)
        want = correlate_oracle(g, t, x, d, omega, h)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        H = rng.normal(size=(x.size, d.size)) + 1j * rng.normal(size=(x.size, d.size))
        got = _spread(g, t, x, d, omega, H)
        want = spread_oracle(g, t, x, d, omega, H)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_uneven_t_sums_densely(self):
        g = window_by_name("modulated:dog:6:-1.3")
        rng = np.random.default_rng(8)
        t = np.sort(rng.uniform(-9.0, 9.0, 200))
        x = np.linspace(-12.0, 12.0, 40)
        d = np.array([-4.0, 0.5, 2.0])
        omega = 1.2 * d
        assert _kernel_meta(g, t, x, d)["t_sum"] == "dense"
        h = rng.normal(size=t.size) + 1j * rng.normal(size=t.size)
        got = _correlate(g, t, x, d, omega, h)
        want = correlate_oracle(g, t, x, d, omega, h)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        H = rng.normal(size=(x.size, d.size)) + 1j * rng.normal(size=(x.size, d.size))
        ts = rng.permutation(t)
        got = _spread(g, ts, x, d, omega, H)
        want = spread_oracle(g, ts, x, d, omega, H)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("window, t", [
        ("gauss:0.01", np.array([0.0, 0.05])),
        ("modulated:gauss:0.02:40.0", np.array([-0.1, -0.07, 0.0, 0.04, 0.13, 0.2]))])
    def test_short_t_spans(self, window, t):
        # t that is not uniform and spans well below 1: the period P of
        # the dense sums falls below 1 too
        g = window_by_name(window)
        rng = np.random.default_rng(9)
        x = np.linspace(-0.05, 0.05, 5)
        d = np.array([-3.0, 1.0, 2.0])
        omega = 0.7 * d
        assert np.max(_kernel_plan(g, t, x, d)[2]) < 1.0
        h = rng.normal(size=t.size) + 1j * rng.normal(size=t.size)
        got = _correlate(g, t, x, d, omega, h)
        want = correlate_oracle(g, t, x, d, omega, h)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        H = rng.normal(size=(x.size, d.size)) + 1j * rng.normal(size=(x.size, d.size))
        got = _spread(g, t, x, d, omega, H)
        want = spread_oracle(g, t, x, d, omega, H)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_two_sample_signal_grid(self):
        sig = fs.SampledSignal(0.0, 0.05, np.array([1.0, 2.0]))
        xi = symmetric_log_xi_axis(1.0, 2.0, 2)
        grid = frst_forward(fs.make_frac_param(1.0), window_by_name("gauss:0.01"), sig,
                            np.linspace(-0.05, 0.05, 5), xi, enforce_sampling=False)
        assert np.all(np.isfinite(grid.values))
        assert grid.meta["kernel"]["t_sum"] == "dense"

    @pytest.mark.parametrize("x", [np.linspace(-1e5, 1e5, 129), np.linspace(-1e3, 1e3, 2001)])
    def test_x_axis_mostly_outside_the_signal(self, hermite, x):
        # only the x within reach of the signal enter the sums, so the
        # periods stay at the signal's span and the window's
        rng = np.random.default_rng(10)
        t = np.linspace(-8.0, 8.0, 256)
        d = np.array([-8.0, -1.0, 0.5, 8.0])
        omega = 1.3 * d
        r = hermite.support_radius / 0.5
        tk, xk, periods = _kernel_plan(hermite, t, x, d)
        assert np.all(np.abs(x[xk]) <= 8.0 + r) and x[xk].size < 60
        assert np.max(periods) <= 2.0 * (16.0 + 3.0 * r)
        h = rng.normal(size=t.size) + 1j * rng.normal(size=t.size)
        got = _correlate(hermite, t, x, d, omega, h)
        want = correlate_oracle(hermite, t, x, d, omega, h)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        H = rng.normal(size=(x.size, d.size)) + 1j * rng.normal(size=(x.size, d.size))
        got = _spread(hermite, t, x, d, omega, H)
        want = spread_oracle(hermite, t, x, d, omega, H)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_axes_out_of_reach(self, hermite):
        t = np.linspace(-8.0, 8.0, 256)
        x = np.array([-1e5, 1e5])
        d = np.array([0.5, 2.0])
        assert _kernel_meta(hermite, t, x, d)["periods"] == []
        assert not np.any(_correlate(hermite, t, x, d, d, np.ones(t.size, complex)))
        assert not np.any(_spread(hermite, t, x, d, d, np.ones((2, 2), complex)))

    def test_signal_grid_meta_records_the_kernel(self, p_third, hermite):
        sig = fs.gaussian_signal(1.0, 256, 8.0)
        xi = symmetric_log_xi_axis(0.5, 2.0, 4)
        uneven = frst_forward(p_third, hermite, sig, np.array([-1.0, 0.0, 2.5]), xi)
        even = frst_forward(p_third, hermite, sig, np.linspace(-2.0, 2.0, 5), xi)
        assert uneven.meta["kernel"]["x_sum"] == "dense"
        assert even.meta["kernel"] == {"route": "spectral", "t_sum": "chirp-z",
                                       "x_sum": "chirp-z", "periods": [16.0, 32.0]}

    def test_peak_memory(self, p_third, mexican):
        # invert-frst's geometry: the working set beyond the output stays
        # within a few KERNEL_BLOCK_ELEMENTS buffers, whatever the grid size
        psi = window_by_name(f"modulated:dog:6:{-float(p_third.c2)!r}")
        t = np.linspace(-9.0, 9.0, 320)
        x = np.linspace(-20.0, 20.0, 704)
        xi = symmetric_log_xi_axis(2.0 ** -4, 2.0 ** 4, 72)
        h = np.exp(4j * t - t * t / 2.0)
        bound = 8 * KERNEL_BLOCK_ELEMENTS * 16
        _correlate(mexican, t, x, xi, p_third.c2 * xi, h)   # warm numpy's FFT caches
        tracemalloc.start()
        try:
            C = _correlate(mexican, t, x, xi, p_third.c2 * xi, h)
            correlate_peak = tracemalloc.get_traced_memory()[1] - C.nbytes
            tracemalloc.reset_peak()
            _spread(psi, t, x, xi, p_third.c2 * xi, C)
            spread_peak = tracemalloc.get_traced_memory()[1] - C.nbytes
        finally:
            tracemalloc.stop()
        assert correlate_peak <= bound, correlate_peak
        assert spread_peak <= bound, spread_peak


class TestReconstruction:
    def test_divergent_pair_refused(self, p_third, hermite):
        sig = fs.gaussian_signal(1.0, 512, 8.0)
        x = np.linspace(-8, 8, 64)
        xi = symmetric_log_xi_axis(2.0 ** -3, 2.0 ** 3, 48)
        with pytest.raises(fs.DivergentAdmissibility):
            frst_reconstruct(p_third, hermite, hermite, sig, x, xi)

    def test_round_trip_admissible_pair(self, p_third, mexican):
        # band-passed signal + reconstruction window with a high-order
        # spectral zero at -c2: the truncated-grid composition reaches the
        # spec tolerance for fractional alpha
        psi = window_by_name(f"modulated:dog:6:{-p_third.c2}")
        sig = modulated_gaussian(1.3, 640, 9.0)
        x = np.linspace(-20, 20, 704)
        xi = symmetric_log_xi_axis(2.0 ** -4, 2.0 ** 4, 144)
        rep = frst_reconstruct(p_third, mexican, psi, sig, x, xi,
                               enforce_sampling=False)
        assert rep.rel_l2 <= 1e-3, rep.rel_l2

    def test_refinement_ladder_classical_angle(self, mexican):
        # one resolution doubling at alpha = pi/2; everything else fixed
        p = fs.CLASSICAL_FT_PARAM
        psi = window_by_name("modulated:dog:6:-1")
        errs = []
        for nx, nxi, n in ((300, 96, 384), (600, 192, 768)):
            sig = modulated_gaussian(1.0, n, 8.0)
            x = np.linspace(-20, 20, nx)
            xi = symmetric_log_xi_axis(2.0 ** -4, 2.0 ** 4, nxi)
            rep = frst_reconstruct(p, mexican, psi, sig, x, xi,
                                   enforce_sampling=False)
            errs.append(rep.rel_l2)
        assert errs[1] <= errs[0] / 4.0, errs
        assert errs[1] <= 1e-3, errs

    def test_zero_signal(self, p_third, mexican):
        psi = window_by_name(f"modulated:dog:6:{-p_third.c2}")
        sig = fs.SampledSignal(-4.0, 0.05, np.zeros(161, complex))
        x = np.linspace(-4, 4, 33)
        xi = symmetric_log_xi_axis(0.5, 4.0, 16)
        rep = frst_reconstruct(p_third, mexican, psi, sig, x, xi)
        assert np.all(rep.reconstructed == 0)

    @staticmethod
    def _invert_frst(p):
        """(psi, signal, x, xi) of the invert-frst benchmark job's geometry."""
        psi = window_by_name(f"modulated:dog:6:{-float(p.c2)!r}")
        return (psi, modulated_gaussian(1.0, 320, 9.0), np.linspace(-20.0, 20.0, 704),
                symmetric_log_xi_axis(2.0 ** -4, 2.0 ** 4, 72))

    def test_peak_memory_holds_one_grid(self, p_third, mexican):
        # synthesis weights the forward grid in place: beyond that one grid
        # the round trip stays within the kernels' own bound (test_peak_memory)
        psi, sig, x, xi = self._invert_frst(p_third)
        peak = traced_peak(lambda: frst_reconstruct(p_third, mexican, psi, sig, x, xi,
                                                    enforce_sampling=False))
        beyond = peak - x.size * xi.size * np.dtype(complex).itemsize
        assert beyond <= 8 * KERNEL_BLOCK_ELEMENTS * 16, beyond

    def test_reconstructed_is_synthesis_of_forward(self, p_third, mexican):
        psi, sig, x, xi = self._invert_frst(p_third)
        rep = frst_reconstruct(p_third, mexican, psi, sig, x, xi, enforce_sampling=False)
        F = frst_forward(p_third, mexican, sig, x, xi, enforce_sampling=False)
        const = admissibility_cgpsi(mexican, psi, p_third.c2).value
        assert np.array_equal(rep.reconstructed, frst_synthesis(p_third, psi, F, sig.t_grid) / const)

    def test_synthesis_leaves_grid_unchanged(self, p_third, mexican):
        psi, sig, x, xi = self._invert_frst(p_third)
        F = frst_forward(p_third, mexican, sig, x, xi, enforce_sampling=False)
        before = F.values.copy()
        frst_synthesis(p_third, psi, F, sig.t_grid)
        assert np.array_equal(F.values, before)


class TestCompositionConstant:
    def test_composition_matches_admissibility(self, p_third, mexican):
        # synthesis(forward) ~ C_{g,psi,c2} f on the band of a band-passed
        # signal; moderate grids, moderate tolerance
        psi = window_by_name(f"modulated:dog:6:{-p_third.c2}")
        adm = admissibility_cgpsi(mexican, psi, p_third.c2)
        sig = modulated_gaussian(1.0, 640, 8.0)
        x = np.linspace(-18, 18, 600)
        xi = symmetric_log_xi_axis(2.0 ** -4, 2.0 ** 4, 120)
        F = frst_forward(p_third, mexican, sig, x, xi, enforce_sampling=False)
        t = np.linspace(-5, 5, 301)
        rec = frst_synthesis(p_third, psi, F, t)
        ref = adm.value * np.exp(1j * 4.0 * t) * np.exp(-t * t / 2)
        assert np.linalg.norm(rec - ref) / np.linalg.norm(ref) < 5e-3
