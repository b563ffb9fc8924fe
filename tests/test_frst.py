import numpy as np
import pytest
from numpy.testing import assert_allclose

import fracspec as fs
from fracspec.distributions import DistributionDescriptor as DD
from fracspec.frst import (
    frst_forward,
    frst_point,
    frst_reconstruct,
    frst_synthesis,
    grid_from_csv,
    grid_to_csv,
    symmetric_log_xi_axis,
)
from fracspec.windows import admissibility_cgpsi, window_by_name


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

    def test_classical_st_special_case(self, p_half, unit_gauss):
        sig = fs.gaussian_signal(1.0, 512, 8.0)
        x = np.linspace(-2, 2, 9)
        xi = symmetric_log_xi_axis(0.5, 4.0, 6)
        grid = frst_forward(p_half, unit_gauss, sig, x, xi)
        oracle = stockwell_oracle(unit_gauss, sig, x, xi)
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(grid.values - oracle)) / scale < 1e-8

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

    def test_distribution_grid_matches_smooth_density(self, p_third, hermite):
        # sampled-density descriptor vs the signal quadrature path
        sig = fs.gaussian_signal(1.0, 2048, 8.0)
        x = np.linspace(-1, 1, 3)
        xi = symmetric_log_xi_axis(0.5, 1.0, 2)
        by_signal = frst_forward(p_third, hermite, sig, x, xi).values
        by_pairing = frst_forward(p_third, hermite, DD.sampled(sig), x, xi).values
        assert np.max(np.abs(by_signal - by_pairing)) < 1e-6


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


def frst_synthesis_oracle(p, g, F, t):
    """|sin a| * sum_ij F(x_i, xi_j) g(xi_j (t - x_i)) K_{-a}(t, xi_j) w_i w_j,
    the module docstring's synthesis written as a plain double loop."""
    wx = x_trapezoid_weights(F.x_axis)
    wxi = log_trapezoid_weights(F.xi_axis)
    out = np.zeros(t.size, complex)
    for i, x in enumerate(F.x_axis):
        for j, xi in enumerate(F.xi_axis):
            out += (F.values[i, j] * g.eval(xi * (t - x))
                    * fs.kernel_eval(p.negated(), t, xi) * wx[i] * wxi[j])
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
