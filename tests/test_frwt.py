import numpy as np
import pytest
from numpy.testing import assert_allclose

import fracspec as fs
from fracspec.distributions import DistributionDescriptor as DD, pair, probe_battery
from fracspec.frst import positive_log_xi_axis, symmetric_log_xi_axis
from fracspec.frwt import (
    frst_frwt_bridge,
    frwt_forward,
    frwt_point,
    frwt_reconstruct,
    frwt_synthesis,
    frwt_via_frft,
    wt_point,
)
from fracspec.windows import seminorm_rho, seminorm_sigma


def modulated_gaussian(width, n, half_width, om0=4.0):
    t = np.linspace(-half_width, half_width, n)
    vals = np.exp(1j * om0 * t) * np.exp(-t * t / (2 * width * width))
    return fs.SampledSignal(-half_width, t[1] - t[0], vals)


def cwt_oracle(g, sig, x_axis, xi_axis):
    """Independent classical continuous-wavelet-transform implementation."""
    t = sig.t_grid
    w = sig.trapezoid_weights()
    out = np.empty((x_axis.size, xi_axis.size), complex)
    for j, s in enumerate(xi_axis):
        for i, x in enumerate(x_axis):
            out[i, j] = s ** -0.5 * np.sum(
                sig.samples * np.conj(g.eval((t - x) / s)) * w)
    return out


class TestForward:
    def test_classical_wt_special_case(self, p_half, mexican):
        sig = fs.gaussian_signal(1.0, 512, 8.0)
        x = np.linspace(-2, 2, 9)
        xi = positive_log_xi_axis(0.25, 4.0, 8)
        grid = frwt_forward(p_half, mexican, sig, x, xi)
        oracle = cwt_oracle(mexican, sig, x, xi)
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(grid.values - oracle)) / scale < 1e-10

    def test_delta_closed_form(self, p_third, hermite):
        rng = np.random.default_rng(21)
        for _ in range(50):
            x = rng.uniform(-2, 2)
            s = rng.uniform(0.3, 4.0)
            got = frwt_point(p_third, hermite, DD.delta(), x, s)
            expected = (s ** -0.5 * np.conj(hermite.eval(np.array([-x / s]))[0])
                        * np.exp(-1j * p_third.c1 * x * x / 2))
            assert abs(got - expected) < 1e-12 * max(1.0, abs(expected))

        # descriptor grids: a three-term comb over positive scales, per cell
        # sum_j w_j s^{-1/2} conj(g((a_j - x)/s)) e^{i c1 (a_j^2 - x^2)/2}
        terms = [(-0.7, 0, 1.5), (0.2, 0, -0.5 + 2.0j), (1.1, 0, 0.8j)]
        comb = DD.delta_comb(terms)
        x = np.linspace(-2.0, 2.0, 7)
        scales = positive_log_xi_axis(0.3, 4.0, 5)
        X, S = np.meshgrid(x, scales, indexing="ij")
        for alpha in (np.pi / 3, 4.0):
            p = fs.make_frac_param(alpha)
            grid = frwt_forward(p, hermite, comb, x, scales)
            expected = sum(
                w * S ** -0.5 * np.conj(hermite.eval((a - X) / S))
                * np.exp(0.5j * p.c1 * (a * a - X * X))
                for a, _, w in terms)
            assert_allclose(grid.values, expected, rtol=1e-12, atol=0)

    def test_zero_signal(self, p_third, mexican):
        sig = fs.SampledSignal(-4.0, 0.05, np.zeros(161, complex))
        grid = frwt_forward(p_third, mexican, sig, np.linspace(-1, 1, 5),
                            positive_log_xi_axis(0.5, 2.0, 6))
        assert np.all(grid.values == 0)

    def test_wavelet_gate(self, p_third, gauss):
        sig = fs.gaussian_signal(1.0, 256, 6.0)
        with pytest.raises(fs.NotAWavelet):
            frwt_forward(p_third, gauss, sig, np.linspace(-1, 1, 5),
                         positive_log_xi_axis(0.5, 2.0, 6))

    def test_positive_scale_required(self, p_third, mexican):
        with pytest.raises(ValueError):
            frwt_point(p_third, mexican, DD.delta(), 0.0, -1.0)

    def test_sampling_guard_on_fine_scales(self, p_third, mexican):
        sig = fs.gaussian_signal(1.0, 128, 8.0)  # dt ~ 0.13
        with pytest.raises(fs.UndersampledChirp):
            frwt_forward(p_third, mexican, sig, np.linspace(-1, 1, 5),
                         positive_log_xi_axis(2.0 ** -5, 1.0, 8))

    def test_linearity(self, p_third, mexican):
        s1 = fs.gaussian_signal(1.0, 512, 8.0)
        s2 = fs.gaussian_signal(0.5, 512, 8.0)
        mix = fs.SampledSignal(s1.t0, s1.dt, 1.5 * s1.samples + 2j * s2.samples)
        x = np.linspace(-2, 2, 7)
        xi = positive_log_xi_axis(0.5, 2.0, 5)
        gm = frwt_forward(p_third, mexican, mix, x, xi).values
        g1 = frwt_forward(p_third, mexican, s1, x, xi).values
        g2 = frwt_forward(p_third, mexican, s2, x, xi).values
        assert_allclose(gm, 1.5 * g1 + 2j * g2, atol=1e-12)


class TestWtPoint:
    def test_signal_matches_cwt_oracle(self, mexican, hermite):
        sig = fs.gaussian_signal(1.0, 512, 8.0, modulation=1.5)
        for g in (mexican, hermite):
            for x, s in ((-1.0, 0.4), (0.3, 1.0), (1.2, 2.5)):
                want = cwt_oracle(g, sig, np.array([x]), np.array([s]))[0, 0]
                assert abs(wt_point(g, sig, x, s) - want) <= 1e-12 * abs(want)

    def test_delta_closed_form(self, hermite):
        # <w delta_a, s^{-1/2} conj(g((. - x)/s))> = w s^{-1/2} conj(g((a - x)/s))
        rng = np.random.default_rng(22)
        for _ in range(50):
            a, x = rng.uniform(-2, 2, 2)
            s = rng.uniform(0.3, 4.0)
            w = complex(*rng.normal(size=2))
            got = wt_point(hermite, DD.delta(a, 0, w), x, s)
            expected = w * s ** -0.5 * np.conj(hermite.eval(np.array([(a - x) / s]))[0])
            assert abs(got - expected) < 1e-12 * max(1.0, abs(expected))


class TestViaFrft:
    def test_c2_variant_matches_at_half_pi(self, p_half, mexican):
        sig = fs.gaussian_signal(1.0, 1024, 10.0)
        x = np.linspace(-2, 2, 9)
        xi = positive_log_xi_axis(0.5, 2.0, 6)
        rep = frwt_via_frft(p_half, mexican, sig, x, xi, freq_constant="c2")
        assert rep.rel_l2_deviation < 1e-6

    def test_c1_variant_degenerates_at_half_pi(self, p_half, mexican):
        # c1 = 0 puts g_hat(0) = 0 in the integrand: the printed route
        # collapses to the zero grid, deviation ~ 1
        sig = fs.gaussian_signal(1.0, 1024, 10.0)
        x = np.linspace(-2, 2, 9)
        xi = positive_log_xi_axis(0.5, 2.0, 6)
        rep = frwt_via_frft(p_half, mexican, sig, x, xi, freq_constant="c1")
        assert np.max(np.abs(rep.grid.values)) < 1e-12
        assert rep.rel_l2_deviation > 0.99

    def test_c2_variant_matches_at_third_pi(self, p_third, mexican):
        sig = fs.gaussian_signal(1.0, 1024, 10.0)
        x = np.linspace(-2, 2, 9)
        xi = positive_log_xi_axis(0.5, 2.0, 6)
        rep_c2 = frwt_via_frft(p_third, mexican, sig, x, xi, freq_constant="c2")
        rep_c1 = frwt_via_frft(p_third, mexican, sig, x, xi, freq_constant="c1")
        # the corrected route tracks the direct definition; the printed one
        # does not: the report makes the misprint observable
        assert rep_c2.rel_l2_deviation < 1e-6
        assert rep_c1.rel_l2_deviation > 0.1

    def test_zero_signal_both_variants(self, p_third, mexican):
        sig = fs.SampledSignal(-6.0, 6.0 / 128, np.zeros(257, complex))
        x = np.linspace(-1, 1, 3)
        xi = positive_log_xi_axis(0.5, 1.0, 3)
        for variant in ("c1", "c2"):
            rep = frwt_via_frft(p_third, mexican, sig, x, xi, freq_constant=variant)
            assert np.all(rep.grid.values == 0)


def frwt_synthesis_oracle(p, g, F, t):
    """sum_ij F(x_i, xi_j) xi_j^{-1/2} g((t - x_i)/xi_j) e^{-i c1 (t^2 - x_i^2)/2}
    w_i v_j / xi_j: the module docstring's synthesis (dx dxi/xi^2, with v_j
    the trapezoid weights in log xi) written as a plain double loop."""
    x, xi = F.x_axis, F.xi_axis
    wx = np.zeros(x.size)
    v = np.zeros(xi.size)
    for a in range(x.size - 1):
        wx[a:a + 2] += 0.5 * (x[a + 1] - x[a])
    for b in range(xi.size - 1):
        v[b:b + 2] += 0.5 * (np.log(xi[b + 1]) - np.log(xi[b]))
    out = np.zeros(t.size, complex)
    for i in range(x.size):
        for j in range(xi.size):
            out += (F.values[i, j] * xi[j] ** -0.5 * g.eval((t - x[i]) / xi[j])
                    * np.exp(-0.5j * p.c1 * (t * t - x[i] * x[i])) * wx[i] * v[j] / xi[j])
    return out


class TestSynthesis:
    @pytest.mark.parametrize("alpha", [np.pi / 3, 4.0])
    def test_matches_double_loop(self, alpha, mexican):
        p = fs.make_frac_param(alpha)
        rng = np.random.default_rng(42)
        x = np.linspace(-3, 3, 7)
        xi = positive_log_xi_axis(0.25, 4.0, 6)
        F = fs.TFGrid(x, xi, rng.normal(size=(7, 6)) + 1j * rng.normal(size=(7, 6)), {})
        t = np.linspace(-4, 4, 41)
        want = frwt_synthesis_oracle(p, mexican, F, t)
        assert_allclose(frwt_synthesis(p, mexican, F, t), want,
                        rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))

    def test_zero_grid(self, p_third, mexican):
        x = np.linspace(-2, 2, 9)
        xi = positive_log_xi_axis(0.5, 2.0, 6)
        F = fs.TFGrid(x, xi, np.zeros((9, 6), complex), {})
        out = frwt_synthesis(p_third, mexican, F, np.linspace(-1, 1, 7))
        assert np.all(out == 0)

    def test_linearity(self, p_third, mexican):
        sig = fs.gaussian_signal(1.0, 512, 8.0)
        x = np.linspace(-4, 4, 33)
        xi = positive_log_xi_axis(0.25, 4.0, 12)
        F = frwt_forward(p_third, mexican, sig, x, xi)
        t = np.linspace(-2, 2, 21)
        one = frwt_synthesis(p_third, mexican, F, t)
        two = frwt_synthesis(
            p_third, mexican, fs.TFGrid(x, xi, 2.0 * F.values, F.meta), t)
        assert_allclose(two, 2.0 * one, rtol=1e-12)

    def test_negative_scale_rejected(self, p_third, mexican):
        x = np.linspace(-1, 1, 3)
        xi = symmetric_log_xi_axis(0.5, 1.0, 2)
        F = fs.TFGrid(x, xi, np.zeros((3, 4), complex), {})
        with pytest.raises(ValueError):
            frwt_synthesis(p_third, mexican, F, np.linspace(-1, 1, 3))


class TestInversion:
    def test_round_trip_ladder(self, p_third, mexican):
        errs = []
        for nx, nxi, n in ((192, 40, 768), (384, 80, 1536), (768, 160, 3072)):
            sig = modulated_gaussian(1.0, n, 8.0)
            x = np.linspace(-16, 16, nx)
            xi = positive_log_xi_axis(2.0 ** -5, 2.0 ** 3, nxi)
            rep = frwt_reconstruct(p_third, mexican, sig, x, xi,
                                   enforce_sampling=False)
            errs.append(rep.rel_l2)
        assert errs[1] <= errs[0] / 4.0, errs
        assert errs[2] <= errs[1] / 4.0, errs
        assert errs[2] <= 1e-3, errs

    def test_inversion_constant_is_half_line(self, p_third, mexican):
        # composition reproduces 2*pi*C_g^+ = pi*C_g over positive scales
        sig = modulated_gaussian(1.0, 1536, 8.0)
        x = np.linspace(-16, 16, 384)
        xi = positive_log_xi_axis(2.0 ** -5, 2.0 ** 3, 80)
        F = frwt_forward(p_third, mexican, sig, x, xi, enforce_sampling=False)
        t = np.linspace(-4, 4, 201)
        raw = frwt_synthesis(p_third, mexican, F, t)
        ref = np.exp(1j * 4.0 * t) * np.exp(-t * t / 2)
        adm = fs.admissibility_cg(mexican)
        err_half = np.linalg.norm(raw / (2 * np.pi * adm.half_line) - ref)
        err_full = np.linalg.norm(raw / (2 * np.pi * adm.value) - ref)
        scale = np.linalg.norm(ref)
        assert err_half / scale < 2e-2
        assert err_full / scale > 0.4

    def test_not_a_wavelet(self, p_third, gauss):
        sig = fs.gaussian_signal(1.0, 256, 6.0)
        with pytest.raises(fs.NotAWavelet):
            frwt_reconstruct(p_third, gauss, sig, np.linspace(-2, 2, 9),
                             positive_log_xi_axis(0.5, 2.0, 6))

    def test_zero_signal_exact(self, p_third, mexican):
        sig = fs.SampledSignal(-4.0, 0.05, np.zeros(161, complex))
        rep = frwt_reconstruct(p_third, mexican, sig, np.linspace(-4, 4, 33),
                               positive_log_xi_axis(0.5, 4.0, 16))
        assert np.all(rep.reconstructed == 0)

    def test_distribution_round_trip_on_battery(self, p_third, mexican):
        # dual-pairing realization of the inversion theorem: push a sampled
        # signal through the forward transform, synthesize, and verify
        # <f_tilde, phi> = <f, phi> on the full probe battery
        src = modulated_gaussian(1.0, 1536, 8.0)
        x = np.linspace(-16, 16, 384)
        xi = positive_log_xi_axis(2.0 ** -5, 2.0 ** 3, 80)
        F = frwt_forward(p_third, mexican, src, x, xi, enforce_sampling=False)
        t = src.t_grid
        adm = fs.admissibility_cg(mexican)
        rec = frwt_synthesis(p_third, mexican, F, t) / (2 * np.pi * adm.half_line)
        f_rec = fs.SampledSignal(t[0], src.dt, rec)
        for probe in probe_battery():
            got = pair(f_rec, probe)
            want = pair(src, probe)
            assert abs(got - want) < 5e-3 * max(1.0, abs(want)), probe.name


class TestBridge:
    def _points(self):
        return [(a, b) for a in np.linspace(-2, 2, 8)
                for b in np.linspace(0.5, 4.0, 8)]

    def test_delta_exact(self, p_third, hermite):
        rep = frst_frwt_bridge(p_third, hermite, DD.delta(), self._points())
        assert rep.max_rel_deviation < 1e-12

    def test_gaussian_signal_both_angles(self, hermite):
        sig = fs.gaussian_signal(1.0, 1024, 12.0)
        for alpha in (np.pi / 6, np.pi / 3):
            p = fs.make_frac_param(alpha)
            rep = frst_frwt_bridge(p, hermite, sig, self._points())
            assert rep.max_rel_deviation < 1e-6, alpha

    def test_random_regular_angles(self, hermite):
        rng = np.random.default_rng(31)
        sig = fs.gaussian_signal(1.0, 1024, 12.0)
        pts = [(a, b) for a in (-1.0, 0.5) for b in (0.5, 2.0, 3.0)]
        for alpha in rng.uniform(0.2, np.pi - 0.2, 5):
            p = fs.make_frac_param(float(alpha))
            rep = frst_frwt_bridge(p, hermite, sig, pts)
            assert rep.max_rel_deviation < 1e-6, alpha

    def test_reflex_angle_negative_c2(self, hermite):
        # alpha in (pi, 2pi) flips the sign of c2; the identity still holds
        p = fs.make_frac_param(4.0)
        assert p.c2 < 0
        pts = [(a, b) for a in (-1.0, 0.5) for b in (0.5, 2.0)]
        sig = fs.gaussian_signal(1.0, 1024, 12.0)
        assert frst_frwt_bridge(p, hermite, DD.delta(), pts).max_rel_deviation < 1e-12
        assert frst_frwt_bridge(p, hermite, sig, pts).max_rel_deviation < 1e-6

    def test_half_pi_reduction(self, p_half, hermite):
        # at alpha = pi/2 the relation is the classical ST<->WT bridge
        sig = fs.gaussian_signal(1.0, 512, 8.0)
        for x, xi in ((0.5, 1.0), (-1.0, 2.0)):
            lhs = fs.frst_point(p_half, hermite, sig, x, xi)
            w = frwt_point(p_half, fs.modulate(hermite, 1.0), sig, x, 1.0 / xi)
            rhs = (np.sqrt(xi) / np.sqrt(2 * np.pi) * np.exp(-1j * x * xi) * w)
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))

    def test_positive_scale_probes_required(self, p_third, hermite):
        with pytest.raises(ValueError):
            frst_frwt_bridge(p_third, hermite, DD.delta(), [(0.5, -1.0)])

    def test_singular_angle(self, hermite):
        with pytest.raises(fs.SingularAngle):
            frst_frwt_bridge(fs.make_frac_param(0.0), hermite, DD.delta(),
                             [(0.5, 1.0)])


def signal_rho(t, values, k, n):
    """rho_{k,n} of a sampled function via central differences."""
    vals = np.asarray(values, complex)
    h = t[1] - t[0]
    if n == 1:
        vals = (vals[2:] - vals[:-2]) / (2 * h)
        t = t[1:-1]
    return float(np.max(np.abs(t ** k * vals)))


class TestContinuityBound:
    def test_wte2_style_bound(self, p_third, mexican):
        # rho_{k,n}(synthesis F) <= K * sum_{n1+n2=n} binom sigma^{0,0}_{k,k+n2}(F)
        # * rho_{k+n2,n1}(g) with one finite K across polynomial x gaussian grids
        x = np.linspace(-6, 6, 161)
        xi = positive_log_xi_axis(2.0 ** -4, 2.0 ** 2, 96)
        t = np.linspace(-8, 8, 801)
        shapes = [(0, 0), (1, 0), (0, 1), (2, 1), (1, 2)]
        ratios = []
        for a, b in shapes:
            vals = (x[:, None] ** a) * (xi[None, :] ** b) * np.exp(
                -x[:, None] ** 2 - (xi[None, :] - 1.5) ** 2) + 0j
            F = fs.TFGrid(x, xi, vals, {})
            s = frwt_synthesis(p_third, mexican, F, t)
            for k, n in ((0, 0), (1, 0), (0, 1), (1, 1)):
                lhs = signal_rho(t, s, k, n)
                rhs = 0.0
                for n1 in range(n + 1):
                    n2 = n - n1
                    binom = 1.0 if n == 0 else 1.0
                    rhs += (binom * seminorm_sigma(F, 0, 0, k, k + n2).value
                            * seminorm_rho(mexican, k + n2, n1).value)
                assert rhs > 0
                ratios.append(lhs / rhs)
        K = max(ratios)
        assert np.isfinite(K)
        # the bound constant stays modest across all grids and (k, n)
        assert K < 50.0, ratios
