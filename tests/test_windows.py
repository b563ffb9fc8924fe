import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

import fracspec as fs
from fracspec.distributions import DistributionDescriptor as DD, pair
from fracspec import (
    DivergentAdmissibility,
    NotAWavelet,
    ZeroAdmissibility,
)
from fracspec.fraccore import trapezoid_weights
from fracspec.windows import (
    SQRT_2PI,
    dog_window,
    window_by_name,
)
from conftest import window_probe


def numeric_ft(g, w):
    """Trapezoid FT of g.eval over its truncation window: the oracle of the
    closed-form ``Window.ft``."""
    w = np.atleast_1d(np.asarray(w, dtype=float))
    r = g.support_radius
    wmax = float(np.max(np.abs(w))) if w.size else 1.0
    # resolve both the window itself and the requested oscillation
    dx = min(g.width / 16.0, np.pi / (8.0 * max(wmax, 1.0)))
    n = int(np.ceil(2 * r / dx)) | 1
    x = np.linspace(-r, r, n + 1)
    vals = g.eval(x) * trapezoid_weights(x)
    return np.exp(-1j * np.outer(w, x)) @ vals / SQRT_2PI


def numeric_moment(g, k):
    """(integral x^k g(x) dx, error estimate) by the trapezoid rule on 16385
    points over the truncation window: the oracle of the closed-form
    ``moment``.  The rule is O(h^2), so the Richardson difference against
    every other point estimates its error."""
    r = g.support_radius
    x = np.linspace(-r, r, 16385)
    integrand = (x ** k) * g.eval(x)
    fine = complex(np.sum(integrand * trapezoid_weights(x)))
    coarse = complex(np.sum(integrand[::2] * trapezoid_weights(x[::2])))
    return fine, abs(fine - coarse) / 3.0


def mp_inverse_abs_integral(numerator, breaks):
    """integral of numerator(w)/|w| over [breaks[0], breaks[-1]] by 30-digit
    mpmath, split at the breaks: the oracle of the admissibility pairings
    (0 must not lie inside)."""
    with mpmath.workdps(30):
        return float(mpmath.quad(lambda w: numerator(w) / abs(w), breaks))


class TestRegistry:
    def test_names_round_trip(self):
        for name in ("gauss-unit", "gauss", "gauss:2", "mexican-hat", "hermite1", "dog:3",
                     "modulated:hermite1:2.5", "dilated:mexican-hat:0.5",
                     "modulated:dog:4:-1.25"):
            w = window_by_name(name)
            assert np.all(np.isfinite(w.eval(np.linspace(-3, 3, 11))))

    def test_names_carry_exact_parameters(self, hermite):
        # the name rebuilds a bit-identical window, e.g. modulated by -csc(pi/3)
        x = np.linspace(-6, 6, 241)
        for w in (fs.modulate(window_by_name("dog:6"), -1.0 / np.sin(np.pi / 3)),
                  fs.dilate(hermite, 1.0 / 3.0), fs.gaussian_window(1.0 / 3.0)):
            back = window_by_name(w.name)
            assert back.name == w.name
            assert np.array_equal(back.eval(x), w.eval(x))

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            window_by_name("haar")

    def test_decay_invariant(self):
        for name in ("gauss", "mexican-hat", "hermite1", "dog:4"):
            g = window_by_name(name)
            x = np.linspace(-g.support_radius, g.support_radius, 4001)
            sup = np.max(np.abs(g.eval(x)))
            edge = np.abs(g.eval(np.array([-g.support_radius, g.support_radius])))
            assert np.max(edge) < 1e-10 * sup

    def test_closed_form_ft_matches_numeric(self):
        probe = np.linspace(-4.0, 4.0, 41)
        for name in ("gauss-unit", "mexican-hat", "hermite1", "dog:4", "dog:8",
                     "modulated:hermite1:1.0", "dilated:gauss:2.0",
                     "dilated:modulated:hermite1:2.5:0.25"):
            g = window_by_name(name)
            assert np.max(np.abs(g.ft(probe) - numeric_ft(g, probe))) < 1e-8


class TestGaussianPolynomialForm:
    @pytest.mark.parametrize("name", [
        "gauss-unit", "gauss", "gauss:2.0", "mexican-hat", "hermite1", "dog:1", "dog:4",
        "dog:8", "modulated:hermite1:2.5", "dilated:mexican-hat:0.5",
        "dilated:modulated:dog:3:-1.25:2.0", "modulated:dilated:gauss:0.5:3.0:-0.75",
    ])
    def test_form_is_eval(self, name):
        # eval(u) = P(u) e^{-u^2/(2 w^2)} e^{i carrier u} on real and complex u
        g = window_by_name(name)
        u = np.linspace(-4.0, 4.0, 33)
        for pts in (u, u + 0.7j, u * np.exp(0.4j)):
            form = (np.polynomial.polynomial.polyval(pts, g.poly)
                    * np.exp(-pts * pts / (2.0 * g.width ** 2) + 1j * g.carrier * pts))
            want = g.eval(pts)
            assert np.max(np.abs(form - want)) <= 1e-13 * np.max(np.abs(want)), name


class TestOperators:
    def test_modulate_identity(self, gauss):
        m = fs.modulate(gauss, 0.0)
        x = np.linspace(-5, 5, 101)
        assert_allclose(m.eval(x), gauss.eval(x), atol=1e-15)

    def test_modulate_at_zero_point(self, gauss):
        m = fs.modulate(gauss, 1.0)
        assert_allclose(m.eval(np.array([0.0])), gauss.eval(np.array([0.0])), rtol=1e-15)

    def test_modulate_shifts_spectrum(self, mexican):
        c2 = 2.0 / np.sqrt(3.0)
        m = fs.modulate(mexican, c2)
        w = np.linspace(-3, 3, 31)
        assert_allclose(m.ft(w), mexican.ft(w - c2), rtol=1e-14)

    def test_modulate_inverse(self, mexican):
        x = np.linspace(-6, 6, 101)
        m = fs.modulate(fs.modulate(mexican, 1.7), -1.7)
        assert np.max(np.abs(m.eval(x) - mexican.eval(x))) < 1e-14

    def test_dilate_examples(self, gauss):
        assert_allclose(fs.dilate(gauss, 1.0).eval(np.array([1.3])),
                        gauss.eval(np.array([1.3])), rtol=1e-15)
        assert_allclose(fs.dilate(gauss, 2.0).eval(np.array([1.0])),
                        np.exp(-2.0), rtol=1e-14)

    def test_dilate_theorem_form(self, gauss):
        # g_{1/eps^2}(x) = g(x / eps^2); rtol eased for exponent rounding on
        # denormal-scale tails
        eps = 0.3
        d = fs.dilate(gauss, 1.0 / eps**2)
        x = np.linspace(-2, 2, 41)
        assert_allclose(d.eval(x), gauss.eval(x / eps**2), rtol=1e-12)

    def test_dilate_inverse(self, mexican):
        x = np.linspace(-6, 6, 101)
        d = fs.dilate(fs.dilate(mexican, 2.5), 1 / 2.5)
        assert np.max(np.abs(d.eval(x) - mexican.eval(x))) < 1e-14

    def test_dilate_rejects_nonpositive(self, gauss):
        with pytest.raises(fs.NonPositiveScale):
            fs.dilate(gauss, 0.0)

    @pytest.mark.parametrize("name, carrier", [
        ("hermite1", 0.0),
        ("modulated:dog:6:-1.3", -1.3),
        ("dilated:modulated:hermite1:2.5:0.5", 1.25),
        ("modulated:dilated:modulated:gauss:2.0:3.0:-0.5", 5.5),
    ])
    def test_eval_is_envelope_times_carrier(self, name, carrier):
        # g = e^{i carrier x} b(x), where b is the carrier-free window of g's form
        g = window_by_name(name)
        assert g.carrier == carrier
        b = fs.Window(g.name, g.poly, g.width)
        x = np.linspace(-12, 12, 241)
        assert_allclose(g.eval(x), np.exp(1j * carrier * x) * b.eval(x), rtol=1e-13, atol=1e-15)

    def test_cancelled_carriers_pair_like_the_plain_window(self, hermite):
        # carriers that cancel leave hermite1's form, so a fourth derivative
        # pairs exactly as hermite1's does
        g = window_by_name("modulated:modulated:hermite1:40.0:-40.0")
        d4 = DD.delta(location=0.3, order=4)
        assert pair(d4, window_probe(g)) == pair(d4, window_probe(hermite))


class TestDerivativeOfGaussian:
    @pytest.mark.parametrize("m", range(1, 9))
    def test_horner_matches_hermite_e(self, m):
        # (-1)^m He_m(x) e^{-x^2/2} through numpy's Hermite_e series, on
        # real and complex arguments
        he = np.polynomial.hermite_e.HermiteE.basis(m)
        u = np.linspace(-10.0, 10.0, 401)
        for x in (u, u[:, None] + 1j * np.linspace(-3.0, 3.0, 13)):
            want = (-1.0) ** m * he(x) * np.exp(-x * x / 2.0)
            got = dog_window(m).eval(x)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), m


class TestMoments:
    def test_mexican_hat_zeroth(self, mexican):
        assert abs(fs.moment(mexican, 0)) < 1e-10

    def test_hermite_zeroth(self, hermite):
        assert abs(fs.moment(hermite, 0)) < 1e-10

    def test_unit_gauss_mass(self, unit_gauss):
        assert_allclose(fs.moment(unit_gauss, 0), 1.0, atol=1e-10)

    def test_order_cap(self, gauss):
        with pytest.raises(fs.MomentOrderTooHigh):
            fs.moment(gauss, 13)

    def test_error_estimate_small(self, mexican):
        # the oracle is converged where it is used
        value, err = numeric_moment(mexican, 2)
        assert err < 1e-10
        assert abs(fs.moment(mexican, 2) - value) < 1e-10

    @pytest.mark.parametrize("name", [
        "gauss:2.0", "mexican-hat", "dog:8", "modulated:dog:6:-1.1547005383792517",
        "dilated:modulated:hermite1:2.5:0.25",
    ])
    def test_closed_form_matches_trapezoid(self, name):
        # against the scale integral |x^k g(x)| dx; the largest gap is
        # 1.7e-11 of it (dog:8 at k = 12)
        g = window_by_name(name)
        for k in range(fs.windows.MAX_MOMENT_ORDER + 1):
            want, _ = numeric_moment(g, k)
            x = np.linspace(-g.support_radius, g.support_radius, 16385)
            scale = float(np.sum(np.abs(x ** k * g.eval(x)) * trapezoid_weights(x)))
            assert abs(fs.moment(g, k) - want) <= 1e-9 * scale, (name, k)

    def test_wavelet_zeroth_moments_are_exact(self):
        for name in ("mexican-hat", "hermite1", "dog:6", "dog:8", "dilated:mexican-hat:0.5"):
            assert fs.moment(window_by_name(name), 0) == 0, name

    def test_modulated_moment_matches_spectrum(self, hermite):
        # zeroth moment of M_a g equals sqrt(2 pi) g_hat(-a); nonzero for the
        # plain Hermite wavelet, so M_a g is not itself moment-free
        a = 2.0 / np.sqrt(3.0)
        m0 = fs.moment(fs.modulate(hermite, a), 0)
        expected = np.sqrt(2 * np.pi) * hermite.ft(np.array([-a]))[0]
        assert_allclose(m0, expected, atol=1e-10)
        assert abs(m0) > 1e-2


class TestAdmissibility:
    def test_mexican_cg_is_one(self, mexican):
        adm = fs.admissibility_cg(mexican)
        # analytic: integral w^4 exp(-w^2)/|w| dw = 1
        assert_allclose(adm.value, 1.0, atol=1e-8)
        assert_allclose(adm.half_line, 0.5, atol=1e-8)
        assert adm.quadrature_error_estimate < 1e-8

    def test_hermite_cg_is_one(self, hermite):
        adm = fs.admissibility_cg(hermite)
        assert_allclose(adm.value, 1.0, atol=1e-8)

    def test_gaussian_not_a_wavelet(self, gauss):
        with pytest.raises(NotAWavelet):
            fs.admissibility_cg(gauss)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_dog_cg_is_factorial(self, m):
        # |g_hat|^2 = w^{2m} e^{-w^2}: C_g = Gamma(m) = (m-1)!
        adm = fs.admissibility_cg(dog_window(m))
        assert_allclose(adm.value, math.factorial(m - 1), rtol=1e-13)
        assert_allclose(adm.half_line, adm.value / 2, rtol=1e-13)

    def test_scale_covariance_finite(self, hermite):
        for a in (0.5, 2.0):
            adm = fs.admissibility_cg(fs.dilate(hermite, a))
            assert np.isfinite(adm.value) and adm.value > 0

    @pytest.mark.parametrize("name", ["hermite1", "mexican-hat", "dog:6"])
    def test_scale_covariance_exact(self, name):
        # g_eps_hat(w) = g_hat(w/eps)/eps, so C_g[g_eps] = C_g[g]/eps^2
        g = window_by_name(name)
        cg = fs.admissibility_cg(g)
        for eps in (0.01, 0.5, 2.0, 100.0):
            adm = fs.admissibility_cg(fs.dilate(g, eps))
            assert_allclose(adm.value, cg.value / eps ** 2, rtol=1e-13)
            assert_allclose(adm.half_line, cg.half_line / eps ** 2, rtol=1e-13)

    @pytest.mark.parametrize("kappa, value", [
        (12.0, 0.0746352289665317), (20.0, 0.0444785615592873), (30.0, 0.0295902696422316),
    ])
    def test_cg_of_a_spectrum_far_from_zero(self, kappa, value):
        # |g_hat(w)|^2 = (w-kappa)^2 e^{-(w-kappa)^2} lies on w > 0
        adm = fs.admissibility_cg(window_by_name(f"modulated:hermite1:{kappa}"))
        oracle = mp_inverse_abs_integral(
            lambda w: (w - kappa) ** 2 * mpmath.exp(-(w - kappa) ** 2),
            [1, kappa - 4, kappa, kappa + 4, kappa + 40])
        assert_allclose(oracle, value, rtol=1e-14)
        assert_allclose(adm.value, oracle, rtol=1e-12)
        assert_allclose(adm.half_line, oracle, rtol=1e-12)

    @pytest.mark.parametrize("name, power", [
        ("modulated:hermite1:6.75", 2), ("modulated:hermite1:8.0", 2),
        ("modulated:hermite1:9.5", 2), ("modulated:mexican-hat:8.0", 4),
    ])
    def test_cg_of_a_carrier_near_the_gate(self, name, power):
        # |g_hat(w)|^2 = (w-kappa)^power e^{-(w-kappa)^2}: the carrier passes
        # the zeroth-moment gate, and the spectral band [kappa-10, kappa+10]
        # crosses 0, where the numerator is below 1e-17
        g = window_by_name(name)
        kappa = g.carrier

        def numerator(w):
            return (w - kappa) ** power * mpmath.exp(-(w - kappa) ** 2)

        positive = mp_inverse_abs_integral(numerator, [0, kappa - 4, kappa, kappa + 4, kappa + 10])
        negative = mp_inverse_abs_integral(numerator, [kappa - 10, 0])
        adm = fs.admissibility_cg(g)
        assert_allclose(adm.value, positive + negative, rtol=1e-12)
        assert_allclose(adm.half_line, positive, rtol=1e-12)

    def test_pair_divergent_for_hermite_pair(self, hermite):
        # g_hat(-c2) != 0 makes the 1/|omega| integral log-divergent
        c2 = 2.0 / np.sqrt(3.0)
        with pytest.raises(DivergentAdmissibility):
            fs.admissibility_cgpsi(hermite, hermite, c2)

    def test_divergence_quotes_the_numerator_at_zero(self, hermite):
        # the hermite1 pair's numerator at omega = 0 is c2^2 e^{-c2^2}
        with pytest.raises(DivergentAdmissibility, match=r"numerator 3\.515e-01 at omega=0"):
            fs.admissibility_cgpsi(hermite, hermite, 2.0 / np.sqrt(3.0))

    @pytest.mark.parametrize("c2", [2.0 / np.sqrt(3.0), 1.0 / np.sin(2.5), -1.3])
    def test_every_refusal_is_an_admissibility_error(self, c2):
        # a numerator small but not zero at omega = 0 is refused by the
        # pairing itself, as the constant diverging there: no pair of these
        # windows ends in PairingDiverged
        names = ["mexican-hat", "hermite1", "dog:3", "dog:6", "gauss:2.0",
                 "modulated:hermite1:8.0", "dilated:hermite1:3.0",
                 "modulated:dog:6:-1.1547005383792515"]
        windows = [window_by_name(n) for n in names]
        for g in windows:
            for psi in windows:
                try:
                    fs.admissibility_cgpsi(g, psi, c2)
                except (DivergentAdmissibility, ZeroAdmissibility):
                    pass

    def test_divergence_below_the_old_gate_quotes_its_numerator(self):
        # |psi_hat(-c2) g_hat(-c2)| = 8.155e-11 is within 1e-10 of the
        # numerator's size, but the pairing cannot resolve its 1/|omega|
        # residue
        g, psi = window_by_name("gauss:2.0"), window_by_name("modulated:hermite1:8.0")
        with pytest.raises(DivergentAdmissibility,
                           match=r"C_gpsi\[gauss:2\.0,modulated:hermite1:8\.0\]: "
                                 r"integrand numerator 8\.155e-11 at omega=0"):
            fs.admissibility_cgpsi(g, psi, -1.3)

    def test_cg_of_a_negative_carrier_diverges_on_its_positive_share(self):
        # |g_hat(0)|^2 = 64 e^{-64} passes the zeroth-moment gate and the
        # whole band's pairing, not the omega > 0 one
        g = window_by_name("modulated:hermite1:-8.0")
        with pytest.raises(DivergentAdmissibility,
                           match=r"C_g\[modulated:hermite1:-8\.0\] on omega > 0: "
                                 r"integrand numerator 1\.026e-26 at omega=0"):
            fs.admissibility_cg(g)

    def test_pair_divergent_for_mexican_pair(self, mexican):
        with pytest.raises(DivergentAdmissibility):
            fs.admissibility_cgpsi(mexican, mexican, 1.0)

    def test_pair_convergent_with_matched_modulation(self, mexican):
        c2 = 2.0 / np.sqrt(3.0)
        psi = window_by_name(f"modulated:dog:4:{-c2}")
        adm = fs.admissibility_cgpsi(mexican, psi, c2)
        # integrand |s|^3 (s-c2)^2 exp(-s^2/2-(s-c2)^2/2) >= 0
        assert adm.value.real > 0
        assert abs(adm.value.imag) < 1e-9
        assert adm.quadrature_error_estimate < 1e-8

    def test_pair_of_spectra_far_from_zero(self):
        # psi_hat(w-1) conj(g_hat(w-1)) = (w-21)^2 e^{-(w-21)^2}
        g = window_by_name("modulated:hermite1:20")
        adm = fs.admissibility_cgpsi(g, g, 1.0)
        oracle = mp_inverse_abs_integral(lambda w: (w - 21) ** 2 * mpmath.exp(-(w - 21) ** 2),
                                         [1, 17, 21, 25, 61])
        assert_allclose(oracle, 0.0423456441942754, rtol=1e-14)
        assert_allclose(adm.value, oracle, rtol=1e-12)

    @pytest.mark.parametrize("c2", [0.0, np.nan, np.inf, -np.inf])
    def test_pair_rejects_degenerate_c2(self, mexican, c2):
        with pytest.raises(ValueError):
            fs.admissibility_cgpsi(mexican, mexican, c2)

    def test_pair_zero_for_disjoint_spectra(self, mexican):
        # psi spectrum pushed far away: integrand identically ~0
        psi = window_by_name("modulated:gauss:40")
        with pytest.raises((ZeroAdmissibility, DivergentAdmissibility)):
            fs.admissibility_cgpsi(mexican, psi, 1.0)


class TestSeminorms:
    def test_rho_examples(self):
        # closed forms; every maximiser is 0 or +-1, which n_probe = 16001
        # puts on the probe grid.  Modulated: |(e^{iax - x^2/2})'| =
        # |ia - x| e^{-x^2/2} peaks at x = 0 with |a|, the second derivative
        # at 0 with a^2 + 1; dilating by 0.5 halves a, and the dilation
        # inside the modulation widens only the envelope.
        for name, k, p, want in [
                ("gauss", 0, 0, 1.0), ("gauss", 1, 0, np.exp(-0.5)),
                ("gauss", 0, 1, np.exp(-0.5)), ("gauss", 0, 2, 1.0),
                ("gauss", 0, 4, 3.0), ("hermite1", 0, 1, 1.0),
                ("hermite1", 0, 3, 3.0), ("mexican-hat", 0, 2, 3.0),
                ("modulated:gauss:40", 0, 1, 40.0), ("modulated:gauss:40", 0, 2, 1601.0),
                ("dilated:modulated:gauss:40:0.5", 0, 1, 20.0),
                ("modulated:dilated:gauss:0.05:40", 0, 1, 40.0)]:
            est = fs.seminorm_rho(window_by_name(name), k, p, n_probe=16001)
            assert_allclose(est.value, want, rtol=1e-12, err_msg=f"{name} rho_{k},{p}")

    def test_rho_monotone_under_refinement(self, mexican):
        coarse = fs.seminorm_rho(mexican, 2, 1, n_probe=2001).value
        fine = fs.seminorm_rho(mexican, 2, 1, n_probe=4001).value
        assert fine >= coarse - 1e-15

    def test_rho_order_cap(self, gauss):
        with pytest.raises(fs.DerivativeOrderTooHigh):
            fs.seminorm_rho(gauss, 0, 5)

    def test_rho_weight_cap(self):
        # |x^k g(x)| of hermite1 = |x|^(k+1) e^{-x^2/2} peaks at x = sqrt(k + 1):
        # at k = 63, 8^64 e^{-32}, inside the probe grid [-10, 10]; at k = 120
        # the peak near 11 lies outside it and the grid's value was 2.8x low
        hermite = window_by_name("hermite1")
        est = fs.seminorm_rho(hermite, 63, 0)
        assert_allclose(est.value, 8.0 ** 64 * np.exp(-32.0), rtol=1e-6)
        with pytest.raises(ValueError, match="exceeds 64"):
            fs.seminorm_rho(hermite, 120, 0)

    def _make_grid(self):
        x = np.linspace(-4, 4, 161)
        xi = np.exp(np.linspace(np.log(2.0 ** -6), np.log(8.0), 200))
        vals = np.exp(-x[:, None] ** 2 - xi[None, :]) + 0j
        return fs.TFGrid(x, xi, vals, {"transform": "FRWT"})

    def test_sigma_zero_grid(self):
        x = np.linspace(-2, 2, 21)
        xi = np.exp(np.linspace(np.log(0.5), np.log(2.0), 21))
        g = fs.TFGrid(x, xi, np.zeros((21, 21), complex), {})
        assert fs.seminorm_sigma(g, 0, 0, 0, 0).value == 0.0

    def test_sigma_sup_example(self):
        # sup of exp(-x^2 - xi) sits at the small-xi edge of the grid
        g = self._make_grid()
        est = fs.seminorm_sigma(g, 0, 0, 0, 0)
        assert_allclose(est.value, np.exp(-2.0 ** -6), rtol=1e-6)

    def test_sigma_weighted_example(self):
        # sup over the grid of xi * exp(-x^2 - xi) = e^{-1} at xi = 1, x = 0
        g = self._make_grid()
        est = fs.seminorm_sigma(g, 0, 0, 1, 0)
        assert_allclose(est.value, np.exp(-1.0), rtol=1e-3)

    def test_sigma_derivative_and_cap(self):
        g = self._make_grid()
        est = fs.seminorm_sigma(g, 1, 0, 0, 0)  # d/dxi -> sup ~ 1
        assert 0.9 < est.value < 1.1
        with pytest.raises(fs.DerivativeOrderTooHigh):
            fs.seminorm_sigma(g, 2, 1, 0, 0)

    def test_sigma_x_derivative(self):
        # d/dx exp(-x^2 - xi) = -2 x exp(-x^2 - xi): against the same sup
        # over the grid interior, within np.gradient's O(h^2)
        g = self._make_grid()
        x, xi = g.x_axis[1:-1, None], g.xi_axis[None, :]
        want = np.max(xi * np.abs(x) * np.abs(-2 * x * np.exp(-x ** 2 - xi)))
        est = fs.seminorm_sigma(g, 0, 1, 1, 1)
        assert est.indices == (0, 1, 1, 1)
        assert_allclose(est.value, want, rtol=1e-3)

    def test_sigma_grid_too_coarse(self):
        x = np.linspace(-1, 1, 3)
        xi = np.array([0.5, 1.0, 2.0])
        g = fs.TFGrid(x, xi, np.zeros((3, 3), complex), {})
        with pytest.raises(fs.GridTooCoarse):
            fs.seminorm_sigma(g, 1, 0, 0, 0)

    def test_sigma_rejects_signed_axis(self):
        xi = np.concatenate([[-1.0, -0.5], [0.5, 1.0]])
        g = fs.TFGrid(np.linspace(-1, 1, 3), xi, np.zeros((3, 4), complex), {})
        with pytest.raises(ValueError):
            fs.seminorm_sigma(g, 0, 0, 1, 0)

    def test_sigma_monotone_under_refinement(self):
        def grid(nx, nxi):
            x = np.linspace(-4, 4, nx)
            xi = np.exp(np.linspace(np.log(2.0 ** -6), np.log(8.0), nxi))
            vals = (x[:, None] * np.exp(-x[:, None] ** 2 - xi[None, :])) + 0j
            return fs.TFGrid(x, xi, vals, {})

        coarse = fs.seminorm_sigma(grid(81, 100), 0, 0, 1, 1).value
        fine = fs.seminorm_sigma(grid(161, 199), 0, 0, 1, 1).value
        assert fine >= coarse - 1e-15
