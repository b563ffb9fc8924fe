import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.testing import assert_allclose

import fracspec as fs
from fracspec.distributions import (
    DistributionDescriptor as DD,
    ScaleSequence,
    SlowlyVarying,
    SV_ONE,
    chirp_factor_check,
    is_cauchy,
    pair,
    pair_with_error,
    quasi_degree_estimate,
    scaled_pair,
    probe_battery,
    scaled_probe,
    tally_pairings,
    window_probe,
)
from fracspec import distributions

GAUSS = window_probe(fs.gaussian_window())

# high-resolution oracle value computed from 2^(3/4) Gamma(3/4)
PAIR_SQRT_ABS_GAUSS = 2.0608970245899916


class TestPair:
    def test_delta(self):
        assert_allclose(pair(DD.delta(), GAUSS), 1.0, atol=1e-12)

    def test_delta_derivative_odd(self):
        # -phi'(0) of an even probe vanishes identically
        d1 = DD.delta(order=1)
        assert abs(pair(d1, GAUSS)) < 1e-12

    def test_delta_derivative_formula(self):
        d1 = DD.delta(location=0.7, order=1)
        # <delta'(.-a), phi> = -phi'(a); phi = exp(-x^2/2)
        expected = 0.7 * np.exp(-0.49 / 2)
        assert_allclose(pair(d1, GAUSS), expected, rtol=1e-9)
        # under M_b the probe e^{ibt} phi is differentiated, also where e^{ibt}
        # varies faster than phi: (e^{ibt - t^2/2})'' = ((ib - t)^2 - 1) e^{ibt - t^2/2}
        for b in (1.0, 10.0, 40.0):
            d2 = DD.delta(location=0.3, order=2).modulated(b)
            expected = ((1j * b - 0.3) ** 2 - 1) * np.exp(1j * b * 0.3 - 0.045)
            assert_allclose(pair(d2, GAUSS), expected, rtol=1e-12, err_msg=f"b = {b}")
        # the same through a window's own modulation: phi = e^{iat} h(t),
        # h(t) = -t e^{-t^2/2}, phi'(t) = (t^2 - 1 - iat) e^{iat - t^2/2}
        for a in (20.0, 40.0):
            phi = window_probe(fs.window_by_name(f"modulated:hermite1:{a}"))
            for loc in (0.0, 0.3, -1.2):
                expected = -(loc * loc - 1 - 1j * a * loc) * np.exp(1j * a * loc - loc * loc / 2)
                assert_allclose(pair(DD.delta(location=loc, order=1), phi), expected,
                                rtol=1e-12, err_msg=f"a = {a}, location = {loc}")

    def test_sqrt_abs_oracle(self):
        val = pair(DD.homogeneous("abs", 0.5), GAUSS)
        assert_allclose(val, PAIR_SQRT_ABS_GAUSS, rtol=1e-9)

    def test_plus_minus_split(self):
        plus = pair(DD.homogeneous("plus", 0.5), GAUSS)
        minus = pair(DD.homogeneous("minus", 0.5), GAUSS)
        assert_allclose(plus + minus, PAIR_SQRT_ABS_GAUSS, rtol=1e-9)
        assert_allclose(plus, minus, rtol=1e-9)

    @pytest.mark.parametrize("m", [-0.9, -0.5, -0.25, 0.5])
    def test_homogeneous_closed_form(self, m):
        # integral over a half-line of |t|^m e^{-t^2/2} = 2^{(m-1)/2} Gamma((m+1)/2);
        # for m < 0 the density is infinite at the probe's centre
        half = 2.0 ** ((m - 1) / 2) * math.gamma((m + 1) / 2)
        for pattern, expected in (("abs", 2 * half), ("plus", half), ("minus", half)):
            assert_allclose(pair(DD.homogeneous(pattern, m), GAUSS), expected,
                            rtol=1e-12, err_msg=pattern)

    def test_homogeneous_density_at_origin(self):
        # |0|^m is infinite for m < 0; the density is 0 there for every pattern
        t = np.array([-4.0, 0.0, 4.0])
        for pattern, expected in (("abs", [0.5, 0.0, 0.5]), ("plus", [0.0, 0.0, 0.5]),
                                  ("minus", [0.5, 0.0, 0.0])):
            assert_allclose(DD.homogeneous(pattern, -0.5).density(t), expected,
                            rtol=1e-15, err_msg=pattern)

    def test_error_estimate_reported(self):
        _, err = pair_with_error(DD.homogeneous("abs", 0.5), GAUSS)
        assert err < 1e-9

    def test_sampled_density(self):
        sig = fs.gaussian_signal(1.0, 4001, 10.0)
        val = pair(sig, GAUSS)
        # integral exp(-x^2) dx = sqrt(pi)
        assert_allclose(val, math.sqrt(math.pi), rtol=1e-6)

    def test_linearity_in_weights(self):
        d = DD.delta_comb([(0.0, 0, 2.0), (1.0, 0, -0.5j)])
        expected = 2.0 * GAUSS(np.array([0.0]))[0] - 0.5j * GAUSS(np.array([1.0]))[0]
        assert_allclose(pair(d, GAUSS), expected, rtol=1e-12)

    def test_linearity_in_probe(self):
        h = DD.homogeneous("abs", 0.5)
        mex = window_probe(fs.mexican_hat_window())
        combo = replace(GAUSS, fn=lambda t: 2.0 * GAUSS.fn(t) - 1j * mex.fn(t))
        lhs = pair(h, combo)
        rhs = 2.0 * pair(h, GAUSS) - 1j * pair(h, mex)
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))

    def test_modulated_wrapper(self):
        dm = DD.delta(location=0.5).modulated(2.0)
        expected = np.exp(1j * 2.0 * 0.5) * np.exp(-0.125)
        assert_allclose(pair(dm, GAUSS), expected, rtol=1e-12)

    def test_homogeneous_degree_gate(self):
        with pytest.raises(ValueError):
            DD.homogeneous("abs", -1.0)


BATTERY = probe_battery()


class TestTanhSinhEngine:
    """The tanh-sinh rule against adaptive quadrature, its oracle."""

    @settings(derandomize=True, deadline=None, max_examples=120, database=None)
    @given(pattern=st.sampled_from(["abs", "plus", "minus"]),
           degree=st.floats(-0.9, 2.0, exclude_min=True),
           k=st.integers(0, len(BATTERY) - 1),
           center=st.floats(-3.0, 3.0),
           modulation=st.floats(-8.0, 8.0),
           log2_eps=st.floats(-20.0, 0.0))
    def test_matches_quad(self, pattern, degree, k, center, modulation, log2_eps):
        # a battery probe moved to `center` and scaled by eps, against
        # M_{modulation/eps} of the homogeneous density: the same number of
        # e^{iat} cycles across the probe at every scale the checkers use
        eps = 2.0 ** log2_eps
        phi = BATTERY[k]
        moved = replace(phi, fn=lambda t: phi.fn(np.asarray(t) - center), center=center)
        probe = scaled_probe(moved, eps)
        f = DD.homogeneous(pattern, degree).modulated(modulation / eps)
        lo, hi = distributions._pairing_interval(f, probe)
        assume(hi > lo)
        val, err, scale, _ = distributions._tanh_sinh_pairing(f, probe, lo, hi)
        # where the rule misses its own acceptance, pair_with_error falls back
        assume(distributions._tanh_sinh_accepts(val, err, scale))
        try:
            ref, _, ref_scale, _ = distributions._quad_pairing(f, probe, lo, hi)
        except fs.PairingDiverged:
            assume(False)
        # each side meets its own tolerance: quad the epsrel 1e-10 and
        # epsabs 1e-13 * scale it is asked for, the rule the 1e-10 of its
        # scale it accepts at.  quad uses most of its share (3.2e-11
        # relative against 30-digit mpmath at degree 1.73, where the rule
        # was off by 1.9e-16)
        tol = (1e-10 * abs(ref) + 1e-13 * ref_scale
               + distributions.TANH_SINH_ACCEPT * distributions.PAIRING_ERROR_BUDGET * scale)
        assert abs(val - ref) <= tol
        assert pair(f, probe) == val

    def test_fallback_is_counted(self, p_third, hermite):
        # the te1 probe at eps = 1/4, x = xi = 1 is the window stretched
        # fourfold under a chirp: against sqrt|x| as a closed_form density
        # the rule misses its acceptance, and quad's value comes back as it is
        from fracspec.frst import _integrand_probe
        f = DD.closed_form(lambda t: np.sqrt(np.abs(t)) + 0j, singular_points=(0.0,))
        probe = _integrand_probe(p_third, hermite, 0.25, 0.25, p_third.c2 * 0.25,
                                 0.25 * p_third.c_alpha)
        with tally_pairings() as outer:
            with tally_pairings() as inner:
                val = pair(f, probe)
            pair(f, GAUSS)
        assert val == distributions._quad_pairing(f, probe, *distributions._pairing_interval(f, probe))[0]
        assert inner.pairings == 1 and inner.quad_fallbacks == 1
        assert outer.pairings == 2 and outer.quad_fallbacks == 1
        assert inner.closed_form_pairings == outer.closed_form_pairings == 0
        assert inner.max_rel_error_estimate < distributions.PAIRING_ERROR_BUDGET
        # |x|^1/2 itself pairs with the same probe in closed form
        with tally_pairings() as closed:
            assert abs(pair(DD.homogeneous("abs", 0.5), probe) - val) <= 1e-9 * abs(val)
        assert closed.closed_form_pairings == closed.pairings == 1
        assert closed.integrand_evaluations == 0


class TestHomogeneousClosedForm:
    """The Kummer closed form against 20-digit mpmath and the tanh-sinh rule."""

    WINDOWS = ("hermite1", "mexican-hat", "dog:3", "modulated:hermite1:1.5",
               "dilated:mexican-hat:0.5", "modulated:dilated:dog:2:2.0:-0.75")

    @settings(derandomize=True, deadline=None, max_examples=50, database=None)
    @given(pattern=st.sampled_from(["abs", "plus", "minus"]),
           degree=st.floats(-0.9, 3.0, exclude_max=True),
           window=st.sampled_from(WINDOWS),
           alpha=st.floats(1.0, 2.1),
           x=st.floats(-1.0, 3.0),
           d=st.floats(0.5, 2.0),
           sign=st.sampled_from([1.0, -1.0]),
           modulation=st.floats(-1.0, 3.0))
    def test_matches_mpmath_and_the_rule(self, mp_pairing, pattern, degree, window,
                                         alpha, x, d, sign, modulation):
        # an FRST probe cell (x, xi = sign d) of the window against a
        # modulated homogeneous density, up to the |z| bound
        from fracspec.frst import _frst_params, _integrand_probe
        p = fs.make_frac_param(alpha)
        g = fs.window_by_name(window)
        probe = _integrand_probe(p, g, *_frst_params(p, x, sign * d, False))
        f = DD.homogeneous(pattern, degree).modulated(modulation)
        val, accepted = distributions._homogeneous_closed_form(f, probe.form())
        assume(accepted)
        # the rule is the independent oracle of the identity; its scale, the
        # integral of |f phi|, is the pairing scale
        lo, hi = distributions._pairing_interval(f, probe)
        rule, _, scale, _ = distributions._tanh_sinh_pairing(f, replace(probe, form=None), lo, hi)
        assert abs(val - rule) <= 1e-12 * scale
        assert abs(val - mp_pairing(f, probe.form())) <= 1e-12 * scale
        assert pair(f, probe) == val

    def test_probe_form_is_the_probe(self, p_third):
        # the form of a probe family, of a single cell, and of their scaled
        # and modulated versions against the probe's own fn on real t
        from fracspec.frst import _integrand_probe
        t = np.linspace(-3.0, 3.0, 61)
        for name in self.WINDOWS + ("gauss-unit", "gauss:2.0"):
            g = fs.window_by_name(name)
            x, d = np.array([-0.7, 0.0, 1.3]), np.array([0.5, 1.0, -2.0])
            family = _integrand_probe(p_third, g, x, d, p_third.c2 * d, np.array([1.0, 2j, -0.5]))
            single = _integrand_probe(p_third, g, 1.3, -2.0, p_third.c2 * -2.0, -0.5)
            for probe, tt in ((family, np.broadcast_to(t, (3, t.size))), (single, t)):
                for phi in (probe, scaled_probe(probe, 0.25), distributions._modulated_probe(probe, 1.7)):
                    fm = phi.form()
                    powers = tt[..., None] ** np.arange(fm.q.shape[-1])
                    got = np.sum(fm.q[..., None, :] * powers, axis=-1) * np.exp(
                        -np.asarray(fm.a)[..., None] * tt ** 2 + np.asarray(fm.b)[..., None] * tt
                        + np.asarray(fm.c)[..., None])
                    want = phi.fn(tt)
                    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), name

    def test_beyond_the_bound_takes_the_rule(self, p_third, hermite):
        # |z| grows with the probe's distance from the origin in widths
        from fracspec.frst import _integrand_probe
        f = DD.homogeneous("abs", 0.5)
        probe = _integrand_probe(p_third, hermite, 6.0, 1.0, p_third.c2, 1.0)
        form = probe.form()
        assert abs(form.b ** 2 / (4 * form.a)) > distributions.HOMOGENEOUS_Z_MAX
        with tally_pairings() as tally:
            val = pair(f, probe)
        assert tally.closed_form_pairings == 0 and tally.integrand_evaluations > 0
        assert val == pair(f, replace(probe, form=None))


class TestScaledPair:
    def test_delta_scaling(self):
        for eps in (0.25, 2.0 ** -7):
            v = scaled_pair(DD.delta(), GAUSS, eps, m=-1.0)
            assert_allclose(v, 1.0, rtol=1e-12)

    def test_delta_prime_scaling(self):
        probe = window_probe(fs.hermite_wavelet_window())
        # <delta'(eps x), phi>/eps^-2 = -phi'(0); hermite probe has phi'(0) = -1
        for eps in (0.25, 2.0 ** -9):
            v = scaled_pair(DD.delta(order=1), probe, eps, m=-2.0)
            assert_allclose(v, 1.0, rtol=1e-8)

    def test_homogeneous_eps_independent(self):
        h = DD.homogeneous("abs", 0.5)
        vals = [scaled_pair(h, GAUSS, e, m=0.5) for e in (0.25, 2.0 ** -6, 2.0 ** -11)]
        assert_allclose(vals, PAIR_SQRT_ABS_GAUSS, rtol=1e-8)


class TestDegreeEstimate:
    def test_delta_slope(self):
        slope, resid = quasi_degree_estimate(DD.delta(), GAUSS)
        assert_allclose(slope, -1.0, atol=1e-10)
        assert resid < 1e-10

    def test_sqrt_abs_slope(self):
        slope, _ = quasi_degree_estimate(DD.homogeneous("abs", 0.5), GAUSS)
        assert_allclose(slope, 0.5, atol=1e-10)

    def test_delta_prime_slope(self):
        probe = window_probe(fs.hermite_wavelet_window())
        slope, _ = quasi_degree_estimate(DD.delta(order=1), probe)
        assert_allclose(slope, -2.0, atol=1e-10)

    def test_scale_invariance(self):
        d = DD.delta_comb([(0.0, 0, 37.5)])
        slope, _ = quasi_degree_estimate(d, GAUSS)
        assert_allclose(slope, -1.0, atol=1e-10)

    def test_degenerate_sequence(self):
        probe = window_probe(fs.hermite_wavelet_window())  # phi(0) = 0
        with pytest.raises(fs.DegenerateSequence):
            quasi_degree_estimate(DD.delta(), probe)


class TestSlowlyVarying:
    def test_ratio_limit_models(self):
        # |L(a eps)/L(eps) - 1| < 0.01 once eps is small enough per model
        assert SV_ONE.ratio_deviation(2.0 ** -30, 2.0) == 0.0
        lp = SlowlyVarying("logpow", 1.0)
        assert lp.ratio_deviation(2.0 ** -120, 2.0) < 0.01
        assert lp.ratio_deviation(2.0 ** -120, 0.5) < 0.01
        il = SlowlyVarying("iterlog")
        assert il.ratio_deviation(2.0 ** -40, 2.0) < 0.01

    def test_ratio_deviation_decreases(self):
        lp = SlowlyVarying("logpow", 1.0)
        devs = [lp.ratio_deviation(2.0 ** -k, 2.0) for k in (10, 20, 40)]
        assert devs[0] > devs[1] > devs[2]

    def test_domain_enforced(self):
        with pytest.raises(ValueError):
            SlowlyVarying("logpow", 1.0)(np.asarray(0.5))


class TestScaleSequence:
    def test_default(self):
        seq = ScaleSequence()
        assert len(seq) == 11
        assert seq.eps[0] == 0.25 and seq.eps[-1] == 2.0 ** -12

    def test_validation(self):
        with pytest.raises(ValueError):
            ScaleSequence((0.25, 0.25))
        with pytest.raises(ValueError):
            ScaleSequence((0.25, 2.0 ** -21))


class TestChirpFactor:
    def test_delta_exact(self):
        rep = chirp_factor_check(DD.delta(), GAUSS, c=1.0, m=-1.0)
        assert rep.plain_converges and rep.chirped_converges
        assert rep.limit_gap < 1e-12

    def test_sqrt_abs_gap_shrinks(self):
        rep = chirp_factor_check(DD.homogeneous("abs", 0.5), GAUSS, c=1.0, m=0.5)
        assert rep.plain_converges and rep.chirped_converges
        assert rep.limit_gap < 1e-4

    def test_zero_distribution(self):
        zero = DD.delta_comb([(0.0, 0, 0.0)])
        rep = chirp_factor_check(zero, GAUSS, c=1.0, m=-1.0)
        assert rep.limit_gap == 0.0


class TestBattery:
    def test_size_and_finiteness(self):
        battery = probe_battery()
        assert len(battery) == 8
        d = DD.delta()
        for probe in battery:
            assert np.isfinite(pair(d, probe))

    def test_is_cauchy(self):
        assert is_cauchy(np.array([2.0, 1.0001, 1.00008, 1.00003, 1.00001]))
        assert not is_cauchy(np.array([1.0, 2.0, 1.0, 2.0, 1.0]))
        assert not is_cauchy(np.array([1.0, 1.0]))  # too short to judge


class TestJson:
    def test_delta_json(self):
        d = DD.from_json({"kind": "delta", "terms": [[0, 0, 1.0]]})
        assert d.kind == "delta" and d.terms[0].weight == 1.0
        d2 = DD.from_json({"kind": "delta", "terms": [[0.5, 1, [0.0, 2.0]]]})
        assert d2.terms[0].weight == 2.0j

    def test_homogeneous_json(self):
        d = DD.from_json({"kind": "homogeneous", "pattern": "abs", "degree": 0.5})
        assert d.degree == 0.5

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            DD.from_json({"kind": "fractal"})
