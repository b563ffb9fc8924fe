import itertools
import math
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import IntegrationWarning

import fracspec as fs
from fracspec.distributions import (
    DistributionDescriptor as DD,
    ScaleSequence,
    SlowlyVarying,
    SV_ONE,
    is_cauchy,
    pair,
    pair_with_error,
    tally_pairings,
)
from fracspec import distributions
from conftest import closed_form_oracle, probe_battery, trapezoid_pairing, window_probe

GAUSS = window_probe(fs.gaussian_window())
# the same probe without its Gaussian form: pair takes homogeneous
# descriptors through the tanh-sinh rule instead of the closed form
GAUSS_RULE = replace(GAUSS, form=None)
ROUTES = ((GAUSS, 1), (GAUSS_RULE, 0))

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
        # the probe e^{ibt} phi is differentiated, also where e^{ibt} varies
        # faster than phi: (e^{ibt - t^2/2})'' = ((ib - t)^2 - 1) e^{ibt - t^2/2}
        d2 = DD.delta(location=0.3, order=2)
        for b in (1.0, 10.0, 40.0):
            probe = window_probe(fs.modulate(fs.gaussian_window(), b))
            expected = ((1j * b - 0.3) ** 2 - 1) * np.exp(1j * b * 0.3 - 0.045)
            assert_allclose(pair(d2, probe), expected, rtol=1e-12, err_msg=f"b = {b}")
        # the same through a window's own modulation: phi = e^{iat} h(t),
        # h(t) = -t e^{-t^2/2}, phi'(t) = (t^2 - 1 - iat) e^{iat - t^2/2}
        for a in (20.0, 40.0):
            phi = window_probe(fs.window_by_name(f"modulated:hermite1:{a}"))
            for loc in (0.0, 0.3, -1.2):
                expected = -(loc * loc - 1 - 1j * a * loc) * np.exp(1j * a * loc - loc * loc / 2)
                assert_allclose(pair(DD.delta(location=loc, order=1), phi), expected,
                                rtol=1e-12, err_msg=f"a = {a}, location = {loc}")

    def test_delta_order_cap(self):
        # MAX_DERIVATIVE_ORDER = 4 caps delta derivatives, in pair and pair_cells
        with pytest.raises(fs.DerivativeOrderTooHigh):
            pair(DD.delta(order=5), GAUSS)
        with pytest.raises(fs.DerivativeOrderTooHigh):
            distributions.pair_cells(DD.delta_comb([(0.0, 0, 1.0), (0.5, 5, 1.0)]),
                                     lambda cells: GAUSS, 3)

    def test_delta_derivative_needs_a_form(self):
        # a probe without a Gaussian form pairs with delta but not delta'
        plain = replace(GAUSS, form=None)
        assert pair(DD.delta(location=0.5), plain) == pair(DD.delta(location=0.5), GAUSS)
        with pytest.raises(ValueError, match="GaussianForm"):
            pair(DD.delta(order=1), plain)

    def test_sqrt_abs_oracle(self):
        # the closed form and the rule each meet the oracle
        for probe, closed_form in ROUTES:
            with tally_pairings() as tally:
                val = pair(DD.homogeneous("abs", 0.5), probe)
            assert tally.closed_form_pairings == closed_form
            assert_allclose(val, PAIR_SQRT_ABS_GAUSS, rtol=1e-9)

    def test_plus_minus_split(self):
        for probe, _ in ROUTES:
            plus = pair(DD.homogeneous("plus", 0.5), probe)
            minus = pair(DD.homogeneous("minus", 0.5), probe)
            assert_allclose(plus + minus, PAIR_SQRT_ABS_GAUSS, rtol=1e-9)
            assert_allclose(plus, minus, rtol=1e-9)

    @pytest.mark.parametrize("m", [-0.9, -0.5, -0.25, 0.5])
    def test_homogeneous_closed_form(self, m):
        # integral over a half-line of |t|^m e^{-t^2/2} = 2^{(m-1)/2} Gamma((m+1)/2);
        # for m < 0 the density is infinite at the probe's centre
        half = 2.0 ** ((m - 1) / 2) * math.gamma((m + 1) / 2)
        for probe, closed_form in ROUTES:
            for pattern, expected in (("abs", 2 * half), ("plus", half), ("minus", half)):
                assert_allclose(pair(DD.homogeneous(pattern, m), probe), expected,
                                rtol=1e-12, err_msg=f"{pattern}, closed form {closed_form}")

    def test_homogeneous_density_at_origin(self):
        # |0|^m is infinite for m < 0, and so is ln(1/0); the density is 0
        # there for every pattern, with or without the log factor
        t = np.array([-4.0, 0.0, 4.0])
        for log_power, factor in ((0, 1.0), (1, -np.log(4.0))):
            for pattern, expected in (("abs", [0.5, 0.0, 0.5]), ("plus", [0.0, 0.0, 0.5]),
                                      ("minus", [0.5, 0.0, 0.0])):
                assert_allclose(DD.homogeneous(pattern, -0.5, log_power).density(t),
                                factor * np.array(expected), rtol=1e-15, err_msg=pattern)

    def test_error_estimate_reported(self):
        # the rule's estimate; the closed form reports 0.0
        _, err = pair_with_error(DD.homogeneous("abs", 0.5), GAUSS_RULE)
        assert 0.0 < err < 1e-9

    def test_sampled_density(self):
        sig = fs.gaussian_signal(1.0, 4001, 10.0)
        val = trapezoid_pairing(sig, GAUSS)
        # integral exp(-x^2) dx = sqrt(pi)
        assert_allclose(val, math.sqrt(math.pi), rtol=1e-6)
        # signals are transformed by the spectral kernel, never paired
        with pytest.raises(TypeError):
            pair(sig, GAUSS)

    def test_linearity_in_weights(self):
        d = DD.delta_comb([(0.0, 0, 2.0), (1.0, 0, -0.5j)])
        expected = 2.0 * GAUSS(np.array([0.0]))[0] - 0.5j * GAUSS(np.array([1.0]))[0]
        assert_allclose(pair(d, GAUSS), expected, rtol=1e-12)

    def test_linearity_in_probe(self):
        h = DD.homogeneous("abs", 0.5)
        # without forms, so every pairing goes through the quadrature rule
        mex = replace(window_probe(fs.mexican_hat_window()), form=None)
        combo = replace(GAUSS_RULE, fn=lambda t: 2.0 * GAUSS.fn(t) - 1j * mex.fn(t))
        lhs = pair(h, combo)
        rhs = 2.0 * pair(h, GAUSS_RULE) - 1j * pair(h, mex)
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))

    def test_modulated_wrapper(self):
        # <M_2 delta(. - 0.5), phi> = <delta(. - 0.5), e^{2it} phi>
        probe = window_probe(fs.modulate(fs.gaussian_window(), 2.0))
        expected = np.exp(1j * 2.0 * 0.5) * np.exp(-0.125)
        assert_allclose(pair(DD.delta(location=0.5), probe), expected, rtol=1e-12)

    def test_homogeneous_degree_gate(self):
        with pytest.raises(ValueError):
            DD.homogeneous("abs", -1.0)


BATTERY = probe_battery()


def _quad_pairing(f, probe, lo, hi):
    """(value, scale) of int_lo^hi density x probe by adaptive quadrature,
    the tanh-sinh rule's oracle; raises PairingDiverged where its error
    estimate exceeds 1e-8 of its scale.

    scipy's quad can take a convergent end singularity for a divergent one
    (IntegrationWarning "probably divergent" on x_-^(-1/2) against the
    Mexican hat centred at 0.5625, where the rule is within 4.2e-15 of
    30-digit mpmath).  Where it warns, the same pieces, split at the
    singular points, are integrated by 30-digit mpmath instead.
    """
    def integrand(t):
        return f.density(np.asarray([t]))[0] * np.asarray(probe(np.asarray([t])), dtype=complex)[0]

    # anchor the absolute tolerance to the integrand's own magnitude so that
    # pairings of size 1e-15 are still resolved relatively
    sample = f.density(np.linspace(lo, hi, 65)) * np.asarray(probe(np.linspace(lo, hi, 65)), dtype=complex)
    scale = float(np.max(np.abs(sample))) * (hi - lo)
    pts = sorted(p for p in set(f.singular_points) if lo < p < hi)
    kw = {"limit": 300, "epsabs": max(1e-13 * scale, 1e-280), "epsrel": 1e-10}
    if pts:
        kw["points"] = pts
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", IntegrationWarning)
            # complex_func integrates the real and imaginary parts separately
            # and returns their error estimates as one complex number
            val, err = distributions.quad(integrand, lo, hi, complex_func=True, **kw)
        err = err.real + err.imag
    except IntegrationWarning:
        with mpmath.workdps(30):
            val, err = mpmath.quad(lambda t: complex(integrand(float(t))), [lo, *pts, hi],
                                   error=True)
        val, err = complex(val), float(err)
    if not np.isfinite(val):
        raise fs.PairingDiverged(f"pairing value {val:.3e} is not finite")
    if not err <= 1e-8 * max(abs(val), scale, 1e-250):
        raise fs.PairingDiverged(
            f"pairing error estimate {err:.3e} exceeds budget for value {val:.3e}")
    return val, scale


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
        # a battery probe moved to `center`, times e^{i modulation t}, and
        # dilated to phi(t/eps): the same number of e^{iat} cycles across the
        # probe at every scale the checkers use
        eps = 2.0 ** log2_eps
        phi = BATTERY[k]

        def fn(t):
            u = np.asarray(t) / eps
            return np.exp(1j * modulation * u) * phi.fn(u - center)

        # without the battery window's form, which is not the moved probe's
        probe = replace(phi, fn=fn, center=center * eps, radius=phi.radius * eps, form=None)
        f = DD.homogeneous(pattern, degree)
        lo, hi = distributions._pairing_interval(f, probe)
        assume(hi > lo)
        val, err, scale, _ = distributions._tanh_sinh_pairing(f, probe, lo, hi)
        # where the rule misses its own acceptance, pair_with_error refuses
        assume(err <= distributions.PAIRING_ERROR_BUDGET * max(abs(val), scale))
        try:
            ref, ref_scale = _quad_pairing(f, probe, lo, hi)
        except fs.PairingDiverged:
            assume(False)
        # each side meets its own tolerance: quad the epsrel 1e-10 and
        # epsabs 1e-13 * scale it is asked for, the rule the 1e-10 of its
        # scale it accepts at.  quad uses most of its share (3.2e-11
        # relative against 30-digit mpmath at degree 1.73, where the rule
        # was off by 1.9e-16)
        tol = 1e-10 * abs(ref) + 1e-13 * ref_scale + distributions.PAIRING_ERROR_BUDGET * scale
        assert abs(val - ref) <= tol
        assert pair(f, probe) == val

    def test_oracle_integrates_where_quad_warns(self):
        # quad calls x_-^(-1/2) against the Mexican hat centred at 0.5625
        # probably divergent; the oracle's mpmath pieces give the 30-digit
        # value -0.02331517553592817..., and the rule agrees
        phi = BATTERY[5]
        probe = replace(phi, fn=lambda t: phi.fn(np.asarray(t) - 0.5625), center=0.5625,
                        form=None)
        f = DD.homogeneous("minus", -0.5)
        lo, hi = distributions._pairing_interval(f, probe)
        with pytest.warns(IntegrationWarning, match="probably divergent"):
            distributions.quad(lambda t: f.density(np.asarray([t]))[0] * probe([t])[0].real,
                               lo, hi, limit=300)
        ref = _quad_pairing(f, probe, lo, hi)[0]
        assert abs(ref + 0.02331517553592817) <= 1e-17
        assert abs(pair(f, probe) - ref) <= 1e-14 * abs(ref)

    def test_rule_refuses_a_cell_over_budget(self, p_third, hermite):
        # the te1 probe at eps, x = xi = 1 is the window stretched 1/eps-fold
        # under a chirp, paired against sqrt|x| as a closed_form density
        from fracspec.frst import _integrand_probe
        f = DD.closed_form(lambda t: np.sqrt(np.abs(t)) + 0j, singular_points=(0.0,))

        def cell(eps):
            return _integrand_probe(p_third, hermite, eps, eps, p_third.c2 * eps,
                                    eps * p_third.c_alpha)

        # at eps = 1/8 the rule's estimate (0.74) misses its 1e-10 of the
        # scale, and the pairing is refused, counted in no open tally
        probe = cell(0.125)
        val, err, scale, _ = distributions._tanh_sinh_pairing(
            f, probe, *distributions._pairing_interval(f, probe))
        assert err > distributions.PAIRING_ERROR_BUDGET * max(abs(val), scale)
        with tally_pairings() as tally, \
                pytest.raises(fs.PairingDiverged, match=r"estimate 7\.396e-01 exceeds budget"):
            pair(f, probe)
        assert tally.pairings == 0
        # at eps = 1/4 the three-level estimate (1.9e-11) meets the budget;
        # |x|^1/2 itself pairs with the same probe in closed form, and the
        # rule's value agrees with it
        probe = cell(0.25)
        with tally_pairings() as rule:
            val = pair(f, probe)
        assert rule.pairings == 1 and rule.integrand_evaluations > 0
        with tally_pairings() as closed:
            assert abs(pair(DD.homogeneous("abs", 0.5), probe) - val) <= 1e-13 * abs(val)
        assert closed.closed_form_pairings == closed.pairings == 1
        assert closed.integrand_evaluations == 0


class TestHomogeneousClosedForm:
    """The series closed form against mpmath's Kummer form and the tanh-sinh rule."""

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
        # an FRST probe cell (x, xi = sign d) of the window, its frequency
        # shifted by the modulation, against a homogeneous density, where
        # the closed form accepts the cell
        from fracspec.frst import _frst_params, _integrand_probe
        p = fs.make_frac_param(alpha)
        g = fs.window_by_name(window)
        x, d, omega, amp = _frst_params(p, x, sign * d, False)
        probe = _integrand_probe(p, g, x, d, omega - modulation, amp)
        f = DD.homogeneous(pattern, degree)
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
        # the form of a probe family and of a single cell against the
        # probe's own fn on real t
        from fracspec.frst import _integrand_probe
        t = np.linspace(-3.0, 3.0, 61)
        for name in self.WINDOWS + ("gauss-unit", "gauss:2.0"):
            g = fs.window_by_name(name)
            x, d = np.array([-0.7, 0.0, 1.3]), np.array([0.5, 1.0, -2.0])
            family = _integrand_probe(p_third, g, x, d, p_third.c2 * d, np.array([1.0, 2j, -0.5]))
            single = _integrand_probe(p_third, g, 1.3, -2.0, p_third.c2 * -2.0, -0.5)
            for probe, tt in ((family, np.broadcast_to(t, (3, t.size))), (single, t)):
                want = probe.fn(tt)
                # centred at the probe, and moved to the origin as the
                # closed form takes it
                for fm in (probe.form(), probe.form().about(0.0)):
                    u = tt - np.asarray(fm.origin)[..., None]
                    powers = u[..., None] ** np.arange(fm.q.shape[-1])
                    got = np.sum(fm.q[..., None, :] * powers, axis=-1) * np.exp(
                        -np.asarray(fm.a)[..., None] * u ** 2 + np.asarray(fm.b)[..., None] * u
                        + np.asarray(fm.c)[..., None])
                    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), name

    def test_beyond_the_bound_takes_the_rule(self, p_third, hermite):
        # |z| = |b^2/4a| grows with the probe's distance from the origin in
        # widths; at x = 6 it is about 16, beyond the series' reach
        from fracspec.frst import _integrand_probe
        f = DD.homogeneous("abs", 0.5)
        probe = _integrand_probe(p_third, hermite, 6.0, 1.0, p_third.c2, 1.0)
        form = probe.form().about(0.0)
        assert abs(form.b ** 2 / (4 * form.a)) > 16
        val, accepted = distributions._homogeneous_closed_form(f, probe.form())
        assert not accepted and np.isnan(val)
        with tally_pairings() as tally:
            val = pair(f, probe)
        assert tally.closed_form_pairings == 0 and tally.integrand_evaluations > 0
        assert val == pair(f, replace(probe, form=None))

    def test_gate_matches_the_term_array_oracle(self):
        # the closed form against its oracle, which sums the gate over the
        # full (cells, k, n) array of |terms|: bit-identical values and the
        # same accepted cells, on FRST probe families of five windows at
        # three angles (x in [-8, 8], both signs of xi), every pattern,
        # four degrees and both log powers.  The x range puts cells on
        # both sides of each bound: the tail within 16-fold of 2^-64 of
        # |terms| (|b^2/4a| ~ 11) and |terms| within 10-fold of
        # HOMOGENEOUS_CANCELLATION_MAX times the value
        from fracspec.frst import _frst_params, _integrand_probe
        near_reach, near_cancellation = np.zeros(2, dtype=int), np.zeros(2, dtype=int)
        for name in ("hermite1", "mexican-hat", "modulated:dog:3:0.7", "dilated:hermite1:3.0",
                     "modulated:hermite1:4"):
            g = fs.window_by_name(name)
            for alpha in (1.0472, 1.2, 2.5):
                p = fs.make_frac_param(alpha)
                cells = np.broadcast_arrays(*_frst_params(
                    p, np.linspace(-8.0, 8.0, 41)[:, None],
                    np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]), False))
                family = _integrand_probe(p, g, *(v.ravel() for v in cells))
                single = _integrand_probe(p, g, *(v[20, 4] for v in cells))
                # the single cell first: the bounds are counted on the family
                forms = (single.form(), family.form())
                for pattern, degree, log_power in itertools.product(
                        ("abs", "plus", "minus"), (-0.5, 0.25, 0.5, 1.5), (0, 1)):
                    f = DD.homogeneous(pattern, degree, log_power)
                    for form in forms:
                        val, accepted = distributions._homogeneous_closed_form(f, form)
                        want, want_accepted, terms, tail = closed_form_oracle(f, form)
                        key = (name, alpha, pattern, degree, log_power)
                        assert np.array_equal(accepted, want_accepted), key
                        assert np.array_equal(val, np.where(accepted, want, np.nan),
                                              equal_nan=True), key
                    with np.errstate(divide="ignore", invalid="ignore"):
                        reach = (tail / terms * 2.0 ** 64).astype(float)
                        cancellation = (terms / np.abs(want) / distributions
                                        .HOMOGENEOUS_CANCELLATION_MAX).astype(float)
                    near_reach += [np.sum((1 / 16 <= reach) & (reach < 1)),
                                   np.sum((1 <= reach) & (reach < 16))]
                    near_cancellation += [
                        np.sum((0.1 <= cancellation) & (cancellation < 1)),
                        np.sum((1 <= cancellation) & (cancellation < 10))]
        assert (near_reach > 100).all() and (near_cancellation > 100).all()

    def test_large_family_pairs_in_bounded_memory(self, p_third, hermite):
        # a 64x64 family of |x|^1/2, every cell in the series' reach, is
        # paired in blocks: each cell the same as in one whole-family
        # evaluation, at a traced peak below 4 MB (one whole-family
        # evaluation peaks at 57 MB)
        import tracemalloc
        from fracspec.frst import _frst_params, _integrand_probe
        x, d, omega, amp = (v.ravel() for v in np.broadcast_arrays(*_frst_params(
            p_third, np.linspace(-1.0, 1.0, 64)[:, None], np.linspace(0.5, 2.0, 64), False)))
        f = DD.homogeneous("abs", 0.5)

        def probe_of(cells):
            return _integrand_probe(p_third, hermite, x[cells], d[cells], omega[cells], amp[cells])

        tracemalloc.start()
        try:
            with tally_pairings() as tally:
                vals = distributions.pair_cells(f, probe_of, x.size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tally.closed_form_pairings == x.size == 4096
        assert peak < 4 * 2 ** 20
        whole, accepted = distributions._homogeneous_closed_form(f, probe_of(slice(None)).form())
        assert accepted.all() and np.array_equal(vals, whole)

    def test_gamma_long_double(self):
        # Stirling's series in long double on (0, 64], which covers the
        # series' Gamma((m+k+n+1)/2) for degrees below 3 and n < 112
        import mpmath
        with mpmath.workdps(30):
            for x in np.concatenate([np.linspace(0.0, 8.0, 321)[1:], np.linspace(8.1, 64.0, 560)]):
                got = distributions._gamma_ld(x)
                ref = mpmath.gamma(mpmath.mpf(float(x)))
                assert abs((mpmath.mpf(str(got)) - ref) / ref) <= 1e-16, x

    def test_digamma_long_double(self):
        # the asymptotic series in long double on the arguments the tables
        # use, x in [(m+1)/2, (m+k+112)/2] for m > -1 and short Q
        import mpmath
        with mpmath.workdps(30):
            for x in np.concatenate([np.linspace(0.0, 2.0, 201)[1:], np.linspace(2.05, 64.0, 400)]):
                got = distributions._digamma_ld(x)
                ref = mpmath.digamma(mpmath.mpf(float(x)))
                assert abs(mpmath.mpf(str(got)) - ref) <= 1e-18 * max(1, abs(ref)), x

    @staticmethod
    def _random_cell(rng):
        """An FRST probe cell of a library window, as in test_matches_mpmath_and_the_rule."""
        from fracspec.frst import _frst_params, _integrand_probe
        p = fs.make_frac_param(rng.uniform(1.0, 2.1))
        g = fs.window_by_name(rng.choice(TestHomogeneousClosedForm.WINDOWS))
        x, d, omega, amp = _frst_params(p, rng.uniform(-1.0, 3.0),
                                        rng.choice([1.0, -1.0]) * rng.uniform(0.5, 2.0), False)
        return _integrand_probe(p, g, x, d, omega - rng.uniform(-1.0, 3.0), amp)

    @pytest.mark.parametrize("pattern", ["abs", "plus", "minus"])
    def test_log_kinds_match_mpmath(self, mp_pairing, pattern):
        # |x|^m ln(1/|x|) and x_+-^m ln(1/|x|): -d/dnu of the series against
        # -d/dnu of mpmath's Kummer form, relative to the value, at every
        # accepted cell of 20 random probe cells per degree (the rest lie
        # beyond the series' reach: the same powers without the log accept
        # 60, 59 and 56 of the 80 cells, the log kinds 59, 59 and 54)
        rng = np.random.default_rng(7)
        accepted_cells = 0
        for degree in (-0.5, 0.25, 0.5, 1.5):
            f = DD.homogeneous(pattern, degree, log_power=1)
            for _ in range(20):
                form = self._random_cell(rng).form()
                val, accepted = distributions._homogeneous_closed_form(f, form)
                if accepted:
                    accepted_cells += 1
                    ref = mp_pairing(f, form, dps=30)
                    assert abs(val - ref) <= 1e-13 * abs(ref), (pattern, degree)
        assert accepted_cells >= 50

    def test_log_kind_matches_the_rule(self, monkeypatch, p_third, hermite):
        # the slow paths as oracle of the closed form: the log descriptor
        # forced through the rule (cancellation bound 0), and the density
        # given as a closed_form function with a probe without its form,
        # each within the rule's budget of its scale; REZ1's probes at
        # three scales of the deep sequence
        from fracspec.frst import _frst_params, _integrand_probe
        f = DD.homogeneous("abs", 0.5, log_power=1)
        density = DD.closed_form(
            lambda t: np.sqrt(np.abs(t)) * -np.log(np.where(t != 0, np.abs(t), 1.0)) + 0j,
            singular_points=(0.0,))
        for eps in (2.0 ** -6, 2.0 ** -13, 2.0 ** -20):
            for x, xi in fs.asymptotics.DEFAULT_PROBES:
                probe = _integrand_probe(p_third, hermite,
                                         *_frst_params(p_third, eps * x, xi / eps, True))
                with tally_pairings() as closed:
                    val = pair(f, probe)
                assert closed.closed_form_pairings == 1
                scale = distributions._tanh_sinh_pairing(
                    f, probe, *distributions._pairing_interval(f, probe))[2]
                budget = distributions.PAIRING_ERROR_BUDGET * max(abs(val), scale)
                with monkeypatch.context() as mp, tally_pairings() as rule:
                    mp.setattr(distributions, "HOMOGENEOUS_CANCELLATION_MAX", 0.0)
                    assert abs(pair(f, probe) - val) <= budget
                assert rule.closed_form_pairings == 0 and rule.integrand_evaluations > 0
                assert abs(pair(density, replace(probe, form=None)) - val) <= budget

    def test_far_side_cell_pairs_in_closed_form(self, mp_pairing):
        # REZ1's probe (x, xi) = (-1.5, 2) at alpha = 1 lies on the far side
        # of x_+^1/4: its even and odd sums cancel thousands-fold
        from fracspec.frst import _frst_params, _integrand_probe
        p = fs.make_frac_param(1.0)
        f = DD.homogeneous("plus", 0.25)
        probe = _integrand_probe(p, fs.hermite_wavelet_window(), *_frst_params(p, -1.5, 2.0, True))
        with tally_pairings() as tally:
            val = pair(f, probe)
        assert tally.closed_form_pairings == 1 and tally.integrand_evaluations == 0
        assert abs(val - mp_pairing(f, probe.form(), dps=30)) <= 1e-13 * abs(val)

    def test_non_finite_pairing_is_refused(self):
        # REZ1's limit probe (x, xi) = (0.5, 2) at alpha = 1 reaches t = 6.5,
        # where t^400 overflows: the rule returns NaN, which is refused
        # without a numpy warning
        from fracspec.asymptotics import CLASSICAL_FT_PARAM
        from fracspec.frst import _frst_params, _integrand_probe
        c2 = fs.make_frac_param(1.0).c2
        x, d, omega, amp = _frst_params(CLASSICAL_FT_PARAM, 0.5 * c2, 2.0 / c2, False)
        probe = _integrand_probe(CLASSICAL_FT_PARAM, fs.hermite_wavelet_window(), x, d,
                                 omega - 2.0 * (1.0 / c2 - 1.0), amp)
        with pytest.raises(fs.PairingDiverged, match="not finite"):
            pair(DD.homogeneous("plus", 400.0), probe)


class TestSlowlyVarying:
    @staticmethod
    def ratio_deviation(L, eps, factor):
        """|L(a eps)/L(eps) - 1|, which tends to 0 for a slowly varying L."""
        return float(abs(L(np.asarray(factor * eps)) / L(np.asarray(eps)) - 1.0))

    def test_ratio_limit_models(self):
        # |L(a eps)/L(eps) - 1| < 0.01 once eps is small enough per model
        assert self.ratio_deviation(SV_ONE, 2.0 ** -30, 2.0) == 0.0
        lp = SlowlyVarying("logpow", 1.0)
        assert self.ratio_deviation(lp, 2.0 ** -120, 2.0) < 0.01
        assert self.ratio_deviation(lp, 2.0 ** -120, 0.5) < 0.01
        il = SlowlyVarying("iterlog")
        assert self.ratio_deviation(il, 2.0 ** -40, 2.0) < 0.01

    def test_ratio_deviation_decreases(self):
        lp = SlowlyVarying("logpow", 1.0)
        devs = [self.ratio_deviation(lp, 2.0 ** -k, 2.0) for k in (10, 20, 40)]
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
        # an empty sequence, and a NaN the decreasing check cannot see
        with pytest.raises(ValueError):
            ScaleSequence(())
        with pytest.raises(ValueError):
            ScaleSequence([0.25, 0.125, float("nan"), 0.01])
        with pytest.raises(ValueError):
            ScaleSequence([float("inf"), 0.25])


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
        # one verdict per row
        rows = np.array([[2.0, 1.0001, 1.00008, 1.00003, 1.00001], [1.0, 2.0, 1.0, 2.0, 1.0]])
        assert is_cauchy(rows).tolist() == [True, False]
        assert is_cauchy(rows[:, :2]).tolist() == [False, False]


class TestJson:
    def test_delta_json(self):
        d = DD.from_json({"kind": "delta", "terms": [[0, 0, 1.0]]})
        assert d.kind == "delta" and d.terms[0].weight == 1.0
        d2 = DD.from_json({"kind": "delta", "terms": [[0.5, 1, [0.0, 2.0]]]})
        assert d2.terms[0].weight == 2.0j

    def test_homogeneous_json(self):
        d = DD.from_json({"kind": "homogeneous", "pattern": "abs", "degree": 0.5})
        assert d.degree == 0.5 and d.log_power == 0
        for log_power in (0, 1):
            d = DD.from_json({"kind": "homogeneous", "pattern": "minus", "degree": 0.5,
                              "log_power": log_power})
            assert d == DD.homogeneous("minus", 0.5, log_power=log_power)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            DD.from_json({"kind": "fractal"})
