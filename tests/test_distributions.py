import math

import numpy as np
import pytest
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
    window_probe,
)

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
        from dataclasses import replace
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
