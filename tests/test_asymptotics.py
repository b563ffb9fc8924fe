import json
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import fracspec as fs
from fracspec.asymptotics import (
    CHECKERS,
    check_rez1,
    check_te1_hypotheses,
    check_te3,
    check_te4,
    check_te5,
    check_teab1,
    delta_fixture,
    log_sqrt_abs_fixture,
    sqrt_abs_fixture,
)
from fracspec.distributions import DistributionDescriptor as DD, ScaleSequence, SV_ONE
from fracspec.asymptotics import AsymptoticFixture
from fracspec.frst import _frst_params, _integrand_probe


def zero_fixture():
    z = DD.delta_comb([(0.0, 0, 0.0)])
    return AsymptoticFixture(f=z, m=-1.0, L=SV_ONE, u=z, label="zero")


class TestDeltaFixtures:
    """Delta fixtures follow exact power laws: everything is tight."""

    def test_rez1(self, p_third, hermite):
        rep = check_rez1(p_third, hermite, delta_fixture())
        assert rep.verdict == "pass"
        assert rep.max_slope_deviation < 1e-10
        assert rep.max_ratio_deviation < 1e-10
        assert_allclose(rep.fitted_exponent, -1.0, atol=1e-10)
        # the omitted modulation is invisible on delta
        assert rep.extras["printed_ratio_deviation"] < 1e-10

    def test_teab1(self, p_third, hermite):
        rep = check_teab1(p_third, hermite, delta_fixture())
        assert rep.verdict == "pass"
        assert_allclose(rep.fitted_exponent, 1.0, atol=1e-10)
        assert rep.max_ratio_deviation < 1e-10

    def test_te3(self, p_third, hermite):
        rep = check_te3(p_third, hermite, delta_fixture())
        assert rep.verdict == "pass"
        assert_allclose(rep.fitted_exponent, -0.5, atol=1e-10)
        assert rep.max_ratio_deviation < 1e-10
        assert rep.extras["printed_ratio_deviation"] < 1e-10

    @pytest.mark.parametrize("alpha", [0.05, 0.1])
    @pytest.mark.parametrize("window", ["hermite1", "mexican-hat"])
    def test_te3_delta_prime_at_small_angle(self, alpha, window):
        # TE3 probes through M_{c2} g with c2 = csc(alpha) of 10 to 20: the
        # window's modulation, not its envelope, dominates the derivative
        d1 = DD.delta(order=1)
        fx = AsymptoticFixture(f=d1, m=-2.0, L=SV_ONE, u=d1, label="delta'")
        rep = check_te3(fs.make_frac_param(alpha), fs.window_by_name(window), fx)
        assert rep.verdict == "pass"
        assert_allclose(rep.fitted_exponent, -1.5, atol=1e-10)
        assert rep.max_ratio_deviation < 1e-12

    def test_te4_printed_phase_visible(self, p_third, hermite):
        rep = check_te4(p_third, hermite, delta_fixture())
        assert rep.verdict == "pass"
        assert_allclose(rep.fitted_exponent, 0.5, atol=1e-10)
        assert rep.max_ratio_deviation < 1e-10
        # the printed conclusion differs by exp(i x xi (c2-1)) even on delta
        assert rep.extras["printed_ratio_deviation"] > 0.1

    def test_te5(self, p_third, mexican):
        rep = check_te5(p_third, mexican, delta_fixture())
        assert rep.verdict == "pass"
        assert_allclose(rep.fitted_exponent, -1.0, atol=1e-3)
        assert rep.max_ratio_deviation < 1e-4
        decay = rep.extras["x_dependence_decay"]
        assert decay[-1] < 1e-5
        assert decay[-1] < decay[0]

    def test_obtuse_angle_sign_conventions(self, hermite, mexican):
        # c1 < 0 on (pi/2, pi); delta fixtures stay machine-exact
        p = fs.make_frac_param(2 * np.pi / 3)
        for checker, win in ((check_rez1, hermite), (check_teab1, hermite),
                             (check_te5, mexican)):
            rep = checker(p, win, delta_fixture())
            assert rep.verdict == "pass"
            assert rep.max_ratio_deviation < 1e-4

    def test_scale_invariance_of_verdicts(self, p_third, hermite):
        d = DD.delta_comb([(0.0, 0, -3.7)])
        fx = AsymptoticFixture(f=d, m=-1.0, L=SV_ONE, u=d, label="scaled delta")
        rep = check_rez1(p_third, hermite, fx)
        assert rep.verdict == "pass"
        assert rep.max_ratio_deviation < 1e-10


class TestModulationCorrections:
    """On |x|^(1/2) the printed rez1/te3 forms are visibly off while the
    substitution-derived limits match; teab1/te5 are right as printed."""

    def test_rez1_derived_vs_printed(self, p_third, hermite):
        rep = check_rez1(p_third, hermite, sqrt_abs_fixture())
        assert rep.verdict == "pass"
        assert rep.max_ratio_deviation < 5e-3
        assert rep.extras["printed_ratio_deviation"] > 0.1

    def test_te3_derived_vs_printed(self, p_third, hermite):
        rep = check_te3(p_third, hermite, sqrt_abs_fixture())
        assert rep.verdict == "pass"
        assert rep.extras["printed_ratio_deviation"] > 0.1


def _limit_probe(theorem, p, g, m, x, xi):
    """The derived limit at the probe (x, xi) as (window, X, d, omega, amp, a):
    amp e^{iat} conj(w(d (t - X))) e^{-i omega t} paired with u is the limit,
    a classical S_w (d = omega = Xi) or W_w (d = 1/s, omega = 0) point of
    M_a u; see the asymptotics module docstring."""
    c1, c2 = p.c1, p.c2
    st = np.sqrt(1.0 - 1j * c1) / c2 ** m * abs(xi / c2) / np.sqrt(2 * np.pi)
    if theorem == "rez1":
        return g, x * c2, xi / c2, xi / c2, st, xi * (1.0 / c2 - 1.0)
    if theorem == "teab1":
        return g, x * c2, xi / c2, xi / c2, st, xi / c2
    if theorem == "te3":
        return fs.modulate(g, c2), x * c2, xi / c2, 0.0, c2 ** -(m + 0.5) * (c2 / xi) ** -0.5, 0.0
    if theorem == "te4":
        amp = np.sqrt(2 * np.pi / xi) / c2 ** m * abs(xi / c2) / np.sqrt(2 * np.pi)
        return g, x * c2, xi / c2, xi / c2, amp, xi / c2
    assert theorem == "te5"
    return g, 0.0, xi, 0.0, p.c_alpha * np.sqrt(xi) * (1.0 / xi) ** -0.5, -xi * c2


def _comb_pairing(terms, w, X, d, omega, amp, a):
    """sum w_j (-1)^k_j psi^(k_j)(t_j), k_j <= 1, for psi(t) = amp e^{i nu t}
    G(d (t - X)), nu = a - omega and G = conj(w) = P(u) e^{-u^2/(2 width^2) - i
    carrier u}: psi' = amp e^{i nu t} (i nu G + d G'), G' = (P' + P (-u/width^2
    - i carrier)) e^{...}."""
    P = np.polynomial.Polynomial(w.poly)
    nu = a - omega
    total = 0.0
    for t, k, weight in terms:
        u = d * (t - X)
        env = np.exp(-u * u / (2 * w.width ** 2) - 1j * w.carrier * u)
        G = P(u) * env
        if k == 0:
            val = G
        else:
            assert k == 1
            val = -(1j * nu * G + d * (P.deriv()(u) + P(u) * (-u / w.width ** 2 - 1j * w.carrier)) * env)
        total += weight * amp * np.exp(1j * nu * t) * val
    return total


class TestModulatedLimits:
    """Each checker pairs its limit at all probes as one family, with each
    probe's modulation folded into its frequency.  The reported RHS must be
    the per-probe value of the modulated limit, computed without the batch."""

    COMB = ((0.7, 1, 1.0), (-0.4, 0, 0.5j))

    @pytest.mark.parametrize("theorem", sorted(CHECKERS))
    def test_off_origin_comb(self, p_third, hermite, mexican, theorem):
        u = DD.delta_comb(self.COMB)
        g = mexican if theorem == "te5" else hermite
        rep = CHECKERS[theorem](p_third, g, AsymptoticFixture(u, -2.0, SV_ONE, u, "comb"))
        want = np.array([_comb_pairing(self.COMB, *_limit_probe(theorem, p_third, g, -2.0, x, xi))
                         for x, xi in rep.probes])
        assert np.max(np.abs(rep.rhs - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("theorem", sorted(CHECKERS))
    def test_one_sided_power(self, p_third, hermite, mexican, theorem):
        # the per-probe oracle: e^{iat} times the classical probe, a plain
        # function paired by the quadrature rule
        u = DD.homogeneous("plus", 0.25)
        g = mexican if theorem == "te5" else hermite
        rep = CHECKERS[theorem](p_third, g, AsymptoticFixture(u, 0.25, SV_ONE, u, "x_+^1/4"))
        want = []
        for x, xi in rep.probes:
            w, X, d, omega, amp, a = _limit_probe(theorem, p_third, g, 0.25, x, xi)
            fn = (lambda t, w=w, X=X, d=d, omega=omega, amp=amp, a=a:
                  amp * np.exp(1j * (a - omega) * t) * np.conj(w.eval(d * (t - X))))
            want.append(fs.distributions.pair(
                u, fs.distributions.TestFunction(fn=fn, center=X, radius=w.support_radius / abs(d))))
        want = np.array(want)
        assert np.max(np.abs(rep.rhs - want)) <= 1e-12 * np.max(np.abs(want))

    def test_no_single_probe_pairing(self, monkeypatch, p_third, hermite):
        # |x|^1/2 pairs its LHS and both right-hand sides as families in
        # closed form: no pairing goes through pair_with_error
        calls = []
        single = fs.distributions.pair_with_error
        monkeypatch.setattr(fs.distributions, "pair_with_error",
                            lambda f, phi: calls.append(1) or single(f, phi))
        rep = check_rez1(p_third, hermite, sqrt_abs_fixture())
        assert rep.verdict == "pass" and not calls


# upper end of each theorem's open angle interval (0, hi)
ANGLE_UPPER = {"rez1": np.pi, "teab1": np.pi, "te3": np.pi / 2, "te4": np.pi / 2,
               "te5": np.pi}


class TestAngleGates:
    @pytest.mark.parametrize("name", sorted(CHECKERS))
    def test_intervals(self, name, hermite):
        # the gate fires before any constant is formed: a checker that used
        # the NaN constants of a singular angle first would warn here
        check, hi = CHECKERS[name], ANGLE_UPPER[name]
        fx = delta_fixture()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(fs.AngleOutsideTheoremRange):
                check(fs.make_frac_param(hi + 0.4), hermite, fx)
            for singular in (0.0, np.pi):
                with pytest.raises(fs.SingularAngle):
                    check(fs.make_frac_param(singular), hermite, fx)

    def test_te3_accepts_just_below_half_pi(self, hermite):
        rep = check_te3(fs.make_frac_param(1.5), hermite, delta_fixture())
        assert rep.verdict == "pass"


class TestDegenerateInput:
    def test_not_applicable(self, p_third, hermite):
        rep = check_rez1(p_third, hermite, zero_fixture())
        assert rep.verdict == "not-applicable"
        rep5 = check_te5(p_third, hermite, zero_fixture())
        assert rep5.verdict == "not-applicable"

    def test_te4_refuses_a_non_positive_scale(self, p_third, hermite):
        # TE4's probes are FRWT scales 1/(eps xi): xi must be positive
        with pytest.raises(ValueError, match="FRWT scales must be finite and positive"):
            check_te4(p_third, hermite, delta_fixture(), probes=((0.5, 2.0), (0.5, -2.0)))


class TestVanishingLimit:
    def test_te5_odd_window_on_delta(self, p_third, hermite):
        # hermite1 is odd, so the stated limit c_a sqrt(xi) W_g u(0, 1/xi)
        # is zero at every probe while the LHS is not
        rep = check_te5(p_third, hermite, delta_fixture())
        assert np.all(rep.rhs == 0)
        assert np.max(np.abs(rep.lhs)) > 0
        assert rep.verdict == "not-applicable"
        assert any("vanishes at every probe" in n for n in rep.notes)
        assert np.all(np.isnan(rep.fitted_exponent))

    def test_partly_zero_limit_keeps_its_verdict(self, p_third, hermite):
        # rez1's limit for hermite1 on a delta is zero at x = 0 only; one
        # probe with a nonzero limit keeps the fitted verdict
        rep = check_rez1(p_third, hermite, delta_fixture(),
                         probes=((0.0, 2.0), (0.5, 2.0)))
        assert rep.rhs[0] == 0 and abs(rep.rhs[1]) > 0
        assert rep.verdict == "pass"


    @pytest.mark.parametrize("checker", [check_teab1, check_te4])
    def test_rounding_noise_limit_is_masked(self, checker, hermite):
        # on delta' the hermite1 limit vanishes analytically at the probes
        # (+-0.5, 2.0) but evaluates to ~1e-16; no ratio is formed against it
        d1 = DD.delta(order=1)
        fx = AsymptoticFixture(f=d1, m=-2.0, L=SV_ONE, u=d1, label="delta'")
        rep = checker(fs.make_frac_param(1.0), hermite, fx)
        live = np.abs(rep.rhs) > 1e-12 * np.max(np.abs(rep.rhs))
        assert 0 < live.sum() < len(rep.probes)
        assert np.all(np.isnan(rep.ratio[~live])) and np.all(np.isfinite(rep.ratio[live]))
        assert rep.max_ratio_deviation < 1e-5
        assert rep.extras.get("printed_ratio_deviation", 0.0) < 1.0


class TestNegativeDegree:
    def test_te5_inverse_sqrt_abs(self, p_third, mexican):
        # |x|^-1/2 is infinite at the origin, where TE5's limit and its
        # x-dependence centre are evaluated
        h = DD.homogeneous("abs", -0.5)
        fx = AsymptoticFixture(f=h, m=-0.5, L=SV_ONE, u=h, label="|x|^-1/2")
        rep = check_te5(p_third, mexican, fx)
        assert rep.verdict == "pass"
        assert rep.max_ratio_deviation < 5e-3
        decay = rep.extras["x_dependence_decay"]
        assert all(b < 0.6 * a for a, b in zip(decay, decay[1:]))


class TestTe1Hypotheses:
    def test_delta_passes(self, p_third, hermite):
        rep = check_te1_hypotheses(p_third, hermite, DD.delta(), m=-1.0,
                                   r=2, s=2.0)
        assert rep.verdict == "pass"
        assert rep.all_converged
        assert rep.bound_feasible
        assert np.isfinite(rep.bound_constant) and rep.bound_constant > 0

    def test_origin_column_of_the_bound(self, p_third, hermite, mexican):
        # |x|^r vanishes at x = 0, so the bound holds there only where the
        # transform does: hermite1 is odd, the mexican hat is not
        rep = check_te1_hypotheses(p_third, hermite, DD.delta(), m=-1.0,
                                   x_lattice=(0.0, 1.0))
        assert rep.bound_feasible and rep.verdict == "pass"
        rep = check_te1_hypotheses(p_third, mexican, DD.delta(), m=-1.0,
                                   x_lattice=(0.0, 1.0))
        assert rep.all_converged
        assert not rep.bound_feasible and rep.verdict == "fail"

    def test_invalid_exponent(self, p_third, hermite):
        with pytest.raises(fs.InvalidExponent):
            check_te1_hypotheses(p_third, hermite, DD.delta(), m=-1.0, s=0.5)

    def test_zero_input_trivial_bound(self, p_third, hermite):
        # a null sequence converges and D = 0 bounds it: nothing is tested,
        # as for the scaling checkers' all-zero transform
        for zero in (DD.delta_comb([(0.0, 0, 0.0)]), DD.from_json({"kind": "delta", "terms": []})):
            rep = check_te1_hypotheses(p_third, hermite, zero, m=-1.0)
            assert rep.verdict == "not-applicable"
            assert rep.converged_cells == rep.total_cells == 80
            assert rep.bound_feasible and rep.bound_constant == 0.0

    def test_sqrt_abs_cell_pairs_in_closed_form(self, p_third, hermite, mp_pairing):
        # the (eps x, eps xi) probe spans 10/(eps xi) under a chirp; the
        # quadrature rule refuses some of these cells
        # (below), the closed form pairs every one of them
        f = sqrt_abs_fixture().f
        rep = check_te1_hypotheses(p_third, hermite, f, m=0.5, x_lattice=(1.0,),
                                   xi_lattice=(1.0, 16.0, -16.0))
        assert rep.closed_form_pairings == rep.pairings == 3 * len(ScaleSequence())
        assert rep.integrand_evaluations == 0
        for xi in (1.0, 16.0, -16.0):
            probe = _integrand_probe(p_third, hermite, *_frst_params(p_third, 0.25, 0.25 * xi, True))
            ref = mp_pairing(f, probe.form())
            assert abs(fs.pair(f, probe) - ref) <= 1e-13 * abs(ref)

    def test_rule_refuses_the_cell_of_a_closed_form_density(self, p_third, hermite):
        # the same te1 cells against sqrt|x| given as a closed_form
        # descriptor, which takes the quadrature route: at eps = 1/8 the
        # rule's estimate (0.74) misses its budget, and the pairing is refused
        sqrt_abs = DD.closed_form(lambda t: np.sqrt(np.abs(t)) + 0j, singular_points=(0.0,))
        with pytest.raises(fs.PairingDiverged, match=r"estimate 7\.396e-01"):
            check_te1_hypotheses(p_third, hermite, sqrt_abs, m=0.5,
                                 x_lattice=(1.0,), xi_lattice=(1.0,))


class TestSlowlyVaryingFixture:
    def test_log_fixture_slope_restored(self, p_third, hermite):
        # dividing by L = |ln eps| restores the pure-power exponent on a
        # fixture that genuinely carries the log factor (deep sequence: the
        # 1/|ln eps| corrections decay only logarithmically)
        deep = ScaleSequence(tuple(2.0 ** -k for k in range(6, 21)))
        rep = check_rez1(p_third, hermite, log_sqrt_abs_fixture(), seq=deep,
                         ratio_tol=None)
        assert rep.verdict == "pass"
        assert abs(np.nanmax(rep.fitted_exponent) - 0.5) < 0.05


class TestReportSerialization:
    def test_json_round_trip(self, p_third, hermite):
        rep = check_rez1(p_third, hermite, delta_fixture())
        payload = json.dumps(rep.to_json_dict())
        back = json.loads(payload)
        assert back["theorem_id"] == "REZ1"
        assert back["verdict"] == "pass"
        assert len(back["lhs"]) == len(rep.probes)

    def test_te1_json(self, p_third, hermite):
        rep = check_te1_hypotheses(p_third, hermite, DD.delta(), m=-1.0)
        payload = json.loads(json.dumps(rep.to_json_dict()))
        assert payload["theorem_id"] == "TE1_HYPOTHESES"
        # one exact pairing per lattice cell and eps, no integrand
        assert payload["pairings"] == rep.total_cells * len(ScaleSequence())
        assert payload["integrand_evaluations"] == 0

    def test_pairing_counters(self, p_third, hermite, mexican):
        rep = check_rez1(p_third, hermite, sqrt_abs_fixture())
        # LHS at 8 probes x 11 eps, and the derived and printed RHS at 8
        # probes, all in closed form: no integrand is evaluated
        assert rep.extras["pairings"] == 8 * 11 + 2 * 8
        assert rep.extras["closed_form_pairings"] == rep.extras["pairings"]
        assert rep.extras["integrand_evaluations"] == 0
        assert rep.extras["max_rel_error_estimate"] == 0.0
        # TE5 also counts the x = 0 centres of its x-dependence decay
        assert check_te5(p_third, mexican, sqrt_abs_fixture()).extras["pairings"] == 8 * 11 + 8 + 2 * 11
        again = check_rez1(p_third, hermite, sqrt_abs_fixture())
        assert json.dumps(again.to_json_dict()) == json.dumps(rep.to_json_dict())

    def test_one_sided_power_pairs_in_closed_form(self, p_third, hermite):
        # the probes centred on the far side of x_+^1/4 pair in closed form too
        plus = DD.homogeneous("plus", 0.25)
        fx = AsymptoticFixture(f=plus, m=0.25, L=SV_ONE, u=plus, label="x_+^1/4")
        extras = check_rez1(p_third, hermite, fx).extras
        assert extras["closed_form_pairings"] == extras["pairings"] == 8 * 11 + 2 * 8
        assert extras["integrand_evaluations"] == 0

    def test_log_fixture_pairs_in_closed_form(self, p_third, hermite):
        # |x|^1/2 ln(1/|x|) is log-homogeneous: its LHS pairs in closed form
        # like its |x|^1/2 RHS, and no integrand is evaluated
        rep = check_rez1(p_third, hermite, log_sqrt_abs_fixture())
        extras = rep.extras
        assert extras["closed_form_pairings"] == extras["pairings"] == 8 * 11 + 2 * 8
        assert extras["integrand_evaluations"] == 0
        assert extras["max_rel_error_estimate"] == 0.0


def _per_cell(f, probe_of, n):
    """pair_cells as a loop over single-cell pairings."""
    return np.array([fs.distributions.pair(f, probe_of(c)) for c in range(n)], dtype=complex)


def _delta_prime_fixture():
    d1 = DD.delta(order=1)
    return AsymptoticFixture(f=d1, m=-2.0, L=SV_ONE, u=d1, label="delta'")


class TestBatchedLattices:
    """Each checker pairs its probe x eps lattice in one batch; run again
    with pair_cells replaced by single-cell pairings, it must report the same
    verdicts, exponents and counters.  Function-type fixtures must report the
    same bytes: |x|^1/2 and the log fixture are paired in closed form, which
    rounds a batch as single cells."""

    FIXTURES = {"delta": delta_fixture, "delta'": _delta_prime_fixture,
                "sqrt-abs": sqrt_abs_fixture}

    @staticmethod
    def _compare(batched, per_cell, exact):
        assert batched.verdict == per_cell.verdict
        a, b = np.asarray(batched.fitted_exponent), np.asarray(per_cell.fitted_exponent)
        assert np.array_equal(np.isnan(a), np.isnan(b))
        assert np.all(np.abs(a - b)[~np.isnan(a)] <= 1e-12)
        for key in ("pairings", "integrand_evaluations"):
            assert batched.extras[key] == per_cell.extras[key], key
        if exact:
            assert json.dumps(batched.to_json_dict()) == json.dumps(per_cell.to_json_dict())

    @pytest.mark.parametrize("fixture", sorted(FIXTURES))
    @pytest.mark.parametrize("theorem", sorted(CHECKERS))
    def test_checkers(self, monkeypatch, p_third, hermite, mexican, theorem, fixture):
        fx = self.FIXTURES[fixture]()
        g = mexican if theorem == "te5" else hermite
        batched = CHECKERS[theorem](p_third, g, fx)
        monkeypatch.setattr(fs.frst, "pair_cells", _per_cell)
        per_cell = CHECKERS[theorem](p_third, g, fx)
        self._compare(batched, per_cell, exact=fixture == "sqrt-abs")

    def test_log_fixture(self, monkeypatch, p_third, hermite):
        deep = ScaleSequence(tuple(2.0 ** -k for k in range(6, 21)))
        batched = check_te4(p_third, hermite, log_sqrt_abs_fixture(), seq=deep, ratio_tol=None)
        monkeypatch.setattr(fs.frst, "pair_cells", _per_cell)
        per_cell = check_te4(p_third, hermite, log_sqrt_abs_fixture(), seq=deep, ratio_tol=None)
        self._compare(batched, per_cell, exact=True)

    def test_te1_lattice(self, monkeypatch, p_third, hermite):
        batched = check_te1_hypotheses(p_third, hermite, DD.delta(order=1), m=-2.0)
        monkeypatch.setattr(fs.frst, "pair_cells", _per_cell)
        per_cell = check_te1_hypotheses(p_third, hermite, DD.delta(order=1), m=-2.0)
        assert batched.verdict == per_cell.verdict
        assert batched.converged_cells == per_cell.converged_cells
        assert abs(batched.bound_constant - per_cell.bound_constant) <= 1e-12 * per_cell.bound_constant
        assert batched.pairings == per_cell.pairings == 80 * len(ScaleSequence())

    @pytest.mark.parametrize("f, m", [(DD.delta(order=1), -2.0), (DD.homogeneous("abs", 0.5), 0.5),
                                      (DD.delta_comb([]), -1.0)])
    def test_te1_bound_repeats_the_per_cell_loop(self, p_third, hermite, f, m):
        # convergence, the x = 0 feasibility and D judged cell by cell in
        # scalar arithmetic, on a lattice with a cell at x = 0
        xs, xis, r, s = (-1.0, 0.0, 0.5, 2.0), (-4.0, -0.25, 0.5, 16.0), 3, 1.5
        rep = check_te1_hypotheses(p_third, hermite, f, m=m, r=r, s=s,
                                   x_lattice=xs, xi_lattice=xis)
        eps = np.array(list(ScaleSequence()))
        x_col, xi_col = (np.array(v)[:, None] for v in zip(*[(x, xi) for x in xs for xi in xis]))
        cells = fs.frst_point(p_third, hermite, f, eps * x_col, eps * xi_col, drop_xi_chirp=True)
        cells = cells / (eps ** m * SV_ONE(eps))
        converged, D, feasible = 0, 0.0, True
        for x, xi, v in zip(x_col[:, 0].tolist(), xi_col[:, 0].tolist(), cells):
            converged += bool(fs.distributions.is_cauchy(v))
            mags = np.abs(v)
            if abs(x) < 1e-12:
                feasible = feasible and not np.max(mags) > 1e-12
                continue
            D = max(D, float(np.max(mags) * (abs(xi) + 1.0 / abs(xi)) ** s / abs(x) ** r))
        assert (rep.converged_cells, rep.bound_feasible, rep.bound_constant) == (converged,
                                                                                 feasible, D)

    def test_function_type_lattice_repeats_the_scalar_formula(self, p_third, hermite):
        # each LHS written per cell in scalar arithmetic: the batch must round
        # every cell the same way.  TE3: e^{i c1 (eps x)^2/2} W f(eps x, eps/xi);
        # TEAB1 (one family over all eps): S_{g_{1/eps^2}} f(eps x, eps xi).
        # TE4 folds its window M_{c2} g_{1/eps^2} into one family of probes
        # of g, so it repeats the per-eps batch of that window to rounding
        p, gm = p_third, fs.modulate(hermite, p_third.c2)

        def te3(fx, x, xi, e):
            return np.exp(1j * 0.5 * p.c1 * (e * x) ** 2) * fs.frwt_point(p, gm, fx.f, e * x, e / xi)

        def teab1(fx, x, xi, e):
            return fs.frst_point(p, fs.dilate(hermite, 1.0 / (e * e)), fx.f, e * x, e * xi,
                                 drop_xi_chirp=True)

        for theorem, cell, fixture in [("te3", te3, "sqrt-abs"), ("teab1", teab1, "sqrt-abs"),
                                       ("teab1", teab1, "delta'")]:
            fx = self.FIXTURES[fixture]()
            rep = CHECKERS[theorem](p, hermite, fx)
            want = [[cell(fx, x, xi, e) for e in rep.eps] for x, xi in rep.probes]
            assert np.array_equal(rep.lhs, np.array(want)), (theorem, fixture)

        def te4(fx, x, xi, e):
            h = fs.modulate(fs.dilate(hermite, 1.0 / (e * e)), p.c2)
            w = fs.frwt.frwt_point(p, h, fx.f, e * x, 1.0 / (e * xi))
            return np.exp(1j * (0.5 * p.c1 * (e * x) ** 2 - p.c2 * e * e * x * xi)) * w

        for fixture in ("sqrt-abs", "delta'"):
            fx = self.FIXTURES[fixture]()
            rep = check_te4(p, hermite, fx)
            x, xi = (np.array(v)[:, None] for v in zip(*rep.probes))
            want = np.hstack([te4(fx, x, xi, e) for e in rep.eps])
            dev = np.max(np.abs(rep.lhs - want), axis=1) / np.max(np.abs(want), axis=1)
            assert np.all(dev <= 1e-14), fixture


def test_te1_rejected_cells_skip_the_closed_form(monkeypatch, p_third, hermite):
    # |x|^1/2 against dilated:hermite1:3.0 leaves 8 cells beyond the series'
    # reach; they go to the quadrature rule without a second closed-form
    # pass: the closed form sees each of the 880 cells once
    cells = []
    closed_form = fs.distributions._homogeneous_closed_form
    monkeypatch.setattr(fs.distributions, "_homogeneous_closed_form",
                        lambda f, form: cells.append(np.size(form.a)) or closed_form(f, form))
    rep = check_te1_hypotheses(p_third, fs.dilate(hermite, 3.0), DD.homogeneous("abs", 0.5),
                               m=0.5)
    assert sum(cells) == 880
    assert (rep.pairings, rep.closed_form_pairings, rep.integrand_evaluations) == (880, 872, 25092)
