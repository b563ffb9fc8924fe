"""Distribution descriptors realized as pairing oracles.

A descriptor represents a tempered/Lizorkin distribution through the action
<f, phi> on smooth rapidly decaying test functions:

* delta combs  sum w_j * delta^(k_j)(. - a_j)   (exact pairing),
* homogeneous functions |x|^m, x_+^m, x_-^m with m > -1 (locally
  integrable), optionally times ln(1/|x|) (``log_power`` 1); the windows'
  admissibility constants pair |x|^-1 and x_+^-1 too, with numerators
  that vanish at 0,
* closed-form functions of polynomial growth.

Descriptors are paired by one of three routes, which ``pair_cells``
chooses for a whole family of probes (``pair`` is its one-cell case):

* delta combs, sum_j w_j (-1)^k_j phi^(k_j)(a_j): the terms of order 0 by
  the probe's own values, the others by ``GaussianForm.derivative``, exact
  polynomial algebra on the probe's Gaussian form
  Q(u) e^{-a u^2 + b u + c}, u = t - origin (every FRST/FRWT probe carries
  one, centred at the probe), at all cells of a block in one evaluation
  per term;
* homogeneous kinds, with a probe that carries a ``GaussianForm``, in
  closed form: one long-double power series in b/sqrt(a) over all cells of
  a block, at the cells it resolves (see HOMOGENEOUS_SERIES_TERMS); the
  log kinds by the same series differentiated in the degree;
* everything else (closed-form descriptors, the cells the closed form
  leaves out, probes built from a plain function) cell by cell through
  ``pair_with_error``: a fixed tanh-sinh rule on panels split at their
  singular points, evaluated on all of its nodes at once.  The windows'
  admissibility constants are pairings of this kind: the density |w|^-1
  (or w_+^-1) with a spectral numerator as probe.  A pairing whose rule
  error estimate misses PAIRING_ERROR_BUDGET is refused.  The rule's
  test oracle, adaptive quadrature by ``quad`` (scipy's), lives in the
  tests: no runtime path calls it.

``GaussianForm`` lives here, with the pairings that read it: this module
imports nothing from ``windows``, which imports it.  A descriptor carries
no modulation: M_a f pairs as <f, e^{iat} phi>, which the transforms'
probes realize as a shift of their frequency (see ``asymptotics``).
"""

from __future__ import annotations

import functools
import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DerivativeOrderTooHigh, PairingDiverged
from .fraccore import KERNEL_BLOCK_ELEMENTS, TWO_PI_LD, cmul

# relative to max(|value|, scale); a pairing whose tanh-sinh error estimate
# exceeds it raises PairingDiverged
PAIRING_ERROR_BUDGET = 1e-10
MAX_DERIVATIVE_ORDER = 4        # of GaussianForm.derivative


@dataclass(frozen=True)
class GaussianForm:
    """phi(t) = sum_k q[..., k] u^k e^{-a u^2 + b u + c}, u = t - origin,
    with Re a > 0.

    The leading axes of q, and the shapes of a, b, c and origin, are the
    cells' of a probe family (none for a single probe).  A probe's form is
    centred at the probe: about 0, its exponent would cancel terms of size
    (x/width)^2 for a probe at x, and their rounding would stay in it.
    """

    q: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    origin: np.ndarray = 0.0

    def about(self, t0) -> "GaussianForm":
        """The same phi centred at t0: with h = t0 - origin, b -> b - 2 a h,
        c -> c + h (b - a h) and q_j -> sum_{k>=j} binom(k, j) q_k h^(k-j),
        by Horner in h."""
        h = np.asarray(t0) - self.origin
        top = self.q.shape[-1] - 1
        r = [0.0] * (top + 1)
        for j in range(top + 1):
            for k in range(top, j - 1, -1):
                r[j] = r[j] * h + math.comb(k, j) * self.q[..., k]
        return GaussianForm(np.stack(np.broadcast_arrays(*r), axis=-1), self.a,
                            self.b - 2.0 * self.a * h, self.c + h * (self.b - self.a * h), t0)

    def long_double(self) -> "GaussianForm":
        """The same form in long double."""
        q, a, b, c = (np.asarray(v, dtype=np.clongdouble) for v in (self.q, self.a, self.b, self.c))
        return GaussianForm(q, a, b, c, np.asarray(self.origin, dtype=np.longdouble))

    def derivative(self, t0, order: int) -> np.ndarray:
        """phi^(order)(t0) at each cell; t0 broadcasts against the cells.

        Centred at t0 (``about``), phi(t0 + v) = e^{c} R(v) E(v) with
        E(v) = e^{b v - a v^2} = sum_m e_m v^m, where e_0 = 1, e_1 = b and
        (m+1) e_{m+1} = b e_m - 2 a e_{m-1}.  So
        phi^(n)(t0) = n! e^{c} sum_{j<=n} r_j e_{n-j}, in long double.
        """
        if order < 0:
            raise ValueError(f"derivative order {order} is negative")
        if order > MAX_DERIVATIVE_ORDER:
            raise DerivativeOrderTooHigh(
                f"derivative order {order} exceeds {MAX_DERIVATIVE_ORDER}")
        fm = self.long_double().about(np.asarray(t0, dtype=np.longdouble))
        e = [np.ones_like(fm.b), fm.b]
        for m in range(1, order):
            e.append((fm.b * e[m] - 2.0 * fm.a * e[m - 1]) / (m + 1))
        total = sum(fm.q[..., j] * e[order - j] for j in range(min(order, fm.q.shape[-1] - 1) + 1))
        return (math.factorial(order) * np.exp(fm.c) * total).astype(complex)


@dataclass(frozen=True)
class TestFunction:
    """Smooth rapidly decaying probe with an effective support interval.

    A probe family (see ``pair_cells``) holds arrays of center and radius,
    one entry per cell, and its fn maps t whose leading axes are the cells'
    to each cell's probe values.  ``form``, when known, builds fn's
    ``GaussianForm`` (on demand: only homogeneous pairings, in closed form,
    and delta derivatives read it).  A transform of fn must transform the
    form too, or drop it.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    center: float = 0.0
    radius: float = 10.0
    name: str = ""
    form: Optional[Callable[[], GaussianForm]] = field(default=None, repr=False)

    def __call__(self, t):
        return self.fn(np.asarray(t, dtype=float))


@dataclass(frozen=True)
class DeltaTerm:
    location: float
    order: int
    weight: complex


@dataclass(frozen=True)
class DistributionDescriptor:
    """Pairing oracle for one distribution; see module docstring."""

    kind: str                     # "delta" | "homogeneous" | "closed_form"
    terms: tuple[DeltaTerm, ...] = ()
    pattern: str = "abs"          # "abs" | "plus" | "minus"
    degree: float = 0.0
    log_power: int = 0            # homogeneous: times ln(1/|x|)^log_power
    func: Optional[Callable[[np.ndarray], np.ndarray]] = field(default=None, repr=False)
    singular_points: tuple = ()

    # ---- constructors -----------------------------------------------------

    @staticmethod
    def delta(location: float = 0.0, order: int = 0, weight: complex = 1.0):
        return DistributionDescriptor.delta_comb([(location, order, weight)])

    @staticmethod
    def delta_comb(terms: Sequence[tuple]):
        """sum w delta^(k)(. - a) over (a, k, w), each term checked."""
        terms = [(float(a), float(k), complex(w)) for a, k, w in terms]
        for a, k, w in terms:
            if not (np.isfinite(a) and np.isfinite(w) and k.is_integer() and k >= 0):
                raise ValueError(f"delta term ({a}, {k:g}, {w}) needs a finite location "
                                 "and weight and a non-negative integer order")
        return DistributionDescriptor(
            kind="delta", terms=tuple(DeltaTerm(a, int(k), w) for a, k, w in terms))

    @staticmethod
    def homogeneous(pattern: str, degree: float, log_power: int = 0):
        """|x|^m, x_+^m or x_-^m (pattern "abs", "plus", "minus"), m = degree,
        times ln(1/|x|) where log_power is 1."""
        degree = float(degree)
        if pattern not in ("abs", "plus", "minus"):
            raise ValueError(f"unknown homogeneous pattern {pattern!r}")
        if not -1 < degree < np.inf:
            raise ValueError("homogeneous degree must be finite and exceed -1 "
                             f"(locally integrable); got {degree}")
        if type(log_power) is not int or log_power not in (0, 1):   # not a bool or 1.0
            raise ValueError(f"homogeneous log_power must be the integer 0 or 1; got {log_power!r}")
        return DistributionDescriptor(kind="homogeneous", pattern=pattern, degree=degree,
                                      log_power=log_power, singular_points=(0.0,))

    @staticmethod
    def closed_form(func, singular_points: tuple = ()):
        return DistributionDescriptor(kind="closed_form", func=func,
                                      singular_points=tuple(singular_points))

    @staticmethod
    def from_json(obj: dict) -> "DistributionDescriptor":
        """Descriptor from its JSON object; malformed input raises ValueError."""
        num = _json_number
        try:
            kind = obj.get("kind")
            if kind == "delta":
                return DistributionDescriptor.delta_comb(
                    [(num(a), num(k), _json_weight(w)) for a, k, w in obj["terms"]])
            if kind == "homogeneous":
                return DistributionDescriptor.homogeneous(obj["pattern"], num(obj["degree"]),
                                                          obj.get("log_power", 0))
        except (TypeError, AttributeError) as exc:
            raise ValueError(f"malformed descriptor {obj!r}: {exc}") from None
        raise ValueError(f"unknown descriptor kind {kind!r}")

    # ---- pointwise density (function-type kinds only) ----------------------

    def density(self, t: np.ndarray) -> np.ndarray:
        """Pointwise density of a function-type kind.

        Homogeneous densities are 0 at the origin: for m < 0, |0|^m is
        infinite (and so is ln(1/0)), and one infinite sample would poison
        the magnitude that sets the pairing's error tolerance.  A single
        point does not change the integral.
        """
        t = np.asarray(t, dtype=float)
        if self.kind == "homogeneous":
            support = {"abs": t != 0, "plus": t > 0, "minus": t < 0}[self.pattern]
            magnitude = np.where(support, np.abs(t), 1.0)   # 1 off the support: all finite
            power = magnitude ** self.degree
            if self.log_power:
                power = power * -np.log(magnitude)
            return np.where(support, power, 0.0)
        if self.kind == "closed_form":
            return np.asarray(self.func(t), dtype=complex)
        raise ValueError("delta combs have no pointwise density")


def _json_number(v):
    if type(v) not in (int, float):   # a JSON string, boolean or null
        raise TypeError(f"{v!r} is not a number")
    return v


def _json_weight(w):
    re, im = w if isinstance(w, (list, tuple)) else (w, 0)   # a number or [re, im]
    return complex(_json_number(re), _json_number(im))


@dataclass
class PairingTally:
    """Counters of the pairings made while a ``tally_pairings`` block is open.

    ``closed_form_pairings`` counts the homogeneous pairings made by the
    series closed form; ``integrand_evaluations`` counts the points at
    which a quadrature rule evaluated density x probe (0 for exact delta
    and closed-form pairings); ``max_rel_error_estimate`` is the largest
    quadrature error estimate relative to the scale its budget is set
    against.
    """

    pairings: int = 0
    closed_form_pairings: int = 0
    integrand_evaluations: int = 0
    max_rel_error_estimate: float = 0.0

    def as_dict(self) -> dict:
        return asdict(self)


# The open tallies live in a context variable, not in a parameter: pairings
# are made several calls below the checkers that count them, through
# frst_point and frwt_point, whose signatures carry no counters.  A family
# of cells counts one pairing per cell.
_OPEN_TALLIES: ContextVar[tuple] = ContextVar("fracspec_open_tallies", default=())


@contextmanager
def tally_pairings():
    """Count the pairings made inside the block (also in enclosing blocks)."""
    tally = PairingTally()
    token = _OPEN_TALLIES.set(_OPEN_TALLIES.get() + (tally,))
    try:
        yield tally
    finally:
        _OPEN_TALLIES.reset(token)


def _record(evaluations: int, rel_error: float, pairings: int = 1,
            closed_form: int = 0) -> None:
    for tally in _OPEN_TALLIES.get():
        tally.pairings += pairings
        tally.closed_form_pairings += closed_form
        tally.integrand_evaluations += evaluations
        tally.max_rel_error_estimate = max(tally.max_rel_error_estimate, rel_error)


# Tanh-sinh (double-exponential) rule: Takahasi & Mori, Publ. RIMS 9 (1974);
# Bailey, Jeyabalan & Li, Exp. Math. 14(3) (2005).  t = k h on [-SPAN, SPAN]
# maps to x = tanh(pi/2 sinh t) on [-1, 1].  A panel [a, b] of half width c
# takes the node a + c r (t <= 0) or b - c r (t > 0) with r = 1 - |x|
# = 2q/(1+q), q = exp(-pi |sinh t|): each node is placed by its distance
# from the nearer end, so nodes next to a singular end carry no
# cancellation.  At the last node r is 1e-214, so an end singularity |t|^m
# with m > -0.9 leaves out a tail below 1e-21 of its panel's integral.
TANH_SINH_STEP = 1.0 / 32       # the fine level h/2; levels h and 2h take every 2nd, 4th node
TANH_SINH_SPAN = 5.75
PAIRING_PANELS = 8              # equal panels, split further at singular points


def _tanh_sinh_rule():
    n = round(TANH_SINH_SPAN / TANH_SINH_STEP)
    k = np.arange(-n, n + 1)
    t = k * TANH_SINH_STEP
    q = np.exp(-np.pi * np.abs(np.sinh(t)))
    r = 2.0 * q / (1.0 + q)
    # dx/dt = (pi/2) cosh t / cosh^2(pi/2 sinh t), with 1/cosh^2 = 4q/(1+q)^2
    w = TANH_SINH_STEP * 0.5 * np.pi * np.cosh(t) * 4.0 * q / (1.0 + q) ** 2
    return t <= 0, r, w, k % 2 == 0, k % 4 == 0


_TS_LEFT, _TS_DIST, _TS_WEIGHT, _TS_COARSE, _TS_COARSER = _tanh_sinh_rule()


def _pairing_interval(f: "DistributionDescriptor", probe: TestFunction) -> tuple[float, float]:
    """The probe's support, cut to the half-line of a one-sided power."""
    lo, hi = probe.center - probe.radius, probe.center + probe.radius
    if f.kind == "homogeneous" and f.pattern == "plus":
        lo = max(lo, 0.0)
    if f.kind == "homogeneous" and f.pattern == "minus":
        hi = min(hi, 0.0)
    return lo, hi


def _tanh_sinh_pairing(f: "DistributionDescriptor", probe: TestFunction, lo: float,
                       hi: float) -> tuple[complex, float, float, int]:
    """(value, error estimate, scale, evaluations) of int_lo^hi density x probe.

    The error of the fine sum S(h/2) is estimated from three levels, after
    Bailey, Jeyabalan & Li: with d1 = |S(h/2) - S(h)|, the error of S(h),
    and d2 = |S(h/2) - S(2h)|, that of S(2h), the step's last halving is
    taken to shrink the error by d1/d2 as the one before it did, giving
    d1 (d1/d2) where d2 > d1, and d1 otherwise.  To that come the
    outermost terms, which bound the tails the node set leaves out, and the
    rounding of the sum, eps * scale; scale is the h/2 sum of |terms|.
    """
    edges = np.linspace(lo, hi, PAIRING_PANELS + 1)
    edges = np.unique(np.concatenate([edges, [p for p in f.singular_points if lo < p < hi]]))
    a, b = edges[:-1, None], edges[1:, None]
    c = 0.5 * (b - a)
    nodes = np.where(_TS_LEFT, a + c * _TS_DIST, b - c * _TS_DIST)
    terms = c * _TS_WEIGHT * f.density(nodes) * np.asarray(probe(nodes), dtype=complex)
    fine = complex(np.sum(terms))
    d1 = abs(fine - 2.0 * complex(np.sum(terms[:, _TS_COARSE])))
    d2 = abs(fine - 4.0 * complex(np.sum(terms[:, _TS_COARSER])))
    scale = float(np.sum(np.abs(terms)))
    tails = float(np.sum(np.abs(terms[:, [0, -1]])))
    # d1 (d1/d2), not d1^2/d2: d1^2 overflows where the terms are near 1e200
    err = (d1 * (d1 / d2) if d2 > d1 else d1) + tails + np.finfo(float).eps * scale
    return fine, err, scale, nodes.size


def quad(*args, **kwargs):
    """``scipy.integrate.quad``, imported by the first call: the rule's test oracle."""
    from scipy.integrate import quad as scipy_quad
    return scipy_quad(*args, **kwargs)


# Homogeneous pairings in closed form.  Moved to the origin, a probe is
# sum_k q_k t^k e^{-a t^2 + b t + c}.  With w = b/sqrt(a), e^{bt} as its
# Taylor series and DLMF 5.9.1, int_0^inf t^nu e^{-a t^2 + b t} dt =
# I(nu, w) = 1/2 a^{-(nu+1)/2} sum_n w^n Gamma((nu+n+1)/2)/n!: x_+^m pairs as
# sum_k q_k e^c I(m+k, w), x_-^m as sum_k (-1)^k q_k e^c I(m+k, -w), |x|^m as
# their sum.  -d/dnu of I(nu, w) pairs t^nu ln(1/t): term n gains the factor
# 1/2 [ln a - psi((nu+n+1)/2)] (DLMF 5.15; the series is analytic in nu,
# Gel'fand & Shilov, Generalized Functions I, sec. I.3), so the log kinds sum
# 1/2 ln a times the same terms minus those terms times 1/2 psi.  Each cell
# sums the same terms in long double (so a batch rounds each cell as it
# rounds alone) and is accepted where its value is finite, its last two
# terms are below 2^-64 of its |terms| (to |b^2/4a| ~ 11) and its |terms|
# (of both sums, for a log kind) exceed its value at most
# HOMOGENEOUS_CANCELLATION_MAX-fold (the far side of a one-sided power needs
# 2.2e4); the quadrature rule pairs the rest.  The |terms| are summed
# without forming them: with the running product |w|^n, sum_k |lead_k|
# (|w|^n @ |C|^T)_k over all n and over the last two, and for a log kind
# |1/2 ln a| times that plus the same with |C psi/2|.  A family is paired
# in blocks of KERNEL_BLOCK_ELEMENTS // HOMOGENEOUS_SERIES_TERMS cells, so
# the (cells, n) arrays of powers stay small.
HOMOGENEOUS_SERIES_TERMS = 112
HOMOGENEOUS_CANCELLATION_MAX = 1e5


def _gamma_ld(x) -> np.ndarray:
    """Gamma(x), x > 0, in long double: Stirling's series for ln Gamma(x + 32)
    to its B_12 term (the next is below 1e-22), over x (x+1) ... (x+31)."""
    x = np.asarray(x, dtype=np.longdouble)
    y = x + 32
    series = sum(np.longdouble(p) / q / y ** (2 * j + 1) for j, (p, q) in enumerate(
        ((1, 12), (-1, 360), (1, 1260), (-1, 1680), (1, 1188), (-691, 360360))))
    return np.exp((y - 0.5) * np.log(y) - y + np.log(TWO_PI_LD) / 2 + series) / np.prod(
        x[..., None] + np.arange(32, dtype=np.longdouble), axis=-1)


def _digamma_ld(x) -> np.ndarray:
    """psi(x), x > 0, in long double: the asymptotic series of psi(x + 32) to
    its B_12 term (the next is below 1e-22), minus 1/x + ... + 1/(x+31)."""
    x = np.asarray(x, dtype=np.longdouble)
    y = x + 32
    series = sum(np.longdouble(p) / q / y ** (2 * j + 2) for j, (p, q) in enumerate(
        ((1, 12), (-1, 120), (1, 252), (-1, 240), (1, 132), (-691, 32760))))
    return np.log(y) - 0.5 / y - series - np.sum(
        1 / (x[..., None] + np.arange(32, dtype=np.longdouble)), axis=-1)


@functools.cache
def _series_coefficients(pattern: str, degree: float, terms: int,
                         log_power: int) -> tuple[np.ndarray, ...]:
    """Read-only C[k, n] = Gamma((degree+k+n+1)/2)/n! for k < terms, times
    (-1)^(k+n) for x_-^m and 1 + (-1)^(k+n) for |x|^m; for log_power 1 also
    C[k, n] psi((degree+k+n+1)/2)/2."""
    k, n = np.ogrid[:terms, :HOMOGENEOUS_SERIES_TERMS]
    factorial = np.cumprod(np.maximum(n, 1), axis=-1, dtype=np.longdouble)
    x = (np.longdouble(degree) + 1 + k + n) / 2
    coeff = _gamma_ld(x) / factorial
    coeff *= {"plus": 1.0, "minus": (-1.0) ** (k + n), "abs": 1.0 + (-1.0) ** (k + n)}[pattern]
    tables = (coeff, coeff * _digamma_ld(x) / 2) if log_power else (coeff,)
    for table in tables:
        table.flags.writeable = False
    return tables


def _homogeneous_closed_form(f: "DistributionDescriptor",
                             form: GaussianForm) -> tuple[np.ndarray, np.ndarray]:
    """(<f, phi>, accepted) at each cell of the form, NaN where not accepted."""
    form = form.long_double().about(0.0)
    # a cell beyond the series' reach (or of a huge degree) may overflow: not accepted
    with np.errstate(over="ignore", invalid="ignore"):
        coeff, *psi = _series_coefficients(f.pattern, f.degree, form.q.shape[-1], f.log_power)
        w = form.b / np.sqrt(form.a)
        # w^n and |w|^n as running products, built in place
        powers = np.empty(w.shape + (HOMOGENEOUS_SERIES_TERMS,), dtype=w.dtype)
        moduli = np.empty(powers.shape, dtype=np.longdouble)
        powers[..., 0], powers[..., 1:] = 1.0, w[..., None]
        moduli[..., 0], moduli[..., 1:] = 1.0, np.abs(w)[..., None]
        np.cumprod(powers, axis=-1, out=powers)
        np.cumprod(moduli, axis=-1, out=moduli)
        lead = 0.5 * form.q * np.exp(form.c)[..., None] * form.a[..., None] ** (
            -(np.longdouble(f.degree) + 1 + np.arange(coeff.shape[0])) / 2)
        sums = powers @ coeff.T
        # per k, the sums of |w^n C[k, n]| over all n and over the last two
        size, tail = moduli @ np.abs(coeff.T), moduli[..., -2:] @ np.abs(coeff[:, -2:].T)
        if psi:   # -d/dnu: 1/2 ln a times the sums, minus the psi sums
            half_log_a = np.log(form.a)[..., None] / 2
            sums = half_log_a * sums - powers @ psi[0].T
            size = np.abs(half_log_a) * size + moduli @ np.abs(psi[0].T)
            tail = np.abs(half_log_a) * tail + moduli[..., -2:] @ np.abs(psi[0][:, -2:].T)
        vals = np.sum(lead * sums, axis=-1).astype(complex)
        # the sum of |terms| over k and n, and over the last two n
        terms, tail = (np.sum(np.abs(lead) * s, axis=-1) for s in (size, tail))
        accepted = (np.isfinite(vals) & (tail <= 2.0 ** -64 * terms)
                    & (terms <= HOMOGENEOUS_CANCELLATION_MAX * np.abs(vals)))
    return np.where(accepted, vals, np.nan), accepted


def pair_with_error(f: DistributionDescriptor, phi: TestFunction) -> tuple[complex, float]:
    """Quadrature pairing <f, phi> of a function-type descriptor with its
    error estimate, by the tanh-sinh rule.

    A value that is not finite, or whose estimate exceeds
    PAIRING_ERROR_BUDGET of max(|value|, scale), is refused
    (PairingDiverged).  Exact delta and closed-form pairings are made by
    ``pair_cells`` only.  Every pairing is counted in the open
    ``tally_pairings`` blocks.
    """
    lo, hi = _pairing_interval(f, phi)
    if hi <= lo:
        _record(0, 0.0)
        return 0.0 + 0.0j, 0.0

    # an overflowing density leaves a value that is not finite, which is
    # refused: numpy need not warn on the way
    with np.errstate(over="ignore", invalid="ignore"):
        val, err, scale, evaluations = _tanh_sinh_pairing(f, phi, lo, hi)
    if not np.isfinite(val):
        raise PairingDiverged(f"pairing value {val:.3e} is not finite")
    if not err <= PAIRING_ERROR_BUDGET * max(abs(val), scale):
        raise PairingDiverged(
            f"pairing error estimate {err:.3e} exceeds budget for value {val:.3e}")
    _record(evaluations, err / max(abs(val), scale, 1e-250))
    return val, err


def _delta_pairing(f: DistributionDescriptor, phi: TestFunction, n: int) -> np.ndarray:
    """sum_j w_j (-1)^k_j phi^(k_j)(a_j) at each of phi's n cells (n = 1 for
    a single probe): phi(a_j) by phi's fn, the derivatives by its
    ``GaussianForm``, which a probe paired with delta^(k >= 1) must have."""
    form = None
    if any(term.order for term in f.terms):
        if phi.form is None:
            raise ValueError(f"a delta derivative needs the probe's GaussianForm; "
                             f"probe {phi.name!r} has no form")
        form = phi.form()
    val = np.zeros(n, dtype=complex)
    for term in f.terms:
        deriv = (phi.fn(np.full(n, term.location)) if term.order == 0
                 else form.derivative(term.location, term.order))
        val += cmul(term.weight * (-1.0) ** term.order, deriv)
    return val


def pair_cells(f: DistributionDescriptor, probe_of: Callable[[object], TestFunction],
               n: int) -> np.ndarray:
    """<f, phi_c> for the cells c = 0 .. n-1 of a probe family.

    ``probe_of(cells)`` is the probe family of the cells selected by a slice
    (arrays of center and radius), or the single probe of an integer cell.
    This is where a pairing's route is chosen.  A delta comb is paired
    exactly at the cells of one block at once, at most KERNEL_BLOCK_ELEMENTS
    cells.  A homogeneous descriptor is paired in closed form at the cells
    of a family with a ``GaussianForm`` in blocks of
    KERNEL_BLOCK_ELEMENTS // HOMOGENEOUS_SERIES_TERMS cells, one evaluation
    per block; each cell rounds as it does alone.  Other function-type
    descriptors and the cells the closed form leaves out go cell by cell to
    ``pair_with_error``.  Every cell counts as one pairing.
    """
    if not isinstance(f, DistributionDescriptor):
        raise TypeError(f"pair_cells pairs distribution descriptors, not {type(f).__name__}")
    vals = np.empty(n, dtype=complex)
    if f.kind == "delta":
        for lo in range(0, n, KERNEL_BLOCK_ELEMENTS):
            cells = slice(lo, min(lo + KERNEL_BLOCK_ELEMENTS, n))
            vals[cells] = _delta_pairing(f, probe_of(cells), cells.stop - lo)
        _record(0, 0.0, pairings=n)
        return vals
    rest = range(n)
    if f.kind == "homogeneous":
        accepted = np.zeros(n, dtype=bool)
        block = KERNEL_BLOCK_ELEMENTS // HOMOGENEOUS_SERIES_TERMS
        for lo in range(0, n, block):
            cells = slice(lo, min(lo + block, n))
            form = probe_of(cells).form
            if form is not None:
                # a single probe's form gives 0-d arrays
                vals[cells], accepted[cells] = (np.reshape(v, cells.stop - lo) for v in
                                                _homogeneous_closed_form(f, form()))
        _record(0, 0.0, pairings=int(accepted.sum()), closed_form=int(accepted.sum()))
        rest = np.flatnonzero(~accepted)
    for c in rest:
        vals[c] = pair_with_error(f, probe_of(int(c)))[0]
    return vals


def pair(f: DistributionDescriptor, phi: TestFunction) -> complex:
    """<f, phi> for one probe: the one-cell case of ``pair_cells``."""
    return complex(pair_cells(f, lambda _: phi, 1)[0])


@dataclass(frozen=True)
class SlowlyVarying:
    """Slowly varying function at the origin: L(a*eps)/L(eps) -> 1.

    Models: "one" (L=1), "logpow" (|ln eps|^a), "iterlog" (ln|ln eps|),
    defined on (0, eps_max].
    """

    model: str = "one"
    a: float = 1.0
    eps_max: float = 0.25

    def __call__(self, eps):
        eps = np.asarray(eps, dtype=float)
        if np.any(eps <= 0) or np.any(eps > self.eps_max):
            raise ValueError(f"eps outside domain (0, {self.eps_max}]")
        if self.model == "one":
            return np.ones_like(eps)
        if self.model == "logpow":
            return np.abs(np.log(eps)) ** self.a
        if self.model == "iterlog":
            return np.log(np.abs(np.log(eps)))
        raise ValueError(f"unknown slowly varying model {self.model!r}")


SV_ONE = SlowlyVarying("one")


@dataclass(frozen=True)
class ScaleSequence:
    eps: tuple

    def __init__(self, eps=None):
        if eps is None:
            eps = tuple(2.0 ** -k for k in range(2, 13))
        eps = tuple(float(e) for e in eps)
        if not (eps and np.isfinite(eps).all()):
            raise ValueError("scale sequence must be non-empty and finite")
        if any(e2 >= e1 for e1, e2 in zip(eps, eps[1:])):
            raise ValueError("scale sequence must be strictly decreasing")
        if eps[-1] < 2.0 ** -20:
            raise ValueError("scale sequence below the quadrature sanity floor 2^-20")
        object.__setattr__(self, "eps", eps)

    def __iter__(self):
        return iter(self.eps)

    def __len__(self):
        return len(self.eps)


FIT_POINTS = 6   # tail entries a log-slope fit uses


def log_slope(eps: np.ndarray, mags: np.ndarray) -> tuple[float, float]:
    """Least-squares slope of log mags against log eps.

    Fits the last FIT_POINTS entries with mags > 1e-300; returns (slope,
    max abs residual), or (nan, nan) when fewer than 3 entries are usable.
    """
    usable = mags > 1e-300
    if usable.sum() < 3:
        return float("nan"), float("nan")
    le = np.log(eps[usable])[-FIT_POINTS:]
    lv = np.log(mags[usable])[-FIT_POINTS:]
    slope, intercept = np.polyfit(le, lv, 1)
    return float(slope), float(np.max(np.abs(lv - (slope * le + intercept))))


# Cauchy criterion for "the sequence converges" at finite precision.
CAUCHY_REL_TOL = 1e-4


def is_cauchy(values: np.ndarray) -> np.ndarray:
    """Per sequence along the last axis: at least 4 values, and its last
    three gaps below CAUCHY_REL_TOL (1 + |last value|)."""
    v = np.asarray(values)
    if v.shape[-1] < 4:
        return np.zeros(v.shape[:-1], dtype=bool)
    gaps = np.abs(np.diff(v[..., -4:], axis=-1))
    return np.all(gaps < CAUCHY_REL_TOL * (1.0 + np.abs(v[..., -1:])), axis=-1)
