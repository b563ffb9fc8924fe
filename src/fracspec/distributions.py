"""Distribution descriptors realized as pairing oracles.

A descriptor represents a tempered/Lizorkin distribution through the action
<f, phi> on smooth rapidly decaying test functions:

* delta combs  sum w_j * delta^(k_j)(. - a_j)   (exact pairing),
* homogeneous functions |x|^m, x_+^m, x_-^m with m > -1 (locally
  integrable),
* closed-form functions of polynomial growth.

Descriptors are paired by one of three routes:

* delta combs by contour derivatives of the probe (exact up to rounding);
* homogeneous kinds, with a probe that carries a ``GaussianForm``
  Q(t) e^{-a t^2 + b t + c} (every FRST/FRWT probe of a library window), in
  closed form: a sum of Kummer functions M(alpha, beta, b^2/4a), one
  vectorised ``hyp1f1`` call over all cells of a family.  The closed form
  is used where |z| = |b^2/4a| <= HOMOGENEOUS_Z_MAX = 10 and its terms
  exceed its value at most HOMOGENEOUS_CANCELLATION_MAX = 1e3-fold;
* everything else (closed-form descriptors, the cells the closed form
  leaves out, probes without a form) by a fixed tanh-sinh rule on panels
  split at their singular points, evaluated on all of its nodes at once.
  Where the rule's own error estimate misses its budget, adaptive
  quadrature (``quad``) takes over; it is also the rule's test oracle.

``pair`` also takes a ``SampledSignal``, which it pairs by the trapezoid
rule on the signal's own grid; that is the one way a sampled signal is
paired, so the point transforms and the grid kernels agree on it.

``pair_cells`` pairs f with a family of probes, one per cell: a delta comb
at all cells in one evaluation per term, a homogeneous kind at all cells in
one closed-form evaluation, anything else cell by cell through ``pair``, so
those pairings are the per-cell ones.  A batch rounds every cell as the
cell alone would.

Scaled pairings <f(eps x), phi(x)> reduce to (1/eps) <f(t), phi(t/eps)>,
and a modulation wrapper realizes M_a f exactly by multiplying the test
function with exp(i*a*t).
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Optional, Sequence, Union

import numpy as np
from scipy.integrate import quad
from scipy.special import gamma, hyp1f1

from .errors import DegenerateSequence, PairingDiverged
from .fraccore import SampledSignal, cmul
from .windows import (
    CONTOUR_NODES,
    CONTOUR_RADIUS,
    KERNEL_BLOCK_ELEMENTS,
    Window,
    contour_derivative,
    modulated_length,
)

# relative; a pairing whose error estimate exceeds it even through the
# adaptive-quadrature fallback raises PairingDiverged
PAIRING_ERROR_BUDGET = 1e-8


@dataclass(frozen=True)
class GaussianForm:
    """phi(t) = sum_k q[..., k] t^k e^{-a t^2 + b t + c} with Re a > 0.

    The leading axes of q, and the shapes of a, b and c, are the cells' of
    a probe family (none for a single probe).
    """

    q: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def scaled(self, eps: float) -> "GaussianForm":
        """The form of phi(t/eps)."""
        k = np.arange(self.q.shape[-1])
        return GaussianForm(self.q / eps ** k, self.a / eps ** 2, self.b / eps, self.c)

    def modulated(self, a: float) -> "GaussianForm":
        """The form of e^{iat} phi(t)."""
        return replace(self, b=self.b + 1j * a)


@dataclass(frozen=True)
class TestFunction:
    """Smooth rapidly decaying probe with an effective support interval.

    A probe family (see ``pair_cells``) holds arrays of center, radius and
    scale, one entry per cell, and its fn maps t whose leading axes are the
    cells' to each cell's probe values.  ``form``, when known, builds fn's
    ``GaussianForm`` (on demand: only homogeneous pairings read it, in
    closed form).  A transform of fn must transform the form too, or drop
    it.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    center: float = 0.0
    radius: float = 10.0
    scale: float = 1.0      # characteristic length, sets the derivative contour
    name: str = ""
    form: Optional[Callable[[], GaussianForm]] = field(default=None, repr=False)

    def __call__(self, t):
        return self.fn(np.asarray(t, dtype=float))


def window_probe(g: Window) -> TestFunction:
    return TestFunction(fn=lambda t: np.asarray(g.eval(t), dtype=complex),
                        center=0.0, radius=g.support_radius,
                        scale=g.length_scale, name=g.name)


def probe_battery(c2: float = 2.0 / np.sqrt(3.0)) -> list[TestFunction]:
    """Fixed probe battery: Gaussians at four widths, the Hermite and
    Mexican-hat wavelets, and modulated Gaussians at a in {1, c2}."""
    from .windows import gaussian_window, hermite_wavelet_window, mexican_hat_window, modulate

    wins = [gaussian_window(0.5), gaussian_window(1.0), gaussian_window(2.0),
            gaussian_window(4.0), hermite_wavelet_window(), mexican_hat_window(),
            modulate(gaussian_window(1.0), 1.0), modulate(gaussian_window(1.0), c2)]
    return [window_probe(w) for w in wins]


@dataclass(frozen=True)
class DeltaTerm:
    location: float
    order: int
    weight: complex


@dataclass(frozen=True)
class DistributionDescriptor:
    """Pairing oracle for one distribution; see module docstring.

    ``modulation`` wraps the base distribution with M_a (a phase factor
    exp(i*a*t) folded into every pairing), which is how modulated limit
    distributions are realized exactly.
    """

    kind: str                     # "delta" | "homogeneous" | "closed_form"
    terms: tuple[DeltaTerm, ...] = ()
    pattern: str = "abs"          # "abs" | "plus" | "minus"
    degree: float = 0.0
    func: Optional[Callable[[np.ndarray], np.ndarray]] = field(default=None, repr=False)
    singular_points: tuple = ()
    modulation: float = 0.0

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
    def homogeneous(pattern: str, degree: float):
        degree = float(degree)
        if pattern not in ("abs", "plus", "minus"):
            raise ValueError(f"unknown homogeneous pattern {pattern!r}")
        if not -1 < degree < np.inf:
            raise ValueError("homogeneous degree must be finite and exceed -1 "
                             f"(locally integrable); got {degree}")
        return DistributionDescriptor(kind="homogeneous", pattern=pattern,
                                      degree=degree, singular_points=(0.0,))

    @staticmethod
    def closed_form(func, singular_points: tuple = ()):
        return DistributionDescriptor(kind="closed_form", func=func,
                                      singular_points=tuple(singular_points))

    def modulated(self, a: float) -> "DistributionDescriptor":
        """M_a f; exact wrapper applied at pairing time."""
        return replace(self, modulation=self.modulation + float(a))

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
                return DistributionDescriptor.homogeneous(obj["pattern"], num(obj["degree"]))
        except (TypeError, AttributeError) as exc:
            raise ValueError(f"malformed descriptor {obj!r}: {exc}") from None
        raise ValueError(f"unknown descriptor kind {kind!r}")

    # ---- pointwise density (function-type kinds only) ----------------------

    def density(self, t: np.ndarray) -> np.ndarray:
        """Pointwise density of a function-type kind.

        Homogeneous densities are 0 at the origin: for m < 0, |0|^m is
        infinite, and one infinite sample would poison the magnitude that
        sets the pairing's error tolerance.  A single point does not change
        the integral.
        """
        t = np.asarray(t, dtype=float)
        if self.kind == "homogeneous":
            support = {"abs": t != 0, "plus": t > 0, "minus": t < 0}[self.pattern]
            with np.errstate(divide="ignore"):
                base = np.where(support, np.abs(t) ** self.degree, 0.0)
        elif self.kind == "closed_form":
            base = np.asarray(self.func(t), dtype=complex)
        else:
            raise ValueError("delta combs have no pointwise density")
        if self.modulation:
            base = base * np.exp(1j * self.modulation * t)
        return base


def _json_number(v):
    if type(v) not in (int, float):   # a JSON string, boolean or null
        raise TypeError(f"{v!r} is not a number")
    return v


def _json_weight(w):
    re, im = w if isinstance(w, (list, tuple)) else (w, 0)   # a number or [re, im]
    return complex(_json_number(re), _json_number(im))


def _modulated_probe(phi: TestFunction, a: float) -> TestFunction:
    if a == 0.0:
        return phi
    return replace(phi, scale=modulated_length(phi.scale, a),
                   fn=lambda t, _f=phi.fn, _a=a: np.exp(1j * _a * np.asarray(t)) * np.asarray(_f(t), dtype=complex),
                   form=None if phi.form is None else lambda _f=phi.form, _a=a: _f().modulated(_a))


SignalOrDistribution = Union[SampledSignal, DistributionDescriptor]


@dataclass
class PairingTally:
    """Counters of the pairings made while a ``tally_pairings`` block is open.

    ``closed_form_pairings`` counts the homogeneous pairings made by the
    Kummer closed form; ``integrand_evaluations`` counts the points at
    which a quadrature rule evaluated density x probe (0 for exact delta
    and closed-form pairings); ``max_rel_error_estimate`` is the largest
    quadrature error estimate relative to the scale its budget is set
    against.
    """

    pairings: int = 0
    closed_form_pairings: int = 0
    integrand_evaluations: int = 0
    max_rel_error_estimate: float = 0.0
    quad_fallbacks: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


# The open tallies live in a context variable, not in a parameter: pairings
# are made several calls below the checkers that count them, through
# frst_point/frst_cells and frwt_point/frwt_cells, whose signatures carry no
# counters.  A batch of cells counts one pairing per cell.
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


def _record(evaluations: int, rel_error: float, fallback: bool = False,
            pairings: int = 1, closed_form: int = 0) -> None:
    for tally in _OPEN_TALLIES.get():
        tally.pairings += pairings
        tally.closed_form_pairings += closed_form
        tally.integrand_evaluations += evaluations
        tally.max_rel_error_estimate = max(tally.max_rel_error_estimate, rel_error)
        tally.quad_fallbacks += fallback


# Tanh-sinh (double-exponential) rule: Takahasi & Mori, Publ. RIMS 9 (1974);
# Bailey, Jeyabalan & Li, Exp. Math. 14(3) (2005).  t = k h on [-SPAN, SPAN]
# maps to x = tanh(pi/2 sinh t) on [-1, 1].  A panel [a, b] of half width c
# takes the node a + c r (t <= 0) or b - c r (t > 0) with r = 1 - |x|
# = 2q/(1+q), q = exp(-pi |sinh t|): each node is placed by its distance
# from the nearer end, so nodes next to a singular end carry no
# cancellation.  At the last node r is 1e-214, so an end singularity |t|^m
# with m > -0.9 leaves out a tail below 1e-21 of its panel's integral.
TANH_SINH_STEP = 1.0 / 32       # the fine level h/2; the level h takes every other node
TANH_SINH_SPAN = 5.75
PAIRING_PANELS = 8              # equal panels, split further at singular points
TANH_SINH_ACCEPT = 1e-2         # fraction of the budget the rule's own estimate must meet


def _tanh_sinh_rule():
    n = round(TANH_SINH_SPAN / TANH_SINH_STEP)
    k = np.arange(-n, n + 1)
    t = k * TANH_SINH_STEP
    q = np.exp(-np.pi * np.abs(np.sinh(t)))
    r = 2.0 * q / (1.0 + q)
    # dx/dt = (pi/2) cosh t / cosh^2(pi/2 sinh t), with 1/cosh^2 = 4q/(1+q)^2
    w = TANH_SINH_STEP * 0.5 * np.pi * np.cosh(t) * 4.0 * q / (1.0 + q) ** 2
    return t <= 0, r, w, k % 2 == 0


_TS_LEFT, _TS_DIST, _TS_WEIGHT, _TS_COARSE = _tanh_sinh_rule()


def _pairing_interval(f: "DistributionDescriptor", probe: TestFunction) -> tuple[float, float]:
    """The probe's support, cut to the half-line of a one-sided power."""
    lo, hi = probe.center - probe.radius, probe.center + probe.radius
    if f.kind == "homogeneous" and f.pattern == "plus":
        lo = max(lo, 0.0)
    if f.kind == "homogeneous" and f.pattern == "minus":
        hi = min(hi, 0.0)
    return lo, hi


def _tanh_sinh_accepts(val: complex, err: float, scale: float) -> bool:
    return err <= TANH_SINH_ACCEPT * PAIRING_ERROR_BUDGET * max(abs(val), scale)


def _tanh_sinh_pairing(f: "DistributionDescriptor", probe: TestFunction, lo: float,
                       hi: float) -> tuple[complex, float, float, int]:
    """(value, error estimate, scale, evaluations) of int_lo^hi density x probe.

    The estimate is |S(h) - S(h/2)| plus the outermost terms, which bound
    the tails the node set leaves out; scale is the h/2 sum of |terms|.
    """
    edges = np.linspace(lo, hi, PAIRING_PANELS + 1)
    edges = np.unique(np.concatenate([edges, [p for p in f.singular_points if lo < p < hi]]))
    a, b = edges[:-1, None], edges[1:, None]
    c = 0.5 * (b - a)
    nodes = np.where(_TS_LEFT, a + c * _TS_DIST, b - c * _TS_DIST)
    terms = c * _TS_WEIGHT * f.density(nodes) * np.asarray(probe(nodes), dtype=complex)
    fine = complex(np.sum(terms))
    coarse = 2.0 * complex(np.sum(terms[:, _TS_COARSE]))
    err = abs(fine - coarse) + float(np.sum(np.abs(terms[:, [0, -1]])))
    return fine, err, float(np.sum(np.abs(terms))), nodes.size


def _quad_pairing(f: "DistributionDescriptor", probe: TestFunction, lo: float,
                  hi: float) -> tuple[complex, float, float, int]:
    """Adaptive quadrature of the same integral; raises PairingDiverged over budget."""
    evaluations = 0

    def integrand(t):
        nonlocal evaluations
        evaluations += 1
        return f.density(np.asarray([t]))[0] * np.asarray(probe(np.asarray([t])), dtype=complex)[0]

    # anchor the absolute tolerance to the integrand's own magnitude so that
    # pairings of size 1e-15 are still resolved relatively
    sample = f.density(np.linspace(lo, hi, 65)) * np.asarray(probe(np.linspace(lo, hi, 65)), dtype=complex)
    scale = float(np.max(np.abs(sample))) * (hi - lo)
    pts = [p for p in set(f.singular_points) if lo < p < hi]
    kw = {"limit": 300, "epsabs": max(1e-13 * scale, 1e-280), "epsrel": 1e-10}
    if pts:
        kw["points"] = sorted(pts)
    # complex_func integrates the real and imaginary parts separately and
    # returns their error estimates as one complex number
    val, err = quad(integrand, lo, hi, complex_func=True, **kw)
    err = err.real + err.imag
    if err > PAIRING_ERROR_BUDGET * max(abs(val), scale, 1e-250):
        raise PairingDiverged(
            f"pairing error estimate {err:.3e} exceeds budget for value {val:.3e}")
    return val, err, scale, evaluations + 65


# Homogeneous pairings in closed form (DLMF 12.5.6 and 13.2.2).  With
# z = b^2/(4a) and nu > -1,
#   int_0^inf t^nu e^{-a t^2 + b t} dt = (E_nu + O_nu)/2,
#   E_nu = a^{-(nu+1)/2} Gamma((nu+1)/2) M((nu+1)/2, 1/2, z),
#   O_nu = b a^{-(nu+2)/2} Gamma(nu/2+1) M(nu/2+1, 3/2, z),
# with M Kummer's 1F1; t -> -t flips the sign of b, which leaves E_nu and
# negates O_nu.  So int |t|^m t^k e^{-a t^2 + b t} dt is E_{m+k} for even k
# and O_{m+k} for odd k; x_+^m pairs with (E + O)/2 and x_-^m with
# (-1)^k (E - O)/2.  scipy's hyp1f1 is within 2e-15 of M(|z|) against
# 30-digit mpmath for |z| <= 12; where the value is a small difference of
# large terms (a probe centred on the far side of a one-sided power, or a
# high-degree Q far from the origin) the closed form loses that ratio, so a
# cell is paired in closed form only where |z| <= HOMOGENEOUS_Z_MAX and its
# terms exceed its value at most HOMOGENEOUS_CANCELLATION_MAX-fold.  The
# quadrature rule pairs the other cells.
HOMOGENEOUS_Z_MAX = 10.0
HOMOGENEOUS_CANCELLATION_MAX = 1e3


def _homogeneous_closed_form(f: "DistributionDescriptor",
                             form: GaussianForm) -> tuple[np.ndarray, np.ndarray]:
    """(<f, phi>, accepted) at each cell of the form; the value is NaN
    where the closed form is not accepted (see HOMOGENEOUS_Z_MAX)."""
    a = np.asarray(form.a, dtype=complex)[..., None]
    b = np.asarray(form.b, dtype=complex)[..., None] + 1j * f.modulation
    accepted = np.abs(b * b / (4.0 * a))[..., 0] <= HOMOGENEOUS_Z_MAX
    # cells beyond the bound are evaluated at a = 1, b = 0 and discarded;
    # complex products go through cmul, so that a batch of cells rounds
    # each cell as it rounds alone
    a, b = np.where(accepted[..., None], a, 1.0), np.where(accepted[..., None], b, 0.0)
    z = cmul(b, b) / (4.0 * a)
    k = np.arange(form.q.shape[-1])
    nu = f.degree + k

    def kummer(alpha, beta, lead):
        """lead a^{-alpha} Gamma(alpha) M(alpha, beta, z), and its size: the
        magnitudes of M's series terms sum to M(alpha, beta, |z|), the scale
        M's rounding error is set against."""
        pre = cmul(lead, a ** -alpha) * gamma(alpha)
        return cmul(pre, hyp1f1(alpha, beta, z)), np.abs(pre) * hyp1f1(alpha, beta, np.abs(z))

    even, odd = (nu + 1.0) / 2.0, nu / 2.0 + 1.0
    if f.pattern == "abs":
        # E for even k, O for odd k
        k_odd = k % 2 == 1
        moments, sizes = kummer(np.where(k_odd, odd, even), np.where(k_odd, 1.5, 0.5),
                                np.where(k_odd, b, 1.0))
    else:
        E, E_size = kummer(even, 0.5, 1.0)
        O, O_size = kummer(odd, 1.5, b)
        sign = 1.0 if f.pattern == "plus" else -1.0
        moments = sign ** k * 0.5 * (E + sign * O)
        sizes = 0.5 * (E_size + O_size)
    ec = np.exp(form.c)
    vals = cmul(ec, np.sum(cmul(form.q, moments), axis=-1))
    terms = np.abs(ec) * np.sum(np.abs(form.q) * sizes, axis=-1)
    accepted &= terms <= HOMOGENEOUS_CANCELLATION_MAX * np.abs(vals)
    return np.where(accepted, vals, np.nan), accepted


def pair_with_error(f: SignalOrDistribution, phi: TestFunction) -> tuple[complex, float]:
    """Dual pairing <f, phi> with a quadrature error estimate.

    A sampled signal is paired by the trapezoid rule on its own grid, with
    no error estimate (0.0): the samples are all that is known of it.  A
    homogeneous descriptor pairs with a probe that has a ``GaussianForm``
    in closed form where that is accepted (see HOMOGENEOUS_Z_MAX), also
    with estimate 0.0.  Other function-type pairings go through the
    tanh-sinh rule, and through adaptive quadrature where its estimate
    exceeds TANH_SINH_ACCEPT of the budget.  Every pairing is counted in
    the open ``tally_pairings`` blocks.
    """
    if isinstance(f, SampledSignal):
        _record(f.n, 0.0)
        return complex(np.sum(f.samples * phi(f.t_grid) * f.trapezoid_weights())), 0.0
    if f.kind == "delta":
        val = complex(_delta_pairing(f, phi, 1)[0])
        _record(0, 0.0)
        return val, 0.0
    if f.kind == "homogeneous" and phi.form is not None:
        val, accepted = _homogeneous_closed_form(f, phi.form())
        if accepted:
            _record(0, 0.0, closed_form=1)
            return complex(val), 0.0

    lo, hi = _pairing_interval(f, phi)
    if hi <= lo:
        _record(0, 0.0)
        return 0.0 + 0.0j, 0.0

    val, err, scale, evaluations = _tanh_sinh_pairing(f, phi, lo, hi)
    fallback = not _tanh_sinh_accepts(val, err, scale)
    if fallback:
        val, err, scale, more = _quad_pairing(f, phi, lo, hi)
        evaluations += more
    _record(evaluations, err / max(abs(val), scale, 1e-250), fallback)
    return val, err


def pair(f: SignalOrDistribution, phi: TestFunction) -> complex:
    return pair_with_error(f, phi)[0]


def _delta_pairing(f: DistributionDescriptor, phi: TestFunction, n: int) -> np.ndarray:
    """sum_j w_j (-1)^k_j phi^(k_j)(a_j) at each of phi's n cells (n = 1 for
    a single probe), by ``contour_derivative`` at radius CONTOUR_RADIUS *
    scale per cell."""
    # modulation goes onto the test function; density() handles it for the
    # function-type kinds
    probe = _modulated_probe(phi, f.modulation)
    radius = CONTOUR_RADIUS * probe.scale
    val = np.zeros(n, dtype=complex)
    for term in f.terms:
        val += cmul(term.weight * (-1.0) ** term.order, contour_derivative(
            probe.fn, np.full(n, term.location), term.order, radius))
    return val


def pair_cells(f: SignalOrDistribution, probe_of: Callable[[object], TestFunction],
               n: int) -> np.ndarray:
    """<f, phi_c> for the cells c = 0 .. n-1 of a probe family.

    ``probe_of(cells)`` is the probe family of the cells selected by a slice
    (arrays of center, radius and scale), or the single probe of an integer
    cell.  A delta comb is paired at the cells of one block at once; a
    block's contours hold at most KERNEL_BLOCK_ELEMENTS values.  A
    homogeneous descriptor is paired in closed form at every cell of a
    family with a ``GaussianForm`` in one evaluation.  Signals, other
    function-type descriptors and the cells the closed form leaves out are
    paired cell by cell through ``pair``.  Every cell counts as one pairing.
    """
    vals = np.empty(n, dtype=complex)
    rest = range(n)
    if isinstance(f, DistributionDescriptor) and f.kind == "homogeneous":
        form = probe_of(slice(0, n)).form
        if form is not None:
            vals, accepted = _homogeneous_closed_form(f, form())
            _record(0, 0.0, pairings=int(accepted.sum()), closed_form=int(accepted.sum()))
            rest = np.flatnonzero(~accepted)
    if isinstance(f, SampledSignal) or f.kind != "delta":
        for c in rest:
            vals[c] = pair(f, probe_of(int(c)))
        return vals
    nodes = CONTOUR_NODES if any(term.order for term in f.terms) else 1
    block = KERNEL_BLOCK_ELEMENTS // nodes
    for lo in range(0, n, block):
        cells = slice(lo, min(lo + block, n))
        vals[cells] = _delta_pairing(f, probe_of(cells), cells.stop - lo)
    _record(0, 0.0, pairings=n)
    return vals


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

    def ratio_deviation(self, eps: float, factor: float) -> float:
        """|L(a*eps)/L(eps) - 1| for the limit test."""
        return float(abs(self(np.asarray(factor * eps)) / self(np.asarray(eps)) - 1.0))


SV_ONE = SlowlyVarying("one")


@dataclass(frozen=True)
class ScaleSequence:
    eps: tuple

    def __init__(self, eps=None):
        if eps is None:
            eps = tuple(2.0 ** -k for k in range(2, 13))
        eps = tuple(float(e) for e in eps)
        if any(e2 >= e1 for e1, e2 in zip(eps, eps[1:])):
            raise ValueError("scale sequence must be strictly decreasing")
        if eps[-1] < 2.0 ** -20:
            raise ValueError("scale sequence below the quadrature sanity floor 2^-20")
        object.__setattr__(self, "eps", eps)

    def __iter__(self):
        return iter(self.eps)

    def __len__(self):
        return len(self.eps)


def scaled_probe(phi: TestFunction, eps: float) -> TestFunction:
    """phi(./eps): support and scale stretch by eps."""
    return replace(
        phi,
        fn=lambda t, _f=phi.fn, _e=eps: np.asarray(_f(np.asarray(t) / _e)),
        center=phi.center * eps,
        radius=phi.radius * eps,
        scale=phi.scale * eps,
        form=None if phi.form is None else lambda _f=phi.form, _e=eps: _f().scaled(_e),
    )


def scaled_pair(f: DistributionDescriptor, phi: TestFunction, eps: float,
                m: float = 0.0, L: SlowlyVarying = SV_ONE) -> complex:
    """<f(eps x), phi(x)> / (eps^m L(eps)) via <f(eps x), phi> = (1/eps) <f, phi(./eps)>."""
    raw = pair(f, scaled_probe(phi, eps))
    return raw / (eps * eps ** m * float(L(np.asarray(eps))))


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


def quasi_degree_estimate(f: DistributionDescriptor, phi: TestFunction,
                          seq: ScaleSequence | None = None) -> tuple[float, float]:
    """``log_slope`` of |<f(eps x), phi>| along the sequence."""
    seq = seq or ScaleSequence()
    eps = np.array(list(seq))
    slope, residual = log_slope(eps, np.abs([scaled_pair(f, phi, e) for e in eps]))
    if np.isnan(slope):
        raise DegenerateSequence("fewer than 3 nonzero pairings along the sequence")
    return slope, residual


# Cauchy criterion for "the sequence converges" at finite precision.
CAUCHY_REL_TOL = 1e-4


def is_cauchy(values: np.ndarray, rel_tol: float = CAUCHY_REL_TOL) -> bool:
    v = np.asarray(values)
    if v.size < 4:
        return False
    gaps = np.abs(np.diff(v))[-3:]
    ref = rel_tol * (1.0 + np.abs(v[-1]))
    return bool(np.all(gaps < ref))


@dataclass(frozen=True)
class ChirpEquivalenceReport:
    plain: tuple
    chirped: tuple
    plain_converges: bool
    chirped_converges: bool
    limit_gap: float


def chirp_factor_check(f: DistributionDescriptor, phi: TestFunction, c: float,
                       m: float, L: SlowlyVarying = SV_ONE,
                       seq: ScaleSequence | None = None) -> ChirpEquivalenceReport:
    """Compare scaled pairings with and without the chirp exp(i*c*(eps*x)^2/2).

    In the substituted variable t = eps*x the chirp is exp(i*c*t^2/2), so the
    chirped pairing is (1/(eps^{m+1} L)) <f(t), exp(i*c*t^2/2) phi(t/eps)>.
    """
    seq = seq or ScaleSequence()
    plain, chirped = [], []
    for e in seq:
        denom = e * e ** m * float(L(np.asarray(e)))
        base = scaled_probe(phi, e)
        chirp_fn = (lambda t, _f=base.fn, _c=c:
                    np.exp(1j * _c * np.asarray(t) ** 2 / 2.0) * np.asarray(_f(t)))
        plain.append(pair(f, base) / denom)
        chirped.append(pair(f, replace(base, fn=chirp_fn, form=None)) / denom)
    plain = np.array(plain)
    chirped = np.array(chirped)
    return ChirpEquivalenceReport(
        plain=tuple(plain), chirped=tuple(chirped),
        plain_converges=is_cauchy(plain), chirped_converges=is_cauchy(chirped),
        limit_gap=float(abs(plain[-1] - chirped[-1])),
    )
