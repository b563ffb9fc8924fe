"""Distribution descriptors realized as pairing oracles.

A descriptor represents a tempered/Lizorkin distribution through the action
<f, phi> on smooth rapidly decaying test functions:

* delta combs  sum w_j * delta^(k_j)(. - a_j)   (exact pairing),
* homogeneous functions |x|^m, x_+^m, x_-^m with m > -1 (locally
  integrable, adaptive quadrature),
* closed-form functions of polynomial growth (adaptive quadrature).

``pair`` also takes a ``SampledSignal``, which it pairs by the trapezoid
rule on the signal's own grid; that is the one way a sampled signal is
paired, so the point transforms and the grid kernels agree on it.

Scaled pairings <f(eps x), phi(x)> reduce to (1/eps) <f(t), phi(t/eps)>,
and a modulation wrapper realizes M_a f exactly by multiplying the test
function with exp(i*a*t).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence, Union

import numpy as np
from scipy.integrate import quad

from .errors import DegenerateSequence, PairingDiverged
from .fraccore import SampledSignal
from .windows import CONTOUR_RADIUS, Window, contour_derivative, modulated_length

PAIRING_ERROR_BUDGET = 1e-8   # relative; quad estimates beyond this raise

@dataclass(frozen=True)
class TestFunction:
    """Smooth rapidly decaying probe with an effective support interval."""

    fn: Callable[[np.ndarray], np.ndarray]
    center: float = 0.0
    radius: float = 10.0
    scale: float = 1.0      # characteristic length, sets the derivative contour
    name: str = ""

    def __call__(self, t):
        return self.fn(np.asarray(t, dtype=float))

    def derivative(self, t0: float, order: int) -> complex:
        """Derivative by ``contour_derivative`` at radius CONTOUR_RADIUS * scale."""
        return complex(contour_derivative(self.fn, np.array([t0]), order,
                                          CONTOUR_RADIUS * self.scale)[0])


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
                   fn=lambda t, _f=phi.fn, _a=a: np.exp(1j * _a * np.asarray(t)) * np.asarray(_f(t), dtype=complex))


SignalOrDistribution = Union[SampledSignal, DistributionDescriptor]


def pair_with_error(f: SignalOrDistribution, phi: TestFunction) -> tuple[complex, float]:
    """Dual pairing <f, phi> with a quadrature error estimate.

    A sampled signal is paired by the trapezoid rule on its own grid, with
    no error estimate (0.0): the samples are all that is known of it.
    """
    if isinstance(f, SampledSignal):
        return complex(np.sum(f.samples * phi(f.t_grid) * f.trapezoid_weights())), 0.0
    if f.kind == "delta":
        # modulation goes onto the test function; density() handles it for
        # the function-type kinds below
        probe = _modulated_probe(phi, f.modulation)
        val = 0.0 + 0.0j
        for term in f.terms:
            val += term.weight * (-1.0) ** term.order * probe.derivative(term.location, term.order)
        return val, 0.0

    probe = phi
    lo, hi = probe.center - probe.radius, probe.center + probe.radius
    if f.kind == "homogeneous" and f.pattern == "plus":
        lo = max(lo, 0.0)
    if f.kind == "homogeneous" and f.pattern == "minus":
        hi = min(hi, 0.0)
    if hi <= lo:
        return 0.0 + 0.0j, 0.0

    def integrand(t):
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
    return val, err


def pair(f: SignalOrDistribution, phi: TestFunction) -> complex:
    return pair_with_error(f, phi)[0]


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
        chirped.append(pair(f, replace(base, fn=chirp_fn)) / denom)
    plain = np.array(plain)
    chirped = np.array(chirped)
    return ChirpEquivalenceReport(
        plain=tuple(plain), chirped=tuple(chirped),
        plain_converges=is_cauchy(plain), chirped_converges=is_cauchy(chirped),
        limit_gap=float(abs(plain[-1] - chirped[-1])),
    )
