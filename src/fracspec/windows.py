"""Window/wavelet descriptors and the numerics built on them.

Every window is a Gaussian polynomial

    g(u) = P(u) e^{-u^2/(2 w^2)} e^{i kappa u},

and a Window holds only that form: P's coefficients, the width w and the
carrier kappa.  Its evaluation, its closed-form Fourier transform (unitary
convention, f_hat(w) = (2*pi)^{-1/2} * integral f(x) exp(-i*w*x) dx), its
moments, its ``GaussianForm`` (which gives the derivatives that delta
pairings and seminorms need), and its pairings with homogeneous
distributions are all derived from the form.  The admissibility constants
are pairings of the degree -1 homogeneous densities |w|^-1 and w_+^-1 with
spectral numerators, made by the tanh-sinh rule in ``distributions``, whose
refusal is what decides that a constant diverges at w = 0.
The built-in library covers the unit-mass Gaussian, the Mexican hat, the
Hermite wavelet d/dt exp(-t^2/2), the derivatives of the Gaussian, and
modulated/dilated variants of any of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import (
    DerivativeOrderTooHigh,
    DivergentAdmissibility,
    GridTooCoarse,
    MomentOrderTooHigh,
    NonPositiveScale,
    NotAWavelet,
    PairingDiverged,
    ZeroAdmissibility,
)

SQRT_2PI = np.sqrt(2.0 * np.pi)

MAX_MOMENT_ORDER = 12
MAX_DERIVATIVE_ORDER = 4
MAX_SIGMA_DERIVATIVE = 2
WAVELET_MOMENT_TOL = 1e-8
ADMISSIBILITY_MIN = 1e-10   # smaller constants cannot normalize a reconstruction

# Truncation radius for window quadratures, in widths (and for spectra, in
# spectral widths 1/width).
SUPPORT_RADII = 10.0


def _parity(coef) -> tuple[int, tuple]:
    """(q, c) with p(u) = u^q C(u^2) for the even (q = 0) or odd (q = 1)
    polynomial p of ascending coefficients ``coef``; c lists C's
    coefficients highest first."""
    q = int(not any(coef[0::2]))
    return q, tuple(coef[q::2][::-1])


def _horner(q: int, c: tuple, x, x2):
    """x^q C(x^2) by Horner in x2 = x * x; see ``_parity``."""
    h = c[0]
    for ck in c[1:]:
        h = h * x2 + ck
    return h * x if q else h


def _dnu(s, w2: float) -> np.ndarray:
    """S' - w2 nu S: d/dnu [S(nu) e^{-w2 nu^2/2}] is (S' - w2 nu S)(nu) e^{-w2 nu^2/2}."""
    return npoly.polysub(npoly.polyder(s), w2 * npoly.polymulx(s))


def _form_eval(poly: tuple, width: float, carrier: float) -> Callable:
    """u -> P(u) e^{-u^2/(2 width^2)} e^{i carrier u} on real or complex arrays."""
    q, c = _parity(poly)
    den = 2.0 * width * width
    ia = 1j * carrier

    def ev(x):
        x = np.asarray(x)
        x2 = x * x
        v = _horner(q, c, x, x2) * np.exp(-x2 / den)
        return np.exp(ia * x) * v if carrier else v

    return ev


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

    def scaled(self, eps: float) -> "GaussianForm":
        """The form of phi(t/eps)."""
        k = np.arange(self.q.shape[-1])
        return GaussianForm(self.q / eps ** k, self.a / eps ** 2, self.b / eps, self.c,
                            self.origin * eps)

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
class Window:
    """Gaussian-polynomial window g(u) = P(u) e^{-u^2/(2 width^2)} e^{i carrier u}.

    ``poly`` holds P's real coefficients in ascending order; P is even or
    odd.  ``eval`` evaluates g on real or complex arrays.  It is built from
    the form when not given; a given one must compute the same function.
    ``form`` is g as a ``GaussianForm``, which gives its derivatives.
    Quadratures truncate g at ``support_radius``, SUPPORT_RADII widths, and
    g_hat at SUPPORT_RADII spectral widths 1/width around the carrier.  A
    parameter that is not finite raises ValueError, a width that is not
    positive NonPositiveScale.
    """

    name: str
    poly: tuple
    width: float
    carrier: float = 0.0
    eval: Optional[Callable[[np.ndarray], np.ndarray]] = field(default=None, compare=False,
                                                               repr=False)

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.width, self.carrier, *self.poly)):
            raise ValueError(f"window {self.name!r} has non-finite parameters")
        if self.width <= 0:
            raise NonPositiveScale(f"window {self.name!r} needs a positive width")
        if any(self.poly[0::2]) == any(self.poly[1::2]):
            raise ValueError(f"window {self.name!r} needs a nonzero even or odd polynomial")
        if self.eval is None:
            object.__setattr__(self, "eval", _form_eval(self.poly, self.width, self.carrier))

    @property
    def support_radius(self) -> float:
        return SUPPORT_RADII * self.width

    @cached_property
    def form(self) -> GaussianForm:
        """q = P, a = 1/(2 width^2), b = i carrier, c = 0."""
        return GaussianForm(q=np.array(self.poly, dtype=float),
                            a=np.array(0.5 / (self.width * self.width)),
                            b=np.array(1j * self.carrier), c=np.array(0.0))

    @cached_property
    def _spectrum(self) -> tuple:
        """S with g_hat(carrier + nu) = i^q S(nu) e^{-width^2 nu^2/2}, q the
        parity of P and of S (see ``_parity``).

        FT[u^k e^{-u^2/(2 w^2)}](nu) = i^k S_k(nu) e^{-w^2 nu^2/2} with
        S_0 = w and S_{k+1} = S_k' - w^2 nu S_k (that is w (-i w)^k
        He_k(w nu) e^{-w^2 nu^2/2}), and i^k = i^q (-1)^(k // 2) for the
        terms of P, so S = sum_k p_k (-1)^(k // 2) S_k is real.
        """
        w2 = self.width * self.width
        s_k, s = np.array([self.width]), np.zeros(1)
        for k, pk in enumerate(self.poly):
            s = npoly.polyadd(s, pk * (-1.0) ** (k // 2) * s_k)
            s_k = _dnu(s_k, w2)
        return tuple(s.tolist())

    def ft(self, w) -> np.ndarray:
        """Closed-form Fourier transform at the real frequencies w."""
        q, c = _parity(self._spectrum)
        nu = np.asarray(w, dtype=float) - self.carrier
        nu2 = nu * nu
        v = _horner(q, c, nu, nu2)
        if q:
            v = 1j * v
        return v * np.exp(-(self.width * self.width) * nu2 / 2.0)


# ---------------------------------------------------------------------------
# built-in library


def gaussian_window(width: float = 1.0, unit_mass: bool = False) -> Window:
    norm = 1.0 / (width * SQRT_2PI) if unit_mass else 1.0
    name = "gauss-unit" if unit_mass else (f"gauss:{float(width)!r}" if width != 1.0 else "gauss")
    return Window(name=name, poly=(norm,), width=width)


def mexican_hat_window() -> Window:
    """g(t) = (1 - t^2) exp(-t^2/2); g_hat(w) = w^2 exp(-w^2/2)."""
    return Window(name="mexican-hat", poly=(1.0, 0.0, -1.0), width=1.0)


def hermite_wavelet_window() -> Window:
    """g(t) = d/dt exp(-t^2/2) = -t exp(-t^2/2); g_hat(w) = i*w*exp(-w^2/2)."""
    return Window(name="hermite1", poly=(0.0, -1.0), width=1.0)


def dog_window(m: int) -> Window:
    """Derivative-of-Gaussian wavelet d^m/dt^m exp(-t^2/2) = (-1)^m He_m(t) exp(-t^2/2).

    Its spectrum (i*w)^m exp(-w^2/2) has an order-m zero at w = 0, so
    modulated copies provide reconstruction windows whose admissibility
    integrand vanishes to order m - 1 at the singular frequency.
    """
    if not 1 <= m <= 8:
        raise ValueError("derivative-of-Gaussian order must be in 1..8")
    poly = (-1.0) ** m * np.polynomial.hermite_e.herme2poly([0] * m + [1])
    return Window(name=f"dog:{m}", poly=tuple(poly.tolist()), width=1.0)


def modulate(g: Window, a: float) -> Window:
    """M_a g(x) = exp(i*a*x) g(x); shifts the spectrum by a."""
    a = float(a)
    return Window(name=f"modulated:{g.name}:{a!r}", poly=g.poly, width=g.width,
                  carrier=g.carrier + a)


def dilate(g: Window, eps: float) -> Window:
    """g_eps(x) = g(eps*x): P(u) over the width w becomes P(eps u) over w/eps,
    and the carrier a becomes a*eps."""
    eps = float(eps)
    if eps <= 0:
        raise NonPositiveScale("dilation factor must be positive")
    # an infinite eps leaves the carrier 0 * inf = nan, which Window rejects
    return Window(name=f"dilated:{g.name}:{eps!r}",
                  poly=tuple(c * eps ** k for k, c in enumerate(g.poly)),
                  width=g.width / eps, carrier=g.carrier * eps)


def window_by_name(name: str) -> Window:
    """Resolve a window name, including modulated:/dilated: prefixes.

    Grammar: "gauss-unit" | "gauss" | "gauss:<w>" | "mexican-hat" |
    "hermite1" | "dog:<m>" | "modulated:<name>:<a>" | "dilated:<name>:<eps>".
    """
    if name.startswith("modulated:"):
        base, a = name[len("modulated:"):].rsplit(":", 1)
        return modulate(window_by_name(base), float(a))
    if name.startswith("dilated:"):
        base, eps = name[len("dilated:"):].rsplit(":", 1)
        return dilate(window_by_name(base), float(eps))
    if name == "gauss-unit":
        return gaussian_window(unit_mass=True)
    if name == "gauss":
        return gaussian_window()
    if name.startswith("gauss:"):
        return gaussian_window(width=float(name.split(":", 1)[1]))
    if name == "mexican-hat":
        return mexican_hat_window()
    if name == "hermite1":
        return hermite_wavelet_window()
    if name.startswith("dog:"):
        return dog_window(int(name.split(":", 1)[1]))
    raise KeyError(f"unknown window {name!r}")


# ---------------------------------------------------------------------------
# moments


def moment(g: Window, k: int) -> complex:
    """k-th moment, integral x^k g(x) dx = sqrt(2 pi) i^k g_hat^(k)(0).

    With g_hat(carrier + nu) = i^q S(nu) e^{-w^2 nu^2/2} (``Window._spectrum``),
    the k-th derivative is i^q S_k(nu) e^{-w^2 nu^2/2}, where S_0 = S and
    S_{j+1} = S_j' - w^2 nu S_j; it is read at nu = -carrier.
    """
    if not 0 <= k <= MAX_MOMENT_ORDER:
        raise MomentOrderTooHigh(f"moment order {k} exceeds {MAX_MOMENT_ORDER}")
    s = g._spectrum
    q = _parity(s)[0]
    w2 = g.width * g.width
    for _ in range(k):
        s = _dnu(s, w2)
    nu = -g.carrier
    return complex(SQRT_2PI * 1j ** (k + q) * npoly.polyval(nu, s) * math.exp(-w2 * nu * nu / 2.0))


def require_wavelet(g: Window) -> None:
    m0 = moment(g, 0)
    if abs(m0) >= WAVELET_MOMENT_TOL:
        raise NotAWavelet(f"window {g.name!r} has zeroth moment {m0:.3e}")


# ---------------------------------------------------------------------------
# admissibility constants


@dataclass(frozen=True)
class AdmissibilityConstant:
    """Admissibility value with the error estimate of its pairing.

    Both constants are pairings of the density |w|^-1 with a numerator(w),
    made by ``distributions.pair_with_error`` over the frequency band where
    the windows' spectra lie within SUPPORT_RADII spectral widths of their
    carriers; a pairing the rule refuses is DivergentAdmissibility.  For the
    single-window wavelet constant, ``value`` is the pairing
    <|w|^-1, |g_hat|^2> and ``half_line`` its w>0 part, the pairing of
    w_+^-1 with the same numerator over the same band, which is what
    normalizes a synthesis over positive scales only.
    """

    value: complex
    quadrature_error_estimate: float
    half_line: float | None = None


def _spectral_band(g: Window) -> tuple[float, float]:
    """Frequencies within SUPPORT_RADII spectral widths 1/width of g's carrier."""
    r = SUPPORT_RADII / g.width
    return g.carrier - r, g.carrier + r


def _pair_inverse_abs(label: str, pattern: str, numerator, lo: float,
                      hi: float) -> tuple[complex, float]:
    """(<|w|^-1, numerator> over [lo, hi], its error estimate), or with
    pattern "plus" the pairing of w_+^-1, over the part of [lo, hi] above 0.

    A pairing the rule refuses is the constant ``label`` diverging at w = 0:
    DivergentAdmissibility, quoting |numerator(0)|."""
    # imported here: distributions imports this module
    from .distributions import DistributionDescriptor, TestFunction, pair_with_error
    # ``homogeneous`` refuses degree -1, which is not locally integrable: the
    # pairing converges only where the numerator vanishes at w = 0
    inverse = DistributionDescriptor(kind="homogeneous", pattern=pattern, degree=-1.0,
                                     singular_points=(0.0,))
    try:
        return pair_with_error(inverse, TestFunction(numerator, center=(lo + hi) / 2.0,
                                                     radius=(hi - lo) / 2.0))
    except PairingDiverged as exc:
        at_zero = float(np.abs(numerator(np.zeros(1)))[0])
        raise DivergentAdmissibility(
            f"{label}: integrand numerator {at_zero:.3e} at omega=0; the 1/|omega| "
            f"integral diverges ({exc})") from exc


def admissibility_cg(g: Window) -> AdmissibilityConstant:
    """Wavelet constant C_g = <|w|^-1, |g_hat|^2> over g's spectral band.

    Requires the vanishing-zeroth-moment gate (NotAWavelet).  ``half_line``,
    the w>0 share, is the pairing of w_+^-1 with the same numerator.
    """
    require_wavelet(g)

    def numerator(w):
        v = g.ft(w)
        return (v * np.conj(v)).real

    lo, hi = _spectral_band(g)
    value, err = _pair_inverse_abs(f"C_g[{g.name}]", "abs", numerator, lo, hi)
    half_line = _pair_inverse_abs(f"C_g[{g.name}] on omega > 0", "plus", numerator, lo, hi)[0]
    return AdmissibilityConstant(value=value.real, quadrature_error_estimate=err,
                                 half_line=half_line.real)


def admissibility_cgpsi(g: Window, psi: Window, c2: float) -> AdmissibilityConstant:
    """Reconstruction-pair constant
    C_{g,psi,c2} = integral psi_hat(c2*(w-1)) * conj(g_hat(c2*(w-1))) dw/|w|.

    c2 must be finite and nonzero (ValueError).  Finite only when the
    numerator vanishes at w=0, i.e. when psi_hat(-c2)*conj(g_hat(-c2)) = 0:
    a pairing the rule refuses raises DivergentAdmissibility.  Paired over
    the w where both spectra lie in their bands, so disjoint spectra give
    ZeroAdmissibility, as does any |value| below ADMISSIBILITY_MIN.
    """
    c2 = float(c2)
    if c2 == 0 or not math.isfinite(c2):
        raise ValueError(f"C_gpsi needs a finite nonzero c2; got {c2}")

    def numerator(w):
        arg = c2 * (w - 1.0)
        return psi.ft(arg) * np.conj(g.ft(arg))

    def w_band(h: Window) -> list:
        """The w with c2 (w - 1) in h's spectral band."""
        return sorted(1.0 + s / c2 for s in _spectral_band(h))

    label = f"C_gpsi[{g.name},{psi.name}]"
    (g_lo, g_hi), (psi_lo, psi_hi) = w_band(g), w_band(psi)
    value, err = _pair_inverse_abs(label, "abs", numerator, max(g_lo, psi_lo), min(g_hi, psi_hi))
    if abs(value) < ADMISSIBILITY_MIN:
        raise ZeroAdmissibility(f"{label} = {value:.3e}; reconstruction impossible")
    return AdmissibilityConstant(value=value, quadrature_error_estimate=err)


# ---------------------------------------------------------------------------
# seminorms


@dataclass(frozen=True)
class SeminormEstimate:
    indices: tuple
    value: float
    grid_spec: str


def seminorm_rho(g: Window, k: int, p: int, n_probe: int = 16385) -> SeminormEstimate:
    """Schwartz seminorm rho_{k,p}(g) = sup |x^k g^(p)(x)| on a probe grid."""
    if k < 0:
        raise ValueError(f"seminorm weight power k = {k} is negative")
    r = g.support_radius
    x = np.linspace(-r, r, n_probe)
    value = float(np.max(np.abs(x ** k * g.form.derivative(x, p))))
    return SeminormEstimate(indices=(k, p), value=value,
                            grid_spec=f"[-{r:g},{r:g}] n={n_probe} gaussian form")


def seminorm_sigma(grid, l: int, m: int, s: int, r: int) -> SeminormEstimate:
    """Seminorm sup xi^s |x^r d_xi^l d_x^m F| over a time-scale grid.

    ``grid`` is any object with x_axis, xi_axis (positive) and values
    attributes; derivatives use np.gradient on the (possibly non-uniform)
    axes, so l + m <= 2.
    """
    if l + m > MAX_SIGMA_DERIVATIVE:
        raise DerivativeOrderTooHigh(f"l+m = {l + m} exceeds {MAX_SIGMA_DERIVATIVE}")
    x = np.asarray(grid.x_axis, dtype=float)
    xi = np.asarray(grid.xi_axis, dtype=float)
    if np.any(xi <= 0):
        raise ValueError("sigma seminorm is defined over a positive scale axis")
    vals = np.asarray(grid.values, dtype=complex)
    need_x = 1 + 2 * m
    need_xi = 1 + 2 * l
    if (m and x.size < max(4, need_x)) or (l and xi.size < max(4, need_xi)):
        raise GridTooCoarse("axis too short for the finite-difference stencil")
    for _ in range(m):
        vals = np.gradient(vals, x, axis=0)
    for _ in range(l):
        vals = np.gradient(vals, xi, axis=1)
    # np.gradient is one-sided on the boundary; keep the interior
    sl_x = slice(m, x.size - m if m else None)
    sl_xi = slice(l, xi.size - l if l else None)
    core = vals[sl_x, sl_xi]
    weight = (np.abs(x[sl_x]) ** r)[:, None] * (xi[sl_xi] ** s)[None, :]
    value = float(np.max(np.abs(core) * weight)) if core.size else 0.0
    return SeminormEstimate(indices=(l, m, s, r), value=value,
                            grid_spec=f"{x.size}x{xi.size} grid interior")
