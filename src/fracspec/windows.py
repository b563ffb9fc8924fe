"""Window/wavelet descriptors and the numerics built on them.

A Window bundles a pointwise evaluation closure, its closed-form Fourier
transform (unitary convention, f_hat(w) = (2*pi)^{-1/2} * integral
f(x) exp(-i*w*x) dx), and an effective decay scale used to truncate
quadratures.  The built-in library covers the unit-mass Gaussian, the
Mexican hat, the Hermite wavelet d/dt exp(-t^2/2), the derivatives of the
Gaussian, and modulated/dilated variants of any of them.  Each of them is a
Gaussian polynomial P(u) e^{-u^2/(2 w^2)} e^{i carrier u}, and records P and
w, so that pairings with homogeneous distributions have a closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.integrate import quad

from .errors import (
    DerivativeOrderTooHigh,
    DivergentAdmissibility,
    GridTooCoarse,
    MomentOrderTooHigh,
    NonPositiveScale,
    NotAWavelet,
    ZeroAdmissibility,
)
from .fraccore import trapezoid_weights

SQRT_2PI = np.sqrt(2.0 * np.pi)

MAX_MOMENT_ORDER = 12
MAX_DERIVATIVE_ORDER = 4
MAX_SIGMA_DERIVATIVE = 2
WAVELET_MOMENT_TOL = 1e-8

# Truncation radius for window quadratures, in units of decay_scale.
SUPPORT_RADII = 10.0

# Window values evaluated in one block: the signal kernels' window matrices
# and the contours of batched delta pairings hold at most this many (on a
# 2-vCPU Xeon, a hermite1 evaluation took ~4.5 ns per point up to 28k points
# and ~13 ns from 32k, where each numpy temporary reaches 256 kB).
KERNEL_BLOCK_ELEMENTS = 16384


@dataclass(frozen=True)
class Window:
    """Analytic window descriptor.

    ``eval`` must accept complex ndarray input and be entire (derivatives
    are Cauchy integrals, see ``contour_derivative``), and must decay
    faster than any polynomial within ``SUPPORT_RADII * decay_scale``.
    ``ft`` is the required closed-form Fourier transform on real
    frequencies.
    ``length_scale`` (default ``decay_scale``), the shortest length on which
    ``eval`` varies, sizes derivative contours; ``modulate`` shortens it.
    A modulated window records its split eval(x) = e^{i carrier x} b(x):
    ``envelope`` is the unmodulated window b (None when the window is its
    own envelope), so the signal kernels can move the carrier out of their
    window matrices.  ``eval`` stays the full window.
    A library window is eval(u) = P(u) e^{-u^2/(2 width^2)} e^{i carrier u}:
    ``poly`` holds P's coefficients in ascending order.  A window built
    otherwise leaves ``poly`` None, and is paired by quadrature.
    """

    name: str
    eval: Callable[[np.ndarray], np.ndarray]
    ft: Callable[[np.ndarray], np.ndarray]
    decay_scale: float
    length_scale: Optional[float] = None
    carrier: float = 0.0
    envelope: Optional["Window"] = None
    poly: Optional[tuple] = None
    width: Optional[float] = None

    def __post_init__(self):
        if self.length_scale is None:
            object.__setattr__(self, "length_scale", self.decay_scale)

    @property
    def support_radius(self) -> float:
        return SUPPORT_RADII * self.decay_scale

    def carrier_split(self) -> tuple[float, "Window"]:
        """(a, b) with eval(x) = e^{i a x} b.eval(x)."""
        return self.carrier, (self if self.envelope is None else self.envelope)


# ---------------------------------------------------------------------------
# built-in library


def gaussian_window(width: float = 1.0, unit_mass: bool = False) -> Window:
    if width <= 0:
        raise NonPositiveScale("gaussian width must be positive")
    norm = 1.0 / (width * SQRT_2PI) if unit_mass else 1.0
    name = "gauss-unit" if unit_mass else (f"gauss:{float(width)!r}" if width != 1.0 else "gauss")

    def ev(x, _n=norm, _w=width):
        return _n * np.exp(-(x * x) / (2.0 * _w * _w))

    def ft(w, _n=norm, _w=width):
        return _n * _w * np.exp(-(_w * _w) * (w * w) / 2.0)

    return Window(name=name, eval=ev, ft=ft, decay_scale=width, poly=(norm,), width=width)


def mexican_hat_window() -> Window:
    def ev(x):
        return (1.0 - x * x) * np.exp(-(x * x) / 2.0)

    def ft(w):
        return (w * w) * np.exp(-(w * w) / 2.0)

    return Window(name="mexican-hat", eval=ev, ft=ft, decay_scale=1.0,
                  poly=(1.0, 0.0, -1.0), width=1.0)


def hermite_wavelet_window() -> Window:
    """g(t) = d/dt exp(-t^2/2) = -t exp(-t^2/2); g_hat(w) = i*w*exp(-w^2/2)."""

    def ev(x):
        return -x * np.exp(-(x * x) / 2.0)

    def ft(w):
        return 1j * w * np.exp(-(w * w) / 2.0)

    return Window(name="hermite1", eval=ev, ft=ft, decay_scale=1.0,
                  poly=(0.0, -1.0), width=1.0)


def dog_window(m: int) -> Window:
    """Derivative-of-Gaussian wavelet d^m/dt^m exp(-t^2/2).

    Its spectrum (i*w)^m exp(-w^2/2) has an order-m zero at w = 0, so
    modulated copies provide reconstruction windows whose admissibility
    integrand vanishes to order m - 1 at the singular frequency.
    """
    if not 1 <= m <= 8:
        raise ValueError("derivative-of-Gaussian order must be in 1..8")
    # (-1)^m He_m(x), ascending; it is x^(m mod 2) P(x^2), which ev evaluates
    # by Horner in x^2 from P's coefficients, highest first
    poly = (-1.0) ** m * np.polynomial.hermite_e.herme2poly([0] * m + [1])
    coef = poly[m % 2::2][::-1]

    def ev(x, _c=tuple(coef), _odd=m % 2):
        x = np.asarray(x)
        x2 = x * x
        h = _c[0]
        for c in _c[1:]:   # Horner in x^2
            h = h * x2 + c
        if _odd:
            h = h * x
        return h * np.exp(-x2 / 2.0)

    def ft(w, _m=m):
        w = np.asarray(w, dtype=float)
        return (1j * w) ** _m * np.exp(-(w * w) / 2.0)

    return Window(name=f"dog:{m}", eval=ev, ft=ft, decay_scale=1.0,
                  poly=tuple(poly.tolist()), width=1.0)


def modulated_length(length, a: float):
    """Length scale of e^{iax} f(x): e^{iaz} grows like e^{|a| r} at radius r.
    ``length`` may be an array (one probe per cell)."""
    return np.minimum(length, 1.0 / abs(a)) if a else length


def modulate(g: Window, a: float) -> Window:
    """M_a g(x) = exp(i*a*x) g(x); shifts the spectrum by a."""
    a = float(a)

    def ft(w, _g=g, _a=a):
        return _g.ft(np.asarray(w, dtype=float) - _a)

    def ev(x, _g=g, _a=a):
        x = np.asarray(x)
        return np.exp(1j * _a * x) * _g.eval(x)

    return Window(name=f"modulated:{g.name}:{a!r}", eval=ev, ft=ft,
                  decay_scale=g.decay_scale,
                  length_scale=float(modulated_length(g.length_scale, a)),
                  carrier=g.carrier + a, envelope=g.carrier_split()[1],
                  poly=g.poly, width=g.width)


def dilate(g: Window, eps: float) -> Window:
    """g_eps(x) = g(eps*x); the decay scale stretches by 1/eps, and a
    carrier a over the envelope b becomes a*eps over b_eps, and P(u) over
    the width w becomes P(eps u) over w/eps."""
    eps = float(eps)
    if eps <= 0:
        raise NonPositiveScale("dilation factor must be positive")

    def ft(w, _g=g, _e=eps):
        return _g.ft(np.asarray(w, dtype=float) / _e) / _e

    def ev(x, _g=g, _e=eps):
        return _g.eval(np.asarray(x) * _e)

    return Window(name=f"dilated:{g.name}:{eps!r}", eval=ev, ft=ft,
                  decay_scale=g.decay_scale / eps, length_scale=g.length_scale / eps,
                  carrier=g.carrier * eps,
                  envelope=None if g.envelope is None else dilate(g.envelope, eps),
                  poly=None if g.poly is None else tuple(c * eps ** k for k, c in enumerate(g.poly)),
                  width=None if g.poly is None else g.width / eps)


def window_by_name(name: str) -> Window:
    """Resolve a window name, including modulated:/dilated: prefixes.

    Grammar: "gauss-unit" | "gauss" | "gauss:<w>" | "mexican-hat" |
    "hermite1" | "modulated:<name>:<a>" | "dilated:<name>:<eps>".
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


def moment_with_error(g: Window, k: int) -> tuple[complex, float]:
    if not 0 <= k <= MAX_MOMENT_ORDER:
        raise MomentOrderTooHigh(f"moment order {k} exceeds {MAX_MOMENT_ORDER}")
    r = g.support_radius
    n = 16384
    x = np.linspace(-r, r, n + 1)
    integrand = (x ** k) * g.eval(x)
    fine = complex(np.sum(integrand * trapezoid_weights(x)))
    coarse = complex(np.sum(integrand[::2] * trapezoid_weights(x[::2])))
    # trapezoid is O(h^2): Richardson difference estimates the error
    return fine, abs(fine - coarse) / 3.0


def moment(g: Window, k: int) -> complex:
    """k-th moment integral x^k g(x) dx over the truncation window."""
    return moment_with_error(g, k)[0]


def require_wavelet(g: Window) -> None:
    m0 = moment(g, 0)
    if abs(m0) >= WAVELET_MOMENT_TOL:
        raise NotAWavelet(f"window {g.name!r} has zeroth moment {m0:.3e}")


# ---------------------------------------------------------------------------
# admissibility constants


@dataclass(frozen=True)
class AdmissibilityConstant:
    """Admissibility value with its quadrature error estimate.

    For the single-window wavelet constant, ``value`` is the full-line
    integral of |g_hat|^2/|w| and ``half_line`` its w>0 part, which is what
    normalizes a synthesis over positive scales only.
    """

    value: complex
    quadrature_error_estimate: float
    half_line: float | None = None


def _check_small_freq_convergence(numerator, what: str) -> None:
    """The 1/|w| weight is integrable at 0 only if the numerator vanishes there.

    Probes numerator(+-exp(-u)); a non-decaying tail means the admissibility
    integral diverges logarithmically.
    """
    u = np.linspace(8.0, 36.0, 15)
    probes = np.concatenate([np.exp(-u), -np.exp(-u)])
    vals = np.abs(numerator(probes))
    scale = max(1.0, float(np.max(np.abs(numerator(np.linspace(-4, 4, 161))))))
    tail = max(vals[10:15].max(), vals[25:30].max())
    if tail > 1e-10 * scale:
        raise DivergentAdmissibility(
            f"{what}: integrand numerator does not vanish at omega=0 "
            f"(tail {tail:.3e} vs scale {scale:.3e}); the 1/|omega| integral diverges"
        )


def _decay_radius(numerator, start: float) -> float:
    r = max(start, 4.0)
    for _ in range(40):
        edge = np.max(np.abs(numerator(np.array([-r, r]))))
        if edge < 1e-18:
            return r
        r *= 1.5
    return r


def admissibility_cg(g: Window) -> AdmissibilityConstant:
    """Wavelet constant C_g = integral |g_hat(w)|^2 / |w| dw.

    Requires the vanishing-zeroth-moment gate (so |g_hat|^2 ~ w^2 near 0 and
    the weight is integrable).  ``half_line`` is the w>0 share.
    """
    require_wavelet(g)

    def numerator(w):
        v = g.ft(np.asarray(w, dtype=float))
        return (v * np.conj(v)).real

    _check_small_freq_convergence(numerator, f"C_g[{g.name}]")
    r = _decay_radius(numerator, 6.0 / max(g.decay_scale, 1e-3))

    def integrand(w):
        return numerator(np.asarray([w]))[0] / abs(w)

    pos = quad(integrand, 0.0, r, limit=400)
    neg = quad(integrand, -r, 0.0, limit=400)
    value = pos[0] + neg[0]
    err = pos[1] + neg[1]
    if value <= 0 or not np.isfinite(value):
        raise DivergentAdmissibility(f"C_g[{g.name}] evaluated to {value}")
    return AdmissibilityConstant(value=value, quadrature_error_estimate=err,
                                 half_line=pos[0])


def admissibility_cgpsi(g: Window, psi: Window, c2: float) -> AdmissibilityConstant:
    """Reconstruction-pair constant
    C_{g,psi,c2} = integral psi_hat(c2*(w-1)) * conj(g_hat(c2*(w-1))) dw/|w|.

    Finite only when the numerator vanishes at w=0, i.e. when
    psi_hat(-c2)*conj(g_hat(-c2)) = 0; otherwise DivergentAdmissibility.
    """
    c2 = float(c2)

    def numerator(w):
        arg = c2 * (np.asarray(w, dtype=float) - 1.0)
        return psi.ft(arg) * np.conj(g.ft(arg))

    _check_small_freq_convergence(numerator, f"C_gpsi[{g.name},{psi.name}]")
    # numerator support: |c2*(w-1)| up to the windows' spectral decay
    r = 1.0 + _decay_radius(lambda w: numerator(w), 1.0 + 12.0 / abs(c2))

    def integrand(w):
        return numerator(np.asarray([w]))[0] / abs(w)

    value, err = quad(integrand, -r, r, complex_func=True, limit=400, points=[0.0, 1.0])
    err = err.real + err.imag
    if not np.isfinite(value):
        raise DivergentAdmissibility(f"C_gpsi[{g.name},{psi.name}] is not finite")
    if abs(value) < 1e-10:
        raise ZeroAdmissibility(
            f"C_gpsi[{g.name},{psi.name}] = {value:.3e}; reconstruction impossible"
        )
    return AdmissibilityConstant(value=value, quadrature_error_estimate=err)


# ---------------------------------------------------------------------------
# derivatives

# Trapezoid rule on |z - t0| = r for f^(n)(t0) = n!/(2 pi i) \oint f(z) (z - t0)^(-n-1) dz
# (Lyness and Moler, SIAM J. Numer. Anal. 4, 1967; Fornberg, ACM TOMS 7(4), 1981).
# For an entire f its error is rounding, ~1e-16 max|f| n!/r^n, large for r below ~1.5
# length scales of f, plus aliasing of the z^(n+64) term, large above ~3 (Gaussian: r^64/2^32/32!).
CONTOUR_NODES = 64
CONTOUR_RADIUS = 2.0   # in length scales of f
_CONTOUR_CIRCLE = np.exp(2j * np.pi * np.arange(CONTOUR_NODES) / CONTOUR_NODES)
# n!/M e^{-i n theta_m}, the phase -n*m reduced modulo M in integers
_CONTOUR_WEIGHTS = np.array([math.factorial(n) / CONTOUR_NODES
                             * _CONTOUR_CIRCLE[-n * np.arange(CONTOUR_NODES) % CONTOUR_NODES]
                             for n in range(MAX_DERIVATIVE_ORDER + 1)])


def contour_derivative(fn: Callable[[np.ndarray], np.ndarray], t0, order: int, r):
    """order-th derivative of the entire function fn (which must accept
    complex arrays) at each point of t0, on circles of radius r (a scalar,
    or one radius per point); order 0 returns fn(t0).  fn is evaluated on
    t0's shape plus a trailing axis of CONTOUR_NODES."""
    if order < 0:
        raise ValueError(f"derivative order {order} is negative")
    if order > MAX_DERIVATIVE_ORDER:
        raise DerivativeOrderTooHigh(
            f"derivative order {order} exceeds {MAX_DERIVATIVE_ORDER}")
    if order == 0:
        return fn(t0)
    r = np.asarray(r)
    vals = fn(np.asarray(t0)[..., None] + r[..., None] * _CONTOUR_CIRCLE)
    # one 1 x CONTOUR_NODES product per point (a stacked matmul), so each
    # point rounds as it does alone; a 2-D product's blocked kernel sums in
    # another order, which moves a cancelling derivative by ~1e-16 max|fn|
    return (vals[..., None, :] @ _CONTOUR_WEIGHTS[order])[..., 0] / r ** order


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
    rc = CONTOUR_RADIUS * g.length_scale
    # 128-point blocks keep the (points x CONTOUR_NODES) evaluation in cache
    value = max(float(np.max(np.abs(xb ** k * contour_derivative(g.eval, xb, p, rc))))
                for xb in np.split(x, range(128, x.size, 128)))
    return SeminormEstimate(indices=(k, p), value=value,
                            grid_spec=f"[-{r:g},{r:g}] n={n_probe} contour r={rc:g} M={CONTOUR_NODES}")


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
