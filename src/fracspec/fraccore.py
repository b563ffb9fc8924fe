"""Fractional-angle parameter algebra and the fractional Fourier transform.

The transform of a sampled signal is the trapezoid sum of its integral
(``frft``).  That sum, like every sampled-signal transform in the package
(the FRST/FRWT spectral kernel in ``frst`` and the inverse step of
``frwt.frwt_via_frft``), is one lattice sum sum_k v_k e^{i k delta x_q}
(``_LatticeSum``): Bluestein's chirp-z on a uniform output axis, with one
rule for reducing chirp phases (``_chirp``), and the dense exponential sum
on any other axis.

The transform family is parametrized by an angle ``alpha``.  Away from
multiples of pi the kernel is a chirp::

    K_alpha(x, xi) = C_alpha * exp(i * ((x^2 + xi^2)/2 * c1 - x*xi*c2))

with ``c1 = cot(alpha)``, ``c2 = csc(alpha)`` and
``C_alpha = sqrt((1 - i*c1) / (2*pi))``.  At ``alpha = 2n*pi`` the operator
degenerates to the identity and at ``alpha = (2n+1)*pi`` to the parity
(reflection) operator; those branches are handled as exact operators on the
sample grid, never as pointwise kernel values.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SingularAngle, UndersampledChirp

TWO_PI = 2.0 * np.pi

# Values computed in one block: the signal kernels' chirp-z buffers and the
# cells of batched delta pairings number at most this many (on a 2-vCPU
# Xeon, a hermite1 evaluation took ~4.5 ns per point up to 28k points and
# ~13 ns from 32k, where each numpy temporary reaches 256 kB).
KERNEL_BLOCK_ELEMENTS = 16384

# Angles with |sin(alpha)| below this are demoted to the delta branches:
# evaluating the chirp there would need |c1|, |c2| ~ 1/|sin| > 1e3, which no
# desk-scale grid resolves.
SINGULAR_THRESHOLD = 1e-3

# Phase advance allowed per sample step in the oscillation criterion.
MAX_PHASE_STEP = np.pi / 4


class AngleKind(enum.Enum):
    REGULAR = "regular"
    IDENTITY = "identity"   # alpha = 2n*pi
    PARITY = "parity"       # alpha = (2n+1)*pi


@dataclass(frozen=True)
class FracParam:
    """Angle plus its derived kernel constants.

    ``c1``, ``c2`` and ``c_alpha`` are only meaningful when
    ``kind == AngleKind.REGULAR``; the delta branches carry NaNs.
    """

    alpha: float
    c1: float
    c2: float
    c_alpha: complex
    kind: AngleKind
    wrapped: bool = False   # input angle was reduced mod 2*pi

    @property
    def is_regular(self) -> bool:
        return self.kind is AngleKind.REGULAR

    def require_regular(self, what: str = "operation") -> None:
        if not self.is_regular:
            raise SingularAngle(
                f"{what} needs a regular angle, got alpha={self.alpha!r} ({self.kind.value})"
            )


def make_frac_param(alpha: float) -> FracParam:
    """Classify an angle and compute c1, c2, C_alpha.

    Angles outside [0, 2*pi) are reduced mod 2*pi and flagged via
    ``wrapped``.  Singular angles produce the identity/parity kinds rather
    than an error; a non-finite alpha raises ValueError.
    """
    a = float(alpha)
    if not np.isfinite(a):
        raise ValueError(f"alpha must be finite, got {a}")
    wrapped = not (0.0 <= a < TWO_PI)
    a = a % TWO_PI
    s = np.sin(a)
    if abs(s) < SINGULAR_THRESHOLD:
        # nearest multiple of pi decides the branch
        n = int(round(a / np.pi))
        kind = AngleKind.IDENTITY if n % 2 == 0 else AngleKind.PARITY
        return FracParam(a, np.nan, np.nan, complex(np.nan, np.nan), kind, wrapped)
    c1 = np.cos(a) / s
    c2 = 1.0 / s
    c_alpha = np.sqrt((1.0 - 1j * c1) / TWO_PI)
    return FracParam(a, c1, c2, c_alpha, AngleKind.REGULAR, wrapped)


# Exact classical-FT parameters (alpha = pi/2 with c1 == 0 exactly, so the
# chirp factor is identically 1 rather than exp(1e-17j * t^2)).
CLASSICAL_FT_PARAM = FracParam(
    alpha=np.pi / 2,
    c1=0.0,
    c2=1.0,
    c_alpha=complex(1.0 / np.sqrt(TWO_PI), 0.0),
    kind=AngleKind.REGULAR,
)


def kernel_eval(p: FracParam, x, xi):
    """Pointwise kernel K_alpha(x, xi); broadcasts over array inputs.

    Raises SingularAngle for the delta branches, whose "kernel" is a
    distribution, not a function.
    """
    p.require_regular("kernel_eval")
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    phase = (x * x + xi * xi) * (0.5 * p.c1) - x * xi * p.c2
    return p.c_alpha * np.exp(1j * phase)


def cmul(a, b) -> np.ndarray:
    """a * b for complex arrays, each entry rounded as the product of two
    complex scalars: (ar br - ai bi) + i (ar bi + ai br).

    numpy's vector loop for complex arrays fuses multiply and add, and so
    moves about half of its products by an ulp from the same product of
    scalars; batched evaluations use this to repeat per-cell values exactly.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    re = a.real * b.real - a.imag * b.imag
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = a.real * b.imag + a.imag * b.real
    return out


@dataclass(frozen=True)
class SampledSignal:
    """Uniformly sampled complex signal; sample j lives at t0 + j*dt."""

    t0: float
    dt: float
    samples: np.ndarray = field(repr=False)

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=complex)
        object.__setattr__(self, "samples", samples)
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if samples.ndim != 1 or samples.size < 2:
            raise ValueError("need a 1-D signal with at least 2 samples")

    @property
    def n(self) -> int:
        return self.samples.size

    @property
    def t_grid(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n)

    @property
    def t_end(self) -> float:
        return self.t0 + self.dt * (self.n - 1)

    def trapezoid_weights(self) -> np.ndarray:
        return _step_weights(np.full(self.n - 1, self.dt))


def _step_weights(d: np.ndarray) -> np.ndarray:
    """Trapezoid-rule weights of the nodes joined by steps d."""
    w = np.zeros(d.size + 1)
    w[:-1] += 0.5 * d
    w[1:] += 0.5 * d
    return w


def trapezoid_weights(axis: np.ndarray) -> np.ndarray:
    """Trapezoid-rule weights on a (possibly non-uniform) monotone axis."""
    return _step_weights(np.diff(axis))


def gaussian_signal(width: float = 1.0, n: int = 1024, half_width: float = 12.0,
                    modulation: float = 0.0) -> SampledSignal:
    """exp(i*modulation*t) * exp(-t^2/(2*width^2)) on [-T, T] with N points."""
    t = np.linspace(-half_width, half_width, n)
    samples = np.exp(1j * modulation * t) * np.exp(-(t * t) / (2.0 * width * width))
    return SampledSignal(t0=-half_width, dt=t[1] - t[0], samples=samples)


def check_sampling(p: FracParam, f: SampledSignal, omega: float) -> None:
    """Oscillation criterion: bound the kernel phase advance per step.

    The maximal instantaneous kernel frequency over the truncation window is
    the chirp's ``|c1|*T`` plus ``omega``, the frequency bound of the rest of
    the kernel (``|c2|*max|xi|`` for the FRFT; for the FRST that plus the
    window's carrier times max|xi|; for the FRWT the window bandwidth plus
    its carrier at the finest scale); we require at most pi/4 phase per
    sample.  ``p`` is a regular angle.
    """
    t_abs = max(abs(f.t0), abs(f.t_end))
    omega_max = abs(p.c1) * t_abs + omega
    if omega_max > 0 and f.dt > MAX_PHASE_STEP / omega_max:
        raise UndersampledChirp(
            f"dt={f.dt:.4g} exceeds {MAX_PHASE_STEP / omega_max:.4g} needed for "
            f"alpha={p.alpha:.4g} with |t|<={t_abs:.3g}, frequency <= {omega:.3g}"
        )


def _interp_complex(x_new: np.ndarray, x_old: np.ndarray, y_old: np.ndarray) -> np.ndarray:
    # tolerate grid-endpoint rounding, refuse genuine extrapolation
    tol = 1e-9 * max(1.0, abs(x_old[0]), abs(x_old[-1]))
    if x_new.min() < x_old[0] - tol or x_new.max() > x_old[-1] + tol:
        raise DomainError("requested grid extends beyond the sample grid; no extrapolation")
    x_new = np.clip(x_new, x_old[0], x_old[-1])
    return np.interp(x_new, x_old, y_old.real) + 1j * np.interp(x_new, x_old, y_old.imag)


# 2*pi to long-double precision, for reducing chirp phases of hundreds of radians
TWO_PI_LD = np.longdouble("6.28318530717958647692528676655900576839")


def _unit_phase(theta: np.ndarray) -> np.ndarray:
    """e^{i theta} of long-double phases, reduced mod 2*pi before the
    double-precision exp."""
    return np.exp(1j * (theta - TWO_PI_LD * np.round(theta / TWO_PI_LD)).astype(float))


def _uniform_step(xi: np.ndarray):
    """The step of a grid of at least 3 points that equals xi[0] + m*step
    to a few ulps (np.linspace and t0 + k*dt both do), else None."""
    if xi.ndim != 1 or xi.size < 3:
        return None
    step = (xi[-1] - xi[0]) / (xi.size - 1)
    dev = np.max(np.abs(xi - (xi[0] + step * np.arange(xi.size))))
    if step == 0 or dev > 4.0 * np.spacing(np.max(np.abs(xi))):
        return None
    return step


def _chirp(beta, j) -> np.ndarray:
    """e^{i beta j/2} at the integers j, reduced in turns before any
    rounding that grows with j: beta/(4 pi) = hi + lo with a 24-bit hi, so
    hi j is exact in long double and only the small lo j rounds."""
    ld = np.longdouble
    turns = beta / (2 * TWO_PI_LD)
    hi = ld(np.float32(turns))
    j = np.asarray(j, dtype=ld)
    whole = hi * j
    return _unit_phase(TWO_PI_LD * (whole - np.round(whole) + (turns - hi) * j))


class _LatticeSum:
    """v -> sum_{k < n} v[..., k] e^{i k delta xs_q} at every q, and its
    adjoint v -> sum_q v[..., q] e^{-i k delta xs_q} at every k < n; delta
    and xs are long doubles.  Every transform of a sampled signal is this
    sum: ``frft`` and the inverse step of ``frwt.frwt_via_frft`` over the
    output axis (``_frft_sum``), and the FRST/FRWT spectral kernel
    (``frst._correlate``, ``frst._spread``) over x and over uneven t.

    With dx, the step of an xs uniform to rounding, by Bluestein's chirp-z
    (Rabiner, Schafer and Rader 1969) about the middle points k = r, q = s:

        k delta xs_q = k delta xs_s + r delta (xs_q - xs_s)
                       + beta (k - r)(q - s) + (k - r) delta eps_q,

    beta = delta dx and eps_q = xs_q - xs_s - (q - s) dx; beta k q, that is
    beta (k^2 + q^2 - (q - k)^2)/2, is the convolution ``_conv``, and
    e^{i (k - r) delta eps_q} is kept to first order by a second
    convolution.  The phases depend on n, not on v, and are formed once.
    Without dx, by the matrix of e^{i k delta xs_q} in blocks of at most
    KERNEL_BLOCK_ELEMENTS values; it is also the chirp-z's test oracle.
    """

    def __init__(self, delta, n: int, xs: np.ndarray, dx):
        self.delta, self.n, self.xs, self.dx = delta, n, xs, dx
        if dx is None:
            return
        ld = np.longdouble
        r, s = n // 2, xs.size // 2
        k, q, j = np.arange(n), np.arange(xs.size), np.arange(max(n, xs.size))
        off = xs - xs[s]
        beta = delta * ld(dx)
        self.eps = (off - (q - s) * ld(dx)).astype(float)
        self.kr = ((k - r) * delta).astype(float)
        # beta (k - r)(q - s) = beta (k q - s k - r q + r s)
        self.pre = _unit_phase(k * delta * xs[s]) * _chirp(beta, k * (k - 2 * s))
        self.post = _unit_phase(r * delta * off) * _chirp(beta, q * (q - 2 * r) + 2 * r * s)
        self.chirp = _chirp(beta, j * j)

    def __call__(self, v: np.ndarray, adjoint: bool = False) -> np.ndarray:
        if self.dx is None:
            return self._dense(v, adjoint)
        if adjoint:
            w = v * np.conj(self.post)
            c = self._conv(np.stack((w, w * self.eps)), self.chirp, self.n)
            return np.conj(self.pre) * (c[0] - 1j * self.kr * c[1])
        w = v * self.pre
        c = self._conv(np.stack((w, w * self.kr)), np.conj(self.chirp), self.xs.size)
        return self.post * (c[0] + 1j * self.eps * c[1])

    @staticmethod
    def _conv(pre: np.ndarray, chirp: np.ndarray, m: int) -> np.ndarray:
        """sum_k pre[..., k] chirp[|j - k|] for j < m, by one FFT product
        along the last axis, with chirp[n] = e^{i beta n^2/2} for n < max(N, m)."""
        n = pre.shape[-1]
        size = 1 << (n + m - 2).bit_length()   # a power of two >= N + m - 1
        kern = np.zeros(size, dtype=complex)
        kern[:m] = chirp[:m]
        kern[size - n + 1:] = chirp[n - 1:0:-1]   # j - k = -(N-1) .. -1
        spec = np.fft.fft(pre, size)
        spec *= np.fft.fft(kern)
        return np.fft.ifft(spec)[..., :m]

    def _dense(self, v: np.ndarray, adjoint: bool) -> np.ndarray:
        xs = self.xs
        k = np.arange(self.n, dtype=np.longdouble)
        out = np.zeros(v.shape[:-1] + ((self.n,) if adjoint else xs.shape), dtype=complex)
        rows = max(1, KERNEL_BLOCK_ELEMENTS // max(xs.size, 1))
        for lo in range(0, self.n, rows):
            e = _unit_phase(np.multiply.outer(k[lo:lo + rows] * self.delta, xs))
            if adjoint:
                out[..., lo:lo + rows] = v @ np.conj(e).T
            else:
                out += v[..., lo:lo + rows] @ e
        return out


def _frft_sum(c1, c2, t0, dt, fw: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """sum_k fw[..., k] e^{i (c1 (t_k^2 + xi^2)/2 - c2 t_k xi)} at
    t_k = t0 + k dt, for every xi: e^{i (c1 xi^2/2 - c2 t0 xi)} times the
    lattice sum of fw_k e^{i c1 t_k^2/2} at delta = -c2 dt over xi, which
    is a chirp-z on a uniform xi of at least 3 points and dense elsewhere."""
    ld = np.longdouble
    c1, c2, t0, dt = (ld(v) for v in (c1, c2, t0, dt))
    t = t0 + np.arange(fw.shape[-1], dtype=ld) * dt
    xs = xi.astype(ld)
    lattice = _LatticeSum(-c2 * dt, t.size, xs, _uniform_step(xi))
    return _unit_phase(c1 * xs * xs / 2 - c2 * t0 * xs) * lattice(fw * _unit_phase(c1 * t * t / 2))


def frft(p: FracParam, f: SampledSignal, xi_grid, *, enforce_sampling: bool = True) -> np.ndarray:
    """Fractional Fourier transform, the trapezoid sum of its integral.

    F_alpha f(xi) = integral f(x) K_alpha(x, xi) dx for regular angles;
    the identity/parity branches interpolate f(xi) / f(-xi) on the sample
    grid.  The sum is one ``_LatticeSum`` over xi (``_frft_sum``): a
    chirp-z, O((N + M) log(N + M)), on a uniform xi grid of at least 3
    points, and the dense exponential sum on other grids.

    Parameters
    ----------
    p : FracParam
    f : SampledSignal
    xi_grid : array of output frequencies; non-finite entries raise
        DomainError
    enforce_sampling : raise UndersampledChirp when the oscillation
        criterion fails (disable only for refinement studies).
    """
    xi = np.asarray(xi_grid, dtype=float)
    if not np.all(np.isfinite(xi)):
        raise DomainError("frequency grid holds non-finite values")
    if p.kind is AngleKind.IDENTITY:
        return _interp_complex(xi, f.t_grid, f.samples)
    if p.kind is AngleKind.PARITY:
        return _interp_complex(-xi, f.t_grid, f.samples)
    if enforce_sampling and xi.size:
        check_sampling(p, f, abs(p.c2) * np.max(np.abs(xi)))
    fw = f.samples * f.trapezoid_weights()
    return p.c_alpha * _frft_sum(p.c1, p.c2, f.t0, f.dt, fw, xi)


def rel_l2(got: np.ndarray, ref: np.ndarray) -> float:
    """||got - ref|| / ||ref||, or ||got|| when the reference is zero."""
    scale = np.linalg.norm(ref)
    return float(np.linalg.norm(got - ref) / scale) if scale > 0 else float(np.linalg.norm(got))


@dataclass(frozen=True)
class ComposeReport:
    """Relative L2 deviation of F_a1(F_a2 f) from F_{a1+a2} f."""

    alpha1: float
    alpha2: float
    n: int
    deviation: float


def frft_compose_check(p1: FracParam, p2: FracParam, f: SampledSignal,
                       xi_grid=None, *, enforce_sampling: bool = True) -> ComposeReport:
    """Numerical semigroup check for the kernel family.

    Applies F_{alpha2} first (onto the signal's own grid), then F_{alpha1},
    and compares against the direct F_{alpha1+alpha2}.  The composite angle
    may land on a delta branch (e.g. pi/2 + pi/2), which is evaluated by the
    exact identity/parity operator.
    """
    p1.require_regular("frft_compose_check")
    p2.require_regular("frft_compose_check")
    p12 = make_frac_param(p1.alpha + p2.alpha)
    t = f.t_grid
    xi = t if xi_grid is None else np.asarray(xi_grid, dtype=float)

    mid = frft(p2, f, t, enforce_sampling=enforce_sampling)
    f_mid = SampledSignal(t0=f.t0, dt=f.dt, samples=mid)
    lhs = frft(p1, f_mid, xi, enforce_sampling=enforce_sampling)
    rhs = frft(p12, f, xi, enforce_sampling=enforce_sampling)

    return ComposeReport(alpha1=p1.alpha, alpha2=p2.alpha, n=f.n, deviation=rel_l2(lhs, rhs))
