"""Fractional-angle parameter algebra and the fractional Fourier transform.

The transform of a sampled signal is the trapezoid sum of its integral,
evaluated as a chirp-z transform on uniform frequency grids and by the
dense kernel matrix elsewhere (``frft``).

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

    def negated(self) -> "FracParam":
        """Parameters of the inverse kernel K_{-alpha}."""
        self.require_regular("kernel negation")
        return FracParam(
            alpha=(TWO_PI - self.alpha) % TWO_PI,
            c1=-self.c1,
            c2=-self.c2,
            c_alpha=np.conj(self.c_alpha),
            kind=AngleKind.REGULAR,
        )


def make_frac_param(alpha: float) -> FracParam:
    """Classify an angle and compute c1, c2, C_alpha.

    Angles outside [0, 2*pi) are reduced mod 2*pi and flagged via
    ``wrapped``.  Singular angles produce the identity/parity kinds rather
    than an error.
    """
    a = float(alpha)
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
    sample.
    """
    if not p.is_regular:
        return
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


def _chirp_z(p: FracParam, fw: np.ndarray, t0: float, dt: float, xi0: float,
             dxi: float, m: int) -> np.ndarray:
    """sum_k fw_k e^{i (c1 (t_k^2 + xi_j^2)/2 - c2 t_k xi_j)} at
    t_k = t0 + k dt, xi_j = xi0 + j dxi, j < m, by Bluestein's chirp-z
    (Rabiner, Schafer and Rader 1969).

    k j = (k^2 + j^2 - (j - k)^2)/2 makes the cross term a convolution with
    the chirp e^{i beta n^2/2}, beta = c2 dt dxi, evaluated by one FFT
    product.  Phases are formed in long double from exact integer squares.
    """
    ld = np.longdouble
    c1, c2, t0, dt, xi0, dxi = (ld(v) for v in (p.c1, p.c2, t0, dt, xi0, dxi))
    k = np.arange(fw.size, dtype=ld)
    j = np.arange(m, dtype=ld)
    beta = c2 * dt * dxi
    t = t0 + k * dt
    xi = xi0 + j * dxi
    pre = fw * _unit_phase(c1 * t * t / 2 - c2 * dt * xi0 * k - beta * k * k / 2)
    post = _unit_phase(c1 * xi * xi / 2 - c2 * t0 * xi - beta * j * j / 2)
    size = 1 << (fw.size + m - 2).bit_length()   # a power of two >= N + m - 1
    n = np.arange(max(fw.size, m), dtype=ld)
    chirp = _unit_phase(beta * n * n / 2)
    kern = np.zeros(size, dtype=complex)
    kern[:m] = chirp[:m]
    kern[size - fw.size + 1:] = chirp[fw.size - 1:0:-1]   # n = -(N-1) .. -1
    conv = np.fft.ifft(np.fft.fft(pre, size) * np.fft.fft(kern))
    return post * conv[:m]


def frft(p: FracParam, f: SampledSignal, xi_grid, *, enforce_sampling: bool = True) -> np.ndarray:
    """Fractional Fourier transform, the trapezoid sum of its integral.

    F_alpha f(xi) = integral f(x) K_alpha(x, xi) dx for regular angles;
    the identity/parity branches interpolate f(xi) / f(-xi) on the sample
    grid.  On a uniform xi grid of at least 3 points the sum is a chirp-z
    transform (``_chirp_z``, O((N + M) log(N + M))); other grids sum the
    kernel matrix directly, which is also the chirp-z's test oracle.

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
    step = _uniform_step(xi)
    if step is not None:
        return p.c_alpha * _chirp_z(p, fw, f.t0, f.dt, xi[0], step, xi.size)
    return p.c_alpha * _frft_dense(p, f.t_grid, fw, xi)


def _frft_dense(p: FracParam, t: np.ndarray, fw: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """sum_k fw_k e^{i (c1 (t_k^2 + xi^2)/2 - c2 t_k xi)} by the kernel matrix."""
    out = np.empty(xi.shape, dtype=complex)
    # 128-row blocks bound the kernel matrix at 128 x N
    for lo in range(0, xi.size, 128):
        xb = xi[lo:lo + 128, None]
        phase = (t[None, :] ** 2 + xb ** 2) * (0.5 * p.c1) - t[None, :] * xb * p.c2
        out[lo:lo + 128] = np.exp(1j * phase) @ fw
        del phase   # a phase kept alive into the next block adds 4 MB at N = 4096
    return out


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
