"""Fractional Stockwell transform: forward, synthesis, reconstruction.

Forward transform of a signal f at time shift x and frequency xi != 0::

    S_g^alpha f(x, xi) = |xi| * integral f(t) conj(g(xi*(t-x))) K_alpha(t, xi) dt

The alpha = 0 branch is the zero operator; alpha = pi is rejected (the
delta-branch kernel does not define a Stockwell transform).  Two window
classes coexist: unit-mass windows (gauss-unit) give the transform its
spectrogram reading, while the asymptotic machinery works with
vanishing-moment wavelet-class windows; the operators accept either.
Synthesis is the adjoint-type quadrature

    (S_g^alpha)* F(t) = |sin alpha| * 2D-integral F(x, xi) g(xi*(t-x)) K_{-alpha}(t, xi) dx dxi

over both signs of xi, and composing synthesis (window psi) with analysis
(window g) reproduces C_{g,psi,c2} * f when that admissibility constant is
finite.

On sampled signals this transform and the FRWT share one windowed
correlation (``_correlate``) and its adjoint (``_spread``); the bridge
identity in ``frwt`` is what makes the two transforms the same kernel with
different dilations and modulations.  Both are spectral: the signal's FFT
times the window's closed-form spectrum on the FFT bins of each column's
band, summed over the x axis by Bluestein's chirp-z (see "The spectral
kernel of sampled signals" below).  Distribution descriptors pair f
with ``_integrand_probe``, the same kernel at given cells: single points
through ``pair``, grids and lattices of cells through ``pair_cells``, which
pairs a delta comb at all cells in one evaluation.  Every such probe
carries the Gaussian form that its window's form gives it
(``_probe_form``), so homogeneous distributions pair in closed form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain, islice, repeat

import numpy as np

from .distributions import GaussianForm, SignalOrDistribution, TestFunction, pair, pair_cells
from .errors import GridTooCoarse, MalformedCSV, SingularAngle
from .fraccore import (
    TWO_PI_LD,
    AngleKind,
    FracParam,
    CLASSICAL_FT_PARAM,
    SampledSignal,
    _LatticeSum,
    _uniform_step,
    _unit_phase,
    check_sampling,
    cmul,
    rel_l2,
    trapezoid_weights,
)
from .windows import (
    KERNEL_BLOCK_ELEMENTS,
    SQRT_2PI,
    SUPPORT_RADII,
    Window,
    admissibility_cgpsi,
)

XI_FLOOR = 2.0 ** -6


@dataclass(frozen=True)
class TFGrid:
    """Complex matrix over a time axis and a frequency/scale axis.

    values[i, j] is the transform at (x_axis[i], xi_axis[j]).  The xi axis
    is strictly monotone and bounded away from 0 by XI_FLOOR.
    """

    x_axis: np.ndarray = field(repr=False)
    xi_axis: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        x = np.asarray(self.x_axis, dtype=float)
        xi = np.asarray(self.xi_axis, dtype=float)
        vals = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "x_axis", x)
        object.__setattr__(self, "xi_axis", xi)
        object.__setattr__(self, "values", vals)
        check_axes(x, xi)
        if vals.shape != (x.size, xi.size):
            raise ValueError("values shape does not match the axes")
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid contains non-finite values")


def check_axes(x_axis: np.ndarray, xi_axis: np.ndarray) -> None:
    """Both axes finite and strictly increasing, and |xi| at least XI_FLOOR."""
    if not (np.all(np.isfinite(x_axis)) and np.all(np.isfinite(xi_axis))):
        raise ValueError("grid axes must be finite")
    if np.any(np.diff(x_axis) <= 0) or np.any(np.diff(xi_axis) <= 0):
        raise ValueError("grid axes must be strictly increasing")
    if np.any(np.abs(xi_axis) < XI_FLOOR):
        raise ValueError(f"|xi| entries below the floor {XI_FLOOR}")


def positive_log_xi_axis(xi_min: float = 2.0 ** -4, xi_max: float = 2.0 ** 4,
                         n: int = 96) -> np.ndarray:
    """Geometric scale grid on the positive axis (FRWT)."""
    if not 0 < xi_min < xi_max < np.inf:
        raise ValueError(f"log xi axis needs 0 < xi_min < xi_max, both finite; "
                         f"got {xi_min}, {xi_max}")
    return np.exp(np.linspace(np.log(xi_min), np.log(xi_max), n))


def symmetric_log_xi_axis(xi_min: float = 2.0 ** -3, xi_max: float = 2.0 ** 3,
                          n_per_sign: int = 96) -> np.ndarray:
    """Geometric |xi| grid on both signs, increasing overall (FRST)."""
    pos = positive_log_xi_axis(xi_min, xi_max, n_per_sign)
    return np.concatenate([-pos[::-1], pos])


def log_branch_weights(xi_axis: np.ndarray) -> np.ndarray:
    """d xi weights realized as trapezoid in log|xi| times the |xi| Jacobian,
    evaluated independently on each sign branch."""
    xi = np.asarray(xi_axis, dtype=float)
    w = np.zeros_like(xi)
    for mask in (xi < 0, xi > 0):
        if not np.any(mask):
            continue
        branch = xi[mask]
        if branch.size < 2:
            raise GridTooCoarse("xi sign branch needs at least 2 points")
        # log|xi| runs downhill on the negative branch; weights stay positive
        w[mask] = np.abs(trapezoid_weights(np.log(np.abs(branch)))) * np.abs(branch)
    return w


# ---------------------------------------------------------------------------
# forward


def _integrand_probe(p: FracParam, g: Window, x, d, omega, amp) -> TestFunction:
    """t -> amp conj(g((t - x) d)) e^{i (c1 t^2/2 - omega t)} as a probe.

    The point form of ``_correlate``: the FRST takes d = xi, omega = c2 xi,
    the FRWT d = 1/xi, omega = 0; amp carries each transform's constant.
    x, d, omega and amp are scalars for one cell, or 1-D arrays over a
    family of cells; then center, radius and scale are arrays too, and fn
    takes t whose first axis is the cells' (a contour adds a second).
    """
    family = getattr(x, "ndim", 0) > 0

    def fn(t):
        xs, ds, om, am = x, d, omega, amp
        if family:
            lead = (-1,) + (1,) * (t.ndim - 1)
            xs, ds, om, am = (v.reshape(lead) for v in (x, d, omega, amp))
        # conj(g(conj u)) is analytic in t and equals conj(g(u)) for real t
        return am * np.conj(g.eval(np.conj(t - xs) * ds)) * np.exp(1j * (0.5 * p.c1 * t * t - om * t))

    radius = g.support_radius / abs(d)
    osc = 1.0 + abs(omega) + abs(p.c1) * (abs(x) + radius)
    return TestFunction(fn=fn, center=x, radius=radius,
                        scale=np.minimum(g.length_scale / abs(d), 1.0 / osc),
                        form=lambda: _probe_form(p, g, x, d, omega, amp))


def _probe_form(p: FracParam, g: Window, x, d, omega, amp) -> GaussianForm:
    """``_integrand_probe`` as a Gaussian polynomial, for a window
    g(u) = P(u) e^{-u^2/(2 w^2)} e^{i kappa u}: with s = d^2/w^2,
    a = (s - i c1)/2, b = s x - i (kappa d + omega),
    c = -s x^2/2 + i kappa d x and Q(t) = amp conj(P)(d (t - x))."""
    x, d, omega, amp = np.broadcast_arrays(x, d, omega, amp)
    s = (d / g.width) ** 2
    dx = d * x
    # Horner: Q <- Q (d t - d x) + conj(p_j), from the leading coefficient down
    q = np.zeros(x.shape + (len(g.poly),), dtype=complex)
    for pj in reversed(g.poly):
        q[..., 1:] = d[..., None] * q[..., :-1] - dx[..., None] * q[..., 1:]
        q[..., 0] *= -dx
        q[..., 0] += np.conj(pj)
    return GaussianForm(q=cmul(q, np.asarray(amp)[..., None]), a=0.5 * (s - 1j * p.c1),
                        b=s * x - 1j * (g.carrier * d + omega),
                        c=-0.5 * s * x * x + 1j * g.carrier * dx)


def _pair_cells(p: FracParam, g: Window, f: SignalOrDistribution, x, d, omega,
                amp) -> np.ndarray:
    """<f, _integrand_probe(p, g, x, d, omega, amp)> at every cell of the
    broadcast parameter arrays."""
    params = np.broadcast_arrays(x, d, omega, amp)
    flat = [v.ravel() for v in params]
    vals = pair_cells(f, lambda cells: _integrand_probe(p, g, *(v[cells] for v in flat)),
                      flat[0].size)
    return vals.reshape(params[0].shape)


def _frst_params(p: FracParam, x, xi, drop_xi_chirp: bool):
    """(x, d, omega, amp) of the FRST probe at the cells (x, xi != 0)."""
    p.require_regular("frst_point")
    if not np.asarray(xi).all():
        raise ValueError("xi must be nonzero")
    amp = abs(xi) * p.c_alpha
    if not drop_xi_chirp:
        amp = cmul(amp, np.exp(1j * 0.5 * p.c1 * xi * xi))
    return x, xi, p.c2 * xi, amp


def frst_point(p: FracParam, g: Window, f: SignalOrDistribution,
               x: float, xi: float, *, drop_xi_chirp: bool = False) -> complex:
    """Single-point FRST: the pairing of f with the integrand
    t -> |xi| conj(g(xi(t-x))) K_alpha(t, xi).

    With drop_xi_chirp the constant factor exp(i*c1*xi^2/2) is omitted,
    which evaluates exp(-i*c1*xi^2/2) * S_g^alpha f directly (the gauge the
    asymptotic theorems use) without forming huge cancelling phases.
    """
    return pair(f, _integrand_probe(p, g, *_frst_params(p, x, xi, drop_xi_chirp)))


def frst_cells(p: FracParam, g: Window, f: SignalOrDistribution, x, xi, *,
               drop_xi_chirp: bool = False) -> np.ndarray:
    """``frst_point`` at every cell of the broadcast arrays x and xi."""
    return _pair_cells(p, g, f, *_frst_params(p, x, xi, drop_xi_chirp))


def st_point(g: Window, f: SignalOrDistribution, x: float, xi: float) -> complex:
    """Classical Stockwell transform point (alpha = pi/2, exact constants)."""
    return frst_point(CLASSICAL_FT_PARAM, g, f, x, xi)


def _chirped(p: FracParam, f: SampledSignal) -> np.ndarray:
    """Trapezoid-weighted samples times the time chirp e^{i c1 t^2/2}."""
    t = f.t_grid
    return f.samples * f.trapezoid_weights() * np.exp(1j * 0.5 * p.c1 * t * t)


# The spectral kernel of sampled signals.  With H(mu) = sum_k h_k e^{-i mu t_k},
#
#   C_j(x) = 1/(sqrt(2 pi) |d|) integral conj(g_hat((mu - omega)/d)) H(mu) e^{i (mu - omega) x} dmu,
#
# the FFT form of the S-transform (Stockwell, Mansinha and Lowe 1996) at any
# dilation d and modulation omega.  Its rectangle rule at mu_m = m delta,
# delta = 2 pi / P, adds to C copies of the window shifted by multiples of P,
# which P > max|t - x| + g.support_radius/|d| keeps beyond the window's
# support, over the points of t and x within reach of each other (the
# others meet only the truncated tails): P is bounded by the signal's span
# and the window's, however far x reaches; m runs over the bins where
# g_hat lies within SUPPORT_RADII spectral widths of its carrier.  On a
# uniform t, t_k = t0 + k step, P is L step and
# H(mu_m) = e^{-i mu_m t0} FFT_L(h)[m mod L], exact also for bands wider
# than L bins.  An axis that is uniform to rounding is a progression
# plus its rounding eps, and e^{i mu eps} = 1 + i mu eps to first order: a
# second FFT (of h eps) or chirp-z (of mu-weighted terms) makes the sums
# those at the given t and x, not at the nearest progression points.


def _kernel_plan(g: Window, t, x, d):
    """(tk, xk, t step, lengths) on ascending t and x: the slices of t and
    x within r = g.support_radius/min|d| of the other axis's span (a point
    beyond meets only the window's truncated tails, so its row is zero);
    the step of t[tk] (None if it is not uniform, ``_uniform_step``); and
    each column's period P_j > max|t - x| + g.support_radius/|d_j| over
    the slices, as a power of two.  On a uniform t, lengths holds L_j =
    P_j/step, at least t[tk].size; on other t, P_j itself (possibly below
    1).  Empty slices give (tk, xk, None, None)."""
    r = g.support_radius / np.min(np.abs(d))
    tk = slice(int(np.searchsorted(t, x[0] - r)), int(np.searchsorted(t, x[-1] + r, "right")))
    xk = slice(int(np.searchsorted(x, t[0] - r)), int(np.searchsorted(x, t[-1] + r, "right")))
    t, x = t[tk], x[xk]
    if not (t.size and x.size):
        return tk, xk, None, None
    t_step = _uniform_step(t)
    reach = max(t[-1] - x[0], x[-1] - t[0]) + g.support_radius / np.abs(d)
    if not t_step:
        # the exponential-matrix sums take any period
        return tk, xk, None, np.exp2(np.floor(np.log2(reach)) + 1)
    lengths = np.exp2(np.floor(np.log2(reach / t_step)) + 1).astype(np.int64)
    return tk, xk, t_step, np.maximum(lengths, 1 << (t.size - 1).bit_length())


def _kernel_meta(g: Window, t, x, d) -> dict:
    """How the spectral kernel computes a grid: its x-sum and FFT lengths."""
    tk, xk, t_step, lengths = _kernel_plan(g, t, x, d)
    return {"route": "spectral", "x_sum": "chirp-z" if _uniform_step(x[xk]) else "dense",
            "fft_lengths": sorted(set(lengths.tolist())) if t_step else []}


def _rounding(a: np.ndarray, step: float) -> np.ndarray:
    """How far the long-double points a, with a[0] = 0, lie off k step."""
    return (a - np.arange(a.size, dtype=np.longdouble) * step).astype(float)


def _padded(count: int, nx: int) -> int:
    """The bins of a band of count bins padded to fill its chirp-z's FFT."""
    return (1 << (count + nx - 2).bit_length()) - nx + 1


def _lattices(g: Window, t, x, d, omega, lengths, t_step):
    """The columns' bin lattices, one per lattice length L: yields (delta,
    base, size, blocks).  A lattice's spectrum is indexed by (m - base) mod
    size: the FFT's L bins on a uniform t, else every bin a column reaches.
    blocks yields ``_blocks``' blocks of the lattice's columns."""
    ld = np.longdouble
    half = np.abs(d) * (SUPPORT_RADII / g.width)
    centre = omega + d * g.carrier
    for length in np.unique(lengths).tolist():
        cols = np.flatnonzero(lengths == length)
        delta = TWO_PI_LD / (length * ld(t_step or 1.0))
        m0 = np.ceil((centre[cols] - half[cols]) / float(delta)).astype(np.int64)
        count = np.floor((centre[cols] + half[cols]) / float(delta)).astype(np.int64) - m0 + 1
        if t_step:
            base, size = 0, length
        else:
            base = int(m0.min())
            size = int(m0.max()) + _padded(int(count.max()), x.size) - base
        yield delta, base, size, _blocks(g, t, x, d, omega, delta, cols, m0, count)


def _blocks(g: Window, t, x, d, omega, delta, cols, m0, count):
    """Blocks of the columns cols, widest bands first, each band padded
    (``_padded``) to its block's widest: yields (cols, m, mu, coef, phase,
    xsum) with the bins m[c] = m0[c] + 0, 1, ..., mu = m delta, the weights
    coef = g_hat((mu - omega)/d) delta/(sqrt(2 pi) |d|), the phase
    e^{i (m0 delta (x - t0) - omega x)} and the ``_LatticeSum`` over x of
    the block's bins.  A block's two chirp-z convolutions hold at most
    KERNEL_BLOCK_ELEMENTS values, or one column's."""
    xs = x.astype(np.longdouble) - t[0]
    x_step = _uniform_step(x)
    sums = {}
    order = np.argsort(-count, kind="stable")
    lo = 0
    while lo < order.size:
        n = _padded(int(count[order[lo]]), x.size)
        sel = order[lo:lo + max(1, KERNEL_BLOCK_ELEMENTS // (2 * (n + x.size - 1)))]
        if n not in sums:
            sums[n] = _LatticeSum(delta, n, xs, x_step)
        c, first = cols[sel], m0[sel, None]
        m = first + np.arange(n)
        mu = m * float(delta)
        coef = g.ft((mu - omega[c, None]) / d[c, None])
        coef *= (float(delta) / SQRT_2PI) / np.abs(d[c, None])
        phase = _unit_phase(first * delta * xs - omega[c, None].astype(np.longdouble) * x)
        yield c, m, mu, coef, phase, sums[n]
        lo += sel.size


def _correlate(g: Window, t, x, d, omega, h) -> np.ndarray:
    """C[i, j] = sum_k conj(g(d_j (t_k - x_i))) e^{-i omega_j t_k} h_k.

    Both forward transforms reduce to it (the bridge identity in frwt):
    the FRST takes d = xi, omega = c2 xi; the FRWT takes d = 1/xi,
    omega = 0.  t and x must be ascending.  Evaluated by the spectral
    kernel (above): one FFT of h per lattice length on a uniform t,
    g's closed-form spectrum on the bins of each column's band, and the
    sum over x by chirp-z on a uniform x (``_LatticeSum``); the sums over
    t and x that are not uniform are exponential-matrix products.  Only
    the window's terms beyond SUPPORT_RADII (spectral) widths are dropped,
    as ``_integrand_probe`` truncates the same integral.
    """
    out = np.zeros((x.size, d.size), dtype=complex)
    tk, xk, t_step, lengths = _kernel_plan(g, t, x, d)
    if lengths is None:
        return out
    t, x, h, rows = t[tk], x[xk], h[tk], out[xk]
    ts = t.astype(np.longdouble) - t[0]
    for delta, base, size, blocks in _lattices(g, t, x, d, omega, lengths, t_step):
        if t_step:
            # H and its first-order rounding term, the FFT of h eps
            spec, dspec = np.fft.fft(np.stack((h, h * _rounding(ts, t_step))), size)
        else:
            shifted = h * _unit_phase(-base * delta * ts)
            spec = _LatticeSum(delta, size, ts, None)(shifted, adjoint=True)
        for cols, m, mu, coef, phase, xsum in blocks:
            i = (m - base) % size
            a = spec[i] - 1j * mu * dspec[i] if t_step else spec[i]
            a *= np.conj(coef)
            rows[:, cols] = (xsum(a) * phase).T
    return out


def frst_forward(p: FracParam, g: Window, f: SignalOrDistribution,
                 x_axis, xi_axis, *, enforce_sampling: bool = True) -> TFGrid:
    """FRST on a full time-frequency grid.

    Signals go through the trapezoid correlation on their own grid;
    distribution descriptors through ``frst_cells``.  alpha = 0 yields
    the zero grid; alpha = pi is rejected.
    """
    x_axis = np.asarray(x_axis, dtype=float)
    xi_axis = np.asarray(xi_axis, dtype=float)
    check_axes(x_axis, xi_axis)
    meta = {"transform": "FRST", "alpha": p.alpha, "window": g.name}
    if p.kind is AngleKind.IDENTITY:
        vals = np.zeros((x_axis.size, xi_axis.size), dtype=complex)
        return TFGrid(x_axis, xi_axis, vals, meta)
    if p.kind is AngleKind.PARITY:
        raise SingularAngle("alpha = pi does not define a fractional Stockwell transform")

    if isinstance(f, SampledSignal):
        if enforce_sampling:
            # the kernel's c2 xi plus the window's carrier at the largest |xi|
            check_sampling(p, f, (abs(p.c2) + abs(g.carrier)) * float(np.max(np.abs(xi_axis))))
        vals = _correlate(g, f.t_grid, x_axis, xi_axis, p.c2 * xi_axis, _chirped(p, f))
        vals *= np.abs(xi_axis) * p.c_alpha * np.exp(1j * 0.5 * p.c1 * xi_axis * xi_axis)
        meta["kernel"] = _kernel_meta(g, f.t_grid, x_axis, xi_axis)
    else:
        vals = frst_cells(p, g, f, x_axis[:, None], xi_axis[None, :])
    return TFGrid(x_axis, xi_axis, vals, meta)


# ---------------------------------------------------------------------------
# synthesis / reconstruction


def _spread(g: Window, t, x, d, omega, H) -> np.ndarray:
    """Adjoint of _correlate: s(t_k) = sum_j e^{i omega_j t_k} sum_i g(d_j (t_k - x_i)) H[i, j].

    The spectral kernel's exact adjoint: the adjoint sum over x
    (``_LatticeSum``), times g_hat on each column's bins, folded mod L,
    and one inverse FFT per lattice length onto the sorted t (an
    exponential-matrix product if t is not uniform).  x must be
    ascending, t may come in any order.
    """
    if x.size < 2 or d.size < 2:
        raise GridTooCoarse("synthesis needs at least 2 points per axis")
    out = np.zeros(t.shape, dtype=complex)
    order = np.argsort(t, kind="stable")
    tk, xk, t_step, lengths = _kernel_plan(g, t[order], x, d)
    if lengths is None:
        return out
    order, x, H = order[tk], x[xk], H[xk]
    t_sorted = t[order]
    ts = t_sorted.astype(np.longdouble) - t_sorted[0]
    acc = np.zeros(t_sorted.shape, dtype=complex)
    for delta, base, size, blocks in _lattices(g, t_sorted, x, d, omega, lengths, t_step):
        fold = np.zeros((2, size), dtype=complex)
        for cols, m, mu, coef, phase, xsum in blocks:
            b = xsum(H[:, cols].T * np.conj(phase), adjoint=True)
            b *= coef
            i = (m - base) % size
            np.add.at(fold[0], i, b)
            if t_step:
                np.add.at(fold[1], i, mu * b)
        if t_step:
            # the adjoint of the first-order rounding term of _correlate
            s0, s1 = size * np.fft.ifft(fold)[:, :t_sorted.size]
            acc += s0 + 1j * _rounding(ts, t_step) * s1
        else:
            acc += _unit_phase(base * delta * ts) * _LatticeSum(delta, size, ts, None)(fold[0])
    out[order] = acc
    return out


def frst_synthesis(p: FracParam, g: Window, F: TFGrid, t_grid) -> np.ndarray:
    """(S_g^alpha)* F(t) = |sin a| * 2D-quadrature of F g(xi(t-x)) K_{-a}(t, xi).

    Trapezoid in x; trapezoid in log|xi| (per sign branch) with the |xi|
    Jacobian on the frequency axis.
    """
    p.require_regular("frst_synthesis")
    t = np.asarray(t_grid, dtype=float)
    x = F.x_axis
    xi = F.xi_axis
    # weighted in place: a second grid-sized temporary freed before the loop
    # left a hole that raised the peak RSS by one grid
    H = F.values * trapezoid_weights(x)[:, None]
    H *= log_branch_weights(xi) * np.exp(-1j * 0.5 * p.c1 * xi * xi)
    out = _spread(g, t, x, xi, p.c2 * xi, H)
    return abs(np.sin(p.alpha)) * np.conj(p.c_alpha) * np.exp(-1j * 0.5 * p.c1 * t * t) * out


@dataclass(frozen=True)
class ReconstructionReport:
    transform: str
    alpha: float
    constant: complex
    rel_l2: float
    max_abs_err: float
    reconstructed: np.ndarray = field(repr=False)

    def to_json_dict(self) -> dict:
        return {
            "transform": self.transform,
            "alpha": self.alpha,
            "constant": [self.constant.real, self.constant.imag],
            "rel_l2": self.rel_l2,
            "max_abs_err": self.max_abs_err,
        }


def _compare(transform: str, alpha: float, constant: complex, f: SampledSignal,
             rec: np.ndarray) -> ReconstructionReport:
    ref = f.samples
    return ReconstructionReport(
        transform=transform, alpha=alpha, constant=constant,
        rel_l2=rel_l2(rec, ref), max_abs_err=float(np.max(np.abs(rec - ref))),
        reconstructed=rec)


def frst_reconstruct(p: FracParam, g: Window, psi: Window, f: SampledSignal,
                     x_axis, xi_axis, *,
                     enforce_sampling: bool = True) -> ReconstructionReport:
    """f_tilde = (S_psi^alpha)* (S_g^alpha f) / C_{g,psi,c2} against f on its grid.

    Raises DivergentAdmissibility/ZeroAdmissibility when the pair (g, psi)
    does not admit a finite nonzero constant at this angle's c2.
    """
    p.require_regular("frst_reconstruct")
    const = admissibility_cgpsi(g, psi, p.c2).value
    F = frst_forward(p, g, f, x_axis, xi_axis, enforce_sampling=enforce_sampling)
    rec = frst_synthesis(p, psi, F, f.t_grid) / const
    return _compare("FRST", p.alpha, const, f, rec)


# ---------------------------------------------------------------------------
# serialization (CSV + sidecar JSON meta)


def write_json(path, obj) -> None:
    """Sorted-key, one-space-indented JSON with a trailing newline."""
    with open(path, "w", newline="\n") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def read_csv_rows(path, header: str) -> np.ndarray:
    """Numeric rows (2-D) of a CSV file whose first line must be ``header``."""
    with open(path) as fh:
        first = fh.readline().strip()
        if first != header:
            raise MalformedCSV(f"expected header {header!r}, got {first!r}")
        try:
            return np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise MalformedCSV(str(exc)) from None


# the one number format of every CSV: 17 significant digits round-trip a double
NUMBER = "{:.17g}"


def write_csv_rows(path, header: str, *columns) -> None:
    """Write ``header``, then row k of the columns as comma-separated
    fields: a numeric array's values as NUMBER, an iterator's strings
    (fields formatted beforehand) as they come."""
    # 1024-row blocks as lists: iterating numpy arrays yields slow numpy
    # scalars, and a whole grid of Python floats raised the peak RSS by 2 MB
    numeric = [isinstance(c, np.ndarray) for c in columns]
    row = ",".join(NUMBER if num else "{}" for num in numeric) + "\n"
    size = next(c.size for c, num in zip(columns, numeric) if num)
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for lo in range(0, size, 1024):
            block = (c[lo:lo + 1024].tolist() if num else islice(c, 1024)
                     for c, num in zip(columns, numeric))
            fh.writelines(map(row.format, *block))


def grid_to_csv(grid: TFGrid, csv_path, meta_path=None) -> None:
    """Write `x,xi,re,im` rows (row-major over x then xi) and a meta record.
    Each axis value is formatted once, not once per cell."""
    nx, nxi = grid.values.shape
    x_fields = map(NUMBER.format, grid.x_axis.tolist())
    xi_fields = [NUMBER.format(v) for v in grid.xi_axis.tolist()]
    vals = grid.values.reshape(-1)
    write_csv_rows(csv_path, "x,xi,re,im", chain.from_iterable(map(repeat, x_fields, repeat(nxi))),
                   chain.from_iterable(repeat(xi_fields, nx)), vals.real, vals.imag)
    if meta_path is not None:
        meta = dict(grid.meta)
        meta["axes"] = {"x": [float(v) for v in grid.x_axis],
                        "xi": [float(v) for v in grid.xi_axis]}
        write_json(meta_path, meta)


def grid_from_csv(csv_path, meta_path=None) -> TFGrid:
    data = read_csv_rows(csv_path, "x,xi,re,im")
    if data.size == 0:
        raise MalformedCSV("empty grid file")
    x = np.unique(data[:, 0])
    xi = np.unique(data[:, 1])
    if x.size * xi.size != data.shape[0]:
        raise MalformedCSV("rows do not form a complete x/xi product grid")
    vals = (data[:, 2] + 1j * data[:, 3]).reshape(x.size, xi.size)
    meta = {}
    if meta_path is not None:
        with open(meta_path) as fh:
            meta = json.load(fh)
        meta.pop("axes", None)
    return TFGrid(x, xi, vals, meta)
