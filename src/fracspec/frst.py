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
different dilations and modulations.  Both are spectral: the signal's
spectrum times the window's closed-form spectrum on the bins of each
column's band, summed over x; that spectrum (a sum over t) and the sum
over x are each one lattice sum, a chirp-z on a uniform axis (see "The
spectral kernel of sampled signals" below).  Points, one or a whole
family (``frst_point``, ``frwt_point``, the bridge), take their route in
``_pair_cells``: a signal's cells are one ``_correlate`` call, a cell
the samples cannot resolve is refused (UndersampledChirp); a
distribution descriptor pairs with ``_integrand_probe``, the same kernel
at given cells, through ``distributions.pair_cells``, which picks each
cell's pairing route and pairs a delta comb at all cells in one
evaluation.  Every such probe carries the Gaussian form that its
window's form gives it, centred at the probe's x (``_probe_form``), so
delta derivatives are exact and homogeneous distributions pair in closed
form.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii
from typing import Union

import numpy as np

from .distributions import DistributionDescriptor, GaussianForm, TestFunction, pair_cells
# pair is not called here: perfbench's tracer looks it up in this module
from .distributions import pair  # noqa: F401
from .errors import GridTooCoarse, MalformedCSV, SingularAngle, UndersampledChirp
from .fraccore import (
    KERNEL_BLOCK_ELEMENTS,
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
    SQRT_2PI,
    SUPPORT_RADII,
    Window,
    admissibility_cgpsi,
)

XI_FLOOR = 2.0 ** -6

SignalOrDistribution = Union[SampledSignal, DistributionDescriptor]


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
    family of cells; then center and radius are arrays too, and fn takes t
    whose first axis is the cells'.
    """
    family = getattr(x, "ndim", 0) > 0

    def fn(t):
        xs, ds, om, am = x, d, omega, amp
        if family:
            lead = (-1,) + (1,) * (t.ndim - 1)
            xs, ds, om, am = (v.reshape(lead) for v in (x, d, omega, amp))
        return am * np.conj(g.eval((t - xs) * ds)) * np.exp(1j * (0.5 * p.c1 * t * t - om * t))

    return TestFunction(fn=fn, center=x, radius=g.support_radius / abs(d),
                        form=lambda: _probe_form(p, g, x, d, omega, amp))


def _probe_form(p: FracParam, g: Window, x, d, omega, amp) -> GaussianForm:
    """``_integrand_probe`` as a Gaussian polynomial centred at x, for a
    window g(u) = P(u) e^{-u^2/(2 w^2)} e^{i kappa u}: in u = t - x, with
    s = d^2/w^2, a = (s - i c1)/2, b = i (c1 x - omega - kappa d),
    c = i x (c1 x/2 - omega) and q_k = amp p_k d^k (P is real)."""
    x, d, omega, amp = np.broadcast_arrays(x, d, omega, amp)
    s = (d / g.width) ** 2
    q = cmul(np.asarray(amp)[..., None], np.array(g.poly) * d[..., None] ** np.arange(len(g.poly)))
    return GaussianForm(q=q, a=0.5 * (s - 1j * p.c1),
                        b=1j * (p.c1 * x - omega - g.carrier * d),
                        c=1j * x * (0.5 * p.c1 * x - omega), origin=x)


def _pair_cells(p: FracParam, g: Window, f: SignalOrDistribution, x, d, omega, amp):
    """<f, _integrand_probe(p, g, x, d, omega, amp)> at every cell of the
    broadcast parameter arrays (a complex for scalars), by the one route of
    f's kind: a signal by one ``_correlate`` over the cells' unique x and
    unique (d, omega) columns, times each cell's amp; a descriptor by
    ``pair_cells``."""
    params = np.broadcast_arrays(x, d, omega, amp)
    x, d, omega, amp = (v.ravel() for v in params)
    if not (np.isfinite(x).all() and np.isfinite(d).all()):
        raise ValueError("cells need a finite x and xi")
    if isinstance(f, SampledSignal):
        # a probe band 2|d| SUPPORT_RADII/width wider than the sampling band
        # 2 pi/dt is not resolved by the samples, and the kernel's bins grow with it
        band = 2.0 * float(np.max(np.abs(d), initial=0.0)) * SUPPORT_RADII / g.width
        if band > 2.0 * np.pi / f.dt:
            raise UndersampledChirp(f"window band {band:.4g} of {g.name} exceeds the "
                                    f"sampling band {2.0 * np.pi / f.dt:.4g} of dt={f.dt:.4g}")
        xs, row = np.unique(x, return_inverse=True)
        (ds, oms), col = np.unique(np.stack([d, omega]), axis=1, return_inverse=True)
        vals = _correlate(g, f.t_grid, xs, ds, oms, _chirped(p, f))[row, col] * amp
    else:
        vals = pair_cells(f, lambda cells: _integrand_probe(
            p, g, x[cells], d[cells], omega[cells], amp[cells]), x.size)
    vals = vals.reshape(params[0].shape)
    return complex(vals) if vals.ndim == 0 else vals


def _frst_params(p: FracParam, x, xi, drop_xi_chirp: bool):
    """(x, d, omega, amp) of the FRST probe at the cells (x, xi != 0)."""
    p.require_regular("frst_point")
    if not np.asarray(xi).all():
        raise ValueError("xi must be nonzero")
    amp = abs(xi) * p.c_alpha
    if not drop_xi_chirp:
        amp = cmul(amp, np.exp(1j * 0.5 * p.c1 * xi * xi))
    return x, xi, p.c2 * xi, amp


def frst_point(p: FracParam, g: Window, f: SignalOrDistribution, x, xi, *,
               drop_xi_chirp: bool = False):
    """FRST at every point of the broadcast arrays x and xi (xi != 0), a
    complex for scalars: the pairing of f with the integrand
    t -> |xi| conj(g(xi(t-x))) K_alpha(t, xi), as one family (``_pair_cells``).

    With drop_xi_chirp the constant factor exp(i*c1*xi^2/2) is omitted,
    which evaluates exp(-i*c1*xi^2/2) * S_g^alpha f directly (the gauge the
    asymptotic theorems use) without forming huge cancelling phases.
    """
    return _pair_cells(p, g, f, *_frst_params(p, x, xi, drop_xi_chirp))


def st_point(g: Window, f: SignalOrDistribution, x, xi):
    """Classical Stockwell transform (alpha = pi/2, exact constants), as ``frst_point``."""
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
# g_hat lies within SUPPORT_RADII spectral widths of its carrier.  H on
# those bins is a lattice sum over t, and C at the given x one over x
# (``_LatticeSum``: a chirp-z on an axis uniform to rounding, with the
# first-order terms of that rounding, and the dense sum on any other).


def _kernel_plan(g: Window, t, x, d):
    """(tk, xk, periods) on ascending t and x: the slices of t and x within
    r = g.support_radius/min|d| of the other axis's span (a point beyond
    meets only the window's truncated tails, so its row is zero), and each
    column's period P_j > max|t - x| + g.support_radius/|d_j| over the
    slices, as a power of two.  Empty slices give periods None."""
    if not (t.size and x.size):
        return slice(0), slice(0), None
    r = g.support_radius / np.min(np.abs(d))
    tk = slice(int(np.searchsorted(t, x[0] - r)), int(np.searchsorted(t, x[-1] + r, "right")))
    xk = slice(int(np.searchsorted(x, t[0] - r)), int(np.searchsorted(x, t[-1] + r, "right")))
    t, x = t[tk], x[xk]
    if not (t.size and x.size):
        return tk, xk, None
    reach = max(t[-1] - x[0], x[-1] - t[0]) + g.support_radius / np.abs(d)
    return tk, xk, np.exp2(np.floor(np.log2(reach)) + 1)


def _kernel_meta(g: Window, t, x, d) -> dict:
    """How the spectral kernel computes a grid: its sums over t and x and
    its periods."""
    tk, xk, periods = _kernel_plan(g, t, x, d)
    t_sum, x_sum = ("chirp-z" if _uniform_step(a) else "dense" for a in (t[tk], x[xk]))
    return {"route": "spectral", "t_sum": t_sum, "x_sum": x_sum,
            "periods": [] if periods is None else sorted(set(periods.tolist()))}


def _padded(count: int, nx: int) -> int:
    """The bins of a band of count bins padded to fill its chirp-z's FFT."""
    return (1 << (count + nx - 2).bit_length()) - nx + 1


def _lattices(g: Window, t, x, d, omega, periods):
    """The columns' bin lattices, one per period P: yields (delta, base,
    size, blocks).  A lattice's spectrum holds the bins m = base, ...,
    base + size - 1 that its columns reach, at index m - base; blocks
    yields ``_blocks``' blocks of the lattice's columns."""
    half = np.abs(d) * (SUPPORT_RADII / g.width)
    centre = omega + d * g.carrier
    for period in np.unique(periods).tolist():
        cols = np.flatnonzero(periods == period)
        delta = TWO_PI_LD / np.longdouble(period)
        m0 = np.ceil((centre[cols] - half[cols]) / float(delta)).astype(np.int64)
        count = np.floor((centre[cols] + half[cols]) / float(delta)).astype(np.int64) - m0 + 1
        base = int(m0.min())
        size = int(m0.max()) + _padded(int(count.max()), x.size) - base
        yield delta, base, size, _blocks(g, t, x, d, omega, delta, cols, m0, count)


def _blocks(g: Window, t, x, d, omega, delta, cols, m0, count):
    """Blocks of the columns cols, widest bands first, each band padded
    (``_padded``) to its block's widest: yields (cols, m, coef, phase,
    xsum) with the bins m[c] = m0[c] + 0, 1, ..., the weights
    coef = g_hat((m delta - omega)/d) delta/(sqrt(2 pi) |d|), the phase
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
        coef = g.ft((m * float(delta) - omega[c, None]) / d[c, None])
        coef *= (float(delta) / SQRT_2PI) / np.abs(d[c, None])
        phase = _unit_phase(first * delta * xs - omega[c, None].astype(np.longdouble) * x)
        yield c, m, coef, phase, sums[n]
        lo += sel.size


def _correlate(g: Window, t, x, d, omega, h) -> np.ndarray:
    """C[i, j] = sum_k conj(g(d_j (t_k - x_i))) e^{-i omega_j t_k} h_k.

    Both forward transforms reduce to it (the bridge identity in frwt):
    the FRST takes d = xi, omega = c2 xi; the FRWT takes d = 1/xi,
    omega = 0.  t and x must be ascending.  Evaluated by the spectral
    kernel (above): per lattice, the sum over t of h on the lattice's
    bins, g's closed-form spectrum on the bins of each column's band, and
    the sum over x; both sums are ``_LatticeSum``s, chirp-z on a uniform
    axis.  Only the window's terms beyond SUPPORT_RADII (spectral) widths
    are dropped, as ``_integrand_probe`` truncates the same integral.
    """
    out = np.zeros((x.size, d.size), dtype=complex)
    tk, xk, periods = _kernel_plan(g, t, x, d)
    if periods is None:
        return out
    t, x, h, rows = t[tk], x[xk], h[tk], out[xk]
    ts = t.astype(np.longdouble) - t[0]
    t_step = _uniform_step(t)
    for delta, base, size, blocks in _lattices(g, t, x, d, omega, periods):
        spec = _LatticeSum(delta, size, ts, t_step)(h * _unit_phase(-base * delta * ts),
                                                    adjoint=True)
        for cols, m, coef, phase, xsum in blocks:
            rows[:, cols] = (xsum(spec[m - base] * np.conj(coef)) * phase).T
    return out


def frst_forward(p: FracParam, g: Window, f: SignalOrDistribution,
                 x_axis, xi_axis, *, enforce_sampling: bool = True) -> TFGrid:
    """FRST on a full time-frequency grid.

    Signals go through the spectral kernel ``_correlate`` on the whole
    grid; distribution descriptors through ``frst_point``.  alpha = 0
    yields the zero grid; alpha = pi is rejected.
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
        vals = frst_point(p, g, f, x_axis[:, None], xi_axis[None, :])
    return TFGrid(x_axis, xi_axis, vals, meta)


# ---------------------------------------------------------------------------
# synthesis / reconstruction


def _spread(g: Window, t, x, d, omega, H) -> np.ndarray:
    """Adjoint of _correlate: s(t_k) = sum_j e^{i omega_j t_k} sum_i g(d_j (t_k - x_i)) H[i, j].

    The spectral kernel's exact adjoint: per lattice, the adjoint sum over
    x, times g_hat on each column's bins, folded onto the lattice's bins,
    and the sum over the sorted t.  x must be ascending, t may come in any
    order.
    """
    if x.size < 2 or d.size < 2:
        raise GridTooCoarse("synthesis needs at least 2 points per axis")
    out = np.zeros(t.shape, dtype=complex)
    order = np.argsort(t, kind="stable")
    tk, xk, periods = _kernel_plan(g, t[order], x, d)
    if periods is None:
        return out
    order, x, H = order[tk], x[xk], H[xk]
    t_sorted = t[order]
    ts = t_sorted.astype(np.longdouble) - t_sorted[0]
    t_step = _uniform_step(t_sorted)
    acc = np.zeros(t_sorted.shape, dtype=complex)
    for delta, base, size, blocks in _lattices(g, t_sorted, x, d, omega, periods):
        fold = np.zeros(size, dtype=complex)
        for cols, m, coef, phase, xsum in blocks:
            b = xsum(H[:, cols].T * np.conj(phase), adjoint=True)
            b *= coef
            np.add.at(fold, m - base, b)
        acc += _unit_phase(base * delta * ts) * _LatticeSum(delta, size, ts, t_step)(fold)
    out[order] = acc
    return out


def frst_synthesis(p: FracParam, g: Window, F: TFGrid, t_grid) -> np.ndarray:
    """(S_g^alpha)* F(t) = |sin a| * 2D-quadrature of F g(xi(t-x)) K_{-a}(t, xi).

    Trapezoid in x; trapezoid in log|xi| (per sign branch) with the |xi|
    Jacobian on the frequency axis.
    """
    p.require_regular("frst_synthesis")
    return _frst_synthesis_core(p, g, F.x_axis, F.xi_axis, F.values.copy(),
                                np.asarray(t_grid, dtype=float))


def _frst_synthesis_core(p: FracParam, g: Window, x, xi, H, t) -> np.ndarray:
    """``frst_synthesis`` of the grid values H on the axes x and xi, which
    it weights in place: the caller gives H up, so a round trip holds one
    grid."""
    H *= trapezoid_weights(x)[:, None]
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
    rec = _frst_synthesis_core(p, psi, F.x_axis, F.xi_axis, F.values, f.t_grid) / const
    return _compare("FRST", p.alpha, const, f, rec)


# ---------------------------------------------------------------------------
# serialization (CSV + sidecar JSON meta)


def _float_block(items: list, depth: int):
    """``items`` as one string when it is a regular nested list of finite
    floats (every list of a level the same length, the innermost level all
    floats), else None.  The block is its shape's skeleton at ``depth``, one
    ``%s`` per leaf, filled in one ``%``; the checks are C-level passes."""
    shape = [len(items)]
    leaves = items
    firsts = set()   # a list met twice on the way down is a circular value
    while True:
        types = set(map(type, leaves))
        if all(issubclass(t, float) for t in types):
            break
        lens = set(map(len, leaves)) if types == {list} else ()
        if len(lens) != 1 or 0 in lens or id(leaves[0]) in firsts:
            return None
        firsts.add(id(leaves[0]))
        shape.append(lens.pop())
        leaves = list(chain.from_iterable(leaves))
    if not all(map(math.isfinite, leaves)):
        return None
    template = "%s"
    for d in range(depth + len(shape) - 1, depth - 1, -1):
        n = shape[d - depth]
        pad = "\n" + " " * (d + 1)
        template = "[" + pad + ("," + pad).join(repeat(template, n)) + "\n" + " " * d + "]"
    return template % tuple(map(float.__repr__, leaves))


def _encode(obj, depth: int, out: list) -> None:
    """Append the text of ``json.dumps(obj, sort_keys=True, indent=1)`` at
    nesting ``depth`` to ``out``, types tested in json's order."""
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        out.append(float.__repr__(obj) if math.isfinite(obj) else
                   "NaN" if obj != obj else "Infinity" if obj > 0 else "-Infinity")
    elif isinstance(obj, (list, tuple)):
        block = _float_block(obj, depth) if obj and type(obj) is list else None
        if block is not None or not obj:
            out.append(block or "[]")
            return
        pad = "\n" + " " * (depth + 1)
        sep = "[" + pad
        for v in obj:
            out.append(sep)
            _encode(v, depth + 1, out)
            sep = "," + pad
        out.append("\n" + " " * depth + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        for k in obj:
            if not isinstance(k, str):
                raise TypeError(f"keys must be str, not {type(k).__name__}: {k!r}")
        pad = "\n" + " " * (depth + 1)
        sep = "{" + pad
        for k in sorted(obj):
            out.append(sep + encode_basestring_ascii(k) + ": ")
            _encode(obj[k], depth + 1, out)
            sep = "," + pad
        out.append("\n" + " " * depth + "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def write_json(path, obj) -> None:
    """Write the bytes of ``json.dumps(obj, sort_keys=True, indent=1) + "\\n"``
    for plain JSON data ``obj``.

    The text is built by ``_encode`` and written at once: keys sorted,
    strings through json's ASCII escaper, floats as ``float.__repr__``
    (NaN, Infinity, -Infinity otherwise), ints as ``int.__repr__``.  A
    regular nested list of finite floats (a report's lattices, probes,
    axes) is formatted as one block: its shape's ``[\\n ... %s ... ]``
    skeleton at the current indent, filled by one ``%``.  Only plain JSON
    data is written: a non-str key or a value of any other type raises
    TypeError naming it, and a circular value RecursionError; nothing is
    written then.
    """
    out: list = []
    _encode(obj, 0, out)
    with open(path, "w", newline="\n") as fh:
        fh.write("".join(out) + "\n")


def read_csv_rows(path, header: str) -> np.ndarray:
    """Numeric rows (2-D) of a CSV file whose first line must be ``header``;
    none when only blank or comment lines follow it."""
    with open(path) as fh:
        first = fh.readline().strip()
        if first != header:
            raise MalformedCSV(f"expected header {header!r}, got {first!r}")
        start = fh.tell()
        if not any(line.split("#", 1)[0].strip() for line in iter(fh.readline, "")):
            return np.empty((0, header.count(",") + 1))   # np.loadtxt would warn
        fh.seek(start)
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
        meta["axes"] = {"x": grid.x_axis.tolist(), "xi": grid.xi_axis.tolist()}
        write_json(meta_path, meta)


def grid_from_csv(csv_path, meta_path=None) -> TFGrid:
    """The grid of `x,xi,re,im` rows in ``grid_to_csv``'s order: row-major
    over x then xi, every (x, xi) pair once.  Rows in any other order, or
    with a pair missing or repeated, raise MalformedCSV."""
    data = read_csv_rows(csv_path, "x,xi,re,im")
    if data.size == 0:
        raise MalformedCSV("empty grid file")
    x = np.unique(data[:, 0])
    xi = np.unique(data[:, 1])
    # unequal lengths compare unequal, so this also counts the rows
    if not (np.array_equal(data[:, 0], np.repeat(x, xi.size))
            and np.array_equal(data[:, 1], np.tile(xi, x.size))):
        raise MalformedCSV("rows do not form a complete x/xi product grid")
    vals = (data[:, 2] + 1j * data[:, 3]).reshape(x.size, xi.size)
    meta = {}
    if meta_path is not None:
        with open(meta_path) as fh:
            meta = json.load(fh)
        meta.pop("axes", None)
    return TFGrid(x, xi, vals, meta)
