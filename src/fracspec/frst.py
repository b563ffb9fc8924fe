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
different dilations and modulations.  Both evaluate each window only within
its support radius of the cell (in blocks, ``_bands``) and keep the
window's carrier out of the window matrix.  Distribution descriptors pair f
with ``_integrand_probe``, the same kernel at given cells: single points
through ``pair``, grids and lattices of cells through ``pair_cells``, which
pairs a delta comb at all cells in one evaluation.  Every such probe
carries the Gaussian form that its window's form gives it
(``_probe_form``), so homogeneous distributions pair in closed form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .distributions import GaussianForm, SignalOrDistribution, TestFunction, pair, pair_cells
from .errors import GridTooCoarse, MalformedCSV, SingularAngle
from .fraccore import (
    AngleKind,
    FracParam,
    CLASSICAL_FT_PARAM,
    SampledSignal,
    check_sampling,
    cmul,
    rel_l2,
    trapezoid_weights,
)
from .windows import KERNEL_BLOCK_ELEMENTS, Window, admissibility_cgpsi

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
    """Both axes strictly increasing, and |xi| at least XI_FLOOR."""
    if np.any(np.diff(x_axis) <= 0) or np.any(np.diff(xi_axis) <= 0):
        raise ValueError("grid axes must be strictly increasing")
    if np.any(np.abs(xi_axis) < XI_FLOOR):
        raise ValueError(f"|xi| entries below the floor {XI_FLOOR}")


def positive_log_xi_axis(xi_min: float = 2.0 ** -4, xi_max: float = 2.0 ** 4,
                         n: int = 96) -> np.ndarray:
    """Geometric scale grid on the positive axis (FRWT)."""
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


# Band blocks of the signal kernels: a block spans at most two band radii of
# the blocked axis, or KERNEL_MIN_BLOCK points if that is more, and its window
# matrix holds at most KERNEL_BLOCK_ELEMENTS values.
KERNEL_MIN_BLOCK = 32


def _bands(a: np.ndarray, b: np.ndarray, r: float):
    """Blocks of the ascending axis a, each with the slice of the ascending
    axis b within r of it; blocks with an empty band are skipped."""
    b_lo = np.searchsorted(b, a - r)
    b_hi = np.searchsorted(b, a + r, side="right")
    a_end = np.searchsorted(a, a + 2.0 * r, side="right").tolist()
    rows = np.arange(1, a.size + 1)
    lo = 0
    while lo < a.size:
        hi = min(max(a_end[lo], lo + KERNEL_MIN_BLOCK), a.size)
        # window matrix sizes of the blocks [lo, lo + 1), [lo, lo + 2), ...
        sizes = rows[:hi - lo] * (b_hi[lo:hi] - b_lo[lo])
        hi = lo + max(int(sizes.searchsorted(KERNEL_BLOCK_ELEMENTS, side="right")), 1)
        if b_hi[hi - 1] > b_lo[lo]:
            yield slice(lo, hi), slice(int(b_lo[lo]), int(b_hi[hi - 1]))
        lo = hi


def _matvec(gm: np.ndarray, v: np.ndarray) -> np.ndarray:
    """gm @ v for a contiguous complex vector v.  A real gm multiplies the
    real and imaginary parts of v as two real columns; gm @ v would cast
    gm to complex first (2.2 against 0.5 ns per element of a 32 x 512
    block on a 2-vCPU Xeon)."""
    if np.iscomplexobj(gm):
        return gm @ v
    return (gm @ v.view(float).reshape(-1, 2)).view(complex).ravel()


def _carrier_free(g: Window):
    """The evaluator of b with g(u) = e^{i g.carrier u} b(u): g's own when it
    has no carrier, so a wrapped ``g.eval`` still sees the kernels' calls."""
    return g.eval if not g.carrier else Window(g.name, g.poly, g.width).eval


def _correlate(g: Window, t, x, d, omega, h) -> np.ndarray:
    """C[i, j] = sum_k conj(g(d_j (t_k - x_i))) e^{-i omega_j t_k} h_k.

    Both forward transforms reduce to it (the bridge identity in frwt):
    the FRST takes d = xi, omega = c2 xi; the FRWT takes d = 1/xi,
    omega = 0.  t and x must be ascending.  Column j sums only over t
    within g.support_radius/|d_j| of each x_i, the radius at which
    ``_integrand_probe`` truncates the same integral.  The carrier
    a = g.carrier stays out of the window matrix: with g = e^{i a u} b(u),
    conj(g(d (t - x))) = e^{-i a d t} e^{i a d x} conj(b(d (t - x))), so
    a d joins omega_j and e^{i a d_j x_i} multiplies the row.
    """
    a, b = g.carrier, _carrier_free(g)
    out = np.zeros((x.size, d.size), dtype=complex)
    for j in range(d.size):
        col = out[:, j]
        v = h * np.exp(-1j * (omega[j] + a * d[j]) * t)
        for rows, band in _bands(x, t, g.support_radius / abs(d[j])):
            gm = b((t[band] - x[rows, None]) * d[j])
            col[rows] = _matvec(np.conj(gm) if np.iscomplexobj(gm) else gm, v[band])
        col *= np.exp(1j * a * d[j] * x)
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
    else:
        vals = frst_cells(p, g, f, x_axis[:, None], xi_axis[None, :])
    return TFGrid(x_axis, xi_axis, vals, meta)


# ---------------------------------------------------------------------------
# synthesis / reconstruction


def _spread(g: Window, t, x, d, omega, H) -> np.ndarray:
    """Adjoint of _correlate: s(t_k) = sum_j e^{i omega_j t_k} sum_i g(d_j (t_k - x_i)) H[i, j].

    Banded, and with the carrier moved out, as in ``_correlate``; x must be
    ascending, t may come in any order.
    """
    if x.size < 2 or d.size < 2:
        raise GridTooCoarse("synthesis needs at least 2 points per axis")
    a, b = g.carrier, _carrier_free(g)
    order = np.argsort(t, kind="stable")
    ts = t[order]
    acc = np.zeros(t.shape, dtype=complex)
    col = np.empty(t.shape, dtype=complex)
    for j in range(d.size):
        hj = H[:, j] * np.exp(-1j * a * d[j] * x)
        col[:] = 0.0
        for rows, band in _bands(ts, x, g.support_radius / abs(d[j])):
            col[rows] = _matvec(b((ts[rows, None] - x[band]) * d[j]), hj[band])
        acc += np.exp(1j * (omega[j] + a * d[j]) * ts) * col
    out = np.empty(t.shape, dtype=complex)
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


def write_csv_rows(path, header: str, *columns) -> None:
    """Write ``header``, then row k of the columns as comma-separated
    17-significant-digit numbers (exact round trip)."""
    # 1024-row blocks as lists: iterating numpy arrays yields slow numpy
    # scalars, and a whole grid of Python floats raised the peak RSS by 2 MB
    columns = [np.asarray(c, dtype=float) for c in columns]
    row = ",".join(["{:.17g}"] * len(columns)) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for lo in range(0, columns[0].size, 1024):
            fh.writelines(map(row.format, *(c[lo:lo + 1024].tolist() for c in columns)))


def grid_to_csv(grid: TFGrid, csv_path, meta_path=None) -> None:
    """Write `x,xi,re,im` rows (row-major over x then xi) and a meta record."""
    nx, nxi = grid.values.shape
    write_csv_rows(csv_path, "x,xi,re,im", np.repeat(grid.x_axis, nxi),
                   np.tile(grid.xi_axis, nx), grid.values.real.ravel(),
                   grid.values.imag.ravel())
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
