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
different dilations and modulations.  Single points of either transform
pair f with ``_integrand_probe``, the same kernel at one cell.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .distributions import SignalOrDistribution, TestFunction, pair
from .errors import GridTooCoarse, MalformedCSV, SingularAngle
from .fraccore import (
    AngleKind,
    FracParam,
    CLASSICAL_FT_PARAM,
    SampledSignal,
    check_sampling,
    rel_l2,
    trapezoid_weights,
)
from .windows import Window, admissibility_cgpsi

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
        if np.any(np.diff(x) <= 0) or np.any(np.diff(xi) <= 0):
            raise ValueError("grid axes must be strictly increasing")
        if np.any(np.abs(xi) < XI_FLOOR):
            raise ValueError(f"|xi| entries below the floor {XI_FLOOR}")
        if vals.shape != (x.size, xi.size):
            raise ValueError("values shape does not match the axes")
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid contains non-finite values")


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


def _integrand_probe(p: FracParam, g: Window, x: float, d: float, omega: float,
                     amp: complex) -> TestFunction:
    """t -> amp conj(g((t - x) d)) e^{i (c1 t^2/2 - omega t)} as a probe.

    The point form of ``_correlate``: the FRST takes d = xi, omega = c2 xi,
    the FRWT d = 1/xi, omega = 0; amp carries each transform's constant.
    """
    def fn(t):
        # conj(g(conj u)) is analytic in t and equals conj(g(u)) for real t
        return amp * np.conj(g.eval(np.conj(t - x) * d)) * np.exp(1j * (0.5 * p.c1 * t * t - omega * t))

    radius = g.support_radius / abs(d)
    osc = 1.0 + abs(omega) + abs(p.c1) * (abs(x) + radius)
    return TestFunction(fn=fn, center=x, radius=radius,
                        scale=min(g.length_scale / abs(d), 1.0 / osc))


def frst_point(p: FracParam, g: Window, f: SignalOrDistribution,
               x: float, xi: float, *, drop_xi_chirp: bool = False) -> complex:
    """Single-point FRST: the pairing of f with the integrand
    t -> |xi| conj(g(xi(t-x))) K_alpha(t, xi).

    With drop_xi_chirp the constant factor exp(i*c1*xi^2/2) is omitted,
    which evaluates exp(-i*c1*xi^2/2) * S_g^alpha f directly (the gauge the
    asymptotic theorems use) without forming huge cancelling phases.
    """
    p.require_regular("frst_point")
    if xi == 0:
        raise ValueError("xi must be nonzero")
    amp = abs(xi) * p.c_alpha
    if not drop_xi_chirp:
        amp *= np.exp(1j * 0.5 * p.c1 * xi * xi)
    return pair(f, _integrand_probe(p, g, x, xi, p.c2 * xi, amp))


def st_point(g: Window, f: SignalOrDistribution, x: float, xi: float) -> complex:
    """Classical Stockwell transform point (alpha = pi/2, exact constants)."""
    return frst_point(CLASSICAL_FT_PARAM, g, f, x, xi)


def _chirped(p: FracParam, f: SampledSignal) -> np.ndarray:
    """Trapezoid-weighted samples times the time chirp e^{i c1 t^2/2}."""
    t = f.t_grid
    return f.samples * f.trapezoid_weights() * np.exp(1j * 0.5 * p.c1 * t * t)


def _correlate(g: Window, t, x, d, omega, h) -> np.ndarray:
    """C[i, j] = sum_k conj(g(d_j (t_k - x_i))) e^{-i omega_j t_k} h_k.

    Both forward transforms reduce to it (the bridge identity in frwt):
    the FRST takes d = xi, omega = c2 xi; the FRWT takes d = 1/xi,
    omega = 0.  Each column is evaluated as conj(gm @ conj(v)), which
    conjugates two vectors instead of copying the window matrix gm.
    """
    out = np.empty((x.size, d.size), dtype=complex)
    hc = np.conj(h)
    for j in range(d.size):
        gm = g.eval((t - x[:, None]) * d[j])
        out[:, j] = np.conj(gm @ (hc * np.exp(1j * omega[j] * t)))
    return out


def _cells(point, x_axis, xi_axis) -> np.ndarray:
    """Grid of point(x, xi) values, one call per cell."""
    return np.array([[point(float(x), float(xi)) for xi in xi_axis] for x in x_axis],
                    dtype=complex).reshape(x_axis.size, xi_axis.size)


def frst_forward(p: FracParam, g: Window, f: SignalOrDistribution,
                 x_axis, xi_axis, *, enforce_sampling: bool = True) -> TFGrid:
    """FRST on a full time-frequency grid.

    Signals go through the trapezoid correlation on their own grid;
    distribution descriptors through per-cell pairings.  alpha = 0 yields
    the zero grid; alpha = pi is rejected.
    """
    x_axis = np.asarray(x_axis, dtype=float)
    xi_axis = np.asarray(xi_axis, dtype=float)
    meta = {"transform": "FRST", "alpha": p.alpha, "window": g.name}
    if p.kind is AngleKind.IDENTITY:
        vals = np.zeros((x_axis.size, xi_axis.size), dtype=complex)
        return TFGrid(x_axis, xi_axis, vals, meta)
    if p.kind is AngleKind.PARITY:
        raise SingularAngle("alpha = pi does not define a fractional Stockwell transform")

    if isinstance(f, SampledSignal):
        if enforce_sampling:
            check_sampling(p, f, abs(p.c2) * float(np.max(np.abs(xi_axis))))
        vals = _correlate(g, f.t_grid, x_axis, xi_axis, p.c2 * xi_axis, _chirped(p, f))
        vals *= np.abs(xi_axis) * p.c_alpha * np.exp(1j * 0.5 * p.c1 * xi_axis * xi_axis)
    else:
        vals = _cells(lambda x, xi: frst_point(p, g, f, x, xi), x_axis, xi_axis)
    return TFGrid(x_axis, xi_axis, vals, meta)


# ---------------------------------------------------------------------------
# synthesis / reconstruction


def _spread(g: Window, t, x, d, omega, H) -> np.ndarray:
    """Adjoint of _correlate: s(t_k) = sum_j e^{i omega_j t_k} sum_i g(d_j (t_k - x_i)) H[i, j]."""
    if x.size < 2 or d.size < 2:
        raise GridTooCoarse("synthesis needs at least 2 points per axis")
    out = np.zeros(t.shape, dtype=complex)
    for j in range(d.size):
        gm = g.eval((t[:, None] - x) * d[j])
        out += np.exp(1j * omega[j] * t) * (gm @ H[:, j])
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
