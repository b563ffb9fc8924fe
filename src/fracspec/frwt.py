"""Fractional wavelet transform and the Stockwell bridge.

Forward transform at time shift x and scale xi > 0::

    W_g^alpha f(x, xi) = xi^{-1/2} * integral f(t) conj(g((t-x)/xi)) e^{i c1 (t^2-x^2)/2} dt

Synthesis is the raw adjoint-type quadrature over positive scales

    synthesis[F](t) = 2D-integral F(x, xi) xi^{-1/2} g((t-x)/xi) e^{-i c1 (t^2-x^2)/2} dx dxi/xi^2

(the scale kernel carries the same xi^{-1/2} normalization as the forward
transform; without it the composition is not a constant multiple of the
identity).  Composing synthesis with the forward transform gives
2*pi*Cg_plus * f, where Cg_plus is the positive-frequency half of the
wavelet admissibility integral - for real windows exactly half of C_g.
Reconstruction divides by that constant.

The bridge identity connects the two transform families pointwise for
xi > 0::

    e^{-i c1 xi^2/2} S_g^alpha f(x, xi)
        = sqrt(xi) C_alpha e^{i c1 x^2/2 - i c2 x xi} W_{M_{c2} g}^alpha f(x, 1/xi)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import SignalOrDistribution, pair
from .errors import ZeroAdmissibility
from .fraccore import (
    CLASSICAL_FT_PARAM,
    FracParam,
    SampledSignal,
    _frft_sum,
    check_sampling,
    frft,
    rel_l2,
    trapezoid_weights,
)
from .frst import (
    ReconstructionReport,
    TFGrid,
    _chirped,
    _compare,
    _correlate,
    _integrand_probe,
    _kernel_meta,
    _pair_cells,
    _spread,
    check_axes,
    frst_cells,
    frst_point,  # not called here; perfbench's tracer looks it up in this module
    log_branch_weights,
)
from .windows import ADMISSIBILITY_MIN, Window, admissibility_cg, modulate, require_wavelet


def _frwt_params(p: FracParam, x, xi):
    """(x, d, omega, amp) of the FRWT probe at the cells (x, xi > 0)."""
    p.require_regular("frwt_point")
    if (np.asarray(xi) <= 0).any():
        raise ValueError("FRWT scale must be positive")
    # float_power is libm's pow for scalars and arrays alike; numpy's vector
    # power loop differs from it in the last bit
    amp = np.float_power(xi, -0.5) * np.exp(-1j * 0.5 * p.c1 * x * x)
    return x, 1.0 / xi, 0.0, amp


def frwt_point(p: FracParam, g: Window, f: SignalOrDistribution,
               x: float, xi: float) -> complex:
    """Single-point FRWT (xi > 0): the pairing of f with the integrand
    t -> xi^{-1/2} conj(g((t-x)/xi)) e^{i c1 (t^2-x^2)/2}."""
    return pair(f, _integrand_probe(p, g, *_frwt_params(p, x, xi)))


def frwt_cells(p: FracParam, g: Window, f: SignalOrDistribution, x, xi) -> np.ndarray:
    """``frwt_point`` at every cell of the broadcast arrays x and xi."""
    return _pair_cells(p, g, f, *_frwt_params(p, x, xi))


def wt_point(g: Window, f: SignalOrDistribution, x: float, xi: float) -> complex:
    """Classical wavelet transform point: xi^{-1/2} <f, g((.-x)/xi)> (no chirp)."""
    return frwt_point(CLASSICAL_FT_PARAM, g, f, x, xi)


def _frwt_signal_grid(p: FracParam, g: Window, f: SampledSignal, x_axis, xi_axis,
                      enforce_sampling: bool):
    """FRWT values of a signal, the correlation at d = 1/xi, omega = 0,
    and the record of how the kernel computed them."""
    if enforce_sampling:
        # the window bandwidth and carrier at the finest scale
        check_sampling(p, f, (4.0 / g.width + abs(g.carrier)) / float(xi_axis.min()))
    d = 1.0 / xi_axis
    vals = _correlate(g, f.t_grid, x_axis, d, np.zeros_like(xi_axis), _chirped(p, f))
    vals *= xi_axis ** -0.5
    vals *= np.exp(-1j * 0.5 * p.c1 * x_axis * x_axis)[:, None]
    return vals, _kernel_meta(g, f.t_grid, x_axis, d)


def _scale_axis(xi_axis) -> np.ndarray:
    """xi_axis as floats; a scale that is not positive raises ValueError."""
    xi_axis = np.asarray(xi_axis, dtype=float)
    if np.any(xi_axis <= 0):
        raise ValueError("FRWT scale axis must be positive")
    return xi_axis


def frwt_forward(p: FracParam, g: Window, f: SignalOrDistribution,
                 x_axis, xi_axis, *, enforce_sampling: bool = True) -> TFGrid:
    """FRWT on a time-scale grid (xi_axis strictly positive)."""
    p.require_regular("frwt_forward")
    x_axis = np.asarray(x_axis, dtype=float)
    xi_axis = _scale_axis(xi_axis)
    check_axes(x_axis, xi_axis)
    require_wavelet(g)
    meta = {"transform": "FRWT", "alpha": p.alpha, "window": g.name}
    if isinstance(f, SampledSignal):
        vals, meta["kernel"] = _frwt_signal_grid(p, g, f, x_axis, xi_axis, enforce_sampling)
    else:
        vals = frwt_cells(p, g, f, x_axis[:, None], xi_axis[None, :])
    return TFGrid(x_axis, xi_axis, vals, meta)


@dataclass(frozen=True)
class ViaFrftReport:
    grid: TFGrid
    freq_constant: str
    rel_l2_deviation: float


def frwt_via_frft(p: FracParam, g: Window, f: SampledSignal, x_axis, xi_axis,
                  freq_constant: str = "c1", *,
                  enforce_sampling: bool = True) -> ViaFrftReport:
    """FRWT through the FRFT route and its deviation from the direct form.

    W_g^alpha f(x, xi) = sqrt(2 pi xi) * integral F_alpha f(u) G(u, xi) K_{-alpha}(u, x) du

    freq_constant picks the spectral factor G:

    * "c1": g_hat(c1 * u * xi), the route exactly as printed;
    * "c2": conj(g_hat)(c2 * u * xi), the variant that degenerates to the
      classical WT-via-FT identity at alpha = pi/2.

    The report records the relative L2 deviation against the direct
    correlation on the same grid (frwt_forward's values, without its
    wavelet gate), so a misprinted constant is observable rather than
    silently corrected.
    """
    p.require_regular("frwt_via_frft")
    if freq_constant not in ("c1", "c2"):
        raise ValueError("freq_constant must be 'c1' or 'c2'")
    x_axis = np.asarray(x_axis, dtype=float)
    xi_axis = _scale_axis(xi_axis)

    u = f.t_grid
    Fa = frft(p, f, u, enforce_sampling=enforce_sampling)
    wu = f.trapezoid_weights()
    if freq_constant == "c1":
        spec = g.ft(p.c1 * u[:, None] * xi_axis)
    else:
        spec = np.conj(g.ft(p.c2 * u[:, None] * xi_axis))
    core = Fa[:, None] * spec * wu[:, None]
    # the FRFT at -alpha of each xi column, at x: C_{-alpha} = conj(C_alpha)
    inv = _frft_sum(-p.c1, -p.c2, f.t0, f.dt, core.T, x_axis)
    vals = np.sqrt(2.0 * np.pi * xi_axis) * (np.conj(p.c_alpha) * inv.T)

    grid = TFGrid(x_axis, xi_axis, vals,
                  {"transform": "FRWT", "alpha": p.alpha, "window": g.name,
                   "route": f"frft-{freq_constant}"})
    direct, _ = _frwt_signal_grid(p, g, f, x_axis, xi_axis, enforce_sampling)
    return ViaFrftReport(grid=grid, freq_constant=freq_constant,
                         rel_l2_deviation=rel_l2(grid.values, direct))


# ---------------------------------------------------------------------------
# synthesis / inversion


def frwt_synthesis(p: FracParam, g: Window, F: TFGrid, t_grid) -> np.ndarray:
    """Raw wavelet synthesis over positive scales (see module docstring).

    Measure dx * dxi/xi^2 realized as trapezoid in x and trapezoid in
    log(xi) with Jacobian xi, i.e. total scale weight w_log(xi)/xi.
    """
    p.require_regular("frwt_synthesis")
    t = np.asarray(t_grid, dtype=float)
    x = F.x_axis
    xi = F.xi_axis
    if np.any(xi <= 0):
        raise ValueError("FRWT synthesis needs a positive scale axis")
    H = F.values * (trapezoid_weights(x) * np.exp(1j * 0.5 * p.c1 * x * x))[:, None]
    H *= xi ** -0.5 * log_branch_weights(xi) / (xi * xi)
    out = _spread(g, t, x, 1.0 / xi, np.zeros_like(xi), H)
    return out * np.exp(-1j * 0.5 * p.c1 * t * t)


def frwt_reconstruct(p: FracParam, g: Window, f: SampledSignal, x_axis, xi_axis,
                     *, enforce_sampling: bool = True) -> ReconstructionReport:
    """f_tilde = synthesis(forward(f)) / (2 pi Cg_plus) against f on its grid.

    Cg_plus is the positive-half admissibility integral; over a positive
    scale axis the composition reproduces 2*pi*Cg_plus*f (equal to
    pi*C_g*f for real windows).  A 2*pi*Cg_plus below ADMISSIBILITY_MIN (a
    spectrum below w = 0) raises ZeroAdmissibility.
    """
    p.require_regular("frwt_reconstruct")
    adm = admissibility_cg(g)
    const = 2.0 * np.pi * adm.half_line
    if const < ADMISSIBILITY_MIN:
        raise ZeroAdmissibility(f"2 pi C_g[{g.name}] on omega > 0 = {const:.3e}; "
                                "reconstruction over positive scales impossible")
    F = frwt_forward(p, g, f, x_axis, xi_axis, enforce_sampling=enforce_sampling)
    rec = frwt_synthesis(p, g, F, f.t_grid) / const
    return _compare("FRWT", p.alpha, const, f, rec)


# ---------------------------------------------------------------------------
# FRST <-> FRWT bridge


@dataclass(frozen=True)
class BridgeReport:
    points: tuple
    lhs: tuple
    rhs: tuple
    rel_deviation: tuple
    max_rel_deviation: float


def frst_frwt_bridge(p: FracParam, g: Window, f: SignalOrDistribution,
                     points) -> BridgeReport:
    """Evaluate both sides of the bridge identity at (x, xi > 0) probes.

    LHS through the FRST path, RHS through the FRWT path with the modulated
    window M_{c2} g; the per-point relative deviation cross-validates the
    two quadrature routes.
    """
    p.require_regular("frst_frwt_bridge")
    gm = modulate(g, p.c2)
    xs, xis = np.array(points, dtype=float).reshape(-1, 2).T
    if np.any(xis <= 0):
        raise ValueError("bridge probes need xi > 0")
    lhs_vals = frst_cells(p, g, f, xs, xis, drop_xi_chirp=True)
    w_vals = frwt_cells(p, gm, f, xs, 1.0 / xis)
    # right-hand sides and deviations in scalar arithmetic, point by point
    rhs_vals, devs = [], []
    for x, xi, lhs, w in zip(xs.tolist(), xis.tolist(), lhs_vals, w_vals):
        rhs = np.sqrt(xi) * p.c_alpha * np.exp(
            1j * (0.5 * p.c1 * x * x - p.c2 * x * xi)) * w
        rhs_vals.append(rhs)
        scale = max(abs(lhs), abs(rhs), 1e-300)
        devs.append(abs(lhs - rhs) / scale)
    return BridgeReport(points=tuple((float(a), float(b)) for a, b in points),
                        lhs=tuple(lhs_vals), rhs=tuple(rhs_vals),
                        rel_deviation=tuple(float(d) for d in devs),
                        max_rel_deviation=float(max(devs)))
