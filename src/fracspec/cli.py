"""Command-line front end.

Commands
--------
frft           fractional Fourier transform of a signal onto a frequency grid
frst / frwt    time-frequency / time-scale grids (CSV + meta JSON)
invert         forward + synthesis round trip, reconstruction report JSON
bridge         FRST <-> FRWT bridge deviation report
verify         theorem checkers (rez1, teab1, te1, te3, te4, te5)
admissibility  wavelet / reconstruction-pair constants
seminorm       window rho seminorm

Exit codes: 0 success, 1 usage error, 2 numerical error, 3 verification
failed, 4 not-applicable.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace

import numpy as np

from . import asymptotics
from .asymptotics import (
    AsymptoticFixture,
    check_te1_hypotheses,
)
from .distributions import DistributionDescriptor, SlowlyVarying, SV_ONE, tally_pairings
from .errors import FracspecError, MalformedCSV, NonUniformGrid
from .fraccore import SampledSignal, frft, gaussian_signal, make_frac_param
from .frst import (
    frst_forward,
    frst_reconstruct,
    grid_to_csv,
    positive_log_xi_axis,
    read_csv_rows,
    symmetric_log_xi_axis,
    write_csv_rows,
    write_json,
)
from .frwt import frst_frwt_bridge, frwt_forward, frwt_reconstruct
from .windows import admissibility_cg, admissibility_cgpsi, seminorm_rho, window_by_name

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_VERIFY_FAIL = 3
EXIT_NOT_APPLICABLE = 4


def write_signal_csv(path, t: np.ndarray, values: np.ndarray) -> None:
    """A complex signal as `t,re,im` rows."""
    write_csv_rows(path, "t,re,im", t, np.real(values), np.imag(values))


def read_signal_csv(path) -> SampledSignal:
    data = read_csv_rows(path, "t,re,im")
    if data.size == 0 or data.shape[0] < 2:
        raise MalformedCSV("signal file needs at least 2 samples")
    if not np.all(np.isfinite(data)):
        raise MalformedCSV("signal file holds non-finite fields")
    t = data[:, 0]
    dt = np.diff(t)
    if np.any(np.abs(dt - dt[0]) > 1e-9 * max(abs(t[0]), abs(t[-1]), 1.0)):
        raise NonUniformGrid("time column is not uniformly spaced")
    return SampledSignal(t0=float(t[0]), dt=float(dt[0]),
                         samples=data[:, 1] + 1j * data[:, 2])


def ingest_signal(spec: str) -> SampledSignal:
    """Load `t,re,im` CSV, or build a synthetic signal from a JSON spec
    {"gaussian": {"width": w}, "N": n, "T": T}."""
    if spec.lstrip().startswith("{"):
        obj = json.loads(spec)
        gauss = obj.get("gaussian")
        if not isinstance(gauss, dict):
            raise ValueError("synthetic spec supports only the gaussian family")
        width, n, half = float(gauss.get("width", 1.0)), int(obj["N"]), float(obj["T"])
        if n < 2 or not (0 < width < np.inf and 0 < half < np.inf):
            raise ValueError(f"synthetic signal needs N >= 2 and finite width, T > 0; "
                             f"got N={n}, width={width}, T={half}")
        return gaussian_signal(width, n, half)
    return read_signal_csv(spec)


def _parse_axis(spec: str):
    lo, hi, n = spec.split(":")
    lo, hi, n = float(lo), float(hi), int(n)
    if n < 2 or not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError(f"axis {spec!r} needs finite bounds and at least 2 points")
    return lo, hi, n


def _linear_axis(spec: str) -> np.ndarray:
    return np.linspace(*_parse_axis(spec))


def _xi_axis(transform: str, spec):
    """Log-spaced xi axis: both signs for frst, positive scales for frwt."""
    make = symmetric_log_xi_axis if transform == "frst" else positive_log_xi_axis
    return make(*_parse_axis(spec)) if spec else make()


def _tolerance(text: str) -> float:
    """A gate's tolerance: not negative and not NaN; inf turns the gate off."""
    if not float(text) >= 0:
        raise argparse.ArgumentTypeError(f"tolerance must be >= 0 or inf, got {text!r}")
    return float(text)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on its own usage errors; this CLI reserves 2 for
    numerical errors, so they exit EXIT_USAGE.  Subparsers share the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="fracspec", description="fractional time-frequency toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, needs_window=True):
        sp.add_argument("--alpha", type=float, required=True)
        if needs_window:
            sp.add_argument("--window", required=True)
        sp.add_argument("--input", required=True,
                        help="signal CSV path or synthetic JSON spec")
        sp.add_argument("--output", default="out", help="output path prefix")

    sp = sub.add_parser("frft", help="fractional Fourier transform")
    common(sp, needs_window=False)
    sp.add_argument("--xi", default="-6:6:481", help="xi grid as lo:hi:n (linear)")

    for name in ("frst", "frwt"):
        sp = sub.add_parser(name, help=f"{name} grid")
        common(sp)
        sp.add_argument("--x", default="-8:8:128", help="time-shift axis lo:hi:n")
        sp.add_argument("--xi", default=None,
                        help="|xi| range lo:hi:n (log spaced; both signs for frst)")

    sp = sub.add_parser("invert", help="reconstruction round trip")
    common(sp)
    sp.add_argument("--transform", choices=("frst", "frwt"), required=True)
    sp.add_argument("--psi", default=None, help="synthesis window (frst)")
    sp.add_argument("--x", default="-8:8:128")
    sp.add_argument("--xi", default=None)
    sp.add_argument("--tolerance", type=_tolerance, default=None,
                    help="optional rel-L2 gate; exit 3 when exceeded")

    sp = sub.add_parser("bridge", help="FRST<->FRWT bridge check")
    common(sp)
    sp.add_argument("--points", default="-2:2:8x0.5:4:8",
                    help="probe lattice xlo:xhi:nx X xilo:xihi:nxi")
    sp.add_argument("--tolerance", type=_tolerance, default=1e-6)

    sp = sub.add_parser("verify", help="theorem checker")
    sp.add_argument("theorem", choices=("rez1", "teab1", "te1", "te3", "te4", "te5"))
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--window", required=True)
    sp.add_argument("--dist", required=True, help="descriptor JSON")
    sp.add_argument("--degree", type=float, default=None,
                    help="quasiasymptotic degree m (default: inferred)")
    sp.add_argument("--sv", default="one", choices=("one", "logpow", "iterlog"))
    sp.add_argument("--slope-tol", type=_tolerance, default=asymptotics.SLOPE_TOL)
    sp.add_argument("--ratio-tol", type=_tolerance, default=asymptotics.RATIO_TOL)
    sp.add_argument("--r", type=int, default=2, help="te1 bound power r")
    sp.add_argument("--s", type=float, default=2.0, help="te1 bound exponent s")
    sp.add_argument("--output", default="out")

    sp = sub.add_parser("admissibility", help="admissibility constants")
    sp.add_argument("--window", required=True)
    sp.add_argument("--psi", default=None)
    sp.add_argument("--c2", type=float, default=None,
                    help="c2 for the pair constant (with --psi)")
    sp.add_argument("--output", default="out")

    sp = sub.add_parser("seminorm", help="window rho seminorm")
    sp.add_argument("--window", required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--output", default="out")
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built on first use and shared by every ``run``.
    Parsing leaves a parser unchanged: no argument has a mutable default
    or an append action."""
    return build_parser()


def _infer_degree(desc: DistributionDescriptor) -> float:
    """Of the two kinds ``from_json`` builds: a delta comb or a homogeneous density."""
    if desc.kind == "delta":
        return -1.0 - max(t.order for t in desc.terms)
    return desc.degree


def run(argv=None) -> int:
    args = _parser().parse_args(argv)
    cmd = args.command

    if cmd == "frft":
        p = make_frac_param(args.alpha)
        sig = ingest_signal(args.input)
        xi = _linear_axis(args.xi)
        vals = frft(p, sig, xi)
        write_signal_csv(f"{args.output}.csv", xi, vals)
        print(f"frft alpha={p.alpha:.6g} -> {args.output}.csv ({xi.size} points)")
        return EXIT_OK

    if cmd in ("frst", "frwt", "invert", "bridge"):
        p = make_frac_param(args.alpha)
        g = window_by_name(args.window)
        sig = ingest_signal(args.input)

    if cmd in ("frst", "frwt"):
        x = _linear_axis(args.x)
        xi = _xi_axis(cmd, args.xi)
        if cmd == "frst":
            if p.kind.value == "parity":
                print("alpha at singular angle: pi does not define a FRST",
                      file=sys.stderr)
                return EXIT_USAGE
            grid = frst_forward(p, g, sig, x, xi)
        else:
            grid = frwt_forward(p, g, sig, x, xi)
        grid_to_csv(grid, f"{args.output}.csv", f"{args.output}.meta.json")
        print(f"{cmd} alpha={p.alpha:.6g} window={g.name} -> "
              f"{args.output}.csv [{x.size}x{xi.size}]")
        return EXIT_OK

    if cmd == "invert":
        x = _linear_axis(args.x)
        xi = _xi_axis(args.transform, args.xi)
        if args.transform == "frst":
            psi = window_by_name(args.psi) if args.psi else g
            rep = frst_reconstruct(p, g, psi, sig, x, xi)
        else:
            rep = frwt_reconstruct(p, g, sig, x, xi)
        write_json(f"{args.output}.report.json", rep.to_json_dict())
        print(f"invert {args.transform} rel_l2={rep.rel_l2:.3e} "
              f"max_abs={rep.max_abs_err:.3e} -> {args.output}.report.json")
        if args.tolerance is not None and rep.rel_l2 > args.tolerance:
            return EXIT_VERIFY_FAIL
        return EXIT_OK

    if cmd == "bridge":
        xpart, xipart = args.points.split("x")
        pts = [(a, b) for a in _linear_axis(xpart) for b in _linear_axis(xipart)]
        rep = frst_frwt_bridge(p, g, sig, pts)
        write_json(f"{args.output}.report.json", {
            "max_rel_deviation": rep.max_rel_deviation,
            "points": [list(pt) for pt in rep.points],
            "rel_deviation": list(rep.rel_deviation),
        })
        print(f"bridge max rel deviation {rep.max_rel_deviation:.3e} "
              f"over {len(pts)} points")
        return EXIT_VERIFY_FAIL if rep.max_rel_deviation > args.tolerance else EXIT_OK

    if cmd == "verify":
        p = make_frac_param(args.alpha)
        g = window_by_name(args.window)
        desc = DistributionDescriptor.from_json(json.loads(args.dist))
        m = args.degree if args.degree is not None else _infer_degree(desc)
        if not np.isfinite(m):
            raise ValueError(f"--degree must be finite, got {m}")
        L = SV_ONE if args.sv == "one" else SlowlyVarying(args.sv, 1.0)
        if args.theorem == "te1":
            rep = check_te1_hypotheses(p, g, desc, m=m, L=L, r=args.r, s=args.s)
            write_json(f"{args.output}.report.json", rep.to_json_dict())
            print(f"te1 hypotheses: {rep.verdict} "
                  f"(converged {rep.converged_cells}/{rep.total_cells}, "
                  f"D={rep.bound_constant:.4g})")
            return EXIT_OK if rep.verdict == "pass" else EXIT_VERIFY_FAIL
        # the limit of |x|^m ln(1/|x|) is |x|^m: f(eps x) = eps^m |ln eps| |x|^m + O(eps^m)
        fixture = AsymptoticFixture(f=desc, m=m, L=L, u=replace(desc, log_power=0), label="cli")
        checker = asymptotics.CHECKERS[args.theorem]
        rep = checker(p, g, fixture, slope_tol=args.slope_tol,
                      ratio_tol=args.ratio_tol)
        write_json(f"{args.output}.report.json", rep.to_json_dict())
        fitted = rep.fitted_exponent[np.isfinite(rep.fitted_exponent)]
        shown = f"{np.mean(fitted):+.4f}" if fitted.size else "n/a"
        print(f"{args.theorem}: {rep.verdict} "
              f"(exponent {shown} expected {rep.exponent_expected:+.4f}, "
              f"ratio dev {rep.max_ratio_deviation:.3e})")
        if rep.verdict == "pass":
            return EXIT_OK
        return EXIT_NOT_APPLICABLE if rep.verdict == "not-applicable" else EXIT_VERIFY_FAIL

    if cmd == "admissibility":
        g = window_by_name(args.window)
        out = {}
        if args.psi is not None:
            if args.c2 is None:
                print("--c2 required with --psi", file=sys.stderr)
                return EXIT_USAGE
            psi = window_by_name(args.psi)
            with tally_pairings() as tally:
                adm = admissibility_cgpsi(g, psi, args.c2)
            out["c_gpsi"] = [adm.value.real, adm.value.imag]
            print(f"C_gpsi = {adm.value:.10g} (err {adm.quadrature_error_estimate:.2e})")
        else:
            with tally_pairings() as tally:
                adm = admissibility_cg(g)
            out["c_g"] = adm.value
            out["c_g_half_line"] = adm.half_line
            print(f"C_g = {adm.value:.10g} (half-line {adm.half_line:.10g}, "
                  f"err {adm.quadrature_error_estimate:.2e})")
        out["quadrature_error_estimate"] = adm.quadrature_error_estimate
        out.update(tally.as_dict())
        write_json(f"{args.output}.report.json", out)
        return EXIT_OK

    if cmd == "seminorm":
        g = window_by_name(args.window)
        est = seminorm_rho(g, args.k, args.p)
        write_json(f"{args.output}.report.json", {
            "indices": list(est.indices), "value": est.value,
            "grid_spec": est.grid_spec})
        print(f"rho_({args.k},{args.p})[{g.name}] = {est.value:.12g}")
        return EXIT_OK

    raise AssertionError(f"unhandled command {cmd}")


def main(argv=None) -> None:
    try:
        code = run(argv)
    except FracspecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_NUMERICAL
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        code = EXIT_USAGE
    sys.exit(code)


if __name__ == "__main__":
    main()
