"""Seeded job lists for the three workloads.

A workload is one fixed *pass*: a list of jobs whose kinds, sizes and
order are the same for every seed, so that seeds vary the inputs but not
the amount of work.  The seed draws angles, degrees, widths, modulations,
chirp rates and delta weights/locations from ranges on which every oracle
holds at the baseline commit (except the one known defect, see
`Job.known_defect`).  A run repeats its pass until its time is used.

Each job calls fracspec in-process: `cli.run([...])` where the CLI can
express the input, otherwise the public function.  Module attributes are
looked up at call time, so the tracer's wrappers apply.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import oracles

# Tolerance of every theorem checker's fitted exponent (the CLI default).
SLOPE_TOL = 0.05

# Exponent shift of each scaling law over the quasiasymptotic degree m.
EXPONENT_SHIFT = {"rez1": 0.0, "teab1": 2.0, "te3": 0.5, "te4": 1.5, "te5": 0.0}

# Oracle tolerances.  Sampled signals: both sides are trapezoid sums of
# the same samples, so they agree to roundoff; 1e-8 leaves room for a
# reordered or chirp-z evaluation.  Deltas pair exactly.
SIGNAL_TOL = 1e-8
DELTA_TOL = 1e-10
BRIDGE_TOL_SIGNAL = 1e-6
BRIDGE_TOL_DELTA = 1e-12
# rel-L2 the baseline tests demand of these round trips (test_frst
# round_trip_admissible_pair: 1e-3; test_frwt inversion_constant: 2e-2).
FRST_ROUND_TRIP_TOL = 1e-3
FRWT_ROUND_TRIP_TOL = 2e-2

SIGNAL_ALPHAS = (0.9, 1.0, np.pi / 3, 1.2, 1.35)
POWER_ALPHAS = (0.95, 1.0, 1.05, 1.1)
DELTA_ALPHAS = (0.9, 1.0, np.pi / 3, 1.2, 1.35)


@dataclass
class Job:
    key: str                  # unique within the pass
    kind: str                 # frft | frst | frwt | bridge | invert | verify
    spec: dict                # JSON description, hashed into the job-list digest
    run: Callable[[], object] = field(repr=False)
    check: Callable[[object], tuple] = field(repr=False)   # -> (problem | None, accuracy)
    outputs: tuple = ()       # files whose bytes must repeat when the job repeats
    same_as: str | None = None  # a repeat of this key: outputs must be byte-identical
    known_defect: str | None = None


def digest(jobs: list[Job]) -> str:
    blob = json.dumps([[j.key, j.kind, j.spec] for j in jobs], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def write_signal(path: str, t: np.ndarray, f: np.ndarray) -> None:
    rows = [f"{_fmt(a)},{_fmt(v.real)},{_fmt(v.imag)}" for a, v in zip(t, f)]
    with open(path, "w", newline="\n") as fh:
        fh.write("t,re,im\n" + "\n".join(rows) + "\n")


def read_rows(path: str) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def gaussian(n: int, half: float, width: float = 1.0, omega: float = 0.0,
             beta: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """exp(i(omega t + beta t^2)) exp(-t^2 / (2 width^2)) on [-half, half]."""
    t = np.linspace(-half, half, n)
    return t, np.exp(1j * (omega * t + beta * t * t)) * np.exp(-t * t / (2.0 * width * width))


def _cli(fs, argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return fs.cli.run(argv)


def _problems(*items) -> str | None:
    bad = [msg for ok, msg in items if not ok]
    return "; ".join(bad) if bad else None


class Builder:
    """Builds one workload's pass from a seed, writing its inputs to `workdir`."""

    def __init__(self, fs, seed: int, workdir: str):
        self.fs = fs
        self.rng = np.random.default_rng(seed)
        self.dir = workdir

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def pick(self, values):
        return values[int(self.rng.integers(len(values)))]

    def angle(self, values) -> float:
        return float(self.pick(values))

    def uniform(self, lo: float, hi: float) -> float:
        return float(self.rng.uniform(lo, hi))

    # ---- CLI transforms on signal CSV files --------------------------------

    def signal_file(self, name: str, t, f) -> str:
        path = self.path(name + ".csv")
        write_signal(path, t, f)
        return path

    def frft_job(self, key: str, t, f, *, own_grid: bool, exact_gaussian: bool) -> Job:
        fs, alpha = self.fs, self.angle(SIGNAL_ALPHAS)
        src = self.signal_file(key, t, f)
        out = self.path(key + ".out")
        argv = ["frft", "--alpha", _fmt(alpha), "--input", src, "--output", out]
        if own_grid:
            argv.append(f"--xi={_fmt(t[0])}:{_fmt(t[-1])}:{t.size}")
        sample = np.sort(self.rng.choice(t.size if own_grid else 481, 32, replace=False))

        def check(code):
            rows = read_rows(out + ".csv")
            xi, got = rows[:, 0], rows[:, 1] + 1j * rows[:, 2]
            if exact_gaussian:
                dev = float(np.max(np.abs(got - np.exp(-xi * xi / 2.0))))
            else:
                ref = oracles.frft_trapezoid(alpha, t, f, xi[sample])
                dev = oracles.rel_dev(got[sample], ref)
            return (_problems((code == 0, f"exit {code}"),
                              (dev <= SIGNAL_TOL, f"frft deviation {dev:.3e}")),
                    {"fraccore.frft.ref_dev_max": dev})

        return Job(key, "frft", {"alpha": alpha, "n": t.size, "own_grid": own_grid,
                                 "input": _digest_array(f)},
                   lambda: _cli(fs, argv), check, outputs=(out + ".csv",))

    def grid_job(self, key: str, transform: str, window: str, t, f) -> Job:
        fs, alpha = self.fs, self.angle(SIGNAL_ALPHAS)
        src = self.signal_file(key, t, f)
        out = self.path(key + ".out")
        argv = [transform, "--alpha", _fmt(alpha), "--window", window,
                "--input", src, "--output", out]
        n_cells = 128 * (192 if transform == "frst" else 96)
        sample = np.sort(self.rng.choice(n_cells, 24, replace=False))
        oracle = oracles.frst_trapezoid if transform == "frst" else oracles.frwt_trapezoid

        def check(code):
            rows = read_rows(out + ".csv")
            if rows.shape[0] != n_cells:
                return f"{rows.shape[0]} grid rows, expected {n_cells}", {}
            got = rows[:, 2] + 1j * rows[:, 3]
            ref = oracle(alpha, window, t, f, rows[sample, 0], rows[sample, 1])
            # sampled cells against the scale of the whole grid
            dev = float(np.max(np.abs(got[sample] - ref))) / float(np.max(np.abs(got)))
            return (_problems((code == 0, f"exit {code}"),
                              (dev <= SIGNAL_TOL, f"{transform} cell deviation {dev:.3e}")),
                    {})

        return Job(key, transform, {"alpha": alpha, "window": window, "n": t.size,
                                    "input": _digest_array(f)},
                   lambda: _cli(fs, argv), check, outputs=(out + ".csv", out + ".meta.json"))

    def bridge_job(self, key: str, window: str, t, f) -> Job:
        fs, alpha = self.fs, self.angle(SIGNAL_ALPHAS)
        src = self.signal_file(key, t, f)
        out = self.path(key + ".out")
        argv = ["bridge", "--alpha", _fmt(alpha), "--window", window,
                "--input", src, "--output", out]

        def check(code):
            with open(out + ".report.json") as fh:
                dev = float(json.load(fh)["max_rel_deviation"])
            return (_problems((code == 0, f"exit {code}"),
                              (dev <= BRIDGE_TOL_SIGNAL, f"bridge deviation {dev:.3e}")),
                    {"frwt.frst_frwt_bridge.dev_max": dev})

        return Job(key, "bridge", {"alpha": alpha, "window": window, "n": t.size,
                                   "input": _digest_array(f)},
                   lambda: _cli(fs, argv), check, outputs=(out + ".report.json",))

    # ---- band-passed reconstruction round trips (public functions) ---------

    def invert_job(self, key: str, transform: str) -> Job:
        fs = self.fs
        alpha = np.pi / 3
        if transform == "frst":
            # rel-L2 is 4.4e-4 at width 1.15 and falls to 3.4e-4 by 1.3
            width, n, half, tol = self.uniform(1.15, 1.4), 320, 9.0, FRST_ROUND_TRIP_TOL
        else:
            width, n, half, tol = self.uniform(0.9, 1.15), 1536, 8.0, FRWT_ROUND_TRIP_TOL
        t, f = gaussian(n, half, width, omega=4.0)

        def run():
            p = fs.fraccore.make_frac_param(alpha)
            sig = fs.fraccore.SampledSignal(t0=t[0], dt=t[1] - t[0], samples=f)
            mexican = fs.windows.window_by_name("mexican-hat")
            if transform == "frst":
                psi = fs.windows.window_by_name(f"modulated:dog:6:{_fmt(-p.c2)}")
                return fs.frst.frst_reconstruct(
                    p, mexican, psi, sig, np.linspace(-20.0, 20.0, 704),
                    fs.frst.symmetric_log_xi_axis(2.0 ** -4, 2.0 ** 4, 72),
                    enforce_sampling=False)
            return fs.frwt.frwt_reconstruct(
                p, mexican, sig, np.linspace(-16.0, 16.0, 384),
                fs.frst.positive_log_xi_axis(2.0 ** -5, 2.0 ** 3, 80),
                enforce_sampling=False)

        def check(rep):
            # rel-L2 recomputed here against the benchmark's own input samples
            rec = np.asarray(rep.reconstructed)
            rel = float(np.linalg.norm(rec - f) / np.linalg.norm(f))
            return (_problems((rel <= tol, f"{transform} round trip rel-L2 {rel:.3e}")),
                    {f"{transform}.reconstruct.rel_l2_max": rel})

        return Job(key, "invert", {"transform": transform, "alpha": alpha,
                                   "width": width, "n": n}, run, check)

    # ---- theorem checkers ---------------------------------------------------

    def verify_job(self, key: str, theorem: str, window: str, dist: dict, m: float,
                   alpha: float, known_defect: str | None = None) -> Job:
        fs = self.fs
        out = self.path(key + ".out")
        argv = ["verify", theorem, "--alpha", _fmt(alpha), "--window", window,
                "--dist", json.dumps(dist), "--output", out]
        expected_verdict, expected_code = ("not-applicable", 4) if known_defect else ("pass", 0)

        def check(code):
            with open(out + ".report.json") as fh:
                rep = json.load(fh)
            items = [(rep["verdict"] == expected_verdict, f"verdict {rep['verdict']}"),
                     (code == expected_code, f"exit {code}")]
            if theorem == "te1":
                items.append((rep["converged_cells"] == rep["total_cells"],
                              f"converged {rep['converged_cells']}/{rep['total_cells']}"))
                return _problems(*items), {}
            expected = m + EXPONENT_SHIFT[theorem]
            fitted = np.array(rep["fitted_exponent"], dtype=float)
            dev = float(np.nanmax(np.abs(fitted - expected))) if np.any(np.isfinite(fitted)) else 0.0
            if not known_defect:
                items += [(abs(rep["exponent_expected"] - expected) < 1e-12,
                           f"expected exponent {rep['exponent_expected']} != {expected}"),
                          (dev <= SLOPE_TOL, f"fitted exponent off by {dev:.3e}")]
            return _problems(*items), {"asymptotics.check.slope_dev_max": dev}

        return Job(key, "verify", {"theorem": theorem, "window": window, "dist": dist,
                                   "alpha": alpha},
                   lambda: _cli(fs, argv), check, outputs=(out + ".report.json",),
                   known_defect=known_defect)


def _digest_array(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:12]


def _repeat(job: Job) -> Job:
    return Job(job.key + "#repeat", job.kind, {"repeat_of": job.key}, job.run, job.check,
               job.outputs, same_as=job.key, known_defect=job.known_defect)


# ---------------------------------------------------------------------------
# workloads


def signal_grids(b: Builder) -> list[Job]:
    """Dense kernels: FRFT, FRST/FRWT grids, bridge and round trips on signals."""
    u = b.uniform
    jobs = [
        b.frft_job("frft-gauss", *gaussian(4096, 12.0), own_grid=False, exact_gaussian=True),
        b.frft_job("frft-modulated", *gaussian(2048, 12.0, u(0.8, 1.25), omega=u(1.0, 3.0)),
                   own_grid=False, exact_gaussian=False),
        b.frft_job("frft-chirp-own-grid", *gaussian(4096, 12.0, u(0.8, 1.25), beta=u(0.1, 0.3)),
                   own_grid=True, exact_gaussian=False),
        b.grid_job("frst-grid", "frst", "hermite1",
                   *gaussian(2304, 12.0, u(0.8, 1.25), omega=u(1.0, 3.0))),
        b.grid_job("frwt-grid", "frwt", "mexican-hat",
                   *gaussian(3072, 12.0, u(0.8, 1.25), omega=u(1.0, 3.0))),
        b.bridge_job("bridge", "hermite1",
                     *gaussian(2048, 12.0, u(0.8, 1.25), omega=u(1.0, 3.0))),
        b.invert_job("invert-frst", "frst"),
        b.invert_job("invert-frwt", "frwt"),
    ]
    jobs.append(_repeat(jobs[1]))
    return jobs


def power_verify(b: Builder) -> list[Job]:
    """Checkers on |x|^m: time goes to scipy.quad inside the pairings."""
    # The degree is fixed per job: quad's work grows as m falls (about 9%
    # from m = 3/4 to 1/4), while the seeded angle moves it by under 3%.
    cases = [("rez1", "hermite1", "plus", 0.25), ("teab1", "hermite1", "minus", 0.5),
             ("te3", "hermite1", "plus", 0.75), ("te4", "hermite1", "minus", 0.25),
             ("te5", "mexican-hat", "minus", 0.5), ("te4", "hermite1", "abs", 0.75)]
    jobs = []
    for theorem, window, pattern, m in cases:
        dist = {"kind": "homogeneous", "pattern": pattern, "degree": m}
        jobs.append(b.verify_job(f"{theorem}-{pattern}", theorem, window, dist, m,
                                 b.angle(POWER_ALPHAS)))
    jobs.append(_log_fixture_job(b, b.angle(POWER_ALPHAS)))
    return jobs


def _log_fixture_job(b: Builder, alpha: float) -> Job:
    """Criterion 7: |x|^1/2 ln(1/|x|) through check_te4 on the deep sequence
    (a closed-form density the CLI cannot express)."""
    fs = b.fs
    expected = 0.5 + EXPONENT_SHIFT["te4"]

    def run():
        asym = fs.asymptotics
        deep = fs.distributions.ScaleSequence(tuple(2.0 ** -k for k in range(6, 21)))
        return asym.check_te4(fs.fraccore.make_frac_param(alpha),
                              fs.windows.window_by_name("hermite1"),
                              asym.log_sqrt_abs_fixture(), seq=deep, ratio_tol=None)

    def check(rep):
        dev = float(np.nanmax(np.abs(np.asarray(rep.fitted_exponent) - expected)))
        return (_problems((rep.verdict == "pass", f"verdict {rep.verdict}"),
                          (dev <= SLOPE_TOL, f"fitted exponent off by {dev:.3e}")),
                {"asymptotics.check.slope_dev_max": dev})

    return Job("te4-log-deep", "verify", {"theorem": "te4", "fixture": "log-sqrt-abs",
                                          "alpha": alpha}, run, check)


def delta_exact(b: Builder) -> list[Job]:
    """Exact delta pairings: per-cell dispatch, probes and the checker loop."""

    def origin_delta(order: int) -> tuple[dict, float]:
        # Two terms at the origin (a comb that scales like one delta); the
        # term count is fixed because every term is paired separately.
        while True:
            w = b.rng.uniform(-1.5, 1.5, 2) + 1j * b.rng.uniform(-1.5, 1.5, 2)
            if abs(w.sum()) >= 0.5:
                break
        terms = [[0.0, order, [float(c.real), float(c.imag)]] for c in w]
        return {"kind": "delta", "terms": terms}, -1.0 - order

    jobs = []
    for key, theorem, window, order in [
            ("rez1-delta", "rez1", "hermite1", 0), ("rez1-delta1", "rez1", "hermite1", 1),
            ("teab1-delta", "teab1", "hermite1", 0), ("te3-delta1", "te3", "hermite1", 1),
            ("te4-delta", "te4", "hermite1", 0), ("te5-delta", "te5", "mexican-hat", 0),
            ("te1-delta", "te1", "hermite1", 0)]:
        dist, m = origin_delta(order)
        jobs.append(b.verify_job(key, theorem, window, dist, m, b.angle(DELTA_ALPHAS)))
    dist, m = origin_delta(0)
    jobs.append(b.verify_job(
        "te5-hermite1-delta", "te5", "hermite1", dist, m, b.angle(DELTA_ALPHAS),
        known_defect="te5 with a window vanishing at 0 on a delta reports fail "
                     "instead of not-applicable"))
    jobs.append(_delta_grid_job(b, "frst-delta-grid", "frst", "hermite1"))
    jobs.append(_delta_grid_job(b, "frwt-delta-grid", "frwt", "mexican-hat"))
    jobs.append(_delta_bridge_job(b))
    jobs.append(_repeat(jobs[0]))
    return jobs


def _delta_comb(b: Builder) -> list[tuple[float, complex]]:
    locs = np.sort(b.rng.uniform(-2.0, 2.0, 3))
    ws = b.rng.uniform(-1.5, 1.5, 3) + 1j * b.rng.uniform(-1.5, 1.5, 3)
    return [(float(a), complex(w)) for a, w in zip(locs, ws)]


def _delta_grid_job(b: Builder, key: str, transform: str, window: str) -> Job:
    fs, alpha, comb = b.fs, b.angle(DELTA_ALPHAS), _delta_comb(b)
    x = np.linspace(-3.0, 3.0, 32)

    def run():
        p = fs.fraccore.make_frac_param(alpha)
        g = fs.windows.window_by_name(window)
        desc = fs.distributions.DistributionDescriptor.delta_comb(
            [(a, 0, w) for a, w in comb])
        if transform == "frst":
            return fs.frst.frst_forward(p, g, desc, x,
                                        fs.frst.symmetric_log_xi_axis(0.25, 4.0, 24))
        return fs.frwt.frwt_forward(p, g, desc, x, fs.frst.positive_log_xi_axis(0.25, 4.0, 48))

    def check(grid):
        oracle = oracles.frst_delta_comb if transform == "frst" else oracles.frwt_delta_comb
        ref = oracle(alpha, window, comb, grid.x_axis, grid.xi_axis)
        dev = oracles.rel_dev(grid.values, ref)
        return (_problems((grid.values.shape == (32, 48), f"grid shape {grid.values.shape}"),
                          (dev <= DELTA_TOL, f"{transform} delta deviation {dev:.3e}")), {})

    return Job(key, transform, {"alpha": alpha, "window": window,
                                "comb": [[a, w.real, w.imag] for a, w in comb]}, run, check)


def _delta_bridge_job(b: Builder) -> Job:
    fs, alpha, comb = b.fs, b.angle(DELTA_ALPHAS), _delta_comb(b)
    points = [(x, xi) for x in np.linspace(-2.0, 2.0, 8) for xi in np.linspace(0.5, 4.0, 8)]

    def run():
        desc = fs.distributions.DistributionDescriptor.delta_comb(
            [(a, 0, w) for a, w in comb])
        return fs.frwt.frst_frwt_bridge(fs.fraccore.make_frac_param(alpha),
                                        fs.windows.window_by_name("hermite1"), desc, points)

    def check(rep):
        dev = float(rep.max_rel_deviation)
        return (_problems((dev <= BRIDGE_TOL_DELTA, f"delta bridge deviation {dev:.3e}")),
                {"frwt.frst_frwt_bridge.dev_max": dev})

    return Job("bridge-delta", "bridge", {"alpha": alpha,
                                          "comb": [[a, w.real, w.imag] for a, w in comb]},
               run, check)


WORKLOADS = {
    "signal-grids": signal_grids,
    "power-verify": power_verify,
    "delta-exact": delta_exact,
}


# ---------------------------------------------------------------------------
# warm-up: one small job per command kind, run during set-up


def warmups(b: Builder, workload: str) -> list[Callable[[], object]]:
    fs = b.fs
    if workload == "signal-grids":
        # the jobs' signal length, and one full 128-row FRFT block: the
        # largest array a pass allocates is in place before timing starts
        t, f = gaussian(4096, 12.0)
        src = b.signal_file("warmup", t, f)
        out = b.path("warmup.out")
        small = ["--x=-2:2:8", "--xi", "0.5:2:8"]

        def invert():
            p = fs.fraccore.make_frac_param(np.pi / 3)
            sig = fs.fraccore.SampledSignal(t0=t[0], dt=t[1] - t[0], samples=f)
            mexican = fs.windows.window_by_name("mexican-hat")
            psi = fs.windows.window_by_name(f"modulated:dog:6:{_fmt(-p.c2)}")
            x = np.linspace(-4.0, 4.0, 16)
            fs.frst.frst_reconstruct(p, mexican, psi, sig, x,
                                     fs.frst.symmetric_log_xi_axis(0.5, 2.0, 8))
            fs.frwt.frwt_reconstruct(p, mexican, sig, x,
                                     fs.frst.positive_log_xi_axis(0.5, 2.0, 8))

        return [
            lambda: _cli(fs, ["frft", "--alpha", "1.0", "--input", src, "--xi=-4:4:128",
                              "--output", out]),
            lambda: _cli(fs, ["frst", "--alpha", "1.0", "--window", "hermite1",
                              "--input", src, "--output", out] + small),
            lambda: _cli(fs, ["frwt", "--alpha", "1.0", "--window", "mexican-hat",
                              "--input", src, "--output", out] + small),
            lambda: _cli(fs, ["bridge", "--alpha", "1.0", "--window", "hermite1",
                              "--input", src, "--points=-1:1:2x0.5:1:2", "--output", out]),
            invert,
        ]
    if workload == "power-verify":
        def verify():
            asym = fs.asymptotics
            fx = asym.AsymptoticFixture(
                f=fs.distributions.DistributionDescriptor.homogeneous("plus", 0.5),
                m=0.5, L=fs.distributions.SV_ONE,
                u=fs.distributions.DistributionDescriptor.homogeneous("plus", 0.5),
                label="warm-up")
            asym.check_rez1(fs.fraccore.make_frac_param(1.0),
                            fs.windows.window_by_name("hermite1"), fx, probes=((0.5, 2.0),),
                            seq=fs.distributions.ScaleSequence((0.25, 0.125, 0.0625)))
        return [verify]
    delta = json.dumps({"kind": "delta", "terms": [[0, 0, 1.0]]})
    out = b.path("warmup.out")

    def grids():
        p = fs.fraccore.make_frac_param(1.0)
        desc = fs.distributions.DistributionDescriptor.delta()
        x = np.linspace(-1.0, 1.0, 4)
        fs.frst.frst_forward(p, fs.windows.window_by_name("hermite1"), desc, x,
                             fs.frst.symmetric_log_xi_axis(0.5, 2.0, 4))
        fs.frwt.frwt_forward(p, fs.windows.window_by_name("mexican-hat"), desc, x,
                             fs.frst.positive_log_xi_axis(0.5, 2.0, 4))
        fs.frwt.frst_frwt_bridge(p, fs.windows.window_by_name("hermite1"), desc, [(0.5, 1.0)])

    return [
        lambda: _cli(fs, ["verify", "rez1", "--alpha", "1.0", "--window", "hermite1",
                          "--dist", delta, "--output", out]),
        grids,
    ]
