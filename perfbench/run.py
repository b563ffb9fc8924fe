#!/usr/bin/env python3
"""fracspec benchmark: one closed-loop client driving fracspec in-process.

    python3 perfbench/run.py --workload signal-grids --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; fracspec is imported from its `src/`.
Set-up builds the seeded job list, writes its signal CSVs under
`.perfbench_tmp/` and runs one small warm-up job per command kind; it is
repeated SETUP_ROUNDS times and its median is `setup_s`.  The workload's
pass then repeats until `--seconds` have elapsed; every job's output is
checked against an oracle written in this directory.

`--trace 0` prints the end-to-end metrics.  `--trace 1` alternates
untraced and traced passes, prints the per-layer metrics (per traced
pass) and `trace.overhead_frac`, and writes the spans to
`.perfbench_out/trace-<workload>.npz`.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_tmp")
TRACE_DIR = os.path.join(ROOT, ".perfbench_out")

SETUP_ROUNDS = 5
WORKLOADS = ("signal-grids", "power-verify", "delta-exact")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MODULES = ("cli", "fraccore", "windows", "distributions", "frst", "frwt", "asymptotics")


class SetupError(RuntimeError):
    pass


class Record(NamedTuple):
    key: str
    kind: str
    seconds: float
    problem: str | None       # None when the job met its oracle
    known_defect: str | None
    traced: bool

    @property
    def failed(self) -> bool:
        """Missed its oracle, outside the documented known defect."""
        return self.problem is not None and not self.known_defect


def cap_blas_threads() -> int:
    """Cap every BLAS/OpenMP thread variable at the CPUs this process may use.
    Must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        try:
            n = min(int(os.environ[var]), nproc)
        except (KeyError, ValueError):
            n = nproc
        os.environ[var] = str(max(n, 1))
    return int(os.environ[BLAS_VARS[0]])


def read_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()[:12]
        return ref[:12]
    except OSError:
        return "unknown (not a git checkout)"


def import_fracspec():
    if not os.path.isfile(os.path.join(SRC, "fracspec", "__init__.py")):
        raise SetupError(f"no fracspec package under {SRC}; run from a fracspec checkout")
    sys.path.insert(0, SRC)
    import importlib

    fs = importlib.import_module("fracspec")
    if not os.path.abspath(fs.__file__).startswith(SRC + os.sep):
        raise SetupError(f"imported fracspec from {fs.__file__}, not from {SRC}")
    for name in MODULES:
        importlib.import_module(f"fracspec.{name}")
    return fs


def time_cold_import() -> float:
    """Wall time of a fresh interpreter importing the package and its CLI."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); import fracspec.cli"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT,
                   stdout=subprocess.DEVNULL, timeout=120)
    return time.perf_counter() - t0


def percentile_tail(values: list[float]):
    """Highest listed percentile with at least ten samples beyond it."""
    import numpy as np

    n = len(values)
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10.0:
            return p, float(np.percentile(values, p))
    return None


class Runner:
    def __init__(self, fs, jobs, trace_mod=None):
        self.fs = fs
        self.jobs = jobs
        self.trace_mod = trace_mod
        self.records: list[Record] = []
        self.hashes: dict[str, str] = {}
        self.accuracy: dict[str, float] = {}
        self.pass_times = {False: [], True: []}
        self.tracer = trace_mod.Tracer() if trace_mod else None

    def _outputs_digest(self, job) -> str:
        h = hashlib.sha256()
        for path in job.outputs:
            with open(path, "rb") as fh:
                h.update(fh.read())
        return h.hexdigest()

    def run_job(self, job, traced: bool) -> None:
        t0 = time.perf_counter()
        try:
            result = job.run()
        except Exception as exc:  # a failing job is counted, the run goes on
            elapsed = time.perf_counter() - t0
            problem = f"raised {type(exc).__name__}: {exc}"
            print(f"job {job.key}: {traceback.format_exc(limit=-3)}", file=sys.stderr)
        else:
            elapsed = time.perf_counter() - t0
            problem = self.check(job, result)
        self.records.append(Record(job.key, job.kind, elapsed, problem, job.known_defect,
                                   traced))

    def check(self, job, result) -> str | None:
        """The job's oracle, then byte identity with earlier runs of the job."""
        try:
            problem, acc = job.check(result)
            digest = self._outputs_digest(job) if job.outputs else None
        except Exception as exc:  # an unreadable or malformed output fails the job
            print(f"job {job.key}: {traceback.format_exc(limit=-3)}", file=sys.stderr)
            return f"check raised {type(exc).__name__}: {exc}"
        for key, value in acc.items():
            if value > self.accuracy.get(key, 0.0):
                self.accuracy[key] = float(value)
        if digest is not None and digest != self.hashes.setdefault(job.same_as or job.key,
                                                                   digest):
            problem = "; ".join(filter(None, [
                problem, "output bytes differ from an earlier run of the same job"]))
        return problem

    def run_pass(self, traced: bool) -> None:
        inst = None
        if traced:
            inst = self.trace_mod.Instrumentation(self.fs, self.tracer)
            inst.install()
            self.tracer.enabled = True
        t0 = time.perf_counter()
        try:
            for job in self.jobs:
                self.run_job(job, traced)
        finally:
            if inst is not None:
                self.tracer.enabled = False
                inst.uninstall()
        self.pass_times[traced].append(time.perf_counter() - t0)

    def run(self, seconds: float, trace: bool) -> None:
        """Whole passes until `seconds` are used: another pass starts only
        while at least half of one still fits.  With tracing, passes
        alternate untraced/traced and there is at least one of each."""
        t0 = time.perf_counter()
        n = 0
        while True:
            traced = trace and n % 2 == 1
            p0 = time.perf_counter()
            self.run_pass(traced)
            n += 1
            now = time.perf_counter()
            if now - t0 + 0.5 * (now - p0) >= seconds and (not trace or n >= 2):
                break

    def jobs_per_s(self, traced: bool) -> float:
        return len(self.jobs) * len(self.pass_times[traced]) / sum(self.pass_times[traced])


def end_to_end(runner: Runner, setup_times: list[float]) -> dict:
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "jobs_per_s": (runner.jobs_per_s(False), "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(runner: Runner) -> dict:
    tr, acc = runner.tracer, runner.accuracy
    n = len(runner.pass_times[True])
    calls = lambda k: tr.calls.get(k, 0) / n
    busy = lambda k: tr.busy.get(k, 0.0) / n
    own = lambda k: tr.self_time.get(k, 0.0) / n
    count = lambda k: tr.counters.get(k, 0.0) / n
    pair_busy = tr.busy.get("distributions.pair", 0.0)
    quad_share = tr.busy.get("distributions.quad", 0.0) / pair_busy if pair_busy else 0.0
    overhead = 1.0 - runner.jobs_per_s(True) / runner.jobs_per_s(False)
    s, c = "s", "count"
    return {
        "cli.run.calls": (calls("cli.run"), c),
        "cli.run.self_s": (own("cli.run"), s),
        "cli.ingest_signal.busy_s": (busy("cli.ingest_signal"), s),
        "fraccore.frft.calls": (calls("fraccore.frft"), c),
        "fraccore.frft.busy_s": (busy("fraccore.frft"), s),
        "fraccore.frft.kernel_evals": (count("fraccore.frft.kernel_evals"), c),
        "fraccore.frft.ref_dev_max": (acc.get("fraccore.frft.ref_dev_max", 0.0), "rel"),
        "windows.eval.points": (count("windows.eval.points"), c),
        "windows.eval.busy_s": (busy("windows.eval"), s),
        "windows.moment.calls": (calls("windows.moment"), c),
        "windows.moment.busy_s": (busy("windows.moment"), s),
        "windows.admissibility.busy_s": (busy("windows.admissibility"), s),
        "frst.frst_forward.busy_s": (busy("frst.frst_forward"), s),
        "frst.frst_forward.cells": (count("frst.frst_forward.cells"), c),
        "frst.frst_synthesis.busy_s": (busy("frst.frst_synthesis"), s),
        "frst.frst_point.calls": (calls("frst.frst_point"), c),
        "frst.frst_point.self_s": (own("frst.frst_point"), s),
        "frst.grid_to_csv.busy_s": (busy("frst.grid_to_csv"), s),
        "frst.grid_to_csv.bytes": (count("frst.grid_to_csv.bytes"), "B"),
        "frst.reconstruct.rel_l2_max": (acc.get("frst.reconstruct.rel_l2_max", 0.0), "rel"),
        "frwt.frwt_forward.busy_s": (busy("frwt.frwt_forward"), s),
        "frwt.frwt_forward.cells": (count("frwt.frwt_forward.cells"), c),
        "frwt.frwt_synthesis.busy_s": (busy("frwt.frwt_synthesis"), s),
        "frwt.frwt_point.calls": (calls("frwt.frwt_point"), c),
        "frwt.wt_point.calls": (calls("frwt.wt_point"), c),
        "frwt.frst_frwt_bridge.busy_s": (busy("frwt.frst_frwt_bridge"), s),
        "frwt.frst_frwt_bridge.dev_max": (acc.get("frwt.frst_frwt_bridge.dev_max", 0.0), "rel"),
        "frwt.reconstruct.rel_l2_max": (acc.get("frwt.reconstruct.rel_l2_max", 0.0), "rel"),
        "distributions.pair.calls": (calls("distributions.pair"), c),
        "distributions.pair.busy_s": (busy("distributions.pair"), s),
        "distributions.pair.self_s": (own("distributions.pair"), s),
        "distributions.pair.quad_share": (quad_share, "frac"),
        "distributions.density.calls": (count("distributions.density.calls"), c),
        "distributions.pair.err_max": (tr.maxima.get("distributions.pair.err_max", 0.0), "abs"),
        "distributions.pair.diverged": (count("distributions.pair.diverged"), c),
        "asymptotics.check.calls": (calls("asymptotics.check"), c),
        "asymptotics.check.busy_s": (busy("asymptotics.check"), s),
        "asymptotics.check.self_s": (own("asymptotics.check"), s),
        "asymptotics.check.pairings": (count("asymptotics.check.pairings"), c),
        "asymptotics.check.slope_dev_max": (acc.get("asymptotics.check.slope_dev_max", 0.0),
                                            "abs"),
        "trace.overhead_frac": (overhead, "frac"),
    }


def layer_shares(runner: Runner) -> str:
    """Self time of each module's spans as a share of traced job time."""
    tr = runner.tracer
    job_time = sum(r.seconds for r in runner.records if r.traced)
    parts = []
    for mod in MODULES:
        own = sum(v for k, v in tr.self_time.items() if k.startswith(mod + "."))
        parts.append(f"{mod}={own / job_time:.3f}")
    return " ".join(parts)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if "FRACSPEC_THREADS" in os.environ:
        print("FRACSPEC_THREADS is set; unset it so no number depends on it", file=sys.stderr)
        return 2
    blas_threads = cap_blas_threads()
    try:
        fs = import_fracspec()
    except (SetupError, ImportError) as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2

    import numpy as np
    import scipy

    import jobs as jobmod
    import spans as trace_mod

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        setup_times = []
        for r in range(SETUP_ROUNDS):
            t0 = time.perf_counter()
            time_cold_import()
            round_dir = os.path.join(workdir, f"round{r}")
            os.mkdir(round_dir)
            builder = jobmod.Builder(fs, args.seed, round_dir)
            job_list = jobmod.WORKLOADS[args.workload](builder)
            for warm in jobmod.warmups(builder, args.workload):
                warm()
            setup_times.append(time.perf_counter() - t0)
            if r:
                shutil.rmtree(os.path.join(workdir, f"round{r - 1}"))

        runner = Runner(fs, job_list, trace_mod if args.trace else None)
        runner.run(args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass

    records = runner.records
    attempted = len(records)
    failed = [r for r in records if r.failed]
    defect = [r for r in records if r.known_defect]
    defect_missed = [r for r in defect if r.problem is not None]

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"jobs/pass={len(job_list)} job-list digest={jobmod.digest(job_list)} "
          f"passes={len(runner.pass_times[False])}+{len(runner.pass_times[True])} traced")
    print(f"env nproc={len(os.sched_getaffinity(0))} blas_threads={blas_threads} "
          f"python={platform.python_version()} numpy={np.__version__} "
          f"scipy={scipy.__version__} commit={read_commit()} FRACSPEC_THREADS=unset")
    for kind in ("frft", "frst", "frwt", "bridge", "invert", "verify"):
        vals = [r.seconds for r in records if r.kind == kind and not r.traced]
        if not vals:
            continue
        tail = percentile_tail(vals)
        tail_txt = f" tail p{tail[0]:g}={tail[1]:.6g} s" if tail else " tail n/a (<20 samples)"
        print(f"{kind}_s n={len(vals)} p50={statistics.median(vals):.6g} s{tail_txt}")
    print(f"fail_frac={(len(failed) + len(defect_missed)) / attempted:.6g} "
          f"(failed {len(failed)}, known defect missed {len(defect_missed)} of "
          f"{len(defect)}, attempted {attempted})")
    for r in failed[:10]:
        print(f"FAILED {r.key}: {r.problem}", file=sys.stderr)
    if defect:
        print(f"known defect: {defect[0].known_defect}: expected not-applicable, "
              f"{len(defect_missed)}/{len(defect)} missed "
              f"({defect_missed[0].problem if defect_missed else 'all held'})")

    if args.trace:
        metrics = per_layer(runner)
        print(f"layer self-time share of traced job time: {layer_shares(runner)}")
        path = os.path.join(TRACE_DIR, f"trace-{args.workload}.npz")
        runner.tracer.write(path)
        print(f"spans: {len(runner.tracer.span_start)} written to {os.path.relpath(path, ROOT)}")
    else:
        metrics = end_to_end(runner, setup_times)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
