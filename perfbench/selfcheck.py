#!/usr/bin/env python3
"""The benchmark's own test: outputs corrupted on purpose must count as failed.

    python3 perfbench/selfcheck.py

Builds every workload's pass (power-verify keeps only its cheapest job
family, the log-fixture check, to stay short), runs it once as is and
once with each job's output corrupted after the job returns: grid and
signal CSV values scaled by 1.001, report verdicts and exponents altered,
reconstructions scaled by 1.1, bridge deviations raised.  Exits 0 when the
clean pass has no failures and every corrupted job is counted failed.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys
import tempfile

import run as bench


def corrupt_file(path: str) -> None:
    if path.endswith(".csv"):
        with open(path) as fh:
            header, *rows = fh.read().splitlines()
        out = []
        for row in rows:
            fields = row.split(",")
            # the value columns are the last two
            fields[-2:] = [format(float(v) * 1.001, ".17g") for v in fields[-2:]]
            out.append(",".join(fields))
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join([header] + out) + "\n")
    elif path.endswith(".report.json"):
        with open(path) as fh:
            rep = json.load(fh)
        if "verdict" in rep:
            rep["verdict"] = "fail" if rep["verdict"] == "pass" else "pass"
        if "fitted_exponent" in rep:
            rep["fitted_exponent"] = [v + 1.0 for v in rep["fitted_exponent"]]
        if "max_rel_deviation" in rep:
            rep["max_rel_deviation"] = 1.0
        with open(path, "w") as fh:
            json.dump(rep, fh)


def corrupt_result(result):
    if hasattr(result, "reconstructed"):       # ReconstructionReport
        result.reconstructed[...] *= 1.1
    elif hasattr(result, "max_rel_deviation"):  # BridgeReport
        result = dataclasses.replace(result, max_rel_deviation=1.0)
    elif hasattr(result, "verdict"):            # AsymptoticReport
        result = dataclasses.replace(result, verdict="fail")
    elif hasattr(result, "values"):             # TFGrid
        result.values[...] *= 1.001
    return result


def corrupted(job):
    def run():
        result = job.run()
        for path in job.outputs:
            if not path.endswith(".meta.json"):
                corrupt_file(path)
        return corrupt_result(result)

    return dataclasses.replace(job, run=run, key=job.key + "!corrupt",
                               same_as=(job.same_as or job.key) + "!corrupt")


def main() -> int:
    bench.cap_blas_threads()
    fs = bench.import_fracspec()
    import jobs as jobmod

    os.makedirs(bench.WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selfcheck-", dir=bench.WORK)
    ok = True
    try:
        for workload, build in jobmod.WORKLOADS.items():
            wdir = os.path.join(workdir, workload)
            os.mkdir(wdir)
            job_list = build(jobmod.Builder(fs, 7, wdir))
            if workload == "power-verify":
                job_list = [j for j in job_list if j.key == "te4-log-deep"]
            clean = bench.Runner(fs, job_list)
            clean.run_pass(False)
            bad = bench.Runner(fs, [corrupted(j) for j in job_list])
            bad.run_pass(False)
            clean_failed = [r.key for r in clean.records if r.failed]
            missed = [r.key for r in bad.records if r.problem is None]
            print(f"{workload}: clean pass {len(clean_failed)} failed of {len(job_list)}; "
                  f"corrupted pass {len(job_list) - len(missed)} failed of {len(job_list)}")
            for key in clean_failed:
                print(f"  clean job failed: {key}")
            for key in missed:
                print(f"  corruption not detected: {key}")
            ok = ok and not clean_failed and not missed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(bench.WORK)
        except OSError:
            pass
    print("selfcheck", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
