"""The benchmark's jobs and oracles run against this checkout's src/.

perfbench/selfcheck.py builds every workload's pass, runs it clean and with
each job's output corrupted, and exits 0 only when the clean pass meets its
oracles and every corruption is caught.  A src/ change that breaks a job's
call, its output format or its oracle fails here rather than only in a
benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_selfcheck_passes():
    proc = subprocess.run([sys.executable, "perfbench/selfcheck.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "selfcheck passed"
