"""perfbench/spans.py instruments fracspec by replacing module attributes.

Installing it checks that every attribute it wraps still exists, so a
rename in the package fails here rather than only in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import numpy as np

import fracspec as fs
import fracspec.cli  # noqa: F401  (the package does not import its CLI)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_install_and_uninstall_with_tracing_off():
    spans = load_spans()
    sites = [(fs.frwt, "pair"), (fs.frwt, "frwt_point"), (fs.frwt, "frst_point"),
             (fs.frst, "frst_forward"), (fs.asymptotics, "wt_point"), (fs.cli, "run")]
    originals = [getattr(owner, attr) for owner, attr in sites]
    checkers = dict(fs.asymptotics.CHECKERS)
    tracer = spans.Tracer()
    inst = spans.Instrumentation(fs, tracer)
    try:
        inst.install()
        assert fs.frwt.frwt_point is not originals[1]
        # wrapped functions still compute while tracing is off
        delta = fs.DistributionDescriptor.delta()
        assert np.isclose(fs.asymptotics.wt_point(fs.mexican_hat_window(), delta, 0.0, 1.0), 1.0)
        assert not tracer.calls
    finally:
        inst.uninstall()
    assert [getattr(owner, attr) for owner, attr in sites] == originals
    assert fs.asymptotics.CHECKERS == checkers
