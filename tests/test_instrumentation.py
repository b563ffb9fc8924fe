"""perfbench/spans.py instruments fracspec by replacing module attributes.

Installing it checks that every attribute it wraps still exists, so a
rename in the package fails here rather than only in a traced benchmark run.
"""

import ast
import importlib.util
from pathlib import Path

import numpy as np

import fracspec as fs
import fracspec.cli  # noqa: F401  (the package does not import its CLI)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
PACKAGE = Path(fs.__file__).resolve().parent


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


def test_batched_paths_under_tracing():
    # the batched pairings must keep the tracer's contract: spans around the
    # wrapped functions and scalar error estimates for note_max
    spans = load_spans()
    tracer = spans.Tracer()
    inst = spans.Instrumentation(fs, tracer)
    try:
        inst.install()
        tracer.enabled = True
        p = fs.make_frac_param(1.0)
        comb = fs.DistributionDescriptor.delta_comb([(-0.4, 0, 1.0), (0.3, 1, 0.5j)])
        grid = fs.frst.frst_forward(p, fs.windows.window_by_name("hermite1"), comb,
                                    np.linspace(-1.0, 1.0, 5),
                                    fs.frst.symmetric_log_xi_axis(0.5, 2.0, 3))
        d1 = fs.DistributionDescriptor.delta(order=1)
        fixture = fs.asymptotics.AsymptoticFixture(f=d1, m=-2.0, L=fs.SV_ONE, u=d1,
                                                   label="delta'")
        rep = fs.asymptotics.check_rez1(p, fs.windows.window_by_name("hermite1"), fixture)
    finally:
        tracer.enabled = False
        inst.uninstall()
    assert grid.values.shape == (5, 6) and np.all(np.isfinite(grid.values))
    assert rep.verdict == "pass"
    assert tracer.calls["frst.frst_forward"] == 1
    assert tracer.calls["asymptotics.check"] == 1
    assert tracer.counters["windows.eval.points"] > 0


def test_derived_windows_evaluate_like_untraced_ones():
    # modulate and dilate build each window from its form, so a window
    # derived from a traced one never runs its parent's (traced) evaluator
    spans = load_spans()
    x = np.linspace(-6.0, 6.0, 97)
    derive = [lambda g: fs.windows.modulate(g, 1.5), lambda g: fs.windows.dilate(g, 0.3),
              lambda g: fs.windows.dilate(fs.windows.modulate(g, -0.7), 2.5)]
    bases = [lambda: fs.windows.dog_window(3), lambda: fs.windows.window_by_name("mexican-hat"),
             lambda: fs.windows.gaussian_window(2.0)]
    want = [d(b()).eval(x) for b in bases for d in derive]
    tracer = spans.Tracer()
    inst = spans.Instrumentation(fs, tracer)
    try:
        inst.install()
        tracer.enabled = True
        derived = [d(b()) for b in bases for d in derive]
        got = [w.eval(x) for w in derived]
    finally:
        tracer.enabled = False
        inst.uninstall()
    # the same values untraced, and from a window built afresh on each form
    fresh = [fs.Window(w.name, w.poly, w.width, w.carrier).eval(x) for w in derived]
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert all(np.array_equal(g, f) for g, f in zip(got, fresh))
    assert tracer.counters["windows.eval.points"] == len(want) * x.size


def unused_imports():
    """(module, name) of every import that a ``# noqa: F401`` marks as unused
    in the package's source."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text().splitlines()
        for node in ast.walk(ast.parse("\n".join(lines))):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                    "# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                found += [(path.stem, a.asname or a.name) for a in node.names]
    return found


def test_unused_imports_are_tracer_sites():
    # an import that nothing in the package calls is kept only for a site
    # the tracer replaces; once the tracer stops replacing it, it goes
    spans = load_spans()
    inst = spans.Instrumentation(fs, spans.Tracer())
    try:
        inst.install()
        replaced = {(owner.__name__.rsplit(".", 1)[-1], attr)
                    for owner, attr, _ in inst._saved if isinstance(owner, type(fs))}
    finally:
        inst.uninstall()
    for module, name in unused_imports():
        assert (module, name) in replaced, f"delete the unused import of {name} in {module}"
