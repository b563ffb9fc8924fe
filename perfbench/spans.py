"""In-memory span recorder and the instrumentation of fracspec's layers.

Spans are recorded around the public functions of each fracspec module by
replacing the module attributes through which other modules (and the
benchmark) call them.  Nothing in the package source changes; `uninstall`
puts every original attribute back.

A span is (name, start, end, parent).  Per name the recorder keeps:

* ``calls``  - number of spans;
* ``busy``   - summed duration of the outermost spans of that name (a
  nested span of the same name is already inside its parent's interval);
* ``self``   - summed duration minus the time covered by direct children.

Counters (points evaluated, cells computed, bytes written, ...) are kept
next to the spans, at the same boundaries.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import time
from array import array
from collections import defaultdict

import numpy as np


class Tracer:
    """Span recorder; `enabled` switches recording on and off between passes."""

    def __init__(self):
        self.enabled = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []      # [span index, name id, start, child time]
        self._depth: dict[int, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def depth(self, name: str) -> int:
        """How many spans of `name` are open right now."""
        nid = self._ids.get(name)
        return 0 if nid is None else self._depth[nid]

    def enter(self, name: str) -> None:
        nid = self._name_id(name)
        idx = len(self.span_start)
        parent = self._stack[-1][0] if self._stack else -1
        self.span_name.append(nid)
        self.span_parent.append(parent)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self._depth[nid] += 1
        start = time.perf_counter()
        self.span_start[idx] = start
        self._stack.append([idx, nid, start, 0.0])

    def exit(self) -> None:
        end = time.perf_counter()
        idx, nid, start, child = self._stack.pop()
        self.span_end[idx] = end
        dur = end - start
        self._depth[nid] -= 1
        name = self.names[nid]
        self.calls[name] += 1
        self.self_time[name] += dur - child
        if self._depth[nid] == 0:
            self.busy[name] += dur
        if self._stack:
            self._stack[-1][3] += dur

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] += amount

    def note_max(self, key: str, value: float) -> None:
        if np.isfinite(value) and value > self.maxima[key]:
            self.maxima[key] = float(value)

    def write(self, path: str) -> None:
        """Write the spans as arrays: names[name[i]], start[i], end[i] (seconds
        from the first span) and parent[i] (index of the parent span, -1 at
        the root)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        start = np.frombuffer(self.span_start, dtype=float)
        t0 = start[0] if start.size else 0.0
        np.savez_compressed(path, names=np.array(self.names),
                            name=np.frombuffer(self.span_name, dtype=np.int32),
                            start=start - t0,
                            end=np.frombuffer(self.span_end, dtype=float) - t0,
                            parent=np.frombuffer(self.span_parent, dtype=np.int32))


def _counted(tracer: Tracer, key: str, fn):
    """Count calls without a span, for functions called once per scalar."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.enabled:
            tracer.counters[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def _span(tracer: Tracer, name: str, fn, before=None, after=None):
    """Wrap `fn` in a span; `before(args, kwargs)` / `after(result, args, kwargs)`
    record counters at the same boundary."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        if before is not None:
            before(args, kwargs)
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if after is not None:
            after(result, args, kwargs)
        return result

    wrapper.__perfbench_original__ = fn
    return wrapper


class Instrumentation:
    """Installs and removes the layer spans on an imported fracspec."""

    def __init__(self, fs_modules, tracer: Tracer):
        self.m = fs_modules
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def _replace(self, owner, attr: str, value) -> None:
        if isinstance(owner, dict):
            self._saved.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

    def _wrap(self, name: str, sites, before=None, after=None) -> None:
        # one wrapper per distinct original function, installed at every site
        wrapped = {}
        for owner, attr in sites:
            orig = getattr(owner, attr)
            key = id(orig)
            if key not in wrapped:
                wrapped[key] = _span(self.tracer, name, orig, before, after)
            self._replace(owner, attr, wrapped[key])

    def install(self) -> None:
        m, tr = self.m, self.tracer
        cli, core, win, dist = m.cli, m.fraccore, m.windows, m.distributions
        frst, frwt, asym = m.frst, m.frwt, m.asymptotics

        # cli
        self._wrap("cli.run", [(cli, "run")])
        self._wrap("cli.ingest_signal", [(cli, "ingest_signal")])

        # fraccore: kernel evaluations are N * len(xi) per call (computed)
        def frft_before(args, kwargs):
            tr.count("fraccore.frft.kernel_evals", args[1].n * np.size(args[2]))

        self._wrap("fraccore.frft", [(cli, "frft"), (frwt, "frft"), (core, "frft")],
                   before=frft_before)

        # windows: every factory's Window gets a traced eval
        self._wrap_window_factories()
        self._wrap("windows.moment", [(win, "moment")])
        self._wrap("windows.admissibility",
                   [(frst, "admissibility_cgpsi"), (cli, "admissibility_cgpsi"),
                    (frwt, "admissibility_cg"), (cli, "admissibility_cg")])

        # frst
        def cells(key):
            def before(args, kwargs):
                x = kwargs.get("x_axis", args[3] if len(args) > 3 else None)
                xi = kwargs.get("xi_axis", args[4] if len(args) > 4 else None)
                tr.count(key, np.size(x) * np.size(xi))
            return before

        self._wrap("frst.frst_forward", [(cli, "frst_forward"), (frst, "frst_forward")],
                   before=cells("frst.frst_forward.cells"))
        self._wrap("frst.frst_synthesis", [(frst, "frst_synthesis")])
        self._wrap("frst.frst_point",
                   [(frst, "frst_point"), (frwt, "frst_point"), (asym, "frst_point")])

        def csv_after(result, args, kwargs):
            tr.count("frst.grid_to_csv.bytes", os.path.getsize(args[1]))

        self._wrap("frst.grid_to_csv", [(cli, "grid_to_csv")], after=csv_after)
        self._wrap("frst.frst_reconstruct", [(frst, "frst_reconstruct")])

        # frwt
        self._wrap("frwt.frwt_forward", [(cli, "frwt_forward"), (frwt, "frwt_forward")],
                   before=cells("frwt.frwt_forward.cells"))
        self._wrap("frwt.frwt_synthesis", [(frwt, "frwt_synthesis")])
        self._wrap("frwt.frwt_point", [(frwt, "frwt_point"), (asym, "frwt_point")])
        self._wrap("frwt.wt_point", [(asym, "wt_point")])
        self._wrap("frwt.frst_frwt_bridge",
                   [(cli, "frst_frwt_bridge"), (frwt, "frst_frwt_bridge")])
        self._wrap("frwt.frwt_reconstruct", [(frwt, "frwt_reconstruct")])

        # distributions
        def pair_before(args, kwargs):
            if tr.depth("asymptotics.check"):
                tr.count("asymptotics.check.pairings")

        self._wrap("distributions.pair",
                   [(frst, "pair"), (frwt, "pair"), (dist, "pair")], before=pair_before)
        self._wrap_pair_with_error()
        self._wrap("distributions.quad", [(dist, "quad")])
        self._replace(dist.DistributionDescriptor, "density",
                      _counted(tr, "distributions.density.calls",
                               dist.DistributionDescriptor.density))

        # asymptotics: the CLI looks checkers up in CHECKERS
        checkers = asym.CHECKERS
        sites = [(asym, name) for name in ("check_rez1", "check_teab1", "check_te3",
                                           "check_te4", "check_te5",
                                           "check_te1_hypotheses")]
        sites.append((cli, "check_te1_hypotheses"))
        self._wrap("asymptotics.check", sites)
        for key in list(checkers):
            self._replace(checkers, key, getattr(asym, checkers[key].__name__))

    def _wrap_pair_with_error(self) -> None:
        dist, tr = self.m.distributions, self.tracer
        orig = dist.pair_with_error
        diverged = dist.PairingDiverged

        # no span of its own: `pair` is its only caller and already spans it
        @functools.wraps(orig)
        def wrapper(f, phi):
            if not tr.enabled:
                return orig(f, phi)
            try:
                val, err = orig(f, phi)
            except diverged:
                tr.count("distributions.pair.diverged")
                raise
            tr.note_max("distributions.pair.err_max", err)
            return val, err

        self._replace(dist, "pair_with_error", wrapper)

    def _wrap_window_factories(self) -> None:
        m, tr = self.m, self.tracer
        win = m.windows

        def traced_window(w):
            if getattr(w.eval, "__perfbench_original__", None) is not None:
                return w
            orig = w.eval

            def before(args, kwargs):
                # count points once per outermost evaluation (modulated and
                # dilated windows evaluate their base window inside)
                if not tr.depth("windows.eval"):
                    tr.count("windows.eval.points", np.size(args[0]))

            return dataclasses.replace(w, eval=_span(tr, "windows.eval", orig, before=before))

        def factory(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return traced_window(fn(*args, **kwargs))
            return wrapper

        for owner, attr in [(win, "window_by_name"), (win, "modulate"), (win, "dilate"),
                            (win, "gaussian_window"), (win, "mexican_hat_window"),
                            (win, "hermite_wavelet_window"), (win, "dog_window"),
                            (m.cli, "window_by_name"), (m.asymptotics, "modulate"),
                            (m.asymptotics, "dilate"), (m.frwt, "modulate")]:
            self._replace(owner, attr, factory(getattr(owner, attr)))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._saved.clear()
