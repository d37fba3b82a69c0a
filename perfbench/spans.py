"""In-memory spans around the library calls the benchmark makes.

A span records a name, a start and end time and the span that was open when
it started (its parent).  Spans live in flat arrays while the run goes and
are written once, when it ends.  Nothing inside the library is changed: the
benchmark wraps the public functions it calls, the ``frames`` /
``frame_array`` methods of the path objects it builds, and (for the CLI
route) the ``rs_index`` name that ``maslovkit.cli`` looks up.
"""

from __future__ import annotations

import contextlib
import json
import statistics
from array import array
from time import perf_counter

import numpy as np

EVAL_NAMES = ("symplin.frames", "symplin.frame_array")


class Tracer:
    def __init__(self):
        self.names: list = []
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.count = array("l")  # frames delivered by an eval span
        self.attrs: dict = {}  # span id -> dict, for the few spans that need one
        self.excluded: dict = {}  # span id -> seconds spent in untimed side calls
        self.excluded_total = 0.0
        self.active = True
        self._stack = [-1]

    # -- recording -------------------------------------------------------------

    def _open(self, name, count=0):
        sid = len(self.start)
        self.names.append(name)
        self.parent.append(self._stack[-1])
        self.count.append(count)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def _close(self, sid):
        self.end[sid] = perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, attrs=None, count=None):
        """``fn`` with a span around each call.

        ``attrs(args, result)`` gives attributes to keep on a span that
        returned; ``count(args)`` the number of frames an evaluation delivers.
        """

        def traced(*args, **kw):
            if not self.active:
                return fn(*args, **kw)
            sid = self._open(name, count(args) if count else 0)
            try:
                result = fn(*args, **kw)
            except Exception as e:
                self.attrs.setdefault(sid, {})["error"] = type(e).__name__
                raise
            finally:
                self._close(sid)
            if attrs:
                self.attrs.setdefault(sid, {}).update(attrs(args, result))
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name, **attrs):
        sid = self._open(name)
        if attrs:
            self.attrs[sid] = attrs
        try:
            yield sid
        finally:
            self._close(sid)

    def untimed(self, fn, *args):
        """Call ``fn`` with recording off; its time is charged to no span."""
        t0 = perf_counter()
        self.active = False
        try:
            return fn(*args)
        finally:
            self.active = True
            dt = perf_counter() - t0
            self.excluded_total += dt
            for sid in self._stack[1:]:
                self.excluded[sid] = self.excluded.get(sid, 0.0) + dt

    def wrap_path(self, path):
        """Record every evaluation of this path object."""
        path.frames = self.wrap("symplin.frames", path.frames,
                                count=lambda args: len(args[0]))
        path.frame_array = self.wrap("symplin.frame_array", path.frame_array,
                                     count=lambda args: 1)
        return path

    # -- analysis --------------------------------------------------------------

    def durations(self) -> np.ndarray:
        """Span durations in seconds, untimed side calls removed."""
        d = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        for sid, dt in self.excluded.items():
            d[sid] -= dt
        return d

    def self_times(self) -> dict:
        """Total and self time in ms per span name (self = minus children)."""
        dur = self.durations()
        child = np.zeros_like(dur)
        parent = np.asarray(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        out: dict = {}
        for sid, name in enumerate(self.names):
            e = out.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            e["calls"] += 1
            e["total_ms"] += 1e3 * dur[sid]
            e["self_ms"] += 1e3 * (dur[sid] - child[sid])
        return out

    def write(self, path_stem: str) -> None:
        """Write the spans (npz) and a per-name summary (json)."""
        names = sorted(set(self.names))
        code = {n: i for i, n in enumerate(names)}
        np.savez_compressed(
            path_stem + ".npz",
            names=np.asarray(names),
            name=np.asarray([code[n] for n in self.names], dtype=np.int32),
            parent=np.asarray(self.parent, dtype=np.int64),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
            count=np.asarray(self.count, dtype=np.int64),
        )
        with open(path_stem + ".json", "w") as fh:
            json.dump({"spans": len(self.names), "by_name": self.self_times(),
                       "attrs": {str(k): v for k, v in self.attrs.items()}},
                      fh, indent=1)


def _p50(xs):
    return statistics.median(xs) if xs else None


def _p90(xs):
    if not xs:
        return None
    if len(xs) < 2:
        return xs[0]
    return statistics.quantiles(xs, n=10)[8]


def layer_metrics(tr: Tracer, cases: int) -> dict:
    """Per-layer figures from one tracer's spans; None where no span fed one."""
    dur = tr.durations()
    names = tr.names
    parent = tr.parent
    n_spans = len(names)
    # nearest enclosing engine rs_index span, and whether a span sits under
    # an evaluation span or under cli.main
    rs_anc = [-1] * n_spans
    in_eval = [False] * n_spans
    in_cli = [False] * n_spans
    by_name: dict = {}
    for sid in range(n_spans):
        p = parent[sid]
        name = names[sid]
        up_rs = rs_anc[p] if p >= 0 else -1
        up_eval = in_eval[p] if p >= 0 else False
        up_cli = in_cli[p] if p >= 0 else False
        in_cli[sid] = up_cli or name == "cli.main"
        in_eval[sid] = up_eval or name in EVAL_NAMES
        rs_anc[sid] = sid if (name == "maslov.rs_index" and not up_cli) else up_rs
        by_name.setdefault(name, []).append(sid)

    def spans(name):
        return by_name.get(name, [])

    def ok(sid):
        return "error" not in tr.attrs.get(sid, {})

    def ms(sids):
        return [1e3 * dur[s] for s in sids]

    engine = [s for s in spans("maslov.rs_index") if rs_anc[s] == s and ok(s)]
    engine_set = set(engine)
    eval_calls = 0
    top_frames = 0
    top_eval_s = 0.0
    for sid in spans(EVAL_NAMES[0]) + spans(EVAL_NAMES[1]):
        if rs_anc[sid] in engine_set:
            eval_calls += 1
            p = parent[sid]
            if not (p >= 0 and in_eval[p]):
                top_frames += tr.count[sid]
                top_eval_s += dur[sid]
    engine_s = sum(dur[s] for s in engine)
    crossings = sum(tr.attrs.get(s, {}).get("crossings", 0) for s in engine)
    refused = [s for s in spans("maslov.rs_index")
               if tr.attrs.get(s, {}).get("error") == "IrregularCrossingError"]
    cli_main = spans("cli.main")
    cli_set = set(cli_main)
    cli_s = sum(dur[s] for s in cli_main)
    cli_child = sum(dur[s] for s in spans("maslov.rs_index") if parent[s] in cli_set)
    certs = spans("handle.transversality_certificate")
    cert_s = sum(dur[s] for s in certs)
    builds = spans("symplin.build")

    eval_share = top_eval_s / engine_s if engine else None
    m = {
        "symplin.eval_calls_per_index": eval_calls / len(engine) if engine else None,
        "symplin.frames_per_index": top_frames / len(engine) if engine else None,
        "symplin.eval_share": eval_share,
        "symplin.build_ms_per_case":
            1e3 * sum(dur[s] for s in builds) / cases if builds and cases else None,
        "maslov.rs_index_ms_p90": _p90(ms(engine)),
        "maslov.engine_share": 1.0 - eval_share if eval_share is not None else None,
        "maslov.frames_per_crossing": top_frames / crossings if crossings else None,
        "maslov.refuse_ms_p50": _p50(ms(refused)),
        "maslov.det2_winding_ms_p50": _p50(ms(spans("maslov.det2_winding"))),
        "cli.rs_index_ms_p50": _p50(ms(cli_main)),
        "cli.overhead_share": (cli_s - cli_child) / cli_s if cli_main else None,
        "spectrum.ode_ms_p50": _p50(ms(spans("spectrum.handle_rs_index_ode"))),
        "spectrum.chord_levels_ms_p50": _p50(ms(spans("spectrum.chord_levels"))),
        "handle.certificate_ms_p50": _p50(ms(certs)),
        "handle.surface_points_per_s":
            sum(tr.attrs[s]["surface_points"] for s in certs) / cert_s if certs else None,
        "profiles.ledger_ms_p50": _p50(ms(spans("profiles.verify_action_signs"))),
        "profiles.monotone_ms_p50": _p50(ms(spans("profiles.verify_monotone"))),
        "profiles.beta_ms_p50": _p50(ms(spans("profiles.build_beta"))),
        "homalg.homology_ms_p50": _p50(ms(spans("homalg.homology"))),
        "homalg.validate_ms_p50": _p50(ms(spans("homalg.validate"))),
        "homalg.direct_limit_ms_p50": _p50(ms(spans("homalg.direct_limit"))),
    }
    for n in (1, 2, 4, 6):
        m[f"maslov.rs_index_ms_p50.n{n}"] = _p50(
            ms([s for s in engine if tr.attrs[s].get("n") == n]))
    return m
