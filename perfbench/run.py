"""The maslovkit benchmark: checked cases in a closed loop, timed end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --seed N --case ROUND:INDEX
    python3 perfbench/run.py --self-test [--seed N]

One process and one caller: each case starts when the previous one ends.
Inputs are drawn from the seed; every answer is checked (see cases.py).  The
last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a separate traced run.  The full record of a run (run record,
sample counts, wrong and error fractions, replay records of failed cases, and
for traced runs the spans) is written under perfbench/out/.
"""

import os

# Pin BLAS before NumPy loads it, so a 2-core box measures the program and
# not the thread scheduler.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

MIN_CASES = 100  # so that at least ten cases lie beyond p90
SETUP_PROBES = 5
CAL_REF_S = 5e-3  # the calibration kernel's time on the reference host
CAL_EVERY_S = 0.25  # case time between two calibrations
WARMUP_ROUND = 1_000_000  # rounds whose cases warm up and self-test ...
SLICE_ROUND = 2_000_000  # ... and fill per-layer metrics in traced runs

# Traced runs of one workload fill the per-layer metrics it never reaches
# from one round of the workload that owns them (metric name prefixes).
COVERAGE = [
    ("pairs-generator", None, ("symplin.", "maslov.rs_index", "maslov.engine_share",
                               "maslov.frames_per_crossing")),
    ("pairs-composite", None, ("maslov.det2_winding", "cli.")),
    ("pairs-hard", "degenerate", ("maslov.refuse",)),
    ("chords-certify", None, ("spectrum.", "handle.", "profiles.", "homalg.")),
]


def load_cases():
    """Import maslovkit from this checkout's src/ and the case definitions."""
    sys.path.insert(0, SRC)
    try:
        import maslovkit
    except ImportError as e:
        sys.exit(f"perfbench: cannot import maslovkit from {SRC}: {e}")
    if not os.path.abspath(maslovkit.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: maslovkit came from {maslovkit.__file__}, not {SRC}")
    import cases
    return cases


# ---------------------------------------------------------------------------
# Calibration: the shared host changes speed, by up to 1.7x, for seconds to
# minutes at a time, and CPU time follows wall time.  A fixed kernel with no
# maslovkit in it is timed between cases, and each case time is scaled by
# CAL_REF_S / (the kernel's time around it): times are reported as they would
# read on a host where the kernel takes CAL_REF_S.  Raw times are kept in the
# run record.
# ---------------------------------------------------------------------------


class Calibration:
    """Small-matrix NumPy/SciPy calls and a Python loop, like a case's mix."""

    def __init__(self):
        import numpy as np
        from scipy.linalg import expm
        rng = np.random.default_rng(0)
        self.np, self.expm = np, expm
        self.mats = [rng.normal(size=(2 * n, 2 * n)) for n in (1, 2, 4, 6)]
        self.stack = rng.normal(size=(256, 8, 8))
        self()  # first calls load code paths

    def __call__(self):
        """Seconds the kernel takes now."""
        np = self.np
        t0 = perf_counter()
        for _ in range(10):
            for m in self.mats:
                self.expm(m)
                np.linalg.qr(m)
                np.linalg.svd(m)
            np.linalg.det(self.stack)
            acc = 0.0
            for i in range(2000):
                acc += i * 0.5
        return perf_counter() - t0


def scale(t, before, after):
    return t * CAL_REF_S / ((before + after) / 2)


# ---------------------------------------------------------------------------
# Running rounds of cases
# ---------------------------------------------------------------------------


class Phase:
    """Per-case times and outcomes of one stretch of rounds."""

    def __init__(self):
        self.times = []
        self.kinds = []
        self.status = []
        self.failures = []
        self.cal = []  # (cases done, kernel seconds) of each calibration

    def __len__(self):
        return len(self.times)

    @property
    def elapsed(self):
        return sum(self.times)

    def count(self, status):
        return self.status.count(status)

    def scaled_times(self):
        """Case times scaled by the calibrations just before and after each."""
        out, j = [], 0
        for i, t in enumerate(self.times):
            while self.cal[j + 1][0] <= i:
                j += 1
            out.append(scale(t, self.cal[j][1], self.cal[j + 1][1]))
        return out



def run_rounds(C, lib, cal, wl, seed, first_round, seconds, min_cases, only=None,
               max_rounds=None):
    """Whole rounds until the case time reaches ``seconds`` (give or take half
    a round) and at least ``min_cases`` cases ran, calibrating before the
    first case, after the last, and every CAL_EVERY_S of case time."""
    tracer = lib.tracer
    ph = Phase()
    ph.cal.append((0, cal()))
    since = 0.0
    rnd = first_round
    while True:
        plan = C.round_plan(wl, seed, rnd)
        for idx, (kname, _) in enumerate(plan):
            if only and kname != only:
                continue
            kind = C.KINDS[kname]
            _, x = C.case_inputs(wl, seed, rnd, idx, plan)
            t0 = perf_counter()
            if tracer:
                excl = tracer.excluded_total
                with tracer.span("case"):
                    status, detail, _ = C.run_case(lib, kind, x)
                dt = perf_counter() - t0 - (tracer.excluded_total - excl)
            else:
                status, detail, _ = C.run_case(lib, kind, x)
                dt = perf_counter() - t0
            ph.times.append(dt)
            ph.kinds.append(kname)
            ph.status.append(status)
            since += dt
            if since >= CAL_EVERY_S:
                ph.cal.append((len(ph), cal()))
                since = 0.0
            if status != "ok":
                ph.failures.append(replay_record(C, wl, seed, rnd, idx, kname, x,
                                                 status, detail))
        rnd += 1
        done = rnd - first_round
        if max_rounds and done >= max_rounds:
            break
        if len(ph) >= min_cases and ph.elapsed * (1 + 0.5 / done) >= seconds:
            break
    if ph.cal[-1][0] != len(ph):
        ph.cal.append((len(ph), cal()))
    return ph, rnd


def replay_record(C, wl, seed, rnd, idx, kname, x, status, detail):
    rec = {"workload": wl.name, "seed": seed, "round": rnd, "index": idx,
           "kind": kname, "known_defect": C.KINDS[kname].known_defect,
           "params": x["params"], "status": status, "detail": detail,
           "replay": f"python3 perfbench/run.py --workload {wl.name} --seed {seed} "
                     f"--case {rnd}:{idx}"}
    if "p0" in x:
        rec["frame_cond_max"] = frame_condition(C, x)
    return rec


def frame_condition(C, x):
    """Largest condition number of the generator-path frames of a pair."""
    import numpy as np
    lib = C.Lib()
    ts = np.linspace(0.0, 1.0, 65)
    return max(float(np.max(np.linalg.cond(C.generator_path(lib, x[k]).frames(ts))))
               for k in ("p0", "p1"))


def warm_up(C, lib, wl, seed):
    """Run one case of each kind (none of the slow refusals) before timing,
    and self-test every check on the real answers it gave."""
    plan = C.round_plan(wl, seed, WARMUP_ROUND)
    report = {}
    for idx, (kname, _) in enumerate(plan):
        if kname in report:
            continue
        kind = C.KINDS[kname]
        if kind.check is None:
            report[kname] = C.self_test_kind(kind, None, None, None, None)
            continue
        _, x = C.case_inputs(wl, seed, WARMUP_ROUND, idx, plan)
        report[kname] = C.self_test_kind(kind, x, *C.run_case(lib, kind, x))
        if report[kname].startswith("failed"):
            report[kname] += f" (rerun: --case {WARMUP_ROUND}:{idx})"
    return report


def self_test_ok(report):
    return all(v == "ok" or v.startswith("skipped") for v in report.values())


# ---------------------------------------------------------------------------
# Metrics and the run record
# ---------------------------------------------------------------------------


def hd_quantile(xs, q):
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of all
    order statistics.  A workload's case times fall in clusters (by n and by
    kind), and a single order statistic jumps across the gaps between them."""
    import numpy as np
    from scipy.stats import beta
    x = np.sort(xs)
    n = len(x)
    w = np.diff(beta.cdf(np.arange(n + 1) / n, (n + 1) * q, (n + 1) * (1 - q)))
    return float(w @ x)


def measure_setup(cal, wl_name, seed):
    """Median wall time, scaled by the calibrations around each, of fresh
    processes that import maslovkit and draw the first round's inputs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", wl_name, "--seed", str(seed)]
    times, cals = [], [cal()]
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        # no timeout: with one, the wait polls and rounds up to 50 ms steps
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
        cals.append(cal())
    scaled = [scale(t, a, b) for t, a, b in zip(times, cals, cals[1:])]
    return statistics.median(scaled), times


def blas_threads():
    import numpy as np
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def run_record(wl_name, seed, trace, attempted):
    import numpy as np
    import scipy
    commit = None
    try:
        top, head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                                   cwd=ROOT, capture_output=True, text=True
                                   ).stdout.split() or (None, None)
        if top and os.path.samefile(top, ROOT):
            commit = head
    except (OSError, ValueError):
        pass  # no git, or not a git checkout: the source digest still identifies it
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "maslovkit", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "workload": wl_name,
        "seed": seed,
        "trace": trace,
        "cases": attempted,
    }


def phase_summary(ph):
    by_kind = {}
    for k, t, s in zip(ph.kinds, ph.scaled_times(), ph.status):
        e = by_kind.setdefault(k, {"cases": 0, "wrong": 0, "error": 0, "ms": []})
        e["cases"] += 1
        e["ms"].append(1e3 * t)
        if s != "ok":
            e[s] += 1
    for e in by_kind.values():
        e["ms_p50"] = statistics.median(e.pop("ms"))
    n = len(ph)
    return {"cases": n, "case_seconds": ph.elapsed,
            "calibration_s": [c for _, c in ph.cal],
            "wrong_frac": ph.count("wrong") / n, "error_frac": ph.count("error") / n,
            "by_kind": by_kind, "case_kinds": ph.kinds,
            "case_ms": [1e3 * t for t in ph.scaled_times()],
            "case_ms_raw": [1e3 * t for t in ph.times]}


def latency_metrics(times):
    ms = [1e3 * t for t in times]
    return {"cases_per_s": len(times) / sum(times),
            "case_ms_p50": hd_quantile(ms, 0.5), "case_ms_p90": hd_quantile(ms, 0.9)}


def end_to_end(C, wl, seed, seconds):
    cal = Calibration()
    setup_s, setup_raw = measure_setup(cal, wl.name, seed)
    lib = C.Lib()
    selftest = warm_up(C, lib, wl, seed)
    ph, _ = run_rounds(C, lib, cal, wl, seed, 0, seconds, MIN_CASES)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {**latency_metrics(ph.scaled_times()), "setup_s": setup_s, "peak_rss_mb": rss_mb}
    raw = {**latency_metrics(ph.times), "setup_s": statistics.median(setup_raw)}
    extra = {"raw": raw, "setup_probes_s": setup_raw, "latency_samples": len(ph)}
    return metrics, [ph], selftest, extra, None


def layered(C, wl, seed, seconds):
    from spans import Tracer, layer_metrics
    cal = Calibration()
    plain = C.Lib()
    selftest = warm_up(C, plain, wl, seed)
    ph_plain, nxt = run_rounds(C, plain, cal, wl, seed, 0, seconds / 2, 0)
    tracer = Tracer()
    ph_traced, _ = run_rounds(C, C.Lib(tracer), cal, wl, seed, nxt, seconds / 2, 0)
    layers = layer_metrics(tracer, len(ph_traced))
    sources = {k: wl.name for k, v in layers.items() if v is not None}
    tracers = {wl.name: tracer}
    phases = [ph_plain, ph_traced]
    for owner, only, prefixes in COVERAGE:
        missing = [k for k, v in layers.items() if v is None and k.startswith(prefixes)]
        if not missing:
            continue
        tr = Tracer()
        ph, _ = run_rounds(C, C.Lib(tr), cal, C.WORKLOADS[owner], seed, SLICE_ROUND, 0, 0,
                           only=only, max_rounds=1)
        phases.append(ph)
        tracers[owner] = tr
        got = layer_metrics(tr, len(ph))
        for k in missing:
            layers[k], sources[k] = got[k], owner
    still = [k for k, v in layers.items() if v is None]
    if still:
        raise RuntimeError(f"no spans fed the per-layer metrics {still}")
    plain_cps = len(ph_plain) / sum(ph_plain.scaled_times())
    traced_cps = len(ph_traced) / sum(ph_traced.scaled_times())
    layers["trace.overhead_share"] = 1.0 - traced_cps / plain_cps
    extra = {"sources": sources, "untraced_cases_per_s": plain_cps,
             "traced_cases_per_s": traced_cps}
    return layers, phases, selftest, extra, tracers


def declared_units(section):
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--case", help="rerun one case, ROUND:INDEX, and print its outcome")
    ap.add_argument("--self-test", action="store_true",
                    help="check that every check rejects perturbed answers")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    return args


def main(argv=None):
    args = parse_args(argv)
    C = load_cases()
    if args.self_test:
        reports = {name: warm_up(C, C.Lib(), wl, args.seed)
                   for name, wl in C.WORKLOADS.items()}
        print(json.dumps(reports, indent=1))
        return 0 if all(self_test_ok(r) for r in reports.values()) else 1
    wl = C.WORKLOADS.get(args.workload)
    if wl is None:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(C.WORKLOADS)}")
    if args.setup_probe:
        plan = C.round_plan(wl, args.seed, 0)
        for idx in range(len(plan)):
            C.case_inputs(wl, args.seed, 0, idx, plan)
        return 0
    if args.case:
        rnd, idx = (int(v) for v in args.case.split(":"))
        kname, x = C.case_inputs(wl, args.seed, rnd, idx)
        status, detail, answer = C.run_case(C.Lib(), C.KINDS[kname], x)
        print(json.dumps({"workload": wl.name, "seed": args.seed, "round": rnd,
                          "index": idx, "kind": kname, "params": x["params"],
                          "status": status, "detail": detail,
                          "answer": {k: v for k, v in (answer or {}).items() if k != "ctx"}},
                         default=str))
        return 0

    run = layered if args.trace else end_to_end
    values, phases, selftest, extra, tracers = run(C, wl, args.seed, args.seconds)
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(values) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(values) ^ set(units)}")
    attempted = sum(len(ph) for ph in phases)
    failures = [f for ph in phases for f in ph.failures]
    unexpected = [f for f in failures if not f["known_defect"]]
    correct = self_test_ok(selftest) and not unexpected
    record = run_record(wl.name, args.seed, args.trace, attempted)
    detail = {"run_record": record, "self_test": selftest,
              "phases": [phase_summary(ph) for ph in phases], **extra,
              "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
              "replays": failures}
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{wl.name}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(detail, fh, indent=1, default=str)
    for owner, tr in (tracers or {}).items():
        tr.write(f"{stem}-spans-{owner}")
    print(json.dumps({"run_record": record, "wrong_frac": detail["phases"][0]["wrong_frac"],
                      "error_frac": detail["phases"][0]["error_frac"],
                      "replays": len(failures), "raw": extra.get("raw"),
                      "calibration_s_median": statistics.median(
                          c for _, c in phases[0].cal)}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": detail["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
