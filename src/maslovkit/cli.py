"""Command-line front end.

Every subcommand emits JSON (default) or CSV; exact half-integers are always
printed as {"halves": int}, floats with 12 significant digits.  Exit codes:
0 success / verification passed, 1 verification failed, 2 input error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import suites as suites_mod
from .errors import MaslovkitError, expect
from .halfint import HalfInt
from .handle import (
    GridSpec,
    HandleParams,
    liouville_flow,
    quadratic_model_path,
    transversality_certificate,
)
from .homalg import (
    ChainMap,
    DirectedSystem,
    FilteredZ2Complex,
    check_square,
    direct_limit,
    identity_system,
    model_flow_system,
    zero_map_system,
)
from .maslov import chord_maslov, det2_winding, rs_index
from .profiles import (
    SpectrumSet,
    TransferSchedule,
    build_beta,
    build_transfer_family,
    verify_action_signs,
    verify_monotone,
)
from .spectrum import (
    CoefficientProfile,
    chord_levels,
    handle_rs_index,
    perturbation_cluster_bounds,
    sweep_rows,
)
from .symplin import ConstantPath, LagrangianFrame, path_from_json

DEFAULT_SEED = 0


def _round_floats(obj, sig=12):
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return obj
        return float(f"{obj:.{sig}g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v, sig) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v, sig) for v in obj]
    if isinstance(obj, HalfInt):
        return obj.to_json()
    if isinstance(obj, (np.floating,)):
        return _round_floats(float(obj), sig)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _round_floats(obj.tolist(), sig)
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    return obj


def _emit(payload, args, csv_rows=None) -> None:
    if getattr(args, "format", "json") == "csv":
        if csv_rows is None:
            raise MaslovkitError("this subcommand has no CSV form")
        buf = io.StringIO()
        writer = csv.writer(buf)
        for row in csv_rows:
            writer.writerow(_round_floats(list(row)))
        text = buf.getvalue()
    else:
        text = json.dumps(_round_floats(payload), indent=2) + "\n"
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_json_input(args) -> dict:
    if getattr(args, "json", None):
        obj = json.loads(args.json)
    elif getattr(args, "infile", None):
        with open(args.infile) as fh:
            obj = json.load(fh)
    else:
        raise MaslovkitError("provide --in FILE or --json STRING")
    return expect(obj, dict, "JSON input")


def _pair_from_obj(obj):
    p0 = path_from_json(obj["path0"])
    p1 = path_from_json(obj["path1"])
    return p0, p1


# -- subcommand handlers -------------------------------------------------------


def _cmd_rs_index(args):
    p0, p1 = _pair_from_obj(_load_json_input(args))
    idx = rs_index((p0, p1))
    _emit({"schema": "v1", "halves": idx.halves}, args)
    return 0


def _cmd_det2_winding(args):
    obj = _load_json_input(args)
    loop = path_from_json(obj.get("loop", obj))
    w = det2_winding(loop)
    _emit({"schema": "v1", "winding": w}, args)
    return 0


def _cmd_chord_maslov(args):
    if args.model == "quadratic":
        flow = quadratic_model_path(args.n, args.k)
        ref = ConstantPath(LagrangianFrame.horizontal(args.n))
        idx = chord_maslov(flow, ref, args.n)
    else:
        obj = _load_json_input(args)
        p0, p1 = _pair_from_obj(obj)
        idx = chord_maslov(p0, p1, args.n)
    _emit({"schema": "v1", "halves": idx.halves}, args)
    return 0


def _cmd_handle_certify(args):
    params = HandleParams(n=args.n, k=args.k, epsilon=args.eps, delta=args.delta)
    cert = transversality_certificate(
        params,
        GridSpec(resolution=args.resolution, x_max=args.x_max,
                 y_max=args.y_max, z_max=args.z_max),
    )
    _emit(cert.to_json(), args)
    return 0 if cert.passed else 1


def _cmd_handle_flow(args):
    params = HandleParams(n=args.n, k=args.k, epsilon=args.eps, delta=args.delta)
    q = liouville_flow([float(v) for v in args.point.split(",")], args.t, params)
    _emit({"schema": "v1", "point": q.tolist()}, args)
    return 0


def _profile_from_args(args) -> CoefficientProfile:
    if args.table:
        table = json.loads(args.table)
        return CoefficientProfile.of(args.cx, args.cy, table)
    return CoefficientProfile.from_handle_params(
        args.eps, args.delta, cx=args.cx, cy=args.cy
    )


def _cmd_chord_levels(args):
    prof = _profile_from_args(args)
    levels = chord_levels(args.a, prof, args.z_max)
    payload = {
        "schema": "v1",
        "levels": [
            {
                "z": c.z_level,
                "m": c.multiplicity_condition,
                "constant": c.is_constant,
            }
            for c in levels
        ],
    }
    rows = [["z", "m", "constant"]] + [
        [c.z_level, c.multiplicity_condition, c.is_constant] for c in levels
    ]
    _emit(payload, args, csv_rows=rows)
    return 0


def _cmd_handle_index(args):
    if args.sweep:
        rows = sweep_rows(n_max=args.n_max, m_max=args.m_max)
        payload = {"schema": "v1", "rows": [dict(zip(rows[0], r)) for r in rows[1:]]}
        _emit(payload, args, csv_rows=rows)
        return 0
    if args.aCz is None:
        raise MaslovkitError("handle-index needs --aCz or --sweep")
    idx = handle_rs_index(args.n, args.k, 1.0, args.aCz)
    _emit({"schema": "v1", "halves": idx.halves}, args)
    return 0


def _cmd_cluster_bounds(args):
    lo, hi = perturbation_cluster_bounds(args.n, args.k, 1.0, args.aCz)
    _emit(
        {
            "schema": "v1",
            "cluster_low": list(lo),
            "cluster_high": list(hi),
        },
        args,
    )
    return 0


def _spectrum_from_args(args) -> SpectrumSet:
    if args.spectrum:
        return SpectrumSet.of([float(v) for v in args.spectrum.split(",")])
    return SpectrumSet.of([math.pi, 2 * math.pi, 3 * math.pi])


def _cmd_profile_build(args):
    spec = _spectrum_from_args(args)
    sched = TransferSchedule.seeded(spec, C=args.C, stages=args.stages)
    family = build_transfer_family(spec, args.C, sched)
    payload = {"schema": "v1", "profiles": [p.to_json() for p in family]}
    if args.samples < 0:
        raise MaslovkitError(f"--samples must be non-negative, got {args.samples}")
    if args.samples:
        rows = [["stage", "r", "value"]]
        for p in family:
            rs = np.linspace(0.0, 1.2 * p.max_breakpoint(), args.samples)
            values = p.value(rs).tolist()
            rows += [[p.metadata["stage"], r, v] for r, v in zip(rs.tolist(), values)]
        _emit(payload, args, csv_rows=rows)
    else:
        _emit(payload, args)
    return 0


def _cmd_profile_verify(args):
    spec = _spectrum_from_args(args)
    sched = TransferSchedule.seeded(spec, C=args.C, stages=args.stages)
    family = build_transfer_family(spec, args.C, sched)
    reports = []
    ok = True
    for p in family:
        rep = verify_action_signs(p, spectrum_w=spec, spectrum_outer=spec)
        ok &= rep.passed
        reports.append({"stage": p.metadata["stage"], "action_signs": rep.to_json()})
    monotone = []
    for h1, h2 in zip(family, family[1:]):
        mr = verify_monotone(h1, h2)
        ok &= mr.passed
        monotone.append(mr.to_json())
    payload = {"schema": "v1", "pass": ok, "stages": reports, "monotone": monotone}
    rows = None
    if args.format == "csv":
        rows = [["stage", "item", "pass", "action_min", "action_max", "margin"]]
        for rep, p in zip(reports, family):
            for item in rep["action_signs"]["items"]:
                rows.append([p.metadata["stage"], item["item"], item["pass"],
                             item["action_min"], item["action_max"], item["margin"]])
    _emit(payload, args, csv_rows=rows)
    return 0 if ok else 1


def _cmd_beta_build(args):
    beta = build_beta(args.eps, args.delta, args.rho, args.reeb_norm,
                      grid=args.grid)
    checks = beta.validate()
    payload = beta.to_json()
    if not args.samples:
        payload.pop("samples")
    ok = (
        checks["monotone"]
        and checks["envelope_ok"]
        and checks["knot_left"] == 0.0
        and checks["knot_right"] == 1.0
    )
    _emit(payload, args)
    return 0 if ok else 1


def _cmd_complex_validate(args):
    c = FilteredZ2Complex.from_json(_load_json_input(args))
    rep = c.validate()
    _emit(rep.to_json(), args)
    return 0 if rep.ok else 1


def _cmd_homology(args):
    c = FilteredZ2Complex.from_json(_load_json_input(args))
    rep = c.validate()
    if not rep.ok:
        _emit(rep.to_json(), args)
        return 1
    dims = c.homology()
    _emit({"schema": "v1", "dims": {str(k): v for k, v in dims.items()}}, args)
    return 0


def _cmd_subquotient(args):
    c = FilteredZ2Complex.from_json(_load_json_input(args))
    b = math.inf if args.b is None else args.b
    sub = c.subquotient(args.a, b)
    _emit(sub.to_json(), args)
    return 0


def _cmd_direct_limit(args):
    if args.system:
        if args.system == "identity-z2":
            sys_ = identity_system(args.len)
        elif args.system == "zero-z2":
            sys_ = zero_map_system(args.len)
        elif args.system == "hf-model":
            sys_ = model_flow_system(args.n, args.len)
        else:
            raise MaslovkitError(f"unknown built-in system {args.system!r}")
    else:
        sys_ = DirectedSystem.from_json(_load_json_input(args))
    res = direct_limit(sys_, window=args.window)
    _emit(res.to_json(), args)
    return 0


def _cmd_diagram_check(args):
    obj = _load_json_input(args)
    maps = {key: ChainMap.from_json(obj[key]) for key in
            ("psi_i", "psi_ip1", "phi_m", "phi_handle")}
    for m in maps.values():
        m.validate()
    ok = check_square(maps["psi_i"], maps["psi_ip1"], maps["phi_m"],
                      maps["phi_handle"])
    _emit({"schema": "v1", "commutes": ok}, args)
    return 0 if ok else 1


def _run_one_suite(name_seed_cases):
    return suites_mod.run_suite(*name_seed_cases).to_json()


def _cmd_verify_all(args):
    if args.cases < 1:
        raise MaslovkitError(f"--cases must be at least 1, got {args.cases}")
    names = sorted(suites_mod.SUITES)
    jobs = args.jobs if args.jobs else min(len(names), os.cpu_count() or 1)
    work = [(name, args.seed, args.cases) for name in names]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_one_suite, work))
    else:
        results = [_run_one_suite(w) for w in work]
    results.sort(key=lambda r: r["name"])
    ok = all(r["pass"] for r in results)
    for r in results:
        line = "PASS" if r["pass"] else "FAIL"
        sys.stderr.write(
            f"[{line}] {r['name']} ({r['cases']} cases, {r['elapsed_s']:.2f}s)\n"
        )
        for f in r["failures"][:5]:
            sys.stderr.write(f"        {f}\n")
    _emit({"schema": "v1", "pass": ok, "suites": results}, args)
    return 0 if ok else 1


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="maslovkit",
        description="Crossing-form indices, handle-model geometry, radial "
        "profiles, and filtered GF(2) chain algebra",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, csv_ok=True):
        p.add_argument("--out", help="write output to this file")
        p.add_argument("--format", choices=["json", "csv"] if csv_ok else ["json"],
                       default="json")

    def with_input(p):
        p.add_argument("--in", dest="infile", help="JSON input file")
        p.add_argument("--json", help="inline JSON input")

    p = sub.add_parser("rs-index", help="index of a Lagrangian path pair "
                       "(JSON: {path0, path1})")
    with_input(p)
    common(p, csv_ok=False)
    p.set_defaults(func=_cmd_rs_index)

    p = sub.add_parser("det2-winding", help="winding of det^2 along a loop")
    with_input(p)
    common(p, csv_ok=False)
    p.set_defaults(func=_cmd_det2_winding)

    p = sub.add_parser("chord-maslov", help="chord grading rs - n/2")
    p.add_argument("--model", choices=["quadratic"], help="built-in model flow")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=0, help="model rotation count")
    with_input(p)
    common(p, csv_ok=False)
    p.set_defaults(func=_cmd_chord_maslov)

    p = sub.add_parser("handle-certify", help="level-set transversality certificate")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--resolution", type=int, default=50)
    p.add_argument("--x-max", type=float, default=1.0)
    p.add_argument("--y-max", type=float, default=3.0)
    p.add_argument("--z-max", type=float, default=1.0)
    common(p, csv_ok=False)
    p.set_defaults(func=_cmd_handle_certify)

    p = sub.add_parser("handle-flow", help="closed-form model flow of a point")
    p.add_argument("--point", required=True, help="comma-separated coordinates")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--delta", type=float, default=0.05)
    common(p, csv_ok=False)
    p.set_defaults(func=_cmd_handle_flow)

    p = sub.add_parser("chord-levels", help="chord levels of the rotation locus")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--cx", type=float, default=1.0)
    p.add_argument("--cy", type=float, default=1.0)
    p.add_argument("--table", help="inline JSON [[z, Cz], ...] overriding eps/delta")
    p.add_argument("--z-max", type=float, default=None)
    common(p)
    p.set_defaults(func=_cmd_chord_levels)

    p = sub.add_parser("handle-index", help="chord index from the closed form")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--aCz", type=float, help="rotation angle a*Cz")
    p.add_argument("--sweep", action="store_true",
                   help="emit the (n, k, m) agreement sweep")
    p.add_argument("--n-max", type=int, default=5)
    p.add_argument("--m-max", type=int, default=4)
    common(p)
    p.set_defaults(func=_cmd_handle_index)

    p = sub.add_parser("cluster-bounds", help="index windows of the split chord clusters")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--aCz", type=float, required=True)
    common(p, csv_ok=False)
    p.set_defaults(func=_cmd_cluster_bounds)

    p = sub.add_parser("profile-build", help="build the staged transfer profiles")
    p.add_argument("--spectrum", help="comma-separated chord periods")
    p.add_argument("--C", type=float, default=2.0)
    p.add_argument("--stages", type=int, default=3)
    p.add_argument("--samples", type=int, default=0,
                   help="with --format csv: emit this many profile samples")
    common(p)
    p.set_defaults(func=_cmd_profile_build)

    p = sub.add_parser("profile-verify", help="action ledger and monotonicity report")
    p.add_argument("--spectrum", help="comma-separated chord periods")
    p.add_argument("--C", type=float, default=2.0)
    p.add_argument("--stages", type=int, default=3)
    common(p)
    p.set_defaults(func=_cmd_profile_verify)

    p = sub.add_parser("beta-build", help="interpolation cutoff with envelope checks")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--reeb-norm", type=float, required=True)
    p.add_argument("--grid", type=int, default=10_000)
    p.add_argument("--samples", action="store_true", help="include the sample table")
    common(p, csv_ok=False)
    p.set_defaults(func=_cmd_beta_build)

    p = sub.add_parser("complex-validate", help="d^2, degree, and action checks")
    with_input(p)
    common(p, csv_ok=False)
    p.set_defaults(func=_cmd_complex_validate)

    p = sub.add_parser("homology", help="GF(2) homology dimensions per degree")
    with_input(p)
    common(p, csv_ok=False)
    p.set_defaults(func=_cmd_homology)

    p = sub.add_parser("subquotient", help="action-window subquotient complex")
    with_input(p)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, default=None)
    common(p, csv_ok=False)
    p.set_defaults(func=_cmd_subquotient)

    p = sub.add_parser("direct-limit", help="direct limit of a graded system")
    with_input(p)
    p.add_argument("--system", choices=["identity-z2", "zero-z2", "hf-model"])
    p.add_argument("--len", type=int, default=10)
    p.add_argument("--n", type=int, default=1, help="hf-model grading step")
    p.add_argument("--window", type=int, default=3)
    common(p, csv_ok=False)
    p.set_defaults(func=_cmd_direct_limit)

    p = sub.add_parser("diagram-check", help="commutativity of a continuation square")
    with_input(p)
    common(p, csv_ok=False)
    p.set_defaults(func=_cmd_diagram_check)

    p = sub.add_parser("verify-all", help="run every verification suite")
    p.add_argument("--cases", type=int, default=100)
    p.add_argument("--jobs", type=int, default=0,
                   help="parallel workers (default: one per processor)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    common(p, csv_ok=False)
    p.set_defaults(func=_cmd_verify_all)

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing does not change it."""
    return build_parser()


def main(argv=None) -> int:
    ap = _parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except MaslovkitError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as e:
        sys.stderr.write(f"input error: {type(e).__name__}: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
