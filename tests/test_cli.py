"""The command-line front end: its exit-code contract (0/1/2, no traceback),
its parser, and the suite registry that ``verify-all`` runs."""

import argparse
import json
import math

import numpy as np
import pytest

from maslovkit import cli
from maslovkit.cli import build_parser
from maslovkit.errors import IrregularCrossingError
from maslovkit.suites import SUITES, _run_cases, run_suite, suite_args
from maslovkit.symplin import LagrangianFrame, SampledPath, rotation_path


def test_handle_index_without_angle_or_sweep_is_input_error(capsys):
    assert cli.main(["handle-index", "--n", "3", "--k", "1"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


# a -> b, the one differential of a two-generator complex
_LINE = {"generators": [{"id": "a", "degree": 1, "action": 2},
                        {"id": "b", "degree": 0, "action": 1}],
         "differential": [["b", "a"]]}


@pytest.mark.parametrize("argv", [
    # top-level JSON that is not an object
    ["rs-index", "--json", "[]"], ["homology", "--json", "[]"],
    ["complex-validate", "--json", "[]"], ["subquotient", "--a", "0", "--json", "[]"],
    ["direct-limit", "--json", "[]"], ["diagram-check", "--json", "[]"],
    ["chord-maslov", "--n", "1", "--json", "[]"], ["det2-winding", "--json", "[1]"],
    ["rs-index", "--json", "3"],
    # members of the wrong type
    ["rs-index", "--json", '{"path0": 1, "path1": 1}'],
    ["homology", "--json", '{"generators": 1, "d": 2}'],
    ["direct-limit", "--json", '{"stages": 1}'],
    ["diagram-check", "--json",
     '{"psi_i": 1, "psi_ip1": 1, "phi_m": 1, "phi_handle": 1}'],
    # non-finite angles and slopes
    ["handle-index", "--aCz", "inf"], ["handle-index", "--aCz", "nan"],
    ["cluster-bounds", "--n", "3", "--k", "1", "--aCz", "inf"],
    ["chord-levels", "--a", "inf"], ["chord-levels", "--a", "nan"],
    # empty schedules and windows
    ["profile-verify", "--stages", "0"], ["profile-build", "--stages", "0"],
    ["profile-build", "--stages", "-1"],
    ["direct-limit", "--system", "identity-z2", "--window", "0"],
    ["direct-limit", "--system", "zero-z2", "--window", "-2"],
    # a path domain that is reversed
    ["rs-index", "--json", json.dumps({
        "path0": {"kind": "generator", "domain": [1, 0], "S": [[2, 0], [0, 2]],
                  "frame0": [[1], [0]]},
        "path1": {"kind": "generator", "domain": [1, 0], "S": [[0, 0], [0, 0]],
                  "frame0": [[0], [1]]}})],
    # a generator S that is not 2n x 2n for its frame, or not square
    *(["rs-index", "--json", json.dumps({
        "path0": {"kind": "generator", "S": s, "frame0": [[1], [0]]},
        "path1": {"kind": "generator", "S": [[0, 0], [0, 0]], "frame0": [[0], [1]]}})]
      for s in (np.eye(4).tolist(), [[2, 0, 0], [0, 2, 0]])),
    # flows that leave the float range or have no time
    ["handle-flow", "--point", "1,2,3,4", "--t", "1e6"],
    ["handle-flow", "--point", "1,2,3,4", "--t", "nan"],
    # non-finite periods, cutoff parameters, handle sizes, tables and scales
    ["profile-verify", "--spectrum", "1,nan"], ["profile-build", "--spectrum", "inf"],
    ["beta-build", "--eps", "0.1", "--delta", "0.05", "--rho", "nan", "--reeb-norm", "1"],
    ["beta-build", "--eps", "0.1", "--delta", "inf", "--rho", "1", "--reeb-norm", "1"],
    ["handle-certify", "--eps", "nan", "--delta", "0.05"],
    ["handle-certify", "--eps", "0.1", "--delta", "inf"],
    ["handle-certify", "--eps", "0.1", "--delta", "0.05", "--y-max", "nan"],
    ["chord-levels", "--a", "100", "--table", "[[0, 1], [1, NaN]]"],
    ["chord-levels", "--a", "100", "--eps", "nan"], ["profile-verify", "--C", "nan"],
    # a certificate grid of negative resolution, a negative sample count
    ["handle-certify", "--eps", "0.1", "--delta", "0.05", "--resolution", "-5"],
    ["profile-build", "--samples", "-5", "--format", "csv"],
    # a sampled path whose interpolated frame passes through zero
    ["rs-index", "--json", json.dumps({
        "path0": {"kind": "samples", "times": [0, 1], "frames": [[[1], [0]], [[-1], [0]]]},
        "path1": {"kind": "generator", "S": [[0, 0], [0, 0]], "frame0": [[0], [1]]}})],
    # sample times that are not 1-D
    ["rs-index", "--json", json.dumps({
        "path0": {"kind": "samples", "times": [[0, 1]], "frames": [[[1], [0]]]},
        "path1": {"kind": "generator", "S": [[0, 0], [0, 0]], "frame0": [[0], [1]]}})],
    # a zero frame column, at the start of a generator path or the ends of a loop
    ["rs-index", "--json", json.dumps({
        "path0": {"kind": "generator", "S": [[0, 0], [0, 0]], "frame0": [[0], [0]]},
        "path1": {"kind": "generator", "S": [[0, 0], [0, 0]], "frame0": [[0], [1]]}})],
    ["det2-winding", "--json", json.dumps({
        "kind": "samples", "times": [0, 0.5, 1], "frames": [[[0], [0]], [[1], [1]], [[0], [0]]]})],
    # a cutoff grid with no interior radius, a model of no dimension
    ["beta-build", "--eps", "0.1", "--delta", "0.05", "--rho", "1", "--reeb-norm", "1",
     "--grid", "0"],
    ["beta-build", "--eps", "0.1", "--delta", "0.05", "--rho", "1", "--reeb-norm", "1",
     "--grid", "1"],
    ["chord-maslov", "--model", "quadratic", "--n", "0", "--k", "0"],
    # JSON booleans where integers are asked for
    ["homology", "--json", json.dumps({
        "generators": [{"id": "a", "degree": True, "action": 1}], "differential": []})],
    ["direct-limit", "--json", json.dumps({"stages": [{"0": True}], "maps": []})],
    # a negative stage dimension, negative box sides, an empty sweep range
    ["direct-limit", "--json", json.dumps({"stages": [{"0": -1}], "maps": []})],
    ["handle-certify", "--eps", "0.1", "--delta", "0.05", "--z-max", "-1"],
    ["handle-certify", "--eps", "0.1", "--delta", "0.05", "--x-max", "-1"],
    ["handle-index", "--sweep", "--m-max", "0"], ["handle-index", "--sweep", "--n-max", "1"],
    # four copies of a map that does not commute with d
    ["diagram-check", "--json", json.dumps(dict.fromkeys(
        ("psi_i", "psi_ip1", "phi_m", "phi_handle"), {
            "source": _LINE, "target": _LINE, "entries": [["b", "b"]]}))],
    # stage counts of 39 and up: stage 39's outer blend width rounds to 0
    ["profile-build", "--stages", "39"], ["profile-build", "--stages", "1025"],
    ["profile-verify", "--stages", "2000"],
], ids=" ".join)
def test_bad_input_exits_2_with_one_error_line(argv, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.startswith("error:") and len(captured.err.strip().splitlines()) == 1


def test_direct_limit_window_one_with_a_widening_last_map(capsys):
    system = {"stages": [{"0": 1}, {"0": 2}], "maps": [{"0": [[1], [0]]}]}
    assert cli.main(["direct-limit", "--window", "1", "--json", json.dumps(system)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["dims"] == {"0": 2} and out["stabilized"] == {"0": False}


def test_verify_all_rejects_fewer_than_one_case(capsys):
    for cases in ("0", "-1"):
        assert cli.main(["verify-all", "--cases", cases, "--jobs", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert captured.err.startswith("error:") and len(captured.err.strip().splitlines()) == 1


def test_handle_index_with_angle(capsys):
    # a Cz = 4 pi is the m = 2 chord: n/2 + (n - k)(m - 1/2) = 3/2 + 3 = 9/2
    argv = ["handle-index", "--n", "3", "--k", "1", "--aCz", repr(4 * math.pi)]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["halves"] == 9


def test_handle_index_sweep_to_m_8(capsys):
    # the ODE route's Richardson check holds at the sweep's step to m = 8
    assert cli.main(["handle-index", "--sweep", "--m-max", "8"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert len(rows) == 10 * 8
    assert all(r["mu_RS_formula_halves"] == r["mu_RS_ode_halves"] for r in rows)


def test_rs_index_ignores_an_old_sample_resolution(capsys):
    # the line turns from 0 to 5 pi / 4 and passes the vertical once, upward
    ts = np.linspace(0.0, 1.0, 25)
    path0 = SampledPath(ts, rotation_path(1, 1.25 * np.pi).frames(ts)).to_json()
    path1 = rotation_path(1, 0.0, frame0=LagrangianFrame.vertical(1)).to_json()
    assert "sample_resolution" not in path0 and "sample_resolution" not in path1
    halves = []
    for old in ({}, {"sample_resolution": 7}):
        doc = {"path0": {**path0, **old}, "path1": {**path1, **old}}
        assert cli.main(["rs-index", "--json", json.dumps(doc)]) == 0
        halves.append(json.loads(capsys.readouterr().out)["halves"])
    assert halves == [2, 2]


def test_parser_built_once_per_process(monkeypatch, capsys):
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    cli._parser.cache_clear()
    try:
        argv = ["handle-index", "--aCz", repr(4 * math.pi)]
        assert cli.main(argv) == 0
        # the second call must not see the first call's angle
        assert cli.main(["handle-index"]) == 2
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    assert capsys.readouterr().err.startswith("error: handle-index needs")


def test_only_verify_all_takes_a_seed(capsys):
    ap = build_parser()
    sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    seeded = [name for name, p in sub.choices.items()
              if any("--seed" in a.option_strings for a in p._actions)]
    assert len(sub.choices) == 17 and seeded == ["verify-all"]
    # elsewhere it is an unknown option, exit 2 like any other
    assert cli.main(["handle-index", "--aCz", "1.0", "--seed", "3"]) == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


def test_run_suite_sets_the_wall_time():
    assert run_suite("handle.radial_slope").elapsed > 0


def test_suite_registry_seeds_and_counts():
    s, c = 7, 30
    want = {
        "maslov.naturality": (s, c),
        "maslov.concatenation": (s + 1, c),
        "maslov.product": (s + 2, c),
        "maslov.localization": (s + 3, c),
        "maslov.reparametrization": (s + 4, c),
        "maslov.loop_consistency": (s + 5, 50),
        "handle.identities": (s + 10,),
        "handle.certification": (),
        "handle.radial_slope": (),
        "profiles.transfer_ledger": (),
        "profiles.beta_envelope": (),
        "spectrum.agreement": (),
        "homalg.checks": (s + 20,),
    }
    assert {name: suite_args(name, s, c) for name in SUITES} == want
    assert suite_args("maslov.loop_consistency", s, 300) == (s + 5, 150)


def test_suite_failure_names_seed_and_attempt():
    draws = []

    def case(rng, i):
        draws.append(rng.random())
        if len(draws) == 1:
            raise IrregularCrossingError(0.0)  # replaced: attempt 0 is not case 0
        if i == 1:
            raise AssertionError("boom")

    r = _run_cases("demo", 3, case, seed=5)
    assert r.failures == ["case 1 (seed 5, attempt 2): boom"]
    # the line is enough to replay the draw
    assert draws[2] == np.random.default_rng((5, 2)).random()
