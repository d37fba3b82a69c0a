"""Benchmark cases: raw inputs drawn from a seed, library calls, checks.

A case builds the library's objects from raw arrays, makes one or more public
calls and checks the answer.  Every check uses an oracle that does not run
the crossing engine on its own: a closed form (the sum of rotation speeds, a
signature difference, the chord-index formula), a relation between answers
(additivity, invariance), the homology of a complex built here with known
homology, or ``HandleChord.check``.

Inputs depend only on (seed, workload, round, index), so any single case can
be rebuilt and rerun alone.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np
from scipy.linalg import expm

from maslovkit import cli, homalg, maslov, profiles, spectrum, symplin
from maslovkit.errors import IrregularCrossingError, NotAChordLevelError
from maslovkit.halfint import HalfInt
from maslovkit.handle import GridSpec, HandleParams, transversality_certificate

# ---------------------------------------------------------------------------
# The library entry points, plain or traced
# ---------------------------------------------------------------------------


class Lib:
    """The public calls the cases make.  With a tracer each one is a span."""

    def __init__(self, tracer=None):
        self.tracer = tracer

        def w(name, fn, attrs=None):
            return tracer.wrap(name, fn, attrs) if tracer else fn

        self.det2_winding = w("maslov.det2_winding", maslov.det2_winding)
        self.certificate = w(
            "handle.transversality_certificate", transversality_certificate,
            lambda a, r: {"surface_points": r.n_surface_points})
        self.chord_index = w("spectrum.handle_rs_index", spectrum.handle_rs_index)
        self.chord_index_ode = w("spectrum.handle_rs_index_ode",
                                 spectrum.handle_rs_index_ode)
        self.chord_levels = w("spectrum.chord_levels", spectrum.chord_levels)
        self.transfer_family = w("profiles.build_transfer_family",
                                 profiles.build_transfer_family)
        self.ledger = w("profiles.verify_action_signs", profiles.verify_action_signs)
        self.monotone = w("profiles.verify_monotone", profiles.verify_monotone)
        self.beta = w("profiles.build_beta", profiles.build_beta)
        self.homology = w("homalg.homology", homalg.FilteredZ2Complex.homology)
        self.validate = w("homalg.validate", homalg.FilteredZ2Complex.validate)
        self.direct_limit = w("homalg.direct_limit", homalg.direct_limit)
        if tracer is None:
            self.rs_index = maslov.rs_index
            self.cli_main = cli.main
            return
        # The crossings behind each index are counted by a second, untimed
        # engine run, so that frames per crossing needs no hook in the engine.
        self.rs_index = w(
            "maslov.rs_index", maslov.rs_index,
            lambda a, r: {"n": a[0][0].n,
                          "crossings": len(tracer.untimed(maslov.rs_crossings, a[0]))})
        main = w("cli.main", cli.main)
        inner = w("maslov.rs_index", maslov.rs_index)

        def cli_main(argv):
            saved = cli.rs_index
            cli.rs_index = inner
            try:
                return main(argv)
            finally:
                cli.rs_index = saved

        self.cli_main = cli_main

    def path(self, p):
        """A path the engine will evaluate; traced runs record its evaluations."""
        return self.tracer.wrap_path(p) if self.tracer else p

    def build(self):
        """The span that object construction is charged to."""
        return self.tracer.span("symplin.build") if self.tracer else contextlib.nullcontext()


# ---------------------------------------------------------------------------
# Raw inputs and the objects built from them
# ---------------------------------------------------------------------------


def _sym(a):
    return (a + a.T) / 2


def _symplectic(b):
    """exp(J sym(b)), as ``symplin.random_symplectic`` makes it."""
    n = b.shape[0] // 2
    return expm(symplin.complex_structure(n) @ _sym(b))


def _draw_generator(rng, n, scale):
    """Raw arrays of one generator path, in the order the suites draw them."""
    return (rng.normal(size=(2 * n, 2 * n), scale=scale),
            rng.normal(size=(2 * n, 2 * n)))


def generator_path(lib, arrays):
    a, b = arrays
    n = a.shape[0] // 2
    frame = symplin.LagrangianFrame.from_columns(
        _symplectic(b) @ symplin.LagrangianFrame.horizontal(n).columns)
    return lib.path(symplin.GeneratorPath(_sym(a), frame))


def _signature(a):
    ev = np.linalg.eigvalsh(a)
    return int(np.sum(ev > 0) - np.sum(ev < 0))


def _speeds(rng, mags):
    """Rotation speeds: fixed magnitudes, seeded signs and order.  Fixed
    magnitudes fix the crossing count, so a case costs the same on any seed."""
    return rng.permutation(np.asarray(mags) * rng.choice([-1, 1], size=len(mags)))


def _slot_mags(n):
    return [1 + i % 3 for i in range(n)]


def _tau(p):
    """A monotone bijection of [0, 1]: a power law blended with smoothstep."""
    return lambda u: 0.5 * u**p + 0.5 * u * u * (3 - 2 * u)


# Timed pairs are transverse with this margin where the index is cut (0, 1 and
# a concatenation cut): the smallest singular value of [Q0 Q1], Q orthonormal
# bases of the two Lagrangians there.  A crossing within ~1e-5 of an end is
# counted as a boundary crossing or not depending on rounding (the
# near_endpoint kind of the known-defects workload), so it is kept out of the
# timed workloads.  Rejected draws are redrawn from the same case rng.
ENDPOINT_MARGIN = 1e-3


def _lagrangians(arrays, ts, psi=None):
    """Columns of a generator path's frames at the times ts, computed here
    with expm; ``psi``, a raw generator, moves them by exp(t J sym(psi))."""
    a, b = arrays
    n = a.shape[0] // 2
    j = symplin.complex_structure(n)
    f0 = _symplectic(b) @ symplin.LagrangianFrame.horizontal(n).columns
    out = []
    for t in ts:
        f = expm(t * j @ _sym(a)) @ f0
        out.append(f if psi is None else expm(t * j @ _sym(psi)) @ f)
    return out


# The two parts of a timed direct sum keep their crossings this far apart.
# The engine scans det on 2048 cells; when both parts cross inside one cell,
# det keeps its sign and one crossing is lost (the close_crossings kind of the
# known-defects workload).
CROSSING_SEPARATION = 4 / 2048


def _crossing_times(p0, p1, grid=4097):
    """Approximate times where det [L0(t) L1(t)] changes sign, from a grid
    evaluated here with eigendecompositions of the generators."""
    ts = np.linspace(0.0, 1.0, grid)
    frames = []
    for a, b in (p0, p1):
        n = a.shape[0] // 2
        lam, v = np.linalg.eig(symplin.complex_structure(n) @ _sym(a))
        f0 = np.linalg.solve(v, _symplectic(b) @ symplin.LagrangianFrame.horizontal(n).columns)
        frames.append(((v[None] * np.exp(ts[:, None] * lam)[:, None, :]) @ f0).real)
    d = np.sign(np.linalg.det(np.concatenate(frames, axis=2)))
    cells = np.nonzero(d[:-1] * d[1:] < 0)[0]
    return (ts[cells] + ts[cells + 1]) / 2


def _transverse(p0, p1, ts, psi=None):
    for f0, f1 in zip(_lagrangians(p0, ts, psi), _lagrangians(p1, ts, psi)):
        q = np.hstack([np.linalg.qr(f0)[0], np.linalg.qr(f1)[0]])
        if np.linalg.svd(q, compute_uv=False)[-1] < ENDPOINT_MARGIN:
            return False
    return True


# ---------------------------------------------------------------------------
# Input makers: (case rng, slot, round) -> inputs.  ``params`` is what a
# replay record shows; the arrays are rebuilt from the case key.
# ---------------------------------------------------------------------------


def make_raw_pair(rng, slot, rnd):
    n, scale = slot["n"], slot["scale"]
    p0 = _draw_generator(rng, n, scale)
    p1 = _draw_generator(rng, n, scale)
    c = float(rng.uniform(0.25, 0.75))
    return {"params": {"n": n, "scale": scale, "c": c}, "p0": p0, "p1": p1, "c": c}


def make_pair(rng, slot, rnd):
    """A pair transverse at 0, c and 1, with margin."""
    while True:
        x = make_raw_pair(rng, slot, rnd)
        if _transverse(x["p0"], x["p1"], (0.0, x["c"], 1.0)):
            return x


def make_regression(rng, slot, rnd):
    """The fixed ill-conditioned draw: n=6, scale 8, ``default_rng(7)``, made
    the way the concatenation suite makes its draws; the sixth is kept."""
    r = np.random.default_rng(7)
    for _ in range(6):
        p0 = _draw_generator(r, 6, 8.0)
        p1 = _draw_generator(r, 6, 8.0)
        c = float(r.uniform(0.25, 0.75))
    return {"params": {"n": 6, "scale": 8.0, "c": c, "draw": "default_rng(7), sixth"},
            "p0": p0, "p1": p1, "c": c}


def make_raw_natural(rng, slot, rnd):
    x = make_raw_pair(rng, slot, rnd)
    n = slot["n"]
    x["psi"] = rng.normal(size=(2 * n, 2 * n))
    return x


def make_natural(rng, slot, rnd):
    """A pair transverse at 0 and 1, with margin, before and after Psi."""
    while True:
        x = make_raw_natural(rng, slot, rnd)
        if (_transverse(x["p0"], x["p1"], (0.0, 1.0))
                and _transverse(x["p0"], x["p1"], (1.0,), x["psi"])):
            return x


def make_near_endpoint(rng, slot, rnd):
    """The pairs-generator draw (seed 403, round 12, index 7) from before the
    endpoint margin: a crossing about 1e-5 before t = 1."""
    return make_raw_natural(np.random.default_rng([403, 1, 12, 7]), {"n": 4, "scale": 2.0},
                            rnd)


def make_rotation(rng, slot, rnd):
    n = slot["n"]
    ms = _speeds(rng, _slot_mags(n))
    return {"params": {"n": n, "ms": ms.tolist()}, "ms": ms,
            "psi": rng.normal(size=(2 * n, 2 * n))}


def make_repeated(rng, slot, rnd):
    """Rotation speeds where ``shared`` coordinates share one speed, so the
    pair meets the vertical in a crossing of dimension >= 2."""
    n, j = slot["n"], slot["j"]
    shared = 2 + j % (n - 1)
    s = (1 + j % 3) * int(rng.choice([-1, 1]))
    others = np.asarray([(j + i) % 4 for i in range(n - shared)], dtype=int)
    ms = rng.permutation(np.concatenate(
        [np.full(shared, s), others * rng.choice([-1, 1], size=others.size)]))
    return {"params": {"n": n, "ms": ms.tolist()}, "ms": ms,
            "psi": rng.normal(size=(2 * n, 2 * n))}


def make_degenerate(rng, slot, rnd):
    n = slot["n"]
    return {"params": {"n": n}, "b": rng.normal(size=(2 * n, 2 * n))}


def make_dsum(rng, slot, rnd):
    n1, n2 = slot["n1"], slot["n2"]
    while True:
        x = {"params": {"n1": n1, "n2": n2, "scale": 2.0},
             "a0": _draw_generator(rng, n1, 2.0), "a1": _draw_generator(rng, n1, 2.0),
             "b0": _draw_generator(rng, n2, 2.0), "b1": _draw_generator(rng, n2, 2.0)}
        if not (_transverse(x["a0"], x["a1"], (0.0, 1.0))
                and _transverse(x["b0"], x["b1"], (0.0, 1.0))):
            continue
        ta = _crossing_times(x["a0"], x["a1"])
        tb = _crossing_times(x["b0"], x["b1"])
        if not (ta.size and tb.size) or (
                np.min(np.abs(ta[:, None] - tb[None, :])) >= CROSSING_SEPARATION):
            return x


def make_close_crossings(rng, slot, rnd):
    """The pairs-composite draw (seed 2009, round 4, index 2) from before the
    crossing separation: the parts cross 2.1e-4 apart, in one scan cell."""
    rng = np.random.default_rng([2009, 2, 4, 2])
    return {"params": {"n1": 3, "n2": 3, "scale": 2.0, "draw": "seed 2009, 4:2"},
            **{k: _draw_generator(rng, 3, 2.0) for k in ("a0", "a1", "b0", "b1")}}


def make_loop(rng, slot, rnd):
    n = slot["n"]
    ms = _speeds(rng, _slot_mags(n))
    return {"params": {"n": n, "ms": ms.tolist()}, "ms": ms,
            "b": rng.normal(size=(2 * n, 2 * n))}


def make_graph(rng, slot, rnd):
    """Endpoints A0, A1 invertible with margin: the graph meets the
    horizontal in ker A."""
    n = slot["n"]
    while True:
        a0, a1 = rng.normal(size=(n, n)), rng.normal(size=(n, n))
        if min(np.min(np.abs(np.linalg.eigvalsh(_sym(a)))) for a in (a0, a1)) >= ENDPOINT_MARGIN:
            return {"params": {"n": n}, "a0": a0, "a1": a1}


def make_reparam(rng, slot, rnd):
    while True:
        x = make_raw_pair(rng, dict(slot, scale=2.0), rnd)
        if _transverse(x["p0"], x["p1"], (0.0, 1.0)):
            break
    x["p"] = float(rng.uniform(0.5, 2.5))
    x["params"]["p"] = x["p"]
    return x


def make_certificate(rng, slot, rnd):
    n = int(rng.integers(2, 6))
    k = int(rng.integers(1, n))
    return {"params": dict(slot, n=n, k=k)}


def make_ode(rng, slot, rnd):
    u = float(rng.uniform(0.2, 0.8))
    return {"params": dict(slot, u=u)}


def make_profile(rng, slot, rnd):
    t = float(rng.uniform(2.8, 3.4))
    c = float(rng.uniform(1.5, 2.5))
    stage = int(rng.integers(1, slot["stages"] + 1))
    return {"params": dict(slot, T=t, C=c, stage=stage)}


def make_beta(rng, slot, rnd):
    return {"params": {"eps": float(rng.uniform(0.05, 0.2)),
                       "delta": float(rng.uniform(0.005, 0.05)),
                       "rho": float(rng.uniform(0.5, 2.0)),
                       "reeb_norm": float(rng.uniform(0.5, 2.0))},
            "r": np.sort(rng.uniform(0.7, 1.1, size=257))}


def make_complex(rng, slot, rnd):
    """A filtered complex with known homology.

    Generators are paired x -> y (degree up by one, action up) or left
    unpaired; the homology counts the unpaired ones per degree.  The
    differential is then conjugated by a random unipotent, degree-preserving,
    action-increasing change of basis, which keeps it a valid filtered
    differential with the same homology.
    """
    size = int(rng.integers(40, 101))
    deg = rng.integers(0, 4, size=size)
    act = rng.uniform(0.0, 10.0, size=size)
    d = np.zeros((size, size), dtype=np.int64)
    free = np.ones(size, dtype=bool)
    for i in rng.permutation(size):
        if not free[i]:
            continue
        cands = np.nonzero(free & (deg == deg[i] + 1) & (act > act[i]))[0]
        if cands.size and rng.random() < 0.7:
            j = int(rng.choice(cands))
            d[i, j] = 1
            free[i] = free[j] = False
    known = {}
    for g in np.nonzero(free)[0]:
        known[int(deg[g])] = known.get(int(deg[g]), 0) + 1
    same = (deg[:, None] == deg[None, :]) & (act[:, None] < act[None, :])
    nil = (same & (rng.random((size, size)) < 0.3)).astype(np.int64)
    p = np.eye(size, dtype=np.int64) + nil
    p_inv = np.eye(size, dtype=np.int64)
    term = np.eye(size, dtype=np.int64)
    while True:  # (I + N)^-1 = I + N + N^2 + ... over GF(2); N is nilpotent
        term = (term @ nil) % 2
        if not term.any():
            break
        p_inv = (p_inv + term) % 2
    conj = (p_inv @ d @ p) % 2
    return {"params": {"generators": size, "homology": known},
            "degrees": deg, "actions": act, "d": conj, "known": known}


def make_limit(rng, slot, rnd):
    kind = slot["system"]
    if kind == "model":
        params = {"system": kind, "n": int(rng.integers(1, 4)),
                  "stages": int(rng.integers(30, 61))}
    else:
        params = {"system": kind, "length": int(rng.integers(190, 211))}
    return {"params": params}


# ---------------------------------------------------------------------------
# Library calls: (lib, inputs) -> answer.  Keys named "ctx" carry context for
# the check and are never perturbed by the self-test.
# ---------------------------------------------------------------------------


def run_concat(lib, x):
    c = x["c"]
    with lib.build():
        p0 = generator_path(lib, x["p0"])
        p1 = generator_path(lib, x["p1"])
        left = (lib.path(p0.restricted(0.0, c)), lib.path(p1.restricted(0.0, c)))
        right = (lib.path(p0.restricted(c, 1.0)), lib.path(p1.restricted(c, 1.0)))
    return {"total": lib.rs_index((p0, p1)), "left": lib.rs_index(left),
            "right": lib.rs_index(right)}


def run_natural(lib, x):
    n = x["params"]["n"]
    with lib.build():
        p0 = generator_path(lib, x["p0"])
        p1 = generator_path(lib, x["p1"])
        psi = symplin.GeneratorPath(_sym(x["psi"]), symplin.LagrangianFrame.horizontal(n))
        moved = (lib.path(p0.transformed(psi)), lib.path(p1.transformed(psi)))
    return {"base": lib.rs_index((p0, p1)), "moved": lib.rs_index(moved)}


def run_rotation(lib, x):
    """Psi(t) rotation(ms pi) against Psi(t) vertical, Psi a generator path."""
    ms = x["ms"]
    n = len(ms)
    with lib.build():
        psi = symplin.GeneratorPath(_sym(x["psi"]), symplin.LagrangianFrame.horizontal(n))
        rot = lib.path(symplin.rotation_path(n, ms * np.pi))
        vert = lib.path(symplin.ConstantPath(symplin.LagrangianFrame.vertical(n)))
        pair = (lib.path(rot.transformed(psi)), lib.path(vert.transformed(psi)))
    return {"index": lib.rs_index(pair)}


def run_degenerate(lib, x):
    b = x["b"]
    n = b.shape[0] // 2
    with lib.build():
        frame = symplin.LagrangianFrame.from_columns(
            _symplectic(b) @ symplin.LagrangianFrame.horizontal(n).columns)
        p = lib.path(symplin.ConstantPath(frame))
    return {"index": lib.rs_index((p, p))}


def run_dsum(lib, x):
    with lib.build():
        a0, a1 = generator_path(lib, x["a0"]), generator_path(lib, x["a1"])
        b0, b1 = generator_path(lib, x["b0"]), generator_path(lib, x["b1"])
        s0 = lib.path(symplin.direct_sum_paths(a0, b0))
        s1 = lib.path(symplin.direct_sum_paths(a1, b1))
    return {"sum": lib.rs_index((s0, s1)), "a": lib.rs_index((a0, a1)),
            "b": lib.rs_index((b0, b1))}


def run_loop(lib, x):
    """A rotation loop moved by a constant symplectic matrix given as a callable."""
    ms = x["ms"]
    n = len(ms)
    with lib.build():
        psi = _symplectic(x["b"])
        rot = lib.path(symplin.rotation_path(n, ms * np.pi))
        loop = lib.path(rot.transformed(lambda t: psi))
        ref = lib.path(symplin.ConstantPath(symplin.LagrangianFrame.from_columns(
            psi @ symplin.LagrangianFrame.vertical(n).columns)))
    return {"index": lib.rs_index((loop, ref)), "winding": lib.det2_winding(loop)}


def run_graph(lib, x):
    n = x["params"]["n"]
    a0, a1 = _sym(x["a0"]), _sym(x["a1"])
    eye = np.eye(n)
    with lib.build():
        path = lib.path(symplin.FunctionPath(
            n, lambda t: np.vstack([eye, (1 - t) * a0 + t * a1])))
        ref = lib.path(symplin.ConstantPath(symplin.LagrangianFrame.horizontal(n)))
    return {"index": lib.rs_index((path, ref)), "ctx": (a0, a1)}


def run_reparam(lib, x):
    tau = _tau(x["p"])
    with lib.build():
        p0 = generator_path(lib, x["p0"])
        p1 = generator_path(lib, x["p1"])
        moved = (lib.path(p0.reparametrized(tau)), lib.path(p1.reparametrized(tau)))
    return {"base": lib.rs_index((p0, p1)), "moved": lib.rs_index(moved)}


def run_cli(lib, x):
    """``maslovkit rs-index --json`` on a sampled rotation loop moved by a
    constant symplectic matrix, against the moved vertical."""
    ms = x["ms"]
    n = len(ms)
    with lib.build():
        psi = _symplectic(x["b"])
        ts = np.linspace(0.0, 1.0, 12 * max(1, int(np.max(np.abs(ms)))) + 7)
        frames = psi @ symplin.rotation_path(n, ms * np.pi).frames(ts)
        vert = psi @ symplin.LagrangianFrame.vertical(n).columns
        text = json.dumps({
            "path0": symplin.SampledPath(ts, frames).to_json(),
            "path1": symplin.SampledPath([0.0, 1.0], np.stack([vert, vert])).to_json(),
        })
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = lib.cli_main(["rs-index", "--json", text])
    if code != 0:
        raise RuntimeError(f"rs-index exited with {code}")
    return {"exit": code, "halves": json.loads(buf.getvalue())["halves"]}


_EPS_DELTA = [(0.1, 0.05), (0.1, 0.01), (0.05, 0.05), (0.05, 0.01)]
_STEEP = [(e, d) for e, d in _EPS_DELTA if d == 0.01]
_CHORD_GRID = [(n, k, m) for n in range(2, 6) for k in range(1, n) for m in range(1, 5)]
_STAGE0_EPS = 0.1  # eps_1 of TransferSchedule.seeded; eps_n = eps_1 / 2^(n-1)


def run_certificate(lib, x):
    p = x["params"]
    cert = lib.certificate(HandleParams(p["n"], p["k"], p["eps"], p["delta"]),
                           GridSpec(resolution=p["resolution"]))
    return {"passed": cert.passed, "min_value": cert.min_value}


def _chord_setup(p):
    prof = spectrum.CoefficientProfile.from_handle_params(p["eps"], p["delta"])
    z = prof.z_min + p["u"] * (prof.z_max - prof.z_min)
    cz = float(prof.cz(z))
    return prof, z, cz, 2.0 * math.pi * p["m"] / cz


def run_ode(lib, x):
    p = x["params"]
    prof, z, cz, a = _chord_setup(p)
    ode, _ = lib.chord_index_ode(p["n"], p["k"], a, prof, z, step=1e-4)
    return {"ode": ode, "formula": lib.chord_index(p["n"], p["k"], a, cz),
            "levels": lib.chord_levels(a, prof), "ctx": (prof, z, a)}


def run_levels(lib, x):
    p = x["params"]
    prof, z, cz, a = _chord_setup(p)
    return {"levels": lib.chord_levels(a, prof), "ctx": (prof, z, a)}


def run_profile(lib, x):
    p = x["params"]
    spec = profiles.SpectrumSet.of([p["T"], 2 * p["T"], 3 * p["T"]])
    sched = profiles.TransferSchedule.seeded(spec, C=p["C"], stages=p["stages"])
    fam = lib.transfer_family(spec, p["C"], sched)
    i = p["stage"] - 1
    h = fam[i]
    rep = lib.ledger(h, spectrum_w=spec, spectrum_outer=spec)
    lo = min(i, len(fam) - 2)
    mono = lib.monotone(fam[lo], fam[lo + 1])
    return {"ledger_passed": rep.passed,
            "min_margin": min(it.margin for it in rep.items),
            "well_action": rep.items[0].action_min,
            "plateau_action": rep.items[3].action_min,
            "monotone_passed": mono.passed,
            "ctx": h.metadata["A_n"]}


def run_beta(lib, x):
    p = x["params"]
    b = lib.beta(p["eps"], p["delta"], p["rho"], p["reeb_norm"])
    v = b.validate()
    vals = np.asarray(b.beta(x["r"]))
    return {"knot_left": v["knot_left"], "knot_right": v["knot_right"],
            "monotone": v["monotone"], "envelope_ok": v["envelope_ok"],
            "envelope_margin": v["envelope_margin"],
            "sampled_monotone": bool(np.all(np.diff(vals) >= -1e-15)),
            "left_of_window": float(b.beta(1.0 - p["eps"] - 1e-3)),
            "right_of_window": float(b.beta(1.0 + 1e-3))}


def run_complex(lib, x):
    gens = [homalg.Generator(f"g{i}", int(g), float(a))
            for i, (g, a) in enumerate(zip(x["degrees"], x["actions"]))]
    c = homalg.FilteredZ2Complex.from_matrix(gens, x["d"])
    return {"homology": lib.homology(c), "valid": lib.validate(c).ok}


def run_limit(lib, x):
    p = x["params"]
    if p["system"] == "identity":
        sys_ = homalg.identity_system(p["length"])
    elif p["system"] == "zero":
        sys_ = homalg.zero_map_system(p["length"])
    else:
        sys_ = homalg.model_flow_system(p["n"], p["stages"])
    return {"dims": lib.direct_limit(sys_).dims}


# ---------------------------------------------------------------------------
# Checks: (inputs, answer) -> None if right, else what is wrong
# ---------------------------------------------------------------------------


def _mismatch(pairs):
    bad = [f"{label}: got {got}, want {want}" for label, got, want in pairs if got != want]
    return "; ".join(bad) or None


def check_concat(x, r):
    return _mismatch([("total = left + right", r["total"], r["left"] + r["right"])])


def check_invariant(x, r):
    return _mismatch([("moved = base", r["moved"], r["base"])])


def check_speeds(x, r):
    return _mismatch([("index = sum ms", r["index"], HalfInt.from_int(int(np.sum(x["ms"]))))])


def check_dsum(x, r):
    return _mismatch([("sum = a + b", r["sum"], r["a"] + r["b"])])


def check_loop(x, r):
    want = int(np.sum(x["ms"]))
    return _mismatch([("index = sum ms", r["index"], HalfInt.from_int(want)),
                      ("winding = sum ms", r["winding"], want)])


def check_graph(x, r):
    a0, a1 = r["ctx"]
    want = HalfInt(_signature(a1) - _signature(a0))
    return _mismatch([("index = (sig A1 - sig A0)/2", r["index"], want)])


def check_cli(x, r):
    return _mismatch([("exit", r["exit"], 0),
                      ("halves = 2 sum ms", r["halves"], 2 * int(np.sum(x["ms"])))])


def check_certificate(x, r):
    return _mismatch([("passed", r["passed"], True),
                      ("min > 0", r["min_value"] > 0, True)])


def check_ode(x, r):
    p = x["params"]
    want = HalfInt(p["k"] + 2 * (p["n"] - p["k"]) * p["m"])  # n/2 + (n-k)(m - 1/2)
    return _mismatch([("ode", r["ode"], want), ("formula", r["formula"], want)]) \
        or check_levels(x, r)


def check_levels(x, r):
    p = x["params"]
    prof, z, a = r["ctx"]
    found = [c for c in r["levels"] if not c.is_constant
             and c.multiplicity_condition == p["m"] and abs(c.z_level - z) <= 1e-9]
    bad = []
    for c in r["levels"]:
        try:
            c.check(a, prof)
        except NotAChordLevelError as e:
            bad.append(str(e))
    return _mismatch([("chord at the level", len(found), 1),
                      ("levels pass HandleChord.check", bad, [])])


def check_profile(x, r):
    eps_n = _STAGE0_EPS / 2 ** (x["params"]["stage"] - 1)
    return _mismatch([
        ("ledger passed", r["ledger_passed"], True),
        ("margins > 0", r["min_margin"] > 0, True),
        ("well action = eps_n", abs(r["well_action"] - eps_n) < 1e-12, True),
        ("plateau action = -A_n", abs(r["plateau_action"] + r["ctx"]) < 1e-9, True),
        ("monotone passed", r["monotone_passed"], True),
    ])


def check_beta(x, r):
    return _mismatch([
        ("beta(1 - eps)", r["knot_left"], 0.0), ("beta(1)", r["knot_right"], 1.0),
        ("monotone", r["monotone"], True), ("envelope", r["envelope_ok"], True),
        ("margin > 1", r["envelope_margin"] > 1.0, True),
        ("monotone on a random grid", r["sampled_monotone"], True),
        ("0 left of the window", r["left_of_window"], 0.0),
        ("1 right of the window", r["right_of_window"], 1.0),
    ])


def check_complex(x, r):
    return _mismatch([("valid", r["valid"], True), ("homology", r["homology"], x["known"])])


def check_limit(x, r):
    p = x["params"]
    if p["system"] == "identity":
        want = {0: 1}
    elif p["system"] == "zero":
        want = {0: 0}
    else:
        # Every stage maps to zero, so the limit vanishes in every degree but
        # the last stage's: nothing follows it, and the documented fallback
        # to the finite quotient keeps it.
        last = p["stages"] - 1
        want = {p["n"] * k: int(k == last) for k in range(p["stages"])}
    return _mismatch([("dims", r["dims"], want)])


# ---------------------------------------------------------------------------
# Kinds and workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Kind:
    make: Callable
    run: Callable
    check: Optional[Callable]  # None: the expected outcome is a refusal
    known_defect: bool = False  # a documented defect class; see baseline.json


KINDS = {
    "concat": Kind(make_pair, run_concat, check_concat),
    "natural": Kind(make_natural, run_natural, check_invariant),
    "rotation": Kind(make_rotation, run_rotation, check_speeds),
    "dsum": Kind(make_dsum, run_dsum, check_dsum),
    "loop": Kind(make_loop, run_loop, check_loop),
    "graph": Kind(make_graph, run_graph, check_graph),
    "reparam": Kind(make_reparam, run_reparam, check_invariant),
    "cli": Kind(make_loop, run_cli, check_cli),
    "repeated": Kind(make_repeated, run_rotation, check_speeds),
    "degenerate": Kind(make_degenerate, run_degenerate, None),
    "certificate": Kind(make_certificate, run_certificate, check_certificate),
    "ode": Kind(make_ode, run_ode, check_ode),
    "profile": Kind(make_profile, run_profile, check_profile),
    "beta": Kind(make_beta, run_beta, check_beta),
    "complex": Kind(make_complex, run_complex, check_complex),
    "limit": Kind(make_limit, run_limit, check_limit),
    # Known defects (baseline.json): only in the known-defects workload.
    "regression": Kind(make_regression, run_concat, check_concat, known_defect=True),
    "hard_concat": Kind(make_raw_pair, run_concat, check_concat, known_defect=True),
    "near_endpoint": Kind(make_near_endpoint, run_natural, check_invariant, known_defect=True),
    "close_crossings": Kind(make_close_crossings, run_dsum, check_dsum, known_defect=True),
    "steep_levels": Kind(make_ode, run_levels, check_levels, known_defect=True),
}


def plan_generator(rrng, rnd):
    return [(k, {"n": n, "scale": 2.0})
            for n in (1, 2, 4, 6) for k in ("concat", "natural", "rotation")]


def plan_composite(rrng, rnd):
    return ([("dsum", {"n1": n, "n2": n}) for n in (1, 2, 3)]
            + [("loop", {"n": n}) for n in (1, 2, 3)]
            + [("graph", {"n": n}) for n in (2, 4, 6)]
            + [("reparam", {"n": n}) for n in (1, 2)]
            + [("cli", {"n": n}) for n in (1, 2)])


def plan_hard(rrng, rnd):
    # One degenerate pair in 49 cases: each takes seconds to refuse.  Every
    # round holds one of each n, so a run's mix does not depend on how many
    # rounds it holds.
    return ([("degenerate", {"n": 1}), ("degenerate", {"n": 2})]
            + [("repeated", {"n": n, "j": j}) for n in (2, 3, 4, 5) for j in range(24)])


def plan_chords(rrng, rnd):
    res = rrng.permutation([50, 100, 150, 200])
    grid = rrng.choice(len(_CHORD_GRID), size=8, replace=False)
    ode = [("ode", {"n": n, "k": k, "m": m, "eps": (0.1, 0.05)[j % 2], "delta": 0.05})
           for j, (n, k, m) in enumerate(_CHORD_GRID[g] for g in grid)]
    return ([("certificate", {"eps": e, "delta": d, "resolution": int(r)})
             for (e, d), r in zip(_EPS_DELTA, res)]
            + ode
            + [("profile", {"stages": s}) for s in (3, 3, 6, 6)] + [("beta", {})]
            + [("complex", {})] * 3
            + [("limit", {"system": s}) for s in ("identity", "zero", "model")])


def plan_defects(rrng, rnd):
    """Inputs on which the library is known to answer wrongly.  Not a timed
    workload: the benchmark's workloads are ones on which no case fails."""
    return ([("regression", {}), ("near_endpoint", {}), ("close_crossings", {})]
            + [("hard_concat", {"n": n, "scale": 8.0}) for n in (4, 5, 6) for _ in range(4)]
            + [("steep_levels", {"eps": e, "delta": d, "m": int(rrng.integers(1, 5))})
               for e, d in _STEEP])


@dataclass(frozen=True)
class Workload:
    name: str
    wid: int
    plan: Callable


WORKLOADS = {w.name: w for w in (
    Workload("pairs-generator", 1, plan_generator),
    Workload("pairs-composite", 2, plan_composite),
    Workload("pairs-hard", 3, plan_hard),
    Workload("chords-certify", 4, plan_chords),
    Workload("known-defects", 5, plan_defects),
)}


def round_plan(wl, seed, rnd):
    return wl.plan(np.random.default_rng([seed, wl.wid, rnd]), rnd)


def case_inputs(wl, seed, rnd, idx, plan=None):
    kname, slot = (plan or round_plan(wl, seed, rnd))[idx]
    rng = np.random.default_rng([seed, wl.wid, rnd, idx])
    return kname, KINDS[kname].make(rng, slot, rnd)


# ---------------------------------------------------------------------------
# Running and judging one case
# ---------------------------------------------------------------------------


def judge(kind, x, answer, exc):
    """Outcome of one case: ("ok" | "wrong" | "error", detail)."""
    if kind.check is None:
        if isinstance(exc, IrregularCrossingError):
            return "ok", None
        if exc is not None:
            return "error", f"{type(exc).__name__}: {exc}"
        return "error", f"answered {answer} where a refusal was expected"
    if exc is not None:
        return "error", f"{type(exc).__name__}: {exc}"
    msg = kind.check(x, answer)
    return ("wrong", msg) if msg else ("ok", None)


def run_case(lib, kind, x):
    """Run one case; returns (status, detail, answer)."""
    try:
        answer = kind.run(lib, x)
    except Exception as e:  # every raise is an outcome to record, not a crash
        return (*judge(kind, x, None, e), None)
    return (*judge(kind, x, answer, None), answer)


# ---------------------------------------------------------------------------
# Self-test: every check must reject an answer perturbed by one half (one in
# a homology or limit dimension, the negation of a flag or a bound)
# ---------------------------------------------------------------------------


def perturb(v):
    if isinstance(v, HalfInt):
        return HalfInt(v.halves + 1)
    if isinstance(v, bool):
        return not v
    if isinstance(v, int):
        return v + 1
    if isinstance(v, float):
        return -v - 1.0
    if isinstance(v, dict):
        return {k: d + 1 for k, d in v.items()} or {0: 1}
    if isinstance(v, list):  # chord levels
        return [replace(c, multiplicity_condition=c.multiplicity_condition + 1) for c in v]
    raise TypeError(f"no perturbation for {type(v).__name__}")


def self_test_kind(kind, x, status, detail, answer):
    """"ok", "skipped: ..." (a known-defect answer already rejected) or "failed: ..."."""
    if kind.check is None:
        bad, _ = judge(kind, x, {"index": HalfInt(0)}, None)
        return "ok" if bad == "error" else "failed: accepted an answer in place of a refusal"
    if status != "ok":
        if kind.known_defect:
            return f"skipped: {status}: {detail}"
        return f"failed: the real answer was not accepted: {status}: {detail}"
    for key, v in answer.items():
        if key != "ctx" and kind.check(x, {**answer, key: perturb(v)}) is None:
            return f"failed: accepted a perturbed {key!r}"
    return "ok"
