"""Seeded verification suites, shared by the CLI and the test suite.

Every suite is a pure function of its seed: it returns a `SuiteResult` whose
``failures`` list is empty on success.  Randomized cases whose index is
refused for an irregular crossing (only a degenerate crossing form at an end
of the domain is refused; interior crossings need not be regular) are
replaced deterministically, so the case count is always reached.  Each
failure names the case, the suite seed and the attempt that drew it, so it
can be replayed from the report alone.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, List

import numpy as np

from .errors import IrregularCrossingError
from .halfint import HalfInt
from .handle import (
    GridSpec,
    HandleParams,
    ambient_omega,
    hamiltonian_fields,
    liouville_field,
    liouville_flow,
    liouville_form,
    lyapunov_derivative,
    potentials,
    transversality_certificate,
)
from .homalg import (
    FilteredZ2Complex,
    Generator,
    check_square,
    ChainMap,
    direct_limit,
    identity_system,
    model_flow_system,
    zero_map_system,
)
from .maslov import det2_winding, rs_index
from .profiles import (
    SpectrumSet,
    TransferSchedule,
    build_beta,
    build_transfer_family,
    verify_action_signs,
    verify_monotone,
)
from .spectrum import agreement_cases
from .symplin import (
    ConstantPath,
    GeneratorPath,
    LagrangianFrame,
    SampledPath,
    direct_sum_paths,
    random_lagrangian_frame,
    random_symplectic,
    rotation_path,
)


@dataclass
class SuiteResult:
    name: str
    cases: int
    failures: List[str] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "schema": "v1",
            "name": self.name,
            "cases": self.cases,
            "pass": self.passed,
            "failures": self.failures,
            "elapsed_s": self.elapsed,
        }


def _random_generator_path(n, rng):
    a = rng.normal(size=(2 * n, 2 * n), scale=2.0)
    return GeneratorPath((a + a.T) / 2, random_lagrangian_frame(n, rng))


def _run_cases(name: str, cases: int, one_case: Callable[[np.random.Generator, int], None],
               seed: int) -> SuiteResult:
    """Run `cases` seeded cases, deterministically replacing irregular draws.

    Case ``i`` draws from ``default_rng((seed, attempt))``; a failure line
    reads ``case i (seed s, attempt a): ...``.
    """
    failures: List[str] = []
    done = 0
    attempt = 0
    while done < cases and attempt < 20 * cases:
        rng = np.random.default_rng((seed, attempt))
        where = f"case {done} (seed {seed}, attempt {attempt})"
        attempt += 1
        try:
            one_case(rng, done)
        except IrregularCrossingError:
            continue
        except AssertionError as e:
            failures.append(f"{where}: {e}")
        except Exception as e:  # structured errors are failures too
            failures.append(f"{where}: {type(e).__name__}: {e}")
        done += 1
    if done < cases:
        failures.append(f"only {done}/{cases} regular cases found")
    return SuiteResult(name, done, failures)


# ---------------------------------------------------------------------------
# Index axiom suites
# ---------------------------------------------------------------------------


def naturality_suite(seed: int = 0, cases: int = 100) -> SuiteResult:
    def case(rng, i):
        n = int(rng.integers(1, 3))
        p0, p1 = _random_generator_path(n, rng), _random_generator_path(n, rng)
        a = rng.normal(size=(2 * n, 2 * n))
        # two Psi objects of one S: `rs_index` peels a Psi shared by both
        # paths by identity, which would compare the base index with itself
        psi0, psi1 = (GeneratorPath((a + a.T) / 2, LagrangianFrame.horizontal(n))
                      for _ in range(2))
        base = rs_index((p0, p1))
        moved = rs_index((p0.transformed(psi0), p1.transformed(psi1)))
        assert base == moved, f"naturality broke: {base} != {moved}"

    return _run_cases("maslov.naturality", cases, case, seed)


def concatenation_suite(seed: int = 0, cases: int = 100) -> SuiteResult:
    def case(rng, i):
        n = int(rng.integers(1, 3))
        p0, p1 = _random_generator_path(n, rng), _random_generator_path(n, rng)
        c = float(rng.uniform(0.25, 0.75))
        total = rs_index((p0, p1))
        left = rs_index((p0.restricted(0.0, c), p1.restricted(0.0, c)))
        right = rs_index((p0.restricted(c, 1.0), p1.restricted(c, 1.0)))
        assert total == left + right, f"{total} != {left} + {right}"

    return _run_cases("maslov.concatenation", cases, case, seed)


def product_suite(seed: int = 0, cases: int = 100) -> SuiteResult:
    def case(rng, i):
        n1 = int(rng.integers(1, 3))
        n2 = int(rng.integers(1, 3))
        a0, a1 = _random_generator_path(n1, rng), _random_generator_path(n1, rng)
        b0, b1 = _random_generator_path(n2, rng), _random_generator_path(n2, rng)
        summed = rs_index((direct_sum_paths(a0, b0), direct_sum_paths(a1, b1)))
        split = rs_index((a0, a1)) + rs_index((b0, b1))
        assert summed == split, f"{summed} != {split}"

    return _run_cases("maslov.product", cases, case, seed)


def localization_suite(seed: int = 0, cases: int = 100) -> SuiteResult:
    def case(rng, i):
        n = int(rng.integers(1, 4))
        a0 = rng.normal(size=(n, n))
        a1 = rng.normal(size=(n, n))
        a0, a1 = (a0 + a0.T) / 2, (a1 + a1.T) / 2
        # [I; (1 - t) A0 + t A1] is the linear interpolation of its two nodes
        path = SampledPath([0.0, 1.0], np.stack([np.vstack([np.eye(n), a]) for a in (a0, a1)]))
        ref = ConstantPath(LagrangianFrame.horizontal(n))
        got = rs_index((path, ref))

        def signature(a):
            ev = np.linalg.eigvalsh(a)
            return int(np.sum(ev > 0) - np.sum(ev < 0))

        want = HalfInt(signature(a1) - signature(a0))
        assert got == want, f"{got} != {want}"

    return _run_cases("maslov.localization", cases, case, seed)


def reparametrization_suite(seed: int = 0, cases: int = 100) -> SuiteResult:
    def case(rng, i):
        n = int(rng.integers(1, 3))
        p0, p1 = _random_generator_path(n, rng), _random_generator_path(n, rng)
        p = float(rng.uniform(0.5, 2.5))

        def tau(u, p=p):
            # monotone bijection of [0, 1]: a power law blended with smoothstep
            s = u * u * (3 - 2 * u)
            return (1 - 0.5) * u**p + 0.5 * s

        base = rs_index((p0, p1))
        moved = rs_index((p0.reparametrized(tau), p1.reparametrized(tau)))
        assert base == moved, f"{base} != {moved}"

    return _run_cases("maslov.reparametrization", cases, case, seed)


def loop_consistency_suite(seed: int = 0, cases: int = 50) -> SuiteResult:
    def case(rng, i):
        n = int(rng.integers(1, 3))
        ms = rng.integers(-3, 4, size=n)
        psi = random_symplectic(n, rng)
        loop = rotation_path(n, ms * np.pi).transformed(lambda t, psi=psi: psi)
        ref = ConstantPath(
            LagrangianFrame.from_columns(psi @ LagrangianFrame.vertical(n).columns)
        )
        w = det2_winding(loop)
        r = rs_index((loop, ref))
        assert r.is_integer() and r.as_integer() == w == int(ms.sum()), (
            f"rs={r}, winding={w}, speeds={ms}"
        )

    return _run_cases("maslov.loop_consistency", cases, case, seed)


# ---------------------------------------------------------------------------
# Handle identities
# ---------------------------------------------------------------------------


GRAD_STEP = 1e-5
GRAD_TOL = 1e-8  # relative to max(1, |c|_inf); rounding reaches about 1.1e-10
IDENTITY_POINTS = 1000  # random points the handle identities are checked at
CERT_RESOLUTION = 50  # grid resolution of each handle certificate
SLOPE_TOL = 1e-12  # radial slope identity: psi_delta against its closed form


def handle_identity_suite(seed: int = 0) -> SuiteResult:
    rng = np.random.default_rng(seed)
    points = IDENTITY_POINTS
    params = HandleParams(n=3, k=2, epsilon=0.1, delta=0.05)
    dim, k = 2 * params.n, params.k
    # per point, in stream order: c, t, v, s2 and the coefficients Cx, Cy, Cz
    c, t, v, s2, coef = (np.empty((points, dim)), np.empty(points), np.empty((points, dim)),
                         np.empty(points), np.empty((points, 3)))
    for i in range(points):
        c[i] = rng.normal(size=dim, scale=1.5)
        t[i] = rng.uniform(-1.0, 1.0)
        v[i] = rng.normal(size=dim)
        s2[i] = rng.uniform(-1.0, 1.0)
        coef[i] = rng.uniform(0.1, 3.0, size=3)
    bad = {}  # message -> which points fail the check, in the order of report

    x_field = liouville_field(c, params)
    err = np.max(np.abs(x_field @ ambient_omega(params) - liouville_form(c, params)), axis=-1)
    bad["i_X omega != lambda"] = err > 1e-9
    # X = grad phi, against central differences of phi from `potentials`
    # on the stacked +-GRAD_STEP stencil; phi is quadratic, so they have
    # no truncation error, only rounding
    step = GRAD_STEP * np.eye(dim)
    phi = potentials(np.stack([c[:, None] + step, c[:, None] - step], axis=1), params)["phi"]
    grad_phi = (phi[:, 0] - phi[:, 1]) / (2 * GRAD_STEP)
    bad["X != grad phi"] = (np.max(np.abs(x_field - grad_phi), axis=-1)
                            > GRAD_TOL * np.maximum(1.0, np.max(np.abs(c), axis=-1)))
    # flow pullback: lambda(dPhi v) at Phi(p) equals e^t lambda(v), with the
    # pushforward taken by central finite differences
    h = 1e-4  # the flow is linear, so only cancellation limits accuracy
    push = (liouville_flow(c + h * v, t, params) - liouville_flow(c - h * v, t, params)) / (2 * h)
    lhs = np.sum(liouville_form(liouville_flow(c, t, params), params) * push, axis=-1)
    rhs = np.exp(t) * np.sum(liouville_form(c, params) * v, axis=-1)
    bad["flow does not scale the form by e^t"] = (np.abs(lhs - rhs)
                                                  > 1e-9 * np.maximum(1.0, np.abs(rhs)))
    # group law
    a = liouville_flow(liouville_flow(c, t, params), s2, params)
    b = liouville_flow(c, t + s2, params)
    bad["flow group law broke"] = (np.max(np.abs(a - b), axis=-1)
                                   > 1e-12 * np.maximum(1.0, np.max(np.abs(b), axis=-1)))
    # lyapunov derivative against the field/gradient route
    f = hamiltonian_fields(c, params)
    xh = coef[:, :1] * f["Xx"] - coef[:, 1:2] * f["Xy"] + coef[:, 2:] * f["Xz"]
    grad_l = np.zeros_like(c)
    grad_l[:, :k] = c[:, k: 2 * k]
    grad_l[:, k: 2 * k] = c[:, :k]
    oracle = np.sum(grad_l * xh, axis=-1)
    got = lyapunov_derivative(c, dict(zip(("Cx", "Cy", "Cz"), coef.T)), params)
    bad["lyapunov derivative mismatch"] = (np.abs(oracle - got)
                                           > 1e-12 * np.maximum(1.0, np.abs(oracle)))

    msgs = list(bad)
    failing = np.stack(list(bad.values()), axis=1)  # (point, check), read by point first
    failures = [f"point {i}: {msgs[j]}" for i, j in zip(*np.nonzero(failing))]
    return SuiteResult("handle.identities", points, failures)


def handle_certification_suite() -> SuiteResult:
    failures: List[str] = []
    cases = 0
    for eps in (0.1, 0.05):
        for delta in (0.05, 0.01):
            cases += 1
            params = HandleParams(n=2, k=1, epsilon=eps, delta=delta)
            cert = transversality_certificate(params, GridSpec(resolution=CERT_RESOLUTION))
            if not cert.passed or cert.min_value <= 0:
                failures.append(
                    f"eps={eps}, delta={delta}: min {cert.min_value} at "
                    f"{cert.witness_point}"
                )
    return SuiteResult("handle.certification", cases, failures)


def slope_identity_suite() -> SuiteResult:
    failures: List[str] = []
    cases = 0
    for eps in (0.1, 0.05):
        for delta in (0.05, 0.01):
            cases += 1
            params = HandleParams(n=2, k=1, epsilon=eps, delta=delta)
            c_lo = params.z_slope_low()
            z0 = eps / c_lo
            ts = np.linspace(-2.0, math.log(delta / z0) * 0.99, 25)
            q = liouville_flow([0.0, 0.0, math.sqrt(4 * z0), 0.0], ts, params)
            psi = potentials(q, params)["psi_delta"]
            want = eps * np.exp(ts) - (1 + eps)
            for i in np.nonzero(np.abs(psi - want) > SLOPE_TOL)[0]:
                failures.append(f"eps={eps}, delta={delta}, t={ts[i]}: {psi[i]} vs {want[i]}")
    return SuiteResult("handle.radial_slope", cases, failures)


# ---------------------------------------------------------------------------
# Profile ledger
# ---------------------------------------------------------------------------


LEDGER_STAGES = 3  # stages of the transfer family the ledger suite checks
BETA_GRID = 10_000  # cells of the cutoff grid the envelope suite checks


def profile_ledger_suite() -> SuiteResult:
    failures: List[str] = []
    spec = SpectrumSet.of([math.pi, 2 * math.pi, 3 * math.pi])
    sched = TransferSchedule.seeded(spec, C=2.0, stages=LEDGER_STAGES)
    family = build_transfer_family(spec, 2.0, sched)
    for prof in family:
        rep = verify_action_signs(prof, spectrum_w=spec, spectrum_outer=spec)
        if not rep.passed:
            bad = [i.item for i in rep.items if not i.passed]
            failures.append(f"stage {prof.metadata['stage']}: items {bad} failed")
        for it in rep.items:
            if not (it.margin > 1e-12):
                failures.append(
                    f"stage {prof.metadata['stage']} item {it.item}: margin "
                    f"{it.margin} not positive"
                )
    for h1, h2 in zip(family, family[1:]):
        rep = verify_monotone(h1, h2)
        if not rep.passed:
            failures.append(
                f"monotonicity {h1.metadata['stage']}->{h2.metadata['stage']} "
                f"failed at r={rep.witness_r} (gap {rep.min_gap})"
            )
        if not rep.checkpoint_gap > 0:
            failures.append(
                f"checkpoint r=2*C*r_(n+1) gap {rep.checkpoint_gap} not positive"
            )
    return SuiteResult("profiles.transfer_ledger", len(family), failures)


def beta_envelope_suite() -> SuiteResult:
    failures: List[str] = []
    b = build_beta(0.1, 0.01, 1.0, 1.0, grid=BETA_GRID)
    checks = b.validate()
    if checks["knot_left"] != 0.0:
        failures.append(f"beta(1-eps) = {checks['knot_left']} != 0")
    if checks["knot_right"] != 1.0:
        failures.append(f"beta(1) = {checks['knot_right']} != 1")
    if not checks["monotone"]:
        failures.append("beta not monotone on the grid")
    if not checks["envelope_ok"]:
        failures.append("derivative envelope violated")
    if not checks["envelope_margin"] > 1.0:
        failures.append(f"envelope margin {checks['envelope_margin']} not strict")
    return SuiteResult("profiles.beta_envelope", BETA_GRID, failures)


# ---------------------------------------------------------------------------
# Spectrum agreement
# ---------------------------------------------------------------------------


def spectrum_agreement_suite() -> SuiteResult:
    """Both index routes over `agreement_cases`' default (n, k, m) range."""
    failures: List[str] = []
    cases = 0
    for n, k, m, _, f, (o, diag), ((l1, h1), (l2, h2)) in agreement_cases():
        cases += 1
        if f != o:
            failures.append(f"(n={n}, k={k}, m={m}): formula {f} != ode {o}")
        for blk in diag["blocks"]:
            if blk["kind"] == "hyperbolic" and blk["min_y_interior"] <= 1.0:
                failures.append(
                    f"(n={n}, k={k}, m={m}): hyperbolic second coordinate "
                    f"dipped to {blk['min_y_interior']}"
                )
        mu_deg = (n - k) * m - (n - k) / 2.0
        if not (l1 < mu_deg < h1):
            failures.append(f"(n={n},k={k},m={m}): center outside cluster 1")
        if not (l2 < mu_deg + (n - k - 1) < h2):
            failures.append(
                f"(n={n},k={k},m={m}): shifted center outside cluster 2"
            )
        if abs((h1 - l1) - n) > 1e-12 or abs((h2 - l2) - n) > 1e-12:
            failures.append(f"(n={n},k={k},m={m}): cluster width != n")
    return SuiteResult("spectrum.agreement", cases, failures)


# ---------------------------------------------------------------------------
# Homological algebra checks
# ---------------------------------------------------------------------------


def random_filtered_complex(rng: np.random.Generator, n_gens: int = 10) -> FilteredZ2Complex:
    """A random valid filtered complex: paired generators conjugated by a
    random action-filtered unipotent change of basis."""
    gens = [
        Generator(f"g{i}", int(rng.integers(0, 4)), float(rng.uniform(0, 10)))
        for i in range(n_gens)
    ]
    c = FilteredZ2Complex(gens, [])
    used: set = set()
    for i in range(n_gens):
        for j in range(n_gens):
            if i in used or j in used or i == j:
                continue
            gi, gj = gens[i], gens[j]
            if gi.degree == gj.degree - 1 and gi.action < gj.action and rng.random() < 0.4:
                c.d[i, j] = 1
                used.add(i)
                used.add(j)
    p = np.eye(n_gens, dtype=np.uint8)
    for i in range(n_gens):
        for j in range(n_gens):
            if (
                i != j
                and gens[i].degree == gens[j].degree
                and gens[i].action < gens[j].action
                and rng.random() < 0.3
            ):
                p[i, j] = 1
    aug = np.hstack([p.copy(), np.eye(n_gens, dtype=np.uint8)])
    for col in range(n_gens):
        piv = next(r for r in range(col, n_gens) if aug[r, col])
        aug[[col, piv]] = aug[[piv, col]]
        for r in range(n_gens):
            if r != col and aug[r, col]:
                aug[r] ^= aug[col]
    pinv = aug[:, n_gens:]
    return FilteredZ2Complex.from_matrix(gens, (pinv @ c.d @ p) % 2)


def mutate_complex(c: FilteredZ2Complex, rng: np.random.Generator) -> FilteredZ2Complex:
    """A mutation guaranteed to break validity (degree, action, or d^2)."""
    gens = c.generators
    n = len(gens)
    kind = int(rng.integers(0, 3))
    d = c.d.copy()
    if kind == 0:  # degree violation
        while True:
            i, j = rng.integers(0, n, size=2)
            if i != j and gens[i].degree != gens[j].degree - 1:
                d[i, j] ^= 1
                if d[i, j]:
                    break
    elif kind == 1:  # action violation (keep degree legal)
        pairs = [
            (i, j)
            for i in range(n)
            for j in range(n)
            if i != j
            and gens[i].degree == gens[j].degree - 1
            and gens[i].action >= gens[j].action
        ]
        if not pairs:
            return mutate_complex(c, rng)  # fall through to another kind
        i, j = pairs[int(rng.integers(0, len(pairs)))]
        d[i, j] ^= 1
        if not d[i, j]:
            d[i, j] ^= 1
    else:  # d^2 violation: append a tail edge below an existing edge
        rows, cols = np.nonzero(d)
        if len(rows) == 0:
            return mutate_complex(c, rng)
        pick = int(rng.integers(0, len(rows)))
        r = rows[pick]
        tails = [
            t
            for t in range(n)
            if t != r
            and gens[t].degree == gens[r].degree - 1
            and gens[t].action < gens[r].action
            and d[t, r] == 0
        ]
        if not tails:
            return mutate_complex(c, rng)
        t = tails[int(rng.integers(0, len(tails)))]
        d[t, r] ^= 1
        mutated = FilteredZ2Complex.from_matrix(gens, d)
        if mutated.validate().ok:  # extremely unlikely; force a degree break
            d[t, r] ^= 1
            return mutate_complex(c, rng)
        return mutated
    return FilteredZ2Complex.from_matrix(gens, d)


MUTATIONS = 50  # random complexes the homalg suite mutates


def homalg_suite(seed: int = 0) -> SuiteResult:
    failures: List[str] = []
    rng = np.random.default_rng(seed)
    mutations = MUTATIONS

    caught = 0
    for i in range(mutations):
        base = random_filtered_complex(rng)
        if not base.validate().ok:
            failures.append(f"mutation {i}: base complex invalid")
            continue
        if not mutate_complex(base, rng).validate().ok:
            caught += 1
        else:
            failures.append(f"mutation {i}: validator missed a seeded violation")
    if caught != mutations and not failures:
        failures.append(f"detected {caught}/{mutations} mutations")

    r = direct_limit(identity_system(10))
    if r.dims != {0: 1}:
        failures.append(f"identity system limit {r.dims} != 1")
    r = direct_limit(zero_map_system(10))
    if r.dims != {0: 0}:
        failures.append(f"zero-map system limit {r.dims} != 0")
    if r.finite_quotient_dims != {0: 1}:
        failures.append("zero-map finite quotient should keep the last stage")
    r = direct_limit(model_flow_system(2, 9))
    if any(r.dims[2 * k] != 0 for k in range(7)):
        failures.append(f"model flow limit not zero per degree: {r.dims}")

    base = random_filtered_complex(rng)
    ident = ChainMap.identity(base)
    if not check_square(ident, ident, ident, ident):
        failures.append("identity square does not commute")

    return SuiteResult("homalg.checks", mutations, failures)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def _same(cases: int) -> int:
    return cases


# name -> (suite, seed offset, case count from the requested count); a suite
# with offset None takes no seed, one with count None takes no case count
SUITES = {
    "maslov.naturality": (naturality_suite, 0, _same),
    "maslov.concatenation": (concatenation_suite, 1, _same),
    "maslov.product": (product_suite, 2, _same),
    "maslov.localization": (localization_suite, 3, _same),
    "maslov.reparametrization": (reparametrization_suite, 4, _same),
    "maslov.loop_consistency": (loop_consistency_suite, 5, lambda c: max(50, c // 2)),
    "handle.identities": (handle_identity_suite, 10, None),
    "handle.certification": (handle_certification_suite, None, None),
    "handle.radial_slope": (slope_identity_suite, None, None),
    "profiles.transfer_ledger": (profile_ledger_suite, None, None),
    "profiles.beta_envelope": (beta_envelope_suite, None, None),
    "spectrum.agreement": (spectrum_agreement_suite, None, None),
    "homalg.checks": (homalg_suite, 20, None),
}


def suite_args(name: str, seed: int, cases: int) -> tuple:
    """The named suite's arguments: its seed, then its case count, each where
    the suite takes one."""
    _, offset, count = SUITES[name]
    args = () if offset is None else (seed + offset,)
    return args if count is None else args + (count(cases),)


def run_suite(name: str, seed: int = 0, cases: int = 100) -> SuiteResult:
    """The named suite's result, with its wall time in ``elapsed``."""
    t0 = time.perf_counter()
    result = SUITES[name][0](*suite_args(name, seed, cases))
    result.elapsed = time.perf_counter() - t0
    return result
