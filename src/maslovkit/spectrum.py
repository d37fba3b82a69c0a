"""Chord levels and indices of the handle flow on the {x = y = 0} locus.

On that locus the flow rotates each transverse plane by e^{i a C_z t / 2}
with C_z constant along the flow, so one-chords with endpoints on the
vertical Lagrangian appear exactly at the levels where a C_z / 2 is an
integer multiple of pi.  Two routes compute the index of such a chord:

* `handle_rs_index` -- the closed-form total
      n/2 + (n - k) (a C_z / (2 pi) - 1/2),
  i.e. one half per handle plane plus a full rotation count per transverse
  plane.

* `handle_rs_index_ode` -- an independent numerical route: fixed-step RK4
  integration of the 2x2 linearized blocks (powers of the RK4 one-step
  operator, built by doubling; never the exponential, so the route stays
  independent of the closed form), followed by counting crossings of the
  vertical axis with half weight for the boundary *dimension*.

The two must agree exactly.  Note the counting rule here weights a boundary
crossing by half its dimension, the convention under which each hyperbolic
block contributes +1/2; the signature-weighted convention of
`maslov.rs_index` assigns those boundary crossings -1/2 instead (the two
conventions agree at every positive-definite crossing, in particular on all
rotation blocks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    IntegrationError,
    NotAChordLevelError,
)
from .halfint import HalfInt
from .handle import inner_z_slope

CHORD_LEVEL_TOL = 1e-9
ZERO_LEVEL_TOL = 1e-13  # levels at or below this z are the constant chord


@dataclass(frozen=True)
class CoefficientProfile:
    """Flow coefficients: constants Cx, Cy and a monotone table for Cz(z)."""

    cx: float
    cy: float
    z_table: np.ndarray  # shape (m, 2): columns z, Cz

    @staticmethod
    def of(cx: float, cy: float, table) -> "CoefficientProfile":
        t = np.asarray(table, dtype=float)
        if t.ndim != 2 or t.shape[1] != 2 or t.shape[0] < 2:
            raise DimensionMismatchError("table must be a (m, 2) array of (z, Cz)")
        if not (np.all(np.isfinite(t)) and np.isfinite(cx) and np.isfinite(cy)):
            raise DimensionMismatchError("the table and coefficients must be finite")
        if cx <= 0 or cy <= 0 or np.any(t[:, 1] <= 0):
            raise DimensionMismatchError("all coefficients must be positive")
        if np.any(np.diff(t[:, 0]) <= 0):
            raise DimensionMismatchError("z column must be strictly increasing")
        if np.any(np.diff(t[:, 1]) <= 0):
            raise DimensionMismatchError("Cz table must be strictly increasing")
        return CoefficientProfile(cx, cy, t)

    @staticmethod
    def from_handle_params(epsilon: float, delta: float, cx: float = 1.0,
                           cy: float = 1.0) -> "CoefficientProfile":
        """Default linear interpolation on [0, delta] from the inner z-slope to
        its 1/eps multiple, the range the radial extension sweeps on {x=y=0}."""
        c_lo = inner_z_slope(epsilon, delta)
        return CoefficientProfile.of(cx, cy, [[0.0, c_lo], [delta, c_lo / epsilon]])

    def cz(self, z):
        t = self.z_table
        return np.interp(z, t[:, 0], t[:, 1])

    @property
    def z_min(self) -> float:
        return float(self.z_table[0, 0])

    @property
    def z_max(self) -> float:
        return float(self.z_table[-1, 0])


@dataclass(frozen=True)
class HandleChord:
    """A chord level: z, the half-turn multiplicity m, and whether it is the
    constant chord at the origin."""

    z_level: float
    multiplicity_condition: int
    is_constant: bool

    def check(self, a: float, prof: CoefficientProfile) -> None:
        if self.is_constant:
            return
        lhs = a * float(prof.cz(self.z_level)) / 2.0
        if abs(lhs - self.multiplicity_condition * np.pi) > 1e-10:
            raise NotAChordLevelError(
                f"a*Cz/2 = {lhs} is not {self.multiplicity_condition} pi"
            )


def chord_levels(a: float, prof: CoefficientProfile,
                 z_max: Optional[float] = None) -> List[HandleChord]:
    """The constant chord plus one chord family per solvable a Cz(z)/2 = m pi.

    Solutions at z = 0 exactly are the boundary of the constant locus and are
    reported as the constant chord only, not as a family.
    """
    if not 0 < a < np.inf:
        raise DimensionMismatchError(f"slope a must be positive and finite, got {a!r}")
    zm = prof.z_max if z_max is None else min(z_max, prof.z_max)
    out = [HandleChord(0.0, 0, True)]
    c0, c1 = float(prof.cz(prof.z_min)), float(prof.cz(zm))
    m_lo = int(np.floor(a * c0 / (2 * np.pi))) - 1
    m_hi = int(np.ceil(a * c1 / (2 * np.pi))) + 1
    for m in range(max(m_lo, 1), m_hi + 1):
        target = 2.0 * np.pi * m / a
        if target < c0 - 1e-12 or target > c1 + 1e-12:
            continue
        if abs(target - c0) <= 1e-12 and prof.z_min == 0.0:
            continue  # constant-locus boundary
        # Cz is piecewise linear and strictly increasing: swap the table columns
        z = min(float(np.interp(target, prof.z_table[:, 1], prof.z_table[:, 0])), zm)
        if z <= ZERO_LEVEL_TOL:
            continue
        out.append(HandleChord(float(z), m, False))
    return out


def _multiplicity(a: float, cz: float) -> int:
    m_float = a * cz / (2.0 * np.pi)
    if not np.isfinite(m_float):
        raise NotAChordLevelError(f"not a chord level: a*Cz/2 = {a * cz / 2.0!r} is not finite")
    m = int(np.round(m_float))
    if abs(a * cz / 2.0 - m * np.pi) > CHORD_LEVEL_TOL:
        raise NotAChordLevelError(
            f"not a chord level: a*Cz/2 = {a * cz / 2.0!r} is not an integer "
            "multiple of pi"
        )
    return m


def handle_rs_index(n: int, k: int, a: float, cz_at_level: float) -> HalfInt:
    """Closed-form chord index n/2 + (n-k)(a Cz/(2 pi) - 1/2), exact."""
    if not (1 <= k < n):
        raise DimensionMismatchError(f"need 1 <= k < n, got k={k}, n={n}")
    m = _multiplicity(a, cz_at_level)
    return HalfInt(k + 2 * (n - k) * m)


def _rk4_operator(mats: np.ndarray, step: float):
    """(R, N): for v' = M v with stacked 2x2 blocks M and h = 1/N, N = round(1/step),
    the classical RK4 step is v -> R v with R = I + hM + (hM)^2/2 + (hM)^3/6
    + (hM)^4/24 (not exp(hM)), so v_i = R^i v0."""
    if step <= 0 or not np.isfinite(step):
        raise IntegrationError(f"step underflow: invalid step {step!r}")
    n_steps = int(np.round(1.0 / step))
    if n_steps < 8:
        raise IntegrationError("step too large")
    h = 1.0 / n_steps
    hm = h * mats
    r, term = np.eye(2) + hm, hm
    for fact in (2.0, 3.0, 4.0):
        term = term @ hm / fact
        r = r + term
    return r, n_steps


def _rk4_blocks(mats: np.ndarray, step: float, v0: np.ndarray):
    """The RK4 trajectory v_i = R^i v0, i = 0..N (`_rk4_operator`), filled by
    doubling, v_{L+j} = R^L v_j for j < L, in about log2(N) batched products."""
    r, n_steps = _rk4_operator(mats, step)
    traj = np.empty(v0.shape + (n_steps + 1,))  # (block, 2, step)
    traj[..., 0] = v0
    done, power = 1, r  # power = R^done
    while True:
        take = min(done, n_steps + 1 - done)
        traj[..., done:done + take] = power @ traj[..., :take]
        done += take
        if done > n_steps:
            break
        power = power @ power
    if not np.all(np.isfinite(traj)):
        raise IntegrationError("integration blew up (non-finite trajectory)")
    return traj.transpose(2, 0, 1)


def _count_block_halves(x: np.ndarray, y: np.ndarray, zero_tol: float = 1e-9) -> int:
    """Crossing count in halves for one block path v(t) = Phi(t)(0, 1).

    Interior transversal crossings of the vertical axis {x = 0} count with
    the sign of the angular direction -x'/y; crossings at the two ends count
    one half each (dimension-weighted).  ``zero_tol`` must dominate the
    integration error of the trajectory.

    A zero streak starting at 1 <= i < m counts 2 sign(-(x[j] - x[i-1]) y[i])
    at its first nonzero sample j, if any; a sign change between nonzero
    samples i, i+1 with 1 <= i < m counts 2 sign(-(x[i+1] - x[i]) y[i]).
    """
    m = len(x) - 1
    near_zero = np.abs(x) < zero_tol * max(1.0, float(np.max(np.abs(x))))
    halves = int(near_zero[0]) + int(near_zero[m])
    inner = np.arange(1, m)
    flips = inner[~near_zero[1:m] & ~near_zero[2:] & (x[1:m] * x[2:] < 0)]
    halves += 2 * int(np.sum(np.sign(-(x[flips + 1] - x[flips]) * y[flips])))
    starts = inner[near_zero[1:m] & ((inner == 1) | ~near_zero[:m - 1])]
    nonzero = np.flatnonzero(~near_zero)
    after = np.searchsorted(nonzero, starts)
    ended = after < nonzero.size
    starts, ends = starts[ended], nonzero[after[ended]]
    halves += 2 * int(np.sum(np.sign(-(x[ends] - x[starts - 1]) * y[starts])))
    return halves


def handle_rs_index_ode(
    n: int,
    k: int,
    a: float,
    prof: CoefficientProfile,
    z_level: float,
    step: float = 1e-4,
) -> Tuple[HalfInt, dict]:
    """Index of the chord at z_level via block integration and crossing counts.

    The linearized flow splits into k copies of the hyperbolic block
        Phi' = a [[0, Cy/2], [3 Cx/2, 0]] Phi
    and n-k copies of the rotation block Phi' = (a Cz / 2) J Phi, so only
    these two distinct blocks are integrated.  Each one's vertical line
    Phi(t)(0,1) is tracked through [0,1]; crossings of the vertical axis are
    counted with direction, boundary crossings at half weight per dimension,
    and the two counts are weighted by k and n-k.  A Richardson check against
    the step-2h endpoint R_2^(N/2) v0, by repeated squaring of the 2h
    operator, guards the integration.

    Returns (index, diagnostics); diagnostics carries the crossing count of
    each of the n blocks and the hyperbolic blocks' minimum second coordinate.
    """
    if not (1 <= k < n):
        raise DimensionMismatchError(f"need 1 <= k < n, got k={k}, n={n}")
    cz = float(prof.cz(z_level))
    _multiplicity(a, cz)  # precondition: genuine chord level

    hyper = a * np.array([[0.0, prof.cy / 2.0], [3.0 * prof.cx / 2.0, 0.0]])
    rot = (a * cz / 2.0) * np.array([[0.0, -1.0], [1.0, 0.0]])
    mats = np.stack([hyper, rot])
    v0 = np.array([[0.0, 1.0], [0.0, 1.0]])

    traj = _rk4_blocks(mats, step, v0)
    r2, n2 = _rk4_operator(mats, 2 * step)
    drift = float(np.max(np.abs(traj[-1, ..., None] - np.linalg.matrix_power(r2, n2) @ v0[..., None])))
    if not drift <= 1e-6:  # a non-finite endpoint fails too
        raise IntegrationError(
            f"Richardson doubling check failed: endpoint drift {drift:.3e}"
        )

    # crossing resolution cannot beat the integration accuracy
    zero_tol = max(1e-9, 50.0 * drift)
    hb, rb = (_count_block_halves(traj[:, b, 0], traj[:, b, 1], zero_tol=zero_tol) for b in (0, 1))
    min_y = float(np.min(traj[1:, 0, 1]))
    blocks = ([{"kind": "hyperbolic", "halves": hb, "min_y_interior": min_y} for _ in range(k)]
              + [{"kind": "rotation", "halves": rb} for _ in range(n - k)])
    return HalfInt(k * hb + (n - k) * rb), {"blocks": blocks, "drift": drift}


def perturbation_cluster_bounds(n: int, k: int, a: float,
                                cz_at_level: float) -> Tuple[Tuple[float, float], Tuple[float, float]]:
    """The two open intervals of graded indices for the split chord clusters.

    With m = a Cz / (2 pi):
        ((n-k) m - n + k/2,  (n-k) m + k/2)       and
        ((n-k) m - k/2 - 1,  (n-k) m + n - k/2 - 1).
    Both have width n; the first contains the degenerate graded index
    (n-k)(m - 1/2), the second contains it shifted up by n - k - 1 (the top
    cell of the chord family).
    """
    if not (1 <= k < n):
        raise DimensionMismatchError(f"need 1 <= k < n, got k={k}, n={n}")
    m = _multiplicity(a, cz_at_level)
    c = (n - k) * m
    lower = (c - n + k / 2.0, c + k / 2.0)
    upper = (c - k / 2.0 - 1.0, c + n - k / 2.0 - 1.0)
    return lower, upper


def agreement_cases(n_max: int = 5, m_max: int = 4) -> Iterator[tuple]:
    """Both index routes, the ODE one at its default step, over 2 <= n <= n_max,
    1 <= k < n, 1 <= m <= m_max, at the midpoint level z* of the eps = 0.1,
    delta = 0.05 handle profile with the slope a that makes a Cz(z*)/2 = m pi.

    Yields (n, k, m, a Cz, formula index, (ode index, diagnostics),
    cluster bounds).  An empty range (n_max < 2 or m_max < 1) raises
    `DimensionMismatchError`.
    """
    if n_max < 2 or m_max < 1:
        raise DimensionMismatchError(f"need n_max >= 2 and m_max >= 1, got {n_max} and {m_max}")
    prof = CoefficientProfile.from_handle_params(0.1, 0.05)
    z_star = 0.5 * (prof.z_min + prof.z_max)
    cz = float(prof.cz(z_star))
    for n in range(2, n_max + 1):
        for k in range(1, n):
            for m in range(1, m_max + 1):
                a = 2.0 * np.pi * m / cz
                yield (n, k, m, a * cz, handle_rs_index(n, k, a, cz),
                       handle_rs_index_ode(n, k, a, prof, z_star),
                       perturbation_cluster_bounds(n, k, a, cz))


def sweep_rows(n_max: int = 5, m_max: int = 4) -> List[list]:
    """CSV rows comparing the formula and ODE routes over a (n, k, m) grid."""
    header = ["n", "k", "m", "aCz", "mu_RS_formula_halves", "mu_RS_ode_halves",
              "cluster1_lo", "cluster1_hi", "cluster2_lo", "cluster2_hi"]
    return [header] + [
        [n, k, m, acz, f.halves, o.halves, l1, h1, l2, h2]
        for n, k, m, acz, f, (o, _), ((l1, h1), (l2, h2))
        in agreement_cases(n_max, m_max)
    ]
