"""Robbin-Salamon indices of Lagrangian path pairs via crossing forms.

The index of a pair is computed by the graph construction: the pair
(L0(t), L1(t)) becomes the single path L0(t) + L1(t) in
(R^{2n} + R^{2n}, omega + (-omega)) against the constant diagonal, and the
single-path index is the signature-weighted count of crossings,

    mu = 1/2 sign G(t0) + sum_interior sign G(t) + 1/2 sign G(t1),

where G(t) is the crossing form on the intersection, obtained by writing the
moving Lagrangian as a graph over itself at the crossing time and
differentiating the induced quadratic form.

Crossings come from d(t) = det[moving frame | reference], scanned on
``scan + 1`` points.  Every path evaluation is one batched ``frames(ts)``
call, so an index costs a fixed dozen or so calls whatever its crossing
count.  The start t0 is checked before the scan, so a pair irregular there
fails fast.  A scan cell where d changes sign is refined to its root; a scan
point where |d| < 1e-3 is a local minimum is refined to the minimum of |d|
(even-dimensional or tangential crossings), but only if neither cell next to
it changes sign, so each crossing takes one route and is counted once.  All
brackets refine together: each step puts `REFINE_POINTS` points into every
live bracket, in one call, down to a width of 1e-13.  The crossing forms at
the merged candidates and t1 take two more calls (candidates, then all
finite-difference stencils); the first irregular crossing in time order raises.

Floating point appears only in crossing detection and in the finite-difference
derivative of the graph representation; every index is returned as an exact
`HalfInt`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    EndpointMismatchError,
    IrregularCrossingError,
)
from .halfint import HalfInt
from .symplin import (
    LagrangianPath,
    complex_structure,
    intersection_basis,
    omega_matrix,
)

TIME_TOL = 1e-10
FD_STEP = 1e-6
REGULARITY_TOL = 1e-8
DEFAULT_SCAN = 2048
REFINE_POINTS = 32  # points put into every live bracket per refinement step
STOP_WIDTH = 1e-13
DIP_TOL = 1e-3

# Richardson-extrapolated difference quotients with steps h/2 and h: sample
# offsets in units of the signed step, and weights over 6 * step.
_CENTRAL = (np.array([0.5, -0.5, 1.0, -1.0]), np.array([8.0, -8.0, -1.0, 1.0]))
_ONE_SIDED = (np.array([0.0, 0.5, 1.0, 2.0]), np.array([-21.0, 32.0, -12.0, 1.0]))


@dataclass(frozen=True)
class Crossing:
    """One crossing of a path pair: time, intersection data, and regularity."""

    time: float
    intersection_dim: int
    crossing_form_signature: int
    regular: bool
    boundary: bool = False

    def check_invariants(self) -> None:
        if abs(self.crossing_form_signature) > self.intersection_dim:
            raise IrregularCrossingError(self.time, "signature exceeds dimension")
        if self.regular and (
            (self.crossing_form_signature - self.intersection_dim) % 2 != 0
        ):
            raise IrregularCrossingError(self.time, "signature parity violation")


class _ProductPath:
    """The pair (L0, L1) as one path in (R^{4n}, omega + (-omega))."""

    def __init__(self, path0: LagrangianPath, path1: LagrangianPath):
        if path0.n != path1.n:
            raise DimensionMismatchError(
                f"paths have n={path0.n} and n={path1.n}"
            )
        if (
            abs(path0.domain[0] - path1.domain[0]) > 1e-12
            or abs(path0.domain[1] - path1.domain[1]) > 1e-12
        ):
            raise DimensionMismatchError(
                f"paths have domains {path0.domain} and {path1.domain}"
            )
        self.n = path0.n
        self.domain = path0.domain
        self.p0, self.p1 = path0, path1
        n2 = 2 * self.n
        o, j = omega_matrix(self.n), complex_structure(self.n)
        z = np.zeros((n2, n2))
        self.form = np.block([[o, z], [z, -o]])
        self.jmat = np.block([[j, z], [z, -j]])
        self.ref = np.vstack([np.eye(n2), np.eye(n2)]) / np.sqrt(2.0)
        self.scan = max(path0.sample_resolution, path1.sample_resolution, DEFAULT_SCAN)

    def frames(self, ts) -> np.ndarray:
        f0 = self.p0.frames(ts)
        f1 = self.p1.frames(ts)
        t, n2, n = f0.shape
        out = np.zeros((t, 2 * n2, 2 * n))
        out[:, :n2, :n] = f0
        out[:, n2:, n:] = f1
        return out


class _CrossingEngine:
    """Signature-weighted crossing count of a moving frame against a fixed one."""

    def __init__(self, moving, ref, domain, form, jmat, scan=DEFAULT_SCAN):
        self.moving = moving  # object with frames(ts)
        self.ref = ref / np.linalg.norm(ref, axis=0, keepdims=True)
        self.domain = domain
        self.form = form
        self.jmat = jmat
        self.scan = scan

    # -- determinant scan and refinement ---------------------------------------

    def _dets(self, ts) -> np.ndarray:
        step = self.scan + 1  # bounded memory: at most scan + 1 frames per call
        if len(ts) > step:
            return np.concatenate([self._dets(ts[i : i + step])
                                   for i in range(0, len(ts), step)])
        f = self.moving.frames(ts)
        f = f / np.linalg.norm(f, axis=1, keepdims=True)
        ref = np.broadcast_to(self.ref, (len(ts),) + self.ref.shape)
        return np.linalg.det(np.concatenate([f, ref], axis=2))

    def _refine(self, lo, hi, dlo, dhi, root):
        """Refine brackets [lo, hi] to a root of det (``root``) or a |det| minimum.

        A root bracket keeps its first sub-cell with a sign change, and an
        exact zero ends it; a minimum bracket keeps the two sub-cells around
        its smallest |det|.  Returns the refined times and |det| at each.
        """
        k = REFINE_POINTS
        t, val = 0.5 * (lo + hi), np.zeros(len(lo))
        live = np.arange(len(lo))
        while live.size:
            a, b, rows = lo[live], hi[live], np.arange(live.size)
            nodes = a[:, None] + (b - a)[:, None] * (np.arange(k + 2) / (k + 1))
            d = np.empty_like(nodes)
            d[:, 1:-1] = self._dets(nodes[:, 1:-1].ravel()).reshape(-1, k)
            nodes[:, -1], d[:, 0], d[:, -1] = b, dlo[live], dhi[live]
            flip = np.argmax(np.sign(d[:, 1:]) != np.sign(d[:, :1]), axis=1) + 1
            low = np.argmin(np.abs(d), axis=1)
            r = root[live]
            best = np.where(r, flip, low)
            i = np.where(r, flip - 1, np.maximum(low - 1, 0))
            j = np.where(r, flip, np.minimum(low + 1, k + 1))
            val[live] = np.abs(d[rows, best])
            done = r & (val[live] == 0.0)
            lo[live], dlo[live] = nodes[rows, i], d[rows, i]
            hi[live], dhi[live] = nodes[rows, j], d[rows, j]
            t[live] = np.where(r & ~done, 0.5 * (lo[live] + hi[live]), nodes[rows, best])
            width = hi[live] - lo[live]
            # stop at STOP_WIDTH, or where floating point no longer splits a bracket
            live = live[~done & (width > STOP_WIDTH) & (width < b - a)]
        return t, val

    # -- crossing form ---------------------------------------------------------

    def _crossings_at(self, ts) -> List[Crossing]:
        """The crossings among candidate times ``ts``, in order; two `frames` calls."""
        t0, t1 = self.domain
        hits = []
        for t, f in zip(ts, self.moving.frames(np.asarray(ts, dtype=float))):
            basis = intersection_basis(f, self.ref)
            if basis.shape[1] > 0:
                hits.append((float(t), f, basis))
        if not hits:
            return []
        h = min(FD_STEP, (t1 - t0) / 16.0)
        rules = [
            (_ONE_SIDED, h) if t - t0 < 4 * h
            else (_ONE_SIDED, -h) if t1 - t < 4 * h
            else (_CENTRAL, h)
            for t, _, _ in hits
        ]
        pts = np.concatenate(
            [t + rule[0] * step for (t, _, _), (rule, step) in zip(hits, rules)])
        stencils = self.moving.frames(pts).reshape((len(hits), 4) + hits[0][1].shape)
        return [
            self._crossing(t, f, basis, g, rule[1], step)
            for (t, f, basis), (rule, step), g in zip(hits, rules, stencils)
        ]

    def _crossing(self, t, f, basis, stencil, weights, step) -> Crossing:
        """Crossing at t with frame f, from the frames at its stencil points."""
        # symmetrized d/dt of the moving frame written as a graph over itself
        b, _ = np.linalg.qr(f)
        w = self.jmat @ b
        s = (w.T @ stencil) @ np.linalg.inv(b.T @ stencil)
        ds = np.tensordot(weights, s, axes=1) / (6.0 * step)
        u = b.T @ basis
        gamma = u.T @ ((ds + ds.T) / 2.0) @ u
        gamma = (gamma + gamma.T) / 2.0
        eig = np.linalg.eigvalsh(gamma)
        scale = max(1.0, float(np.max(np.abs(eig)))) if eig.size else 1.0
        if eig.size and np.min(np.abs(eig)) <= REGULARITY_TOL * scale:
            raise IrregularCrossingError(t)
        sig = int(np.sum(eig > 0) - np.sum(eig < 0))
        c = Crossing(t, basis.shape[1], sig, True, t in self.domain)
        c.check_invariants()
        return c

    # -- main loop -------------------------------------------------------------

    def crossings(self) -> List[Crossing]:
        t0, t1 = self.domain
        out = self._crossings_at([t0])  # before the scan: an irregular start fails fast
        ts = np.linspace(t0, t1, self.scan + 1)
        dets = self._dets(ts)
        signs, absd = np.sign(dets), np.abs(dets)
        flip = signs[:-1] * signs[1:] < 0  # cell [ts[i], ts[i+1]] has a sign change
        # dips without a sign change (even-dimensional or tangential crossings);
        # a scan point next to a sign change is left to the root search
        mid = absd[1:-1]
        dip = (mid > 0) & (mid < DIP_TOL) & (mid <= absd[:-2]) & (mid <= absd[2:])
        r = np.nonzero(flip)[0]
        m = np.nonzero(dip & ~flip[:-1] & ~flip[1:])[0] + 1
        lo, hi = np.concatenate([r, m - 1]), np.concatenate([r + 1, m + 1])
        root = np.arange(len(lo)) < len(r)
        found, val = self._refine(ts[lo], ts[hi], dets[lo], dets[hi], root)
        interior_times = sorted(
            list(found[root | (val < DIP_TOL)]) + list(ts[1:-1][signs[1:-1] == 0])
        )

        # merge, drop boundary hits
        merged: List[float] = []
        for t in interior_times:
            if merged and abs(t - merged[-1]) < 50 * TIME_TOL:
                continue
            if t - t0 < 50 * TIME_TOL or t1 - t < 50 * TIME_TOL:
                continue
            merged.append(float(t))
        return out + self._crossings_at(merged + [t1])

    def index(self) -> Tuple[HalfInt, List[Crossing]]:
        halves = 0
        cs = self.crossings()
        for c in cs:
            halves += c.crossing_form_signature * (1 if c.boundary else 2)
        return HalfInt(halves), cs


def _pair_engine(pair, resolution=None) -> _CrossingEngine:
    path0, path1 = pair
    prod = _ProductPath(path0, path1)
    return _CrossingEngine(
        prod, prod.ref, prod.domain, prod.form, prod.jmat,
        scan=resolution or prod.scan,
    )


def rs_index(pair, resolution: int | None = None) -> HalfInt:
    """Signature-weighted crossing index of a pair of Lagrangian paths.

    Args:
        pair: tuple (path0, path1) of `LagrangianPath` with equal n and domain.
        resolution: optional override of the crossing-scan resolution.

    Raises:
        IrregularCrossingError: a crossing form is degenerate; the caller must
            perturb (degenerate chords are handled upstream, never silently
            perturbed here).
    """
    idx, _ = _pair_engine(pair, resolution).index()
    return idx


def rs_crossings(pair, resolution: int | None = None) -> List[Crossing]:
    """The crossings found while computing `rs_index` (for diagnostics)."""
    _, cs = _pair_engine(pair, resolution).index()
    return cs


def det2_winding(loop: LagrangianPath, max_refine: int = 18) -> int:
    """Winding number of det^2 along a loop of Lagrangian subspaces.

    The argument of det^2 is accumulated over a sample grid that is refined
    until successive arguments differ by less than pi/2.
    """
    f0, f1 = loop.endpoint_frames()
    from .symplin import lagrangian_intersection_dim

    if lagrangian_intersection_dim(f0, f1) != loop.n:
        raise EndpointMismatchError("loop endpoints span different subspaces")

    t0, t1 = loop.domain
    m = max(64, loop.sample_resolution)
    for _ in range(max_refine):
        ts = np.linspace(t0, t1, m + 1)
        frames = loop.frames(ts)
        q, _ = np.linalg.qr(frames)
        u = q[:, : loop.n, :] + 1j * q[:, loop.n :, :]
        d2 = np.linalg.det(u) ** 2
        args = np.angle(d2)
        steps = np.diff(args)
        steps = (steps + np.pi) % (2 * np.pi) - np.pi
        if np.max(np.abs(steps)) < np.pi / 2:
            total = float(np.sum(steps))
            winding = int(np.round(total / (2 * np.pi)))
            return winding
        m *= 2
    raise DimensionMismatchError("det^2 argument did not stabilize under refinement")


def chord_maslov(flow_path: LagrangianPath, reference: LagrangianPath, n: int) -> HalfInt:
    """Chord grading ``rs_index((flow_path, reference)) - n/2``."""
    if flow_path.n != n or reference.n != n:
        raise DimensionMismatchError("paths must have the stated n")
    return rs_index((flow_path, reference)) - HalfInt(n)
