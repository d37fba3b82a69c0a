"""Robbin-Salamon indices of Lagrangian path pairs by spectral flow.

Write U = X + iY for an orthonormal frame (X; Y) of a Lagrangian L.  For a
pair (L0(t), L1(t)) let V = U0* U1 and W = V V^T (the Souriau map of L1
relative to L0).  W is unitary, its eigenvalues do not depend on the frames
chosen, and dim(L0 ∩ L1) is the multiplicity of its eigenvalue 1.  The index
counts the eigenvalues of W that pass 1 (Robbin-Salamon 1993, Phillips 1996):

    mu = -flow - k0/2 + k1/2,
    flow = (E(t0) + Theta(t1) - Theta(t0) - E(t1)) / 2 pi,

where Theta is a continuous lift of arg det V^2 = arg det W, E(t) is the sum
of the eigenphases of W(t) taken in [0, 2 pi), and k0, k1 are the
intersection dimensions at the ends, whose eigenphases are taken as 0.  So an
eigenphase that decreases through 0 adds 1, one that leaves 0 downward at t0
or reaches 0 from above at t1 adds 1/2, and the reverse directions subtract.
Only the total change of arg det^2 and the spectra at the ends enter: interior
crossings need not be regular, and none is located to compute the index.

`_path_ends` gives each path's raw end frames and its det^2 lift at its ends;
`rs_index` and `det2_winding` share it.  It lifts one path alone: arg det V^2 =
arg (det U1)^2 - arg (det U0)^2, so the index needs only each path's lift at
its ends.  `_path_lift` is the one det^2 lift of a path's own frames, and a
path moved by a `GeneratorPath` is lifted from its parent's (below).
`_path_lift` reads det(X + iY) of the raw frames: (X; Y) = Q R with Q
orthonormal and R real gives X + iY = U R, so det(X + iY)^2 = det U^2 det R^2
with det R^2 > 0, and only the unit phase (the `slogdet` sign) is kept, so no
frame overflows.

A path's grid is certified when it reports a constant generator S
(`LagrangianPath.generator`, F' = J S F: a `GeneratorPath`, a `ConstantPath`,
a constant path moved by a `GeneratorPath`, their restrictions and direct
sums): a uniform grid of

    N = max(1, ceil((t1 - t0) |S|_2 (1 + z) / z)),  z = tan(pi / 8 n),

cells, sized by that path's own S; a constant path takes one cell.  The bound
is a Riccati comparison (Reid 1972).  At a cell start let Q be an orthonormal
frame of L and B = [Q, JQ]; B is orthogonal and symplectic and commutes with
J.  In the chart B, L(start + tau) is the graph of a symmetric Z(tau) with
Z(0) = 0 and

    Z' = P11 + P12 Z + Z P21 + Z P22 Z,   P = B^T S B,

and every block of P has norm at most |P| = |S|_2, so |Z'| <= |S| (1 + |Z|)^2.
The comparison solution of z' = |S| (1 + z)^2, z(0) = 0, is
|S| tau / (1 - |S| tau), so |Z| <= z while tau <= z / (|S| (1 + z)), the cell
width.  The raw frame is U_Q (I + iZ) X with X real, so within a cell arg det^2
moves by at most 2 n arctan z = pi/4: no turn can hide in a cell, and on any
cell of a grid that refines two certified paths' own grids (the grid and the
bisection halves of `rs_crossings`) the pair's theta moves by at most
pi/2 < pi, so anchoring it there is exact.  A lift on that grid whose steps are
all at most pi/4 is returned as it is, with no midpoint pass; the step test
only guards rounding, which on ill-conditioned frames can push a step past
pi/4, and such a lift goes on as an uncertified one.  A `SampledPath` is lifted
in closed form at its nodes, with no grid: on a segment det((1 - s) Z_a + s Z_b)
= det Z_a prod_j ((1 - s) + s nu_j), nu_j the eigenvalues of Z_a^-1 Z_b, and
each factor runs straight from 1 to nu_j, so the segment, or a cell inside
it, adds exactly 2 sum_j Arg nu_j.  A singular node, or a nu_j within
`RAY_GAP` of (-inf, 0], where the interpolated frame degenerates, is refused.
Any other path (another transform, a reparametrization, a `FunctionPath`),
and one whose N exceeds `MAX_CELLS`, starts at `CELLS` cells and doubles
until no step exceeds pi/4 and each step is the sum of its half steps.

A path G = Psi(t) F moved by a `GeneratorPath` Psi of generator S_Psi
(`LagrangianPath.moved`) is lifted in three parts, and its own frames are
never read for the lift.  Write Psi = [[A, B], [C, D]] in (x, y) order as
Psi z = P z + Q conj(z), P = ((A + D) + i(C - B))/2, Q = ((A - D) + i(C + B))/2,
so Z_G = P Z_F + Q conj(Z_F) and

    det Z_G = det P det M det Z_F,  M = P^-1 Z_G Z_F^-1 = I + K conj(Z_F) Z_F^-1,

K = P^-1 Q.  For symplectic Psi, |K|_2 < 1 and sigma_min(P) >= 1, and
conj(Z_F) Z_F^-1 = conj(U_F U_F^T) is unitary, so every eigenvalue lambda_j of M
has |lambda_j - 1| < 1 and Re lambda_j > 0: sum_j Arg lambda_j is continuous in
t and is read at the two ends only.  An end where some Re lambda_j is below
`END_TERM_TOL` is refused (the smallest seen on random Psi is about 2e-2 for
cond Psi < 1e3 and 5e-4 up to 1e9).  P' = A_S P + B_S conj(Q), A_S and B_S the
complex-linear and anti-linear parts of J S_Psi, and |conj(Q) P^-1| < 1, so

    arg det P(t) = t tr(S_Psi)/2 + phi(t),  |phi'| <= n |B_S|_2 <= n |S_Psi|_2,

and on a uniform grid of N_P = max(1, ceil(4 n |B_S|_2 (t1 - t0) / pi)) cells
2 phi moves by at most pi/2 per cell (the largest |phi'| / n |B_S|_2 seen on
100 random Psi is 0.86), so its wrapped steps are its exact steps; one above
pi/2 is refused, with no fallback.  Then

    Theta_G = Theta_F + 2 arg det P + 2 sum_j Arg lambda_j

at the ends, Theta_F by F's own rule: a moved path is exactly as certified as
its parent (a generator, sampled, doubling or another moved path), its ends
come from F's end frames and Psi(t0), Psi(t1), and G's `frames` is called only
for an end stencil.  `rs_crossings` still reads a moved path's own frames on
its grid: its bisection needs theta on every cell, and the end term has no
bound per cell.

A pair whose two paths are moved by one `GeneratorPath` object, such as
(F.transformed(Psi), G.transformed(Psi)) or its restrictions, is indexed as
its parents' pair (F, G): `_peel`, run right after `_domain`, compares Psi by
identity and takes it off as often as it repeats.  By naturality
(Robbin-Salamon 1993, Topology 32, Thm 2.3) mu(Psi L0, Psi L1) = mu(L0, L1),
and the crossings stay too: Psi(t) maps L0 ∩ L1 onto the moved intersection,
so the times and dimensions agree, and the term Psi^-1 Psi' that Psi adds to
each path's crossing form is the same for both and cancels in their
difference, so the signatures agree.  So `rs_crossings` peels as well, and Psi
is never evaluated for such a pair.  A pair with one moved path, or moved by
two Psi objects (even of one S), is lifted by the split above.

Each path of an index (for a moved path, its first unmoved ancestor) is
evaluated once per path object, on its first grid (`_grid`: its nodes, its
certified grid or `CELLS` cells), in ``frames(ts)`` calls of at most `BATCH`
times; its lift and its end frames at ts[0] and ts[-1] come from that one
evaluation.  So a certified or sampled path takes one ``frames`` call per
index while its grid stays under `BATCH`, and any other path one more per
doubling, on the midpoints.  Once its lift has succeeded, `_path_ends` keeps
the path's two raw end frames and two lift values, read-only, on the object,
so a later `rs_index`, `det2_winding` or moved path's lift of it evaluates
nothing; a refused end or a failed lift keeps nothing.  One QR orthonormalizes
the four end frames and one `_phases` call gives W's eigenphases at both ends.
The 4-point end stencil is evaluated, and `_crossing` (the graph test for
L0 ∩ L1, then the crossing form, a one-sided finite difference of the moving
frame written as a graph over itself, only to refuse a degenerate end) run,
only where some eigenphase is within `END_GAP` of 0: the graph test's smallest
singular value is sqrt 2 sin(d/8), d that eigenphase's distance from 0, so it
finds no intersection at a farther end.  t0 is checked first, and an end is
refused before the midpoint pass or the closed form runs.

`rs_crossings` reads the eigenphases of W on one grid: both paths' own grids
(a certified or node grid as it is, a doubling path's settled one) and the
`CELLS` uniform cells' points not within `TIME_TOL` of them.  It refines each
path's own grid, so theta is the sum of both paths' steps on it (`_lift`, which
still refuses a sampled segment by its nodes), and its end frames go to the
same end check.  QR orthonormalizes only the frames whose eigenphases of W
are needed: the end frames, a stencil at an end near a crossing, and the grid
and bisection points of `rs_crossings`.  Raw and orthonormalized phases differ
by about eps cond(F), above `FLOW_TOL` on ill-conditioned frames, so `_anchor`
moves the raw lift's ends, and each grid and bisection point, to arg det V^2
of those unitaries.

An index is an exact `HalfInt` or an error: a flow farther than `FLOW_TOL`
from an integer raises `MaslovkitError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .errors import (
    DimensionMismatchError,
    EndpointMismatchError,
    IrregularCrossingError,
    MaslovkitError,
)
from .halfint import HalfInt
from .symplin import (RANK_TOL, LagrangianFrame, LagrangianPath, SampledPath, complex_structure,
                      intersection_basis, lagrangian_intersection_dim, omega_matrix)

TIME_TOL = 1e-10  # width, relative to the domain, at which rs_crossings stops
FD_STEP = 1e-6
REGULARITY_TOL = 1e-8
FLOW_TOL = 1e-6  # largest distance of a flow, in turns, from its integer
CELLS = 512  # the det^2 lift's first uncertified grid; rs_crossings' uniform floor
MAX_CELLS = 2**16  # the det^2 lift doubles its grid up to this many cells
RAY_GAP = 1e-6  # a sampled segment's nu this close in angle to (-inf, 0] is refused
END_TERM_TOL = 1e-6  # a moved path's end term with some Re lambda_j below this is refused
BATCH = 1024  # the most times in one ``frames`` call: bounds memory on fine grids
# an eigenphase of W at distance d from 0 gives the graph test of `_crossing` the
# smallest singular value sqrt 2 sin(d/8), above RANK_TOL for d > 8 RANK_TOL / sqrt 2
END_GAP = 64 * RANK_TOL  # an end with every eigenphase farther from 0 is transverse

# Richardson-extrapolated one-sided difference quotient with steps h/2 and h:
# sample offsets in units of the signed step, and weights over 6 * step.
_ONE_SIDED = (np.array([0.0, 0.5, 1.0, 2.0]), np.array([-21.0, 32.0, -12.0, 1.0]))


@dataclass(frozen=True)
class Crossing:
    """One crossing of a path pair: time, intersection dimension, signature."""

    time: float
    intersection_dim: int
    crossing_form_signature: int
    boundary: bool = False

    def check_invariants(self) -> None:
        if abs(self.crossing_form_signature) > self.intersection_dim:
            raise IrregularCrossingError(self.time, "signature exceeds dimension")
        if (self.crossing_form_signature - self.intersection_dim) % 2 != 0:
            raise IrregularCrossingError(self.time, "signature parity violation")


def _complex(path, ts, f=lambda f: f) -> np.ndarray:
    """X + iY of f(frames of ``path`` at ts), raw by default, from ``frames``
    calls of at most `BATCH` times."""
    ts, n = np.asarray(ts, dtype=float), path.n
    fs = [f(path.frames(ts[i:i + BATCH])) for i in range(0, len(ts), BATCH)]
    return np.concatenate([q[:, :n] + 1j * q[:, n:] for q in fs])


def _unitary(path, ts) -> np.ndarray:
    """X + iY of the orthonormalized frames of ``path`` at the times ts."""
    return _complex(path, ts, lambda f: np.linalg.qr(f)[0])


def _det2(z) -> np.ndarray:
    """arg det(Z)^2 of stacked complex matrices, from the unit `slogdet` sign."""
    return np.angle(np.linalg.slogdet(z)[0] ** 2)


def _segment_steps(ts, z) -> np.ndarray:
    """2 sum_j Arg nu_j on each segment from z[i] to z[i + 1] (raw X + iY at
    the times ts), nu_j the eigenvalues of z[i]^-1 z[i + 1]; raises at a
    singular node (columns normalized) or a nu_j within `RAY_GAP` of (-inf, 0]."""
    norms = np.linalg.norm(z, axis=-2, keepdims=True)
    smallest = np.linalg.svd(z / np.where(norms > 0, norms, 1.0), compute_uv=False)[:, -1]
    if np.min(smallest) <= RANK_TOL:
        raise MaslovkitError(f"the sampled frame at t = {ts[np.argmin(smallest)]} is singular")
    arg = np.angle(np.linalg.eigvals(np.linalg.solve(z[:-1], z[1:])))
    i = np.argmax(np.max(np.abs(arg), axis=-1))
    if np.max(np.abs(arg[i])) >= np.pi - RAY_GAP:
        raise MaslovkitError(f"the interpolated frame degenerates on [{ts[i]}, {ts[i + 1]}]")
    return 2 * arg.sum(axis=-1)


def _lift(path, ts, z) -> np.ndarray:
    """A continuous arg det^2 of the raw X + iY, z, of ``path`` at ts, a grid
    that refines its own: wrapped steps, or on a `SampledPath` the closed form,
    each segment refused or kept by its nodes' rule before any finer cell's."""
    if isinstance(path, SampledPath):
        i = np.concatenate([[0], np.searchsorted(ts, path.times[1:-1]), [len(ts) - 1]])
        step = _segment_steps(ts[i], z[i])
        step = step if len(i) == len(ts) else _segment_steps(ts, z)
    else:
        step = _wrap(np.diff(_det2(z)))
    return _det2(z[:1]) + np.concatenate([[0.0], np.cumsum(step)])


def _phases(u0, u1) -> np.ndarray:
    """Eigenphases of W = V V^T, V = U0* U1, in [0, 2 pi); shape (..., n)."""
    v = np.conj(np.swapaxes(u0, -1, -2)) @ u1
    w = v @ np.swapaxes(v, -1, -2)
    return np.angle(np.linalg.eigvals(w)) % (2 * np.pi)


def _wrap(x):
    """x moved by whole turns into [-pi, pi]."""
    return x - 2 * np.pi * np.rint(x / (2 * np.pi))


def _anchor(theta, u0, u1):
    """The lift theta moved, by less than pi, to arg det V^2 of the unitaries."""
    v2 = np.angle((np.conj(np.linalg.det(u0)) * np.linalg.det(u1)) ** 2)
    return theta + _wrap(v2 - theta)


def _turns(x) -> np.ndarray:
    """x / 2 pi as integers; raises if any is farther than FLOW_TOL from one."""
    x = np.asarray(x) / (2 * np.pi)
    k = np.rint(x)
    if np.max(np.abs(x - k), initial=0.0) > FLOW_TOL:
        raise MaslovkitError(
            f"{x.flat[np.argmax(np.abs(x - k))]!r} turns is not within "
            f"{FLOW_TOL} of an integer; the frames are too ill-conditioned")
    return k.astype(int)


def _cells(path):
    """(cells, certified): the certified cell count, z = tan(pi / 8 n), so that
    det^2 turns by at most pi/4 per cell, when ``path`` reports a generator and
    it needs at most `MAX_CELLS` cells, else `CELLS`; one cell, with no SVD,
    for a constant path."""
    s = path.generator()
    if s is not None:
        if not np.any(s):
            return 1, True
        (t0, t1), zeta = path.domain, np.tan(np.pi / (8 * path.n))
        norm = np.linalg.svd(s, compute_uv=False)[0]  # |S|_2
        cells = max(1, int(np.ceil((t1 - t0) * norm * (1 + zeta) / zeta)))
        if cells <= MAX_CELLS:
            return cells, True
    return CELLS, False


def _grid(path):
    """(ts, settled): ``path``'s first grid, a `SampledPath`'s nodes (settled)
    or `_cells` uniform cells (settled when certified)."""
    if isinstance(path, SampledPath):
        return path.times, True
    cells, certified = _cells(path)
    return np.linspace(*path.domain, cells + 1), certified


def _path_lift(path, ts, z, settled):
    """(grid, lift): a continuous arg of det(X + iY)^2 of the raw frames of
    ``path``, unanchored, from z, its raw X + iY on its first grid ts
    (``_grid(path)``), with no further ``frames`` call on a settled grid.

    A `SampledPath`'s nodes are lifted in closed form, and a constant path
    takes arg det^2 of its first frame everywhere.  On a certified grid a
    lift whose steps are all at most pi/4 is returned at once.  Otherwise the
    grid doubles, one ``frames`` pass on the new midpoints each time, until no
    step exceeds pi/4 and every step is the sum of its halves.
    """
    if isinstance(path, SampledPath):
        return ts, _lift(path, ts, z)
    s = path.generator()
    if s is not None and not np.any(s):
        return ts, np.repeat(_det2(z[:1]), len(ts))
    arg = _det2(z)
    while True:
        step = _wrap(np.diff(arg))
        small = np.max(np.abs(step)) <= np.pi / 4
        if settled and small:
            break
        mid = _det2(_complex(path, (ts[:-1] + ts[1:]) / 2))
        halves = _wrap(mid - arg[:-1]) + _wrap(arg[1:] - mid)
        if small and np.max(np.abs(halves - step)) < np.pi:
            break
        if len(ts) > MAX_CELLS:
            raise MaslovkitError(f"det^2 argument did not settle on {len(ts) - 1} cells")
        settled = False
        ts = np.insert(ts, np.arange(1, len(ts)), (ts[:-1] + ts[1:]) / 2)
        arg = np.insert(arg, np.arange(1, len(arg)), mid)
    return ts, arg[0] + np.concatenate([[0.0], np.cumsum(step)])


def _complex_parts(m):
    """(P, Q) with M z = P z + Q conj(z) on C^n, for stacked real 2n x 2n M."""
    n = m.shape[-1] // 2
    a, b, c, d = m[..., :n, :n], m[..., :n, n:], m[..., n:, :n], m[..., n:, n:]
    return ((a + d) + 1j * (c - b)) / 2, ((a - d) + 1j * (c + b)) / 2


def _path_ends(path):
    """(z, lift): the raw X + iY of ``path`` at its two ends, and a callable
    that gives its det^2 lift there, unanchored.  Only z is evaluated here, so
    that `_ends` can refuse an end before any lift runs.

    A path G = Psi(t) F moved by a `GeneratorPath` recurses into its parent F
    and is not evaluated itself: Z_G = P Z_F + Q conj(Z_F) at its ends, and its
    lift is F's, plus 2 arg det P lifted on Psi's grid of N_P cells, plus
    2 sum_j Arg lambda_j at the ends.  Any other path is evaluated on its first
    grid (`_grid`) and lifted by `_path_lift`.  A path's ends once lifted are `_kept`.
    """
    if "_lifted_ends" in vars(path):
        z, ends = vars(path)["_lifted_ends"]
        return z, lambda: ends
    if path.moved is None:
        ts, settled = _grid(path)
        z = _complex(path, ts)
        return _kept(path, z[[0, -1]], lambda: _path_lift(path, ts, z, settled)[1][[0, -1]])
    psi, parent = path.moved
    zf, parent_lift = _path_ends(parent)
    n, (t0, t1), s = path.n, path.domain, psi.generator()
    # |phi'| <= n |B_S|_2, so 2 phi turns by at most pi/2 per cell
    speed = n * np.linalg.norm(_complex_parts(complex_structure(n) @ s)[1], 2)
    ts = np.linspace(t0, t1, max(1, int(np.ceil(4 * speed * (t1 - t0) / np.pi))) + 1)
    p, q = _complex_parts(psi.matrices(ts))
    pe, qe = p[[0, -1]], q[[0, -1]]

    def lift():
        # 2 arg det P = t tr(S_Psi) + 2 phi: the wrapped steps of 2 phi are exact
        drift = np.trace(s) * np.diff(ts)
        step = _wrap(np.diff(_det2(p)) - drift)
        if np.max(np.abs(step)) > np.pi / 2:
            raise MaslovkitError(f"arg det P turned by more than pi/2 on a cell of [{t0}, {t1}]")
        # the end term: the eigenvalues of M = I + K conj(U_F U_F^T), K = P^-1 Q
        u = np.linalg.qr(np.concatenate([zf.real, zf.imag], axis=-2))[0]
        u = u[:, :n] + 1j * u[:, n:]
        k = np.linalg.solve(pe, qe)
        lam = np.linalg.eigvals(np.eye(n) + k @ np.conj(u @ np.swapaxes(u, -1, -2)))
        re = np.min(lam.real, axis=-1)
        if np.min(re) < END_TERM_TOL:
            raise MaslovkitError(f"the end term at t = {(t0, t1)[np.argmin(re)]} has an eigenvalue "
                                 f"of real part {np.min(re):.3g}; Psi is too ill-conditioned")
        return (parent_lift() + _det2(p[:1]) + np.array([0.0, np.sum(drift + step)])
                + 2 * np.angle(lam).sum(axis=-1))

    return _kept(path, pe @ zf + qe @ np.conj(zf), lift)


def _kept(path, z, lift):
    """(z, lift), the lift storing z and its values, read-only, in ``vars(path)``
    once it succeeds: no closure, grid or reference back to the path."""
    def lift_and_keep():
        ends = lift()
        z.flags.writeable = ends.flags.writeable = False
        vars(path)["_lifted_ends"] = z, ends
        return ends
    return z, lift_and_keep


def _domain(pair):
    """The pair's domain; raises `DimensionMismatchError` for paths of other n
    or domains, before either path is evaluated."""
    path0, path1 = pair
    if path0.n != path1.n:
        raise DimensionMismatchError(f"paths have n={path0.n} and n={path1.n}")
    if np.max(np.abs(np.subtract(path0.domain, path1.domain))) > 1e-12:
        raise DimensionMismatchError(f"paths have domains {path0.domain} and {path1.domain}")
    return path0.domain


def _peel(pair):
    """The pair with every `GeneratorPath` that moves both its paths taken off,
    compared by identity: (Psi L0, Psi L1) has the index and the crossings of
    (L0, L1), so Psi is never evaluated."""
    while all(p.moved is not None for p in pair) and pair[0].moved[0] is pair[1].moved[0]:
        pair = tuple(p.moved[1] for p in pair)
    return pair


def _ends(pair, z0, z1):
    """(U0, U1, eigenphases of W, crossings), each stacked over (t0, t1), from
    z0 and z1, the raw X + iY of each path at its ends: one QR of the four
    frames and one `_phases` call.  The 4-point stencil is evaluated, and
    `_crossing` run, only at an end with an eigenphase within `END_GAP`.
    Raises `IrregularCrossingError` at a degenerate end, t0 first.
    """
    (t0, t1), n = pair[0].domain, pair[0].n
    h = min(FD_STEP, (t1 - t0) / 16.0)
    offsets, weights = _ONE_SIDED
    z = np.concatenate([z0, z1])
    q = np.linalg.qr(np.concatenate([z.real, z.imag], axis=-2))[0]
    u0, u1 = np.split(q[:, :n] + 1j * q[:, n:], 2)
    phases = _phases(u0, u1)
    gap = np.min(np.minimum(phases, 2 * np.pi - phases), axis=-1)
    return u0, u1, phases, [
        Crossing(t, 0, 0, True) if d > END_GAP else
        _crossing(t, *(_unitary(p, t + offsets * step) for p in pair), weights, step)
        for d, t, step in zip(gap, (t0, t1), (h, -h))]


def _crossing(t, u0, u1, weights, step) -> Crossing:
    """The crossing at the end t, from (U0, U1) on its stencil (t first)."""
    n = u0.shape[-1]
    g = np.zeros((len(u0), 4 * n, 2 * n))  # orthonormal frames of L0 + L1
    g[:, : 2 * n, :n] = np.concatenate([u0.real, u0.imag], axis=1)
    g[:, 2 * n :, n:] = np.concatenate([u1.real, u1.imag], axis=1)
    b = g[0]
    # the graph construction: (L0, L1) in (R^{4n}, omega + (-omega)) meets
    # the diagonal in L0 ∩ L1
    basis = intersection_basis(b, np.vstack([np.eye(2 * n)] * 2) / np.sqrt(2.0))
    if basis.shape[1] == 0:
        return Crossing(t, 0, 0, True)
    # symmetrized d/dt of the moving frame written as a graph over itself
    jb = np.concatenate([complex_structure(n) @ b[: 2 * n], omega_matrix(n) @ b[2 * n :]])
    s = (jb.T @ g) @ np.linalg.inv(b.T @ g)
    ds = np.tensordot(weights, s, axes=1) / (6.0 * step)
    u = b.T @ basis
    gamma = u.T @ ((ds + ds.T) / 2.0) @ u
    eig = np.linalg.eigvalsh((gamma + gamma.T) / 2.0)
    if np.min(np.abs(eig)) <= REGULARITY_TOL * max(1.0, float(np.max(np.abs(eig)))):
        raise IrregularCrossingError(t)
    c = Crossing(t, basis.shape[1], int(np.sum(eig > 0) - np.sum(eig < 0)), True)
    c.check_invariants()
    return c


def _end_phase_sum(phases, k: int) -> float:
    """E at an end: the k eigenphases of W nearest 0 (the intersection) as 0."""
    p = phases.copy()
    p[np.argsort(np.minimum(p, 2 * np.pi - p))[:k]] = 0.0
    return float(np.sum(p))


def rs_index(pair) -> HalfInt:
    """Robbin-Salamon index of a pair of Lagrangian paths, by spectral flow.

    Only the ends need be regular crossings (or no crossings); interior
    crossings may be degenerate or non-isolated, so a caller that perturbs
    irregular draws (``suites._run_cases``) replaces only those irregular at
    an end.  A pair moved by one `GeneratorPath` object is indexed as its
    parents' pair (naturality), with no evaluation of that Psi; any other
    moved path is lifted from its parent's lift, arg det P and an end term.

    Args:
        pair: tuple (path0, path1) of `LagrangianPath` with equal n and domain.

    Raises:
        IrregularCrossingError: the crossing form at an end is degenerate; the
            caller must perturb (degenerate chords are handled upstream, never
            silently perturbed here).
        MaslovkitError: the flow is not within `FLOW_TOL` of an integer, the
            det^2 lift did not settle, or a moved path's arg det P step or end
            term failed its certificate.
    """
    # each path object evaluated once, on its first grid (a moved path's
    # parent on its own), unless an earlier index kept its ends
    _domain(pair)
    pair = _peel(pair)
    z0, lift0 = _path_ends(pair[0])
    z1, lift1 = (z0, lift0) if pair[1] is pair[0] else _path_ends(pair[1])
    u0, u1, (pa, pb), (start, end) = _ends(pair, z0, z1)
    # arg det V^2 = arg det(U1)^2 - arg det(U0)^2, each path lifted alone; then
    # both ends anchored to the unitaries that give E there
    ends0, ends1 = lift0(), lift1()
    th0, th1 = _anchor(ends1 - ends0, u0, u1)
    k0, k1 = start.intersection_dim, end.intersection_dim
    flow = _turns(_end_phase_sum(pa, k0) + th1 - th0 - _end_phase_sum(pb, k1))
    return HalfInt(int(-2 * flow - k0 + k1))


def rs_crossings(pair) -> List[Crossing]:
    """The crossings of a pair, in time order (for diagnostics).

    The ends carry their crossing-form signature.  An interior crossing is
    found by bisecting each cell of its grid where the flow is
    nonzero, keeping every half with a nonzero flow, one batched call per
    step; its dimension is the number of eigenvalues of W passing 0 there
    and its signature their net direction.  Eigenvalues that pass 0 in
    opposite directions within one cell of the grid cancel and are not
    listed.  The halves of the crossings sum to ``rs_index(pair).halves``.
    A pair moved by one `GeneratorPath` object has its parents' crossings, at
    the same times with the same dimensions and signatures, and is read as
    that pair; any other pair is read on its own frames.
    """
    t0, t1 = _domain(pair)
    pair = _peel(pair)
    # both paths' own grids (a doubling-loop path's settled one) without their
    # ends (domains may differ by rounding), and each floor point farther than
    # TIME_TOL from them: a narrower cell would count a crossing at its ends twice
    grids = [_grid(p) for p in pair]
    own = np.sort(np.concatenate([[t0, t1]] + [
        (ts if settled else _path_lift(p, ts, _complex(p, ts), False)[0])[1:-1]
        for p, (ts, settled) in zip(pair, grids)]))
    floor = np.linspace(t0, t1, CELLS + 1)
    i = np.searchsorted(own, floor)
    gap = np.minimum(own[i] - floor, floor - own[np.maximum(i - 1, 0)])
    ts = np.unique(np.concatenate([own, floor[gap > TIME_TOL * (t1 - t0)]]))
    # one ``frames`` pass per path: raw X + iY and unitary side by side
    (z0, u0), (z1, u1) = (np.split(_complex(p, ts, lambda f: np.concatenate(
        [f, np.linalg.qr(f)[0]], axis=-1)), 2, axis=-1) for p in pair)
    _, _, (pa, pb), (start, end) = _ends(pair, z0[[0, -1]], z1[[0, -1]])
    theta = _anchor(_lift(pair[1], ts, z1) - _lift(pair[0], ts, z0), u0, u1)
    e = _phases(u0, u1).sum(axis=-1)
    # eigenvalues leaving 0 downward at t0, or reaching it from below at t1,
    # are end crossings: put them at 2 pi so that no cell counts them
    k0, k1 = start.intersection_dim, end.intersection_dim
    e[0] = _end_phase_sum(pa, k0) + np.pi * (k0 + start.crossing_form_signature)
    e[-1] = _end_phase_sum(pb, k1) + np.pi * (k1 - end.crossing_form_signature)
    flow = _turns(e[:-1] + np.diff(theta) - e[1:])
    live = np.nonzero(flow)[0]
    lo, hi, flow, e_lo, th_lo = ts[live], ts[live + 1], flow[live], e[live], theta[live]
    while len(lo) and np.max(hi - lo) > TIME_TOL * (t1 - t0):
        mid = (lo + hi) / 2
        u0, u1 = (_unitary(p, mid) for p in pair)
        e_mid = _phases(u0, u1).sum(axis=-1)
        th_mid = _anchor(th_lo, u0, u1)
        left = _turns(e_lo + th_mid - th_lo - e_mid)
        keep_l, keep_r = left != 0, flow != left
        cat = lambda l, r: np.concatenate([l[keep_l], r[keep_r]])
        lo, hi, flow = cat(lo, mid), cat(mid, hi), cat(left, flow - left)
        e_lo, th_lo = cat(e_lo, e_mid), cat(th_lo, th_mid)
    # brackets that touch hold one crossing: its eigenvalues were 0 at a grid
    # point, where rounding put some of them on either side
    order = np.argsort(lo)
    lo, hi, flow = lo[order], hi[order], flow[order]
    first = [i for i in range(len(lo)) if i == 0 or lo[i] > hi[i - 1]]
    interior = [
        Crossing(float((lo[i] + hi[j - 1]) / 2), int(np.sum(np.abs(flow[i:j]))),
                 int(-np.sum(flow[i:j])))
        for i, j in zip(first, first[1:] + [len(lo)])
    ]
    ends = [c for c in (start, end) if c.intersection_dim]
    return sorted(ends + interior, key=lambda c: c.time)


def det2_winding(loop: LagrangianPath) -> int:
    """Winding number of det^2 along a loop of Lagrangian subspaces, from the
    det^2 lift that `rs_index` uses; one farther than `FLOW_TOL` from an
    integer raises `MaslovkitError`."""
    z, lift = _path_ends(loop)
    f0, f1 = (LagrangianFrame.from_columns(np.concatenate([e.real, e.imag]), validate=False)
              for e in z)
    if lagrangian_intersection_dim(f0, f1) != loop.n:
        raise EndpointMismatchError("loop endpoints span different subspaces")
    a, b = lift()
    return int(_turns(b - a))


def chord_maslov(flow_path: LagrangianPath, reference: LagrangianPath, n: int) -> HalfInt:
    """Chord grading ``rs_index((flow_path, reference)) - n/2``."""
    if flow_path.n != n or reference.n != n:
        raise DimensionMismatchError("paths must have the stated n")
    return rs_index((flow_path, reference)) - HalfInt(n)
