"""The subcritical handle local model on R^{2n}.

Coordinates are (x_1..x_k, y_1..y_k, x_{k+1}, y_{k+1}, .., x_n, y_n): the k
handle x's, the k handle y's, then the transverse pairs, matching the potentials

    x = 3/4 sum_{i<=k} x_i^2,   y = 1/4 sum_{i<=k} y_i^2,
    z = 1/4 sum_{i>k} (x_i^2 + y_i^2),

the Morse function phi = x - y + z, and the cut-off deformation

    psi_delta = x - y + z - (1+eps) + (1+eps) g(y + (x+z)/delta).

The Liouville field is X = 1/2 sum_{i<=k}(3 x_i d_{x_i} - y_i d_{y_i})
+ 1/2 sum_{i>k}(x_i d_{x_i} + y_i d_{y_i}), with closed-form flow scalings
(e^{3t/2}, e^{-t/2}) on the handle pairs and e^{t/2} on the transverse ones.

Every function of a point takes an array of points of shape (..., 2n) and
answers per point, with the leading shape (...).  Through one check, a last
axis of any other length raises `DimensionMismatchError` ("expected 2n
coordinates, got shape ...") and a non-finite coordinate raises
`MaslovkitError` ("coordinates must be finite").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionMismatchError, MaslovkitError


def smoothstep(u):
    """The quintic smoothstep 6u^5 - 15u^4 + 10u^3, clamped to [0, 1]."""
    u = np.clip(u, 0.0, 1.0)
    return u * u * u * (10.0 + u * (-15.0 + 6.0 * u))


def smoothstep_integral(u):
    """Antiderivative of the quintic smoothstep, zero at 0."""
    u = np.clip(u, 0.0, 1.0)
    return u**4 * (2.5 + u * (-3.0 + u))


def inner_z_slope(epsilon: float, delta: float) -> float:
    """d(psi_delta)/dz on {x=y=0, z small}: 1 + (1+eps)/(delta (1+2eps))."""
    return 1.0 + (1.0 + epsilon) / (delta * (1.0 + 2.0 * epsilon))


@dataclass(frozen=True)
class HandleParams:
    """Ambient half-dimension n, handle index k < n, and cut-off sizes."""

    n: int
    k: int
    epsilon: float
    delta: float

    def __post_init__(self):
        if not (1 <= self.k < self.n):
            raise DimensionMismatchError(
                f"need 1 <= k < n (subcritical), got k={self.k}, n={self.n}"
            )
        if not (0 < self.epsilon < np.inf and 0 < self.delta < np.inf):
            raise MaslovkitError("epsilon and delta must be positive and finite")
        # {r <= 1} inside {z <= delta} on the x=y=0 locus: the radial slope
        # there is epsilon, so the r=1 level sits at z = epsilon / z_slope_low.
        if self.epsilon / self.z_slope_low() > self.delta:
            raise MaslovkitError(
                "epsilon too large: the unit radial level leaves {z <= delta}"
            )

    @property
    def cutoff(self) -> "CutoffG":
        return CutoffG(self.epsilon)

    def z_slope_low(self) -> float:
        """`inner_z_slope` of these parameters."""
        return inner_z_slope(self.epsilon, self.delta)


def _points(p, params: HandleParams) -> np.ndarray:
    """p as a float array of points, shape (..., 2n), with finite coordinates."""
    c = np.asarray(p, dtype=float)
    if c.ndim == 0 or c.shape[-1] != 2 * params.n:
        raise DimensionMismatchError(f"expected {2 * params.n} coordinates, got shape {c.shape}")
    if not np.all(np.isfinite(c)):
        raise MaslovkitError("coordinates must be finite")
    return c


def _per_coord(params: HandleParams, handle_x, handle_y, pair_x, pair_y) -> np.ndarray:
    """One value per coordinate: on the handle x's, the handle y's, and the x and
    y of each transverse pair."""
    k = params.k
    return np.concatenate([np.full(k, handle_x), np.full(k, handle_y),
                           np.tile([pair_x, pair_y], params.n - k)])


def _swap(params: HandleParams) -> np.ndarray:
    """The coordinate permutation exchanging each x_i with its y_i."""
    k = params.k
    return np.concatenate([np.arange(k, 2 * k), np.arange(k),
                           np.arange(2 * k, 2 * params.n) ^ 1])


@dataclass(frozen=True)
class CutoffG:
    """The slope-bounded cut-off g: linear of slope 1/(1+2eps) up to 1+eps,
    then a reversed quintic-smoothstep descent of g' on [1+eps, 1+3eps].

    Satisfies exactly: g(t) = t/(1+2eps) for t <= 1, g(t) = 1 for
    t >= 1+3eps, and 0 <= g' <= 1/(1+2eps) everywhere.
    """

    epsilon: float

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        e = self.epsilon
        smax = 1.0 / (1.0 + 2.0 * e)
        lin = t * smax
        u = (t - 1.0 - e) / (2.0 * e)
        blend = (1.0 + e) * smax + 2.0 * e * smax * (
            np.clip(u, 0.0, 1.0) - smoothstep_integral(u)
        )
        out = np.where(t <= 1.0 + e, lin, np.where(t >= 1.0 + 3.0 * e, 1.0, blend))
        return out if out.ndim else float(out)

    def prime(self, t):
        t = np.asarray(t, dtype=float)
        e = self.epsilon
        smax = 1.0 / (1.0 + 2.0 * e)
        u = (t - 1.0 - e) / (2.0 * e)
        out = np.where(
            t <= 1.0 + e, smax, np.where(t >= 1.0 + 3.0 * e, 0.0, smax * (1.0 - smoothstep(u)))
        )
        return out if out.ndim else float(out)


def potentials(p, params: HandleParams) -> dict:
    """The quadratic potentials and derived functions at each point, as arrays
    of shape (...); at one point of shape (2n,), as floats.

    Returns a dict with keys x, y, z, phi, psi_delta, lyapunov.
    """
    c = _points(p, params)
    x, y, z = _quadratic(c, params)
    k = params.k
    out = {"x": x, "y": y, "z": z, "phi": x - y + z, "psi_delta": potentials_xyz(x, y, z, params),
           "lyapunov": np.sum(c[..., :k] * c[..., k : 2 * k], axis=-1)}
    return {key: float(v) for key, v in out.items()} if c.ndim == 1 else out


def _quadratic(c: np.ndarray, params: HandleParams):
    """The quadratic potentials (x, y, z) at the checked points c, shape (..., 2n)."""
    k = params.k
    return (0.75 * np.sum(c[..., :k] ** 2, axis=-1), 0.25 * np.sum(c[..., k : 2 * k] ** 2, axis=-1),
            0.25 * (np.sum(c[..., 2 * k :: 2] ** 2, axis=-1)
                    + np.sum(c[..., 2 * k + 1 :: 2] ** 2, axis=-1)))


def potentials_xyz(x, y, z, params: HandleParams):
    """psi_delta from the potential values alone (vectorized)."""
    g = params.cutoff
    return x - y + z - (1 + params.epsilon) + (1 + params.epsilon) * g(
        y + (x + z) / params.delta
    )


def liouville_field(p, params: HandleParams) -> np.ndarray:
    """The Liouville field X at each point: the coordinates scaled by
    (3/2, -1/2) on the handle pairs and 1/2 on the transverse ones."""
    return _points(p, params) * _per_coord(params, 1.5, -0.5, 0.5, 0.5)


def liouville_form(p, params: HandleParams) -> np.ndarray:
    """The primitive one-form as a covector at each point,
    lambda = sum_{i<=k} (1/2 y_i dx_i + 3/2 x_i dy_i) + 1/2 sum_{i>k} (x_i dy_i - y_i dx_i)."""
    return _points(p, params)[..., _swap(params)] * _per_coord(params, 0.5, 1.5, -0.5, 0.5)


def ambient_omega(params: HandleParams) -> np.ndarray:
    """Matrix of sum dx_i ^ dy_i in the handle coordinate order."""
    n, k = params.n, params.k
    m = np.zeros((2 * n, 2 * n))
    for i in range(k):
        m[i, k + i] = 1.0
        m[k + i, i] = -1.0
    for j in range(n - k):
        a = 2 * k + 2 * j
        m[a, a + 1] = 1.0
        m[a + 1, a] = -1.0
    return m


def hamiltonian_fields(p, params: HandleParams) -> dict:
    """The Hamiltonian vector fields of the potentials x, y, z at each point."""
    c = _points(p, params)[..., _swap(params)]
    return {"Xx": c * _per_coord(params, 0.0, 1.5, 0.0, 0.0),   # X_x = 3/2 sum x_i d_{y_i}
            "Xy": c * _per_coord(params, -0.5, 0.0, 0.0, 0.0),  # X_y = -1/2 sum y_i d_{x_i}
            # X_z = 1/2 sum (x_i d_{y_i} - y_i d_{x_i})
            "Xz": c * _per_coord(params, 0.0, 0.0, -0.5, 0.5)}


def liouville_flow(p, t, params: HandleParams) -> np.ndarray:
    """Closed-form time-t Liouville flow of each point; t is a scalar or an
    array broadcasting against the points' leading shape (...).  X is linear
    and diagonal, so each coordinate scales by e^{rt} for its coefficient r in X.
    A non-finite t, or an image outside the float range, raises `MaslovkitError`."""
    c = _points(p, params)
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise MaslovkitError("flow time must be finite")
    scale = t[..., None] * _per_coord(params, 1.5, -0.5, 0.5, 0.5)
    with np.errstate(over="ignore", invalid="ignore"):
        # a zero coordinate stays zero, however large its scaling
        out = np.where(c == 0.0, c, c * np.exp(scale))
    if not np.all(np.isfinite(out)):
        raise MaslovkitError("the flow leaves the float range")
    return out


def lyapunov_derivative(p, coeffs: dict, params: HandleParams):
    """d(sum x_i y_i) along X_H = Cx*Xx - Cy*Xy + Cz*Xz at each point, for
    coefficients broadcasting against the points' leading shape (...); a float
    at one point with scalar coefficients.

    Equals 2*(Cx*x + Cy*y) in the quadratic potentials x, y; in particular it
    is strictly positive away from {x = y = 0}, which is what confines chords
    with endpoints on the conormal model to that locus.
    """
    cx, cy, cz = (np.asarray(coeffs[key], dtype=float) for key in ("Cx", "Cy", "Cz"))
    if not (np.all(cx > 0) and np.all(cy > 0) and np.all(cz > 0)):
        raise MaslovkitError("coefficients must be positive (the confinement argument "
                             "needs Cx, Cy, Cz > 0)")
    x, y, _ = _quadratic(_points(p, params), params)
    out = 2.0 * (cx * x + cy * y)
    return float(out) if out.ndim == 0 else out


def quadratic_model_path(n: int, k: int):
    """The flow path e^{i (k+1/2) pi t} applied to the horizontal Lagrangian."""
    from .symplin import rotation_path

    return rotation_path(n, (k + 0.5) * np.pi)


# ---------------------------------------------------------------------------
# Transversality certification
# ---------------------------------------------------------------------------

ROOT_TOL = 1e-13  # a root stops once its Newton step or bracket is <= ROOT_TOL * max(1, y)
ROOT_STEPS = 60  # per root; pure bisection of [0, y_max] needs log2(y_max / ROOT_TOL)


@dataclass(frozen=True)
class GridSpec:
    """Bounding box and resolution for certifying the level-set transversality."""

    resolution: int = 50
    x_max: float = 1.0
    y_max: float = 3.0
    z_max: float = 1.0

    def __post_init__(self):
        if self.resolution < 0:
            raise DimensionMismatchError(f"resolution must be non-negative, got {self.resolution}")
        if not all(0.0 <= v < np.inf for v in (self.x_max, self.y_max, self.z_max)):
            raise DimensionMismatchError("the box sides must be finite and non-negative")


@dataclass(frozen=True)
class TransversalityCertificate:
    epsilon: float
    delta: float
    resolution: int
    box: tuple
    min_value: float
    witness_point: tuple  # (x, y, z) potentials
    n_surface_points: int
    passed: bool

    def to_json(self) -> dict:
        return {
            "schema": "v1",
            "params": {"epsilon": self.epsilon, "delta": self.delta},
            "grid": {"resolution": self.resolution, "box": list(self.box)},
            "min_value": self.min_value,
            "witness_point": list(self.witness_point),
            "n_surface_points": self.n_surface_points,
            "pass": self.passed,
        }


def transversality_certificate(
    params: HandleParams, grid_spec: Optional[GridSpec] = None
) -> TransversalityCertificate:
    """Certify d(psi_delta)(X) > 0 on the deformed level set {psi_delta = -1}.

    f = psi_delta + 1 depends on x, z only through s = x + z, and in y it is
    decreasing, f_y = -1 + (1+eps) g'(y + s/delta) < 0 as g' <= 1/(1+2eps),
    and concave, as g' is non-increasing.  So the level set is a graph
    y = Y(s), and everything but the final value is computed once per
    distinct s of the res^2 (x, z) grid columns, always at x = s, z = 0.  An
    s crosses the level set iff f > 0 at the first grid row and f <= 0 at
    the last, and Newton from the last row falls monotonically onto Y(s).
    Each crossing s keeps a bracket [lo, hi] with f(lo) > 0 >= f(hi); a
    Newton step that leaves it, or is over half the previous step (rounding
    in f can stall Newton), bisects instead.  An s stops at f = 0 or once its
    step or bracket is at most ROOT_TOL * max(1, y), so surface points hold to
    that tolerance, not bit-exactly; an s unsettled after ROOT_STEPS raises
    `MaslovkitError`.  With g' taken once per s at its root, the directional
    derivative

        d(psi_delta)(X) = (1 + (1+eps) g'/delta) 3x
                          - (-1 + (1+eps) g') y
                          + (1 + (1+eps) g'/delta) z

    is evaluated at the surface point of every crossing column.  A ball of
    radius 1e-6 around the origin of the (x, y, z) potentials is excluded.
    The reported minimum carries a lexicographically smallest witness on ties.
    """
    gs = grid_spec or GridSpec()
    e, d = params.epsilon, params.delta
    g = params.cutoff
    res = gs.resolution

    ys = np.linspace(0.0, gs.y_max, res)
    x_c, z_c = (a.ravel() for a in np.meshgrid(np.linspace(0.0, gs.x_max, res),
                                               np.linspace(0.0, gs.z_max, res), indexing="ij"))
    s, col_s = np.unique(x_c + z_c, return_inverse=True)
    crosses = ((potentials_xyz(s, ys[:1], 0.0, params) + 1.0 > 0)
               & (potentials_xyz(s, ys[-1:], 0.0, params) + 1.0 <= 0))
    if not np.any(crosses):
        raise MaslovkitError("empty grid intersection: no column of the box crosses the level set")
    cols = crosses[col_s]
    x_c, z_c, col_s = x_c[cols], z_c[cols], col_s[cols]
    lo, hi = np.full(s.size, ys[0]), np.full(s.size, ys[-1])
    y_s, last = hi.copy(), np.full(s.size, np.inf)
    act = np.flatnonzero(crosses)  # the unsettled values of s
    for _ in range(ROOT_STEPS):
        sa, y = s[act], y_s[act]
        f = potentials_xyz(sa, y, 0.0, params) + 1.0  # at x = s, z = 0
        lo[act], hi[act] = np.where(f > 0, y, lo[act]), np.where(f > 0, hi[act], y)
        new = y - f / (-1.0 + (1.0 + e) * g.prime(y + sa / d))
        newton = (new >= lo[act]) & (new <= hi[act]) & (2.0 * np.abs(new - y) <= last[act])
        new = np.where(newton, new, 0.5 * (lo[act] + hi[act]))
        last[act] = np.abs(new - y)
        y_s[act] = new  # f = 0 gives a zero step
        tol = ROOT_TOL * np.maximum(1.0, y)
        act = act[(last[act] > tol) & (hi[act] - lo[act] > tol)]
        if act.size == 0:
            break
    else:
        raise MaslovkitError(f"level set unresolved: {act.size} roots after {ROOT_STEPS} steps")
    gp = g.prime(y_s + s / d)  # at the roots; unused where s does not cross
    radial_coeff, y_coeff = 1.0 + (1.0 + e) * gp / d, -1.0 + (1.0 + e) * gp
    y_c = y_s[col_s]

    keep = np.sqrt(x_c**2 + y_c**2 + z_c**2) >= 1e-6
    x_c, y_c, z_c, col_s = x_c[keep], y_c[keep], z_c[keep], col_s[keep]
    if x_c.size == 0:
        raise MaslovkitError("empty grid intersection after excluding the origin ball")

    rc = radial_coeff[col_s]
    value = rc * 3.0 * x_c - y_coeff[col_s] * y_c + rc * z_c

    min_value = float(np.min(value))
    ties = np.nonzero(value <= min_value + 0.0)[0]
    order = np.lexsort((z_c[ties], y_c[ties], x_c[ties]))
    w = ties[order[0]]
    return TransversalityCertificate(
        epsilon=e,
        delta=d,
        resolution=res,
        box=(gs.x_max, gs.y_max, gs.z_max),
        min_value=min_value,
        witness_point=(float(x_c[w]), float(y_c[w]), float(z_c[w])),
        n_surface_points=int(x_c.size),
        passed=bool(min_value > 0.0),
    )
