"""The subcritical handle local model on R^{2n}.

Coordinates are (x_1..x_k, y_1..y_k, x_{k+1}, y_{k+1}, .., x_n, y_n): the
first 2k entries are the handle directions as (x, y) pairs interleaved per
index is NOT used -- the layout is x_1..x_k, y_1..y_k, then (x_j, y_j) pairs
for j > k, matching the quadratic potentials

    x = 3/4 sum_{i<=k} x_i^2,   y = 1/4 sum_{i<=k} y_i^2,
    z = 1/4 sum_{i>k} (x_i^2 + y_i^2),

the Morse function phi = x - y + z, and the cut-off deformation

    psi_delta = x - y + z - (1+eps) + (1+eps) g(y + (x+z)/delta).

The Liouville field is X = 1/2 sum_{i<=k}(3 x_i d_{x_i} - y_i d_{y_i})
+ 1/2 sum_{i>k}(x_i d_{x_i} + y_i d_{y_i}), with closed-form flow scalings
(e^{3t/2}, e^{-t/2}) on the handle pairs and e^{t/2} on the transverse ones.
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
        if self.epsilon <= 0 or self.delta <= 0:
            raise MaslovkitError("epsilon and delta must be positive")
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


@dataclass(frozen=True)
class HandlePoint:
    """A point of the model, coords in (x_1..x_k, y_1..y_k, x_j, y_j, ...) order."""

    coords: np.ndarray

    @staticmethod
    def of(values, params: HandleParams) -> "HandlePoint":
        c = np.asarray(values, dtype=float)
        if c.shape != (2 * params.n,):
            raise DimensionMismatchError(
                f"expected {2 * params.n} coordinates, got shape {c.shape}"
            )
        if not np.all(np.isfinite(c)):
            raise MaslovkitError("coordinates must be finite")
        return HandlePoint(c)


def _split(p: np.ndarray, params: HandleParams):
    k, n = params.k, params.n
    xk = p[:k]
    yk = p[k : 2 * k]
    rest = p[2 * k :].reshape(n - k, 2)
    return xk, yk, rest[:, 0], rest[:, 1]


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


def potentials(p: HandlePoint, params: HandleParams) -> dict:
    """The quadratic potentials and derived functions at a point.

    Returns a dict with keys x, y, z, phi, psi_delta, lyapunov.
    """
    c = p.coords if isinstance(p, HandlePoint) else HandlePoint.of(p, params).coords
    xk, yk, xr, yr = _split(c, params)
    x = 0.75 * float(np.sum(xk**2))
    y = 0.25 * float(np.sum(yk**2))
    z = 0.25 * float(np.sum(xr**2) + np.sum(yr**2))
    phi = x - y + z
    g = params.cutoff
    psi = x - y + z - (1 + params.epsilon) + (1 + params.epsilon) * g(
        y + (x + z) / params.delta
    )
    lyap = float(np.sum(xk * yk))
    return {"x": x, "y": y, "z": z, "phi": phi, "psi_delta": psi, "lyapunov": lyap}


def potentials_xyz(x, y, z, params: HandleParams):
    """psi_delta from the potential values alone (vectorized)."""
    g = params.cutoff
    return x - y + z - (1 + params.epsilon) + (1 + params.epsilon) * g(
        y + (x + z) / params.delta
    )


def liouville_field(p: HandlePoint, params: HandleParams) -> np.ndarray:
    c = p.coords if isinstance(p, HandlePoint) else np.asarray(p, dtype=float)
    xk, yk, xr, yr = _split(c, params)
    out = np.empty_like(c)
    k = params.k
    out[:k] = 1.5 * xk
    out[k : 2 * k] = -0.5 * yk
    rest = np.stack([0.5 * xr, 0.5 * yr], axis=1).reshape(-1)
    out[2 * k :] = rest
    return out


def liouville_form(p: HandlePoint, params: HandleParams) -> np.ndarray:
    """The primitive one-form as a covector at p."""
    c = p.coords if isinstance(p, HandlePoint) else np.asarray(p, dtype=float)
    xk, yk, xr, yr = _split(c, params)
    k = params.k
    out = np.empty_like(c)
    out[:k] = 0.5 * yk            # coefficient of dx_i, i <= k
    out[k : 2 * k] = 1.5 * xk     # coefficient of dy_i, i <= k
    rest = np.stack([-0.5 * yr, 0.5 * xr], axis=1).reshape(-1)
    out[2 * k :] = rest
    return out


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


def hamiltonian_fields(p: HandlePoint, params: HandleParams) -> dict:
    """The Hamiltonian vector fields of the potentials x, y, z at p."""
    c = p.coords if isinstance(p, HandlePoint) else np.asarray(p, dtype=float)
    xk, yk, xr, yr = _split(c, params)
    k = params.k
    zero = np.zeros_like(c)

    xx = zero.copy()
    xx[k : 2 * k] = 1.5 * xk          # X_x = 3/2 sum x_i d_{y_i}

    xy = zero.copy()
    xy[:k] = -0.5 * yk                # X_y = -1/2 sum y_i d_{x_i}

    xz = zero.copy()                  # X_z = 1/2 sum (x_i d_{y_i} - y_i d_{x_i})
    xz[2 * k :] = np.stack([-0.5 * yr, 0.5 * xr], axis=1).reshape(-1)

    return {"Xx": xx, "Xy": xy, "Xz": xz}


def liouville_flow(p: HandlePoint, t: float, params: HandleParams) -> HandlePoint:
    """Closed-form time-t Liouville flow."""
    c = (p.coords if isinstance(p, HandlePoint) else np.asarray(p, dtype=float)).copy()
    k = params.k
    c[:k] *= np.exp(1.5 * t)
    c[k : 2 * k] *= np.exp(-0.5 * t)
    c[2 * k :] *= np.exp(0.5 * t)
    return HandlePoint(c)


def lyapunov_derivative(p: HandlePoint, coeffs: dict, params: HandleParams) -> float:
    """d(sum x_i y_i) along X_H = Cx*Xx - Cy*Xy + Cz*Xz.

    Equals 2*(Cx*x + Cy*y) in the quadratic potentials x, y; in particular it
    is strictly positive away from {x = y = 0}, which is what confines chords
    with endpoints on the conormal model to that locus.
    """
    cx, cy, cz = coeffs["Cx"], coeffs["Cy"], coeffs["Cz"]
    if cx <= 0 or cy <= 0 or cz <= 0:
        raise MaslovkitError(
            "coefficients must be positive (the confinement argument needs "
            "Cx, Cy, Cz > 0)"
        )
    pot = potentials(p, params)
    return 2.0 * (cx * pot["x"] + cy * pot["y"])


def quadratic_model_flow(z0, k: int, t: float) -> np.ndarray:
    """Componentwise multiplication by e^{i (k+1/2) pi t}."""
    z0 = np.asarray(z0, dtype=complex)
    return z0 * np.exp(1j * (k + 0.5) * np.pi * t)


def quadratic_model_path(n: int, k: int):
    """The flow path e^{i (k+1/2) pi t} applied to the horizontal Lagrangian."""
    from .symplin import rotation_path

    return rotation_path(n, (k + 0.5) * np.pi)


# ---------------------------------------------------------------------------
# Transversality certification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """Bounding box and resolution for certifying the level-set transversality."""

    resolution: int = 50
    x_max: float = 1.0
    y_max: float = 3.0
    z_max: float = 1.0


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

    psi is strictly decreasing in y (d psi/dy = -1 + (1+eps) g' < 0, since
    g' <= 1/(1+2eps)), so the level set is a graph y = Y(x, z) over the
    potential quadrant, and along each (x, z) grid column the rows with
    psi + 1 <= 0 form a tail.  A column crosses the level set iff its first
    row is positive and its last is not; bisection over row indices finds its
    first non-positive grid row in ceil(log2(res - 1)) evaluations, and
    bisection in y within that grid cell solves for the surface point.  The
    directional derivative

        d(psi_delta)(X) = (1 + (1+eps) g'/delta) 3x
                          - (-1 + (1+eps) g') y
                          + (1 + (1+eps) g'/delta) z

    is evaluated at every surface point found.  A ball of radius 1e-6 around
    the origin of the (x, y, z) potentials is excluded.  The reported minimum
    carries a lexicographically smallest witness on ties.
    """
    gs = grid_spec or GridSpec()
    e, d = params.epsilon, params.delta
    g = params.cutoff
    res = gs.resolution

    xs = np.linspace(0.0, gs.x_max, res)
    zs = np.linspace(0.0, gs.z_max, res)
    ys = np.linspace(0.0, gs.y_max, res)
    xg, zg = np.meshgrid(xs, zs, indexing="ij")
    xg = xg.ravel()
    zg = zg.ravel()

    def psi_plus_one(y, x=xg, z=zg):
        return potentials_xyz(x, y, z, params) + 1.0

    cols = np.nonzero((psi_plus_one(ys[:1]) > 0) & (psi_plus_one(ys[-1:]) <= 0))[0]
    if cols.size == 0:
        raise MaslovkitError(
            "empty grid intersection: no column of the box crosses the level set"
        )
    x_c, z_c = xg[cols], zg[cols]
    # invariant: psi + 1 > 0 at row i_lo and <= 0 at row i_hi
    i_lo = np.zeros(cols.size, dtype=int)
    i_hi = np.full(cols.size, res - 1)
    while np.any(i_hi - i_lo > 1):
        i_mid = (i_lo + i_hi) // 2
        neg = psi_plus_one(ys[i_mid], x_c, z_c) <= 0
        i_hi = np.where(neg, i_mid, i_hi)
        i_lo = np.where(neg, i_lo, i_mid)
    lo, hi = ys[i_lo], ys[i_hi]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        neg = psi_plus_one(mid, x_c, z_c) <= 0
        hi = np.where(neg, mid, hi)
        lo = np.where(neg, lo, mid)
    y_c = 0.5 * (lo + hi)

    keep = np.sqrt(x_c**2 + y_c**2 + z_c**2) >= 1e-6
    x_c, y_c, z_c = x_c[keep], y_c[keep], z_c[keep]
    if x_c.size == 0:
        raise MaslovkitError("empty grid intersection after excluding the origin ball")

    gp = g.prime(y_c + (x_c + z_c) / d)
    radial_coeff = 1.0 + (1.0 + e) * gp / d
    value = radial_coeff * 3.0 * x_c - (-1.0 + (1.0 + e) * gp) * y_c + radial_coeff * z_c

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
