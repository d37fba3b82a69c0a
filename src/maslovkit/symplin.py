"""Linear symplectic algebra on (R^{2n}, omega_st).

Coordinates are ordered (x_1..x_n, y_1..y_n).  The complex identification
z_j = x_j + i*y_j fixes the compatible complex structure J(x, y) = (-y, x)
(multiplication by i), and the standard form Sum_j dx_j ^ dy_j has matrix

    Omega = [[0, I], [-I, 0]],      omega(u, v) = u^T Omega v.

With this choice Omega @ J = Id, so omega(., J.) is the Euclidean metric.

Matrices are plain arrays, and `is_symplectic` tests one.  A
`LagrangianFrame` is a validated 2n x n array.  A `LagrangianPath` evaluates
its frames at an array of times; its docstring lists the concrete paths.
`path_from_json` reads the two serializable kinds, and `rotation_path` and
`direct_sum_paths` build product paths.

Tolerances: bilinear identities (symplecticity, isotropy) are checked at
1e-10; rank decisions use a singular-value threshold of 1e-8 on frames with
normalized columns.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.linalg import expm

from .errors import (
    DegenerateFrameError,
    DimensionMismatchError,
    InputTypeError,
    IntegrationError,
    expect,
)

BILINEAR_TOL = 1e-10
RANK_TOL = 1e-8
PROBE_TOL = 1e-10  # closed form vs expm at t1 - t0, relative to the largest entry


@functools.cache
def complex_structure(n: int) -> np.ndarray:
    """Matrix of multiplication by i: J(x, y) = (-y, x); built once per n, read-only."""
    j = np.kron([[0.0, -1.0], [1.0, 0.0]], np.eye(n))
    j.flags.writeable = False
    return j


@functools.cache
def omega_matrix(n: int) -> np.ndarray:
    """Matrix of the standard form Sum dx_j ^ dy_j in (x, y) order: -J; read-only."""
    omega = -complex_structure(n)
    omega.flags.writeable = False
    return omega


def is_symplectic(m) -> bool:
    """True iff ``M^T Omega M = Omega`` to within 1e-10 (max-norm), for a
    square array of even dimension."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] % 2 != 0:
        raise DimensionMismatchError(
            f"expected a square matrix of even dimension, got shape {a.shape}"
        )
    omega = omega_matrix(a.shape[0] // 2)
    return bool(np.max(np.abs(a.T @ omega @ a - omega)) < BILINEAR_TOL)


@dataclass(frozen=True)
class LagrangianFrame:
    """A 2n x n frame whose columns span a Lagrangian subspace."""

    n: int
    columns: np.ndarray

    @staticmethod
    def from_columns(z: np.ndarray, validate: bool = True) -> "LagrangianFrame":
        z = np.asarray(z, dtype=float)
        if z.ndim != 2 or z.shape[0] != 2 * z.shape[1]:
            raise DimensionMismatchError(
                f"expected a 2n x n frame, got shape {z.shape}"
            )
        fr = LagrangianFrame(z.shape[1], z)
        if validate:
            fr.validate()
        return fr

    @staticmethod
    def horizontal(n: int) -> "LagrangianFrame":
        """R^n x {0}."""
        return LagrangianFrame(n, np.vstack([np.eye(n), np.zeros((n, n))]))

    @staticmethod
    def vertical(n: int) -> "LagrangianFrame":
        """{0} x R^n."""
        return LagrangianFrame(n, np.vstack([np.zeros((n, n)), np.eye(n)]))

    @staticmethod
    def complex_line(theta: float) -> "LagrangianFrame":
        """The line e^{i theta} R in R^2."""
        return LagrangianFrame(1, np.array([[np.cos(theta)], [np.sin(theta)]]))

    def validate(self) -> None:
        z = self.columns
        norms = np.linalg.norm(z, axis=0, keepdims=True)
        if not np.all(norms > 0):
            raise DegenerateFrameError("frame is rank deficient (a column is zero)")
        cn = z / norms
        sv = np.linalg.svd(cn, compute_uv=False)
        if sv[-1] <= RANK_TOL:
            raise DegenerateFrameError(
                f"frame is rank deficient (smallest singular value {sv[-1]:.3e})"
            )
        omega = omega_matrix(self.n)
        iso = np.max(np.abs(cn.T @ omega @ cn))
        if iso > BILINEAR_TOL:
            raise DegenerateFrameError(
                f"frame is not isotropic (|Z^T Omega Z| = {iso:.3e})"
            )


def lagrangian_intersection_dim(l1: LagrangianFrame, l2: LagrangianFrame) -> int:
    """dim(span L1 ∩ span L2), via 2n - rank[L1 | L2] at threshold 1e-8."""
    if l1.n != l2.n:
        raise DimensionMismatchError(f"frames have n={l1.n} and n={l2.n}")
    l1.validate()
    l2.validate()
    m = np.hstack([_normalize_columns(l1.columns), _normalize_columns(l2.columns)])
    return m.shape[1] - int(np.sum(np.linalg.svd(m, compute_uv=False) > RANK_TOL))


def _normalize_columns(f: np.ndarray) -> np.ndarray:
    return f / np.linalg.norm(f, axis=0, keepdims=True)


def intersection_basis(f1: np.ndarray, f2: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of span F1 ∩ span F2."""
    a = np.hstack([_normalize_columns(f1), _normalize_columns(f2)])
    _, sv, vt = np.linalg.svd(a)
    null_mask = np.zeros(a.shape[1], dtype=bool)
    null_mask[len(sv):] = True
    null_mask[: len(sv)] |= sv <= RANK_TOL
    kernel = vt[null_mask].T  # columns (c1; c2) with F1 c1 + F2 c2 = 0
    if kernel.shape[1] == 0:
        return np.zeros((f1.shape[0], 0))
    k1 = _normalize_columns(f1) @ kernel[: f1.shape[1]]
    q, r = np.linalg.qr(k1)
    keep = np.abs(np.diag(r)) > RANK_TOL
    return q[:, keep]


# ---------------------------------------------------------------------------
# Lagrangian paths
# ---------------------------------------------------------------------------


def _domain(domain) -> tuple:
    """``(t0, t1)`` as floats; every path constructor requires finite t0 < t1."""
    t0, t1 = float(domain[0]), float(domain[1])
    if not (np.isfinite(t0) and np.isfinite(t1) and t0 < t1):
        raise DimensionMismatchError(f"a path domain needs finite t0 < t1, got [{t0}, {t1}]")
    return t0, t1


def _per_t(fn, ts, shape, what) -> np.ndarray:
    """``fn`` at each time of ts, as a Python float, stacked into one float array
    of shape (len(ts),) + shape; any other result raises `DimensionMismatchError`."""
    ts = np.asarray(ts, dtype=float)
    values, want = [fn(t) for t in ts.tolist()], (len(ts),) + shape
    try:
        out = np.array(values or np.empty(want), dtype=float)
    except (TypeError, ValueError):
        out = None
    if out is None or out.shape != want or not np.all(np.isfinite(out)):
        got = "ragged" if out is None else "non-finite" if out.shape == want else out.shape[1:]
        raise DimensionMismatchError(f"a callable giving {got} {what} must map the {ts.shape} "
                                     f"array of times to a finite float array of shape {want}")
    return out


class LagrangianPath:
    """A path of Lagrangian frames on a closed interval.

    `frames` is the one evaluation primitive: every concrete path evaluates a
    whole array of times in it, and `frame_array` and `validate` are derived
    from it.  It is a pure function of t, and a path does not change once
    built, so `maslov` keeps a path's lifted ends on it.  Concrete paths are
    `GeneratorPath` (the flow expm(J S (t - t0)) of a constant quadratic
    Hamiltonian applied to an initial frame), `SampledPath` (frames at node
    times, linear between nodes), `ConstantPath`, or `FunctionPath` (an
    arbitrary closed form; not serializable).  `generator` reports the
    constant symmetric S with F' = J S F where the path knows one: a
    `GeneratorPath`, a `ConstantPath` (S = 0), a path of S = 0 moved by a
    `GeneratorPath` Psi (S_Psi), and their restrictions and direct sums.
    Every other path, including every other transform, reports None.  `moved`
    is (Psi, parent) on a path built as ``parent.transformed(Psi)`` with Psi a
    `GeneratorPath`, and on its restrictions (the parent restricted, Psi the
    same object), so that `maslov` lifts it from its parent and Psi without
    evaluating its frames, and indexes a pair whose two paths record the same
    Psi object as the pair of their parents; it is None on every other path.
    """

    n: int
    domain: tuple
    moved: Optional[tuple] = None

    def frames(self, ts) -> np.ndarray:
        """Frames at any 1-D array of times in the domain, shape (len(ts), 2n, n).

        The index routines in `maslov` pass at most ``maslov.BATCH`` times
        per call.
        """
        raise NotImplementedError

    def frame_array(self, t: float) -> np.ndarray:
        """The frame at one time: a batch of one."""
        return self.frames([t])[0]

    def generator(self) -> Optional[np.ndarray]:
        """The constant symmetric 2n x 2n S with F'(t) = J S F(t), or None."""
        return None

    def restricted(self, t0: float, t1: float) -> "LagrangianPath":
        lo, hi = self.domain
        if not (lo - 1e-12 <= t0 < t1 <= hi + 1e-12):
            raise DimensionMismatchError(f"[{t0}, {t1}] is not inside {self.domain}")
        moved = None if self.moved is None else (
            self.moved[0], self.moved[1].restricted(t0, t1))
        return _DerivedPath(self.n, self.frames, (t0, t1), self.generator(), moved)

    def reparametrized(self, tau: Callable[[np.ndarray], np.ndarray],
                       domain: tuple = (0.0, 1.0)) -> "LagrangianPath":
        """Precompose with a monotone time change ``tau``.

        ``tau`` is called once on the whole array of times.  A result that is
        not a finite float array of their shape raises
        `DimensionMismatchError`.
        """

        def frames(ts):
            s = tau(ts)
            try:
                s = np.asarray(s, dtype=float)
            except (TypeError, ValueError):
                s = None
            if s is None or s.shape != ts.shape or not np.all(np.isfinite(s)):
                raise DimensionMismatchError(
                    f"a time change must map the {ts.shape} array of times to a finite "
                    "float array of that shape")
            return self.frames(s)

        return _DerivedPath(self.n, frames, domain)

    def transformed(self, mat_path) -> "LagrangianPath":
        """Apply a (time-dependent) symplectic matrix to every frame.

        ``mat_path`` is a callable ``t -> 2n x 2n`` matrix or a `GeneratorPath`
        with this path's n and domain (to 1e-12), whose `matrices` give Psi(t)
        at the same times.  A callable is called once per t and refused as
        `FunctionPath`'s is; the path's frames are evaluated in one call.  A
        path whose generator is zero (a constant one) moved by a
        `GeneratorPath` reports that path's S, since G = Psi(t) F gives
        G' = J S_Psi G; every other transformed path reports None.  A path
        moved by a `GeneratorPath` records (Psi, this path) as its `moved`:
        `maslov.rs_index` and `maslov.det2_winding` lift it from this path's
        lift and Psi, and never evaluate its frames away from a crossing end.
        Two paths moved by the same Psi object are indexed, and their
        crossings listed, as the pair of their parents, with no evaluation of
        Psi; moving both by Psi objects built apart, even from one S, keeps the
        per-path lift.
        """
        generator = moved = None
        if isinstance(mat_path, GeneratorPath):
            if mat_path.n != self.n or np.max(
                    np.abs(np.subtract(mat_path.domain, self.domain))) > 1e-12:
                raise DimensionMismatchError(
                    f"a generator path with n = {mat_path.n} on {mat_path.domain} cannot "
                    f"transform a path with n = {self.n} on {self.domain}")
            mats, moved = mat_path.matrices, (mat_path, self)
            s = self.generator()
            if s is not None and not np.any(s):
                generator = mat_path.generator()
        else:
            mats = lambda ts: _per_t(mat_path, ts, (2 * self.n,) * 2, "matrices cannot "
                                     f"transform a path with n = {self.n} on {self.domain}; it")
        return _DerivedPath(self.n, lambda ts: mats(ts) @ self.frames(ts),
                            self.domain, generator, moved)

    def validate(self, samples: int = 7) -> None:
        t0, t1 = self.domain
        for f in self.frames(np.linspace(t0, t1, samples)):
            LagrangianFrame.from_columns(f, validate=False).validate()

    def to_json(self) -> dict:
        raise NotImplementedError(f"{type(self).__name__} is not serializable")


class _DerivedPath(LagrangianPath):
    """A path built from other paths by a batched map ``ts -> frames``."""

    def __init__(self, n, frames_of, domain, generator=None, moved=None):
        self.n = n
        self._frames_of = frames_of
        self.domain = _domain(domain)
        self._generator = generator
        self.moved = moved

    def frames(self, ts):
        return self._frames_of(np.asarray(ts, dtype=float))

    def generator(self):
        return self._generator


class FunctionPath(LagrangianPath):
    """A path given by a scalar frame-valued callable ``t -> (2n, n)`` array.

    In-memory only.  `frames` calls it once per t, with a Python float, and
    builds one array; a ragged, misshapen or non-finite result is refused.
    """

    def __init__(self, n, fn, domain=(0.0, 1.0)):
        self.n = n
        self._fn = fn
        self.domain = _domain(domain)

    def frames(self, ts):
        return _per_t(self._fn, ts, (2 * self.n, self.n), f"frames for n = {self.n}; it")


class ConstantPath(LagrangianPath):
    def __init__(self, frame: LagrangianFrame, domain=(0.0, 1.0)):
        self.n = frame.n
        self.domain = _domain(domain)
        self.base_frame = frame

    def frames(self, ts):
        return np.broadcast_to(
            self.base_frame.columns, (len(ts), 2 * self.n, self.n)
        ).copy()

    def generator(self):
        return np.zeros((2 * self.n, 2 * self.n))


def _exp_sum(lam, kernel, dts, r) -> np.ndarray:
    """Re sum_j e^{lambda_j dt} k_j at each offset dt, shaped like R; R where dt = 0."""
    e = np.exp(np.outer(dts, lam))
    out = (np.concatenate([e.real, e.imag], axis=1) @ kernel).reshape((len(dts),) + r.shape)
    out[dts == 0] = r
    return out


def _refuse_overflow(a) -> None:
    if not np.all(np.isfinite(a)):
        raise IntegrationError("the flow leaves the float range on the domain")


class GeneratorPath(LagrangianPath):
    """Frames ``Psi(t) @ F0`` with ``Psi(t) = expm(J S (t - t0))``.

    ``S`` is a constant symmetric 2n x 2n matrix.  When J S = V Lambda V^{-1},
    Psi is evaluated in closed form,

        Psi(t) R = Re sum_j e^{lambda_j (t - t0)} V[:, j] (V^{-1} R)[j, :],

    for R = F0 (`frames`) and R = Id (`matrices`): the real kernel
    [Re k; -Im k], with k_j the flattened outer product above, is built once,
    and a call is one real matrix product [Re E | Im E] @ kernel with
    E = exp(outer(t - t0, lambda)); t0 itself gives R exactly.  The
    eigenvectors are accepted when cond(V) <= 1e8 and the closed form at
    t1 - t0 matches ``expm(J S (t1 - t0))`` to `PROBE_TOL` of that matrix's
    largest entry.  Otherwise (a Jordan block, a nilpotent J S) `matrices`
    is one batched ``expm`` of (t - t0) J S and `frames` is that times F0.
    ``expm(J S (t1 - t0))`` is computed when the path is built, and a flow
    that leaves the float range there raises `IntegrationError`.  The
    eigenvectors, the cond(V) test, the probe and both kernels are built on
    the first `matrices` or `frames` call, so a Psi that `maslov` peels off a
    pair it moves costs only that ``expm``.
    """

    def __init__(self, s, frame0: LagrangianFrame, domain=(0.0, 1.0)):
        self.n = frame0.n
        self.domain = _domain(domain)
        self._f0 = frame0.columns
        s = np.asarray(s, dtype=float)
        if not np.all(np.isfinite(s)):
            raise DimensionMismatchError("generator S must hold finite numbers")
        dim = 2 * self.n
        if s.shape != (dim, dim) or np.max(np.abs(s - s.T)) > BILINEAR_TOL:
            raise DimensionMismatchError("generator S must be a symmetric 2n x 2n matrix")
        self._s = s
        self._js = complex_structure(self.n) @ s
        with np.errstate(over="ignore", invalid="ignore"):
            self._psi1 = expm(self._js * (self.domain[1] - self.domain[0]))
        _refuse_overflow(self._psi1)

    @functools.cached_property
    def _eig(self):
        """(lambda, kernel for Id, kernel for F0), or None for the batched expm;
        built on the first `matrices` or `frames` call, and never raises."""
        try:
            lam, v = np.linalg.eig(self._js)
            vinv = np.linalg.inv(v)
        except np.linalg.LinAlgError:
            return None
        if np.linalg.cond(v) > 1e8:
            return None
        dim = 2 * self.n
        k = v.T[:, :, None] * vinv[:, None, :]  # k[j] = outer(V[:, j], V^{-1}[j, :])
        k_eye = np.concatenate([k.real, -k.imag]).reshape(2 * dim, dim * dim)
        length = self.domain[1] - self.domain[0]
        with np.errstate(over="ignore", invalid="ignore"):
            approx = _exp_sum(lam, k_eye, np.array([length]), np.eye(dim))[0]
        if not np.max(np.abs(approx - self._psi1)) <= PROBE_TOL * np.max(np.abs(self._psi1)):
            return None
        k_f0 = (k_eye.reshape(2 * dim, dim, dim) @ self._f0).reshape(2 * dim, -1)
        return lam, k_eye, k_f0

    def _offsets(self, ts) -> np.ndarray:
        t0, t1 = self.domain
        return np.clip(np.asarray(ts, dtype=float), t0, t1) - t0

    def matrices(self, ts) -> np.ndarray:
        """Psi(t) at many times in the domain, shape (T, 2n, 2n).

        In closed form, or one batched ``expm`` of (t - t0) J S; Psi(t0) is
        the identity itself on either route.
        """
        dts = self._offsets(ts)
        if self._eig is None:
            return expm(dts[:, None, None] * self._js)
        lam, k_eye, _ = self._eig
        return _exp_sum(lam, k_eye, dts, np.eye(2 * self.n))

    # -- path interface --------------------------------------------------------

    def generator(self):
        return self._s

    def frames(self, ts):
        if self._eig is None:
            return self.matrices(ts) @ self._f0
        lam, _, k_f0 = self._eig
        return _exp_sum(lam, k_f0, self._offsets(ts), self._f0)

    def to_json(self) -> dict:
        return {
            "schema": "v1",
            "n": self.n,
            "kind": "generator",
            "domain": list(self.domain),
            "S": self._s.tolist(),
            "frame0": self._f0.tolist(),
        }


class SampledPath(LagrangianPath):
    """Frames at strictly increasing node ``times``, linear between nodes, so
    that `maslov` lifts det^2 in closed form at the nodes and refuses a
    segment on which the interpolated frame degenerates."""

    def __init__(self, times: Sequence[float], frames: np.ndarray):
        times = np.asarray(times, dtype=float)
        frames = np.asarray(frames, dtype=float)
        if times.ndim != 1:
            raise DimensionMismatchError(f"times must be a 1-D array, got shape {times.shape}")
        if frames.ndim != 3 or frames.shape[0] != len(times):
            raise DimensionMismatchError("frames must have shape (T, 2n, n)")
        if np.any(np.diff(times) <= 0):
            raise DimensionMismatchError("times must be strictly increasing")
        self.n = frames.shape[2]
        if frames.shape[1] != 2 * self.n:
            raise DimensionMismatchError("frames must have shape (T, 2n, n)")
        self.times = times
        self._frames = frames
        self.domain = _domain((times[0], times[-1]))

    def frames(self, ts):
        times = self.times
        ts = np.clip(np.asarray(ts, dtype=float), times[0], times[-1])
        i = np.clip(np.searchsorted(times, ts, side="right") - 1, 0, len(times) - 2)
        w = ((ts - times[i]) / (times[i + 1] - times[i]))[:, None, None]
        return (1 - w) * self._frames[i] + w * self._frames[i + 1]

    def to_json(self) -> dict:
        return {
            "schema": "v1",
            "n": self.n,
            "kind": "samples",
            "times": self.times.tolist(),
            "frames": self._frames.tolist(),
        }


def _float_array(value, what: str) -> np.ndarray:
    """A JSON array of numbers, nested to any depth, as a finite float array."""
    try:
        a = np.asarray(expect(value, list, what), dtype=float)
    except (TypeError, ValueError):
        raise InputTypeError(f"{what} must be a rectangular array of numbers") from None
    if not np.all(np.isfinite(a)):
        raise InputTypeError(f"{what} must hold finite numbers")
    return a


def path_from_json(obj: dict) -> LagrangianPath:
    kind = expect(obj, dict, "path").get("kind")
    if kind == "generator":
        domain = _float_array(obj.get("domain", [0.0, 1.0]), "domain")
        if domain.shape != (2,):
            raise InputTypeError("domain must be an array of two numbers")
        return GeneratorPath(
            _float_array(obj["S"], "S"),
            LagrangianFrame.from_columns(_float_array(obj["frame0"], "frame0")),
            tuple(domain))
    if kind == "samples":
        return SampledPath(
            _float_array(obj["times"], "times"), _float_array(obj["frames"], "frames"))
    raise DimensionMismatchError(f"unknown path kind {kind!r}")


def rotation_path(n: int, speeds, domain=(0.0, 1.0),
                  frame0: Optional[LagrangianFrame] = None) -> GeneratorPath:
    """The product path applying e^{i s_j t} to the j-th coordinate line.

    ``speeds`` is a scalar or a length-n sequence of angular speeds; the
    generator is S = diag(speeds, speeds).  It needs n >= 1.
    """
    if n < 1:
        raise DimensionMismatchError(f"a rotation path needs n >= 1, got {n}")
    speeds = np.broadcast_to(np.asarray(speeds, dtype=float), (n,))
    s = np.diag(np.concatenate([speeds, speeds]))
    return GeneratorPath(s, frame0 or LagrangianFrame.horizontal(n), domain)


def direct_sum_frames(f1: np.ndarray, f2: np.ndarray) -> np.ndarray:
    """Direct sum of frames, re-interleaved into (x..., y...) coordinate order.

    Accepts single (2n, n) frames or stacks of shape (..., 2n, n).
    """
    n1, n2 = f1.shape[-1], f2.shape[-1]
    n = n1 + n2
    out = np.zeros(f1.shape[:-2] + (2 * n, n))
    out[..., :n1, :n1] = f1[..., :n1, :]
    out[..., n : n + n1, :n1] = f1[..., n1:, :]
    out[..., n1:n, n1:] = f2[..., :n2, :]
    out[..., n + n1 :, n1:] = f2[..., n2:, :]
    return out


def direct_sum_paths(p1: LagrangianPath, p2: LagrangianPath) -> LagrangianPath:
    if p1.domain != p2.domain:
        raise DimensionMismatchError("paths must share their domain")
    s1, s2 = p1.generator(), p2.generator()
    # diag(S1, S2) re-interleaved: its x columns and its y columns, each a direct sum
    s = None if s1 is None or s2 is None else np.hstack(
        [direct_sum_frames(s1[:, :p1.n], s2[:, :p2.n]),
         direct_sum_frames(s1[:, p1.n:], s2[:, p2.n:])])
    return _DerivedPath(p1.n + p2.n,
                        lambda ts: direct_sum_frames(p1.frames(ts), p2.frames(ts)),
                        p1.domain, s)


def random_symplectic(n: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """A random symplectic matrix exp(J S) with S symmetric."""
    a = rng.normal(size=(2 * n, 2 * n), scale=scale)
    s = (a + a.T) / 2
    return expm(complex_structure(n) @ s)


def random_lagrangian_frame(n: int, rng: np.random.Generator) -> LagrangianFrame:
    m = random_symplectic(n, rng)
    return LagrangianFrame.from_columns(m @ LagrangianFrame.horizontal(n).columns)
