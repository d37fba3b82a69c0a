"""Filtered graded chain complexes over GF(2), homology, and direct limits.

Complexes are desk scale, so GF(2) matrices are dense uint8 arrays, and
rank is elimination on boolean rows with one masked XOR per pivot column.
A complex stores generators (id, degree, action) and a differential matrix
D with D[i, j] = 1 meaning generator j maps onto generator i; validity
demands D^2 = 0, degree drop exactly one, and a *strict* action decrease on
every entry (equality would break the well-definedness of action-window
subquotients).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    InputTypeError,
    ShapeMismatchError,
    expect,
)


# ---------------------------------------------------------------------------
# GF(2) primitives
# ---------------------------------------------------------------------------


def gf2_rank(m: np.ndarray) -> int:
    """Rank over GF(2).  Per column the first row holding a 1 is the pivot;
    one masked XOR adds it to every row holding a 1 there, itself included,
    so the pivot row leaves as a zero row and each pivot counts once."""
    r = (np.asarray(m, dtype=np.uint8) % 2).astype(bool)
    rank = 0
    for c in range(r.shape[1]):
        hit = np.flatnonzero(r[:, c])
        if hit.size:
            r[hit] ^= r[hit[0]]
            rank += 1
    return rank


def gf2_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The GF(2) product as a uint8 array: one float64 GEMM, then the low bit
    of each entry.  An entry of the integer product is at most 255^2 times
    the inner dimension, far inside the integers float64 holds exactly."""
    fa, fb = (np.asarray(m, dtype=np.uint8).astype(float) for m in (a, b))
    return ((fa @ fb).astype(np.int64) & 1).astype(np.uint8)


def gf2_eventual_rank(t: np.ndarray) -> int:
    """rank(T^m) for m = dim, where it has stabilized."""
    t = np.asarray(t, dtype=np.uint8) % 2
    if t.size == 0:
        return 0
    p = t.copy()
    for _ in range(t.shape[0]):
        p = gf2_matmul(p, t)
    return gf2_rank(p)


# ---------------------------------------------------------------------------
# JSON members
# ---------------------------------------------------------------------------

_ID = (str, int)  # generator ids a JSON input may use


def _id_pairs(value, what: str) -> List[Tuple[str, str]]:
    """A JSON array of [id, id] pairs."""
    pairs = [tuple(expect(e, list, f"{what} entry")) for e in expect(value, list, what)]
    for pair in pairs:
        if len(pair) != 2:
            raise InputTypeError(f"{what} entries must be [id, id] pairs")
        for x in pair:
            expect(x, _ID, f"{what} id")
    return pairs


def _gf2_array(value, what: str) -> np.ndarray:
    """A JSON array of non-negative integers as a uint8 array."""
    try:
        return np.asarray(expect(value, list, what), dtype=np.uint8)
    except (TypeError, ValueError, OverflowError):
        raise InputTypeError(f"{what} must be a rectangular array of integers 0..255") from None


# ---------------------------------------------------------------------------
# Filtered complexes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Generator:
    id: str
    degree: int
    action: float


@dataclass
class ValidationReport:
    ok: bool
    d2_violations: List[Tuple[str, str]]
    degree_violations: List[Tuple[str, str]]
    action_violations: List[Tuple[str, str]]

    def to_json(self) -> dict:
        return {
            "schema": "v1",
            "pass": self.ok,
            "d2_violations": [list(v) for v in self.d2_violations],
            "degree_violations": [list(v) for v in self.degree_violations],
            "action_violations": [list(v) for v in self.action_violations],
        }


class FilteredZ2Complex:
    """Generators with degree and action, and a GF(2) differential."""

    def __init__(self, generators: Sequence[Generator], entries: Sequence[Tuple[str, str]]):
        self.generators = list(generators)
        ids = [g.id for g in self.generators]
        if len(set(ids)) != len(ids):
            raise DimensionMismatchError("generator ids must be unique")
        self.index = {g.id: i for i, g in enumerate(self.generators)}
        n = len(self.generators)
        self.d = np.zeros((n, n), dtype=np.uint8)
        for out_id, in_id in entries:
            if out_id not in self.index or in_id not in self.index:
                raise DimensionMismatchError(
                    f"unknown generator in entry ({out_id!r}, {in_id!r})"
                )
            self.d[self.index[out_id], self.index[in_id]] ^= 1

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def from_matrix(generators: Sequence[Generator], d: np.ndarray) -> "FilteredZ2Complex":
        c = FilteredZ2Complex(generators, [])
        d = np.asarray(d, dtype=np.uint8) % 2
        if d.shape != c.d.shape:
            raise ShapeMismatchError("differential shape mismatch")
        c.d = d.copy()
        return c

    def entries(self) -> List[Tuple[str, str]]:
        out = []
        rows, cols = np.nonzero(self.d)
        for r, c in zip(rows, cols):
            out.append((self.generators[r].id, self.generators[c].id))
        return out

    # -- validation -------------------------------------------------------------

    def validate(self) -> ValidationReport:
        d2 = gf2_matmul(self.d, self.d)
        d2_viol = [
            (self.generators[r].id, self.generators[c].id)
            for r, c in zip(*np.nonzero(d2))
        ]
        deg_viol = []
        act_viol = []
        for r, c in zip(*np.nonzero(self.d)):
            gout, gin = self.generators[r], self.generators[c]
            if gout.degree != gin.degree - 1:
                deg_viol.append((gout.id, gin.id))
            if not (gout.action < gin.action):
                act_viol.append((gout.id, gin.id))
        ok = not (d2_viol or deg_viol or act_viol)
        return ValidationReport(ok, d2_viol, deg_viol, act_viol)

    # -- homology ---------------------------------------------------------------

    def degrees(self) -> List[int]:
        return sorted({g.degree for g in self.generators})

    def homology(self) -> Dict[int, int]:
        """dim ker d_k - rank d_{k+1} per degree k (zero entries omitted),
        with the degrees grouped once and each rank d_k taken once."""
        degs = np.array([g.degree for g in self.generators], dtype=int)
        by_degree = {k: np.flatnonzero(degs == k) for k in self.degrees()}
        none = np.zeros(0, dtype=int)
        rank = {k: gf2_rank(self.d[np.ix_(by_degree.get(k - 1, none), idx)])
                for k, idx in by_degree.items()}
        out: Dict[int, int] = {}
        for k, idx in by_degree.items():
            dim = idx.size - rank[k] - rank.get(k + 1, 0)
            if dim:
                out[k] = dim
        return out

    # -- filtration --------------------------------------------------------------

    def subquotient(self, a: float, b: float = np.inf) -> "FilteredZ2Complex":
        """Generators with action in (a, b]; differential restricted and
        projected.  Well defined because the action decrease is strict."""
        if not a < b:
            raise DimensionMismatchError(f"need a < b, got a={a}, b={b}")
        keep = [i for i, g in enumerate(self.generators) if a < g.action <= b]
        gens = [self.generators[i] for i in keep]
        sub = FilteredZ2Complex(gens, [])
        if keep:
            sub.d = self.d[np.ix_(keep, keep)].copy()
        return sub

    # -- serialization ------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "schema": "v1",
            "generators": [
                {"id": g.id, "degree": g.degree, "action": g.action}
                for g in self.generators
            ],
            "differential": [list(e) for e in self.entries()],
        }

    @staticmethod
    def from_json(obj: dict) -> "FilteredZ2Complex":
        obj, gens = expect(obj, dict, "complex"), []
        for g in expect(obj["generators"], list, "generators"):
            g = expect(g, dict, "generator")
            gens.append(Generator(expect(g["id"], _ID, "generator id"),
                                  expect(g["degree"], int, "generator degree"),
                                  float(expect(g["action"], (int, float), "generator action"))))
        return FilteredZ2Complex(gens, _id_pairs(obj["differential"], "differential"))

    def direct_sum(self, other: "FilteredZ2Complex") -> "FilteredZ2Complex":
        gens = self.generators + [
            Generator(g.id, g.degree, g.action) for g in other.generators
        ]
        c = FilteredZ2Complex(gens, [])
        n1 = len(self.generators)
        c.d[:n1, :n1] = self.d
        c.d[n1:, n1:] = other.d
        return c


# ---------------------------------------------------------------------------
# Chain maps
# ---------------------------------------------------------------------------


class ChainMap:
    """A degree-preserving GF(2) map of filtered complexes."""

    def __init__(self, source: FilteredZ2Complex, target: FilteredZ2Complex,
                 entries: Sequence[Tuple[str, str]], monotone: bool = False):
        self.source = source
        self.target = target
        self.monotone = monotone
        self.matrix = np.zeros(
            (len(target.generators), len(source.generators)), dtype=np.uint8
        )
        for tgt_id, src_id in entries:
            self.matrix[target.index[tgt_id], source.index[src_id]] ^= 1

    @staticmethod
    def identity(c: FilteredZ2Complex) -> "ChainMap":
        m = ChainMap(c, c, [])
        m.matrix = np.eye(len(c.generators), dtype=np.uint8)
        return m

    @staticmethod
    def from_matrix(source, target, matrix, monotone=False) -> "ChainMap":
        m = ChainMap(source, target, [], monotone)
        matrix = np.asarray(matrix, dtype=np.uint8) % 2
        if matrix.shape != m.matrix.shape:
            raise ShapeMismatchError(
                f"chain map shape {matrix.shape} does not match "
                f"({len(target.generators)}, {len(source.generators)})"
            )
        m.matrix = matrix
        return m

    def validate(self) -> None:
        """Check that this is a chain map; return None or raise.

        Every violation raises `ShapeMismatchError`; the message tells which:

        - every nonzero entry (target t, source s) has deg t == deg s;
        - if `monotone`, every nonzero entry has action t <= action s;
        - d_target . Phi == Phi . d_source over GF(2).
        """
        for r, c in zip(*np.nonzero(self.matrix)):
            gt, gs = self.target.generators[r], self.source.generators[c]
            if gt.degree != gs.degree:
                raise ShapeMismatchError(
                    f"entry ({gt.id}, {gs.id}) does not preserve degree"
                )
            if self.monotone and gt.action > gs.action:
                raise ShapeMismatchError(
                    f"monotone map increases action on ({gt.id}, {gs.id})"
                )
        lhs = gf2_matmul(self.target.d, self.matrix)
        rhs = gf2_matmul(self.matrix, self.source.d)
        if np.any(lhs != rhs):
            raise ShapeMismatchError("map does not commute with the differentials")

    def compose(self, first: "ChainMap") -> "ChainMap":
        """self o first."""
        if first.target is not self.source and (
            len(first.target.generators) != len(self.source.generators)
        ):
            raise ShapeMismatchError("maps are not composable")
        out = ChainMap(first.source, self.target, [],
                       monotone=self.monotone and first.monotone)
        out.matrix = gf2_matmul(self.matrix, first.matrix)
        return out

    def to_json(self) -> dict:
        entries = [
            [self.target.generators[r].id, self.source.generators[c].id]
            for r, c in zip(*np.nonzero(self.matrix))
        ]
        return {
            "schema": "v1",
            "source": self.source.to_json(),
            "target": self.target.to_json(),
            "entries": entries,
            "monotone": self.monotone,
        }

    @staticmethod
    def from_json(obj: dict) -> "ChainMap":
        obj = expect(obj, dict, "chain map")
        src = FilteredZ2Complex.from_json(obj["source"])
        tgt = FilteredZ2Complex.from_json(obj["target"])
        return ChainMap(src, tgt, _id_pairs(obj["entries"], "entries"),
                        expect(obj.get("monotone", False), bool, "monotone"))


def check_square(psi_i: ChainMap, psi_ip1: ChainMap, phi_m: ChainMap,
                 phi_handle: ChainMap) -> bool:
    """Commutativity psi_{i+1} o phi_M = phi_handle o psi_i over GF(2)."""
    left = psi_ip1.compose(phi_m)
    right = phi_handle.compose(psi_i)
    if left.matrix.shape != right.matrix.shape:
        raise ShapeMismatchError("square sides have different shapes")
    return bool(np.all(left.matrix == right.matrix))


# ---------------------------------------------------------------------------
# Directed systems and direct limits
# ---------------------------------------------------------------------------


class DirectedSystem:
    """A finite chain of graded GF(2) spaces with degree-preserving maps.

    ``stages[i]`` maps degree -> dimension, each non-negative; ``maps[i]``
    maps degree -> a (dim_{i+1}(deg) x dim_i(deg)) matrix, one map per
    consecutive pair, so a composite is the product of the maps it spans.
    A missing degree in a map is the zero matrix.
    """

    def __init__(self, stages: Sequence[Dict[int, int]],
                 maps: Sequence[Dict[int, np.ndarray]]):
        if len(maps) != len(stages) - 1:
            raise ShapeMismatchError("need exactly one map per consecutive pair")
        self.stages = [dict(s) for s in stages]
        if any(v < 0 for s in self.stages for v in s.values()):
            raise DimensionMismatchError("stage dimensions must be non-negative")
        self.maps = []
        for i, m in enumerate(maps):
            checked: Dict[int, np.ndarray] = {}
            for deg in set(self.stages[i]) | set(self.stages[i + 1]):
                d_in = self.stages[i].get(deg, 0)
                d_out = self.stages[i + 1].get(deg, 0)
                mat = np.asarray(m.get(deg, np.zeros((d_out, d_in))), dtype=np.uint8) % 2
                if mat.size == 0:
                    mat = mat.reshape(d_out, d_in) if 0 in (d_out, d_in) else mat
                if mat.shape != (d_out, d_in):
                    raise ShapeMismatchError(
                        f"map {i}: degree {deg} needs shape {(d_out, d_in)}, "
                        f"got {mat.shape}"
                    )
                checked[deg] = mat
            self.maps.append(checked)

    def degrees(self) -> List[int]:
        out = set()
        for s in self.stages:
            out |= set(s)
        return sorted(out)

    def composed(self, i: int, j: int, degree: int) -> np.ndarray:
        """The composite transition stage i -> stage j in one degree."""
        if not 0 <= i <= j < len(self.stages):
            raise ShapeMismatchError("invalid stage range")
        dim_i = self.stages[i].get(degree, 0)
        acc = np.eye(dim_i, dtype=np.uint8)
        for s in range(i, j):
            acc = gf2_matmul(self.maps[s].get(
                degree, np.zeros((self.stages[s + 1].get(degree, 0),
                                  self.stages[s].get(degree, 0)))), acc)
        return acc

    def subsampled(self, indices: Sequence[int]) -> "DirectedSystem":
        """The system restricted to a subchain of stages (cofinal if it
        contains the last stage)."""
        idx = sorted(indices)
        stages = [self.stages[i] for i in idx]
        maps = []
        for a, b in zip(idx, idx[1:]):
            maps.append({deg: self.composed(a, b, deg) for deg in self.degrees()})
        return DirectedSystem(stages, maps)

    def to_json(self) -> dict:
        return {
            "schema": "v1",
            "stages": [{str(d): v for d, v in s.items()} for s in self.stages],
            "maps": [
                {str(d): m.tolist() for d, m in mp.items()} for mp in self.maps
            ],
        }

    @staticmethod
    def from_json(obj: dict) -> "DirectedSystem":
        obj = expect(obj, dict, "directed system")
        stages = [
            {int(d): expect(v, int, "stage dimension") for d, v in expect(s, dict, "stage").items()}
            for s in expect(obj["stages"], list, "stages")
        ]
        maps = [
            {int(d): _gf2_array(m, "map matrix") for d, m in expect(mp, dict, "map").items()}
            for mp in expect(obj["maps"], list, "maps")
        ]
        return DirectedSystem(stages, maps)


@dataclass
class DirectLimitResult:
    dims: Dict[int, int]
    stabilized: Dict[int, bool]
    finite_quotient_dims: Dict[int, int]

    def to_json(self) -> dict:
        return {
            "schema": "v1",
            "dims": {str(d): v for d, v in self.dims.items()},
            "stabilized": {str(d): v for d, v in self.stabilized.items()},
            "finite_quotient_dims": {
                str(d): v for d, v in self.finite_quotient_dims.items()
            },
        }


def direct_limit(sys: DirectedSystem, window: int = 3) -> DirectLimitResult:
    """Direct limit dimensions per degree.

    Two computations are reported.  ``finite_quotient_dims`` is the literal
    quotient of the direct sum of the given stages by the span of
    embed_{i+1}(T_i v) - embed_i(v) over every consecutive pair.  Each such
    relation has its leading 1 in its own column of stage i, so the relations
    are independent and the quotient is the last stage: the colimit of a
    finite chain.  When the tail of the system is stable, the infinite system
    it extrapolates to has limit equal to the eventual rank of the repeated
    map, and that value is reported in ``dims``.  The tail is the maps among
    the last ``max(window, 2)`` stages, so it holds at least one map; it is
    stable when the system has that many stages and the tail maps are square
    and identical.  Otherwise ``dims`` falls back to the finite quotient.  A
    window below 1 raises `DimensionMismatchError`.
    """
    if window < 1:
        raise DimensionMismatchError(f"window must be at least 1, got {window}")
    dims: Dict[int, int] = {}
    stab: Dict[int, bool] = {}
    finite: Dict[int, int] = {}
    n_stages, n_tail = len(sys.stages), max(window, 2)
    first = max(n_stages - n_tail, 0)
    for deg in sys.degrees():
        sizes = [s.get(deg, 0) for s in sys.stages[first:]]  # the tail stages only
        tail = [m.get(deg, np.zeros((b, a), dtype=np.uint8))
                for m, a, b in zip(sys.maps[first:], sizes, sizes[1:])]
        stab[deg] = n_stages >= n_tail and all(
            m.shape == (sizes[-1], sizes[-1]) and np.array_equal(m, tail[0]) for m in tail)
        finite[deg] = sizes[-1]
        dims[deg] = gf2_eventual_rank(tail[0]) if stab[deg] else sizes[-1]
    return DirectLimitResult(dims, stab, finite)


# ---------------------------------------------------------------------------
# Model builders
# ---------------------------------------------------------------------------


def identity_system(length: int) -> DirectedSystem:
    stages = [{0: 1} for _ in range(length)]
    maps = [{0: np.array([[1]], dtype=np.uint8)} for _ in range(length - 1)]
    return DirectedSystem(stages, maps)


def zero_map_system(length: int) -> DirectedSystem:
    stages = [{0: 1} for _ in range(length)]
    maps = [{0: np.array([[0]], dtype=np.uint8)} for _ in range(length - 1)]
    return DirectedSystem(stages, maps)


def model_flow_system(n: int, stages: int) -> DirectedSystem:
    """Stage k holds one generator in degree n*k; degree-preserving
    transitions are forced to zero between distinct degrees."""
    st = [{n * k: 1} for k in range(stages)]
    maps = [dict() for _ in range(stages - 1)]
    return DirectedSystem(st, maps)
