"""Radial Hamiltonian profiles and their action ledger.

A `RadialProfile` is a piecewise-C^1 function of one radial coordinate,
realized as a piecewise-constant slope with optional quintic-smoothstep
joins at the knots.  Because the blended slope interpolates the two adjacent
constant slopes symmetrically, the blended profile coincides exactly with the
max-of-segments construction outside every blend window, and all slope
bounds hold segmentwise by construction.

The action of a chord sitting at radius r of a radial Hamiltonian h is

    action(r) = r h'(r) - h(r),

minus the y-intercept of the tangent line at r; it is constant on linear
segments and monotone along a blend (its derivative is r h'').

The transfer construction stacks five regions: a constant well at -eps_n, a
climb of slope a_n in the inner radial coordinate, a plateau at A_n, and an
outer climb of slope a_n/(4C) from radius 2*C*r_n on.  The inner radial
coordinate r_W and the global one r are identified conformally (r = C r_W),
under which the action expression is invariant; inner slopes are therefore
a_n/C in the stored coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    KinkEvaluationError,
    ProfileConstraintError,
    SpectrumSearchError,
)
from .handle import smoothstep, smoothstep_integral


@dataclass(frozen=True)
class SpectrumSet:
    """A finite sorted set of positive chord periods."""

    periods: Tuple[float, ...]

    @staticmethod
    def of(values: Sequence[float]) -> "SpectrumSet":
        vals = [float(v) for v in values]
        if not all(0 < v < math.inf for v in vals):
            raise DimensionMismatchError("periods must be positive and finite")
        return SpectrumSet(tuple(sorted(vals)))

    @property
    def t_min(self) -> float:
        if not self.periods:
            raise DimensionMismatchError("empty spectrum has no minimum")
        return self.periods[0]

    def distance(self, a: float) -> float:
        if not self.periods:
            return math.inf
        return min(abs(a - p) for p in self.periods)

    def to_json(self) -> dict:
        return {"schema": "v1", "periods": list(self.periods)}


class RadialProfile:
    """Piecewise slope profile with C^1 smoothstep joins.

    Args:
        knots: strictly increasing radii where the slope changes.
        slopes: len(knots)+1 slope values; slopes[i] holds left of knots[i].
        anchor: (r, value) pinning the function; r must sit outside every
            blend window.
        blend_widths: per-knot half-widths of the smoothing window (0 keeps a
            genuine kink there).
        metadata: free-form dict (a_n, eps_n, r_n, A_n, C, ...).
    """

    def __init__(self, knots, slopes, anchor, blend_widths=None, metadata=None):
        self.knots = np.asarray(knots, dtype=float)
        self.slopes = np.asarray(slopes, dtype=float)
        if len(self.slopes) != len(self.knots) + 1:
            raise DimensionMismatchError("need len(slopes) == len(knots) + 1")
        if np.any(np.diff(self.knots) <= 0):
            raise DimensionMismatchError("knots must be strictly increasing")
        if blend_widths is None:
            blend_widths = np.zeros(len(self.knots))
        self.blend_widths = np.asarray(blend_widths, dtype=float)
        if np.any(self.blend_widths < 0):
            raise DimensionMismatchError("blend widths must be nonnegative")
        for i in range(len(self.knots) - 1):
            if (
                self.knots[i] + self.blend_widths[i]
                > self.knots[i + 1] - self.blend_widths[i + 1]
            ):
                raise DimensionMismatchError("blend windows overlap")
        self.anchor = (float(anchor[0]), float(anchor[1]))
        self.metadata = dict(metadata or {})
        self._anchor_offset = 0.0
        self._anchor_offset = self.anchor[1] - self._raw_value(self.anchor[0])

    # -- evaluation ----------------------------------------------------------

    def slope(self, r, side: Optional[str] = None):
        """One-sided slope; `side` in {None, 'left', 'right'} (None = two-sided)."""
        rr = np.asarray(r, dtype=float)
        scalar = rr.ndim == 0
        rr = np.atleast_1d(rr)
        out = np.full_like(rr, self.slopes[0])
        for i, (kn, w) in enumerate(zip(self.knots, self.blend_widths)):
            s0, s1 = self.slopes[i], self.slopes[i + 1]
            if w == 0.0:
                if side == "left":
                    out = np.where(rr > kn, s1, out)
                else:
                    out = np.where(rr >= kn, s1, out)
                at_kink = np.isclose(rr, kn, rtol=0, atol=1e-14)
                if side is None and np.any(at_kink) and s0 != s1:
                    raise KinkEvaluationError(
                        f"slope evaluated exactly at the kink r={kn}; pass "
                        "side='left' or side='right'"
                    )
            else:
                u = (rr - (kn - w)) / (2 * w)
                out = np.where(rr > kn - w, s0 + (s1 - s0) * smoothstep(u), out)
                out = np.where(rr >= kn + w, s1, out)
        return float(out[0]) if scalar else out

    def _raw_value(self, r):
        """The integral of the slope from 0, slopes[0] holding on (-inf, k0].

        Each slope change ds at a knot kn adds, per point, its blend
        ds 2w smoothstep_integral(u), u = (r - kn + w)/(2w), evaluated only
        where 0 < u < 1 and taken as ds 2w smoothstep_integral(1) = ds w
        where u >= 1, and its linear part ds (r - kn - w) only where r > kn + w
        (for a kink, w = 0: no blend).
        """
        rr = np.atleast_1d(np.asarray(r, dtype=float))
        out = self.slopes[0] * rr
        for i, (kn, w) in enumerate(zip(self.knots, self.blend_widths)):
            ds = self.slopes[i + 1] - self.slopes[i]
            if ds == 0.0:
                continue
            if w != 0.0:
                u = (rr - (kn - w)) / (2 * w)
                inside = (u > 0.0) & (u < 1.0)
                out[u >= 1.0] += ds * w  # ds 2w smoothstep_integral(1), exactly
                out[inside] += ds * 2 * w * smoothstep_integral(u[inside])
            right = rr > kn + w
            out[right] += ds * (rr[right] - kn - w)
        return out if np.asarray(r).ndim else float(out[0])

    def value(self, r):
        v = self._raw_value(r)
        return v + self._anchor_offset

    __call__ = value

    # -- structure -----------------------------------------------------------

    @property
    def breakpoints(self) -> List[Tuple[float, float]]:
        rs: List[float] = []
        for kn, w in zip(self.knots, self.blend_widths):
            if w == 0.0:
                rs.append(float(kn))
            else:
                rs.extend([float(kn - w), float(kn + w)])
        return [(r, float(self.value(r))) for r in rs]

    @property
    def segments(self) -> List[dict]:
        out = []
        for i, (kn, w) in enumerate(zip(self.knots, self.blend_widths)):
            s = self.slopes[i]
            out.append(
                {
                    "kind": "constant" if s == 0.0 else "linear",
                    "slope": float(s),
                    "r_hi": float(kn - w) if w else float(kn),
                }
            )
            if w:
                out.append({"kind": "smooth-join", "r_lo": float(kn - w), "r_hi": float(kn + w)})
        out.append({"kind": "constant" if self.slopes[-1] == 0.0 else "linear",
                    "slope": float(self.slopes[-1]),
                    "r_hi": None})
        return out

    def max_breakpoint(self) -> float:
        return float(self.knots[-1] + self.blend_widths[-1])

    def to_json(self) -> dict:
        return {
            "schema": "v1",
            "knots": self.knots.tolist(),
            "slopes": self.slopes.tolist(),
            "blend_widths": self.blend_widths.tolist(),
            "anchor": list(self.anchor),
            "breakpoints": [[r, v] for r, v in self.breakpoints],
            "segments": self.segments,
            "metadata": self.metadata,
        }

    @staticmethod
    def from_json(obj: dict) -> "RadialProfile":
        return RadialProfile(
            obj["knots"], obj["slopes"], tuple(obj["anchor"]),
            obj.get("blend_widths"), obj.get("metadata"),
        )


def radial_action(h: RadialProfile, r, side: Optional[str] = None):
    """r h'(r) - h(r), for one radius or an array of them; at a kink a side
    must be selected explicitly."""
    r = np.asarray(r, dtype=float)
    out = r * h.slope(r, side=side) - h.value(r)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Slope selection
# ---------------------------------------------------------------------------


def choose_slopes(
    spectrum: SpectrumSet,
    count: int,
    lower: float,
    *,
    C: float = 1.0,
    gap: float = 1e-3,
    spectrum_outer: Optional[SpectrumSet] = None,
    step: float = 1.0,
    max_scan: int = 100_000,
):
    """Increasing slopes a_1 < a_2 < ... with a_n > lower, each a distance
    >= gap from the inner spectrum and with a_n/(4C) a distance >= gap from
    the outer spectrum (defaults to the inner one).

    Returns (slopes, deltas) where deltas[n] is the distance of a_n to the
    inner spectrum.
    """
    if not 0 < lower < math.inf:
        raise SpectrumSearchError("lower bound must be positive and finite")
    outer = spectrum_outer or spectrum
    slopes: List[float] = []
    deltas: List[float] = []
    a = lower
    scans = 0
    while len(slopes) < count:
        a = a + step
        scans += 1
        if scans > max_scan:
            raise SpectrumSearchError(
                f"no admissible slope found within {max_scan} scan steps; "
                "the spectrum is too dense for the configured gap"
            )
        if spectrum.distance(a) < gap:
            continue
        if outer.distance(a / (4.0 * C)) < gap:
            continue
        slopes.append(a)
        deltas.append(spectrum.distance(a))
    return slopes, deltas


# ---------------------------------------------------------------------------
# The transfer profile
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransferSchedule:
    """Per-stage data: decreasing eps_n and increasing slopes a_n.

    r_n and A_n are derived when not supplied: r_n is the smallest integer
    strictly above its lower bound (and above the previous stage's r), and
    A_n is the midpoint of its admissible interval.
    """

    eps: Tuple[float, ...]
    slopes: Tuple[float, ...]
    r: Optional[Tuple[float, ...]] = None
    A: Optional[Tuple[float, ...]] = None

    @staticmethod
    def seeded(spectrum: SpectrumSet, C: float, stages: int,
               eps0: float = 0.1, gap: float = 1e-3) -> "TransferSchedule":
        if stages < 1:
            raise ProfileConstraintError(f"need at least one stage, got {stages}")
        slopes, _ = choose_slopes(spectrum, stages, 4.0 * C, C=C, gap=gap)
        eps = tuple(eps0 / 2**i for i in range(stages))
        return TransferSchedule(eps=eps, slopes=tuple(slopes))


def build_transfer_profile(
    n_index: int,
    spectrum: SpectrumSet,
    C: float,
    schedule: TransferSchedule,
    *,
    r_prev: Optional[float] = None,
    blend_scale: Optional[float] = None,
) -> RadialProfile:
    """Stage n_index (1-based) of the five-region transfer family.

    Preconditions (violations raise `ProfileConstraintError` naming the
    inequality): eps decreasing with eps_1 < T_min/(1+T_min); a_n > 4C;
    r_n > max(2 + 2 eps_n/a_n, (a_n + eps_n + eps_n a_n)/delta_n); and
    A_n in (a_n (r_n - 1) - eps_n, a_n (r_n - 1)).
    """
    if not (1 <= n_index <= len(schedule.eps)):
        raise ProfileConstraintError("stage index outside the schedule")
    if len(schedule.slopes) != len(schedule.eps):
        raise ProfileConstraintError("schedule eps and slopes lengths differ")

    eps_seq = schedule.eps[:n_index]
    if any(e2 >= e1 for e1, e2 in zip(eps_seq, eps_seq[1:])):
        raise ProfileConstraintError("eps sequence not decreasing")
    t_min = spectrum.t_min
    if schedule.eps[0] >= t_min / (1.0 + t_min):
        raise ProfileConstraintError("eps exceeds T_min/(1+T_min)")

    eps = float(schedule.eps[n_index - 1])
    a = float(schedule.slopes[n_index - 1])
    if a <= 4.0 * C:
        raise ProfileConstraintError("slope must exceed 4C")
    if n_index >= 2 and a <= schedule.slopes[n_index - 2]:
        raise ProfileConstraintError("slope sequence not increasing")

    delta = spectrum.distance(a)
    if delta <= 0:
        raise ProfileConstraintError("slope lies in the spectrum")

    r_bound = max(2.0 + 2.0 * eps / a, (a + eps + eps * a) / delta)
    if schedule.r is not None:
        r_n = float(schedule.r[n_index - 1])
    else:
        r_n = float(math.floor(r_bound) + 1)
        if r_prev is not None:
            r_n = max(r_n, math.floor(r_prev) + 1.0)
    if r_n <= r_bound:
        raise ProfileConstraintError(
            "r_n too small: need r_n > max(2 + 2 eps/a, (a + eps + eps a)/delta)"
        )
    if r_prev is not None and r_n <= r_prev:
        raise ProfileConstraintError("r sequence not increasing")

    a_lo, a_hi = a * (r_n - 1.0) - eps, a * (r_n - 1.0)
    A_n = float(schedule.A[n_index - 1]) if schedule.A is not None else 0.5 * (a_lo + a_hi)
    if not (a_lo < A_n < a_hi):
        raise ProfileConstraintError(
            "A_n outside the interval (a_n(r_n - 1) - eps_n, a_n(r_n - 1))"
        )

    # knots in the global radial coordinate (r = C * r_W on the inner collar)
    k1 = C * (1.0 + eps * (1.0 - 1.0 / a))          # well meets the inner climb
    k2 = C * (1.0 + eps + A_n / a)                  # inner climb meets the plateau
    k3 = 2.0 * C * r_n - 4.0 * C * (a_hi - A_n) / a # plateau meets the outer climb
    slopes = [0.0, a / C, 0.0, a / (4.0 * C)]

    cap = 0.4 * C * eps / a
    w_scale = blend_scale if blend_scale is not None else min(eps, 0.01)
    widths = []
    for i, kn in enumerate((k1, k2, k3)):
        seg_left = kn - ((k1, k2, k3)[i - 1] if i else 0.0)
        seg_right = ((k1, k2, k3)[i + 1] if i < 2 else 2.0 * C * r_n) - kn
        widths.append(min(w_scale * min(seg_left, seg_right), cap))

    meta = {
        "a_n": a,
        "eps_n": eps,
        "r_n": r_n,
        "A_n": A_n,
        "C": C,
        "delta_n": delta,
        "stage": n_index,
        "knots": [k1, k2, k3],
    }
    return RadialProfile(
        knots=[k1, k2, k3],
        slopes=slopes,
        anchor=(0.0, -eps),
        blend_widths=widths,
        metadata=meta,
    )


def build_transfer_family(spectrum: SpectrumSet, C: float,
                          schedule: TransferSchedule) -> List[RadialProfile]:
    """All stages of the schedule, with increasing r_n enforced."""
    out: List[RadialProfile] = []
    r_prev = None
    for i in range(1, len(schedule.eps) + 1):
        prof = build_transfer_profile(i, spectrum, C, schedule, r_prev=r_prev)
        r_prev = prof.metadata["r_n"]
        out.append(prof)
    return out


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


@dataclass
class ActionItem:
    item: str
    passed: bool
    expected_sign: str
    action_min: float
    action_max: float
    margin: float
    witness_r: float
    n_samples: int
    chain_bound: Optional[float] = None

    def to_json(self) -> dict:
        d = dict(self.__dict__)
        d["pass"] = d.pop("passed")
        return d


@dataclass
class ActionSignReport:
    items: List[ActionItem]

    @property
    def passed(self) -> bool:
        return all(i.passed for i in self.items)

    def to_json(self) -> dict:
        return {
            "schema": "v1",
            "pass": self.passed,
            "items": [i.to_json() for i in self.items],
        }

    def to_csv_rows(self):
        head = ["item", "pass", "expected_sign", "action_min", "action_max",
                "margin", "witness_r", "n_samples", "chain_bound"]
        rows = [head]
        for i in self.items:
            rows.append([i.item, i.passed, i.expected_sign, i.action_min,
                         i.action_max, i.margin, i.witness_r, i.n_samples,
                         "" if i.chain_bound is None else i.chain_bound])
        return rows


BLEND_TOL = 1e-15  # a chord root v stops once its Newton step is at most this
BLEND_STEPS = 60  # cap on the steps per blend


def _blend_chord_radii(h: RadialProfile, knot_idx: int, spectrum_w, C,
                       slope_cap=None, samples=100):
    """Radii inside blend `knot_idx` whose inner slope C*h' is a chord period,
    plus dense samples restricted to the band of slopes the spectrum reaches.

    There h' = s0 + (s1 - s0) smoothstep(u), u = (r - k + w)/(2w), and as
    smoothstep(1 - u) = 1 - smoothstep(u), each period t is a root v <= 1/2 of
    smoothstep(v) = min(y, 1 - y), y = (t/C - s0)/(s1 - s0).  Newton solves
    all periods at once from v0 = (y/4)^(1/3), right of the root since
    smoothstep(v) >= 4v^3 on [0, 1/2], where smoothstep is convex: it falls
    monotonically onto the root, in at most 6 steps.  A step that leaves the
    bracket of the root bisects it instead.
    """
    kn = h.knots[knot_idx]
    w = h.blend_widths[knot_idx]
    rs = np.linspace(kn - w, kn + w, samples + 2)[1:-1]
    slopes_w = C * h.slope(rs)
    cap = slope_cap if slope_cap is not None else np.inf
    radii = [rs[slopes_w <= cap + 1e-12]]
    if spectrum_w is not None:
        t = np.asarray(spectrum_w.periods, dtype=float)
        t = t[(slopes_w.min() < t) & (t < slopes_w.max())]
        s0, s1 = h.slopes[knot_idx], h.slopes[knot_idx + 1]
        y = (t / C - s0) / (s1 - s0)
        flip = y > 0.5
        y = np.where(flip, 1.0 - y, y)  # exact for y in [1/2, 1]
        lo, hi = np.zeros(t.size), np.cbrt(y / 4.0)
        v = hi
        for _ in range(BLEND_STEPS):
            f = smoothstep(v) - y
            lo, hi = np.where(f < 0, v, lo), np.where(f < 0, hi, v)
            new = v - f / (30.0 * (v * (1.0 - v)) ** 2)
            new = np.where((lo <= new) & (new <= hi), new, 0.5 * (lo + hi))
            step, v = np.abs(new - v), new
            if np.all(step <= BLEND_TOL):
                break
        radii.append(kn - w + 2.0 * w * np.where(flip, 1.0 - v, v))
    return np.sort(np.concatenate(radii))


def verify_action_signs(
    h: RadialProfile,
    spectrum_w: Optional[SpectrumSet] = None,
    spectrum_outer: Optional[SpectrumSet] = None,
    samples_per_blend: int = 100,
) -> ActionSignReport:
    """Check the five-region action ledger of a transfer profile.

    Items: (a) constant chords in the well have action +eps_n exactly;
    (b) chords on the inner climb-on blend have positive action; (c) chords on
    the climb-off blend (slopes at most a_n - delta_n, the only slopes the
    spectrum reaches) have negative action, below the bound
    -delta_n r_n + a_n + a_n eps_n + eps_n < 0; (d) constant chords on the
    plateau have action -A_n; (e) chords on the outer blend and beyond have
    negative action, below a_n (2 - r_n)/2 + eps_n < 0.
    """
    meta = h.metadata
    for key in ("a_n", "eps_n", "r_n", "A_n", "C", "delta_n"):
        if key not in meta:
            raise ProfileConstraintError(f"profile metadata missing {key!r}")
    a, eps, r_n, A_n, C, delta = (
        meta["a_n"], meta["eps_n"], meta["r_n"], meta["A_n"], meta["C"],
        meta["delta_n"],
    )
    items: List[ActionItem] = []

    # (a) constant well
    r_a = 0.5 * h.knots[0]
    act_a = radial_action(h, r_a)
    ok_a = abs(act_a - eps) < 1e-12 and act_a > 0
    items.append(ActionItem("a", ok_a, "+eps_n", act_a, act_a,
                            act_a, r_a, 1))

    # (b) inner climb-on blend: positive actions
    radii_b = _blend_chord_radii(h, 0, spectrum_w, C, samples=samples_per_blend)
    acts_b = radial_action(h, radii_b)
    ok_b = bool(np.all(acts_b > 0))
    items.append(ActionItem("b", ok_b, "+", float(acts_b.min()),
                            float(acts_b.max()), float(acts_b.min()),
                            float(radii_b[np.argmin(acts_b)]), len(radii_b)))

    # (c) climb-off blend, restricted to chord-reachable slopes
    bound_c = -delta * r_n + a + a * eps + eps
    radii_c = _blend_chord_radii(h, 1, spectrum_w, C,
                                 slope_cap=a - delta, samples=samples_per_blend)
    acts_c = radial_action(h, radii_c)
    ok_c = bool(np.all(acts_c < 0) and np.all(acts_c <= bound_c + 1e-9) and bound_c < 0)
    items.append(ActionItem("c", ok_c, "-", float(acts_c.min()),
                            float(acts_c.max()), float(-acts_c.max()),
                            float(radii_c[np.argmax(acts_c)]), len(radii_c),
                            chain_bound=bound_c))

    # (d) plateau
    r_d = 0.5 * (h.knots[1] + h.blend_widths[1] + h.knots[2] - h.blend_widths[2])
    act_d = radial_action(h, r_d)
    ok_d = abs(act_d + A_n) < 1e-9 and act_d < 0
    items.append(ActionItem("d", ok_d, "-A_n", act_d, act_d, -act_d, r_d, 1))

    # (e) outer blend and the outer line itself
    bound_e = 0.5 * a * (2.0 - r_n) + eps
    radii_e = np.append(_blend_chord_radii(h, 2, spectrum_outer, 1.0,
                                           samples=samples_per_blend),
                        h.max_breakpoint() * 2.0)  # pure outer line
    acts_e = radial_action(h, radii_e)
    ok_e = bool(np.all(acts_e < 0) and np.all(acts_e <= bound_e + 1e-9) and bound_e < 0)
    items.append(ActionItem("e", ok_e, "-", float(acts_e.min()),
                            float(acts_e.max()), float(-acts_e.max()),
                            float(radii_e[int(np.argmax(acts_e))]), len(radii_e),
                            chain_bound=bound_e))

    return ActionSignReport(items)


@dataclass
class MonotoneReport:
    passed: bool
    min_gap: float
    witness_r: float
    checkpoint_r: float
    checkpoint_gap: float

    def to_json(self) -> dict:
        return {
            "schema": "v1",
            "pass": self.passed,
            "min_gap": self.min_gap,
            "witness_r": self.witness_r,
            "checkpoint": {"r": self.checkpoint_r, "gap": self.checkpoint_gap},
        }


def verify_monotone(h1: RadialProfile, h2: RadialProfile,
                    grid: int = 10_000, r_max: Optional[float] = None) -> MonotoneReport:
    """Grid check that h2 >= h1 - 1e-12 everywhere, plus the critical radius.

    Both profiles extend linearly beyond their last breakpoint, so the common
    domain is [0, r_max].  The critical radius is r = 2 C r_{n+1} taken from
    h2's metadata, where the two outer climbs come closest.
    """
    if r_max is None:
        r_max = 1.5 * max(h1.max_breakpoint(), h2.max_breakpoint())
    rs = np.linspace(0.0, r_max, grid)
    d = np.asarray(h2.value(rs)) - np.asarray(h1.value(rs))
    i = int(np.argmin(d))
    min_gap = float(d[i])
    meta = h2.metadata
    if "r_n" in meta and "C" in meta:
        r_star = 2.0 * meta["C"] * meta["r_n"]
    else:
        r_star = r_max / 2.0
    gap_star = float(h2.value(r_star) - h1.value(r_star))
    passed = bool(min_gap >= -1e-12 and gap_star >= -1e-12)
    return MonotoneReport(passed, min_gap, float(rs[i]), r_star, gap_star)


def monotone_homotopy_check(a_minus: float, a_plus: float, beta=None) -> dict:
    """Slope-monotone interpolation test: passes iff a_minus >= a_plus.

    With a nondecreasing cutoff beta, the interpolated slope
    (1 - beta(s)) a_minus + beta(s) a_plus has s-derivative
    beta'(s) (a_plus - a_minus) <= 0 identically, which is exactly the sign
    hypothesis the verification needs; the check is symbolic in the signs.
    """
    if beta is not None:
        ss = np.linspace(0.0, 1.0, 513)
        vals = np.asarray([beta(float(s)) for s in ss])
        if np.any(np.diff(vals) < -1e-12):
            return {"pass": False, "reason": "cutoff is not monotone"}
    ok = a_minus >= a_plus
    return {
        "pass": bool(ok),
        "reason": "beta'(s) (a_plus - a_minus) <= 0 holds identically"
        if ok
        else "a_minus < a_plus flips the interpolation sign",
    }


# ---------------------------------------------------------------------------
# Interpolation cutoff with a derivative envelope
# ---------------------------------------------------------------------------


@dataclass
class InterpolationBeta:
    """A monotone cutoff beta with beta(r)=0 for r <= 1-eps, beta(r)=1 for
    r >= 1, and 0 <= beta'(r) <= delta / (rho * reeb_norm * (1-r)) inside.

    The derivative is a windowed multiple of the envelope expressed in the
    logarithmic variable v = log(eps/(1-r)), where the envelope integral is
    linear; normalization to unit integral is exact by construction.
    """

    eps: float
    delta: float
    rho: float
    reeb_norm: float
    plateau: float
    ramp: float
    flat: float
    grid_r: np.ndarray
    grid_beta: np.ndarray

    def _w_integral(self, v):
        """Integral of the window from 0 to v (window height = plateau)."""
        a, L, g = self.ramp, self.flat, self.plateau
        v = np.asarray(v, dtype=float)
        up = g * a * smoothstep_integral(np.clip(v / a, 0, 1))
        mid = g * np.clip(v - a, 0, L)
        u2 = np.clip((v - a - L) / a, 0, 1)
        down = g * a * (u2 - smoothstep_integral(u2))
        return up + mid + down

    def _window(self, v):
        a, L, g = self.ramp, self.flat, self.plateau
        v = np.asarray(v, dtype=float)
        out = np.where(
            v <= a, g * smoothstep(v / a),
            np.where(v <= a + L, g, g * (1.0 - smoothstep((v - a - L) / a))),
        )
        return np.where((v < 0) | (v > 2 * a + L), 0.0, out)

    def _gap(self, r):
        """(outside, gap): gap = 1 - r where 1-eps < r < 1, and eps outside,
        so that v = log(eps/gap) is finite everywhere (0 outside, where the
        caller discards it). NaN radii are not outside and stay NaN."""
        outside = (r <= 1.0 - self.eps) | (r >= 1.0)
        return outside, np.where(outside, self.eps, 1.0 - r)

    def beta(self, r):
        r = np.asarray(r, dtype=float)
        scale = self.delta / (self.rho * self.reeb_norm)
        _, gap = self._gap(r)
        inner = scale * self._w_integral(np.log(self.eps / gap))
        out = np.where(r <= 1.0 - self.eps, 0.0, np.where(r >= 1.0, 1.0, inner))
        return out if out.ndim else float(out)

    __call__ = beta

    def beta_prime(self, r):
        r = np.asarray(r, dtype=float)
        scale = self.delta / (self.rho * self.reeb_norm)
        outside, gap = self._gap(r)
        dens = scale * self._window(np.log(self.eps / gap)) / gap
        out = np.where(outside, 0.0, dens)
        return out if out.ndim else float(out)

    def envelope(self, r):
        r = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore"):
            return self.delta / (self.rho * self.reeb_norm * (1.0 - r))

    def validate(self) -> dict:
        rs = self.grid_r
        interior = (rs > 1.0 - self.eps) & (rs < 1.0)
        bp = self.beta_prime(rs[interior])
        env = self.envelope(rs[interior])
        margin = float(np.min(env / np.maximum(bp, 1e-300)))
        vals = self.beta(rs)
        monotone = bool(np.all(np.diff(vals) >= -1e-15))
        return {
            "knot_left": float(self.beta(1.0 - self.eps)),
            "knot_right": float(self.beta(1.0)),
            "monotone": monotone,
            "envelope_ok": bool(np.all(bp <= env * (1 + 1e-12))),
            "envelope_margin": margin,
        }

    def to_json(self) -> dict:
        return {
            "schema": "v1",
            "eps": self.eps,
            "delta": self.delta,
            "rho": self.rho,
            "reeb_norm": self.reeb_norm,
            "plateau": self.plateau,
            "checks": self.validate(),
            "samples": {
                "r": self.grid_r.tolist(),
                "beta": self.grid_beta.tolist(),
            },
        }


def build_beta(eps: float, delta: float, rho: float, reeb_norm: float,
               grid: int = 10_000, plateau: float = 0.95) -> InterpolationBeta:
    """Construct the interpolation cutoff.

    In v = log(eps/(1-r)) the envelope integral is linear, so the unit-mass
    requirement fixes the window length: with ramp a and flat part L,
    plateau * (a + L) = rho * reeb_norm / delta.  Feasibility always holds
    because the envelope integral diverges at r = 1.
    """
    if not all(0 < v < math.inf for v in (eps, delta, rho, reeb_norm)):
        raise DimensionMismatchError("all cutoff parameters must be positive and finite")
    if not (0 < plateau < 1):
        raise DimensionMismatchError("plateau must lie strictly inside (0, 1)")
    i_req = rho * reeb_norm / delta
    a = min(1.0, i_req / (2.0 * plateau))
    flat = i_req / plateau - a
    rs = np.linspace(1.0 - eps, 1.0, grid + 1)
    b = InterpolationBeta(
        eps=eps, delta=delta, rho=rho, reeb_norm=reeb_norm,
        plateau=plateau, ramp=a, flat=flat,
        grid_r=rs, grid_beta=np.zeros(grid + 1),
    )
    b.grid_beta = np.asarray(b.beta(rs), dtype=float)
    return b
