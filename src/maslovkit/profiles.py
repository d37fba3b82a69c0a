"""Radial Hamiltonian profiles and their action ledger.

A `RadialProfile` is a piecewise-C^1 function of one radial coordinate,
realized as a piecewise-constant slope with optional quintic-smoothstep
joins at the knots.  Because the blended slope interpolates the two adjacent
constant slopes symmetrically, the blended profile coincides exactly with the
max-of-segments construction outside every blend window, and all slope
bounds hold segmentwise by construction.  Between windows the profile is
s_j r + c_j, with intercepts c_j fixed at construction; evaluation looks each
radius up by `searchsorted` and runs the smoothstep only inside a window.

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



class RadialProfile:
    """Piecewise slope profile with C^1 smoothstep joins, evaluated by lookup.

    The window edges L = knots - w and R = knots + w cut the line into linear
    segments, segment j from R_{j-1} to L_j, and open windows (L_j, R_j).  On
    segment j the profile is s_j r + c_j plus the anchor offset, with the
    intercepts c_j = -sum_{i<j} (s_{i+1} - s_i) k_i fixed at construction.
    Each call takes one `searchsorted` on R for the segments and one on L for
    the window interiors, where alone the smoothstep runs, for its own knot.

    Args:
        knots: strictly increasing radii where the slope changes.
        slopes: len(knots)+1 slope values; slopes[i] holds left of knots[i].
        anchor: (r, value) pinning the function; r must sit outside every
            blend window.
        blend_widths: per-knot half-widths of the smoothing window (0 keeps a
            genuine kink there).
        metadata: free-form dict (a_n, eps_n, r_n, A_n, C, ...).

    Non-finite knots, slopes, widths, anchor or radii raise
    `DimensionMismatchError`.
    """

    def __init__(self, knots, slopes, anchor, blend_widths=None, metadata=None):
        self.knots = np.asarray(knots, dtype=float)
        self.slopes = np.asarray(slopes, dtype=float)
        if blend_widths is None:
            blend_widths = np.zeros(len(self.knots))
        self.blend_widths = w = np.asarray(blend_widths, dtype=float)
        self.anchor = (float(anchor[0]), float(anchor[1]))
        if len(self.slopes) != len(self.knots) + 1 or w.shape != self.knots.shape:
            raise DimensionMismatchError("need len(slopes) - 1 == len(knots) == len(blend_widths)")
        if not np.isfinite(np.concatenate((self.knots, self.slopes, w, self.anchor))).all():
            raise DimensionMismatchError("knots, slopes, blend widths and anchor must be finite")
        if (self.knots[1:] <= self.knots[:-1]).any():
            raise DimensionMismatchError("knots must be strictly increasing")
        if (w < 0).any():
            raise DimensionMismatchError("blend widths must be nonnegative")
        self._left, self._right = self.knots - w, self.knots + w
        if (self._right[:-1] > self._left[1:]).any():
            raise DimensionMismatchError("blend windows overlap")
        # for side='left', a kink's edge one ulp up keeps the kink on its left segment
        self._right_of_kinks = np.where(w == 0.0, np.nextafter(self.knots, np.inf), self._right)
        self._ds = self.slopes[1:] - self.slopes[:-1]
        self._intercepts = -np.concatenate(([0.0], np.cumsum(self._ds * self.knots)))
        kinks = np.where((w == 0.0) & (self._ds != 0.0), self.knots, np.nan)
        # the nearest kink left of knot j, and at or right of knot j (+-inf for none)
        self._kinks_around = None if np.isnan(kinks).all() else (
            np.fmax.accumulate(np.concatenate(([-np.inf], kinks))),
            np.fmin.accumulate(np.concatenate((kinks, [np.inf]))[::-1])[::-1])
        self.metadata = dict(metadata or {})
        self._anchor_offset = 0.0
        self._anchor_offset = self.anchor[1] - self.value(self.anchor[0])

    # -- evaluation ----------------------------------------------------------

    def _lookup(self, r, side=None):
        """(rr, j, inside, u): r as an array, the count j of right edges at or
        left of each radius (its segment, or its window if inside), the mask of
        radii strictly inside window j, and their u = (rr - L_j)/(2 w_j).  With
        side None, a radius within 1e-14 of a kink raises."""
        rr = np.atleast_1d(np.asarray(r, dtype=float))
        if not np.isfinite(rr).all():
            raise DimensionMismatchError("radii must be finite")
        j = (self._right_of_kinks if side == "left" else self._right).searchsorted(rr, "right")
        inside = self._left.searchsorted(rr, "left") > j
        if side is None and self._kinks_around is not None:
            # a radius in segment j, or inside window j, lies between knots j - 1 and j + inside
            lo, hi = self._kinks_around
            if ((rr - lo[j] <= 1e-14) | (hi[j + inside] - rr <= 1e-14)).any():
                raise KinkEvaluationError(
                    "slope evaluated within 1e-14 of a kink; pass side='left' or side='right'")
        k = j[inside]
        return rr, j, inside, (rr[inside] - self._left[k]) / (2 * self.blend_widths[k])

    def _slope_at(self, rr, j, inside, u):
        out = self.slopes[j]
        if u.size:
            out[inside] += self._ds[j[inside]] * smoothstep(u)
        return out

    def _value_at(self, rr, j, inside, u):
        out = self.slopes[j] * rr + self._intercepts[j]
        if u.size:
            k = j[inside]
            out[inside] += self._ds[k] * 2 * self.blend_widths[k] * smoothstep_integral(u)
        return out + self._anchor_offset

    def slope(self, r, side: Optional[str] = None):
        """One-sided slope; `side` in {None, 'left', 'right'} (None = two-sided).
        The sides differ only exactly at a kink, not at a window edge."""
        out = self._slope_at(*self._lookup(r, side))
        return out if np.ndim(r) else float(out[0])

    def value(self, r):
        """The profile at r; it is continuous, so a kink needs no side."""
        out = self._value_at(*self._lookup(r, "right"))
        return out if np.ndim(r) else float(out[0])

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


def radial_action(h: RadialProfile, r, side: Optional[str] = None):
    """r h'(r) - h(r), for one radius or an array of them, from one lookup;
    at a kink a side must be selected explicitly."""
    pos = h._lookup(r, side)
    out = pos[0] * h._slope_at(*pos) - h._value_at(*pos)
    return out if np.ndim(r) else float(out[0])


# ---------------------------------------------------------------------------
# Slope selection
# ---------------------------------------------------------------------------


SLOPE_GAP = 1e-3  # least distance of a slope a_n, and of a_n/(4C), to the spectrum
MAX_SCAN = 100_000  # unit steps that `choose_slopes` takes before it gives up


def choose_slopes(spectrum: SpectrumSet, count: int, lower: float, *, C: float = 1.0):
    """Increasing slopes a_1 < a_2 < ... with a_n > lower, scanned in unit
    steps from lower, each at least `SLOPE_GAP` from the spectrum and with
    a_n/(4C) at least `SLOPE_GAP` from it too.

    Returns (slopes, deltas) where deltas[n] is the distance of a_n to the
    spectrum.
    """
    if not 0 < lower < math.inf:
        raise SpectrumSearchError("lower bound must be positive and finite")
    slopes: List[float] = []
    deltas: List[float] = []
    a = lower
    scans = 0
    while len(slopes) < count:
        a = a + 1.0
        scans += 1
        if scans > MAX_SCAN:
            raise SpectrumSearchError(
                f"no admissible slope found within {MAX_SCAN} scan steps; "
                "the spectrum is too dense for the slope gap"
            )
        if spectrum.distance(a) < SLOPE_GAP:
            continue
        if spectrum.distance(a / (4.0 * C)) < SLOPE_GAP:
            continue
        slopes.append(a)
        deltas.append(spectrum.distance(a))
    return slopes, deltas


# ---------------------------------------------------------------------------
# The transfer profile
# ---------------------------------------------------------------------------


EPS0 = 0.1  # eps_1 of a seeded schedule; eps_n = EPS0 / 2^(n-1)


@dataclass(frozen=True)
class TransferSchedule:
    """Per-stage data: decreasing eps_n and increasing slopes a_n.

    `build_transfer_profile` derives r_n and A_n from them: r_n is the
    smallest integer strictly above its lower bound (and above the previous
    stage's r), and A_n is the midpoint of its admissible interval.
    """

    eps: Tuple[float, ...]
    slopes: Tuple[float, ...]

    @staticmethod
    def seeded(spectrum: SpectrumSet, C: float, stages: int) -> "TransferSchedule":
        """eps_n = `EPS0` / 2^(n-1) and the first `stages` slopes of
        `choose_slopes` above 4C."""
        if stages < 1:
            raise ProfileConstraintError(f"need at least one stage, got {stages}")
        slopes, _ = choose_slopes(spectrum, stages, 4.0 * C, C=C)
        eps = tuple(EPS0 / 2**i for i in range(stages))
        return TransferSchedule(eps=eps, slopes=tuple(slopes))


def build_transfer_profile(
    n_index: int,
    spectrum: SpectrumSet,
    C: float,
    schedule: TransferSchedule,
    *,
    r_prev: Optional[float] = None,
) -> RadialProfile:
    """Stage n_index (1-based) of the five-region transfer family.

    Preconditions (violations raise `ProfileConstraintError` naming the
    inequality): eps decreasing with eps_1 < T_min/(1+T_min); a_n > 4C,
    increasing; a_n off the spectrum.  Then r_n is the least integer above
    max(2 + 2 eps_n/a_n, (a_n + eps_n + eps_n a_n)/delta_n) and above r_prev,
    and A_n is the midpoint of (a_n (r_n - 1) - eps_n, a_n (r_n - 1)), so both
    inequalities hold by construction.  Each blend half-width is
    min(eps_n, 0.01) times the shorter neighbouring segment, capped at
    0.4 C eps_n / a_n.
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
    r_n = float(math.floor(r_bound) + 1)
    if r_prev is not None:
        r_n = max(r_n, math.floor(r_prev) + 1.0)

    a_lo, a_hi = a * (r_n - 1.0) - eps, a * (r_n - 1.0)
    A_n = 0.5 * (a_lo + a_hi)

    # knots in the global radial coordinate (r = C * r_W on the inner collar)
    k1 = C * (1.0 + eps * (1.0 - 1.0 / a))          # well meets the inner climb
    k2 = C * (1.0 + eps + A_n / a)                  # inner climb meets the plateau
    k3 = 2.0 * C * r_n - 4.0 * C * (a_hi - A_n) / a # plateau meets the outer climb
    slopes = [0.0, a / C, 0.0, a / (4.0 * C)]

    cap = 0.4 * C * eps / a
    w_scale = min(eps, 0.01)
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


BLEND_TOL = 1e-15  # a chord root v stops once its Newton step is at most this
BLEND_STEPS = 60  # cap on the steps per blend
BLEND_SAMPLES = 100  # evenly spaced radii inside each blend window


def _blend_chord_radii(h: RadialProfile, knot_idx: int, spectrum_w, C, slope_cap=None):
    """Radii inside blend `knot_idx` whose inner slope C*h' is a chord period,
    plus `BLEND_SAMPLES` radii restricted to the band of slopes the spectrum
    reaches.

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
    rs = np.linspace(kn - w, kn + w, BLEND_SAMPLES + 2)[1:-1]
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
) -> ActionSignReport:
    """Check the five-region action ledger of a transfer profile.

    On each blend the radii are `BLEND_SAMPLES` samples and the chords of
    `spectrum_w` (`spectrum_outer` on the outer blend), if given.

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
    radii_b = _blend_chord_radii(h, 0, spectrum_w, C)
    acts_b = radial_action(h, radii_b)
    ok_b = bool(np.all(acts_b > 0))
    items.append(ActionItem("b", ok_b, "+", float(acts_b.min()),
                            float(acts_b.max()), float(acts_b.min()),
                            float(radii_b[np.argmin(acts_b)]), len(radii_b)))

    # (c) climb-off blend, restricted to chord-reachable slopes
    bound_c = -delta * r_n + a + a * eps + eps
    radii_c = _blend_chord_radii(h, 1, spectrum_w, C, slope_cap=a - delta)
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
    radii_e = np.append(_blend_chord_radii(h, 2, spectrum_outer, 1.0),
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


MONOTONE_GRID = 10_000  # evenly spaced radii on which `verify_monotone` compares


def verify_monotone(h1: RadialProfile, h2: RadialProfile) -> MonotoneReport:
    """Check that h2 >= h1 - 1e-12 everywhere, plus the critical radius.

    Both profiles extend linearly beyond their last breakpoint, so the common
    domain is [0, r_max] with r_max 1.5 times the larger last breakpoint.
    h2 - h1 is taken on a grid of `MONOTONE_GRID` points and, after them, at
    both profiles' kinks and window edges and at three points inside each
    window, in [0, r_max]: outside the windows h2 - h1 is linear between these
    points, so a dip narrower than the grid step is still seen.  The first
    minimum is the witness, so a grid point wins a tie.  The critical radius
    is r = 2 C r_{n+1} taken from h2's metadata, where the two outer climbs
    come closest (r_max / 2 without that metadata).
    """
    r_max = 1.5 * max(h1.max_breakpoint(), h2.max_breakpoint())
    extra = np.concatenate([h._left + np.multiply.outer([0.0, 0.25, 0.5, 0.75, 1.0],
                                                        h._right - h._left)
                            for h in (h1, h2)], axis=None)
    rs = np.concatenate([np.linspace(0.0, r_max, MONOTONE_GRID),
                         extra[(extra >= 0.0) & (extra <= r_max)]])
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


# ---------------------------------------------------------------------------
# Interpolation cutoff with a derivative envelope
# ---------------------------------------------------------------------------


BETA_PLATEAU = 0.95  # beta' / envelope on the flat part of the window


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
    ramp: float
    flat: float
    grid_r: np.ndarray
    grid_beta: np.ndarray

    def _w_integral(self, v):
        """Integral of the window from 0 to v (window height = `BETA_PLATEAU`)."""
        a, L, g = self.ramp, self.flat, BETA_PLATEAU
        v = np.asarray(v, dtype=float)
        up = g * a * smoothstep_integral(np.clip(v / a, 0, 1))
        mid = g * np.clip(v - a, 0, L)
        u2 = np.clip((v - a - L) / a, 0, 1)
        down = g * a * (u2 - smoothstep_integral(u2))
        return up + mid + down

    def _window(self, v):
        a, L, g = self.ramp, self.flat, BETA_PLATEAU
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
            "plateau": BETA_PLATEAU,
            "checks": self.validate(),
            "samples": {
                "r": self.grid_r.tolist(),
                "beta": self.grid_beta.tolist(),
            },
        }


def build_beta(eps: float, delta: float, rho: float, reeb_norm: float,
               grid: int = 10_000) -> InterpolationBeta:
    """Construct the interpolation cutoff, sampled on ``grid`` + 1 >= 3 radii.

    In v = log(eps/(1-r)) the envelope integral is linear, so the unit-mass
    requirement fixes the window length: with ramp a and flat part L,
    `BETA_PLATEAU` * (a + L) = rho * reeb_norm / delta.  Feasibility always
    holds because the envelope integral diverges at r = 1.
    """
    if not all(0 < v < math.inf for v in (eps, delta, rho, reeb_norm)):
        raise DimensionMismatchError("all cutoff parameters must be positive and finite")
    if grid < 2:  # validate needs a grid radius strictly inside the window
        raise DimensionMismatchError(f"the cutoff grid needs at least 2 cells, got {grid}")
    i_req = rho * reeb_norm / delta
    a = min(1.0, i_req / (2.0 * BETA_PLATEAU))
    flat = i_req / BETA_PLATEAU - a
    rs = np.linspace(1.0 - eps, 1.0, grid + 1)
    b = InterpolationBeta(
        eps=eps, delta=delta, rho=rho, reeb_norm=reeb_norm,
        ramp=a, flat=flat,
        grid_r=rs, grid_beta=np.zeros(grid + 1),
    )
    b.grid_beta = np.asarray(b.beta(rs), dtype=float)
    return b
