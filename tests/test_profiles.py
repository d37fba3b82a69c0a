import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from maslovkit import profiles
from maslovkit.errors import DimensionMismatchError, ProfileConstraintError, SpectrumSearchError
from maslovkit.handle import smoothstep, smoothstep_integral
from maslovkit.profiles import (
    RadialProfile,
    SpectrumSet,
    TransferSchedule,
    build_beta,
    build_transfer_family,
    build_transfer_profile,
    choose_slopes,
    radial_action,
    verify_action_signs,
    verify_monotone,
)

SPECTRUM = SpectrumSet.of([math.pi, 2 * math.pi, 3 * math.pi])


class TestRadialAction:
    def test_linear_segment_minus_intercept(self):
        # h(r) = a r + b has constant action -b: the tangent line is the
        # segment itself
        a, b = 2.5, -0.7
        h = RadialProfile(knots=[0.5], slopes=[a, a], anchor=(0.0, b), blend_widths=[0.1])
        for r in (0.2, 1.0, 3.0):
            assert radial_action(h, r) == pytest.approx(-b, abs=1e-12)

    def test_constant_well(self):
        eps = 0.25
        h = RadialProfile(knots=[10.0], slopes=[0.0, 1.0], anchor=(0.0, -eps), blend_widths=[1.0])
        assert radial_action(h, 3.0) == pytest.approx(eps, abs=1e-15)

    def test_shifted_line(self):
        # h(r) = a (r - 1 - eps) has intercept -a(1+eps), so action a(1+eps)
        a, eps = 9.0, 0.1
        h = RadialProfile(knots=[100.0], slopes=[a, a], anchor=(0.0, -a * (1 + eps)),
                          blend_widths=[1.0])
        assert radial_action(h, 5.0) == pytest.approx(a * (1 + eps), abs=1e-10)

    def test_zero_blend_width_refused(self):
        # every knot needs a smooth join of positive half-width: a kink (width
        # 0) and a negative width are refused, and the widths have no default
        for widths in ([0.0], [-0.1], [0.2, 0.0]):
            knots, slopes = [1.0, 2.0][:len(widths)], [0.0, 2.0, 1.0][:len(widths) + 1]
            with pytest.raises(DimensionMismatchError, match="positive"):
                RadialProfile(knots, slopes, (0.0, 0.0), widths)
        with pytest.raises(TypeError):
            RadialProfile([1.0], [0.0, 2.0], (0.0, 0.0))

    def test_tangent_line_oracle_straight_segments(self):
        # two-point tangent construction: on a straight segment any two
        # well-separated points give the tangent line exactly, and the action
        # must match minus its intercept to 1e-12
        sched = TransferSchedule.seeded(SPECTRUM, C=2.0, stages=1)
        h = build_transfer_profile(1, SPECTRUM, 2.0, sched)
        rng = np.random.default_rng(4)
        edges = [0.0]
        for kn, w in zip(h.knots, h.blend_widths):
            edges.extend([kn - w, kn + w])
        edges.append(1.3 * h.max_breakpoint())
        segments = list(zip(edges[::2], edges[1::2]))
        for lo, hi in segments:
            width = hi - lo
            for _ in range(50):
                r = float(rng.uniform(lo + 0.05 * width, hi - 0.3 * width))
                r2 = r + 0.2 * width
                slope = (h.value(r2) - h.value(r)) / (r2 - r)
                intercept = h.value(r) - slope * r
                err = abs(radial_action(h, r) + intercept)
                assert err < 1e-12 * max(1.0, abs(intercept))

    def test_tangent_line_oracle_blends(self):
        # inside a smooth join the finite-difference tangent agrees to FD
        # accuracy
        sched = TransferSchedule.seeded(SPECTRUM, C=2.0, stages=1)
        h = build_transfer_profile(1, SPECTRUM, 2.0, sched)
        rng = np.random.default_rng(5)
        def fd_slope(r, d):
            return (h.value(r + d) - h.value(r - d)) / (2 * d)

        for kn, w in zip(h.knots, h.blend_widths):
            for _ in range(30):
                r = float(rng.uniform(kn - 0.9 * w, kn + 0.9 * w))
                d = w / 100.0
                slope = (4 * fd_slope(r, d / 2) - fd_slope(r, d)) / 3.0
                intercept = h.value(r) - slope * r
                assert radial_action(h, r) == pytest.approx(
                    -intercept, abs=1e-4 * max(1.0, abs(intercept))
                )


def _value_probe_profiles():
    sched = TransferSchedule.seeded(SPECTRUM, C=2.0, stages=3)
    family = build_transfer_family(SPECTRUM, 2.0, sched)
    rng = np.random.default_rng(12)
    mixed = []
    for _ in range(4):  # narrow and wide blends, slopes of either sign
        knots = np.cumsum(rng.uniform(1.0, 3.0, 4))
        widths = rng.uniform(0.05, 0.4, 4)
        mixed.append(RadialProfile(knots, rng.normal(scale=3.0, size=5),
                                   (-1.0, float(rng.normal())), widths))
    return family + mixed


class TestProfileValue:
    @pytest.mark.parametrize("h", _value_probe_profiles())
    def test_value_differences_are_slope_integrals(self, h):
        # value is evaluated per blend window; its differences must be the
        # integrals of the slope, taken by adaptive quadrature between
        # consecutive probes, which include every knot and window edge
        edges = np.concatenate([h.knots - h.blend_widths, h.knots, h.knots + h.blend_widths])
        inside = np.concatenate([h.knots + f * h.blend_widths for f in (-0.8, -0.31, 0.5, 0.93)])
        rs = np.unique(np.concatenate([edges, inside, [-2.0, -0.5, 0.0, 2.0 * h.max_breakpoint()]]))
        values = h.value(rs)
        assert np.array_equal(values, [h.value(float(r)) for r in rs])
        scale = max(1.0, float(np.max(np.abs(values))))
        for a, b, va, vb in zip(rs, rs[1:], values, values[1:]):
            want, _ = quad(h.slope, a, b, epsabs=1e-13, epsrel=1e-13)
            assert abs((vb - va) - want) <= 1e-11 * scale, (a, b)
        assert h.value(h.anchor[0]) == pytest.approx(h.anchor[1], abs=1e-14 * scale)


def _per_knot_slope(h, r):
    """The slope by one pass per knot over every radius: the evaluation the
    segment lookup replaced, kept as an independent oracle."""
    rr = np.asarray(r, dtype=float)
    scalar = rr.ndim == 0
    rr = np.atleast_1d(rr)
    out = np.full_like(rr, h.slopes[0])
    for i, (kn, w) in enumerate(zip(h.knots, h.blend_widths)):
        s0, s1 = h.slopes[i], h.slopes[i + 1]
        u = (rr - (kn - w)) / (2 * w)
        out = np.where(rr > kn - w, s0 + (s1 - s0) * smoothstep(u), out)
        out = np.where(rr >= kn + w, s1, out)
    return float(out[0]) if scalar else out


def _per_knot_value(h, r):
    """The value by one pass per knot: each slope change ds at a knot kn
    adds ds 2w smoothstep_integral(u), u = (r - kn + w)/(2w), inside its
    window, ds w right of it, and ds (r - kn - w) where r > kn + w; the
    anchor fixes the constant."""
    def raw(r):
        rr = np.atleast_1d(np.asarray(r, dtype=float))
        out = h.slopes[0] * rr
        for i, (kn, w) in enumerate(zip(h.knots, h.blend_widths)):
            ds = h.slopes[i + 1] - h.slopes[i]
            u = (rr - (kn - w)) / (2 * w)
            inside = (u > 0.0) & (u < 1.0)
            out[u >= 1.0] += ds * w
            out[inside] += ds * 2 * w * smoothstep_integral(u[inside])
            right = rr > kn + w
            out[right] += ds * (rr[right] - kn - w)
        return out

    out = raw(r) + (h.anchor[1] - raw(h.anchor[0])[0])
    return out if np.ndim(r) else float(out[0])


def _random_profiles(count=40):
    """Profiles with 1-5 knots, blends of 5-95 % of their room, slopes of
    either sign, some knots with no slope change, anchors left of the first
    knot."""
    rng = np.random.default_rng(1414)
    out = []
    for _ in range(count):
        m = int(rng.integers(1, 6))
        knots = np.cumsum(rng.uniform(0.2, 2.0, m))
        gaps = np.diff(np.concatenate(([0.0], knots, [knots[-1] + 1.0])))
        room = 0.5 * np.minimum(gaps[:-1], gaps[1:])
        widths = rng.uniform(0.05, 0.95, m) * room
        slopes = rng.normal(scale=3.0, size=m + 1)
        flat = np.flatnonzero(rng.random(m) < 0.15)
        slopes[flat + 1] = slopes[flat]
        out.append(RadialProfile(knots, slopes, (float(rng.uniform(-1.0, 0.0)),
                                                 float(rng.normal())), widths))
    return out


def _lookup_probes(h, rng, side=None):
    """Every knot and window edge, the floats and 1e-14, 3e-14 next to them
    (on the given side only, if one is given), window interiors, radii below
    0 and beyond the last knot; shuffled."""
    edges = np.concatenate([h.knots - h.blend_widths, h.knots, h.knots + h.blend_widths])
    signs = {"left": (-1.0,), "right": (1.0,), None: (-1.0, 1.0)}[side]
    near = [np.nextafter(edges, sg * np.inf) for sg in signs]
    near += [edges + sg * d for sg in signs for d in (1e-14, 3e-14)]
    inside = [h.knots + f * h.blend_widths for f in (-0.999, -0.5, 0.01, 0.7)]
    spread = rng.uniform(-2.0, h.knots[-1] + 3.0, 60)
    far = [-50.0, -1e-300, 0.0, 10.0 * (h.knots[-1] + 1.0)]
    return rng.permutation(np.concatenate([edges, *near, *inside, spread, far]))


def _term_scale(h, r):
    """1 + |r| max|s| + sum |ds k| + |anchor value|: a bound on the linear
    terms the value sums."""
    return (1.0 + np.abs(r) * np.abs(h.slopes).max()
            + np.abs(np.diff(h.slopes) * h.knots).sum() + abs(h.anchor[1]))


class TestLookupOracle:
    """The segment lookup against the per-knot passes it replaced."""

    PROFILES = _random_profiles()

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_sided_slope_is_bitwise_equal(self, side):
        # every knot and window edge approached from one side: the lookup
        # must pick the same segment as the per-knot passes on either side
        rng = np.random.default_rng(21)
        for h in self.PROFILES:
            rs = _lookup_probes(h, rng, side)
            assert h.slope(rs).tobytes() == _per_knot_slope(h, rs).tobytes()
            for r in rs[:25]:
                got = h.slope(float(r))
                assert isinstance(got, float) and got == _per_knot_slope(h, float(r))

    def test_value_matches_per_knot_passes(self):
        # both routes sum linear terms of the size of |s r| and |sum ds k|
        # and round there: where those cancel to a value near 0 they differ
        # by up to 1.5e-14 |value| on these probes, but by at most 4.4e-16
        # of the term scale
        rng = np.random.default_rng(23)
        for h in self.PROFILES:
            rs = _lookup_probes(h, rng)
            got, want = h.value(rs), _per_knot_value(h, rs)
            assert np.all(np.abs(got - want) <= 1e-14 * _term_scale(h, rs))
            for r in rs[:25]:
                v = h.value(float(r))
                assert isinstance(v, float)
                assert abs(v - _per_knot_value(h, float(r))) <= 1e-14 * _term_scale(h, r)

    def test_radial_action_matches_per_knot_passes(self):
        rng = np.random.default_rng(24)
        for h in self.PROFILES:
            rs = _lookup_probes(h, rng)
            want = rs * _per_knot_slope(h, rs) - _per_knot_value(h, rs)
            got = radial_action(h, rs)
            assert np.all(np.abs(got - want) <= 2e-14 * _term_scale(h, rs))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_radii_refused(self, bad):
        h = self.PROFILES[0]
        for r in (bad, np.array([1.0, bad]), [[0.5], [bad]]):
            for call in (h.value, h.slope, lambda r: radial_action(h, r)):
                with pytest.raises(DimensionMismatchError, match="finite"):
                    call(r)

    @pytest.mark.parametrize("field", ["knots", "slopes", "widths", "anchor_r", "anchor_value"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_profile_refused(self, field, bad):
        args = {"knots": [1.0, 2.0], "slopes": [0.0, 1.0, 0.5], "widths": [0.1, 0.2],
                "anchor_r": 0.0, "anchor_value": -0.1}
        if field in ("knots", "slopes", "widths"):
            args[field] = list(args[field])
            args[field][-1] = bad
        else:
            args[field] = bad
        with pytest.raises(DimensionMismatchError, match="finite"):
            RadialProfile(args["knots"], args["slopes"],
                          (args["anchor_r"], args["anchor_value"]), args["widths"])


class TestChooseSlopes:
    def test_reference_case(self):
        slopes, deltas = choose_slopes(SPECTRUM, 1, 8.0, C=2.0)
        assert slopes == [9.0]
        assert deltas[0] == pytest.approx(abs(9.0 - 3 * math.pi), abs=1e-13)

    def test_empty_spectrum_arithmetic(self):
        slopes, _ = choose_slopes(SpectrumSet.of([]), 4, 2.0)
        assert slopes == [3.0, 4.0, 5.0, 6.0]

    @pytest.mark.parametrize("periods", [[1.0, math.nan], [math.inf], [-math.inf, 2.0]])
    def test_non_finite_periods_rejected(self, periods):
        with pytest.raises(DimensionMismatchError, match="positive and finite"):
            SpectrumSet.of(periods)

    @pytest.mark.parametrize("lower", [math.nan, math.inf])
    def test_non_finite_lower_bound_rejected(self, lower):
        with pytest.raises(SpectrumSearchError, match="positive and finite"):
            choose_slopes(SPECTRUM, 1, lower)

    def test_exact_member_skipped(self):
        slopes, _ = choose_slopes(SpectrumSet.of([3.0]), 1, 2.0)
        assert slopes == [4.0]

    def test_outer_spectrum_checked(self):
        # candidate 9 is far from the period 2.25, but 9/(4C) = 2.25 for C = 1
        slopes, _ = choose_slopes(SpectrumSet.of([2.25]), 1, 8.0, C=1.0)
        assert slopes == [10.0]

    def test_dense_spectrum_errors(self, monkeypatch):
        monkeypatch.setattr(profiles, "SLOPE_GAP", 0.4)
        monkeypatch.setattr(profiles, "MAX_SCAN", 100)
        dense = SpectrumSet.of(np.arange(0.5, 2000, 0.5))
        with pytest.raises(SpectrumSearchError):
            choose_slopes(dense, 1, 8.0)


class TestBuildTransferProfile:
    def test_reference_stage_geometry(self):
        sched = TransferSchedule.seeded(SPECTRUM, C=2.0, stages=1)
        h = build_transfer_profile(1, SPECTRUM, 2.0, sched)
        md = h.metadata
        assert md["a_n"] == 9.0 and md["eps_n"] == 0.1
        # the bound (a + eps + eps a)/delta ~ 23.54 forces r_1 = 24
        assert md["r_n"] == 24.0
        assert md["A_n"] == pytest.approx(9.0 * 23 - 0.05)
        lo, hi = 9.0 * 23 - 0.1, 9.0 * 23
        assert lo < md["A_n"] < hi

    def test_eps_bound_error(self):
        sched = TransferSchedule(eps=(0.6,), slopes=(9.0,))
        with pytest.raises(ProfileConstraintError, match="T_min"):
            build_transfer_profile(1, SpectrumSet.of([1.0]), 2.0, sched)

    def test_seeded_needs_a_stage(self):
        for stages in (0, -1):
            with pytest.raises(ProfileConstraintError, match="at least one stage"):
                TransferSchedule.seeded(SPECTRUM, C=2.0, stages=stages)

    def test_slope_bound_error(self):
        sched = TransferSchedule(eps=(0.1,), slopes=(7.0,))
        with pytest.raises(ProfileConstraintError, match="4C"):
            build_transfer_profile(1, SPECTRUM, 2.0, sched)

    def test_eps_not_decreasing_error(self):
        sched = TransferSchedule(eps=(0.1, 0.2), slopes=(9.0, 10.0))
        with pytest.raises(ProfileConstraintError, match="decreasing"):
            build_transfer_profile(2, SPECTRUM, 2.0, sched)

    def test_derived_r_and_a_satisfy_their_bounds(self):
        # r_n above its bound and above r_{n-1}; A_n inside its interval
        for T, C in [(math.pi, 2.0), (1.0, 1.0), (2.5, 3.5)]:
            spec = SpectrumSet.of([T, 2 * T, 3 * T])
            family = build_transfer_family(spec, C, TransferSchedule.seeded(spec, C, 4))
            r_prev = 0.0
            for h in family:
                md = h.metadata
                a, eps, r_n, A_n = md["a_n"], md["eps_n"], md["r_n"], md["A_n"]
                assert r_n > max(2 + 2 * eps / a, (a + eps + eps * a) / md["delta_n"], r_prev)
                assert a * (r_n - 1) - eps < A_n < a * (r_n - 1)
                r_prev = r_n

    def test_seeded_eps_halve_past_the_float_exponent(self):
        # EPS0 * 0.5^i is EPS0 / 2^i bit for bit while 2^i is a float, and
        # carries on (down to 0) past 2^1023, where EPS0 / 2^i overflows
        eps = TransferSchedule.seeded(SPECTRUM, C=2.0, stages=1100).eps
        assert eps[:1024] == tuple(profiles.EPS0 / 2**i for i in range(1024))
        assert eps[-1] == 0.0 and all(e2 <= e1 for e1, e2 in zip(eps, eps[1:]))

    def test_slope_bounds_by_construction(self):
        sched = TransferSchedule.seeded(SPECTRUM, C=2.0, stages=2)
        for h in build_transfer_family(SPECTRUM, 2.0, sched):
            a, c = h.metadata["a_n"], h.metadata["C"]
            rs = np.linspace(0.0, 1.2 * h.max_breakpoint(), 20001)
            slopes = np.asarray(h.slope(rs))
            inner = rs <= h.knots[1] + h.blend_widths[1]
            assert np.all(slopes >= -1e-15)
            assert np.all(slopes[inner] * c <= a + 1e-12)
            assert np.all(slopes[~inner] <= a / (4 * c) + 1e-12)


class TestActionSigns:
    def test_ledger_items_and_signs(self):
        sched = TransferSchedule.seeded(SPECTRUM, C=2.0, stages=1)
        h = build_transfer_profile(1, SPECTRUM, 2.0, sched)
        rep = verify_action_signs(h, spectrum_w=SPECTRUM, spectrum_outer=SPECTRUM)
        assert rep.passed
        by = {i.item: i for i in rep.items}
        eps, a_n = h.metadata["eps_n"], h.metadata["A_n"]
        assert by["a"].action_min == pytest.approx(eps, abs=1e-12)
        assert by["b"].action_min > 0
        assert by["c"].action_max < 0
        assert by["c"].chain_bound < 0
        assert by["c"].action_max <= by["c"].chain_bound + 1e-9
        assert by["d"].action_min == pytest.approx(-a_n, abs=1e-9)
        assert by["e"].action_max < 0

    def test_report_serialization(self):
        sched = TransferSchedule.seeded(SPECTRUM, C=2.0, stages=1)
        h = build_transfer_profile(1, SPECTRUM, 2.0, sched)
        rep = verify_action_signs(h, spectrum_w=SPECTRUM)
        obj = rep.to_json()
        assert obj["pass"] is True and len(obj["items"]) == 5
        assert [i["item"] for i in obj["items"]] == ["a", "b", "c", "d", "e"]


def _scalar_action(h, r):
    """radial_action one radius at a time, through scalar slope and value."""
    acts = [float(x * h.slope(float(x)) - h.value(float(x)))
            for x in np.atleast_1d(r)]
    return np.asarray(acts) if np.ndim(r) else acts[0]


def _scalar_blend_radii(h, knot_idx, spectrum_w, C, slope_cap=None, samples=100):
    """_blend_chord_radii with one slope call per radius and one 80-step
    bisection in r per period, through the public `slope`."""
    kn, w = h.knots[knot_idx], h.blend_widths[knot_idx]
    rs = np.linspace(kn - w, kn + w, samples + 2)[1:-1]
    slopes_w = C * np.asarray([h.slope(float(r)) for r in rs])
    cap = slope_cap if slope_cap is not None else np.inf
    radii = list(rs[slopes_w <= cap + 1e-12])
    for t in (spectrum_w.periods if spectrum_w is not None else ()):
        if slopes_w.min() < t < slopes_w.max():
            a_, b_ = kn - w, kn + w
            increasing = h.slope(a_) * C < h.slope(b_) * C
            for _ in range(80):
                m = 0.5 * (a_ + b_)
                if (C * h.slope(m) < t) == increasing:
                    a_ = m
                else:
                    b_ = m
            radii.append(0.5 * (a_ + b_))
    return np.asarray(sorted(radii))


def _ledger_cases():
    """(profile, spectrum, samples per blend): last stages of three families,
    and the first profile with no spectrum."""
    cases = []
    for T, C, stages, keep, samples in [(math.pi, 2.0, 3, 3, 100),
                                        (1.0, 1.0, 6, 1, 37),
                                        (2.5, 3.5, 3, 1, 100)]:
        spec = SpectrumSet.of([T, 2 * T, 3 * T])
        sched = TransferSchedule.seeded(spec, C=C, stages=stages)
        cases += [(h, spec, samples)
                  for h in build_transfer_family(spec, C, sched)[-keep:]]
    return cases + [(cases[0][0], None, 100)]


class TestLedgerArrays:
    def test_ledger_matches_scalar_evaluation(self, monkeypatch):
        # the chord radii are the same function in both runs; only the
        # actions switch to one radius at a time
        cases = _ledger_cases()
        got = []
        for h, s, n in cases:
            monkeypatch.setattr(profiles, "BLEND_SAMPLES", n)
            got.append(verify_action_signs(h, spectrum_w=s, spectrum_outer=s).to_json())
        monkeypatch.setattr(profiles, "radial_action", _scalar_action)
        for (h, s, n), obj in zip(cases, got):
            monkeypatch.setattr(profiles, "BLEND_SAMPLES", n)
            assert obj == verify_action_signs(h, spectrum_w=s, spectrum_outer=s).to_json()

    def test_chord_radii_match_bisection_in_r(self, monkeypatch):
        # Newton on the smoothstep against bisection of C h'(r) = t in r:
        # per blend the same radii to 2 ulps, and every period the blend's
        # samples reach is hit to 1e-12 t, or, where one ulp of r moves C h'
        # by more than that (up to 1e-9 here), bracketed by C h' at the
        # neighbouring floats of r
        cases = _ledger_cases()
        for T, C in [(1.3, 1.5), (3.7, 2.5)]:
            spec = SpectrumSet.of([T, 2 * T, 3 * T])
            sched = TransferSchedule.seeded(spec, C=C, stages=2)
            cases += [(h, spec, 100) for h in build_transfer_family(spec, C, sched)]
        roots = 0
        for h, spec, n in cases:
            c_n = h.metadata["C"]
            blends = [(0, c_n, None), (1, c_n, h.metadata["a_n"] - h.metadata["delta_n"]),
                      (2, 1.0, None)]
            monkeypatch.setattr(profiles, "BLEND_SAMPLES", n)
            for k, c, cap in blends:
                got = profiles._blend_chord_radii(h, k, spec, c, slope_cap=cap)
                want = _scalar_blend_radii(h, k, spec, c, slope_cap=cap, samples=n)
                assert got.shape == want.shape
                assert np.all(np.abs(got - want) <= 2 * np.spacing(want))
                if spec is None:
                    continue
                kn, w = h.knots[k], h.blend_widths[k]
                reach = c * h.slope(np.linspace(kn - w, kn + w, n + 2)[1:-1])
                for t in spec.periods:
                    if reach.min() < t < reach.max():
                        r = got[np.argmin(np.abs(c * h.slope(got) - t))]
                        below, above = c * h.slope(np.nextafter(r, [-np.inf, np.inf])) - t
                        assert abs(c * h.slope(r) - t) <= 1e-12 * t or below * above <= 0
                        roots += 1
        assert roots >= 10

    def test_radial_action_arrays(self):
        h = RadialProfile([1.0, 2.0], [0.0, 2.0, 0.5], (0.0, -0.1), [0.2, 0.1])
        rs = np.linspace(0.0, 3.0, 301)
        assert radial_action(h, rs).tolist() == _scalar_action(h, rs).tolist()
        assert isinstance(radial_action(h, 1.5), float)


class TestMonotone:
    def test_equal_profiles_pass_with_zero_gap(self):
        sched = TransferSchedule.seeded(SPECTRUM, C=2.0, stages=1)
        h = build_transfer_profile(1, SPECTRUM, 2.0, sched)
        rep = verify_monotone(h, h)
        assert rep.passed and rep.min_gap == pytest.approx(0.0, abs=1e-15)
        assert rep.witness_r == 0.0  # a tie keeps the first grid point

    def test_dip_between_grid_points_is_seen(self):
        # h2 - h1 is a V of depth 1e-6 and width 2e-6, its joins 2e-12 wide,
        # that starts 1e-7 right of a grid point, so no grid point sees it;
        # the middle of the window at its tip does
        h1 = RadialProfile([1.0], [0.0, 0.0], (0.0, 0.0), [0.1])
        grid = np.linspace(0.0, 1.5, 10_000)
        a = grid[3333] + 1e-7
        h2 = RadialProfile([a, a + 1e-6, a + 2e-6], [0.0, -1.0, 1.0, 0.0], (0.0, 0.0),
                           [1e-12] * 3)
        assert np.min(h2.value(grid)) > -1e-15
        rep = verify_monotone(h1, h2)
        assert not rep.passed
        assert rep.min_gap == pytest.approx(-1e-6, rel=1e-6)
        assert rep.witness_r == pytest.approx(a + 1e-6, abs=1e-12)

    def test_dip_inside_a_window_is_seen(self):
        # the same V with its three knots blended over 4e-7: the tip lies in a
        # window, and the window's middle sees it within 2e-7
        h1 = RadialProfile([1.0], [0.0, 0.0], (0.0, 0.0), [0.1])
        a = np.linspace(0.0, 1.5, 10_000)[3333] + 1e-6
        h2 = RadialProfile([a, a + 1e-6, a + 2e-6], [0.0, -1.0, 1.0, 0.0], (0.0, 0.0),
                           [4e-7] * 3)
        rep = verify_monotone(h1, h2)
        assert not rep.passed and -1e-6 < rep.min_gap < -8e-7

    def test_consecutive_stages_pass(self):
        fam = build_transfer_family(SPECTRUM, 2.0,
                                    TransferSchedule.seeded(SPECTRUM, 2.0, 3))
        for h1, h2 in zip(fam, fam[1:]):
            rep = verify_monotone(h1, h2)
            assert rep.passed and rep.checkpoint_gap > 0
            r_star = 2.0 * h2.metadata["C"] * h2.metadata["r_n"]
            assert rep.checkpoint_r == pytest.approx(r_star)

    def test_swapped_order_fails_with_witness(self):
        fam = build_transfer_family(SPECTRUM, 2.0,
                                    TransferSchedule.seeded(SPECTRUM, 2.0, 2))
        rep = verify_monotone(fam[1], fam[0])
        assert not rep.passed and rep.min_gap < 0
        # the witness radius exhibits the violation h2 < h1
        assert fam[0].value(rep.witness_r) < fam[1].value(rep.witness_r)


class TestBeta:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_parameters_rejected(self, bad):
        for i in range(4):
            args = [0.1, 0.01, 1.0, 1.0]
            args[i] = bad
            with pytest.raises(DimensionMismatchError, match="positive and finite"):
                build_beta(*args)

    def test_knots_exact(self):
        b = build_beta(0.1, 0.01, 1.0, 1.0)
        assert b.beta(1.0 - 0.1) == 0.0
        assert b.beta(1.0) == 1.0
        assert b.beta(0.5) == 0.0 and b.beta(2.0) == 1.0

    def test_envelope_strict_inside(self):
        b = build_beta(0.1, 0.01, 1.0, 1.0)
        checks = b.validate()
        assert checks["envelope_ok"] and checks["envelope_margin"] > 1.0

    def test_monotone(self):
        b = build_beta(0.2, 0.5, 2.0, 3.0)
        rs = np.linspace(0.7, 1.1, 4001)
        vals = np.asarray(b.beta(rs))
        assert np.all(np.diff(vals) >= -1e-15)
        assert np.all(np.asarray(b.beta_prime(rs)) >= 0.0)

    def test_easy_envelope_regime(self):
        # large delta: the window is short and fits well under the envelope
        b = build_beta(0.1, 5.0, 1.0, 1.0)
        checks = b.validate()
        assert checks["envelope_ok"] and checks["knot_right"] == 1.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_grid_without_an_interior_radius_rejected(self):
        for grid in (-1, 0, 1):
            with pytest.raises(DimensionMismatchError, match="grid"):
                build_beta(0.1, 0.01, 1.0, 1.0, grid=grid)
        assert build_beta(0.1, 0.01, 1.0, 1.0, grid=2).validate()["envelope_ok"]

    def test_json_includes_samples(self):
        b = build_beta(0.1, 0.01, 1.0, 1.0, grid=100)
        obj = b.to_json()
        assert obj["schema"] == "v1"
        assert len(obj["samples"]["r"]) == 101


def test_profile_json_roundtrip():
    sched = TransferSchedule.seeded(SPECTRUM, C=2.0, stages=1)
    h = build_transfer_profile(1, SPECTRUM, 2.0, sched)
    # the JSON holds what the constructor takes
    obj = json.loads(json.dumps(h.to_json()))
    h2 = RadialProfile(obj["knots"], obj["slopes"], obj["anchor"], obj["blend_widths"],
                       obj["metadata"])
    rs = np.linspace(0, h.max_breakpoint(), 500)
    assert np.allclose(np.asarray(h.value(rs)), np.asarray(h2.value(rs)), atol=1e-12)
    assert h2.metadata["r_n"] == h.metadata["r_n"]
