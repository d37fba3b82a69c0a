import math

import numpy as np
import pytest

from maslovkit.errors import (
    DimensionMismatchError,
    IntegrationError,
    NotAChordLevelError,
)
from maslovkit.halfint import HalfInt
from maslovkit.maslov import rs_index
from maslovkit.spectrum import (
    CoefficientProfile,
    _count_block_halves,
    _rk4_blocks,
    agreement_cases,
    chord_levels,
    handle_rs_index,
    handle_rs_index_ode,
    perturbation_cluster_bounds,
    sweep_rows,
)
from maslovkit.symplin import ConstantPath, GeneratorPath, LagrangianFrame

LINEAR = CoefficientProfile.of(1.0, 1.0, [[0.0, 2.0], [1.0, 10.0]])


class TestCoefficientProfile:
    def test_from_handle_params_range(self):
        p = CoefficientProfile.from_handle_params(0.1, 0.05)
        c_lo = 1 + 1.1 / (0.05 * 1.2)
        assert p.cz(0.0) == pytest.approx(c_lo)
        assert p.cz(p.z_max) == pytest.approx(c_lo / 0.1)

    def test_non_monotone_rejected(self):
        with pytest.raises(DimensionMismatchError):
            CoefficientProfile.of(1.0, 1.0, [[0.0, 2.0], [1.0, 2.0]])

    def test_negative_coefficients_rejected(self):
        with pytest.raises(DimensionMismatchError):
            CoefficientProfile.of(-1.0, 1.0, [[0.0, 2.0], [1.0, 3.0]])

    @pytest.mark.parametrize("cx,cy,table", [
        (math.nan, 1.0, [[0.0, 2.0], [1.0, 3.0]]), (1.0, math.inf, [[0.0, 2.0], [1.0, 3.0]]),
        (1.0, 1.0, [[0.0, 2.0], [1.0, math.nan]]), (1.0, 1.0, [[0.0, 2.0], [math.inf, 3.0]])])
    def test_non_finite_coefficients_rejected(self, cx, cy, table):
        with pytest.raises(DimensionMismatchError, match="finite"):
            CoefficientProfile.of(cx, cy, table)


class TestChordLevels:
    def test_linear_table_inversion(self):
        levels = chord_levels(math.pi, LINEAR)
        assert levels[0].is_constant and levels[0].z_level == 0.0
        families = [(c.z_level, c.multiplicity_condition) for c in levels[1:]]
        # Cz = 2m solvable for z>0 at m = 2..5; m = 1 hits Cz(0), the boundary
        # of the constant locus, and is reported as the constant chord only
        assert [m for _, m in families] == [2, 3, 4, 5]
        assert np.allclose([z for z, _ in families], [0.25, 0.5, 0.75, 1.0],
                           atol=1e-10)
        for c in levels:
            c.check(math.pi, LINEAR)

    def test_non_finite_slope_raises(self):
        for a in (math.inf, math.nan, -math.inf):
            with pytest.raises(DimensionMismatchError, match="positive and finite"):
                chord_levels(a, LINEAR)

    def test_small_slope_constant_only(self):
        levels = chord_levels(0.1, LINEAR)
        assert len(levels) == 1 and levels[0].is_constant

    def test_doubling_slope_doubles_families(self):
        base = len(chord_levels(math.pi, LINEAR)) - 1
        doubled = len(chord_levels(2 * math.pi, LINEAR)) - 1
        assert doubled == 2 * base

    def test_count_monotone_in_slope(self):
        counts = [len(chord_levels(a, LINEAR)) for a in np.linspace(0.1, 12, 40)]
        assert all(b >= a for a, b in zip(counts, counts[1:]))


    def test_steep_profiles_levels_check(self):
        # delta = 0.01 makes Cz rise by ~8e4 per unit z: a z bisected to
        # 1e-13 missed a Cz / 2 = m pi by more than the check's 1e-10
        for eps in (0.1, 0.05):
            prof = CoefficientProfile.from_handle_params(eps, 0.01)
            for u in np.linspace(0.2, 0.8, 60):
                z = prof.z_min + u * (prof.z_max - prof.z_min)
                for m in range(1, 5):
                    a = 2.0 * math.pi * m / float(prof.cz(z))
                    levels = chord_levels(a, prof)
                    assert len(levels) > m
                    for c in levels:
                        c.check(a, prof)


class TestClosedForm:
    def test_reference_values(self):
        assert handle_rs_index(3, 1, 1.0, 2 * math.pi) == HalfInt(5)
        assert handle_rs_index(2, 1, 1.0, 4 * math.pi) == HalfInt(5)

    def test_almost_critical_index(self):
        for n in (2, 3, 5):
            assert handle_rs_index(n, n - 1, 1.0, 2 * math.pi) == HalfInt(n + 1)

    def test_not_a_chord_level(self):
        with pytest.raises(NotAChordLevelError):
            handle_rs_index(3, 1, 1.0, 2 * math.pi + 0.1)

    def test_non_finite_angle_is_not_a_chord_level(self):
        for angle in (math.inf, -math.inf, math.nan):
            for route in (handle_rs_index, perturbation_cluster_bounds):
                with pytest.raises(NotAChordLevelError, match="not finite"):
                    route(3, 1, 1.0, angle)

    def test_invalid_range(self):
        with pytest.raises(DimensionMismatchError):
            handle_rs_index(3, 3, 1.0, 2 * math.pi)


class TestOdeRoute:
    def test_agreement_reference_cases(self):
        for (n, k, m) in [(2, 1, 1), (3, 1, 1), (3, 2, 2)]:
            cz = float(LINEAR.cz(0.5))
            a = 2 * math.pi * m / cz
            want = handle_rs_index(n, k, a, cz)
            got, _ = handle_rs_index_ode(n, k, a, LINEAR, 0.5)
            assert got == want

    def test_rotation_block_total(self):
        # k = 1 hyperbolic half plus one full-turn rotation block: 1/2 + 1
        cz = float(LINEAR.cz(0.5))
        got, diag = handle_rs_index_ode(2, 1, 2 * math.pi / cz, LINEAR, 0.5)
        assert got == HalfInt(3)
        kinds = [b["kind"] for b in diag["blocks"]]
        assert kinds == ["hyperbolic", "rotation"]
        assert diag["blocks"][0]["halves"] == 1  # +1/2 per handle plane
        assert diag["blocks"][1]["halves"] == 2  # one full turn

    def test_blocks_sum_to_the_closed_form_on_the_agreement_grid(self):
        # two blocks are integrated and reported n times: one half per
        # handle plane and m full turns per transverse plane
        for n, k, m, _, _, (ode, diag), _ in agreement_cases(n_max=6, m_max=4):
            blocks = diag["blocks"]
            assert [b["kind"] for b in blocks] == ["hyperbolic"] * k + ["rotation"] * (n - k)
            assert [b["halves"] for b in blocks] == [1] * k + [2 * m] * (n - k), (n, k, m)
            assert sum(b["halves"] for b in blocks) == ode.halves == k + 2 * (n - k) * m

    def test_hyperbolic_second_coordinate_grows(self):
        cz = float(LINEAR.cz(0.5))
        _, diag = handle_rs_index_ode(4, 3, 2 * math.pi / cz, LINEAR, 0.5)
        for b in diag["blocks"]:
            if b["kind"] == "hyperbolic":
                assert b["min_y_interior"] > 1.0

    @pytest.mark.parametrize("step", [1e-3, 1e-4])
    def test_richardson_drift_is_the_trajectory_gap(self, step):
        # the step-2h endpoint by squaring equals the end of a whole step-2h
        # trajectory, so the drift is that of two full trajectories
        for n, k, m in [(n, k, m) for n in range(2, 6) for k in range(1, n) for m in (1, 4)]:
            cz = float(LINEAR.cz(0.5))
            a = 2 * math.pi * m / cz
            _, diag = handle_rs_index_ode(n, k, a, LINEAR, 0.5, step=step)
            mats = np.stack([a * np.array([[0.0, LINEAR.cy / 2], [1.5 * LINEAR.cx, 0.0]])] * k
                            + [(a * cz / 2) * np.array([[0.0, -1.0], [1.0, 0.0]])] * (n - k))
            v0 = np.tile([0.0, 1.0], (n, 1))
            ends = [_rk4_blocks(mats, h, v0)[-1] for h in (step, 2 * step)]
            assert abs(diag["drift"] - np.max(np.abs(ends[0] - ends[1]))) <= 1e-12, (n, k, m)

    def test_bad_step_errors(self):
        cz = float(LINEAR.cz(0.5))
        with pytest.raises(IntegrationError):
            handle_rs_index_ode(2, 1, 2 * math.pi / cz, LINEAR, 0.5, step=0.0)
        with pytest.raises(IntegrationError):
            handle_rs_index_ode(2, 1, 2 * math.pi / cz, LINEAR, 0.5, step=0.5)

    def test_signature_engine_on_same_path(self):
        # The signature-weighted pair index of the assembled block path
        # differs from the dimension-weighted count exactly by one per
        # handle plane: the hyperbolic blocks leave the vertical axis
        # clockwise, so their boundary crossing forms are negative.
        n, k, m = 3, 1, 1
        cz = float(LINEAR.cz(0.5))
        a = 2 * math.pi * m / cz
        s_blocks = []
        for i in range(k):
            s_blocks.append(a * np.diag([3 * LINEAR.cx / 2, -LINEAR.cy / 2]))
        for i in range(n - k):
            s_blocks.append((a * cz / 2) * np.eye(2))
        s = np.zeros((2 * n, 2 * n))
        for i, blk in enumerate(s_blocks):
            s[i, i] = blk[0, 0]
            s[n + i, n + i] = blk[1, 1]
            s[i, n + i] = blk[0, 1]
            s[n + i, i] = blk[1, 0]
        path = GeneratorPath(s, LagrangianFrame.vertical(n))
        ref = ConstantPath(LagrangianFrame.vertical(n))
        signature_weighted = rs_index((path, ref))
        dimension_weighted = handle_rs_index(n, k, a, cz)
        assert dimension_weighted - signature_weighted == HalfInt(2 * k)


def _loop_count_halves(x, y, zero_tol=1e-9):
    """_count_block_halves as a sample-by-sample walk."""
    halves, m = 0, len(x) - 1
    near_zero = np.abs(x) < zero_tol * max(1.0, float(np.max(np.abs(x))))
    halves += int(near_zero[0]) + int(near_zero[m])
    i = 1
    while i < m:
        if near_zero[i]:
            j = i
            while j <= m and near_zero[j]:
                j += 1
            if j <= m:
                halves += 2 * int(np.sign(-(x[j] - x[i - 1]) * y[i]))
            i = j
        else:
            if x[i] * x[i + 1] < 0 and not near_zero[i + 1]:
                halves += 2 * int(np.sign(-(x[i + 1] - x[i]) * y[i]))
            i += 1
    return halves


class TestBlockKernels:
    def test_rk4_blocks_match_sequential_steps(self):
        a, cz = 0.9, 7.0
        mats = np.stack([a * np.array([[0.0, 0.5], [1.5, 0.0]]),
                         (a * cz / 2.0) * np.array([[0.0, -1.0], [1.0, 0.0]]),
                         np.array([[0.3, -2.0], [0.7, -0.1]])])
        v0 = np.array([[0.0, 1.0], [0.0, 1.0], [1.0, -2.0]])
        h = 1.0 / 1000
        r = np.eye(2) + sum(np.linalg.matrix_power(h * mats, p) / math.factorial(p)
                            for p in range(1, 5))
        want = [v0]
        for _ in range(1000):
            want.append(np.einsum("bij,bj->bi", r, want[-1]))
        want = np.array(want)
        got = _rk4_blocks(mats, h, v0)
        assert got.shape == (1001, 3, 2)
        for b in range(3):
            err = np.max(np.abs(got[:, b] - want[:, b]))
            assert err <= 1e-12 * np.max(np.abs(want[:, b])), b

    @pytest.mark.parametrize("x,y,halves", [
        ([1.0, 0.5, -0.5, -1.0], 1.0, 2),             # one transversal crossing
        ([1.0, 0.5, -0.5, -1.0], -1.0, -2),           # the other direction
        ([-1.0, 1.0, 2.0], 1.0, 0),                   # sign change at i = 0
        ([1.0, 1.0, -1.0], 1.0, 2),                   # sign change into the end
        ([1.0, 0.5, 0.0, 0.0, -0.5, -1.0], 1.0, 2),   # zero streak, crossed
        ([1.0, 0.5, 0.0, 0.0, 0.5, 1.0], 1.0, 0),     # zero streak, touched
        ([0.0, 0.5, 1.0, 0.5, 0.0], 1.0, 2),          # zeros at both ends
        ([0.0, 0.0, 0.5, 1.0], 1.0, -1),              # streak from the start
        ([1.0, 0.5, 0.0, 0.0, 0.0], 1.0, 1),          # streak to the end
        ([1e3, 1e-7, -1e3], 1.0, 2),                  # tolerance scales with max |x|
    ])
    def test_count_block_halves_known(self, x, y, halves):
        x = np.asarray(x)
        y = np.full_like(x, y)
        assert _count_block_halves(x, y) == halves
        assert _loop_count_halves(x, y) == halves

    def test_count_block_halves_matches_walk(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            size = int(rng.integers(1, 40))
            x = rng.choice([-2.0, -1.0, 0.0, 0.0, 1e-12, 1.0, 3.0], size=size)
            y = rng.choice([-1.0, 0.0, 2.0], size=size)
            assert _count_block_halves(x, y) == _loop_count_halves(x, y), (x, y)


class TestClusterBounds:
    def test_reference_intervals(self):
        b1, b2 = perturbation_cluster_bounds(3, 1, 1.0, 2 * math.pi)
        assert b1 == (-0.5, 2.5)
        assert b2 == (0.5, 3.5)

    def test_width_n(self):
        for (n, k, m) in [(2, 1, 1), (4, 2, 3), (5, 1, 2)]:
            b1, b2 = perturbation_cluster_bounds(n, k, 1.0, 2 * math.pi * m)
            assert b1[1] - b1[0] == pytest.approx(n)
            assert b2[1] - b2[0] == pytest.approx(n)

    def test_lower_endpoints_diverge(self):
        los = [perturbation_cluster_bounds(3, 1, 1.0, 2 * math.pi * m)[0][0]
               for m in (1, 4, 16, 64)]
        assert all(b > a for a, b in zip(los, los[1:]))
        assert los[-1] > 100

    def test_membership_of_degenerate_index(self):
        for (n, k, m) in [(2, 1, 1), (3, 2, 2), (5, 1, 3), (5, 4, 1)]:
            (l1, h1), (l2, h2) = perturbation_cluster_bounds(n, k, 1.0, 2 * math.pi * m)
            mu_deg = (n - k) * m - (n - k) / 2.0
            assert l1 < mu_deg < h1
            assert l2 < mu_deg + (n - k - 1) < h2


def test_sweep_rows_consistency():
    rows = sweep_rows(n_max=3, m_max=2)
    assert rows[0][0] == "n"
    for row in rows[1:]:
        assert row[4] == row[5]  # formula and ODE agree in halves
