import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from maslovkit.errors import (
    DegenerateFrameError,
    DimensionMismatchError,
    NonTransverseError,
)
from maslovkit.symplin import (
    ConstantPath,
    GeneratorPath,
    LagrangianFrame,
    SampledPath,
    SymplecticForm,
    SymplecticMatrix,
    canonical_short_path,
    complex_structure,
    det_squared,
    direct_sum_frames,
    direct_sum_paths,
    is_symplectic,
    lagrangian_intersection_dim,
    omega_matrix,
    path_from_json,
    random_lagrangian_frame,
    random_symplectic,
    rotation_path,
    symplectic_gram_schmidt,
)


def test_standard_form_block_structure():
    form = SymplecticForm.standard(3)
    form.validate()
    n = 3
    assert np.allclose(form.matrix[:n, n:], np.eye(n))
    assert np.allclose(form.matrix[n:, :n], -np.eye(n))
    assert abs(np.linalg.det(form.matrix) - 1.0) < 1e-12


def test_omega_compose_j_is_identity():
    for n in (1, 2, 5):
        assert np.allclose(omega_matrix(n) @ complex_structure(n), np.eye(2 * n))


class TestIsSymplectic:
    def test_identity(self):
        assert is_symplectic(np.eye(4))

    def test_scaling_shear(self):
        # x -> 2x, y -> y/2 preserves dx ^ dy
        assert is_symplectic(np.diag([2.0, 0.5]))

    def test_uniform_scaling_fails(self):
        assert not is_symplectic(np.diag([2.0, 2.0]))

    def test_odd_dimension_rejected(self):
        with pytest.raises(DimensionMismatchError):
            is_symplectic(np.eye(3))

    def test_random_generated_matrices(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(1, 4))
            assert is_symplectic(random_symplectic(n, rng))


class TestIntersectionDim:
    def test_equal_subspaces(self):
        for n in (1, 2, 3):
            l = LagrangianFrame.horizontal(n)
            assert lagrangian_intersection_dim(l, l) == n

    def test_transverse(self):
        for n in (1, 2, 3):
            h, v = LagrangianFrame.horizontal(n), LagrangianFrame.vertical(n)
            assert lagrangian_intersection_dim(h, v) == 0

    def test_partial_overlap(self):
        # span{(1,0,0,0), (0,0,0,1)} meets R^2 x 0 in one line; the expected
        # value 1 equals 4 - rank of the concatenated frame, checked by an
        # independent numpy rank computation.
        f = LagrangianFrame.from_columns(
            np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        )
        h = LagrangianFrame.horizontal(2)
        stacked = np.hstack([f.columns, h.columns])
        assert np.linalg.matrix_rank(stacked) == 3
        assert lagrangian_intersection_dim(f, h) == 4 - 3 == 1

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            a = random_lagrangian_frame(n, rng)
            b = random_lagrangian_frame(n, rng)
            assert lagrangian_intersection_dim(a, b) == lagrangian_intersection_dim(b, a)

    def test_degenerate_frame_rejected(self):
        cols = np.zeros((4, 2))
        cols[0, 0] = 1.0
        cols[0, 1] = 1.0 + 1e-12
        with pytest.raises(DegenerateFrameError):
            LagrangianFrame.from_columns(cols)


class TestDetSquared:
    def test_horizontal_is_one(self):
        for n in (1, 2, 4):
            assert abs(det_squared(LagrangianFrame.horizontal(n)) - 1.0) < 1e-12

    def test_rotated_line(self):
        for theta in np.linspace(0.1, 3.0, 7):
            got = det_squared(LagrangianFrame.complex_line(theta))
            assert abs(got - np.exp(2j * theta)) < 1e-12

    def test_frame_choice_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(1, 4))
            fr = random_lagrangian_frame(n, rng)
            g = rng.normal(size=(n, n))
            while abs(np.linalg.det(g)) < 1e-3:
                g = rng.normal(size=(n, n))
            other = LagrangianFrame.from_columns(fr.columns @ g)
            assert abs(det_squared(fr) - det_squared(other)) < 1e-9


def test_symplectic_action_preserves_lagrangian():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        m = SymplecticMatrix.from_array(random_symplectic(n, rng))
        fr = random_lagrangian_frame(n, rng)
        (m @ fr).validate()


class TestCanonicalShortPath:
    def test_model_case_identity_matrix(self):
        n = 2
        h, v = LagrangianFrame.horizontal(n), LagrangianFrame.vertical(n)
        a = symplectic_gram_schmidt(h, v)
        assert np.allclose(a.entries, np.eye(2 * n), atol=1e-12)
        path = canonical_short_path(h, v)
        assert lagrangian_intersection_dim(path.frame(0.0), h) == n
        assert lagrangian_intersection_dim(path.frame(1.0), v) == n

    def test_gram_completion_case(self):
        l0 = LagrangianFrame.from_columns(np.array([[1.0], [0.0]]))
        l1 = LagrangianFrame.from_columns(np.array([[1.0], [1.0]]))
        path = canonical_short_path(l0, l1)
        assert lagrangian_intersection_dim(path.frame(0.0), l0) == 1
        assert lagrangian_intersection_dim(path.frame(1.0), l1) == 1

    def test_random_pairs(self):
        rng = np.random.default_rng(5)
        done = 0
        while done < 15:
            n = int(rng.integers(1, 4))
            l0 = random_lagrangian_frame(n, rng)
            l1 = random_lagrangian_frame(n, rng)
            if lagrangian_intersection_dim(l0, l1) != 0:
                continue
            path = canonical_short_path(l0, l1)
            path.validate()
            assert lagrangian_intersection_dim(path.frame(0.0), l0) == n
            assert lagrangian_intersection_dim(path.frame(1.0), l1) == n
            done += 1

    def test_non_transverse_rejected(self):
        h = LagrangianFrame.horizontal(2)
        with pytest.raises(NonTransverseError):
            canonical_short_path(h, h)


class TestPaths:
    def test_generator_path_stays_lagrangian(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(4, 4))
        p = GeneratorPath((a + a.T) / 2, random_lagrangian_frame(2, rng))
        p.validate(samples=11)

    def test_generator_requires_symmetric(self):
        with pytest.raises(DimensionMismatchError):
            GeneratorPath(np.array([[0.0, 1.0], [0.0, 0.0]]),
                          LagrangianFrame.horizontal(1))

    def test_rotation_path_closed_form(self):
        p = rotation_path(1, np.pi / 2)
        f = p.frame_array(1.0)
        # e^{i pi/2} R = vertical line
        assert abs(f[0, 0]) < 1e-10 and abs(abs(f[1, 0]) - 1.0) < 1e-10

    def test_sampled_path_interpolates(self):
        ts = np.linspace(0, 1, 101)
        base = rotation_path(1, np.pi)
        sp = SampledPath(ts, base.frames(ts))
        for t in (0.0, 0.245, 0.5, 1.0):
            assert np.allclose(sp.frame_array(t), base.frame_array(t), atol=1e-3)

    def test_json_roundtrip_generator(self):
        p = rotation_path(2, [np.pi, -np.pi])
        q = path_from_json(json.loads(json.dumps(p.to_json())))
        for t in (0.0, 0.3, 1.0):
            assert np.allclose(p.frame_array(t), q.frame_array(t), atol=1e-9)

    def test_json_roundtrip_samples(self):
        ts = np.linspace(0, 1, 33)
        base = rotation_path(1, np.pi)
        sp = SampledPath(ts, base.frames(ts))
        q = path_from_json(json.loads(json.dumps(sp.to_json())))
        assert np.allclose(q.frame_array(0.7), sp.frame_array(0.7))

    def test_frame_json_roundtrip(self):
        fr = LagrangianFrame.complex_line(0.7)
        assert np.allclose(LagrangianFrame.from_json(fr.to_json()).columns, fr.columns)

    def test_direct_sum_coordinate_order(self):
        f = direct_sum_frames(
            LagrangianFrame.horizontal(1).columns, LagrangianFrame.vertical(1).columns
        )
        LagrangianFrame.from_columns(f).validate()
        # x block first, then y block
        assert np.allclose(f, np.array([[1, 0], [0, 0], [0, 0], [0, 1]]))


def _random_generator_path(n, rng, scale=1.0):
    a = rng.normal(size=(2 * n, 2 * n), scale=scale)
    return GeneratorPath((a + a.T) / 2, random_lagrangian_frame(n, rng))


class TestBatchedFrames:
    """``frames(ts)`` agrees with the scalar reference ``frame_array`` per t."""

    TS = np.array([0.0, 1e-9, 0.1234567, 0.5, 0.77777, 1.0 - 1e-9, 1.0])

    @staticmethod
    def assert_close(batched, scalar):
        assert batched.shape == scalar.shape
        scale = np.max(np.abs(scalar))
        assert np.allclose(batched, scalar, rtol=1e-12, atol=1e-12 * scale)

    def assert_batched(self, path, ts=TS):
        scalar = np.stack([path.frame_array(float(t)) for t in ts])
        self.assert_close(path.frames(ts), scalar)

    def test_sampled(self):
        grid = np.linspace(0.0, 1.0, 37)
        base = rotation_path(2, [np.pi, -2.0])
        self.assert_batched(SampledPath(grid, base.frames(grid)))

    def test_direct_sum(self):
        rng = np.random.default_rng(3)
        self.assert_batched(direct_sum_paths(
            _random_generator_path(1, rng), _random_generator_path(2, rng)))

    def test_transformed(self):
        rng = np.random.default_rng(4)
        base, psi = _random_generator_path(2, rng), _random_generator_path(2, rng)
        self.assert_batched(base.transformed(psi))
        self.assert_batched(base.transformed(lambda t: psi.matrix(t)))

    def test_reparametrized_and_restricted(self):
        rng = np.random.default_rng(5)
        base = _random_generator_path(3, rng)
        self.assert_batched(base.reparametrized(lambda t: t * t))
        self.assert_batched(base.restricted(0.25, 0.75), 0.25 + 0.5 * self.TS)

    def test_generator_matrices(self):
        rng = np.random.default_rng(6)
        for n in (1, 2, 4):
            p = _random_generator_path(n, rng, scale=2.0)
            scalar = np.stack([p.matrix(float(t)) for t in self.TS])
            batched = p.matrices(self.TS)
            self.assert_close(batched, scalar)
            # grid nodes (0, 1/2, 1) come back exactly, whatever else is in the batch
            nodes = np.isin(self.TS, (0.0, 0.5, 1.0))
            assert np.array_equal(batched[nodes], scalar[nodes])

    def test_generator_grid_matches_expm(self):
        # the constant-S grid is built by doubling, Psi(t_{m+j}) = Psi(t_m) Psi(t_j)
        rng = np.random.default_rng(7)
        for n in (1, 2, 4, 6):
            a = rng.normal(size=(2 * n, 2 * n))
            s = (a + a.T) / 2
            p = GeneratorPath(s, LagrangianFrame.horizontal(n))
            nodes = np.array([1, 7, 1000, 2047, 2048])
            ts = nodes / 2048.0
            for t, m in zip(ts, p.matrices(ts)):
                exact = expm(complex_structure(n) @ s * t)
                assert np.linalg.norm(m - exact) <= 1e-11 * np.linalg.norm(exact)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_det_squared_modulus_one(seed):
    rng = np.random.default_rng(seed)
    fr = random_lagrangian_frame(int(rng.integers(1, 4)), rng)
    assert abs(abs(det_squared(fr)) - 1.0) < 1e-10
