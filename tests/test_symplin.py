import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from maslovkit.errors import (
    DegenerateFrameError,
    DimensionMismatchError,
    IntegrationError,
    IrregularCrossingError,
    MaslovkitError,
)
from maslovkit.halfint import HalfInt
from maslovkit.maslov import _unitary, rs_index
from maslovkit.symplin import (
    ConstantPath,
    FunctionPath,
    GeneratorPath,
    LagrangianFrame,
    SampledPath,
    complex_structure,
    direct_sum_frames,
    direct_sum_paths,
    is_symplectic,
    lagrangian_intersection_dim,
    omega_matrix,
    path_from_json,
    random_lagrangian_frame,
    random_symplectic,
    rotation_path,
)


def test_standard_form_block_structure():
    n = 3
    omega = omega_matrix(n)
    assert np.array_equal(omega, -omega.T)
    assert np.allclose(omega[:n, n:], np.eye(n))
    assert np.allclose(omega[n:, :n], -np.eye(n))
    assert abs(np.linalg.det(omega) - 1.0) < 1e-12


def test_omega_compose_j_is_identity():
    for n in (1, 2, 5):
        assert np.allclose(omega_matrix(n) @ complex_structure(n), np.eye(2 * n))


def test_structure_matrices_built_once_and_read_only():
    # J(x, y) = (-y, x) entry by entry; both matrices are shared per n, so a
    # write into one must fail rather than change every later caller's J
    for n in (1, 3):
        j = complex_structure(n)
        x, y = np.arange(1.0, n + 1), -np.arange(2.0, n + 2)
        assert np.array_equal(j @ np.concatenate([x, y]), np.concatenate([-y, x]))
        assert complex_structure(n) is j and omega_matrix(n) is omega_matrix(n)
        for m in (j, omega_matrix(n)):
            with pytest.raises(ValueError):
                m[0, 0] = 1.0


class TestIsSymplectic:
    def test_identity(self):
        assert is_symplectic(np.eye(4))

    def test_scaling_shear(self):
        # x -> 2x, y -> y/2 preserves dx ^ dy
        assert is_symplectic(np.diag([2.0, 0.5]))

    def test_uniform_scaling_fails(self):
        assert not is_symplectic(np.diag([2.0, 2.0]))

    def test_odd_dimension_rejected(self):
        # odd, not square, not a matrix
        for m in (np.eye(3), np.zeros((2, 4)), np.zeros(4), [[1.0, 0.0]]):
            with pytest.raises(DimensionMismatchError):
                is_symplectic(m)

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_column_rejected_without_warning(self):
        # refused as rank deficient before the columns are normalized
        for cols in (np.zeros((2, 1)), [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]):
            with pytest.raises(DegenerateFrameError, match="zero"):
                LagrangianFrame.from_columns(cols)


def unitary_det2(fr: LagrangianFrame) -> complex:
    """det^2 of the orthonormalized frame X + iY, as `maslov` builds it."""
    return complex(np.linalg.det(_unitary(ConstantPath(fr), [0.0])[0]) ** 2)


class TestDetSquared:
    def test_horizontal_is_one(self):
        for n in (1, 2, 4):
            assert abs(unitary_det2(LagrangianFrame.horizontal(n)) - 1.0) < 1e-12

    def test_rotated_line(self):
        for theta in np.linspace(0.1, 3.0, 7):
            got = unitary_det2(LagrangianFrame.complex_line(theta))
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
            assert abs(unitary_det2(fr) - unitary_det2(other)) < 1e-9


def test_symplectic_action_preserves_lagrangian():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        m = random_symplectic(n, rng)
        assert is_symplectic(m)
        LagrangianFrame.from_columns(m @ random_lagrangian_frame(n, rng).columns)


class TestPaths:
    def test_generator_path_stays_lagrangian(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(4, 4))
        p = GeneratorPath((a + a.T) / 2, random_lagrangian_frame(2, rng))
        p.validate(samples=11)

    def test_generator_requires_symmetric(self):
        # not symmetric, square but not 2n x 2n for the frame, and not square
        for s in ([[0.0, 1.0], [0.0, 0.0]], np.eye(4), np.zeros((2, 3))):
            with pytest.raises(DimensionMismatchError, match="symmetric 2n x 2n"):
                GeneratorPath(s, LagrangianFrame.horizontal(1))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_generator_refuses_non_finite_s(self):
        # refused as non-finite before the symmetry check and the flow, with no warning
        for bad in (np.nan, np.inf):
            with pytest.raises(DimensionMismatchError, match="finite"):
                GeneratorPath(np.full((2, 2), bad), LagrangianFrame.horizontal(1))

    def test_rotation_path_closed_form(self):
        p = rotation_path(1, np.pi / 2)
        f = p.frame_array(1.0)
        # e^{i pi/2} R = vertical line
        assert abs(f[0, 0]) < 1e-10 and abs(abs(f[1, 0]) - 1.0) < 1e-10

    def test_rotation_path_needs_a_dimension(self):
        for n in (0, -1):
            with pytest.raises(DimensionMismatchError, match="n >= 1"):
                rotation_path(n, 1.0)

    def test_sampled_path_needs_1d_times(self):
        for times in ([[0.0, 1.0]], [[0.0], [1.0]], 0.5):
            with pytest.raises(DimensionMismatchError, match="1-D"):
                SampledPath(times, [[[1.0], [0.0]], [[0.0], [1.0]]])

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
        # a frame is serialized as a path's frame0
        fr = LagrangianFrame.complex_line(0.7)
        q = path_from_json(json.loads(json.dumps(rotation_path(1, 0.0, frame0=fr).to_json())))
        assert np.array_equal(q.frame_array(0.0), fr.columns)

    def test_domain_needs_finite_increasing_ends(self):
        h = LagrangianFrame.horizontal(1)
        rot = rotation_path(1, 2.0)
        builders = [lambda d: GeneratorPath(np.eye(2), h, d),
                    lambda d: ConstantPath(h, d),
                    lambda d: FunctionPath(1, lambda t: h.columns, d),
                    lambda d: rot.reparametrized(lambda t: t, d),
                    lambda d: SampledPath(d, rot.frames([0.0, 1.0])),
                    lambda d: path_from_json({**rot.to_json(), "domain": list(d)})]
        for build in builders:
            build((0.0, 1.0))
            for bad in [(1.0, 0.0), (0.5, 0.5)]:
                with pytest.raises(DimensionMismatchError):
                    build(bad)
            for bad in [(0.0, np.inf), (np.nan, 1.0)]:
                with pytest.raises(MaslovkitError):  # InputTypeError from JSON
                    build(bad)

    def test_reversed_domain_is_refused_not_answered(self):
        # the speed-2 rotation crosses the vertical once on [0, 1]; on [1, 0]
        # it used to answer 0
        vertical = ConstantPath(LagrangianFrame.vertical(1))
        assert rs_index((rotation_path(1, 2.0), vertical)) == HalfInt(2)
        with pytest.raises(DimensionMismatchError):
            rs_index((rotation_path(1, 2.0, domain=(1.0, 0.0)), vertical))

    def test_direct_sum_coordinate_order(self):
        f = direct_sum_frames(
            LagrangianFrame.horizontal(1).columns, LagrangianFrame.vertical(1).columns
        )
        LagrangianFrame.from_columns(f).validate()
        # x block first, then y block
        assert np.allclose(f, np.array([[1, 0], [0, 0], [0, 0], [0, 1]]))


def _jordan_generator(a):
    """S with J S = diag(A, -A^T) for the Jordan block A = [[a, 1], [0, a]]."""
    block = np.array([[a, 1.0], [0.0, a]])
    return -complex_structure(2) @ np.block([[block, np.zeros((2, 2))],
                                              [np.zeros((2, 2)), -block.T]])


def _random_generator_path(n, rng, scale=1.0):
    a = rng.normal(size=(2 * n, 2 * n), scale=scale)
    return GeneratorPath((a + a.T) / 2, random_lagrangian_frame(n, rng))


class TestBatchedFrames:
    """``frames(ts)``, the one evaluation primitive, on each path type.

    A batch of many times must agree with batches of one (`frame_array`), so
    that no member of a batch changes another's value; and each path type must
    agree with a route that does not run its code (the matrix exponential,
    the stored samples).
    """

    TS = np.array([0.0, 1e-9, 0.1234567, 0.5, 0.77777, 1.0 - 1e-9, 1.0])

    @staticmethod
    def assert_close(batched, scalar, rtol=1e-12):
        assert batched.shape == scalar.shape
        scale = np.max(np.abs(scalar))
        assert np.allclose(batched, scalar, rtol=rtol, atol=rtol * scale)

    def assert_batched(self, path, ts=TS):
        scalar = np.stack([path.frame_array(float(t)) for t in ts])
        self.assert_close(path.frames(ts), scalar)

    @staticmethod
    def expm_frames(s, frame0, ts):
        j = complex_structure(len(s) // 2)
        return np.stack([expm(j @ s * t) @ frame0 for t in ts])

    def assert_matches_expm(self, p, s, frame0, ts):
        # Psi(t) against expm(J S (t - t0)), and frames against that times F0
        dts = ts - p.domain[0]
        for got, exact in ((p.matrices(ts), self.expm_frames(s, np.eye(len(s)), dts)),
                           (p.frames(ts), self.expm_frames(s, frame0, dts))):
            for g, e in zip(got, exact):
                assert np.linalg.norm(g - e) <= 1e-11 * np.linalg.norm(e)

    def test_sampled(self):
        grid = np.linspace(0.0, 1.0, 37)
        base = rotation_path(2, [np.pi, -2.0])
        stored = base.frames(grid)
        sp = SampledPath(grid, stored)
        self.assert_batched(sp)
        # the stored samples come back exactly at the nodes, in any batch
        assert np.array_equal(sp.frames(grid), stored)
        assert np.array_equal(sp.frames(grid[::-7]), stored[::-7])

    def test_direct_sum(self):
        rng = np.random.default_rng(3)
        gens = []
        for n in (1, 2):
            a = rng.normal(size=(2 * n, 2 * n))
            gens.append(((a + a.T) / 2, random_lagrangian_frame(n, rng)))
        path = direct_sum_paths(*(GeneratorPath(s, f) for s, f in gens))
        self.assert_batched(path)
        parts = [self.expm_frames(s, f.columns, self.TS) for s, f in gens]
        self.assert_close(path.frames(self.TS), direct_sum_frames(*parts), rtol=1e-11)

    def test_transformed(self):
        rng = np.random.default_rng(4)
        base, psi = _random_generator_path(2, rng), _random_generator_path(2, rng)
        self.assert_batched(base.transformed(psi))
        self.assert_batched(base.transformed(lambda t: psi.matrices([t])[0]))

    def test_transformed_by_a_generator_path_needs_its_domain_and_n(self):
        # Psi(t) = e^{i t} turns the speed-1.5 rotation into speed 2.5 on (0, 2):
        # 5 radians pass the vertical at pi/2 and 3 pi/2.  A Psi on (0, 1) or
        # (1, 3) used to be clipped to its own domain, and the index came out 1
        base = rotation_path(1, 1.5, domain=(0.0, 2.0))
        vertical = ConstantPath(LagrangianFrame.vertical(1), (0.0, 2.0))
        h = LagrangianFrame.horizontal(1)
        psi = GeneratorPath(np.eye(2), h, (0.0, 2.0))
        assert rs_index((base.transformed(psi), vertical)) == HalfInt.from_int(2)
        for domain in ((0.0, 1.0), (1.0, 3.0)):
            with pytest.raises(DimensionMismatchError):
                base.transformed(GeneratorPath(np.eye(2), h, domain))
        with pytest.raises(DimensionMismatchError):
            base.transformed(GeneratorPath(np.eye(4), LagrangianFrame.horizontal(2),
                                           (0.0, 2.0)))

    def test_transformed_by_a_callable_of_the_wrong_size(self):
        vertical = ConstantPath(LagrangianFrame.vertical(1))
        moved = rotation_path(1, 2.0).transformed(lambda t: np.eye(4))
        with pytest.raises(DimensionMismatchError, match=r"\(4, 4\) matrices cannot transform"):
            rs_index((moved, vertical))

    def test_per_t_frames_equal_the_stacked_route(self):
        # FunctionPath frames and a callable transform's matrices are built in
        # one array; each equals, bit for bit, the stack of one float per call
        rng = np.random.default_rng(8)
        ts = np.linspace(0.0, 1.0, 513)
        for n in range(1, 7):
            gen, psi = _random_generator_path(n, rng), _random_generator_path(n, rng)
            fn = gen.frame_array
            mat = lambda t: psi.matrices([t])[0]
            stacked = np.stack([np.asarray(fn(float(t)), dtype=float) for t in ts])
            assert np.array_equal(FunctionPath(n, fn).frames(ts), stacked)
            mats = np.stack([np.asarray(mat(float(t)), dtype=float) for t in ts])
            moved = gen.transformed(mat)
            assert np.array_equal(moved.frames(ts), mats @ gen.frames(ts))
            for path in (FunctionPath(n, fn), moved):
                assert path.frames(ts[:0]).shape == (0, 2 * n, n)

    def test_bad_callable_output_refused(self):
        # a wrong shape, a shape that changes with t, non-finite and
        # non-numeric results give DimensionMismatchError, from frames and
        # from rs_index
        horizontal = ConstantPath(LagrangianFrame.horizontal(2))
        rot = rotation_path(2, 1.0)
        changing = lambda m: lambda t: m(4) if t < 0.5 else m(3)
        paths = [FunctionPath(2, lambda t: np.ones((4, 3))),
                 FunctionPath(2, changing(lambda k: np.eye(k)[:, :2])),
                 FunctionPath(2, lambda t: np.full((4, 2), np.nan)),
                 FunctionPath(2, lambda t: None),
                 rot.transformed(changing(np.eye)),
                 rot.transformed(lambda t: np.full((4, 4), np.nan))]
        for path in paths:
            with pytest.raises(DimensionMismatchError, match="must map the"):
                path.frames(self.TS)
            with pytest.raises(DimensionMismatchError, match="must map the"):
                rs_index((path, horizontal))

    def test_reparametrized_and_restricted(self):
        rng = np.random.default_rng(5)
        base = _random_generator_path(3, rng)
        self.assert_batched(base.reparametrized(lambda t: t * t))
        self.assert_batched(base.restricted(0.25, 0.75), 0.25 + 0.5 * self.TS)

    def test_reparametrized_tau_on_the_whole_array(self):
        # tau takes the whole array in one call; the frames are the base's at
        # the times tau gives, one time at a time through math, and the index
        # is the base's
        base = rotation_path(2, [1.5 * np.pi, -2.5 * np.pi])
        shapes = []

        def tau(u):
            shapes.append(np.shape(u))
            return np.sinh(u) / np.sinh(1.0)

        moved = base.reparametrized(tau)
        scalar = np.stack([base.frame_array(math.sinh(t) / math.sinh(1.0)) for t in self.TS])
        self.assert_close(moved.frames(self.TS), scalar)
        assert shapes == [self.TS.shape]
        vertical = ConstantPath(LagrangianFrame.vertical(2))
        assert rs_index((moved, vertical)) == rs_index((base, vertical))

    def test_reparametrized_tau_of_the_wrong_shape_refused(self):
        # a tau that gives one time for the array, drops a time, gives a
        # ragged or a non-finite result is refused, not called per time
        base = rotation_path(1, [np.pi])
        for tau in (lambda u: 0.5, lambda u: u[:-1], lambda u: [u, u[:1]],
                    lambda u: np.where(u > 0.5, np.nan, u)):
            with pytest.raises(DimensionMismatchError, match="time change"):
                base.reparametrized(tau).frames(self.TS)

    def test_moved_paths_record_their_parent(self):
        rng = np.random.default_rng(7)
        base, psi = _random_generator_path(2, rng), _random_generator_path(2, rng)
        moved = base.transformed(psi)
        assert moved.moved[0] is psi and moved.moved[1] is base
        part = moved.restricted(0.25, 0.75).restricted(0.3, 0.5)
        assert part.moved[0] is psi and part.moved[1].domain == (0.3, 0.5)
        ts = 0.3 + 0.2 * self.TS
        self.assert_close(part.moved[1].frames(ts), base.frames(ts))
        for q in (base, base.restricted(0.25, 0.75), base.reparametrized(lambda t: t),
                  base.transformed(lambda t: psi.matrices([t])[0]), direct_sum_paths(moved, moved)):
            assert q.moved is None

    def test_generator_matrices(self):
        # both routes of `matrices`: closed form (eigenvectors accepted) and
        # the batched expm (a nilpotent J S)
        rng = np.random.default_rng(6)
        paths = [_random_generator_path(n, rng, scale=2.0) for n in (1, 2, 4)]
        paths.append(GeneratorPath(np.diag([0.0, 1.0]), LagrangianFrame.horizontal(1)))
        assert [p._eig is None for p in paths] == [False, False, False, True]
        for p in paths:
            scalar = np.stack([p.matrices([float(t)])[0] for t in self.TS])
            batched = p.matrices(self.TS)
            self.assert_close(batched, scalar)
            # Psi(t0) is the identity itself on both routes
            assert np.array_equal(batched[0], np.eye(2 * p.n))
            if p._eig is None:
                # expm treats each matrix of the batch on its own
                assert np.array_equal(batched, scalar)

    def test_kernel_built_on_first_evaluation(self):
        # the closed form's eigenvectors and kernels wait for the first
        # `matrices` or `frames` call; the overflow check does not
        rng = np.random.default_rng(8)
        for evaluate in (lambda p: p.matrices(self.TS), lambda p: p.frames(self.TS)):
            p = _random_generator_path(2, rng)
            p.generator(), p.to_json()
            assert "_eig" not in vars(p)
            evaluate(p)
            assert vars(p)["_eig"] is not None
        with pytest.raises(IntegrationError, match="float range"):
            GeneratorPath(np.array([[0.0, 800.0], [800.0, 0.0]]), LagrangianFrame.horizontal(1))

    def test_closed_form_matches_expm_off_the_unit_domain(self):
        # on (0.3, 2.3), at t0, t1, times 1/2048 of the domain from each end
        # and random times, all on the closed form
        rng = np.random.default_rng(9)
        t0, t1 = 0.3, 2.3
        ts = np.concatenate([[t0, t1, t0 + 0.5 / 1024, t1 - 0.5 / 1024],
                             rng.uniform(t0, t1, 20)])
        draws = []
        for n in range(1, 7):
            a = rng.normal(size=(2 * n, 2 * n), scale=2.0)
            draws.append(((a + a.T) / 2, random_lagrangian_frame(n, rng)))
        # the first n=6, scale-8 generator of default_rng([21, 5, 5, 11]):
        # cond V = 5.5, entries of Psi(1) up to 5e11
        wide = np.random.default_rng([21, 5, 5, 11])
        a = wide.normal(size=(12, 12), scale=8.0)
        b = wide.normal(size=(12, 12))
        frame = expm(complex_structure(6) @ ((b + b.T) / 2))[:, :6]
        draws.append(((a + a.T) / 2, LagrangianFrame.from_columns(frame)))
        for s, frame0 in draws:
            p = GeneratorPath(s, frame0, (t0, t1))
            assert p._eig is not None
            self.assert_matches_expm(p, s, frame0.columns, ts)
            assert np.array_equal(p.frames([t0])[0], frame0.columns)

    def test_rejected_generator_takes_the_batched_expm(self):
        # J S = diag(A, -A^T) has a Jordan block, so its eigenvectors are
        # rejected; Psi(t) = diag(e^{A dt}, e^{-A^T dt}) with
        # e^{A dt} = e^{2 dt} [[1, dt], [0, 1]]
        rng = np.random.default_rng(10)
        s, frame0 = _jordan_generator(2.0), random_lagrangian_frame(2, rng)
        p = GeneratorPath(s, frame0, (0.3, 2.3))
        assert p._eig is None
        ts = np.concatenate([0.3 + 2.0 * self.TS, rng.uniform(0.3, 2.3, 20)])
        exact = np.zeros((len(ts), 4, 4))
        for k, dt in enumerate(ts - 0.3):
            a = np.exp(2.0 * dt) * np.array([[1.0, dt], [0.0, 1.0]])
            exact[k, :2, :2], exact[k, 2:, 2:] = a, np.linalg.inv(a).T
        for got, want in ((p.matrices(ts), exact), (p.frames(ts), exact @ frame0.columns)):
            for g, e in zip(got, want):
                assert np.linalg.norm(g - e) <= 1e-11 * np.linalg.norm(e)

    def test_flow_beyond_the_float_range_is_refused_without_warning(self):
        # e^800 is beyond the float range: J S = diag(-800, 800), which has
        # eigenvectors, and a Jordan block of eigenvalue 800, which has not;
        # both are refused when expm(J S (t1 - t0)) is taken in the constructor
        line = LagrangianFrame.complex_line(0.3)
        hyperbolic = lambda c: np.array([[0.0, c], [c, 0.0]])
        cases = [(hyperbolic(800.0), line),
                 (_jordan_generator(800.0), LagrangianFrame.horizontal(2))]
        for s, frame0 in cases:
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                with pytest.raises(MaslovkitError, match="float range"):
                    GeneratorPath(s, frame0)
            assert seen == [], [str(w.message) for w in seen]
        # e^300 is in range; the path reaches the vertical at t = 1 to
        # within rounding, so the end crossing is refused as degenerate
        p = GeneratorPath(hyperbolic(300.0), line)
        with pytest.raises(IrregularCrossingError) as exc:
            rs_index((p, ConstantPath(LagrangianFrame.vertical(1))))
        assert exc.value.time == 1.0

    def test_closed_form_matches_expm_on_the_unit_domain(self):
        # times near both ends and inside, against expm(J S t) and
        # expm(J S t) F0; the batched expm route has tests of its own
        rng = np.random.default_rng(7)
        ts = np.concatenate([np.array([1, 7, 1000, 2047, 2048]) / 2048.0, self.TS])
        for n in (1, 2, 4, 6):
            a = rng.normal(size=(2 * n, 2 * n))
            s = (a + a.T) / 2
            frame0 = random_lagrangian_frame(n, rng)
            p = GeneratorPath(s, frame0)
            assert p._eig is not None
            self.assert_matches_expm(p, s, frame0.columns, ts)

    def test_nilpotent_generator_matches_its_polynomial(self):
        ts = self.TS
        shear = GeneratorPath(np.diag([0.0, 1.0]), LagrangianFrame.horizontal(1))
        assert shear._eig is None
        # J S is nilpotent here, so expm(J S t) = I + J S t
        exact = np.eye(2) + complex_structure(1) @ np.diag([0.0, 1.0]) * ts[:, None, None]
        self.assert_close(shear.matrices(ts), exact)

    def test_graph_paths_on_the_expm_route_match_the_signature_formula(self):
        # S = [[B, 0], [0, 0]] with B = A1 - A0 moves graph(A0) to
        # graph(A0 + t B), and J S is nilpotent; against the horizontal the
        # index is (sig A1 - sig A0) / 2 when A0 and A1 are invertible
        rng = np.random.default_rng(11)
        sig = lambda a: int(np.sum(np.sign(np.linalg.eigvalsh(a))))
        done = 0
        while done < 18:
            n = 1 + done % 6
            a0, a1 = (a + a.T for a in rng.normal(size=(2, n, n)))
            if min(np.min(np.abs(np.linalg.eigvalsh(a))) for a in (a0, a1)) < 0.05:
                continue
            s = np.zeros((2 * n, 2 * n))
            s[:n, :n] = a1 - a0
            p = GeneratorPath(s, LagrangianFrame.from_columns(np.vstack([np.eye(n), a0])))
            assert p._eig is None
            horizontal = ConstantPath(LagrangianFrame.horizontal(n))
            assert rs_index((p, horizontal)) == HalfInt(sig(a1) - sig(a0))
            done += 1


class TestGenerator:
    """``generator()`` against the flow it claims: frames(t) must equal
    expm(J S (t - t0)) frames(t0), computed here with scipy."""

    TS = np.array([0.0, 0.1234567, 0.5, 0.77777, 1.0])

    @staticmethod
    def assert_flow(path, rtol=1e-10):
        s = path.generator()
        assert s.shape == (2 * path.n, 2 * path.n) and np.array_equal(s, s.T)
        t0, t1 = path.domain
        ts = t0 + (t1 - t0) * TestGenerator.TS
        f0 = path.frames([t0])[0]
        j = complex_structure(path.n)
        for t, got in zip(ts, path.frames(ts)):
            want = expm(j @ s * (t - t0)) @ f0
            assert np.linalg.norm(got - want) <= rtol * np.linalg.norm(want)

    def test_generator_path_and_its_restriction(self):
        rng = np.random.default_rng(40)
        for n in (1, 3, 6):
            p = _random_generator_path(n, rng, scale=2.0)
            self.assert_flow(p)
            self.assert_flow(p.restricted(0.3, 0.8))
            self.assert_flow(p.restricted(0.3, 0.8).restricted(0.5, 0.6))

    def test_direct_sum_of_unequal_parts(self):
        rng = np.random.default_rng(41)
        for n1, n2 in ((1, 3), (2, 1), (3, 2)):
            a, b = _random_generator_path(n1, rng, 2.0), _random_generator_path(n2, rng, 2.0)
            self.assert_flow(direct_sum_paths(a, b))
            self.assert_flow(direct_sum_paths(a, ConstantPath(random_lagrangian_frame(n2, rng))))
            self.assert_flow(direct_sum_paths(a.restricted(0.2, 0.9), b.restricted(0.2, 0.9)))

    def test_constant_path_reports_zero(self):
        p = ConstantPath(random_lagrangian_frame(2, np.random.default_rng(42)))
        assert not np.any(p.generator())
        self.assert_flow(p)

    def test_constant_path_moved_by_a_generator_path(self):
        # G = Psi(t) F with F constant gives G' = J S_Psi G
        rng = np.random.default_rng(44)
        for n in (1, 3, 6):
            psi = _random_generator_path(n, rng, scale=2.0)
            q = ConstantPath(random_lagrangian_frame(n, rng)).transformed(psi)
            assert np.array_equal(q.generator(), psi.generator())
            self.assert_flow(q)
            self.assert_flow(q.restricted(0.3, 0.8))

    def test_other_paths_report_none(self):
        rng = np.random.default_rng(43)
        p = _random_generator_path(2, rng)
        grid = np.linspace(0.0, 1.0, 9)
        for q in (p.transformed(_random_generator_path(2, rng)),
                  p.transformed(lambda t: np.eye(4)),
                  ConstantPath(random_lagrangian_frame(2, rng)).transformed(lambda t: np.eye(4)),
                  p.reparametrized(lambda t: t * t),
                  FunctionPath(2, lambda t: p.frame_array(t)),
                  SampledPath(grid, p.frames(grid)),
                  direct_sum_paths(p, FunctionPath(1, lambda t: np.array([[1.0], [t]])))):
            assert q.generator() is None


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_det_squared_modulus_one(seed):
    rng = np.random.default_rng(seed)
    fr = random_lagrangian_frame(int(rng.integers(1, 4)), rng)
    assert abs(abs(unitary_det2(fr)) - 1.0) < 1e-10
