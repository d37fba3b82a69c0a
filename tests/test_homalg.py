import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maslovkit.errors import DimensionMismatchError, IncoherentSystemError, ShapeMismatchError
from maslovkit.homalg import (
    ChainMap,
    DirectedSystem,
    FilteredZ2Complex,
    Generator,
    check_square,
    direct_limit,
    gf2_eventual_rank,
    gf2_matmul,
    gf2_rank,
    identity_system,
    model_flow_system,
    zero_map_system,
)
from maslovkit.suites import homalg_suite, mutate_complex, random_filtered_complex


class TestGf2:
    def test_rank_identity(self):
        assert gf2_rank(np.eye(5, dtype=np.uint8)) == 5

    def test_rank_parity_trick(self):
        m = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=np.uint8)
        # rows sum to zero over GF(2), so the rank drops
        assert gf2_rank(m) == 2

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_rank_bounded_and_transpose_invariant(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.integers(0, 2, size=(int(rng.integers(1, 7)), int(rng.integers(1, 7))))
        r = gf2_rank(m)
        assert 0 <= r <= min(m.shape)
        assert r == gf2_rank(m.T)

    def test_rank_counts_distinct_row_combinations(self):
        # the rows span 2^rank distinct vectors: enumerate every XOR
        # combination of them
        rng = np.random.default_rng(47)
        for _ in range(300):
            m = rng.integers(0, 2, size=(int(rng.integers(1, 9)), int(rng.integers(1, 9))))
            m[:, rng.random(m.shape[1]) < 0.2] = 0
            signs = (np.arange(2 ** m.shape[0])[:, None] >> np.arange(m.shape[0])) & 1
            span = {row.tobytes() for row in (signs @ m) % 2}
            assert 2 ** gf2_rank(m) == len(span)

    def test_rank_of_block_bidiagonal(self):
        # identity blocks on the diagonal and random blocks above it, except
        # the last diagonal block, of rank 7: the first 19 block rows have
        # their pivots in distinct columns left of the last block column,
        # where the last block row is zero, so the rank is 190 + 7
        rng = np.random.default_rng(53)
        m = np.zeros((200, 200), dtype=np.uint8)
        for b in range(19):
            m[10 * b:10 * b + 10, 10 * b:10 * b + 10] = np.eye(10, dtype=np.uint8)
            m[10 * b:10 * b + 10, 10 * b + 10:10 * b + 20] = rng.integers(0, 2, size=(10, 10))
        m[190:, 190:] = np.diag([1] * 7 + [0] * 3)
        assert gf2_rank(m) == 197
        assert gf2_rank(m[rng.permutation(200)][:, rng.permutation(200)]) == 197

    def test_eventual_rank_nilpotent(self):
        n = np.zeros((3, 3), dtype=np.uint8)
        n[0, 1] = n[1, 2] = 1
        assert gf2_rank(n) == 2 and gf2_eventual_rank(n) == 0

    def test_eventual_rank_projection(self):
        p = np.diag([1, 1, 0]).astype(np.uint8)
        assert gf2_eventual_rank(p) == 2


class TestValidation:
    def test_zero_differential_passes(self):
        gens = [Generator("a", 0, 0.0), Generator("b", 1, 1.0)]
        assert FilteredZ2Complex(gens, []).validate().ok

    def test_textbook_non_complex(self):
        gens = [Generator("a", 0, 0.0), Generator("b", 1, 1.0), Generator("c", 2, 2.0)]
        rep = FilteredZ2Complex(gens, [("a", "b"), ("b", "c")]).validate()
        assert not rep.ok
        assert rep.d2_violations == [("a", "c")]

    def test_action_violation_named(self):
        gens = [Generator("x", 1, 1.0), Generator("y", 0, 2.0)]
        rep = FilteredZ2Complex(gens, [("y", "x")]).validate()
        assert not rep.ok
        assert rep.action_violations == [("y", "x")]
        assert rep.degree_violations == []

    def test_mutation_detection_is_complete(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            base = random_filtered_complex(rng)
            assert base.validate().ok
            assert not mutate_complex(base, rng).validate().ok


class TestHomology:
    def test_single_generator(self):
        c = FilteredZ2Complex([Generator("x", 6, 0.0)], [])
        assert c.homology() == {6: 1}

    def test_acyclic_pair(self):
        c = FilteredZ2Complex(
            [Generator("x", 1, 1.0), Generator("y", 0, 0.0)], [("y", "x")]
        )
        assert c.homology() == {}

    def test_direct_sum_additivity(self):
        rng = np.random.default_rng(23)
        for _ in range(15):
            a = random_filtered_complex(rng, n_gens=8)
            b = random_filtered_complex(rng, n_gens=6)
            b2 = FilteredZ2Complex.from_matrix(
                [Generator("q" + g.id, g.degree, g.action) for g in b.generators],
                b.d,
            )
            ha, hb = a.homology(), b2.homology()
            hsum = a.direct_sum(b2).homology()
            for deg in set(ha) | set(hb) | set(hsum):
                assert hsum.get(deg, 0) == ha.get(deg, 0) + hb.get(deg, 0)


def _random_chain_complex(rng, sizes):
    """Blocks d_k: C_k -> C_{k-1} with d_{k-1} d_k = 0, each column of d_k a
    random sum of vectors of ker d_{k-1} (found by enumeration)."""
    blocks = {0: np.zeros((0, sizes[0]), dtype=np.uint8)}
    for k in range(1, len(sizes)):
        kernel = [v for v in _all_vectors(sizes[k - 1]) if not np.any(blocks[k - 1] @ v % 2)]
        picks = rng.integers(0, 2, (sizes[k], len(kernel)))
        cols = [sum((kernel[j] for j in np.flatnonzero(p)), np.zeros(sizes[k - 1], dtype=int)) % 2
                for p in picks]
        blocks[k] = np.array(cols, dtype=np.uint8).reshape(sizes[k], sizes[k - 1]).T
    return blocks


def _all_vectors(n):
    return [np.array([(i >> b) & 1 for b in range(n)], dtype=int) for i in range(2 ** n)]


def _brute_force_homology(blocks, sizes):
    """log2 |ker d_k| - log2 |im d_{k+1}| per degree, by listing every vector."""
    out = {}
    for k, size in enumerate(sizes):
        kernel = sum(not np.any(blocks[k] @ v % 2) for v in _all_vectors(size))
        image = ({tuple(blocks[k + 1] @ v % 2) for v in _all_vectors(sizes[k + 1])}
                 if k + 1 < len(sizes) else {()})
        dim = int(np.log2(kernel)) - int(np.log2(len(image)))
        if dim:
            out[k] = dim
    return out


class TestHomologyBruteForce:
    def test_homology_matches_kernel_and_image_counts(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            sizes = [int(v) for v in rng.integers(0, 6, int(rng.integers(1, 5)))]
            blocks = _random_chain_complex(rng, sizes)
            degrees = np.repeat(np.arange(len(sizes)), sizes)
            order = rng.permutation(degrees.size)  # interleave the degrees
            start = np.concatenate([[0], np.cumsum(sizes)])
            d = np.zeros((degrees.size, degrees.size), dtype=np.uint8)
            for k in range(1, len(sizes)):
                d[start[k - 1]:start[k], start[k]:start[k + 1]] = blocks[k]
            gens = [Generator(f"g{i}", int(degrees[i]), float(degrees[i]) + rng.uniform(0, 0.5))
                    for i in order]
            c = FilteredZ2Complex.from_matrix(gens, d[np.ix_(order, order)])
            assert c.validate().ok
            assert c.homology() == _brute_force_homology(blocks, sizes), sizes


class TestSubquotient:
    def test_full_window_is_identity(self):
        rng = np.random.default_rng(31)
        c = random_filtered_complex(rng)
        sub = c.subquotient(-np.inf)
        assert np.all(sub.d == c.d)

    def test_empty_window(self):
        rng = np.random.default_rng(32)
        c = random_filtered_complex(rng)
        assert len(c.subquotient(1e9).generators) == 0

    def test_positive_action_window_isolates_inside_generators(self):
        # transfer-shaped toy data: inside chords carry positive action,
        # outside ones negative, with a cross differential map
        c = FilteredZ2Complex(
            [
                Generator("in0", 0, 0.1),
                Generator("in1", 1, 0.7),
                Generator("out0", 0, -201.0),
                Generator("out1", 1, -200.0),
            ],
            [("in0", "in1"), ("out0", "out1"), ("out0", "in1")],
        )
        assert c.validate().ok
        pos = c.subquotient(0.0)
        assert sorted(g.id for g in pos.generators) == ["in0", "in1"]
        assert pos.validate().ok
        assert pos.homology() == {}

    def test_les_rank_inequality(self):
        rng = np.random.default_rng(33)
        for _ in range(40):
            c = random_filtered_complex(rng, n_gens=12)
            a, b = sorted(rng.uniform(0, 10, size=2))
            hb = c.subquotient(-np.inf, b).homology()
            ha = c.subquotient(-np.inf, a).homology()
            hab = c.subquotient(a, b).homology()
            for deg in set(hb) | set(ha) | set(hab):
                assert hb.get(deg, 0) <= ha.get(deg, 0) + hab.get(deg, 0)

    def test_subquotient_well_defined_under_strictness(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            c = random_filtered_complex(rng, n_gens=12)
            a = float(rng.uniform(0, 10))
            sub = c.subquotient(a)
            assert not np.any(gf2_matmul(sub.d, sub.d))


class TestDirectLimit:
    def test_identity_chain(self):
        res = direct_limit(identity_system(10))
        assert res.dims == {0: 1} and res.stabilized[0]

    def test_zero_maps_collapse(self):
        res = direct_limit(zero_map_system(10))
        # every stage is eventually killed; the literal finite quotient keeps
        # the final stage alive, which is reported separately
        assert res.dims == {0: 0}
        assert res.finite_quotient_dims == {0: 1}

    def test_model_flow_vanishes_per_degree(self):
        res = direct_limit(model_flow_system(3, 9))
        for k in range(7):
            assert res.dims[3 * k] == 0

    def test_window_below_one_raises(self):
        for window in (0, -2):
            with pytest.raises(DimensionMismatchError, match="window must be at least 1"):
                direct_limit(identity_system(10), window=window)

    def test_windows_one_and_three(self):
        # (dims, stabilized degrees) per window; the finite quotient does not
        # depend on the window.  In the model flow the last map is 1 x 0 in
        # degree 16 and 0 x 1 in degree 14: not square, so even a window of 1
        # does not extrapolate there
        model = {2 * k: 0 for k in range(9)}
        cases = [(identity_system(10), {0: 1}, {1: ({0: 1}, {0}), 3: ({0: 1}, {0})}),
                 (zero_map_system(10), {0: 1}, {1: ({0: 0}, {0}), 3: ({0: 0}, {0})}),
                 (model_flow_system(2, 9), {**model, 16: 1},
                  {1: ({**model, 16: 1}, set(range(0, 14, 2))),
                   3: ({**model, 16: 1}, set(range(0, 12, 2)))})]
        for sys_, finite, by_window in cases:
            for window, (dims, stable) in by_window.items():
                res = direct_limit(sys_, window=window)
                assert res.dims == dims and res.finite_quotient_dims == finite
                assert {d for d, ok in res.stabilized.items() if ok} == stable
                assert set(res.stabilized) == set(finite)

    def test_finite_quotient_is_the_literal_quotient(self):
        # the quotient of the direct sum of the stages by the relations
        # e_i(v) + e_{i+1}(T_i v), built row by row and reduced by gf2_rank
        rng = np.random.default_rng(59)
        for _ in range(200):
            n_st = int(rng.integers(1, 7))
            degs = range(int(rng.integers(1, 4)))
            stages = [{d: int(rng.integers(0, 4)) for d in degs} for _ in range(n_st)]
            maps = [{d: rng.integers(0, 2, size=(stages[i + 1][d], stages[i][d])) for d in degs}
                    for i in range(n_st - 1)]
            res = direct_limit(DirectedSystem(stages, maps), window=int(rng.integers(1, 4)))
            for d in degs:
                sizes = [s_[d] for s_ in stages]
                offs = np.cumsum([0] + sizes)
                rels = []
                for i in range(n_st - 1):
                    for col in range(sizes[i]):
                        v = np.zeros(offs[-1], dtype=np.uint8)
                        v[offs[i] + col] = 1
                        v[offs[i + 1]:offs[i + 2]] ^= maps[i][d][:, col].astype(np.uint8)
                        rels.append(v)
                rank = gf2_rank(np.array(rels)) if rels else 0
                assert res.finite_quotient_dims[d] == offs[-1] - rank

    def test_window_one_without_a_square_last_map(self):
        # a non-square last map, or no map at all, is not a stable tail:
        # the limit is the finite quotient, the last stage
        widen = DirectedSystem([{0: 1}, {0: 2}], [{0: np.array([[1], [0]])}])
        for sys_ in (widen, DirectedSystem([{0: 2}], [])):
            res = direct_limit(sys_, window=1)
            assert res.dims == {0: 2} and res.finite_quotient_dims == {0: 2}
            assert res.stabilized == {0: False}

    def test_cofinal_subsequence(self):
        rng = np.random.default_rng(41)
        stages = [{0: 2} for _ in range(8)]
        maps = [{0: rng.integers(0, 2, size=(2, 2)).astype(np.uint8)} for _ in range(7)]
        sys_full = DirectedSystem(stages, maps)
        sub = sys_full.subsampled([0, 2, 5, 7])
        assert direct_limit(sub).finite_quotient_dims == \
            direct_limit(sys_full).finite_quotient_dims

    def test_isomorphism_chain_keeps_dimension(self):
        rng = np.random.default_rng(43)
        mats = []
        while len(mats) < 5:
            m = rng.integers(0, 2, size=(3, 3)).astype(np.uint8)
            if gf2_rank(m) == 3:
                mats.append(m)
        sys_ = DirectedSystem([{0: 3}] * 6, [{0: m} for m in mats])
        assert direct_limit(sys_).dims == {0: 3}

    def test_coherence_error(self):
        one = np.array([[1]], dtype=np.uint8)
        zero = np.array([[0]], dtype=np.uint8)
        sys_ = DirectedSystem([{0: 1}] * 3, [{0: one}] * 2,
                              long_maps={(0, 2): {0: zero}})
        with pytest.raises(IncoherentSystemError):
            direct_limit(sys_)

    def test_json_roundtrip(self):
        sys_ = model_flow_system(2, 5)
        again = DirectedSystem.from_json(json.loads(json.dumps(sys_.to_json())))
        assert direct_limit(again).dims == direct_limit(sys_).dims


class TestChainMaps:
    def test_identity_square_commutes(self):
        rng = np.random.default_rng(51)
        c = random_filtered_complex(rng)
        i = ChainMap.identity(c)
        assert check_square(i, i, i, i)

    def test_perturbed_square_fails(self):
        rng = np.random.default_rng(52)
        c = random_filtered_complex(rng)
        i = ChainMap.identity(c)
        m = np.eye(len(c.generators), dtype=np.uint8)
        m[0, 0] = 0
        assert not check_square(i, i, i, ChainMap.from_matrix(c, c, m))

    def test_shape_mismatch_raises(self):
        rng = np.random.default_rng(53)
        c1 = random_filtered_complex(rng, n_gens=6)
        c2 = random_filtered_complex(rng, n_gens=7)
        with pytest.raises(ShapeMismatchError):
            ChainMap.from_matrix(c1, c2, np.eye(6, dtype=np.uint8))

    def test_composition_associative(self):
        rng = np.random.default_rng(54)
        c = random_filtered_complex(rng, n_gens=8)
        n = len(c.generators)

        def random_degree_preserving():
            m = np.zeros((n, n), dtype=np.uint8)
            for i in range(n):
                for j in range(n):
                    if c.generators[i].degree == c.generators[j].degree:
                        m[i, j] = rng.integers(0, 2)
            return ChainMap.from_matrix(c, c, m)

        f, g, h = (random_degree_preserving() for _ in range(3))
        left = h.compose(g).compose(f)
        right = h.compose(g.compose(f))
        assert np.all(left.matrix == right.matrix)

    def test_monotone_composition_stays_monotone(self):
        rng = np.random.default_rng(55)
        c = random_filtered_complex(rng)
        a = ChainMap.identity(c)
        a.monotone = True
        b = ChainMap.identity(c)
        b.monotone = True
        comp = b.compose(a)
        assert comp.monotone
        comp.validate()

    def test_supplied_triple_composes(self):
        # a user-supplied continuation triple must satisfy the matrix identity
        rng = np.random.default_rng(56)
        c = random_filtered_complex(rng)
        f12 = ChainMap.identity(c)
        f23 = ChainMap.identity(c)
        f13 = ChainMap.identity(c)
        assert np.all(f23.compose(f12).matrix == f13.matrix)

    @staticmethod
    def _two_step_complex():
        # generators x, y, x2, y2 (in that order); the only differential is d x = y
        return FilteredZ2Complex(
            [Generator("x", 1, 1.0), Generator("y", 0, 0.0), Generator("x2", 1, 2.0),
             Generator("y2", 0, 0.5)],
            [("y", "x")],
        )

    def test_non_identity_chain_map_accepted(self):
        # x -> x2 alone: Phi d = 0 (Phi y = 0) and d Phi = 0 (d x2 = 0), a chain map
        c = self._two_step_complex()
        m = np.zeros((4, 4), dtype=np.uint8)
        m[2, 0] = 1
        ChainMap.from_matrix(c, c, m).validate()

    def test_chain_condition_enforced(self):
        c = self._two_step_complex()
        m = np.zeros((4, 4), dtype=np.uint8)
        m[2, 0] = 1  # x -> x2
        m[3, 1] = 1  # y -> y2: Phi d x = y2, but d Phi x = d x2 = 0
        bad = ChainMap.from_matrix(c, c, m)
        with pytest.raises(ShapeMismatchError, match="commute"):
            bad.validate()

    def test_json_roundtrip(self):
        rng = np.random.default_rng(57)
        c = random_filtered_complex(rng, n_gens=6)
        m = ChainMap.identity(c)
        again = ChainMap.from_json(json.loads(json.dumps(m.to_json())))
        assert np.all(again.matrix == m.matrix)


def test_complex_json_roundtrip():
    rng = np.random.default_rng(61)
    c = random_filtered_complex(rng)
    again = FilteredZ2Complex.from_json(json.loads(json.dumps(c.to_json())))
    assert np.all(again.d == c.d)
    assert again.homology() == c.homology()


def test_homalg_suite_passes():
    r = homalg_suite(seed=0, mutations=20)
    assert r.passed, r.failures[:5]
