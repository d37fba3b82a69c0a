import math
import warnings

import numpy as np
import pytest

from maslovkit import handle, suites
from maslovkit.errors import DimensionMismatchError, MaslovkitError
from maslovkit.handle import (
    ROOT_TOL,
    CutoffG,
    GridSpec,
    HandleParams,
    ambient_omega,
    hamiltonian_fields,
    liouville_field,
    liouville_flow,
    liouville_form,
    lyapunov_derivative,
    potentials,
    potentials_xyz,
    quadratic_model_path,
    transversality_certificate,
)
from maslovkit.suites import (
    handle_certification_suite,
    handle_identity_suite,
    slope_identity_suite,
)

PARAMS = HandleParams(n=2, k=1, epsilon=0.1, delta=0.05)


class TestParams:
    def test_critical_index_rejected(self):
        with pytest.raises(DimensionMismatchError):
            HandleParams(n=2, k=2, epsilon=0.1, delta=0.05)

    def test_negative_sizes_rejected(self):
        with pytest.raises(MaslovkitError):
            HandleParams(n=2, k=1, epsilon=-0.1, delta=0.05)

    @pytest.mark.parametrize("eps,delta", [(math.nan, 0.05), (0.1, math.nan),
                                           (math.inf, 0.05), (0.1, math.inf)])
    def test_non_finite_sizes_rejected(self, eps, delta):
        with pytest.raises(MaslovkitError, match="positive and finite"):
            HandleParams(n=2, k=1, epsilon=eps, delta=delta)


class TestPotentials:
    def test_origin(self):
        pot = potentials([0, 0, 0, 0], PARAMS)
        assert pot["x"] == pot["y"] == pot["z"] == pot["phi"] == 0.0
        # the deformed function misses the undeformed level at the origin
        assert pot["psi_delta"] == pytest.approx(-(1 + PARAMS.epsilon), abs=1e-15)

    def test_sphere_point(self):
        # x = z = 0, y = 1 sits on the -1 level of phi
        pot = potentials([0, 2, 0, 0], PARAMS)
        assert pot["y"] == pytest.approx(1.0) and pot["x"] == pot["z"] == 0.0
        assert pot["phi"] == pytest.approx(-1.0)

    def test_y_coordinate_quarter_weight(self):
        pot = potentials([0, 2, 0, 0], PARAMS)
        assert pot["phi"] == pytest.approx(-1.0)
        assert pot["lyapunov"] == 0.0

    def test_dimension_mismatch(self):
        # every function of a point goes through the same shape and finiteness check
        coeffs = {"Cx": 1.0, "Cy": 1.0, "Cz": 1.0}
        fns = [potentials, liouville_field, liouville_form, hamiltonian_fields,
               lambda p, params: liouville_flow(p, 0.5, params),
               lambda p, params: lyapunov_derivative(p, coeffs, params)]
        for fn in fns:
            for bad in ([0, 0, 0], np.zeros((2, 3)), np.zeros(5), np.zeros(6), 1.0):
                with pytest.raises(DimensionMismatchError,
                                   match="expected 4 coordinates, got shape"):
                    fn(bad, PARAMS)
            for bad in ([0.0, np.nan, 0.0, 0.0], [[0.0, 0.0, 0.0, 0.0], [np.inf, 0.0, 0.0, 0.0]]):
                with pytest.raises(MaslovkitError, match="coordinates must be finite"):
                    fn(bad, PARAMS)

    def test_point_array_matches_scalar_calls(self):
        params = HandleParams(n=4, k=2, epsilon=0.05, delta=0.01)
        pts = np.random.default_rng(3).normal(size=(3, 5, 8), scale=1.5)
        ts = np.linspace(-1.0, 1.0, 15).reshape(3, 5)
        coeffs = {"Cx": np.linspace(0.5, 2.0, 5), "Cy": 1.5, "Cz": 0.25}
        got = potentials(pts, params)
        fields = hamiltonian_fields(pts, params)
        array_calls = [(liouville_field(pts, params), lambda p: liouville_field(p, params)),
                       (liouville_form(pts, params), lambda p: liouville_form(p, params)),
                       (liouville_flow(pts, 0.7, params), lambda p: liouville_flow(p, 0.7, params))]
        flowed = liouville_flow(pts, ts, params)
        lyap = lyapunov_derivative(pts, coeffs, params)
        assert flowed.shape == pts.shape and lyap.shape == (3, 5)
        for i, j in np.ndindex(3, 5):
            one = potentials(pts[i, j], params)
            assert all(type(v) is float for v in one.values())
            for key, v in one.items():
                assert got[key].shape == (3, 5) and got[key][i, j] == v, key
            for key, v in hamiltonian_fields(pts[i, j], params).items():
                assert fields[key].shape == pts.shape and np.array_equal(fields[key][i, j], v)
            for whole, per_point in array_calls:
                assert whole.shape == pts.shape
                assert np.array_equal(whole[i, j], per_point(pts[i, j]))
            assert np.array_equal(flowed[i, j], liouville_flow(pts[i, j], ts[i, j], params))
            one_coeffs = {"Cx": coeffs["Cx"][j], "Cy": 1.5, "Cz": 0.25}
            one_lyap = lyapunov_derivative(pts[i, j], one_coeffs, params)
            assert type(one_lyap) is float and lyap[i, j] == one_lyap


class TestCutoff:
    @pytest.mark.parametrize("eps", [0.1, 0.05, 0.01])
    def test_knot_values_exact(self, eps):
        g = CutoffG(eps)
        assert g(1.0) == pytest.approx(1.0 / (1.0 + 2 * eps), abs=1e-15)
        assert g(0.3) == pytest.approx(0.3 / (1.0 + 2 * eps), abs=1e-15)
        assert g(1.0 + 3 * eps) == pytest.approx(1.0, abs=1e-14)
        assert g(5.0) == 1.0

    @pytest.mark.parametrize("eps", [0.1, 0.05, 0.01])
    def test_derivative_bound_global(self, eps):
        g = CutoffG(eps)
        ts = np.linspace(-2, 3, 40001)
        gp = g.prime(ts)
        assert np.all(gp >= 0)
        assert np.all(gp <= 1.0 / (1.0 + 2 * eps) + 1e-15)

    def test_psi_equals_phi_where_g_saturates(self):
        # on {y + (x+z)/delta >= 1+3eps} the cut-off is 1 and psi == phi
        pts = [[0.5, 3.0, 0.2, 0.1], [1.0, 4.0, 0.0, 0.0]]
        for c in pts:
            pot = potentials(c, PARAMS)
            arg = pot["y"] + (pot["x"] + pot["z"]) / PARAMS.delta
            assert arg >= 1 + 3 * PARAMS.epsilon
            assert pot["psi_delta"] == pytest.approx(pot["phi"], abs=1e-12)

    def test_psi_phi_difference_in_linear_region(self):
        # where the cut-off is linear the difference has the closed form
        # -(1+eps) + (1+eps) (y + (x+z)/delta) / (1+2eps)
        e, d = PARAMS.epsilon, PARAMS.delta
        for c in ([0.0, 0.1, 0.01, 0.0], [0.01, 0.0, 0.0, 0.01]):
            pot = potentials(c, PARAMS)
            arg = pot["y"] + (pot["x"] + pot["z"]) / d
            assert arg <= 1.0
            want = -(1 + e) + (1 + e) * arg / (1 + 2 * e)
            assert pot["psi_delta"] - pot["phi"] == pytest.approx(want, abs=1e-14)


class TestFields:
    def test_liouville_field_at_origin(self):
        assert np.allclose(liouville_field([0, 0, 0, 0], PARAMS), 0.0)

    def test_liouville_field_handle_direction(self):
        assert np.allclose(liouville_field([1, 0, 0, 0], PARAMS), [1.5, 0, 0, 0])

    def test_rotation_field_transverse_plane(self):
        f = hamiltonian_fields([0, 0, 1, 0], PARAMS)
        assert np.allclose(f["Xz"], [0, 0, 0, 0.5])

    def test_fields_are_hamiltonian(self):
        # i_{X_f} omega = -df for each potential, finite-difference df
        rng = np.random.default_rng(0)
        omega = ambient_omega(PARAMS)
        h = 1e-6
        for _ in range(50):
            c = rng.normal(size=4)
            f = hamiltonian_fields(c, PARAMS)
            for name, idx in (("Xx", "x"), ("Xy", "y"), ("Xz", "z")):
                grad = np.zeros(4)
                for i in range(4):
                    e = np.zeros(4)
                    e[i] = h
                    grad[i] = (
                        potentials(c + e, PARAMS)[idx] - potentials(c - e, PARAMS)[idx]
                    ) / (2 * h)
                assert np.allclose(f[name] @ omega, -grad, atol=1e-8)


class TestFlow:
    def test_time_zero_identity(self):
        p = np.array([0.3, -1.0, 2.0, 0.5])
        assert np.allclose(liouville_flow(p, 0.0, PARAMS), p)

    def test_closed_form_scalings(self):
        q = liouville_flow([1, 1, 1, 1], 2 * math.log(2), PARAMS)
        assert np.allclose(q, [8.0, 0.5, 2.0, 2.0], atol=1e-12)

    def test_group_law(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            p = rng.normal(size=4)
            s, t = rng.uniform(-2, 2, size=2)
            a = liouville_flow(liouville_flow(p, s, PARAMS), t, PARAMS)
            b = liouville_flow(p, s + t, PARAMS)
            assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(b)))

    def test_non_finite_time_and_overflow_raise_without_warning(self):
        p = np.array([1.0, 2.0, 3.0, 4.0])
        cases = [(p, np.nan, "time must be finite"), (p, np.inf, "time must be finite"),
                 (p, [0.0, -np.inf], "time must be finite"), (p, 1e6, "float range"),
                 (p, -1e6, "float range"), (np.full(4, 1e300), 20.0, "float range")]
        for point, t, msg in cases:
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                with pytest.raises(MaslovkitError, match=msg):
                    liouville_flow(point, t, PARAMS)
            assert seen == [], (t, [str(w.message) for w in seen])

    def test_zero_coordinate_stays_zero_under_a_large_scaling(self):
        # e^{3t/2} overflows at t = 1000, but the handle x is 0 and stays 0
        q = liouville_flow([0.0, 1.0, 1.0, 1.0], 1000.0, PARAMS)
        assert q[0] == 0.0
        assert np.allclose(q[1:], [math.exp(-500.0), math.exp(500.0), math.exp(500.0)], rtol=1e-12)


class TestLyapunov:
    def test_vanishes_on_rotation_locus(self):
        coeffs = {"Cx": 1.0, "Cy": 2.0, "Cz": 3.0}
        assert lyapunov_derivative([0, 0, 1.0, -2.0], coeffs, PARAMS) == 0.0

    def test_handle_plane_value(self):
        # x potential = 3/4 at (1,0,0,0); the derivative is 2 Cx x = 3/2
        coeffs = {"Cx": 1.0, "Cy": 1.0, "Cz": 1.0}
        assert lyapunov_derivative([1, 0, 0, 0], coeffs, PARAMS) == pytest.approx(1.5)

    def test_against_field_gradient_oracle(self):
        rng = np.random.default_rng(9)
        params = HandleParams(n=3, k=2, epsilon=0.1, delta=0.05)
        for _ in range(1000):
            c = rng.normal(size=6)
            coeffs = {
                "Cx": float(rng.uniform(0.1, 3)),
                "Cy": float(rng.uniform(0.1, 3)),
                "Cz": float(rng.uniform(0.1, 3)),
            }
            f = hamiltonian_fields(c, params)
            xh = coeffs["Cx"] * f["Xx"] - coeffs["Cy"] * f["Xy"] + coeffs["Cz"] * f["Xz"]
            grad_l = np.zeros(6)
            grad_l[:2] = c[2:4]
            grad_l[2:4] = c[:2]
            want = float(grad_l @ xh)
            got = lyapunov_derivative(c, coeffs, params)
            assert abs(want - got) < 1e-12 * max(1.0, abs(want))

    def test_positive_coefficients_required(self):
        with pytest.raises(MaslovkitError):
            lyapunov_derivative([1, 0, 0, 0], {"Cx": -1.0, "Cy": 1.0, "Cz": 1.0}, PARAMS)
        # one bad coefficient among an array's, and NaN, are refused too
        for coeffs in ({"Cx": [1.0, -1.0], "Cy": 1.0, "Cz": 1.0},
                       {"Cx": 1.0, "Cy": math.nan, "Cz": 1.0}):
            with pytest.raises(MaslovkitError, match="positive"):
                lyapunov_derivative([[1, 0, 0, 0]] * 2, coeffs, PARAMS)


def model_flow(z0, k: int, t: float) -> np.ndarray:
    """Psi(t) of `quadratic_model_path` applied to the points z0 of C^n."""
    z0 = np.asarray(z0, dtype=complex)
    n = len(z0)
    v = quadratic_model_path(n, k).matrix(t) @ np.concatenate([z0.real, z0.imag])
    return v[:n] + 1j * v[n:]


class TestQuadraticModelFlow:
    """The model flow is componentwise multiplication by e^{i (k+1/2) pi t}."""

    def test_identity_at_zero(self):
        z = np.array([1 + 2j, 0.5])
        assert np.allclose(model_flow(z, 3, 0.0), z)

    def test_horizontal_to_vertical(self):
        got = model_flow(np.array([1.0 + 0j]), 0, 1.0)
        assert np.allclose(got, [1j], atol=1e-15)

    def test_three_half_turns(self):
        got = model_flow(np.array([1.0 + 0j]), 1, 1.0)
        assert np.allclose(got, [np.exp(3j * np.pi / 2)], atol=1e-15)
        assert np.allclose(got, [-1j], atol=1e-12)


def _dense_scan_certificate(params, gs):
    """`transversality_certificate(...).to_json()` from a scan of the grid
    rows of every column at its own (x, z): each column's bracket is its first
    row with psi + 1 <= 0, found one row at a time on the columns still open;
    a column crosses when that row is not the first."""
    res, e, d = gs.resolution, params.epsilon, params.delta
    if res < 2:
        raise MaslovkitError("empty grid intersection: a bracket needs two rows")
    ys = np.linspace(0.0, gs.y_max, res)
    xg, zg = np.meshgrid(np.linspace(0.0, gs.x_max, res),
                         np.linspace(0.0, gs.z_max, res), indexing="ij")
    xg, zg = xg.ravel(), zg.ravel()
    first_neg = np.full(xg.size, -1)
    for i, y in enumerate(ys):
        open_ = np.flatnonzero(first_neg < 0)
        first_neg[open_[potentials_xyz(xg[open_], y, zg[open_], params) + 1.0 <= 0]] = i
    cols = np.nonzero(first_neg > 0)[0]
    if cols.size == 0:
        raise MaslovkitError("empty grid intersection (dense scan)")
    lo, hi = ys[first_neg[cols] - 1], ys[first_neg[cols]]
    x, z = xg[cols], zg[cols]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        neg = potentials_xyz(x, mid, z, params) + 1.0 <= 0
        hi, lo = np.where(neg, mid, hi), np.where(neg, lo, mid)
    y = 0.5 * (lo + hi)
    keep = np.sqrt(x**2 + y**2 + z**2) >= 1e-6
    x, y, z = x[keep], y[keep], z[keep]
    gp = params.cutoff.prime(y + (x + z) / d)
    radial = 1.0 + (1.0 + e) * gp / d
    value = radial * 3.0 * x - (-1.0 + (1.0 + e) * gp) * y + radial * z
    low = float(value.min())
    w = min((float(x[i]), float(y[i]), float(z[i]))
            for i in np.nonzero(value == low)[0])
    return {"schema": "v1", "params": {"epsilon": e, "delta": d},
            "grid": {"resolution": res, "box": [gs.x_max, gs.y_max, gs.z_max]},
            "min_value": low, "witness_point": list(w),
            "n_surface_points": int(x.size), "pass": low > 0.0}


class TestTransversality:
    def test_default_parameters_pass(self):
        cert = transversality_certificate(PARAMS)
        assert cert.passed and cert.min_value > 0
        assert cert.n_surface_points > 1000

    def test_positive_y_points_positive(self):
        # any surface point with x = z = 0 has value (1 - (1+eps) g') y > 0
        e, d = PARAMS.epsilon, PARAMS.delta
        g = PARAMS.cutoff
        y = 1.0  # the sphere locus
        gp = g.prime(y / 1.0 + 0.0)
        assert (1 - (1 + e) * gp) * y > 0

    def test_empty_intersection_errors(self):
        empty = [GridSpec(resolution=5, x_max=1e-9, y_max=1e-9, z_max=1e-9),
                 GridSpec(resolution=1), GridSpec(resolution=0)]
        for gs in empty:
            with pytest.raises(MaslovkitError, match="empty grid intersection"):
                transversality_certificate(PARAMS, gs)
            with pytest.raises(MaslovkitError, match="empty grid intersection"):
                _dense_scan_certificate(PARAMS, gs)

    @pytest.mark.parametrize("eps,delta", [(0.1, 0.05), (0.1, 0.01),
                                           (0.05, 0.05), (0.05, 0.01)])
    def test_newton_matches_dense_scan(self, eps, delta):
        # psi_delta of the potentials does not depend on (n, k): one dense
        # scan per grid serves all three handle shapes.  The box of side 0.2
        # puts the witness in the top grid cell of its column.  The boxes
        # with x_max != z_max give columns of one s = x + z at different
        # (x, z), which the certificate tests once at (s, y, 0) and the scan
        # at each column's own point; their y_max is above every root, which
        # is at most s + 1 as g <= 1, so no root sits on the top row, where
        # the two may decide a column differently at rounding level.
        # Newton's surface points are roots to ROOT_TOL, so the values agree
        # to that tolerance.
        grids = [GridSpec(resolution=res) for res in (7, 50, 200)]
        for gs in grids + [GridSpec(7, x_max=0.2, y_max=1.2, z_max=0.2),
                           GridSpec(50, x_max=1.3, y_max=3.0, z_max=0.4),
                           GridSpec(301, x_max=0.6, y_max=2.9, z_max=1.1)]:
            want = _dense_scan_certificate(HandleParams(2, 1, eps, delta), gs)
            assert ROOT_TOL * max(1.0, want["min_value"]) < 1e-9 * want["min_value"]
            for n, k in [(2, 1), (4, 2), (5, 4)]:
                params = HandleParams(n=n, k=k, epsilon=eps, delta=delta)
                got = transversality_certificate(params, gs).to_json()
                for key in ("schema", "params", "grid", "n_surface_points", "pass"):
                    assert got[key] == want[key], (key, n, k, gs)
                for a, b in zip([got["min_value"]] + got["witness_point"],
                                [want["min_value"]] + want["witness_point"]):
                    assert abs(a - b) <= ROOT_TOL * max(1.0, abs(b)), (n, k, gs)

    @pytest.mark.parametrize("eps,delta", [(0.1, 0.05), (0.1, 0.01),
                                           (0.05, 0.05), (0.05, 0.01)])
    def test_closed_form_regions(self, eps, delta):
        # With s = x + z, the root of psi_delta + 1 in y has a closed form
        # where g does: y = s + 1 where g = 1 (argument >= 1+3eps), and
        #   y = [s (1+2eps + (1+eps)/delta) - eps (1+2eps)] / eps
        # where g is linear (argument <= 1+eps).  A resolution-2 box whose
        # x (or z) side is s has one crossing column pair, (s, 0) (or (0, s)),
        # so its witness is that column's surface point.
        e, d = eps, delta
        c = 1.0 + 2.0 * e + (1.0 + e) / d
        s_lin = (e * (1.0 + 2.0 * e) / c, (2.0 + 3.0 * e) / (c / e + 1.0 / d))
        s_sat = 3.0 * e / (1.0 + 1.0 / d)  # from here on the root has g = 1
        linear = [(s, (s * c - e * (1.0 + 2.0 * e)) / e)
                  for s in np.linspace(*s_lin, 8)[1:-1]]  # the band's inside
        saturated = [(s, s + 1.0) for s in np.linspace(1.001 * s_sat, 1.99, 9)]
        params = HandleParams(2, 1, e, d)
        for s, y in linear + saturated:
            arg = y + s / d
            assert arg <= 1.0 + e if y < s + 1.0 else arg >= 1.0 + 3.0 * e
            for box, point in (((s, 3.0, 0.0), (s, y, 0.0)), ((0.0, 3.0, s), (0.0, y, s))):
                cert = transversality_certificate(params, GridSpec(2, *box))
                assert cert.n_surface_points == 2
                for a, b in zip(cert.witness_point, point):
                    assert abs(a - b) <= ROOT_TOL * max(1.0, abs(b)), (s, box)

    def test_grid_needs_a_non_negative_resolution_and_a_finite_box(self):
        with pytest.raises(DimensionMismatchError, match="non-negative"):
            GridSpec(resolution=-5)
        for box in ((math.nan, 3.0, 1.0), (1.0, math.inf, 1.0), (1.0, 3.0, -math.inf)):
            with pytest.raises(MaslovkitError, match="finite"):
                GridSpec(50, *box)

    def test_unsettled_column_raises(self, monkeypatch):
        # one Newton step settles no column whose root is below the top row
        monkeypatch.setattr(handle, "ROOT_STEPS", 1)
        with pytest.raises(MaslovkitError, match="unresolved"):
            transversality_certificate(PARAMS, GridSpec(resolution=50))

    def test_newton_settles_in_few_steps(self, monkeypatch):
        # bisection to ROOT_TOL would need about 45 steps per column
        monkeypatch.setattr(handle, "ROOT_STEPS", 8)
        for eps, delta in [(0.1, 0.05), (0.1, 0.01), (0.05, 0.05), (0.05, 0.01)]:
            for res in (50, 100, 150, 200):
                params = HandleParams(n=2, k=1, epsilon=eps, delta=delta)
                assert transversality_certificate(params, GridSpec(res)).passed

    def test_stalled_newton_falls_back_to_bisection(self):
        # small eps makes |f_y| ~ 1.5e-3, so rounding in f moves Newton's
        # steps by ~1e-13 near the root and Newton alone never settles here;
        # the root itself is only that well conditioned, hence 1e-12
        params = HandleParams(2, 1, 0.0015, 1.15)
        gs = GridSpec(9, x_max=0.0033, y_max=100.0, z_max=0.0014)
        got = transversality_certificate(params, gs).to_json()
        want = _dense_scan_certificate(params, gs)
        assert (got["n_surface_points"], got["pass"]) == (want["n_surface_points"], want["pass"])
        for a, b in zip([got["min_value"]] + got["witness_point"],
                        [want["min_value"]] + want["witness_point"]):
            assert abs(a - b) <= 1e-12

    def test_json_shape(self):
        cert = transversality_certificate(PARAMS, GridSpec(resolution=20))
        obj = cert.to_json()
        assert obj["schema"] == "v1" and obj["pass"] is True
        assert len(obj["witness_point"]) == 3


def test_identity_suite_passes():
    r = handle_identity_suite(seed=0, points=200)
    assert r.passed, r.failures[:5]


def test_identity_suite_names_the_points_of_a_wrong_liouville_form(monkeypatch):
    # lambda off by 1e-6 at the points whose first coordinate exceeds 2; the
    # points come from the suite's own stream: per point c, t, v, s2, then Cx, Cy, Cz
    def wrong_form(p, params):
        p = np.asarray(p)
        return liouville_form(p, params) + 1e-6 * (p[..., :1] > 2.0)

    monkeypatch.setattr(suites, "liouville_form", wrong_form)
    rng = np.random.default_rng(4)
    want = []
    for i in range(300):
        if rng.normal(size=6, scale=1.5)[0] > 2.0:
            want.append(f"point {i}: i_X omega != lambda")
        rng.uniform(), rng.normal(size=6), rng.uniform(), rng.uniform(size=3)
    assert len(want) > 5
    got = handle_identity_suite(seed=4, points=300).failures
    assert [f for f in got if f.endswith("i_X omega != lambda")] == want
    # lines are ordered by point, then by check
    checks = ["i_X omega != lambda", "X != grad phi", "flow does not scale the form by e^t",
              "flow group law broke", "lyapunov derivative mismatch"]
    keys = [(int(f.split(":")[0].split()[1]), checks.index(f.split(": ", 1)[1])) for f in got]
    assert keys == sorted(keys) and len(set(k for _, k in keys)) > 1


def test_certification_suite_passes():
    r = handle_certification_suite(resolution=30)
    assert r.passed, r.failures


def test_slope_identity_suite_passes():
    r = slope_identity_suite()
    assert r.passed, r.failures[:5]
