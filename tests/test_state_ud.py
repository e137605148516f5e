import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from approxud import state_ud as su
from approxud.qmath import DensityMatrix, StateEnsemble, fidelity, random_density_matrix
from approxud.sdp import ToleranceVector, conditional_errors, p_fail_of, solve_min_fail

RNG = np.random.default_rng(512)

HELSTROM_TOL_03 = (1 - np.sqrt(0.91)) / 2  # symmetric tolerance closing the window at xi=0.3


def pure_pair_ensemble(xi, prior_p=0.5, dim=2):
    pv = np.zeros(dim)
    qv = np.zeros(dim)
    pv[0] = 1.0
    qv[0], qv[1] = xi, np.sqrt(1 - xi**2)
    return StateEnsemble(
        (
            DensityMatrix(np.outer(pv, pv).astype(complex)),
            DensityMatrix(np.outer(qv, qv).astype(complex)),
        ),
        np.array([prior_p, 1 - prior_p]),
    )


class TestOverlapWindow:
    def test_zero_tolerances(self):
        assert su.overlap_window(0.0, 0.0) == (0.0, 0.0)

    def test_symmetric_tolerances(self):
        lo, hi = su.overlap_window(0.2, 0.2)
        assert lo == pytest.approx(0.0, abs=1e-15)
        assert hi == pytest.approx(2 * np.sqrt(0.2 * 0.8), abs=1e-12)

    def test_asymmetric_arithmetic(self):
        lo, hi = su.overlap_window(0.1, 0.2)
        a, b = np.sqrt(0.1 * 0.8), np.sqrt(0.2 * 0.9)
        assert lo == pytest.approx(abs(a - b), abs=1e-12)
        assert hi == pytest.approx(a + b, abs=1e-12)
        assert hi == pytest.approx(0.7071067811865476, abs=1e-9)
        assert lo == pytest.approx(0.14142135623730948, abs=1e-9)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            su.overlap_window(-0.1, 0.2)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0, 1), st.floats(0, 1))
    def test_ordering_and_range(self, ep, eq):
        lo, hi = su.overlap_window(ep, eq)
        assert 0.0 <= lo <= hi <= 1.0 + 1e-12


class TestPurePairSolution:
    def test_symmetric_zero_tolerance(self):
        assert su.pure_pair_pf(0.3, 0.0, 0.0) == pytest.approx(0.3, abs=1e-9)

    def test_zero_fail_at_window_closing_tolerance(self):
        assert su.pure_pair_pf(0.3, HELSTROM_TOL_03, HELSTROM_TOL_03) == pytest.approx(0.0, abs=1e-9)

    def test_solution_invariants(self):
        prob = su.BinaryPureProblem(0.45, 1 / 3, 2 / 3, 0.07, 0.02)
        sol = su.solve_pure_pair(prob)
        recon = prob.prior_p * np.sin(sol.beta) ** 2 + prob.prior_q * np.sin(sol.delta) ** 2
        assert sol.p_fail == pytest.approx(recon, abs=1e-9)
        w = su.overlap_window(prob.eps_p, prob.eps_q)[1]
        fplus = np.sin(sol.beta) * np.sin(sol.delta) + w * np.cos(sol.beta) * np.cos(sol.delta)
        assert fplus >= prob.xi - 1e-9

    def test_asymmetric_prior_matches_sdp(self):
        for xi in (0.3, 0.6):
            for prior_p in (1 / 3, 0.25):
                ens = pure_pair_ensemble(xi, prior_p)
                for eps in ((0.0, 0.0), (0.1, 0.05), (0.0, 0.2)):
                    sdp = solve_min_fail(ens, ToleranceVector(np.array(eps), "R")).p_fail
                    g = su.pure_pair_pf(xi, eps[0], eps[1], prior_p, 1 - prior_p)
                    assert g == pytest.approx(sdp, abs=1e-5), (xi, prior_p, eps)

    def test_nearly_identical_states_abstain(self):
        val = su.pure_pair_pf(1 - 1e-9, 0.05, 0.05)
        assert val == pytest.approx(1.0, abs=1e-3)

    def test_vacuous_tolerances_cost_nothing(self):
        assert su.pure_pair_pf(0.9, 0.7, 0.5) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(0.05, 0.95),
        st.floats(0, 0.9),
        st.floats(0, 0.9),
        st.floats(0.05, 0.45),
        st.floats(0.01, 0.3),
    )
    def test_monotonicity(self, xi, ep, eq, widen, prior_shift):
        p = 0.5 - prior_shift
        base = su.pure_pair_pf(xi, ep, eq, p, 1 - p)
        wider = su.pure_pair_pf(xi, min(1, ep + widen), eq, p, 1 - p)
        assert wider <= base + 1e-8
        wider_q = su.pure_pair_pf(xi, ep, min(1, eq + widen), p, 1 - p)
        assert wider_q <= base + 1e-8
        if xi + 0.04 < 1:
            higher_overlap = su.pure_pair_pf(xi + 0.04, ep, eq, p, 1 - p)
            assert higher_overlap >= base - 1e-8

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.05, 0.95), st.floats(0, 1), st.floats(0, 1))
    def test_batch_matches_scalar(self, xi, ep, eq):
        batch = su.pure_pair_pf_batch(xi, np.array([ep]), np.array([eq]), 1 / 3, 2 / 3)
        scalar = su.pure_pair_pf(xi, ep, eq, 1 / 3, 2 / 3)
        assert batch[0] == pytest.approx(scalar, abs=1e-10)

    @settings(max_examples=150, deadline=None)
    @given(st.floats(0.02, 0.98), st.floats(0, 1), st.floats(0, 1), st.floats(0.02, 0.98), st.booleans())
    def test_kernel_against_dense_grid(self, xi, ep, eq, p, equal):
        p = 0.5 if equal else p
        q = 1 - p
        sol = su.solve_pure_pair(su.BinaryPureProblem(xi, p, q, ep, eq))
        w = 1.0 if ep + eq >= 1 else np.sqrt(ep * (1 - eq)) + np.sqrt(eq * (1 - ep))

        def slack(b, d):
            return np.sin(b) * np.sin(d) + w * np.cos(b) * np.cos(d) - xi

        assert slack(sol.beta, sol.delta) >= -1e-12
        assert sol.p_fail == pytest.approx(p * np.sin(sol.beta) ** 2 + q * np.sin(sol.delta) ** 2, abs=1e-12)
        ang = np.linspace(0.0, np.pi / 2, 601)
        b, d = np.meshgrid(ang, ang, indexing="ij")
        grid_min = np.min(np.where(slack(b, d) >= 0, p * np.sin(b) ** 2 + q * np.sin(d) ** 2, np.inf))
        assert sol.p_fail <= grid_min + 1e-12
        assert su._pf_fast(xi, ep, eq, p, q) == pytest.approx(sol.p_fail, abs=1e-12)
        if equal:
            assert sol.beta == pytest.approx(np.arcsin(np.sqrt(sol.p_fail)), abs=1e-12)
            assert sol.delta == pytest.approx(sol.beta, abs=1e-12)


class TestAnalyticBound:
    def test_zero_tolerance_equals_overlap(self):
        assert su.analytic_pf_bound(0.3, 0.0, 0.0) == pytest.approx(0.3, abs=1e-12)

    def test_clamped_to_zero_when_window_passes_overlap(self):
        # raw expression 1 - 0.7/(1 - 0.6) is negative here; the bound clamps
        assert su.analytic_pf_bound(0.3, 0.1, 0.1) == 0.0

    def test_equal_priors_match_solver(self):
        for xi in (0.25, 0.5, 0.85):
            for eps in ((0.0, 0.0), (0.02, 0.05), (0.1, 0.0)):
                h = su.analytic_pf_bound(xi, *eps)
                g = su.pure_pair_pf(xi, *eps)
                assert h == pytest.approx(g, abs=1e-8)

    def test_rejects_singular_window(self):
        with pytest.raises(ValueError, match="window"):
            su.analytic_pf_bound(0.5, 0.7, 0.3)

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(0.02, 0.98),
        st.floats(0, 1),
        st.floats(0, 1),
        st.floats(0.05, 0.5),
    )
    def test_lower_bounds_solver(self, xi, ep, eq, p):
        if abs(ep + eq - 1.0) < 1e-9:
            return
        try:
            h = su.analytic_pf_bound(xi, ep, eq, p, 1 - p)
        except ValueError:
            return
        g = su.pure_pair_pf(xi, ep, eq, p, 1 - p)
        assert h <= g + 1e-8


class TestToleranceMaps:
    def test_zero_fail_identity(self):
        eps = ToleranceVector(np.array([0.2, 0.3]), "R")
        out = su.rescaled_to_unrescaled(eps, 0.0)
        np.testing.assert_allclose(out.values, eps.values)
        assert out.flavor == "U"

    def test_zero_tolerance_stays_zero(self):
        out = su.rescaled_to_unrescaled(ToleranceVector(np.zeros(2), "R"), 0.4)
        np.testing.assert_allclose(out.values, 0.0)

    def test_componentwise_scaling(self):
        out = su.rescaled_to_unrescaled(ToleranceVector(np.array([0.1, 0.2]), "R"), 0.3)
        np.testing.assert_allclose(out.values, [0.07, 0.14], atol=1e-15)

    def test_degenerate_and_flavor_errors(self):
        with pytest.raises(ValueError, match="degenerates"):
            su.rescaled_to_unrescaled(ToleranceVector(np.array([0.1]), "R"), 1.0)
        with pytest.raises(ValueError, match="rescaled"):
            su.rescaled_to_unrescaled(ToleranceVector(np.array([0.1]), "U"), 0.0)


def unrescaled_values(xi, eps_grid):
    """The pure-pair trade-off in un-rescaled coordinates on a tolerance grid
    (one lane per grid point; TestInversionLanes checks each lane against its
    single-lane call)."""
    eps = np.asarray(eps_grid, dtype=float)
    return su.invert_unrescaled_lanes(xi, (0.5, 0.5), np.column_stack([eps, eps])).p_fail


def ray_crossing(xi, p, eps_u, widening):
    """Values at the two ends of a 200-step float bisection for the point of
    the ray through eps_u + widening whose implied tolerance
    (1 - pf) eps_R - widening meets eps_u; pf from pure_pair_pf. Returns
    (value before the crossing, value past it, whether the ray end covers)."""
    c = eps_u + widening
    d = c / c.max()

    def covers(t):
        er = t * d
        pf = su.pure_pair_pf(xi, er[0], er[1], p, 1 - p)
        return bool(np.all((1 - pf) * er - widening >= eps_u)), pf

    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if covers(mid)[0]:
            hi = mid
        else:
            lo = mid
    return covers(lo)[1], covers(hi)[1], covers(1.0)[0]


class TestUnrescaledCurve:
    """The un-rescaled trade-off curve, evaluated by the tolerance inversion."""

    def test_endpoints(self):
        grid = np.unique(np.concatenate([np.linspace(0.0, 0.1, 2001), [HELSTROM_TOL_03]]))
        vals = unrescaled_values(0.3, grid)
        assert vals[0] == pytest.approx(0.3, abs=1e-9)
        zero = grid[vals < 1e-10]
        assert zero[0] == pytest.approx(HELSTROM_TOL_03, abs=1e-9)

    def test_envelope_monotone(self):
        vals = unrescaled_values(0.45, np.linspace(0.0, 0.2, 501))
        assert all(vals[i] >= vals[i + 1] - 1e-12 for i in range(len(vals) - 1))

    def test_envelope_convex_midpoints(self):
        xs = np.linspace(0.0, 0.1, 1001)
        ys = unrescaled_values(0.5, xs)
        for a, b in [(0.0, 0.02), (0.005, 0.05), (0.01, 0.1)]:
            mid = np.interp((a + b) / 2, xs, ys)
            chord = (np.interp(a, xs, ys) + np.interp(b, xs, ys)) / 2
            assert mid <= chord + 2e-6

    def test_unrescaled_point_roundtrip_with_sdp(self):
        # the curve value at (1 - pf) * eps_R must match the un-rescaled SDP,
        # and the inversion must map that tolerance back to pf
        xi = 0.4
        ens = pure_pair_ensemble(xi)
        for er in (0.0, 0.01, HELSTROM_TOL_03):
            pf = su.pure_pair_pf(xi, er, er)
            eps_u = su.rescaled_to_unrescaled(
                ToleranceVector(np.array([er, er]), "R"), pf
            )
            sdp = solve_min_fail(ens, eps_u).p_fail
            assert sdp == pytest.approx(pf, abs=1e-5)
            back = su.invert_unrescaled(xi, (0.5, 0.5), tuple(eps_u.values))
            assert back.p_fail == pytest.approx(pf, abs=1e-9)

    def test_inversion_matches_sdp(self):
        xi = 0.5
        ens = pure_pair_ensemble(xi)
        for eu in (0.0, 0.0123, 0.05):
            sdp = solve_min_fail(ens, ToleranceVector(np.array([eu, eu]), "U")).p_fail
            for side in ("cover", "achieve"):
                val = su.invert_unrescaled(xi, (0.5, 0.5), (eu, eu), side=side).p_fail
                assert val == pytest.approx(sdp, abs=2e-5)


class TestInversion:
    def test_tiny_request_is_a_lower_bound(self):
        # exact value 0.1527981591286 (40-digit mpmath); a tolerance slack of
        # 1e-12 used to return 0.15280000 at eps_R = 0
        pt = su.invert_unrescaled(0.1528, (0.5, 0.5), (1e-12, 1e-12))
        assert 0.1527981591276 <= pt.p_fail <= 0.1527981591287
        up = su.invert_unrescaled(0.1528, (0.5, 0.5), (1e-12, 1e-12), side="achieve")
        assert up.p_fail >= 0.1527981591286

    def test_zero_request_is_exact(self):
        for side in ("cover", "achieve"):
            pt = su.invert_unrescaled(0.3, (0.4, 0.6), (0.0, 0.0), side=side)
            assert pt.eps_r[0] == 0.0 and pt.eps_r[1] == 0.0 and not pt.vacuous
            assert pt.p_fail == su.pure_pair_pf(0.3, 0.0, 0.0, 0.4, 0.6)

    def test_uncoverable_request_is_vacuous(self):
        pt = su.invert_unrescaled(0.3, (0.5, 0.5), (0.5, 0.2), widening=(0.6, 0.0))
        assert pt.vacuous and pt.p_fail == 0.0
        assert not su.invert_unrescaled(0.3, (0.5, 0.5), (0.5, 0.2), (0.6, 0.0), "achieve").vacuous

    def test_validation(self):
        with pytest.raises(ValueError, match="side"):
            su.invert_unrescaled(0.3, (0.5, 0.5), (0.1, 0.1), side="lower")
        with pytest.raises(ValueError, match="requested"):
            su.invert_unrescaled(0.3, (0.5, 0.5), (-0.1, 0.1))
        with pytest.raises(ValueError, match="widening"):
            su.invert_unrescaled(0.3, (0.5, 0.5), (0.1, 0.1), widening=(0.0, -1e-3))

    @settings(max_examples=150, deadline=None)
    @given(
        st.floats(0.02, 0.98),
        st.one_of(st.just(0.5), st.floats(0.1, 0.9)),
        st.lists(st.one_of(st.just(0.0), st.floats(-14.0, -0.6).map(lambda x: 10.0**x)), min_size=2, max_size=2),
        st.lists(st.one_of(st.just(0.0), st.floats(0.0, 0.05), st.floats(0.5, 0.9)), min_size=2, max_size=2),
        st.sampled_from(["cover", "achieve"]),
    )
    def test_rounds_to_its_side(self, xi, p, eps_u, widening, side):
        eps_u, widening = np.array(eps_u), np.array(widening)
        pt = su.invert_unrescaled(xi, (p, 1 - p), tuple(eps_u), tuple(widening), side)
        if not np.any(eps_u + widening):
            assert pt.eps_r[0] == 0.0 and pt.eps_r[1] == 0.0
            assert pt.p_fail == su.pure_pair_pf(xi, 0.0, 0.0, p, 1 - p)
            return
        before, past, end_covers = ray_crossing(xi, p, eps_u, widening)
        assert pt.vacuous == (side == "cover" and not end_covers)
        if pt.vacuous:
            assert pt.p_fail == 0.0
            return
        pf = su.pure_pair_pf(xi, pt.eps_r[0], pt.eps_r[1], p, 1 - p)
        assert pt.p_fail == pytest.approx(pf, abs=1e-15)
        implied = (1 - pt.p_fail) * pt.eps_r - widening
        # the closed form falls monotonically along the ray; the unequal-prior
        # surface search does so only to about 2e-14 at tiny tolerances
        noise = 0.0 if p == 0.5 else 1e-13
        if side == "cover":
            assert np.all(implied >= eps_u)
            assert pt.p_fail <= before + noise
            assert pt.p_fail >= past - 1e-10
        else:
            assert np.all(implied <= eps_u)
            assert pt.p_fail >= past - noise


def lane_requests(seed, n):
    """n random (overlap, request, widening) lanes: each request component is
    0 or 1e-15 to 0.25, each widening component 0, up to 0.05 or up to 0.9.
    Drawn with numpy from a hypothesis seed, since hypothesis takes about
    1 ms per drawn lane."""
    rng = np.random.default_rng(seed)
    xi = rng.uniform(0.02, 0.98, n)
    eps_u = np.where(rng.random((n, 2)) < 0.25, 0.0, 10.0 ** rng.uniform(-15.0, -0.6, (n, 2)))
    kind = rng.integers(0, 3, (n, 2))
    widening = np.where(kind == 0, 0.0, rng.uniform(0.0, np.where(kind == 1, 0.05, 0.9)))
    return xi, eps_u, widening


class TestInversionLanes:
    """One lane call equals one single-lane call per lane."""

    @staticmethod
    def check_lane(lanes, k, xi, p, eps_u, widening, side):
        one = su.invert_unrescaled(float(xi[k]), (p, 1 - p), tuple(eps_u[k]), tuple(widening[k]), side)
        assert bool(lanes.vacuous[k]) == one.vacuous
        implied = (1 - lanes.p_fail[k]) * lanes.eps_r[k] - widening[k]
        if side == "cover" and not one.vacuous:
            assert np.all(implied >= eps_u[k])
        elif side == "achieve":
            assert np.all(implied <= eps_u[k])
        return one

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 64), st.sampled_from(["cover", "achieve"]))
    def test_equal_priors_bit_equal(self, seed, n, side):
        xi, eps_u, widening = lane_requests(seed, n)
        lanes = su.invert_unrescaled_lanes(xi, (0.5, 0.5), eps_u, widening, side)
        assert lanes.p_fail.shape == (n,) and lanes.eps_r.shape == (n, 2) and lanes.vacuous.shape == (n,)
        for k in range(n):
            one = self.check_lane(lanes, k, xi, 0.5, eps_u, widening, side)
            assert lanes.p_fail[k] == one.p_fail
            assert lanes.eps_r[k, 0] == one.eps_r[0] and lanes.eps_r[k, 1] == one.eps_r[1]

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 64), st.floats(0.1, 0.9),
           st.sampled_from(["cover", "achieve"]), st.data())
    def test_unequal_priors_agree(self, seed, n, p, side, data):
        # the surface search runs sin and arcsin over arrays whose length
        # depends on the lanes, and numpy does not promise the same rounding
        # for every length, so values agree to 1e-14; one single-lane
        # inversion with it costs about 20 ms, so two lanes of each call are
        # checked
        xi, eps_u, widening = lane_requests(seed, n)
        lanes = su.invert_unrescaled_lanes(xi, (p, 1 - p), eps_u, widening, side)
        for k in data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2, unique=True)):
            one = self.check_lane(lanes, k, xi, p, eps_u, widening, side)
            assert lanes.p_fail[k] == pytest.approx(one.p_fail, abs=1e-14)

    def test_broadcasts_one_overlap_and_one_widening(self):
        eps = np.array([[0.0, 0.0], [1e-12, 1e-12], [0.01, 0.03]])
        lanes = su.invert_unrescaled_lanes(0.4, (0.5, 0.5), eps, (0.002, 0.0))
        for k in range(3):
            one = su.invert_unrescaled(0.4, (0.5, 0.5), tuple(eps[k]), (0.002, 0.0))
            assert lanes.p_fail[k] == one.p_fail and np.array_equal(lanes.eps_r[k], one.eps_r)

    def test_settled_lanes_take_no_steps(self, monkeypatch):
        # a call whose lanes are all settled before bisecting (zero request,
        # vacuous, or every point achieves) probes only t = 0 and t = 1
        calls = []
        batch = su.pure_pair_pf_batch
        monkeypatch.setattr(su, "pure_pair_pf_batch", lambda *a: calls.append(a) or batch(*a))
        for args in (((0.0, 0.0), (0.0, 0.0), "cover"), ((0.5, 0.2), (0.6, 0.0), "cover"),
                     ((0.5, 0.5), (0.6, 0.6), "achieve")):
            calls.clear()
            su.invert_unrescaled_lanes([0.3, 0.4], (0.5, 0.5), *args)
            assert len(calls) == 2
        calls.clear()
        su.invert_unrescaled_lanes(0.3, (0.5, 0.5), (0.01, 0.01))
        assert 2 < len(calls) <= 202

    def test_validation(self):
        with pytest.raises(ValueError, match="requested"):
            su.invert_unrescaled_lanes([0.3, 0.4], (0.5, 0.5), [[0.1, 0.1], [0.1, 1.5]])
        with pytest.raises(ValueError, match="overlap"):
            su.invert_unrescaled_lanes([0.3, 1.2], (0.5, 0.5), [0.1, 0.1])
        with pytest.raises(ValueError, match="side"):
            su.invert_unrescaled_lanes([0.3], (0.5, 0.5), [0.1, 0.1], side="upper")


class TestHelstrom:
    def test_orthogonal_pure_states(self):
        ens = pure_pair_ensemble(1e-12)
        assert su.helstrom_binary(ens) == pytest.approx(0.0, abs=1e-9)

    def test_equal_prior_pure_overlap(self):
        ens = pure_pair_ensemble(0.3)
        assert su.helstrom_binary(ens) == pytest.approx((1 - np.sqrt(0.91)) / 2, abs=1e-10)

    def test_depolarizing_pair(self):
        ens = su.depolarizing_pair_states(0.6)
        assert su.helstrom_binary(ens) == pytest.approx(0.2, abs=1e-10)

    def test_requires_two_hypotheses(self):
        states = tuple(random_density_matrix(2, RNG) for _ in range(3))
        ens = StateEnsemble(states, np.array([0.3, 0.3, 0.4]))
        with pytest.raises(ValueError):
            su.helstrom_binary(ens)

    def test_tangency_reproduces_minimum_error(self):
        # the prior-weighted tolerance at the zero-failure tangency equals the
        # minimum-error probability of the pair
        for xi, prior_p in ((0.3, 0.5), (0.3, 1 / 3), (0.6, 0.25)):
            ep, eq = su.helstrom_tangency(xi, prior_p, 1 - prior_p)
            weighted = prior_p * ep + (1 - prior_p) * eq
            ens = pure_pair_ensemble(xi, prior_p)
            assert weighted == pytest.approx(su.helstrom_binary(ens), abs=1e-6)
            assert su.pure_pair_pf(xi, ep, eq, prior_p, 1 - prior_p) == pytest.approx(0.0, abs=1e-8)


class TestFidelityLowerBounds:
    def test_pure_inputs_tight(self):
        xi = 0.45
        ens = pure_pair_ensemble(xi, 0.5, dim=3)
        lb1, lb2 = su.fidelity_lower_bounds(
            ens.states[0], ens.states[1], (0.5, 0.5), (0.05, 0.05)
        )
        sdp = solve_min_fail(ens, ToleranceVector(np.array([0.05, 0.05]), "R")).p_fail
        assert lb1 == pytest.approx(sdp, abs=1e-5)

    def test_depolarizing_zero_tolerance_equals_fidelity(self):
        ens = su.depolarizing_pair_states(0.6)
        lb1, lb2 = su.fidelity_lower_bounds(ens.states[0], ens.states[1], (0.5, 0.5), (0.0, 0.0))
        assert lb2 == pytest.approx(0.7291502622129181, abs=1e-6)
        assert lb1 >= lb2 - 1e-8

    def test_erasure_zero_tolerance(self):
        ens = su.erasure_pair_states(0.6, 0.3)
        lb1, lb2 = su.fidelity_lower_bounds(ens.states[0], ens.states[1], (0.5, 0.5), (0.0, 0.0))
        assert lb2 == pytest.approx(0.58, abs=1e-9)

    def test_ordering_unequal_priors(self):
        a = random_density_matrix(3, RNG)
        b = random_density_matrix(3, RNG)
        lb1, lb2 = su.fidelity_lower_bounds(a, b, (0.3, 0.7), (0.1, 0.2))
        assert lb1 >= lb2 - 1e-8

    def test_lower_bounds_actual_sdp(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            a = random_density_matrix(2, rng)
            b = random_density_matrix(2, rng)
            ens = StateEnsemble((a, b), np.array([0.5, 0.5]))
            eps = rng.uniform(0, 0.3, 2)
            lb1, lb2 = su.fidelity_lower_bounds(a, b, (0.5, 0.5), tuple(eps))
            sdp = solve_min_fail(ens, ToleranceVector(eps, "R")).p_fail
            assert lb1 <= sdp + 1e-6
            assert lb2 <= sdp + 1e-6


class TestContinuity:
    def test_zero_deviation_collapses(self):
        eps = ToleranceVector(np.array([0.1, 0.1]), "U")
        lo, hi = su.continuity_interval(eps, np.zeros(2), np.array([0.5, 0.5]), 0.37, 0.37)
        assert lo == pytest.approx(0.37, abs=1e-12)
        assert hi == pytest.approx(0.37, abs=1e-12)

    def test_interval_contains_true_value_under_perturbation(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            ens = StateEnsemble(
                (random_density_matrix(2, rng), random_density_matrix(2, rng)),
                np.array([0.5, 0.5]),
            )
            lam = 0.03
            perturbed = tuple(
                DensityMatrix((1 - lam) * s.mat + lam * np.eye(2) / 2) for s in ens.states
            )
            ens_pert = StateEnsemble(perturbed, ens.priors)
            delta = np.array(
                [
                    float(np.sum(np.abs(np.linalg.eigvalsh(a.mat - b.mat))))
                    for a, b in zip(ens.states, perturbed)
                ]
            )
            eps = np.array([0.15, 0.2])
            pf_plus = solve_min_fail(ens_pert, ToleranceVector(np.minimum(eps + delta, 1), "U")).p_fail
            pf_minus = solve_min_fail(ens_pert, ToleranceVector(np.maximum(eps - delta, 0), "U")).p_fail
            lo, hi = su.continuity_interval(
                ToleranceVector(eps, "U"), delta, ens.priors, pf_plus, pf_minus
            )
            truth = solve_min_fail(ens, ToleranceVector(eps, "U")).p_fail
            assert lo - 1e-6 <= truth <= hi + 1e-6

    def test_interval_rejects_negative_narrowed_tolerance(self):
        eps = ToleranceVector(np.array([0.05]), "U")
        with pytest.raises(ValueError, match="nonnegative"):
            su.continuity_interval(eps, np.array([0.1]), np.array([1.0]), 0.3, 0.3)

    def test_shifted_tolerance_formula(self):
        eps = ToleranceVector(np.array([0.1, 0.2]), "R")
        delta = np.array([0.02, 0.04])
        priors = np.array([0.5, 0.5])
        abstain = np.array([0.3, 0.25])
        out = su.continuity_shifted_tolerance(eps, delta, priors, 0.275, abstain)
        expect = (delta + eps.values * (1 - abstain)) / (1 - abstain - delta / 2)
        np.testing.assert_allclose(out.values, expect, atol=1e-12)

    def test_shifted_bound_holds_against_sdp(self):
        # reference value at eps_R lower-bounds the perturbed value at the
        # shifted tolerance minus the half-weighted deviation
        rng = np.random.default_rng(31)
        for trial in range(4):
            ens = StateEnsemble(
                (random_density_matrix(2, rng), random_density_matrix(2, rng)),
                np.array([0.5, 0.5]),
            )
            lam = 0.05
            perturbed = tuple(
                DensityMatrix((1 - lam) * s.mat + lam * np.eye(2) / 2) for s in ens.states
            )
            ens_pert = StateEnsemble(perturbed, ens.priors)
            delta = np.array(
                [
                    float(np.sum(np.abs(np.linalg.eigvalsh(a.mat - b.mat))))
                    for a, b in zip(ens.states, perturbed)
                ]
            )
            eps = ToleranceVector(np.array([0.35, 0.4]), "R")
            ref = solve_min_fail(ens, eps)
            abstain = np.array(
                [np.trace(s.mat @ ref.povm.elements[0]).real for s in ens.states]
            )
            half = 0.5 * float(ens.priors @ delta)
            for abstain_arg in (abstain, None):
                try:
                    shifted = su.continuity_shifted_tolerance(
                        eps, delta, ens.priors, ref.p_fail, abstain_arg
                    )
                except su.VacuousBoundError:
                    continue  # reference value too close to 1 for this draw
                pf_shifted = solve_min_fail(ens_pert, shifted).p_fail
                assert ref.p_fail >= pf_shifted - half - 1e-6

    def test_vacuous_regime_raises(self):
        eps = ToleranceVector(np.array([0.1]), "R")
        with pytest.raises(su.VacuousBoundError):
            su.continuity_shifted_tolerance(eps, np.array([0.5]), np.array([1.0]), 0.8)


class TestDepolarizingModel:
    def test_extreme_noise_parameters(self):
        pure = su.depolarizing_pair_states(1.0)
        assert fidelity(pure.states[0], pure.states[1]) == pytest.approx(0.0, abs=1e-7)
        mixed = su.depolarizing_pair_states(0.0)
        assert fidelity(mixed.states[0], mixed.states[1]) == pytest.approx(1.0, abs=1e-10)

    def test_fidelity_formula_matches_matrices(self):
        for eta in (0.2, 0.6, 0.9):
            ens = su.depolarizing_pair_states(eta)
            assert fidelity(ens.states[0], ens.states[1]) == pytest.approx(
                su.depolarizing_pair_fidelity(eta), abs=1e-9
            )

    def test_strategy_formulas_match_povm(self):
        ens = su.depolarizing_pair_states(0.6)
        for a in (0.0, 0.4, 1.0):
            for theta in (np.pi / 2, 2.2, np.pi - 1e-6):
                point, povm = su.depolarizing_pair_strategy(0.6, a, theta)
                assert p_fail_of(povm, ens) == pytest.approx(point.p_fail, abs=1e-8)
                errs = conditional_errors(povm, ens)
                np.testing.assert_allclose(errs, point.eps.values[0], atol=1e-8)

    def test_right_angle_has_no_second_stage_abstention(self):
        point, povm = su.depolarizing_pair_strategy(0.6, 0.0, np.pi / 2)
        # inconclusive element vanishes entirely at a = 0, theta = pi/2
        assert np.max(np.abs(povm.elements[0])) < 1e-12
        assert point.p_fail == pytest.approx(0.0, abs=1e-12)
        assert point.eps.values[0] == pytest.approx(0.2, abs=1e-12)

    def test_full_abstention_limit(self):
        eta = 0.6
        point, _ = su.depolarizing_pair_strategy(eta, 1.0, np.pi - 1e-9)
        assert point.p_fail == pytest.approx((1 - eta) / 2 + (1 + eta) / 4, abs=1e-6)

    def test_theta_out_of_range(self):
        with pytest.raises(ValueError):
            su.depolarizing_pair_strategy(0.6, 0.5, 0.3)

    def test_hull_reaches_helstrom(self):
        hull = su.depolarizing_upper_hull(0.6)
        assert su.hull_value(hull, 0.2) == pytest.approx(0.0, abs=1e-9)
        assert su.hull_value(hull, 0.0) == pytest.approx(1.0, abs=1e-12)


class TestErasureModel:
    def test_extreme_noise_parameters(self):
        pure = su.erasure_pair_states(1.0, 0.3)
        assert fidelity(pure.states[0], pure.states[1]) == pytest.approx(0.3, abs=1e-9)
        ident = su.erasure_pair_states(0.0, 0.3)
        assert fidelity(ident.states[0], ident.states[1]) == pytest.approx(1.0, abs=1e-10)

    def test_fidelity_formula_matches_matrices(self):
        ens = su.erasure_pair_states(0.6, 0.3)
        assert fidelity(ens.states[0], ens.states[1]) == pytest.approx(0.58, abs=1e-9)

    def test_exact_conclusion_endpoint(self):
        point = su.erasure_pair_strategy(0.6, 0.3, 0.5, 0.5, 1.0, (0.0, 0.0))
        np.testing.assert_allclose(point.eps.values, 0.0, atol=1e-12)
        assert point.p_fail == pytest.approx(0.58, abs=1e-9)

    def test_zero_failure_endpoint(self):
        e_inner = HELSTROM_TOL_03
        point = su.erasure_pair_strategy(0.6, 0.3, 0.5, 0.5, 0.0, (e_inner, e_inner))
        assert point.p_fail == pytest.approx(0.0, abs=1e-6)

    def test_strategy_grid_inverts_each_inner_tolerance_once(self):
        # every (a, inner tolerance) point of the grid matches the two-step
        # formula with its own "achieve" inversion
        eta, xi = 0.6, 0.3
        inner = [(0.0, 0.0), (0.01, 0.02), (HELSTROM_TOL_03, HELSTROM_TOL_03)]
        points = su.erasure_pair_strategies(eta, xi, 0.5, 0.5, [0.0, 0.25, 1.0], inner)
        assert len(points) == 9
        for k, (a, e_in) in enumerate((a, e) for a in (0.0, 0.25, 1.0) for e in inner):
            pf = su.invert_unrescaled(xi, (0.5, 0.5), e_in, side="achieve").p_fail
            assert points[k].p_fail == pytest.approx(eta * pf + (1 - eta) * a, abs=1e-15)
            expect = (1 - eta) * (1 - a) * 0.5 + eta * np.array(e_in)
            np.testing.assert_allclose(points[k].eps.values, expect, atol=1e-15)
        with pytest.raises(ValueError, match="abstention"):
            su.erasure_pair_strategies(eta, xi, 0.5, 0.5, [0.5, 1.5], inner)

    def test_strategy_dominates_fidelity_bound(self):
        # upper-bound curve must sit above the lower bound everywhere
        eta, xi = 0.6, 0.3
        hull = su.erasure_upper_hull(eta, xi)
        fid = su.erasure_pair_fidelity(eta, xi)
        for e in np.linspace(0, 0.4, 41):
            lb = su.invert_unrescaled(fid, (0.5, 0.5), (float(e), float(e))).p_fail
            ub = su.hull_value(hull, float(e))
            assert lb <= ub + 1e-6
