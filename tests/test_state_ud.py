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


class TestUnrescaledCurve:
    def test_endpoints(self):
        curve = su.unrescaled_curve(0.3)
        assert curve[0].eps.values[0] == pytest.approx(0.0, abs=1e-12)
        assert curve[0].p_fail == pytest.approx(0.3, abs=1e-9)
        zero = [pt for pt in curve if pt.p_fail < 1e-10]
        assert zero[0].eps.values[0] == pytest.approx(HELSTROM_TOL_03, abs=1e-9)

    def test_envelope_monotone(self):
        curve = su.unrescaled_curve(0.45, grid=501)
        eps = [pt.eps.values[0] for pt in curve]
        pf = [pt.p_fail for pt in curve]
        assert all(eps[i] <= eps[i + 1] + 1e-15 for i in range(len(eps) - 1))
        assert all(pf[i] >= pf[i + 1] - 1e-12 for i in range(len(pf) - 1))

    def test_envelope_convex_midpoints(self):
        curve = su.unrescaled_curve(0.5, grid=2001)
        xs = np.array([pt.eps.values[0] for pt in curve])
        ys = np.array([pt.p_fail for pt in curve])
        for a, b in [(0.0, 0.02), (0.005, 0.05), (0.01, 0.1)]:
            mid = np.interp((a + b) / 2, xs, ys)
            chord = (np.interp(a, xs, ys) + np.interp(b, xs, ys)) / 2
            assert mid <= chord + 2e-6

    def test_unrescaled_point_roundtrip_with_sdp(self):
        # the curve value at (1 - pf) * eps_R must match the un-rescaled SDP
        xi = 0.4
        ens = pure_pair_ensemble(xi)
        for er in (0.0, 0.01, HELSTROM_TOL_03):
            pf = su.pure_pair_pf(xi, er, er)
            eps_u = su.rescaled_to_unrescaled(
                ToleranceVector(np.array([er, er]), "R"), pf
            )
            sdp = solve_min_fail(ens, eps_u).p_fail
            assert sdp == pytest.approx(pf, abs=1e-5)

    def test_inversion_matches_sdp(self):
        xi = 0.5
        ens = pure_pair_ensemble(xi)
        for eu in (0.0, 0.0123, 0.05):
            val = su.pure_pf_unrescaled(xi, 0.5, 0.5, (eu, eu))
            sdp = solve_min_fail(ens, ToleranceVector(np.array([eu, eu]), "U")).p_fail
            assert val == pytest.approx(sdp, abs=2e-5)


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

    def test_strategy_dominates_fidelity_bound(self):
        # upper-bound curve must sit above the lower bound everywhere
        eta, xi = 0.6, 0.3
        hull = su.erasure_upper_hull(eta, xi)
        fid = su.erasure_pair_fidelity(eta, xi)
        for e in np.linspace(0, 0.4, 41):
            lb = su.pure_pf_unrescaled(fid, 0.5, 0.5, (float(e), float(e)))
            ub = su.hull_value(hull, float(e))
            assert lb <= ub + 1e-6
