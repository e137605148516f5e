import numpy as np
import pytest

from approxud.qmath import DensityMatrix, StateEnsemble, random_density_matrix
from approxud.sdp import (
    Povm,
    ToleranceVector,
    conditional_errors,
    mix_povms,
    p_fail_of,
    solve_min_fail,
)
from approxud.state_ud import pure_pair_pf

RNG = np.random.default_rng(99)


def pure_pair_ensemble(xi, prior_p=0.5):
    pv = np.array([1.0, 0.0])
    qv = np.array([xi, np.sqrt(1 - xi**2)])
    return StateEnsemble(
        (
            DensityMatrix(np.outer(pv, pv).astype(complex)),
            DensityMatrix(np.outer(qv, qv).astype(complex)),
        ),
        np.array([prior_p, 1 - prior_p]),
    )


def random_ensemble(m, d, rng):
    priors = rng.dirichlet(np.ones(m))
    return StateEnsemble(tuple(random_density_matrix(d, rng) for _ in range(m)), priors)


def random_povm(m_plus_1, d, rng):
    mats = []
    total = np.zeros((d, d), dtype=complex)
    for _ in range(m_plus_1 - 1):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = g @ g.conj().T
        mats.append(h / (m_plus_1 * np.linalg.eigvalsh(h).max()))
        total += mats[-1]
    mats.insert(0, np.eye(d) - total)
    return Povm(tuple(mats))


class TestPovmTypes:
    def test_povm_validation(self):
        with pytest.raises(ValueError, match="sum to identity"):
            Povm((np.eye(2), np.eye(2)))
        with pytest.raises(ValueError, match="PSD"):
            Povm((np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])))
        Povm((0.5 * np.eye(2), 0.5 * np.eye(2)))  # valid

    def test_tolerance_vector_validation(self):
        with pytest.raises(ValueError, match="flavor"):
            ToleranceVector(np.array([0.1]), "X")
        with pytest.raises(ValueError, match="0, 1"):
            ToleranceVector(np.array([1.2]), "U")


class TestObservables:
    def test_always_abstain(self):
        ens = random_ensemble(3, 2, RNG)
        povm = Povm((np.eye(2),) + (np.zeros((2, 2)),) * 3)
        assert p_fail_of(povm, ens) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(conditional_errors(povm, ens), 0.0, atol=1e-12)

    def test_never_abstain_zero_fail(self):
        ens = random_ensemble(2, 2, RNG)
        povm = Povm((np.zeros((2, 2)), np.eye(2) / 2, np.eye(2) / 2))
        assert p_fail_of(povm, ens) == pytest.approx(0.0, abs=1e-12)

    def test_perfect_discrimination_orthogonal(self):
        ens = StateEnsemble(
            (
                DensityMatrix(np.diag([1.0, 0.0]).astype(complex)),
                DensityMatrix(np.diag([0.0, 1.0]).astype(complex)),
            ),
            np.array([0.4, 0.6]),
        )
        povm = Povm((np.zeros((2, 2)), np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        np.testing.assert_allclose(conditional_errors(povm, ens), 0.0, atol=1e-12)

    def test_against_direct_trace_oracle(self):
        ens = random_ensemble(2, 3, RNG)
        povm = random_povm(3, 3, RNG)
        oracle_fail = sum(
            p * np.trace(s.mat @ povm.elements[0]).real
            for p, s in zip(ens.priors, ens.states)
        )
        assert p_fail_of(povm, ens) == pytest.approx(oracle_fail, abs=1e-12)
        for n in range(2):
            oracle_err = 1 - np.trace(
                ens.states[n].mat @ (povm.elements[n + 1] + povm.elements[0])
            ).real
            assert conditional_errors(povm, ens)[n] == pytest.approx(oracle_err, abs=1e-12)

    def test_dimension_mismatch(self):
        ens = random_ensemble(2, 3, RNG)
        povm = random_povm(3, 2, RNG)
        with pytest.raises(ValueError):
            p_fail_of(povm, ens)


class TestMixPovms:
    def test_single_weight_identity(self):
        povm = random_povm(3, 2, RNG)
        mixed = mix_povms([povm], [1.0])
        for a, b in zip(mixed.elements, povm.elements):
            np.testing.assert_allclose(a, b, atol=1e-14)

    def test_elementwise_average(self):
        a = random_povm(3, 2, RNG)
        b = random_povm(3, 2, RNG)
        mixed = mix_povms([a, b], [0.5, 0.5])
        for m, x, y in zip(mixed.elements, a.elements, b.elements):
            np.testing.assert_allclose(m, (x + y) / 2, atol=1e-14)

    def test_linearity_of_observables(self):
        ens = random_ensemble(2, 2, RNG)
        a = random_povm(3, 2, RNG)
        b = random_povm(3, 2, RNG)
        w = [0.3, 0.7]
        mixed = mix_povms([a, b], w)
        expect_fail = w[0] * p_fail_of(a, ens) + w[1] * p_fail_of(b, ens)
        assert p_fail_of(mixed, ens) == pytest.approx(expect_fail, abs=1e-12)
        expect_err = w[0] * conditional_errors(a, ens) + w[1] * conditional_errors(b, ens)
        np.testing.assert_allclose(conditional_errors(mixed, ens), expect_err, atol=1e-12)

    def test_bad_weights(self):
        a = random_povm(3, 2, RNG)
        with pytest.raises(ValueError, match="probability"):
            mix_povms([a, a], [0.7, 0.7])


class TestSolveMinFail:
    def test_symmetric_exact_conclusion_value(self):
        ens = pure_pair_ensemble(0.3)
        sol = solve_min_fail(ens, ToleranceVector(np.zeros(2), "R"))
        assert sol.solver_status == "optimal"
        assert sol.p_fail == pytest.approx(0.3, abs=1e-7)
        np.testing.assert_allclose(sol.per_hypothesis_error, 0.0, atol=1e-9)

    def test_zero_fail_at_minimum_error_tolerance(self):
        e = (1 - np.sqrt(0.91)) / 2
        ens = pure_pair_ensemble(0.3)
        sol = solve_min_fail(ens, ToleranceVector(np.array([e, e]), "R"))
        assert sol.p_fail == pytest.approx(0.0, abs=1e-7)

    def test_matches_analytic_solution_on_grid(self):
        for xi in (0.35, 0.7):
            for prior_p in (0.5, 0.3):
                ens = pure_pair_ensemble(xi, prior_p)
                for ep in (0.0, 0.1, 0.25):
                    for eq in (0.0, 0.15):
                        sol = solve_min_fail(ens, ToleranceVector(np.array([ep, eq]), "R"))
                        expect = pure_pair_pf(xi, ep, eq, prior_p, 1 - prior_p)
                        assert sol.p_fail == pytest.approx(expect, abs=1e-5), (xi, prior_p, ep, eq)

    def test_identical_states_force_abstention(self):
        rho = random_density_matrix(2, RNG)
        ens = StateEnsemble((rho, rho), np.array([0.5, 0.5]))
        sol = solve_min_fail(ens, ToleranceVector(np.zeros(2), "U"))
        assert sol.p_fail == pytest.approx(1.0, abs=1e-9)
        assert sol.solver_status == "optimal"

    def test_full_rank_states_cannot_conclude_exactly(self):
        ens = random_ensemble(2, 2, RNG)
        sol = solve_min_fail(ens, ToleranceVector(np.zeros(2), "U"))
        assert sol.p_fail == pytest.approx(1.0, abs=1e-9)

    def test_random_guess_tolerance_gives_zero(self):
        ens = random_ensemble(3, 2, RNG)
        sol = solve_min_fail(ens, ToleranceVector(1 - ens.priors, "U"))
        assert sol.p_fail == pytest.approx(0.0, abs=1e-7)

    def test_monotone_in_tolerance(self):
        rng = np.random.default_rng(4)
        for _ in range(8):
            ens = random_ensemble(2, 2, rng)
            e1 = rng.uniform(0, 0.3, 2)
            e2 = e1 + rng.uniform(0, 0.4, 2)
            s1 = solve_min_fail(ens, ToleranceVector(e1, "U"))
            s2 = solve_min_fail(ens, ToleranceVector(np.minimum(e2, 1), "U"))
            assert s2.p_fail <= s1.p_fail + 1e-7

    def test_povm_reproduces_reported_value(self):
        ens = random_ensemble(3, 3, RNG)
        sol = solve_min_fail(ens, ToleranceVector(np.array([0.1, 0.05, 0.2]), "U"))
        assert p_fail_of(sol.povm, ens) == pytest.approx(sol.p_fail, abs=1e-7)
        np.testing.assert_allclose(
            conditional_errors(sol.povm, ens), sol.per_hypothesis_error, atol=1e-7
        )

    def test_constraints_satisfied_flavor_u(self):
        ens = random_ensemble(3, 2, RNG)
        eps = np.array([0.05, 0.1, 0.15])
        sol = solve_min_fail(ens, ToleranceVector(eps, "U"))
        assert np.all(sol.per_hypothesis_error <= eps + 1e-7)

    def test_constraints_satisfied_flavor_r(self):
        ens = random_ensemble(2, 3, RNG)
        eps = np.array([0.1, 0.2])
        sol = solve_min_fail(ens, ToleranceVector(eps, "R"))
        for n in range(2):
            conclusive = 1 - np.trace(ens.states[n].mat @ sol.povm.elements[0]).real
            assert sol.per_hypothesis_error[n] <= eps[n] * conclusive + 1e-7

    def test_flavor_r_vacuous_at_full_tolerance(self):
        ens = pure_pair_ensemble(0.6)
        sol = solve_min_fail(ens, ToleranceVector(np.ones(2), "R"))
        assert sol.p_fail == pytest.approx(0.0, abs=1e-7)

    @pytest.mark.parametrize("flavor", ["U", "R"])
    def test_data_processing_monotonicity(self, flavor):
        # applying a channel to every state can only make discrimination harder
        rng = np.random.default_rng(11)
        for _ in range(5):
            ens = random_ensemble(2, 2, rng)
            # random CPTP map from a Haar-ish isometry with 2 Kraus operators
            g = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
            q_, _ = np.linalg.qr(g)
            kraus = [q_[:2, :], q_[2:, :]]
            mapped = tuple(
                DensityMatrix(sum(k @ s.mat @ k.conj().T for k in kraus))
                for s in ens.states
            )
            ens2 = StateEnsemble(mapped, ens.priors)
            eps = ToleranceVector(rng.uniform(0, 0.3, 2), flavor)
            before = solve_min_fail(ens, eps).p_fail
            after = solve_min_fail(ens2, eps).p_fail
            assert after >= before - 1e-6

    def test_dimension_limit(self):
        big = DensityMatrix(np.eye(64, dtype=complex) / 64)
        ens = StateEnsemble((big, big), np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="limit"):
            solve_min_fail(ens, ToleranceVector(np.zeros(2), "U"))

    def test_length_mismatch(self):
        ens = random_ensemble(2, 2, RNG)
        with pytest.raises(ValueError, match="length"):
            solve_min_fail(ens, ToleranceVector(np.zeros(3), "U"))

    def test_randomized_soak_invariants(self):
        # broad randomized sweep over sizes, ranks, flavors and tolerance
        # styles; every solution must be self-consistent and feasible
        rng = np.random.default_rng(31337)
        statuses = {}
        for trial in range(80):
            m = int(rng.integers(2, 5))
            d = int(rng.integers(2, 6))
            priors = rng.dirichlet(np.ones(m) * rng.uniform(0.5, 3))
            ens = StateEnsemble(
                tuple(
                    random_density_matrix(d, rng, rank=int(rng.integers(1, d + 1)))
                    for _ in range(m)
                ),
                priors,
            )
            eps = rng.uniform(0, 0.6, m)
            style = trial % 4
            if style == 1:
                eps[rng.integers(0, m)] = 0.0
            elif style == 2:
                eps[:] = 0.0
            elif style == 3:
                eps[rng.integers(0, m)] = 1.0
            flavor = "U" if trial % 2 == 0 else "R"
            sol = solve_min_fail(ens, ToleranceVector(eps, flavor))
            statuses[sol.solver_status] = statuses.get(sol.solver_status, 0) + 1
            assert 0.0 <= sol.p_fail <= 1.0
            assert abs(p_fail_of(sol.povm, ens) - sol.p_fail) <= 1e-7
            errs = conditional_errors(sol.povm, ens)
            np.testing.assert_allclose(errs, sol.per_hypothesis_error, atol=1e-7)
            for n in range(m):
                if flavor == "U":
                    limit = eps[n]
                else:
                    abstain = np.trace(ens.states[n].mat @ sol.povm.elements[0]).real
                    limit = eps[n] * (1 - abstain)
                assert errs[n] <= limit + 1e-6
        assert statuses.get("optimal", 0) >= 70  # solver certifies nearly all draws

    def test_three_hypotheses_mixed_zero_and_positive_tolerances(self):
        # zero tolerance on one hypothesis only: its support must be avoided
        # by the other conclusive outcomes, the rest keep slack
        rng = np.random.default_rng(2)
        states = (
            DensityMatrix(np.diag([1.0, 0.0, 0.0]).astype(complex)),
            DensityMatrix(np.diag([0.0, 0.6, 0.4]).astype(complex)),
            random_density_matrix(3, rng),
        )
        ens = StateEnsemble(states, np.array([0.3, 0.3, 0.4]))
        eps = np.array([0.0, 0.1, 0.2])
        sol = solve_min_fail(ens, ToleranceVector(eps, "U"))
        assert sol.solver_status == "optimal"
        assert np.all(sol.per_hypothesis_error <= eps + 1e-7)
        assert 0.0 <= sol.p_fail <= 1.0


class TestAccurateNewtonDirections:
    """Fixed inputs whose Schur complements are badly conditioned near the
    optimum (rank-deficient mixed pairs G G^dagger / Tr, and a pure pair with
    one tolerance zero): accurate Newton directions take each solve to an
    optimal, valid POVM."""

    @staticmethod
    def _mixed_pair(rng, d, rank):
        return StateEnsemble(
            tuple(random_density_matrix(d, rng, rank=rank) for _ in range(2)), np.array([0.5, 0.5])
        )

    @pytest.mark.parametrize("case", ["d8-rank4-U", "d4-rank2-zero-R", "qubit-one-sided-R"])
    def test_solve_ends_optimal_with_valid_povm(self, case):
        if case == "d8-rank4-U":
            ens, eps, flavor = self._mixed_pair(np.random.default_rng(1), 8, 4), [0.05, 0.05], "U"
        elif case == "d4-rank2-zero-R":
            ens, eps, flavor = self._mixed_pair(np.random.default_rng([52, 77]), 4, 2), [0.0, 0.0], "R"
        else:
            ens, eps, flavor = pure_pair_ensemble(0.6936726069251792), [0.1489799351936855, 0.0], "R"
        sol = solve_min_fail(ens, ToleranceVector(np.array(eps), flavor))
        assert sol.solver_status == "optimal"
        povm = Povm(sol.povm.elements)  # validates: PSD, sums to identity
        assert p_fail_of(povm, ens) == pytest.approx(sol.p_fail, abs=1e-7)
        abstain = np.array([np.trace(s.mat @ povm.elements[0]).real for s in ens.states])
        limits = np.array(eps) * (1.0 if flavor == "U" else 1.0 - abstain)
        assert np.all(conditional_errors(povm, ens) <= limits + 1e-7)
        assert abs(sol.pcost - sol.dcost) <= 1e-7
        assert sol.iterations > 0 and max(sol.pres, sol.dres) <= 1e-9
        if case == "qubit-one-sided-R":
            assert sol.p_fail == pytest.approx(
                pure_pair_pf(0.6936726069251792, eps[0], eps[1]), abs=1e-6
            )

    @pytest.mark.parametrize("eps", [1e-8, 1e-7, 1e-6, 1e-5])
    def test_small_tolerance_pure_pair(self, eps):
        # the feasible set nearly loses its interior; the solve must still
        # reach the pure-pair closed form at the states' overlap
        rng = np.random.default_rng(0)
        ens = StateEnsemble(
            tuple(random_density_matrix(4, rng, rank=1) for _ in range(2)), np.array([0.5, 0.5])
        )
        sol = solve_min_fail(ens, ToleranceVector(np.array([eps, eps]), "R"))
        assert sol.solver_status == "optimal"
        xi = np.sqrt(np.trace(ens.states[0].mat @ ens.states[1].mat).real)
        assert sol.p_fail == pytest.approx(pure_pair_pf(xi, eps, eps), abs=1e-6)
