import argparse
import dataclasses

import numpy as np
import pytest

from approxud import channel_ud as cu
from approxud import state_ud as su
from approxud.cli import build_parser
from approxud.qmath import (
    fidelity,
    max_entangled,
    partial_trace,
    projector,
    random_density_matrix,
)
from approxud.sdp import ToleranceVector, solve_min_fail

RNG = np.random.default_rng(1234)


class TestKrausChannel:
    def test_trace_preservation_enforced(self):
        with pytest.raises(ValueError, match="trace"):
            cu.KrausChannel((np.eye(2, dtype=complex) * 0.9,))

    def test_apply(self):
        ch = cu.amplitude_damping_channel(1.0)
        rho = random_density_matrix(2, RNG).mat
        out = ch.apply(rho)
        np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-12)

    def test_shape_consistency(self):
        with pytest.raises(ValueError, match="shape"):
            cu.KrausChannel((np.eye(2, dtype=complex), np.zeros((3, 2), dtype=complex)))


class TestChoiState:
    def test_identity_channel(self):
        ident = cu.KrausChannel((np.eye(2, dtype=complex),))
        zeta = max_entangled(2)
        np.testing.assert_allclose(
            cu.choi_state(ident).mat, projector(zeta.amplitudes), atol=1e-12
        )

    def test_output_marginal_is_maximally_mixed(self):
        # tracing out the output leg of any Choi state leaves I/d
        for ch in (cu.pauli_gate_channel("Z", 0.7), cu.amplitude_damping_channel(0.4)):
            choi = cu.choi_state(ch)
            red = partial_trace(choi, ch.dim_out, ch.dim_in, trace_out="A")
            np.testing.assert_allclose(red.mat, np.eye(2) / 2, atol=1e-10)

    def test_pauli_choi_structure(self):
        eta = 0.6
        expected = su.depolarizing_pair_states(eta)
        np.testing.assert_allclose(
            cu.choi_state(cu.pauli_gate_channel("I", eta)).mat, expected.states[0].mat, atol=1e-12
        )
        np.testing.assert_allclose(
            cu.choi_state(cu.pauli_gate_channel("Z", eta)).mat, expected.states[1].mat, atol=1e-12
        )

    def test_erasure_choi_structure(self):
        eta, ov = 0.6, 0.3
        choi = cu.choi_state(cu.erasure_channel(1, eta, ov)).mat
        e1 = np.zeros(4, dtype=complex)
        e1[2] = 1.0
        zeta8 = np.zeros(8, dtype=complex)
        zeta8[0] = zeta8[3] = 1 / np.sqrt(2)  # |00> + |11> in the embedded space
        expected = eta * np.kron(projector(e1), np.eye(2) / 2) + (1 - eta) * projector(zeta8)
        np.testing.assert_allclose(choi, expected, atol=1e-12)

    def test_erasure_choi_fidelity(self):
        c1 = cu.choi_state(cu.erasure_channel(1, 0.6, 0.3))
        c2 = cu.choi_state(cu.erasure_channel(2, 0.6, 0.3))
        assert fidelity(c1, c2) == pytest.approx(0.58, abs=1e-9)

    def test_amplitude_damping_extremes(self):
        ident = cu.amplitude_damping_channel(0.0)
        zeta = max_entangled(2)
        np.testing.assert_allclose(cu.choi_state(ident).mat, projector(zeta.amplitudes), atol=1e-12)
        full = cu.amplitude_damping_channel(1.0)
        choi = cu.choi_state(full).mat
        expected = np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2)
        np.testing.assert_allclose(choi, expected, atol=1e-12)

    def test_amplitude_damping_fidelity_formula(self):
        f_num = fidelity(
            cu.choi_state(cu.amplitude_damping_channel(0.8)),
            cu.choi_state(cu.amplitude_damping_channel(0.9)),
        )
        assert f_num == pytest.approx(cu.amplitude_damping_choi_fidelity(0.8, 0.9), abs=1e-9)
        assert f_num == pytest.approx(0.994975, abs=1e-6)


class TestSimulationError:
    def test_pbt_values(self):
        assert cu.pbt_error_bound(16, 2) == pytest.approx(0.25, abs=1e-15)
        assert cu.pbt_error_bound(4, 2) == pytest.approx(1.0, abs=1e-15)

    def test_decreasing_in_ports(self):
        vals = [cu.pbt_error_bound(m, 2) for m in range(1, 30)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            cu.pbt_error_bound(0, 2)
        with pytest.raises(ValueError):
            cu.pbt_error_bound(5, 1)
        with pytest.raises(ValueError, match="exceed"):
            cu.SimulationError(np.array([0.5]), 0.2, 4, 2)

    def test_fidelity_power(self):
        assert cu.choi_fidelity_power(1.0, 3, 7) == 1.0
        assert cu.choi_fidelity_power(0.729150, 1, 1) == pytest.approx(0.729150)
        assert cu.choi_fidelity_power(0.9, 2, 3) == pytest.approx(0.531441, abs=1e-12)


class TestFidelityBound:
    def test_tele_covariant_matches_state_curve(self):
        # with zero simulation error and one port, the channel bound at the
        # mapped un-rescaled tolerance reproduces the state-side value
        fid = su.depolarizing_pair_fidelity(0.6)
        for er in (0.0, 0.04, 0.1, 0.14):
            state_val = su.pure_pair_pf(fid, er, er)
            eps_u = (1 - state_val) * er
            res = cu.channel_fail_lower_bound(fid, 1, 1, 0.0, 0.0, (0.5, 0.5), (eps_u, eps_u))
            assert res.value == pytest.approx(state_val, abs=1e-9)
            assert not res.vacuous

    def test_implied_tolerance_consistency(self):
        fid = 0.8
        res = cu.channel_fail_lower_bound(fid, 2, 3, 0.01, 0.02, (0.5, 0.5), (0.03, 0.05))
        # relation: eps_U + u*delta = (1 - pf) eps_R, with pf the pair value
        # at F^(uM) and the stored rescaled point
        f_pow = fid ** 6
        pf = su.pure_pair_pf(f_pow, res.eps_r[0], res.eps_r[1])
        expect = (1 - pf) * res.eps_r - 2 * np.array([0.01, 0.02])
        np.testing.assert_allclose(res.eps_u_implied, expect, atol=1e-6)
        assert np.all(res.eps_u_implied >= res.eps_u - 1e-9)

    def test_simulation_error_weakens_bound(self):
        fid = 0.9
        clean = cu.channel_fail_lower_bound(fid, 1, 10, 0.0, 0.0, (0.5, 0.5), (0.02, 0.02))
        noisy = cu.channel_fail_lower_bound(fid, 1, 10, 0.1, 0.1, (0.5, 0.5), (0.02, 0.02))
        assert noisy.value <= clean.value + 1e-12

    def test_unachievable_request_is_vacuous(self):
        res = cu.channel_fail_lower_bound(0.9, 1, 1, 0.8, 0.8, (0.5, 0.5), (0.5, 0.5))
        assert res.vacuous and res.value == 0.0

    def test_monotone_in_rounds(self):
        fid = su.depolarizing_pair_fidelity(0.6)
        for e in (0.02, 0.05, 0.1):
            vals = [
                cu.channel_fail_lower_bound(fid, u, 1, 0.0, 0.0, (0.5, 0.5), (e, e)).value
                for u in (1, 2, 3)
            ]
            assert all(vals[i] >= vals[i + 1] - 1e-9 for i in range(2))


class TestPortOptimization:
    def test_tele_covariant_prefers_one_port(self):
        best = cu.best_bound_over_ports(
            0.8, 1, cu.exact_simulation_model(), (0.5, 0.5), (0.05, 0.05), range(1, 30), grid=100
        )
        assert best.ports == 1

    def test_interior_optimum_for_damping_pair(self):
        fid = cu.amplitude_damping_choi_fidelity(0.8, 0.9)
        model = cu.uniform_error_model(2)
        best = cu.best_bound_over_ports(fid, 1, model, (0.5, 0.5), (0.0, 0.0), range(1, 201), grid=120)
        at_1 = cu.channel_fail_lower_bound(fid, 1, 1, 4.0, 4.0, (0.5, 0.5), (0.0, 0.0), grid=120)
        at_200 = cu.channel_fail_lower_bound(fid, 1, 200, 0.02, 0.02, (0.5, 0.5), (0.0, 0.0), grid=120)
        assert 1 < best.ports < 200
        assert best.value > at_1.value + 1e-6
        assert best.value > at_200.value + 1e-6

    def test_envelope_dominates_each_port_count(self):
        fid = cu.amplitude_damping_choi_fidelity(0.8, 0.9)
        model = cu.uniform_error_model(2)
        best = cu.best_bound_over_ports(fid, 1, model, (0.5, 0.5), (0.02, 0.02), range(1, 101), grid=100)
        for m in (1, 7, 40, 100):
            err = model(m)
            res = cu.channel_fail_lower_bound(
                fid, 1, m, float(err.per_channel[0]), float(err.per_channel[1]),
                (0.5, 0.5), (0.02, 0.02), grid=100,
            )
            assert best.value >= res.value - 1e-12

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            cu.best_bound_over_ports(0.9, 1, cu.uniform_error_model(2), (0.5, 0.5), (0.1, 0.1), range(0))


class TestExactSdpBound:
    def test_matches_choi_sdp_for_tele_covariant_pair(self):
        ens = cu.pauli_pair_ensemble(0.6)
        dep = su.depolarizing_pair_states(0.6)
        for e in (0.0, 0.05, 0.12):
            bound = cu.channel_fail_lower_bound_sdp(ens, 1, 1, np.array([e, e]))
            direct = solve_min_fail(dep, ToleranceVector(np.array([e, e]), "U")).p_fail
            assert bound == pytest.approx(direct, abs=1e-7)

    def test_dominates_fidelity_relaxation(self):
        ens = cu.pauli_pair_ensemble(0.6)
        fid = su.depolarizing_pair_fidelity(0.6)
        for e in (0.0, 0.05, 0.1):
            exact = cu.channel_fail_lower_bound_sdp(ens, 1, 1, np.array([e, e]))
            relax = cu.channel_fail_lower_bound(fid, 1, 1, 0.0, 0.0, (0.5, 0.5), (e, e)).value
            assert exact >= relax - 1e-6

    def test_two_round_tensor_power(self):
        ens = cu.pauli_pair_ensemble(0.6)
        fid = su.depolarizing_pair_fidelity(0.6)
        exact = cu.channel_fail_lower_bound_sdp(ens, 2, 1, np.array([0.05, 0.05]))
        relax = cu.channel_fail_lower_bound(fid, 2, 1, 0.0, 0.0, (0.5, 0.5), (0.05, 0.05)).value
        assert exact >= relax - 1e-6

    def test_random_guess_tolerance_gives_zero(self):
        ens = cu.pauli_pair_ensemble(0.6)
        val = cu.channel_fail_lower_bound_sdp(ens, 1, 1, np.array([0.6, 0.6]))
        assert val == pytest.approx(0.0, abs=1e-7)

    def test_negative_raw_bound_clamps_to_zero(self):
        ens = cu.pauli_pair_ensemble(0.6)
        val = cu.channel_fail_lower_bound_sdp(
            ens, 1, 1, np.array([0.6, 0.6]), delta=np.array([0.2, 0.2])
        )
        assert val == 0.0

    def test_dimension_limit(self):
        ens = cu.pauli_pair_ensemble(0.6)
        with pytest.raises(ValueError, match="exceeds"):
            cu.channel_fail_lower_bound_sdp(ens, 3, 1, np.array([0.1, 0.1]))

    def test_simulation_error_penalty(self):
        ens = cu.amplitude_damping_pair_ensemble(0.9, 0.8)
        d = 0.3
        with_err = cu.channel_fail_lower_bound_sdp(ens, 1, 1, np.zeros(2), delta=np.array([d, d]))
        without = cu.channel_fail_lower_bound_sdp(ens, 1, 1, np.zeros(2))
        assert with_err <= without + 1e-9


class TestClassicalBaselines:
    def test_pauli_fidelity_value(self):
        res = cu.classical_pauli_bound(0.6, 1, (0.0, 0.0))
        # fidelity sqrt(1 - 0.36) = 0.8 shows up as the zero-tolerance bound
        assert res.value == pytest.approx(0.8, abs=1e-9)
        assert res.classical

    def test_pauli_extremes(self):
        noiseless = cu.classical_pauli_bound(1.0, 1, (0.0, 0.0))
        assert noiseless.value == pytest.approx(0.0, abs=1e-9)
        pure_noise = cu.classical_pauli_bound(0.0, 1, (0.0, 0.0))
        assert pure_noise.value == pytest.approx(1.0, abs=1e-6)

    def test_erasure_coincides_with_entangled(self):
        for e in (0.0, 0.03, 0.1, 0.2):
            cl = cu.classical_erasure_bound(0.6, 0.3, 1, (e, e))
            ent = cu.channel_fail_lower_bound(0.58, 1, 1, 0.0, 0.0, (0.5, 0.5), (e, e))
            assert cl.value == pytest.approx(ent.value, abs=1e-9)

    def test_erasure_orthogonal_errors(self):
        res = cu.classical_erasure_bound(1.0, 0.0, 1, (0.0, 0.0))
        assert res.value == pytest.approx(0.0, abs=1e-9)

    def test_entanglement_advantage_window_exists(self):
        # somewhere at moderate symmetric tolerance the classical lower bound
        # exceeds the entangled strategy's achievable failure probability
        hull = su.depolarizing_upper_hull(0.6)
        found = False
        for e in np.linspace(0.07, 0.2, 27):
            classical_lb = cu.classical_pauli_bound(0.6, 1, (float(e), float(e))).value
            entangled_ub = su.hull_value(hull, float(e))
            if classical_lb > entangled_ub + 1e-9:
                found = True
                break
        assert found


class TestCovarianceDiagnostic:
    def test_pauli_channel_is_covariant(self):
        assert cu.is_tele_covariant_qubit(cu.pauli_gate_channel("Z", 0.6))

    def test_damping_channel_is_not(self):
        assert not cu.is_tele_covariant_qubit(cu.amplitude_damping_channel(0.5))

    def test_non_qubit_rejected(self):
        with pytest.raises(ValueError):
            cu.pauli_covariance_defect(cu.erasure_channel(1, 0.5, 0.0))


class TestModelTable:
    def test_qubit_tele_covariance_flags(self):
        pairs = {
            "pauli": (cu.pauli_gate_channel("I", 0.6), cu.pauli_gate_channel("Z", 0.6)),
            "ad": (cu.amplitude_damping_channel(0.9), cu.amplitude_damping_channel(0.8)),
        }
        for name, channels in pairs.items():
            covariant = all(cu.is_tele_covariant_qubit(c) for c in channels)
            assert cu.CHANNEL_MODELS[name].tele_covariant == covariant, name
        assert cu.CHANNEL_MODELS["pauli"].tele_covariant
        assert not cu.CHANNEL_MODELS["ad"].tele_covariant

    def test_fidelities_match_choi_states(self):
        cases = {
            "pauli": ((0.6,), cu.pauli_pair_ensemble(0.6)),
            "erasure": ((0.6, 0.3), cu.erasure_pair_ensemble(0.6, 0.3)),
            "ad": ((0.9, 0.8), cu.amplitude_damping_pair_ensemble(0.9, 0.8)),
        }
        for name, (params, ens) in cases.items():
            choi = [cu.choi_state(c) for c in ens.channels]
            expect = fidelity(choi[0], choi[1])
            assert cu.CHANNEL_MODELS[name].fidelity(*params) == pytest.approx(expect, abs=1e-9), name

    def test_classical_bounds_read_the_table(self, monkeypatch):
        # at zero tolerance the bound equals the fidelity it is given
        for name, params, bound in (
            ("classical-pauli", (0.6,), lambda: cu.classical_pauli_bound(0.6, 1, (0.0, 0.0))),
            ("classical-erasure", (0.6, 0.3), lambda: cu.classical_erasure_bound(0.6, 0.3, 1, (0.0, 0.0))),
        ):
            spec = cu.CHANNEL_MODELS[name]
            assert bound().value == pytest.approx(spec.fidelity(*params), abs=1e-9)
            monkeypatch.setitem(
                cu.CHANNEL_MODELS, name, dataclasses.replace(spec, fidelity=lambda *args: 0.25)
            )
            assert bound().value == pytest.approx(0.25, abs=1e-9)

    def test_cli_model_choices_are_the_table(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        model = next(a for a in sub.choices["channel"]._actions if a.dest == "model")
        assert tuple(model.choices) == tuple(cu.CHANNEL_MODELS)


class TestEnsembles:
    def test_validation(self):
        ch = cu.amplitude_damping_channel(0.5)
        with pytest.raises(ValueError, match="at least two"):
            cu.ChannelEnsemble((ch,), np.array([1.0]))
        with pytest.raises(ValueError, match="probability"):
            cu.ChannelEnsemble((ch, ch), np.array([0.6, 0.6]))
        with pytest.raises(ValueError, match="dimensions"):
            cu.ChannelEnsemble((ch, cu.erasure_channel(1, 0.5, 0.0)), np.array([0.5, 0.5]))
