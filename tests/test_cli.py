import csv
import json

import numpy as np
import pytest

from approxud.cli import (
    EXIT_NONCONVERGED,
    EXIT_OK,
    EXIT_VACUOUS,
    EXIT_VALIDATION,
    load_ensemble,
    main,
    povm_from_pairs,
)
from approxud.qmath import random_density_matrix
from approxud.sdp import p_fail_of


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def pure_pair_ensemble_file(path, xi=0.3):
    pv = np.array([1.0, 0.0])
    qv = np.array([xi, np.sqrt(1 - xi**2)])

    def pairs(m):
        return [[[float(x.real), float(x.imag)] for x in row] for row in m]

    payload = {
        "states": [pairs(np.outer(pv, pv).astype(complex)), pairs(np.outer(qv, qv).astype(complex))],
        "priors": [0.5, 0.5],
    }
    path.write_text(json.dumps(payload))
    return str(path)


class TestStateBinary:
    def test_csv_schema_and_endpoints(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            {"xi": 0.3, "prior_p": 0.5, "eps_max": 0.05, "grid": 3, "with_sdp": True},
        )
        out = tmp_path / "out.csv"
        assert main(["state-binary", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rows = read_csv(out)
        assert rows[0].keys() == {
            "command", "kind", "xi", "prior_p", "prior_q", "eps_p", "eps_q", "g", "h", "sdp"
        }
        grid_rows = [r for r in rows if r["kind"] == "grid"]
        assert len(grid_rows) == 9
        for r in grid_rows:
            assert abs(float(r["g"]) - float(r["sdp"])) < 1e-5
        origin = [r for r in grid_rows if float(r["eps_p"]) == 0 and float(r["eps_q"]) == 0]
        assert float(origin[0]["g"]) == pytest.approx(0.3, abs=1e-6)
        hel = [r for r in rows if r["kind"] == "helstrom"][0]
        assert float(hel["eps_p"]) == pytest.approx((1 - np.sqrt(0.91)) / 2, abs=1e-6)
        assert float(hel["g"]) == pytest.approx(0.0, abs=1e-8)
        exact = [r for r in rows if r["kind"] == "exact_ud"][0]
        assert float(exact["g"]) == pytest.approx(0.3, abs=1e-6)

    def test_deterministic_and_parallel_invariant(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            {"xi": 0.45, "prior_p": 0.4, "eps_max": 0.1, "grid": 3, "with_sdp": False},
        )
        outs = []
        for name, workers in (("a.csv", "1"), ("b.csv", "1"), ("c.csv", "4")):
            out = tmp_path / name
            assert main(["state-binary", "--config", cfg, "--out", str(out), "--parallel", workers]) == EXIT_OK
            outs.append(out.read_text())
        assert outs[0] == outs[1] == outs[2]

    def test_json_format_mirrors_csv_fields(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            {"xi": 0.3, "eps_max": 0.05, "grid": 2, "with_sdp": False},
        )
        out = tmp_path / "out.json"
        assert main(["state-binary", "--config", cfg, "--out", str(out), "--format", "json"]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["command"] == "state-binary"
        assert payload["params"]["xi"] == 0.3
        assert {"kind", "eps_p", "eps_q", "g", "h", "sdp"} <= payload["records"][0].keys()

    def test_bad_config_exit_code(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {"xi": 1.5})
        out = tmp_path / "out.csv"
        assert main(["state-binary", "--config", cfg, "--out", str(out)]) == EXIT_VALIDATION


class TestStateMixed:
    @pytest.mark.parametrize("model", ["depolarizing", "erasure"])
    def test_record_kinds_and_family_count(self, tmp_path, model):
        cfg = write_config(
            tmp_path / "cfg.json",
            {"model": model, "eta": 0.6, "xi": 0.3, "grid": 8, "eps_max": 0.25, "n_a": 11},
        )
        out = tmp_path / "out.csv"
        assert main(["state-mixed", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rows = read_csv(out)
        kinds = {r["kind"] for r in rows}
        assert kinds == {"strategy", "lower_bound", "upper_hull", "helstrom"}
        families = {r["a"] for r in rows if r["kind"] == "strategy"}
        assert len(families) == 11
        lb = {float(r["eps"]): float(r["p_fail"]) for r in rows if r["kind"] == "lower_bound"}
        ub = {float(r["eps"]): float(r["p_fail"]) for r in rows if r["kind"] == "upper_hull"}
        for e in lb:
            assert lb[e] <= ub[e] + 1e-6

    def test_erasure_zero_tolerance_overlap(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            {"model": "erasure", "eta": 0.6, "xi": 0.3, "grid": 5, "eps_max": 0.2},
        )
        out = tmp_path / "out.csv"
        main(["state-mixed", "--config", cfg, "--out", str(out)])
        rows = read_csv(out)
        lb0 = [r for r in rows if r["kind"] == "lower_bound" and float(r["eps"]) == 0.0][0]
        ub0 = [r for r in rows if r["kind"] == "upper_hull" and float(r["eps"]) == 0.0][0]
        assert float(lb0["p_fail"]) == pytest.approx(0.58, abs=1e-6)
        assert float(ub0["p_fail"]) == pytest.approx(0.58, abs=1e-6)


class TestChannel:
    def test_pauli_rounds_monotone(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            {"model": "pauli", "eta": 0.6, "rounds": [1, 2], "grid": 4, "eps_max": 0.12},
        )
        out = tmp_path / "out.csv"
        assert main(["channel", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rows = read_csv(out)
        by_u = {}
        for r in rows:
            by_u.setdefault(int(r["u"]), {})[float(r["eps"])] = float(r["bound"])
        for e, v in by_u[1].items():
            assert by_u[2][e] <= v + 1e-9

    def test_ad_reports_chosen_ports(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            {"model": "ad", "r_p": 0.9, "r_q": 0.8, "rounds": [1], "grid": 2,
             "eps_max": 0.02, "m_max": 80, "scan_grid": 120},
        )
        out = tmp_path / "out.csv"
        assert main(["channel", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rows = read_csv(out)
        assert all(r["kind"] == "optimal_ports" for r in rows)
        assert any(1 < int(r["ports"]) < 80 for r in rows)

    def test_vacuous_only_exit_code(self, tmp_path):
        # one round with a huge simulation error makes every bound vacuous
        cfg = write_config(
            tmp_path / "cfg.json",
            {"model": "ad", "r_p": 0.9, "r_q": 0.8, "rounds": [1], "grid": 2,
             "eps_max": 0.9, "m_max": 1, "scan_grid": 60},
        )
        out = tmp_path / "out.csv"
        assert main(["channel", "--config", cfg, "--out", str(out)]) == EXIT_VACUOUS

    def test_classical_erasure_equals_entangled(self, tmp_path):
        cfg_c = write_config(
            tmp_path / "c.json",
            {"model": "classical-erasure", "eta": 0.6, "overlap": 0.3, "rounds": [1],
             "grid": 5, "eps_max": 0.2},
        )
        cfg_e = write_config(
            tmp_path / "e.json",
            {"model": "erasure", "eta": 0.6, "overlap": 0.3, "rounds": [1],
             "grid": 5, "eps_max": 0.2},
        )
        out_c, out_e = tmp_path / "c.csv", tmp_path / "e.csv"
        main(["channel", "--config", cfg_c, "--out", str(out_c)])
        main(["channel", "--config", cfg_e, "--out", str(out_e)])
        rows_c = {float(r["eps"]): float(r["bound"]) for r in read_csv(out_c)}
        rows_e = {float(r["eps"]): float(r["bound"]) for r in read_csv(out_e)}
        for e in rows_c:
            assert rows_c[e] == pytest.approx(rows_e[e], abs=1e-9)


class TestSolve:
    def test_round_trip_povm(self, tmp_path):
        ens_path = pure_pair_ensemble_file(tmp_path / "ens.json")
        out = tmp_path / "sol.json"
        code = main(["solve", "--ensemble", ens_path, "--eps", "0", "0", "--flavor", "R", "--out", str(out)])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["solver_status"] == "optimal"
        assert payload["p_fail"] == pytest.approx(0.3, abs=1e-6)
        povm = povm_from_pairs(payload["povm"])
        ens = load_ensemble(ens_path)
        assert p_fail_of(povm, ens) == pytest.approx(payload["p_fail"], abs=1e-9)

    def test_orthogonal_pair_zero_fail(self, tmp_path):
        ens_path = pure_pair_ensemble_file(tmp_path / "ens.json", xi=0.0)
        out = tmp_path / "sol.json"
        main(["solve", "--ensemble", ens_path, "--eps", "0", "0", "--flavor", "U", "--out", str(out)])
        payload = json.loads(out.read_text())
        assert payload["p_fail"] == pytest.approx(0.0, abs=1e-8)

    def test_identical_states_always_abstain(self, tmp_path):
        pv = np.array([1.0, 0.0])

        def pairs(m):
            return [[[float(x.real), float(x.imag)] for x in row] for row in m]

        path = tmp_path / "ens.json"
        mat = pairs(np.outer(pv, pv).astype(complex))
        path.write_text(json.dumps({"states": [mat, mat], "priors": [0.5, 0.5]}))
        out = tmp_path / "sol.json"
        main(["solve", "--ensemble", str(path), "--eps", "0", "0", "--flavor", "U", "--out", str(out)])
        payload = json.loads(out.read_text())
        assert payload["p_fail"] == pytest.approx(1.0, abs=1e-9)

    def test_non_converged_solve_exits_nonconverged(self, tmp_path):
        # a rank-1 triple in d=6 at eps 1e-3 (R) ends max-iterations; its
        # iterate is not a valid POVM, which must not turn into exit 2
        rng = np.random.default_rng(0)
        states = [random_density_matrix(6, rng, rank=1).mat for _ in range(3)]
        path = tmp_path / "ens.json"
        payload = {
            "states": [[[[float(x.real), float(x.imag)] for x in row] for row in m] for m in states],
            "priors": [1 / 3, 1 / 3, 1 / 3],
        }
        path.write_text(json.dumps(payload))
        out = tmp_path / "sol.json"
        code = main(["solve", "--ensemble", str(path), "--eps", "1e-3", "1e-3", "1e-3",
                     "--flavor", "R", "--out", str(out)])
        assert code == EXIT_NONCONVERGED
        assert json.loads(out.read_text())["solver_status"] != "optimal"

    def test_missing_ensemble_is_validation_error(self, tmp_path):
        out = tmp_path / "sol.json"
        assert main(["solve", "--out", str(out)]) == EXIT_VALIDATION

    def test_malformed_ensemble_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"states": [[[0.5, 0.0]]], "priors": [1.0]}))
        out = tmp_path / "sol.json"
        assert main(["solve", "--ensemble", str(path), "--out", str(out)]) == EXIT_VALIDATION
