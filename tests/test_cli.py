import csv
import json

import numpy as np
import pytest

from approxud import channel_ud as cu
from approxud.cli import (
    EXIT_NONCONVERGED,
    EXIT_OK,
    EXIT_VACUOUS,
    EXIT_VALIDATION,
    _CHANNEL_DEFAULTS,
    _fmt,
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


    def test_tiny_tolerance_lower_bound(self, tmp_path):
        # pair fidelity 0.1528 (eta 1): at eps 1e-12 the lower bound is
        # 0.1527981591286 (40-digit mpmath); the lower_bound record used to
        # print 0.15279838, a value above it
        cfg = write_config(
            tmp_path / "cfg.json",
            {"model": "erasure", "eta": 1.0, "xi": 0.1528, "grid": 2, "eps_max": 1e-12, "n_a": 2},
        )
        out = tmp_path / "out.json"
        assert main(["state-mixed", "--config", cfg, "--out", str(out), "--format", "json"]) == EXIT_OK
        records = json.loads(out.read_text())["records"]
        lb = [r for r in records if r["kind"] == "lower_bound" and r["eps"] == 1e-12]
        assert len(lb) == 1
        assert 0.1527981591276 <= lb[0]["p_fail"] <= 0.1527981591287


class TestConfigKeys:
    @pytest.mark.parametrize("command, payload, bad", [
        ("state-binary", {"xi": 0.3, "grid": 2, "with_sdp": False, "scan_grid": 400}, "scan_grid"),
        ("state-mixed", {"model": "erasure", "grid": 2, "n_a": 2, "eps": 0.1}, "eps"),
        ("channel", {"model": "ad", "rounds": [1], "grid": 2, "m_mx": 5}, "m_mx"),
        ("channel", {"model": "pauli", "rounds": [1], "grid": 2, "scan_grid": 400}, "scan_grid"),
        ("solve", {"eps": [0.0, 0.0], "flavour": "R"}, "flavour"),
    ])
    def test_unknown_key_is_validation_error(self, tmp_path, capsys, command, payload, bad):
        cfg = write_config(tmp_path / "cfg.json", payload)
        out = tmp_path / "out.csv"
        argv = [command, "--config", cfg, "--out", str(out)]
        if command == "solve":
            argv += ["--ensemble", pure_pair_ensemble_file(tmp_path / "ens.json")]
        assert main(argv) == EXIT_VALIDATION
        assert repr(bad) in capsys.readouterr().err
        assert not out.exists()

    def test_key_unused_by_the_model_is_accepted(self, tmp_path):
        # overlap belongs to the erasure models, yet a pauli config may carry it
        cfg = write_config(
            tmp_path / "cfg.json",
            {"model": "pauli", "eta": 0.6, "overlap": 0.3, "rounds": [1], "grid": 2, "eps_max": 0.1},
        )
        assert main(["channel", "--config", cfg, "--out", str(tmp_path / "out.csv")]) == EXIT_OK


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
             "eps_max": 0.02, "m_max": 80},
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
             "eps_max": 0.9, "m_max": 1},
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


    @pytest.mark.parametrize("model", ["erasure", "classical-erasure"])
    def test_out_of_range_parameter_is_validation_error(self, tmp_path, model):
        # a negative overlap used to pass and give an entangled bound below
        # the classical one
        cfg = write_config(tmp_path / "cfg.json", {
            "model": model, "eta": 0.6, "overlap": -0.3, "rounds": [1], "grid": 3, "eps_max": 0.1,
        })
        out = tmp_path / "out.csv"
        assert main(["channel", "--config", cfg, "--out", str(out)]) == EXIT_VALIDATION
        assert not out.exists()
        for key, value in (("overlap", 1.0), ("eta", 1.2)):
            cfg = write_config(tmp_path / "cfg.json", {
                "model": model, "eta": 0.6, "overlap": 0.3, key: value, "rounds": [1], "grid": 3,
            })
            assert main(["channel", "--config", cfg, "--out", str(out)]) == EXIT_VALIDATION
        cfg = write_config(tmp_path / "cfg.json", {"model": "ad", "r_p": 0.9, "r_q": -0.1, "rounds": [1]})
        assert main(["channel", "--config", cfg, "--out", str(out)]) == EXIT_VALIDATION


def channel_records_by_point(cfg):
    """The channel CSV rows a config asks for, rebuilt from one
    channel_fail_lower_bound call per (u, eps, ports) point, with a port scan
    that keeps only strictly larger bounds, formatted through _fmt."""
    spec = cu.CHANNEL_MODELS[cfg["model"]]
    values = {k: float(cfg.get(k, d)) for k, d in _CHANNEL_DEFAULTS.items()}
    fid = spec.fidelity_at(values)
    model = cu.uniform_error_model(2)
    eps_axis = np.linspace(0.0, cfg["eps_max"], cfg["grid"])
    params = [values[k] if k in spec.params else None for k in _CHANNEL_DEFAULTS]

    def bound(u, e, m):
        if spec.tele_covariant:
            return cu.channel_fail_lower_bound(fid, u, m, 0.0, 0.0, (0.5, 0.5), (e, e), spec.classical)
        err = model(m).per_channel
        return cu.channel_fail_lower_bound(fid, u, m, float(err[0]), float(err[1]), (0.5, 0.5), (e, e))

    def row(kind, u, e, res, classical):
        fields = ["channel", cfg["model"], kind, *params, u, res.ports, e, res.value,
                  float(res.eps_r[0]), float(res.eps_r[1]), classical, res.vacuous]
        return [_fmt(v) for v in fields]

    rows = []
    for u in cfg["rounds"]:
        for e in eps_axis:
            if spec.tele_covariant:
                rows.append(row("bound", u, float(e), bound(u, float(e), 1), spec.classical))
                continue
            best = None
            for m in range(1, cfg["m_max"] + 1):
                res = bound(u, float(e), m)
                if best is None or res.value > best.value:
                    best = res
            rows.append(row("optimal_ports", u, float(e), best, False))
    if not spec.tele_covariant:
        for u in cfg["rounds"]:
            for e in eps_axis:
                for m in cfg.get("fixed_ports", []):
                    rows.append(row("fixed_ports", u, float(e), bound(u, float(e), m), False))
    return rows


class TestChannelLanes:
    """The channel command evaluates every (u, eps, ports) point of its sweep
    in one lane call; its records equal those of one call per point."""

    @pytest.mark.parametrize("cfg", [
        {"model": "ad", "r_p": 0.9, "r_q": 0.8, "rounds": [1, 2], "grid": 2, "eps_max": 0.02,
         "m_max": 60, "fixed_ports": [1, 45, 60]},
        {"model": "pauli", "eta": 0.6, "rounds": [1, 2, 3], "grid": 5, "eps_max": 0.3},
        {"model": "erasure", "eta": 0.3, "overlap": 0.45, "rounds": [1, 3], "grid": 5, "eps_max": 0.2},
        {"model": "classical-pauli", "eta": 0.4, "rounds": [1, 2], "grid": 5, "eps_max": 0.3},
        {"model": "classical-erasure", "eta": 0.6, "overlap": 0.3, "rounds": [2], "grid": 5, "eps_max": 0.3},
    ], ids=lambda cfg: cfg["model"])
    def test_records_equal_one_call_per_point(self, tmp_path, cfg):
        out = tmp_path / "out.csv"
        code = main(["channel", "--config", write_config(tmp_path / "cfg.json", cfg), "--out", str(out)])
        assert code == EXIT_OK
        with open(out, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header[:2] == ["command", "model"] and header[-2:] == ["classical", "vacuous"]
        assert rows == channel_records_by_point(cfg)

    @pytest.mark.parametrize("key, value, name", [
        ("grid", 0, "grid"), ("rounds", [], "rounds"), ("rounds", [1, 0], "round"), ("rounds", [-1], "round"),
    ])
    def test_empty_or_negative_sweep_is_validation_error(self, tmp_path, capsys, key, value, name):
        # grid 0 and an empty rounds list used to write a header-only CSV and
        # exit 4, as if every bound were vacuous
        for model in ("pauli", "ad"):
            cfg = write_config(tmp_path / "cfg.json", {"model": model, "eps_max": 0.1, "m_max": 5, key: value})
            out = tmp_path / "out.csv"
            assert main(["channel", "--config", cfg, "--out", str(out)]) == EXIT_VALIDATION
            assert name in capsys.readouterr().err
            assert not out.exists()


class TestSolve:
    def test_solver_account_in_json(self, tmp_path):
        ens_path = pure_pair_ensemble_file(tmp_path / "ens.json")
        out = tmp_path / "sol.json"
        code = main(["solve", "--ensemble", ens_path, "--eps", "0.05", "0.05", "--flavor", "R",
                     "--out", str(out)])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert isinstance(payload["iterations"], int) and payload["iterations"] > 0
        assert max(payload["pres"], payload["dres"]) <= 1e-9
        assert payload["pcost"] == pytest.approx(payload["p_fail"], abs=1e-7)
        assert payload["dcost"] == pytest.approx(payload["pcost"], abs=1e-7)
        assert 0.0 <= payload["gap"] <= 1e-8

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
