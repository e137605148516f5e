"""Tests of the benchmark's reference computations and output checks.

    python3 -m pytest benchmark/test_oracles.py

Each check is shown to pass on a real output of the program and to reject
the same output with one value made wrong.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402
from approxud import cli  # noqa: E402


@pytest.mark.parametrize("xi", [0.1, 0.3, 0.75])
def test_closed_form_is_the_overlap_at_zero_tolerance(xi):
    assert oracles.pure_pair_equal_priors(xi, 0.0, 0.0) == pytest.approx(xi, abs=1e-15)
    assert oracles.pure_pair_unrescaled(xi, 0.0) == pytest.approx(xi, abs=1e-15)


@pytest.mark.parametrize("xi", [0.1, 0.3, 0.75])
def test_closed_form_is_zero_once_the_window_closes(xi):
    e = oracles.helstrom_tangency_equal(xi)
    assert oracles.window_top(e, e) == pytest.approx(xi, abs=1e-12)
    assert oracles.pure_pair_equal_priors(xi, e * (1 + 1e-9), e * (1 + 1e-9)) == 0.0
    assert oracles.pure_pair_equal_priors(xi, 0.6, 0.5) == 0.0
    assert oracles.pure_pair_equal_priors(xi, 0.9 * e, 0.9 * e) > 0.0


def test_unrescaled_value_inverts_the_rescaled_map():
    xi, t = 0.4, 0.05
    pf = oracles.pure_pair_equal_priors(xi, t, t)
    assert oracles.pure_pair_unrescaled(xi, (1 - pf) * t) == pytest.approx(pf, abs=1e-12)


def _choi_fidelities(model, eta=0.0, overlap=0.0, r_p=0.0, r_q=0.0):
    pair = oracles.channel_pair(model, eta, overlap, r_p, r_q)
    by_sqrtm = oracles.fidelity_sqrtm(*(oracles.choi_matrix(k) for k in pair))
    by_factors = oracles.factor_fidelity(*(oracles.choi_factor(k) for k in pair))
    assert oracles.fidelity(*(oracles.choi_matrix(k) for k in pair)) == pytest.approx(by_factors, abs=1e-12)
    return by_sqrtm, by_factors


def test_sqrtm_fidelity_of_the_damping_choi_pair():
    by_sqrtm, by_factors = _choi_fidelities("ad", r_p=0.8, r_q=0.9)
    assert abs(by_sqrtm - 0.994975) <= 1e-6
    assert abs(by_sqrtm - 0.995) > 1e-6
    exact = (1 + np.sqrt(0.2 * 0.1) + np.sqrt(0.8 * 0.9)) / 2
    assert by_factors == pytest.approx(exact, abs=1e-14)


def test_fidelity_of_the_pauli_and_erasure_choi_pairs():
    for model, eta, overlap, expected in (("pauli", 0.6, 0.0, 0.729150), ("erasure", 0.6, 0.3, 0.58)):
        by_sqrtm, by_factors = _choi_fidelities(model, eta, overlap)
        assert abs(by_sqrtm - expected) <= 1e-6
        assert abs(by_factors - by_sqrtm) <= 1e-7


@pytest.mark.parametrize("u", [1, 2, 3])
def test_channel_closed_form_is_the_powered_fidelity_at_zero_tolerance(u):
    f = _choi_fidelities("pauli", eta=0.6)[1]
    bound, implied = oracles.channel_bound(f, u, 1, 0.0, (0.0, 0.0))
    assert bound == pytest.approx(f**u, abs=1e-12)
    assert np.all(implied == 0.0)


def test_fidelity_of_singular_two_copy_choi_states():
    pair = oracles.channel_pair("ad", 0.0, 0.0, 0.9, 0.7)
    powered = [np.kron(c, c) for c in (oracles.choi_matrix(k) for k in pair)]
    exact = ((1 + np.sqrt(0.1 * 0.3) + np.sqrt(0.9 * 0.7)) / 2) ** 2
    assert oracles.fidelity(*powered) == pytest.approx(exact, abs=1e-12)


def test_closed_form_at_fidelity_one():
    assert oracles.pure_pair_equal_priors(1.0 + 1e-15, 0.5, 0.5) == 0.0


def test_channel_closed_form_subtracts_the_port_penalty():
    f = _choi_fidelities("ad", r_p=0.9, r_q=0.87)[1]
    bound, _ = oracles.channel_bound(f, 2, 40, oracles.pbt_error(40), (0.01, 0.01))
    plain = oracles.pure_pair_equal_priors(f ** 80, 0.01, 0.01)
    assert bound == pytest.approx(plain - 2 * 2 * 2 * 1 / (2 * 40), abs=1e-12)


# ---------------------------------------------------------------------------
# checks against real outputs, then against a corrupted copy


def _run(group):
    outputs = []
    for call in group.calls:
        assert cli.main(call.argv) == 0
        outputs.append(call.out.read_text())
    return outputs


def _no_problems(group, outputs):
    return all(not bad for bad in group.check(outputs))


def test_solve_checks(tmp_path):
    rng = np.random.default_rng(7)
    xi = 0.45
    states = workloads.padded_pure_pair(rng, xi, 2)
    group = workloads._ladder(tmp_path, "padded", states, np.full(2, 0.5),
                              [("R", 0.0), ("R", 0.04), ("U", 0.1)], exact_xi=xi)
    outputs = _run(group)
    assert _no_problems(group, outputs)

    def corrupt(index, edit):
        data = json.loads(outputs[index])
        edit(data)
        changed = list(outputs)
        changed[index] = json.dumps(data)
        return group.check(changed)[index]

    # a p_fail off the closed form (and off the POVM's own score)
    assert corrupt(1, lambda d: d.update(p_fail=d["p_fail"] + 1e-4))
    # a POVM that no longer sums to the identity
    assert corrupt(2, lambda d: d["povm"][0][0][0].__setitem__(0, d["povm"][0][0][0][0] + 1e-3))
    # a value that rises along the ladder
    assert corrupt(1, lambda d: d.update(p_fail=1.0))


def test_fidelity_bound_check_rejects_a_value_below_it(tmp_path):
    rng = np.random.default_rng(3)
    states = [workloads.random_state(rng, 4, 2) for _ in range(2)]
    group = workloads._ladder(tmp_path, "mixed", states, np.full(2, 0.5), [("R", 0.0), ("R", 0.05)])
    outputs = _run(group)
    assert _no_problems(group, outputs)
    floor = oracles.pure_pair_equal_priors(oracles.fidelity(*states), 0.05, 0.05)
    data = json.loads(outputs[1])
    data["p_fail"] = floor - 1e-3
    assert any("fidelity bound" in m for m in group.check([outputs[0], json.dumps(data)])[1][workloads.WHOLE_CALL])


def _corrupt_csv(text, row_index, column, value):
    rows = list(csv.DictReader(io.StringIO(text)))
    rows[row_index][column] = value
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


def test_surface_checks(tmp_path):
    group = workloads._surface(tmp_path, "surface", 0.4, 0.5, 0.3, 3)
    (text,) = _run(group)
    assert _no_problems(group, [text])
    g = float(list(csv.DictReader(io.StringIO(text)))[4]["g"])

    def messages(column, value):
        bad = group.check([_corrupt_csv(text, 4, column, value)])[0]
        return " ".join(" ".join(m) for m in bad.values())

    assert "closed form" in messages("g", repr(g + 1e-5))
    assert "differs from g" in messages("sdp", repr(g - 1e-5))
    assert "below its lower bound" in messages("h", repr(g + 1e-3))
    assert "increases with a tolerance" in messages("g", repr(g + 0.1))


def test_channel_checks(tmp_path):
    group = workloads._channel(tmp_path, "ad", {"model": "ad", "r_p": 0.9, "r_q": 0.87, "rounds": [1],
                                                "grid": 2, "eps_max": 0.02, "m_max": 16,
                                                "fixed_ports": [4, 16]})
    (text,) = _run(group)
    assert _no_problems(group, [text])
    rows = list(csv.DictReader(io.StringIO(text)))
    best = float(rows[0]["bound"])
    assert rows[0]["vacuous"] == "false"

    def messages(row, column, value):
        bad = group.check([_corrupt_csv(text, row, column, value)])[0]
        return " ".join(" ".join(m) for m in bad.values())

    assert "closed form" in messages(0, "bound", repr(best + 1e-4))
    fixed = next(k for k, r in enumerate(rows) if r["kind"] == "fixed_ports" and float(r["eps"]) == 0.0)
    assert "above the optimised one" in messages(fixed, "bound", repr(best + 1e-3))
    assert "does not cover" in messages(1, "eps_r_p", "0.0")
    assert "increases with eps" in messages(1, "bound", repr(best + 1e-3))
