"""The three workloads: inputs drawn from a seed, the CLI calls of one round,
and the checks each call's output must pass.

A workload is a list of groups. A group is a few CLI calls whose outputs are
checked together (a tolerance ladder on one ensemble, or one sweep). The
program sees only the files written here; every check compares against
`oracles`, never against a stored copy of an earlier output.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

# Tolerances of the checks. Values are printed with 12 significant digits.
TOL_EXACT = 1e-6       # SDP value against a closed form
TOL_KERNEL = 1e-7      # pure-pair kernel against the closed form
TOL_ORDER = 1e-9       # monotonicity and bound ordering within one sweep

WHOLE_CALL = -1        # problem key meaning every point of the call failed


@dataclass
class Call:
    """One invocation of approxud.cli.main."""

    argv: list[str]
    out: Path
    points: int


@dataclass
class Group:
    """Calls checked together. `check` gets each call's output text (None if
    the call failed) and returns, per call, {point index | WHOLE_CALL: [msg]}."""

    calls: list[Call]
    check: Callable[[list[str | None]], list[dict[int, list[str]]]]


@dataclass
class Plan:
    warmup: Group
    round: list[Group]


# ---------------------------------------------------------------------------
# input generation


def random_state(rng: np.random.Generator, d: int, rank: int) -> np.ndarray:
    """G G^dagger / Tr with G a complex Gaussian d x rank matrix."""
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    m = m / np.trace(m).real
    return (m + m.conj().T) / 2


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    ph = np.diag(r) / np.abs(np.diag(r))
    return q * ph[None, :]


def padded_pure_pair(rng: np.random.Generator, xi: float, ancilla_dim: int) -> list[np.ndarray]:
    """|v><v| (x) sigma for a pure pair of overlap xi and a common full-rank
    ancilla state sigma, conjugated by one random unitary."""
    vecs = (np.array([1.0, 0.0]), np.array([xi, np.sqrt(1.0 - xi * xi)]))
    sigma = random_state(rng, ancilla_dim, ancilla_dim)
    u = random_unitary(rng, 2 * ancilla_dim)
    out = []
    for v in vecs:
        m = u @ np.kron(np.outer(v, v), sigma) @ u.conj().T
        out.append((m + m.conj().T) / 2)
    return out


def write_ensemble(path: Path, states: list[np.ndarray], priors: np.ndarray) -> None:
    payload = {
        "states": [[[[float(x.real), float(x.imag)] for x in row] for row in s] for s in states],
        "priors": [float(p) for p in priors],
    }
    path.write_text(json.dumps(payload))


def _matrix(pairs: list) -> np.ndarray:
    arr = np.array(pairs, dtype=float)
    return arr[:, :, 0] + 1j * arr[:, :, 1]


def _read_csv(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def _num(text: str) -> float | None:
    return None if text == "" else float(text)


# ---------------------------------------------------------------------------
# solve-dense


def _ladder(workdir: Path, tag: str, states: list[np.ndarray], priors: np.ndarray,
            steps: list[tuple[str, float]], exact_xi: float | None = None) -> Group:
    """Solves of one ensemble at a ladder of symmetric tolerances.

    Along each flavor's steps, in increasing eps, p_fail must not increase;
    a step at eps 0 is flavor-free and belongs to both chains. With exact_xi
    the ensemble is a padded pure pair whose optimum is the closed form at
    overlap exact_xi.
    """
    ens_path = workdir / f"{tag}.ens.json"
    write_ensemble(ens_path, states, priors)
    m = len(states)
    calls = []
    for i, (flavor, eps) in enumerate(steps):
        out = workdir / f"{tag}.{i}.json"
        argv = ["solve", "--ensemble", str(ens_path), "--eps", *[repr(eps)] * m,
                "--flavor", flavor, "--out", str(out)]
        calls.append(Call(argv, out, 1))
    binary = m == 2 and priors[0] == priors[1]
    fid: list[float] = []  # computed at the first check, outside set-up

    def pure_value(xi: float, flavor: str, eps: float) -> float:
        if flavor == "R":
            return oracles.pure_pair_equal_priors(xi, eps, eps)
        return oracles.pure_pair_unrescaled(xi, eps)

    def check(outputs: list[str | None]) -> list[dict[int, list[str]]]:
        problems: list[dict[int, list[str]]] = [{} for _ in calls]
        values: list[float | None] = []
        for i, ((flavor, eps), text) in enumerate(zip(steps, outputs)):
            if text is None:
                values.append(None)
                continue
            data = json.loads(text)
            p_fail = float(data["p_fail"])
            values.append(p_fail)
            msgs = oracles.povm_problems([_matrix(e) for e in data["povm"]], states, priors,
                                        np.full(m, eps), flavor, p_fail)
            if binary:
                if not fid:
                    fid.append(oracles.fidelity(states[0], states[1]))
                floor = pure_value(fid[0], flavor, eps)
                if p_fail < floor - TOL_EXACT:
                    msgs.append(f"p_fail {p_fail:.9f} below the fidelity bound {floor:.9f}")
            if exact_xi is not None:
                ref = pure_value(exact_xi, flavor, eps)
                if abs(p_fail - ref) > TOL_EXACT:
                    msgs.append(f"p_fail {p_fail:.9f} but the closed form gives {ref:.9f}")
            if msgs:
                problems[i][WHOLE_CALL] = msgs
        for flavor in ("R", "U"):
            chain = [i for i, (f, e) in enumerate(steps) if f == flavor or e == 0.0]
            for a, b in zip(chain, chain[1:]):
                if values[a] is not None and values[b] is not None and values[b] > values[a] + TOL_EXACT:
                    problems[b].setdefault(WHOLE_CALL, []).append(
                        f"p_fail rose from {values[a]:.9f} to {values[b]:.9f} as eps grew")
        return problems

    return Group(calls, check)


def _single_solve(workdir: Path, tag: str, states: list[np.ndarray], priors: np.ndarray,
                  eps: list[float], flavor: str) -> Group:
    ens_path = workdir / f"{tag}.ens.json"
    write_ensemble(ens_path, states, priors)
    out = workdir / f"{tag}.json"
    call = Call(["solve", "--ensemble", str(ens_path), "--eps", *map(repr, eps),
                 "--flavor", flavor, "--out", str(out)], out, 1)

    def check(outputs: list[str | None]) -> list[dict[int, list[str]]]:
        if outputs[0] is None:
            return [{}]
        data = json.loads(outputs[0])
        msgs = oracles.povm_problems([_matrix(e) for e in data["povm"]], states, priors,
                                    np.asarray(eps), flavor, float(data["p_fail"]))
        return [{WHOLE_CALL: msgs} if msgs else {}]

    return Group([call], check)


def solve_dense(seed: int, workdir: Path) -> Plan:
    rng = np.random.default_rng([seed, 1])

    def tolerances() -> tuple[float, float]:
        return float(rng.uniform(0.02, 0.05)), float(rng.uniform(0.08, 0.15))

    groups = []
    # random mixed ensembles (d, m, rank); m = 2 pairs have equal priors so
    # the fidelity bound applies, triples have random priors. Tolerance zero
    # is solved on full-rank ensembles only: on rank-deficient ones a few
    # percent of draws end max-iterations (see fault_slice).
    for d, m, rank in ((4, 2, 2), (4, 3, 4), (6, 3, 1), (8, 2, 4), (8, 2, 8), (10, 3, 3)):
        states = [random_state(rng, d, rank) for _ in range(m)]
        priors = np.full(2, 0.5) if m == 2 else rng.dirichlet(np.full(m, 4.0))
        a, b = tolerances()
        a2, b2 = tolerances()
        zero = [("R", 0.0)] if rank == d else []
        groups.append(_ladder(workdir, f"mixed-d{d}-m{m}-r{rank}", states, priors,
                              zero + [("R", a), ("R", b), ("U", a2), ("U", b2)]))
    # padded pure pairs: the optimum is the closed form at the pair's overlap
    for ancilla in (4, 5):
        xi = float(rng.uniform(0.2, 0.8))
        a, b = tolerances()
        groups.append(_ladder(workdir, f"padded-d{2 * ancilla}", padded_pure_pair(rng, xi, ancilla),
                              np.full(2, 0.5), [("R", 0.0), ("R", a), ("U", b)], exact_xi=xi))
    # two-copy Choi states of the Pauli and damping channel pairs (d = 16)
    eta = float(rng.uniform(0.5, 0.8))
    r_p = float(rng.uniform(0.6, 0.9))
    r_q = r_p - float(rng.uniform(0.1, 0.3))
    chois = {
        "pauli": [oracles.choi_matrix(oracles.pauli_gate_kraus(g, eta)) for g in ("I", "Z")],
        "ad": [oracles.choi_matrix(oracles.damping_kraus(r)) for r in (r_p, r_q)],
    }
    for (name, pair), flavor in zip(chois.items(), ("R", "U")):
        powered = [np.kron(c, c) for c in pair]
        groups.append(_ladder(workdir, f"choi2-{name}", powered, np.full(2, 0.5),
                              [("R", 0.0), (flavor, tolerances()[0])]))
    groups += fault_slice(workdir)

    warm_rng = np.random.default_rng(12345)
    warm = [random_state(warm_rng, 8, 4) for _ in range(2)]
    warmup = _single_solve(workdir, "warmup", warm, np.full(2, 0.5), [0.05, 0.05], "R")
    return Plan(warmup, groups)


def fault_slice(workdir: Path) -> list[Group]:
    """Fixed solves (independent of the seed) that fail today.

    - max-iterations at small positive tolerance, where facial reduction
      does not fire (exit 3): a d=4 pure pair at eps 1e-11 (R), a d=6
      rank-2 triple at eps 1e-12 (R), a d=8 rank-4 pair at eps 0.05 (U);
    - max-iterations on a pure pair of overlap 0.694 with one tolerance
      zero and the other 0.149 (R, exit 3); such one-sided points fail on
      some overlaps above about 0.65, which binary-surface therefore avoids;
    - max-iterations at tolerance zero on a random rank-2 pair in d=4 (R,
      exit 3), as on a few percent of rank-deficient mixed draws, which
      solve-dense therefore solves at positive tolerances only;
    - a non-converged iterate rejected by the POVM validation, reported as
      a validation error (exit 2): a d=6 rank-1 triple at eps 1e-3 (R).
    Each is counted as failed in every round.
    """
    groups = []
    for tag, rng_seed, d, rank, m, eps, flavor in (
        ("fault-d4-pure", 0, 4, 1, 2, 1e-11, "R"),
        ("fault-d6-r2", 2, 6, 2, 3, 1e-12, "R"),
        ("fault-d8-r4", 1, 8, 4, 2, 0.05, "U"),
        ("fault-d6-r1", 0, 6, 1, 3, 1e-3, "R"),
    ):
        rng = np.random.default_rng(rng_seed)
        states = [random_state(rng, d, rank) for _ in range(m)]
        groups.append(_single_solve(workdir, tag, states, np.full(m, 1.0 / m), [eps] * m, flavor))
    rng = np.random.default_rng([52, 77])
    pair = [random_state(rng, 4, 2) for _ in range(2)]
    groups.append(_single_solve(workdir, "fault-d4-r2-zero", pair, np.full(2, 0.5), [0.0, 0.0], "R"))
    xi = 0.6936726069251792
    pair = [np.outer(v, v) for v in (np.array([1.0, 0.0]), np.array([xi, np.sqrt(1.0 - xi * xi)]))]
    groups.append(_single_solve(workdir, "fault-d2-one-sided", pair, np.full(2, 0.5),
                                [0.1489799351936855, 0.0], "R"))
    return groups


# ---------------------------------------------------------------------------
# binary-surface


def _surface(workdir: Path, tag: str, xi: float, prior_p: float, eps_max: float, grid: int) -> Group:
    cfg = workdir / f"{tag}.cfg.json"
    cfg.write_text(json.dumps({"xi": xi, "prior_p": prior_p, "eps_max": eps_max,
                               "grid": grid, "with_sdp": True}))
    out = workdir / f"{tag}.csv"
    call = Call(["state-binary", "--config", str(cfg), "--out", str(out), "--parallel", "1"],
                out, grid * grid + 2)
    equal = abs(prior_p - 0.5) < 1e-12

    def check(outputs: list[str | None]) -> list[dict[int, list[str]]]:
        if outputs[0] is None:
            return [{}]
        rows = _read_csv(outputs[0])
        if len(rows) != call.points:
            return [{WHOLE_CALL: [f"{len(rows)} records, expected {call.points}"]}]
        bad: dict[int, list[str]] = {}
        surface = np.full((grid, grid), np.nan)
        axis = np.linspace(0.0, eps_max, grid)
        for k, row in enumerate(rows):
            ep, eq, g, h, sdp = (_num(row[c]) for c in ("eps_p", "eps_q", "g", "h", "sdp"))
            msgs = []
            if row["kind"] == "grid":
                i, j = divmod(k, grid)
                if abs(ep - axis[i]) > 1e-11 or abs(eq - axis[j]) > 1e-11:
                    msgs.append(f"grid record {k} at ({ep}, {eq})")
                surface[i, j] = g
                if sdp is None or abs(sdp - g) > TOL_EXACT:
                    msgs.append(f"sdp {sdp} differs from g {g:.9f}")
                if h is not None and g < h - TOL_ORDER:
                    msgs.append(f"g {g:.9f} below its lower bound h {h:.9f}")
                if equal:
                    ref = oracles.pure_pair_equal_priors(xi, ep, eq)
                    if abs(g - ref) > TOL_KERNEL:
                        msgs.append(f"g {g:.9f} but the closed form gives {ref:.9f}")
            elif row["kind"] == "helstrom":
                if oracles.window_top(ep, eq) < xi - 1e-9 or g > 1e-8:
                    msgs.append(f"tangency ({ep}, {eq}) has w < xi or g = {g}")
                if equal and abs(ep - oracles.helstrom_tangency_equal(xi)) > 1e-9:
                    msgs.append(f"tangency eps {ep} differs from the closed form")
            elif row["kind"] == "exact_ud":
                if equal and abs(g - xi) > TOL_KERNEL:
                    msgs.append(f"exact-UD value {g} differs from xi {xi}")
            if msgs:
                bad[k] = msgs
        for i in range(grid):
            for j in range(grid):
                up_p = i + 1 < grid and surface[i + 1, j] > surface[i, j] + TOL_ORDER
                up_q = j + 1 < grid and surface[i, j + 1] > surface[i, j] + TOL_ORDER
                if up_p or up_q:
                    bad.setdefault(i * grid + j, []).append("g increases with a tolerance")
        return [bad]

    return Group([call], check)


def binary_surface(seed: int, workdir: Path) -> Plan:
    rng = np.random.default_rng([seed, 2])
    groups = []
    # overlaps stay below 0.6: above about 0.65 the SDP fails on some grid
    # points with one tolerance zero (see fault_slice), which would make the
    # failed share depend on the seed
    for lo, hi in ((0.15, 0.3), (0.3, 0.45), (0.45, 0.6)):
        xi = float(rng.uniform(lo, hi))
        eps_max = float(rng.uniform(0.3, 0.5))
        for prior_p in (0.5, float(rng.uniform(0.25, 0.4))):
            groups.append(_surface(workdir, f"surface-{len(groups)}", xi, prior_p, eps_max, 4))
    return Plan(_surface(workdir, "warmup", 0.3, 0.5, 0.2, 2), groups)


# ---------------------------------------------------------------------------
# channel-ports


def _channel(workdir: Path, tag: str, cfg: dict) -> Group:
    path = workdir / f"{tag}.cfg.json"
    path.write_text(json.dumps(cfg))
    out = workdir / f"{tag}.csv"
    model = cfg["model"]
    rounds, grid = cfg["rounds"], cfg["grid"]
    fixed = cfg.get("fixed_ports", []) if model == "ad" else []
    points = len(rounds) * grid * (1 + len(fixed))
    call = Call(["channel", "--config", str(path), "--out", str(out), "--parallel", "1"], out, points)
    pair = oracles.channel_pair(model, cfg.get("eta", 0.0), cfg.get("overlap", 0.0),
                                cfg.get("r_p", 0.0), cfg.get("r_q", 0.0))
    fid = oracles.factor_fidelity(*(oracles.choi_factor(k) for k in pair))
    axis = np.linspace(0.0, cfg["eps_max"], grid)

    def check(outputs: list[str | None]) -> list[dict[int, list[str]]]:
        if outputs[0] is None:
            return [{}]
        rows = _read_csv(outputs[0])
        if len(rows) != points:
            return [{WHOLE_CALL: [f"{len(rows)} records, expected {points}"]}]
        bad: dict[int, list[str]] = {}
        best: dict[tuple[int, int], float] = {}
        for k, row in enumerate(rows):
            u, m = int(row["u"]), int(row["ports"])
            eps, bound = float(row["eps"]), float(row["bound"])
            eps_r = (float(row["eps_r_p"]), float(row["eps_r_q"]))
            vacuous = row["vacuous"] == "true"
            delta = oracles.pbt_error(m) if model == "ad" else 0.0
            ref, implied = oracles.channel_bound(fid, u, m, delta, eps_r)
            e_idx = int(np.argmin(np.abs(axis - eps)))
            msgs = []
            if abs(eps - axis[e_idx]) > 1e-11:
                msgs.append(f"eps {eps} is not on the requested axis")
            if vacuous:
                # either nothing certifies the request, or the certified
                # value is clamped from below at zero
                if bound != 0.0 or (max(eps_r) > 0.0 and ref > TOL_EXACT):
                    msgs.append(f"vacuous record with bound {bound} and closed form {ref:.9f}")
            else:
                if abs(bound - ref) > TOL_EXACT:
                    msgs.append(f"bound {bound:.9f} but the closed form at eps_r gives {ref:.9f}")
                if np.any(implied < eps - TOL_ORDER):
                    msgs.append(f"implied tolerance {implied} does not cover {eps}")
            if row["kind"] in ("optimal_ports", "bound"):
                best[(u, e_idx)] = bound
            if msgs:
                bad[k] = msgs
        for k, row in enumerate(rows):
            u, eps = int(row["u"]), float(row["eps"])
            e_idx = int(np.argmin(np.abs(axis - eps)))
            bound = float(row["bound"])
            if row["kind"] == "fixed_ports" and bound > best.get((u, e_idx), -1.0) + TOL_ORDER:
                bad.setdefault(k, []).append(f"fixed-port bound {bound} above the optimised one")
            if row["kind"] != "fixed_ports" and e_idx > 0 and bound > best[(u, e_idx - 1)] + TOL_ORDER:
                bad.setdefault(k, []).append("bound increases with eps")
        return [bad]

    return Group([call], check)


def channel_ports(seed: int, workdir: Path) -> Plan:
    rng = np.random.default_rng([seed, 3])
    r_p = float(rng.uniform(0.86, 0.92))
    r_q = r_p - float(rng.uniform(0.04, 0.06))
    groups = [
        _channel(workdir, "ad", {"model": "ad", "r_p": r_p, "r_q": r_q, "rounds": [1, 2],
                                 "grid": 4, "eps_max": 0.03, "m_max": 40,
                                 "fixed_ports": [10, 20, 30, 40]}),
        _channel(workdir, "pauli", {"model": "pauli", "eta": float(rng.uniform(0.3, 0.5)),
                                    "rounds": [1, 2, 3], "grid": 6, "eps_max": 0.03}),
        _channel(workdir, "erasure", {"model": "erasure", "eta": float(rng.uniform(0.2, 0.4)),
                                      "overlap": float(rng.uniform(0.3, 0.6)),
                                      "rounds": [1, 2, 3], "grid": 6, "eps_max": 0.03}),
    ]
    warmup = _channel(workdir, "warmup", {"model": "ad", "r_p": 0.9, "r_q": 0.87, "rounds": [1],
                                          "grid": 2, "eps_max": 0.01, "m_max": 16, "fixed_ports": [2]})
    return Plan(warmup, groups)


WORKLOADS: dict[str, Callable[[int, Path], Plan]] = {
    "solve-dense": solve_dense,
    "binary-surface": binary_surface,
    "channel-ports": channel_ports,
}
