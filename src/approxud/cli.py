"""Command-line sweeps and one-shot solver access.

Four subcommands emit machine-readable data (CSV or JSON):

  state-binary   pure-pair trade-off surface over a tolerance grid, with
                 minimum-error and exact-conclusion endpoint annotations
  state-mixed    lower bound, strategy families and hull upper bound for the
                 depolarizing or erasure mixed-state models
  channel        adaptive-protocol lower-bound curves for the channel models
                 (pauli | erasure | ad | classical-pauli | classical-erasure)
  solve          run the discrimination SDP on an ensemble file

Model parameters live in a JSON config file (--config); --grid overrides the
config resolution, --parallel evaluates independent sweep points in a thread
pool (output order is deterministic regardless). Floats are printed with 12
significant digits, and every record echoes the inputs that produced it.

Exit codes: 0 success, 2 validation error, 3 solver non-convergence,
4 every requested bound was vacuous.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import channel_ud as cu
from . import state_ud as su
from .qmath import DensityMatrix, StateEnsemble
from .sdp import Povm, ToleranceVector, solve_min_fail

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NONCONVERGED = 3
EXIT_VACUOUS = 4


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    return str(value)


def _write_records(path: str, fmt: str, command: str, params: dict, header: list[str], records: list[dict]) -> None:
    out = Path(path)
    if fmt == "csv":
        with out.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for rec in records:
                writer.writerow([_fmt(rec.get(k)) for k in header])
    else:
        payload = {
            "command": command,
            "params": params,
            "records": [
                {k: (None if rec.get(k) is None else rec.get(k)) for k in header}
                for rec in records
            ],
        }
        with out.open("w") as fh:
            json.dump(payload, fh, indent=2, default=float)
            fh.write("\n")


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a JSON object")
    return cfg


def _parallel_map(fn, items, workers: int):
    if workers <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# state-binary


def _cmd_state_binary(args) -> int:
    cfg = _load_config(args.config)
    xi = float(cfg.get("xi", 0.3))
    prior_p = float(cfg.get("prior_p", 0.5))
    prior_q = 1.0 - prior_p
    eps_max = float(cfg.get("eps_max", 0.5))
    with_sdp = bool(cfg.get("with_sdp", True))
    grid = args.grid or int(cfg.get("grid", 25))
    if grid < 2:
        raise ValueError("grid resolution must be >= 2")
    if not 0.0 < xi < 1.0:
        raise ValueError("xi must lie strictly between 0 and 1")

    header = ["command", "kind", "xi", "prior_p", "prior_q", "eps_p", "eps_q", "g", "h", "sdp"]
    axis = np.linspace(0.0, eps_max, grid)
    pairs = [(float(a), float(b)) for a in axis for b in axis]

    ens = None
    if with_sdp:
        pv = np.array([1.0, 0.0])
        qv = np.array([xi, np.sqrt(1.0 - xi * xi)])
        ens = StateEnsemble(
            (DensityMatrix(np.outer(pv, pv).astype(complex)), DensityMatrix(np.outer(qv, qv).astype(complex))),
            np.array([prior_p, prior_q]),
        )

    non_converged: list[tuple[float, float]] = []

    def evaluate(pair):
        ep, eq = pair
        g_val = su.pure_pair_pf(xi, ep, eq, prior_p, prior_q)
        try:
            h_val = su.analytic_pf_bound(xi, ep, eq, prior_p, prior_q)
        except ValueError:
            h_val = None
        sdp_val = None
        if with_sdp:
            sol = solve_min_fail(ens, ToleranceVector(np.array([ep, eq]), "R"))
            if sol.solver_status != "optimal":
                non_converged.append(pair)
            sdp_val = sol.p_fail
        return {
            "command": "state-binary", "kind": "grid", "xi": xi,
            "prior_p": prior_p, "prior_q": prior_q, "eps_p": ep, "eps_q": eq,
            "g": g_val, "h": h_val, "sdp": sdp_val,
        }

    records = _parallel_map(evaluate, pairs, args.parallel)

    e_star = su.helstrom_tangency(xi, prior_p, prior_q)
    records.append({
        "command": "state-binary", "kind": "helstrom", "xi": xi,
        "prior_p": prior_p, "prior_q": prior_q,
        "eps_p": e_star[0], "eps_q": e_star[1],
        "g": su.pure_pair_pf(xi, e_star[0], e_star[1], prior_p, prior_q),
        "h": su.analytic_pf_bound(xi, e_star[0], e_star[1], prior_p, prior_q),
        "sdp": None,
    })
    records.append({
        "command": "state-binary", "kind": "exact_ud", "xi": xi,
        "prior_p": prior_p, "prior_q": prior_q, "eps_p": 0.0, "eps_q": 0.0,
        "g": su.pure_pair_pf(xi, 0.0, 0.0, prior_p, prior_q),
        "h": su.analytic_pf_bound(xi, 0.0, 0.0, prior_p, prior_q),
        "sdp": None,
    })
    params = {"xi": xi, "prior_p": prior_p, "eps_max": eps_max, "grid": grid, "with_sdp": with_sdp}
    _write_records(args.out, args.format, "state-binary", params, header, records)
    return EXIT_NONCONVERGED if non_converged else EXIT_OK


# ---------------------------------------------------------------------------
# state-mixed


def _cmd_state_mixed(args) -> int:
    cfg = _load_config(args.config)
    model = cfg.get("model", args.model)
    if model not in ("depolarizing", "erasure"):
        raise ValueError("state-mixed model must be 'depolarizing' or 'erasure'")
    eta = float(cfg.get("eta", 0.6))
    xi = float(cfg.get("xi", 0.3))
    grid = args.grid or int(cfg.get("grid", 50))
    eps_max = float(cfg.get("eps_max", 0.5))
    n_a = int(cfg.get("n_a", 11))
    if grid < 2:
        raise ValueError("grid resolution must be >= 2")

    header = ["command", "model", "kind", "eta", "xi", "a", "theta", "eps_inner", "eps", "p_fail"]
    records: list[dict] = []
    base = {"command": "state-mixed", "model": model, "eta": eta,
            "xi": xi if model == "erasure" else None}

    if model == "depolarizing":
        ens = su.depolarizing_pair_states(eta)
        fid = su.depolarizing_pair_fidelity(eta)
        hull = su.depolarizing_upper_hull(eta, n_a=n_a, n_theta=max(grid, 50))
        for a in np.linspace(0.0, 1.0, n_a):
            for theta in np.linspace(np.pi / 2, np.pi - 1e-9, max(grid, 50)):
                point, _ = su.depolarizing_pair_strategy(eta, float(a), float(theta))
                records.append({**base, "kind": "strategy", "a": float(a), "theta": float(theta),
                                "eps_inner": None, "eps": float(point.eps.values[0]), "p_fail": point.p_fail})
    else:
        ens = su.erasure_pair_states(eta, xi)
        fid = su.erasure_pair_fidelity(eta, xi)
        hull = su.erasure_upper_hull(eta, xi, n_a=n_a, n_inner=max(grid, 50))
        helstrom_inner = (1.0 - np.sqrt(1.0 - xi * xi)) / 2.0
        inner_grid = np.linspace(0.0, 1.2 * helstrom_inner, max(grid, 50))
        for a in np.linspace(0.0, 1.0, n_a):
            for e_in in inner_grid:
                point = su.erasure_pair_strategy(eta, xi, 0.5, 0.5, float(a), (float(e_in), float(e_in)))
                records.append({**base, "kind": "strategy", "a": float(a), "theta": None,
                                "eps_inner": float(e_in), "eps": float(point.eps.values[0]), "p_fail": point.p_fail})

    # lower bound: the pure-pair trade-off at the pair fidelity, evaluated in
    # un-rescaled coordinates on the requested eps grid
    fid_c = min(max(fid, 1e-12), 1 - 1e-12)
    eps_axis = np.linspace(0.0, eps_max, grid)
    for e in eps_axis:
        v = su.pure_pf_unrescaled(fid_c, 0.5, 0.5, (float(e), float(e)))
        records.append({**base, "kind": "lower_bound", "a": None, "theta": None,
                        "eps_inner": None, "eps": float(e), "p_fail": float(v)})
    for e in eps_axis:
        records.append({**base, "kind": "upper_hull", "a": None, "theta": None,
                        "eps_inner": None, "eps": float(e), "p_fail": su.hull_value(hull, float(e))})
    records.append({**base, "kind": "helstrom", "a": None, "theta": None, "eps_inner": None,
                    "eps": su.helstrom_binary(ens), "p_fail": 0.0})
    params = {"model": model, "eta": eta, "xi": xi, "grid": grid, "eps_max": eps_max, "n_a": n_a}
    _write_records(args.out, args.format, "state-mixed", params, header, records)
    return EXIT_OK


# ---------------------------------------------------------------------------
# channel

# config keys of the channel models and their defaults
_CHANNEL_DEFAULTS = {"eta": 0.6, "overlap": 0.3, "r_p": 0.9, "r_q": 0.8}


def _cmd_channel(args) -> int:
    cfg = _load_config(args.config)
    model = cfg.get("model", args.model)
    if model not in cu.CHANNEL_MODELS:
        raise ValueError(f"channel model must be one of {tuple(cu.CHANNEL_MODELS)}")
    spec = cu.CHANNEL_MODELS[model]
    values = {k: float(cfg.get(k, default)) for k, default in _CHANNEL_DEFAULTS.items()}
    rounds_list = [int(u) for u in cfg.get("rounds", [1, 2, 3])]
    grid = args.grid or int(cfg.get("grid", 30))
    eps_max = float(cfg.get("eps_max", 0.3))
    m_max = int(cfg.get("m_max", 200))
    fixed_ports = [int(m) for m in cfg.get("fixed_ports", [])]
    scan_grid = int(cfg.get("scan_grid", 400))

    header = ["command", "model", "kind", "eta", "overlap", "r_p", "r_q", "u",
              "ports", "eps", "bound", "eps_r_p", "eps_r_q", "classical", "vacuous"]
    base = {"command": "channel", "model": model,
            **{k: (v if k in spec.params else None) for k, v in values.items()}}
    fid = spec.fidelity(*(values[k] for k in spec.params))

    eps_axis = np.linspace(0.0, eps_max, grid)
    tasks = []
    for u in rounds_list:
        for e in eps_axis:
            tasks.append((u, float(e)))

    model_fn = cu.uniform_error_model(2)

    def evaluate(task):
        u, e = task
        if spec.tele_covariant:
            res = cu.channel_fail_lower_bound(
                fid, u, 1, 0.0, 0.0, (0.5, 0.5), (e, e), grid=scan_grid, classical=spec.classical
            )
            kind = "bound"
        else:
            res = cu.best_bound_over_ports(
                fid, u, model_fn, (0.5, 0.5), (e, e), range(1, m_max + 1), grid=scan_grid
            )
            kind = "optimal_ports"
        return {**base, "kind": kind, "u": u, "ports": res.ports, "eps": e,
                "bound": res.value, "eps_r_p": float(res.eps_r[0]), "eps_r_q": float(res.eps_r[1]),
                "classical": spec.classical, "vacuous": res.vacuous}

    records = _parallel_map(evaluate, tasks, args.parallel)

    if fixed_ports and not spec.tele_covariant:
        fixed_tasks = [(u, float(e), m) for u in rounds_list for e in eps_axis for m in fixed_ports]

        def evaluate_fixed(task):
            u, e, m = task
            err = model_fn(m)
            res = cu.channel_fail_lower_bound(
                fid, u, m, float(err.per_channel[0]), float(err.per_channel[-1]),
                (0.5, 0.5), (e, e), grid=scan_grid
            )
            return {**base, "kind": "fixed_ports", "u": u, "ports": m, "eps": e,
                    "bound": res.value, "eps_r_p": float(res.eps_r[0]), "eps_r_q": float(res.eps_r[1]),
                    "classical": False, "vacuous": res.vacuous}

        records += _parallel_map(evaluate_fixed, fixed_tasks, args.parallel)

    params = {"model": model, **values,
              "rounds": rounds_list, "grid": grid, "eps_max": eps_max, "m_max": m_max,
              "fixed_ports": fixed_ports, "scan_grid": scan_grid}
    _write_records(args.out, args.format, "channel", params, header, records)
    all_vacuous = all(r["vacuous"] for r in records)
    return EXIT_VACUOUS if all_vacuous else EXIT_OK


# ---------------------------------------------------------------------------
# solve


def load_ensemble(path: str) -> StateEnsemble:
    """Read an ensemble file: density matrices as nested [re, im] pairs."""
    with open(path) as fh:
        data = json.load(fh)
    states = []
    for mat in data["states"]:
        arr = np.array(mat, dtype=float)
        if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("each state must be a square matrix of [re, im] pairs")
        states.append(DensityMatrix(arr[:, :, 0] + 1j * arr[:, :, 1]))
    return StateEnsemble(tuple(states), np.array(data["priors"], dtype=float))


def _matrix_to_pairs(m: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def povm_from_pairs(elements: list) -> Povm:
    mats = []
    for mat in elements:
        arr = np.array(mat, dtype=float)
        mats.append(arr[:, :, 0] + 1j * arr[:, :, 1])
    return Povm(tuple(mats))


def _cmd_solve(args) -> int:
    cfg = _load_config(args.config)
    ens_path = cfg.get("ensemble", args.ensemble)
    if ens_path is None:
        raise ValueError("solve needs an ensemble file (config key 'ensemble' or --ensemble)")
    ens = load_ensemble(ens_path)
    eps = np.array(cfg.get("eps", args.eps), dtype=float)
    flavor = cfg.get("flavor", args.flavor)
    sol = solve_min_fail(ens, ToleranceVector(eps, flavor))
    payload = {
        "command": "solve",
        "params": {"ensemble": str(ens_path), "eps": [float(e) for e in eps], "flavor": flavor},
        "p_fail": sol.p_fail,
        "per_hypothesis_error": [float(e) for e in sol.per_hypothesis_error],
        "solver_status": sol.solver_status,
        "povm": [_matrix_to_pairs(e) for e in sol.povm.elements],
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return EXIT_OK if sol.solver_status == "optimal" else EXIT_NONCONVERGED


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="approxud",
        description="Approximate unambiguous discrimination: sweeps and solver access",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="JSON config with model parameters")
        p.add_argument("--out", required=True, help="output file path")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--grid", type=int, default=None, help="override grid resolution")
        p.add_argument("--parallel", type=int, default=1, help="worker threads for sweep points")

    p = sub.add_parser("state-binary", help="pure-pair tolerance sweep")
    common(p)
    p.set_defaults(func=_cmd_state_binary)

    p = sub.add_parser("state-mixed", help="mixed-pair bounds and strategies")
    common(p)
    p.add_argument("--model", choices=("depolarizing", "erasure"), default="depolarizing")
    p.set_defaults(func=_cmd_state_mixed)

    p = sub.add_parser("channel", help="channel lower-bound sweeps")
    common(p)
    p.add_argument(
        "--model",
        choices=tuple(cu.CHANNEL_MODELS),
        default="pauli",
    )
    p.set_defaults(func=_cmd_channel)

    p = sub.add_parser("solve", help="discrimination SDP on an ensemble file")
    common(p)
    p.add_argument("--ensemble", default=None, help="ensemble JSON file")
    p.add_argument("--eps", type=float, nargs="+", default=[0.0, 0.0])
    p.add_argument("--flavor", choices=("U", "R"), default="U")
    p.set_defaults(func=_cmd_solve)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
