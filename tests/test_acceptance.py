"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line with its measured runtime (run pytest with -s to see them).
All tolerances are fixed here, not calibrated elsewhere.
"""

import time

import numpy as np

from approxud import channel_ud as cu
from approxud import state_ud as su
from approxud.qmath import DensityMatrix, StateEnsemble, fidelity, random_density_matrix
from approxud.sdp import ToleranceVector, solve_min_fail

WINDOW_CLOSING_TOL = (1 - np.sqrt(0.91)) / 2  # symmetric tolerance with zero failure at xi = 0.3


def report(number: int, label: str, ok: bool, elapsed: float, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    extra = f" | {detail}" if detail else ""
    print(f"[{status}] acceptance-{number:02d} {label} ({elapsed:.1f}s){extra}")
    assert ok, f"acceptance-{number:02d} {label}: {detail}"


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


def test_criterion_1_pure_state_endpoints():
    t0 = time.time()
    at_origin = su.pure_pair_pf(0.3, 0.0, 0.0)
    at_closing = su.pure_pair_pf(0.3, WINDOW_CLOSING_TOL, WINDOW_CLOSING_TOL)
    elapsed = time.time() - t0
    ok = abs(at_origin - 0.3) <= 1e-6 and abs(at_closing) <= 1e-6 and elapsed < 1.0
    report(
        1,
        "pure-pair endpoints",
        ok,
        elapsed,
        f"value(0,0)={at_origin:.9f}, value(window-closing)={at_closing:.2e}",
    )


def test_criterion_2_sdp_matches_analytic_solution():
    t0 = time.time()
    xis = (0.2, 0.35, 0.5, 0.65, 0.8)
    eps_axis = (0.0, 0.05, 0.1, 0.2, 0.3)
    priors = (0.5, 1 / 3, 0.25)
    worst = 0.0
    for xi in xis:
        for prior_p in priors:
            ens = pure_pair_ensemble(xi, prior_p)
            for ep in eps_axis:
                for eq in eps_axis:
                    sol = solve_min_fail(ens, ToleranceVector(np.array([ep, eq]), "R"))
                    analytic = su.pure_pair_pf(xi, ep, eq, prior_p, 1 - prior_p)
                    worst = max(worst, abs(sol.p_fail - analytic))
    elapsed = time.time() - t0
    ok = worst <= 1e-5 and elapsed < 120.0
    report(2, "SDP equals analytic pure-pair solution on 5x5x5x3 grid", ok, elapsed, f"worst |diff|={worst:.2e}")


def test_criterion_3_fidelity_values():
    t0 = time.time()
    dep = su.depolarizing_pair_states(0.6)
    f_dep_num = fidelity(dep.states[0], dep.states[1])
    f_dep_formula = su.depolarizing_pair_fidelity(0.6)
    era = su.erasure_pair_states(0.6, 0.3)
    f_era_num = fidelity(era.states[0], era.states[1])
    f_era_formula = su.erasure_pair_fidelity(0.6, 0.3)
    f_ad_num = fidelity(
        cu.choi_state(cu.amplitude_damping_channel(0.8)),
        cu.choi_state(cu.amplitude_damping_channel(0.9)),
    )
    f_ad_formula = cu.amplitude_damping_choi_fidelity(0.8, 0.9)
    elapsed = time.time() - t0
    ok = (
        abs(f_dep_num - 0.729150) <= 1e-6
        and abs(f_dep_formula - 0.729150) <= 1e-6
        and abs(f_era_num - 0.58) <= 1e-6
        and abs(f_era_formula - 0.58) <= 1e-6
        and abs(f_ad_num - 0.994975) <= 1e-6
        and abs(f_ad_formula - 0.994975) <= 1e-6
        and elapsed < 1.0
    )
    report(
        3,
        "model fidelities (depolarizing, erasure, damping)",
        ok,
        elapsed,
        f"dep={f_dep_num:.7f}, erasure={f_era_num:.7f}, damping={f_ad_num:.7f}",
    )


def test_criterion_4_mixed_state_bound_ordering():
    t0 = time.time()
    eta, xi = 0.6, 0.3
    eps_grid = np.linspace(0.0, 0.3, 50)

    dep_hull = su.depolarizing_upper_hull(eta)
    f_dep = su.depolarizing_pair_fidelity(eta)
    dep_ok = True
    for e in eps_grid:
        lb = su.invert_unrescaled(f_dep, (0.5, 0.5), (float(e), float(e))).p_fail
        ub = su.hull_value(dep_hull, float(e))
        dep_ok &= ub - lb >= -1e-6
    dep_zero_cross = None
    for e in np.linspace(0.15, 0.25, 2001):
        if su.hull_value(dep_hull, float(e)) <= 1e-9:
            dep_zero_cross = e
            break
    dep_reaches = dep_zero_cross is not None and abs(dep_zero_cross - 0.2) <= 1e-3

    era_hull = su.erasure_upper_hull(eta, xi)
    f_era = su.erasure_pair_fidelity(eta, xi)
    era_ok = True
    for e in eps_grid:
        lb = su.invert_unrescaled(f_era, (0.5, 0.5), (float(e), float(e))).p_fail
        ub = su.hull_value(era_hull, float(e))
        era_ok &= ub - lb >= -1e-6
    lb0 = su.invert_unrescaled(f_era, (0.5, 0.5), (0.0, 0.0)).p_fail
    ub0 = su.hull_value(era_hull, 0.0)
    era_overlap = abs(ub0 - lb0) <= 1e-3 and abs(lb0 - 0.58) <= 1e-6

    elapsed = time.time() - t0
    ok = dep_ok and era_ok and dep_reaches and era_overlap and elapsed < 300.0
    report(
        4,
        "mixed-pair lower/upper bound ordering and endpoints",
        ok,
        elapsed,
        f"dep zero-cross={dep_zero_cross}, erasure gap@0={abs(ub0 - lb0):.2e}",
    )


def test_criterion_5_property_suites():
    t0 = time.time()
    slack = 2e-6
    rng = np.random.default_rng(2024)

    # convexity of the un-rescaled optimum in the tolerance vector
    convex_ok = True
    for _ in range(50):
        ens = StateEnsemble(
            (random_density_matrix(2, rng), random_density_matrix(2, rng)),
            rng.dirichlet(np.ones(2)),
        )
        e1 = rng.uniform(0, 0.6, 2)
        e2 = rng.uniform(0, 0.6, 2)
        lam = rng.uniform(0, 1)
        v1 = solve_min_fail(ens, ToleranceVector(e1, "U")).p_fail
        v2 = solve_min_fail(ens, ToleranceVector(e2, "U")).p_fail
        vm = solve_min_fail(ens, ToleranceVector(lam * e1 + (1 - lam) * e2, "U")).p_fail
        convex_ok &= vm <= lam * v1 + (1 - lam) * v2 + slack

    # data processing: a channel applied to every state never helps
    dp_ok = True
    for _ in range(20):
        ens = StateEnsemble(
            (random_density_matrix(2, rng), random_density_matrix(2, rng)),
            rng.dirichlet(np.ones(2)),
        )
        g = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        q_, _ = np.linalg.qr(g)
        kraus = [q_[:2, :], q_[2:, :]]
        mapped = StateEnsemble(
            tuple(
                DensityMatrix(sum(k @ s.mat @ k.conj().T for k in kraus)) for s in ens.states
            ),
            ens.priors,
        )
        eps = ToleranceVector(rng.uniform(0, 0.5, 2), "U")
        dp_ok &= solve_min_fail(mapped, eps).p_fail >= solve_min_fail(ens, eps).p_fail - slack

    # continuity interval contains the unperturbed value
    cont_ok = True
    for _ in range(20):
        ens = StateEnsemble(
            (random_density_matrix(2, rng), random_density_matrix(2, rng)),
            np.array([0.5, 0.5]),
        )
        lam = rng.uniform(0.01, 0.05)
        perturbed = StateEnsemble(
            tuple(DensityMatrix((1 - lam) * s.mat + lam * np.eye(2) / 2) for s in ens.states),
            ens.priors,
        )
        delta = np.array(
            [
                float(np.sum(np.abs(np.linalg.eigvalsh(a.mat - b.mat))))
                for a, b in zip(ens.states, perturbed.states)
            ]
        )
        eps = rng.uniform(0.12, 0.3, 2)
        pf_plus = solve_min_fail(perturbed, ToleranceVector(np.minimum(eps + delta, 1), "U")).p_fail
        pf_minus = solve_min_fail(perturbed, ToleranceVector(np.maximum(eps - delta, 0), "U")).p_fail
        lo, hi = su.continuity_interval(
            ToleranceVector(eps, "U"), delta, ens.priors, pf_plus, pf_minus
        )
        truth = solve_min_fail(ens, ToleranceVector(eps, "U")).p_fail
        cont_ok &= (lo - slack <= truth <= hi + slack)

    # analytic bound below the solver value on random draws
    hg_ok = True
    worst_hg = -1.0
    for _ in range(10_000):
        xi = rng.uniform(0.02, 0.98)
        ep, eq = rng.uniform(0, 1, 2)
        p = rng.uniform(0.05, 0.95)
        if abs(ep + eq - 1.0) < 1e-6:
            continue
        try:
            h_val = su.analytic_pf_bound(xi, ep, eq, p, 1 - p)
        except ValueError:
            continue
        g_val = su.pure_pair_pf(xi, ep, eq, p, 1 - p)
        worst_hg = max(worst_hg, h_val - g_val)
        hg_ok &= h_val <= g_val + slack

    # round trip: un-rescaled solve at the mapped tolerance returns the value
    rt_ok = True
    worst_rt = 0.0
    for _ in range(100):
        xi = rng.uniform(0.1, 0.9)
        er = rng.uniform(0, 0.4)
        pf = su.pure_pair_pf(xi, er, er)
        if pf >= 1 - 1e-9:
            continue
        eps_u = su.rescaled_to_unrescaled(ToleranceVector(np.array([er, er]), "R"), pf)
        sdp = solve_min_fail(pure_pair_ensemble(xi), eps_u).p_fail
        worst_rt = max(worst_rt, abs(sdp - pf))
        rt_ok &= abs(sdp - pf) <= slack

    elapsed = time.time() - t0
    ok = convex_ok and dp_ok and cont_ok and hg_ok and rt_ok and elapsed < 600.0
    report(
        5,
        "property suites (convexity, data processing, continuity, bound order, round trip)",
        ok,
        elapsed,
        f"convex={convex_ok} dataproc={dp_ok} continuity={cont_ok} "
        f"bound_order={hg_ok}(worst {worst_hg:.1e}) roundtrip={rt_ok}(worst {worst_rt:.1e})",
    )


def test_criterion_6_channel_bounds():
    t0 = time.time()
    eta = 0.6
    dep = su.depolarizing_pair_states(eta)
    f_choi = fidelity(
        cu.choi_state(cu.pauli_gate_channel("I", eta)),
        cu.choi_state(cu.pauli_gate_channel("Z", eta)),
    )

    # curves over rounds are pointwise non-increasing
    eps_axis = np.linspace(0.0, 0.2, 25)
    curves = {
        u: np.array(
            [
                cu.channel_fail_lower_bound(f_choi, u, 1, 0.0, 0.0, (0.5, 0.5), (e, e)).value
                for e in eps_axis
            ]
        )
        for u in (1, 2, 3)
    }
    mono_ok = np.all(curves[1] >= curves[2] - 1e-9) and np.all(curves[2] >= curves[3] - 1e-9)

    # one-round curve coincides with the state-side bound on the Choi pair
    state_match_ok = True
    worst_match = 0.0
    for er in np.linspace(0.0, 0.15, 16):
        lb1, _ = su.fidelity_lower_bounds(dep.states[0], dep.states[1], (0.5, 0.5), (er, er))
        eps_u = (1 - lb1) * er
        chan = cu.channel_fail_lower_bound(f_choi, 1, 1, 0.0, 0.0, (0.5, 0.5), (eps_u, eps_u))
        worst_match = max(worst_match, abs(chan.value - lb1))
        state_match_ok &= abs(chan.value - lb1) <= 1e-6

    classical = cu.classical_pauli_bound(eta, 1, (0.0, 0.0))
    classical_fid_ok = abs(np.sqrt(1 - eta**2) - 0.8) <= 1e-9 and abs(classical.value - 0.8) <= 1e-9

    erasure_ok = True
    for e in np.linspace(0.0, 0.2, 21):
        cl = cu.classical_erasure_bound(0.6, 0.3, 1, (float(e), float(e)))
        ent = cu.channel_fail_lower_bound(
            su.erasure_pair_fidelity(0.6, 0.3), 1, 1, 0.0, 0.0, (0.5, 0.5), (float(e), float(e))
        )
        erasure_ok &= abs(cl.value - ent.value) <= 1e-9

    elapsed = time.time() - t0
    ok = mono_ok and state_match_ok and classical_fid_ok and erasure_ok and elapsed < 120.0
    report(
        6,
        "channel bounds (round monotonicity, Choi equivalence, classical baselines)",
        ok,
        elapsed,
        f"mono={mono_ok} choi_match={state_match_ok}(worst {worst_match:.1e}) "
        f"classical_fid={classical_fid_ok} erasure_coincide={erasure_ok}",
    )


def test_criterion_7_damping_channel_port_tradeoff():
    # With the universal simulation-error bound 2d(d-1)/M (the channel-specific
    # per-port error constant is external and deliberately not imported), a
    # positive bound at u rounds needs 16u/M <= F^(2uM); the right side peaks
    # near 2.3/u^2 over M, so an interior port optimum exists exactly at u = 1
    # and every per-M bound at u >= 2 is vacuous. The trade-off is checked
    # where it is attainable, plus monotonicity of the envelopes in u.
    t0 = time.time()
    f_ad = cu.amplitude_damping_choi_fidelity(0.8, 0.9)
    model = cu.uniform_error_model(2)
    eps_points = (0.0, 0.02, 0.05)

    envelopes = {}
    interior_ok = False
    for u in (1, 2, 3):
        best_by_eps = {}
        for e in eps_points:
            best = cu.best_bound_over_ports(
                f_ad, u, model, (0.5, 0.5), (e, e), range(1, 201)
            )
            err1, err200 = model(1), model(200)
            at_1 = cu.channel_fail_lower_bound(
                f_ad, u, 1, float(err1.per_channel[0]), float(err1.per_channel[1]),
                (0.5, 0.5), (e, e),
            ).value
            at_200 = cu.channel_fail_lower_bound(
                f_ad, u, 200, float(err200.per_channel[0]), float(err200.per_channel[1]),
                (0.5, 0.5), (e, e),
            ).value
            best_by_eps[e] = best.value
            if u == 1 and 1 < best.ports < 200 and best.value > at_1 + 1e-9 and best.value > at_200 + 1e-9:
                interior_ok = True
        envelopes[u] = best_by_eps

    mono_ok = all(
        envelopes[1][e] >= envelopes[2][e] - 1e-9 and envelopes[2][e] >= envelopes[3][e] - 1e-9
        for e in eps_points
    )
    degenerate_ok = all(
        envelopes[u][e] <= 1e-9 for u in (2, 3) for e in eps_points
    )
    elapsed = time.time() - t0
    ok = interior_ok and mono_ok and degenerate_ok and elapsed < 300.0
    report(
        7,
        "damping-channel port trade-off (interior optimum at one round, round monotonicity)",
        ok,
        elapsed,
        f"interior_optimum_u1={interior_ok} envelope_monotone={mono_ok} "
        f"uniform_error_vacuous_at_u2plus={degenerate_ok}",
    )
