"""Approximate unambiguous discrimination between quantum channels.

Any adaptive u-round protocol on a channel can be simulated from copies of
its Choi state: teleportation-covariant channels exactly with one copy per
round, arbitrary channels approximately by port-based teleportation with M
ports per round, at diamond-norm cost bounded by 2 d (d-1) / M per use.
The failure probability of the best adaptive protocol is therefore lower
bounded by state discrimination of tensor-powered Choi states at widened
tolerances, penalized by half the prior-averaged simulation error.

Two evaluators are provided: one exact (the discrimination SDP over the
tensor-powered Choi pair, feasible while the total dimension stays small)
and a fidelity relaxation usable at any number of rounds, which reduces the
Choi pair to a pure pair with overlap F^(uM) via multiplicativity of the
fidelity and inverts the rescaled parameterization numerically.
"""

from __future__ import annotations

from dataclasses import dataclass, InitVar
from typing import Callable

import numpy as np
from scipy import optimize

from .qmath import (
    DensityMatrix,
    StateEnsemble,
    hermitian_part,
    kron_all,
    max_entangled,
    tensor_power,
)
from .sdp import SDP_DIM_LIMIT, ToleranceVector, solve_min_fail
from .state_ud import (
    _pf_fast,
    depolarizing_pair_fidelity,
    erasure_pair_fidelity,
    pure_pair_pf_batch,
)

_TP_TOL = 1e-10


@dataclass(frozen=True)
class KrausChannel:
    """A CPTP map given by Kraus operators (d_out x d_in each)."""

    kraus_ops: tuple[np.ndarray, ...]
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool) -> None:
        ops = tuple(np.asarray(k, dtype=complex) for k in self.kraus_ops)
        object.__setattr__(self, "kraus_ops", ops)
        if not validate:
            return
        if not ops:
            raise ValueError("a channel needs at least one Kraus operator")
        shape = ops[0].shape
        if any(k.shape != shape for k in ops):
            raise ValueError("Kraus operators must share one shape")
        total = sum(k.conj().T @ k for k in ops)
        if np.max(np.abs(total - np.eye(shape[1]))) > _TP_TOL:
            raise ValueError("Kraus operators do not preserve trace")

    @property
    def dim_in(self) -> int:
        return self.kraus_ops[0].shape[1]

    @property
    def dim_out(self) -> int:
        return self.kraus_ops[0].shape[0]

    def apply(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=complex)
        out = sum(k @ rho @ k.conj().T for k in self.kraus_ops)
        return hermitian_part(out)


@dataclass(frozen=True)
class ChannelEnsemble:
    channels: tuple[KrausChannel, ...]
    priors: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "channels", tuple(self.channels))
        p = np.asarray(self.priors, dtype=float).reshape(-1)
        object.__setattr__(self, "priors", p)
        if len(self.channels) < 2:
            raise ValueError("channel ensemble needs at least two hypotheses")
        if len(self.channels) != p.shape[0]:
            raise ValueError("number of channels and priors differ")
        if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("priors must be a probability vector")
        dims = {(c.dim_in, c.dim_out) for c in self.channels}
        if len(dims) != 1:
            raise ValueError("channels must share input/output dimensions")

    @property
    def m(self) -> int:
        return len(self.channels)


@dataclass(frozen=True)
class SimulationError:
    """Per-channel and uniform simulation errors for an M-port simulation."""

    per_channel: np.ndarray
    uniform: float
    ports: int
    dim: int

    def __post_init__(self) -> None:
        d = np.asarray(self.per_channel, dtype=float).reshape(-1)
        object.__setattr__(self, "per_channel", d)
        if np.any(d < 0):
            raise ValueError("simulation errors must be nonnegative")
        if np.isfinite(self.uniform) and np.any(d > self.uniform + 1e-12):
            raise ValueError("per-channel errors exceed the uniform bound")


@dataclass(frozen=True)
class ChannelBoundResult:
    """Lower bound on the adaptive-protocol inconclusive probability."""

    value: float
    rounds: int
    ports: int
    eps_u: np.ndarray
    eps_r: np.ndarray
    eps_u_implied: np.ndarray
    classical: bool = False
    vacuous: bool = False


def choi_state(channel: KrausChannel) -> DensityMatrix:
    """Choi state: the channel applied to one half of a maximally entangled
    pair; lives on dim_out x dim_in with the output leg first."""
    d = channel.dim_in
    zeta = max_entangled(d).amplitudes.reshape(d, d)
    out = np.zeros((channel.dim_out * d, channel.dim_out * d), dtype=complex)
    for k in channel.kraus_ops:
        v = (k @ zeta).reshape(-1)
        out += np.outer(v, v.conj())
    return DensityMatrix(hermitian_part(out))


def pbt_error_bound(ports: int, dim: int) -> float:
    """Diamond-norm error of M-port teleportation simulation: 2 d (d-1) / M."""
    if ports < 1:
        raise ValueError("port count must be at least 1")
    if dim < 2:
        raise ValueError("channel dimension must be at least 2")
    return 2.0 * dim * (dim - 1) / ports


def choi_fidelity_power(fidelity_value: float, rounds: int, ports: int) -> float:
    """Fidelity of uM-fold tensor powers: F^(u M)."""
    if not 0.0 <= fidelity_value <= 1.0:
        raise ValueError("fidelity must lie in [0, 1]")
    if rounds * ports < 1:
        raise ValueError("need at least one Choi copy")
    return float(fidelity_value ** (rounds * ports))


def uniform_error_model(dim: int, n_channels: int = 2) -> Callable[[int], SimulationError]:
    """Default per-port error model: the universal PBT bound for every channel."""

    def model(ports: int) -> SimulationError:
        d = pbt_error_bound(ports, dim)
        return SimulationError(np.full(n_channels, d), d, ports, dim)

    return model


def exact_simulation_model(n_channels: int = 2) -> Callable[[int], SimulationError]:
    """Zero-error model for jointly teleportation-covariant ensembles."""

    def model(ports: int) -> SimulationError:
        return SimulationError(np.zeros(n_channels), 0.0, ports, 2)

    return model


def channel_fail_lower_bound(
    choi_fidelity: float,
    rounds: int,
    ports: int,
    delta_p: float,
    delta_q: float,
    priors: tuple[float, float],
    eps_u: tuple[float, float],
    grid: int = 400,
    classical: bool = False,
) -> ChannelBoundResult:
    """Fidelity-based lower bound on the u-round inconclusive probability.

    Scans a grid of rescaled tolerance pairs; each grid point eps_R yields a
    valid bound pair with un-rescaled tolerance
        eps_U_implied = (1 - pf) eps_R - u * Delta,   pf = pair value at F^(uM),
    and bound value pf - u * mean(Delta) / 2. The reported bound is the best
    grid point whose implied tolerance dominates the request (rounding only
    ever loosens), refined by bisection along its ray so the binding
    component matches the request to ~1e-9. A request beyond the achievable
    image comes back as a vacuous zero bound.
    """
    if grid < 2:
        raise ValueError("scan grid must have at least 2 points")
    e_req = np.asarray(eps_u, dtype=float)
    if np.any(e_req < 0) or np.any(e_req > 1):
        raise ValueError("requested tolerances must lie in [0, 1]")
    if delta_p < 0 or delta_q < 0:
        raise ValueError("simulation errors must be nonnegative")
    p, q = priors
    u = rounds
    # the pair kernel needs an overlap strictly inside (0, 1)
    xi = min(max(choi_fidelity_power(choi_fidelity, u, ports), 1e-12), 1.0 - 1e-12)
    u_delta = u * np.array([delta_p, delta_q])
    dbar_half = 0.5 * u * (p * delta_p + q * delta_q)

    ts = np.linspace(0.0, 1.0, grid)
    ep_g, eq_g = np.meshgrid(ts, ts, indexing="ij")
    pf = pure_pair_pf_batch(xi, ep_g.ravel(), eq_g.ravel(), p, q)
    implied_p = (1.0 - pf) * ep_g.ravel() - u_delta[0]
    implied_q = (1.0 - pf) * eq_g.ravel() - u_delta[1]
    valid = (implied_p >= e_req[0] - 1e-12) & (implied_q >= e_req[1] - 1e-12)
    if not np.any(valid):
        return ChannelBoundResult(
            0.0, u, ports, e_req, np.zeros(2), np.zeros(2), classical, True
        )
    vals = np.where(valid, pf, -np.inf)
    k = int(np.argmax(vals))
    er_grid_best = np.array([ep_g.ravel()[k], eq_g.ravel()[k]])
    best_pf = float(pf[k])
    er_best = er_grid_best

    # refine by bisection along candidate rays: the implied tolerance grows
    # monotonically with the ray parameter, so the smallest feasible point on
    # a ray carries the largest bound on it
    def refine(direction: np.ndarray) -> tuple[float, np.ndarray] | None:
        def probe(t: float) -> tuple[bool, float, np.ndarray]:
            er = np.clip(t * direction, 0.0, 1.0)
            pf_t = _pf_fast(xi, er[0], er[1], p, q)
            impl = (1.0 - pf_t) * er - u_delta
            return bool(np.all(impl >= e_req - 1e-12)), pf_t, er

        t_hi = 1.0 / float(direction.max())
        ok, pf_hi, er_hi = probe(t_hi)
        if not ok:
            return None
        lo, hi = 0.0, t_hi
        for _ in range(70):
            mid = 0.5 * (lo + hi)
            ok, pf_mid, er_mid = probe(mid)
            if ok:
                hi, pf_hi, er_hi = mid, pf_mid, er_mid
            else:
                lo = mid
            if hi - lo < 1e-13:
                break
        return pf_hi, er_hi

    rays = [np.array([1.0, 1.0])]
    if e_req.max() > 0:
        rays.append(e_req / e_req.max())
    if er_grid_best.max() > 0:
        rays.append(er_grid_best / er_grid_best.max())
    for ray in rays:
        got = refine(ray)
        if got is not None and got[0] > best_pf + 1e-12:
            best_pf, er_best = got

    raw = best_pf - dbar_half
    implied = (1.0 - best_pf) * er_best - u_delta
    return ChannelBoundResult(
        float(np.clip(raw, 0.0, 1.0)),
        u,
        ports,
        e_req,
        er_best,
        implied,
        classical,
        raw <= 0.0,
    )


def best_bound_over_ports(
    choi_fidelity: float,
    rounds: int,
    delta_model: Callable[[int], SimulationError],
    priors: tuple[float, float],
    eps_u: tuple[float, float],
    port_range: range = range(1, 201),
    grid: int = 400,
) -> ChannelBoundResult:
    """Optimize the fidelity-based bound over the number of simulation ports."""
    if len(port_range) == 0:
        raise ValueError("port range must be nonempty")
    best: ChannelBoundResult | None = None
    for m in port_range:
        err = delta_model(m)
        res = channel_fail_lower_bound(
            choi_fidelity,
            rounds,
            m,
            float(err.per_channel[0]),
            float(err.per_channel[-1]),
            priors,
            eps_u,
            grid=grid,
        )
        if best is None or res.value > best.value:
            best = res
    assert best is not None
    return best


def channel_fail_lower_bound_sdp(
    ens: ChannelEnsemble,
    rounds: int,
    ports: int,
    eps_u: np.ndarray,
    delta: np.ndarray | None = None,
) -> float:
    """Exact evaluation of the adaptive lower bound via the discrimination SDP
    on tensor-powered Choi states, feasible while (d_out d_in)^(u M) stays
    within the solver limit. delta defaults to zero (teleportation-covariant)
    or may give per-channel simulation errors."""
    u, m_ports = rounds, ports
    chois = [choi_state(c) for c in ens.channels]
    d_single = chois[0].dim
    total_dim = d_single ** (u * m_ports)
    if total_dim > SDP_DIM_LIMIT:
        raise ValueError(
            f"tensor-power dimension {total_dim} exceeds the SDP limit {SDP_DIM_LIMIT}"
        )
    if delta is None:
        delta = np.zeros(ens.m)
    delta = np.asarray(delta, dtype=float)
    e_req = np.asarray(eps_u, dtype=float)
    widened = np.clip(e_req + u * delta, 0.0, 1.0)
    powered = tuple(
        DensityMatrix.unchecked(tensor_power(c.mat, u * m_ports)) for c in chois
    )
    state_ens = StateEnsemble(powered, ens.priors)
    sol = solve_min_fail(state_ens, ToleranceVector(widened, "U"))
    raw = sol.p_fail - 0.5 * u * float(ens.priors @ delta)
    return float(np.clip(raw, 0.0, 1.0))


# ---------------------------------------------------------------------------
# channel constructors


_PAULIS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_gate_channel(kind: str, eta: float) -> KrausChannel:
    """A Pauli gate (identity or Z) followed by depolarizing noise:
    rho -> eta U rho U + (1 - eta) I/2."""
    if kind not in ("I", "Z"):
        raise ValueError("gate kind must be 'I' or 'Z'")
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    ops = [np.sqrt(eta) * _PAULIS[kind]]
    ops += [np.sqrt((1.0 - eta) / 4.0) * _PAULIS[s] for s in ("I", "X", "Y", "Z")]
    return KrausChannel(tuple(ops))


def erasure_channel(which: int, eta: float, overlap: float) -> KrausChannel:
    """Erasure onto one of two error states with the given mutual overlap:
    rho -> eta |e_k><e_k| + (1 - eta) rho, error states orthogonal to the
    qubit input space. Output space is 4-dimensional (input + error plane)."""
    if which not in (1, 2):
        raise ValueError("erasure channel index must be 1 or 2")
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    if not 0.0 <= overlap < 1.0:
        raise ValueError("error-state overlap must lie in [0, 1)")
    e1 = np.array([0.0, 0.0, 1.0, 0.0], dtype=complex)
    e2 = np.array([0.0, 0.0, overlap, np.sqrt(1.0 - overlap**2)], dtype=complex)
    err = e1 if which == 1 else e2
    embed = np.zeros((4, 2), dtype=complex)
    embed[0, 0] = embed[1, 1] = 1.0
    ops = [np.sqrt(1.0 - eta) * embed]
    ops += [np.sqrt(eta) * np.outer(err, np.eye(2)[j]) for j in (0, 1)]
    return KrausChannel(tuple(ops))


def amplitude_damping_channel(r: float) -> KrausChannel:
    """Qubit amplitude damping with decay probability r."""
    if not 0.0 <= r <= 1.0:
        raise ValueError("damping probability must lie in [0, 1]")
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - r)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(r)], [0.0, 0.0]], dtype=complex)
    return KrausChannel((k0, k1))


def amplitude_damping_choi_fidelity(r_p: float, r_q: float) -> float:
    """Choi fidelity of two amplitude-damping channels:
    (1 + sqrt((1-r_p)(1-r_q)) + sqrt(r_p r_q)) / 2."""
    return float(
        (1.0 + np.sqrt((1.0 - r_p) * (1.0 - r_q)) + np.sqrt(r_p * r_q)) / 2.0
    )


def pauli_pair_ensemble(eta: float) -> ChannelEnsemble:
    """Equal-prior noisy identity-vs-Z gate pair."""
    return ChannelEnsemble(
        (pauli_gate_channel("I", eta), pauli_gate_channel("Z", eta)),
        np.array([0.5, 0.5]),
    )


def erasure_pair_ensemble(eta: float, overlap: float) -> ChannelEnsemble:
    """Equal-prior pair of erasure channels."""
    return ChannelEnsemble(
        (erasure_channel(1, eta, overlap), erasure_channel(2, eta, overlap)),
        np.array([0.5, 0.5]),
    )


def amplitude_damping_pair_ensemble(r_p: float, r_q: float) -> ChannelEnsemble:
    """Equal-prior amplitude-damping pair."""
    return ChannelEnsemble(
        (amplitude_damping_channel(r_p), amplitude_damping_channel(r_q)),
        np.array([0.5, 0.5]),
    )


# ---------------------------------------------------------------------------
# classical (unentangled, non-adaptive) baselines


def classical_pauli_bound(
    eta: float, rounds: int, eps_u: tuple[float, float], grid: int = 400
) -> ChannelBoundResult:
    """Lower bound for classical probing of the noisy Pauli pair.

    The best unentangled probe is an equator state; the two output states
    then have fidelity sqrt(1 - eta^2), and the tele-covariant bound applies
    with that fidelity in place of the Choi fidelity."""
    f_cl = CHANNEL_MODELS["classical-pauli"].fidelity(eta)
    return channel_fail_lower_bound(
        f_cl, rounds, 1, 0.0, 0.0, (0.5, 0.5), eps_u, grid=grid, classical=True
    )


def classical_erasure_bound(
    eta: float, overlap: float, rounds: int, eps_u: tuple[float, float], grid: int = 400
) -> ChannelBoundResult:
    """Classical baseline for the erasure pair: a fixed input yields output
    fidelity eta*overlap + (1 - eta), identical to the Choi fidelity, so the
    classical and entangled bounds coincide."""
    f_cl = CHANNEL_MODELS["classical-erasure"].fidelity(eta, overlap)
    return channel_fail_lower_bound(
        f_cl, rounds, 1, 0.0, 0.0, (0.5, 0.5), eps_u, grid=grid, classical=True
    )


# ---------------------------------------------------------------------------
# model table


@dataclass(frozen=True)
class ChannelModel:
    """A named pair of equal-prior channels (or of classical probe outputs).

    fidelity takes the parameters in the order listed and returns the Choi
    fidelity of the pair, or the output fidelity of the best unentangled
    probe for a classical model. A tele-covariant pair is simulated exactly
    with one port per round; any other pair needs port-based teleportation.
    """

    params: tuple[str, ...]
    fidelity: Callable[..., float]
    tele_covariant: bool
    classical: bool = False


CHANNEL_MODELS: dict[str, ChannelModel] = {
    # noisy identity-vs-Z gates: their Choi states are the depolarizing pair
    "pauli": ChannelModel(("eta",), depolarizing_pair_fidelity, True),
    # erasure onto two error states: the Choi states are the erasure mixture
    "erasure": ChannelModel(("eta", "overlap"), erasure_pair_fidelity, True),
    "ad": ChannelModel(("r_p", "r_q"), amplitude_damping_choi_fidelity, False),
    # an equator probe of the Pauli pair gives output fidelity sqrt(1 - eta^2)
    "classical-pauli": ChannelModel(
        ("eta",), lambda eta: float(np.sqrt(max(0.0, 1.0 - eta * eta))), True, True
    ),
    # any fixed probe of the erasure pair: eta |overlap| + (1 - eta)
    "classical-erasure": ChannelModel(
        ("eta", "overlap"), lambda eta, overlap: float(eta * abs(overlap) + (1.0 - eta)), True, True
    ),
}


# ---------------------------------------------------------------------------
# diagnostics


def pauli_covariance_defect(channel: KrausChannel) -> float:
    """How far a qubit channel is from being teleportation-covariant.

    For each Pauli input twirl U the Choi state of rho -> channel(U rho U+)
    must be an output-unitary rotation of the original Choi state; the defect
    is the largest residual Frobenius distance over the four Paulis after
    minimizing over the output unitary (parameterized over SU(2) and found
    numerically from several starts)."""
    if channel.dim_in != 2 or channel.dim_out != 2:
        raise ValueError("covariance diagnostic implemented for qubit channels")
    base = choi_state(channel).mat
    worst = 0.0
    for name, u_mat in _PAULIS.items():
        twirled = KrausChannel(
            tuple(k @ u_mat for k in channel.kraus_ops), validate=False
        )
        target = choi_state(twirled).mat

        def resid(params: np.ndarray) -> float:
            a, b, c = params
            v = np.array(
                [
                    [np.cos(a) * np.exp(1j * b), np.sin(a) * np.exp(1j * c)],
                    [-np.sin(a) * np.exp(-1j * c), np.cos(a) * np.exp(-1j * b)],
                ]
            )
            rot = kron_all([v, np.eye(2)])
            return float(np.linalg.norm(rot @ base @ rot.conj().T - target))

        best = np.inf
        starts = [np.zeros(3), np.array([np.pi / 2, 0, 0]), np.array([np.pi / 2, 0, np.pi / 2]), np.array([0.0, np.pi / 2, 0.0]), np.array([0.7, 0.3, 1.1])]
        for s in starts:
            r = optimize.minimize(resid, s, method="Nelder-Mead", options={"xatol": 1e-12, "fatol": 1e-14})
            best = min(best, float(r.fun))
        worst = max(worst, best)
    return worst


def is_tele_covariant_qubit(channel: KrausChannel, tol: float = 1e-7) -> bool:
    return pauli_covariance_defect(channel) <= tol
