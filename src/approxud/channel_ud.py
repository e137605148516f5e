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
fidelity and inverts the rescaled parameterization. The inversion is
state_ud.invert_unrescaled_lanes, the one shared with the state-side bounds:
the best rescaled point that covers a request eps_u at simulation error
Delta lies on the ray through eps_u + u * Delta, and one bisection along
that ray finds it, at any priors. The bound takes its "cover" side, so the
implied tolerance covers the request with no slack and the value is rounded
down. The bound has a lane form, channel_fail_lower_bound_lanes, that
evaluates many (rounds, ports, Delta, eps_u) points in one lockstep
inversion; the scalar bound and the port search are views of it.
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
    PRIOR_TOL,
    depolarizing_pair_fidelity,
    erasure_pair_fidelity,
    invert_unrescaled_lanes,
)

# benchmark/tracing.py wraps this name; nothing here calls it (ROADMAP item 1)
from .state_ud import _pf_fast  # noqa: F401

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


@dataclass(frozen=True)
class ChannelBoundLanes:
    """channel_fail_lower_bound over L lanes: arrays of shape (L,), or (L, 2)
    for the tolerances."""

    value: np.ndarray
    rounds: np.ndarray
    ports: np.ndarray
    eps_u: np.ndarray
    eps_r: np.ndarray
    eps_u_implied: np.ndarray
    vacuous: np.ndarray
    classical: bool = False

    def lane(self, k: int) -> ChannelBoundResult:
        """The result of lane k."""
        return ChannelBoundResult(
            float(self.value[k]),
            int(self.rounds[k]),
            int(self.ports[k]),
            self.eps_u[k],
            self.eps_r[k],
            self.eps_u_implied[k],
            self.classical,
            bool(self.vacuous[k]),
        )


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
    if rounds < 1 or ports < 1:
        raise ValueError(f"need at least one round and one port, got rounds {rounds}, ports {ports}")
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


def channel_fail_lower_bound_lanes(
    choi_fidelity: float,
    rounds,
    ports,
    delta_p,
    delta_q,
    priors: tuple[float, float],
    eps_u,
    classical: bool = False,
) -> ChannelBoundLanes:
    """channel_fail_lower_bound over lanes, in one lockstep inversion.

    rounds, ports, delta_p and delta_q have shape (L,) and eps_u (L, 2); any
    of them broadcasts. Each lane's overlap is the fidelity power
    F^(u M), taken with Python's float power as in choi_fidelity_power.
    """
    e = np.asarray(eps_u, dtype=float).reshape(-1, 2)
    u, m, dp, dq, ep, eq = np.broadcast_arrays(
        np.asarray(rounds).reshape(-1),
        np.asarray(ports).reshape(-1),
        np.asarray(delta_p, dtype=float).reshape(-1),
        np.asarray(delta_q, dtype=float).reshape(-1),
        e[:, 0],
        e[:, 1],
    )
    if np.any(dp < 0) or np.any(dq < 0):
        raise ValueError("simulation errors must be nonnegative")
    p, q = priors
    if p < 0 or q < 0 or abs(p + q - 1.0) > PRIOR_TOL:
        raise ValueError("priors must be nonnegative and sum to 1")
    xi = [choi_fidelity_power(choi_fidelity, a, b) for a, b in zip(u.tolist(), m.tolist())]
    e_req = np.column_stack([ep, eq])
    widening = np.column_stack([u * dp, u * dq])
    point = invert_unrescaled_lanes(xi, (p, q), e_req, widening)
    raw = point.p_fail - 0.5 * u * (p * dp + q * dq)
    vac = point.vacuous
    implied = (1.0 - point.p_fail)[:, None] * point.eps_r - widening
    return ChannelBoundLanes(
        np.where(vac, 0.0, np.clip(raw, 0.0, 1.0)),
        u,
        m,
        e_req,
        point.eps_r,
        np.where(vac[:, None], 0.0, implied),
        vac | (raw <= 0.0),
        classical,
    )


def channel_fail_lower_bound(
    choi_fidelity: float,
    rounds: int,
    ports: int,
    delta_p: float,
    delta_q: float,
    priors: tuple[float, float],
    eps_u: tuple[float, float],
    classical: bool = False,
) -> ChannelBoundResult:
    """Fidelity-based lower bound on the u-round inconclusive probability.

    Each rescaled tolerance pair eps_R yields a valid bound pair with
    un-rescaled tolerance
        eps_U_implied = (1 - pf) eps_R - u * Delta,   pf = pair value at F^(uM),
    and bound value pf - u * (p Delta_p + q Delta_q) / 2. The reported bound
    takes the largest pf over the eps_R whose implied tolerance covers the
    request: state_ud.invert_unrescaled_lanes with widening u * Delta on its
    "cover" side, which bisects the ray through eps_u + u * Delta and
    returns a point whose float-computed implied tolerance covers eps_u with
    no slack, so the value never exceeds the one at the exact crossing. A
    request that not even eps_R = (1, 1) covers comes back as a vacuous zero
    bound. This is the one-lane call of channel_fail_lower_bound_lanes.
    """
    return channel_fail_lower_bound_lanes(
        choi_fidelity, rounds, ports, delta_p, delta_q, priors, eps_u, classical
    ).lane(0)


def best_port(values: np.ndarray) -> np.ndarray:
    """Index of the best port count in each row of a (points, ports) table of
    bound values: the first maximum, the one a scan that moves only to a
    strictly larger value keeps."""
    return np.argmax(values, axis=-1)


def best_bound_over_ports(
    choi_fidelity: float,
    rounds: int,
    delta_model: Callable[[int], SimulationError],
    priors: tuple[float, float],
    eps_u: tuple[float, float],
    port_range: range = range(1, 201),
) -> ChannelBoundResult:
    """Optimize the fidelity-based bound over the number of simulation ports,
    in one lane call over the port range."""
    if len(port_range) == 0:
        raise ValueError("port range must be nonempty")
    errors = [delta_model(m).per_channel for m in port_range]
    lanes = channel_fail_lower_bound_lanes(
        choi_fidelity,
        rounds,
        np.array(port_range),
        [err[0] for err in errors],
        [err[-1] for err in errors],
        priors,
        eps_u,
    )
    return lanes.lane(int(best_port(lanes.value)))


class UncertifiedBoundError(ValueError):
    """Raised when the SDP behind a lower bound did not end optimal."""


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
    or may give per-channel simulation errors.

    The value is the primal p_fail of an `optimal` solve, so it matches the
    optimum only to the solver's tolerance (a dual-certified bound is still
    open). Any other solver status raises UncertifiedBoundError, since the
    primal value of a minimization that has not converged is no lower bound.
    """
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
    if sol.solver_status != "optimal":
        raise UncertifiedBoundError(
            f"the Choi-state SDP ended {sol.solver_status!r}; its value is no certified lower bound"
        )
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
    eta: float, rounds: int, eps_u: tuple[float, float]
) -> ChannelBoundResult:
    """Lower bound for classical probing of the noisy Pauli pair.

    The best unentangled probe is an equator state; the two output states
    then have fidelity sqrt(1 - eta^2), and the tele-covariant bound applies
    with that fidelity in place of the Choi fidelity."""
    f_cl = CHANNEL_MODELS["classical-pauli"].fidelity_at({"eta": eta})
    return channel_fail_lower_bound(
        f_cl, rounds, 1, 0.0, 0.0, (0.5, 0.5), eps_u, classical=True
    )


def classical_erasure_bound(
    eta: float, overlap: float, rounds: int, eps_u: tuple[float, float]
) -> ChannelBoundResult:
    """Classical baseline for the erasure pair: a fixed input yields output
    fidelity eta*overlap + (1 - eta), identical to the Choi fidelity, so the
    classical and entangled bounds coincide."""
    f_cl = CHANNEL_MODELS["classical-erasure"].fidelity_at({"eta": eta, "overlap": overlap})
    return channel_fail_lower_bound(
        f_cl, rounds, 1, 0.0, 0.0, (0.5, 0.5), eps_u, classical=True
    )


# ---------------------------------------------------------------------------
# model table


# admissible parameter range: (low, high, whether high itself is allowed)
ParamRange = tuple[float, float, bool]
_UNIT: ParamRange = (0.0, 1.0, True)
_OVERLAP: ParamRange = (0.0, 1.0, False)  # as erasure_channel requires


@dataclass(frozen=True)
class ChannelModel:
    """A named pair of equal-prior channels (or of classical probe outputs).

    params maps each parameter, in the order fidelity takes them, to its
    admissible range. fidelity returns the Choi fidelity of the pair, or the
    output fidelity of the best unentangled probe for a classical model. A
    tele-covariant pair is simulated exactly with one port per round; any
    other pair needs port-based teleportation.
    """

    params: dict[str, ParamRange]
    fidelity: Callable[..., float]
    tele_covariant: bool
    classical: bool = False

    def fidelity_at(self, values: dict[str, float]) -> float:
        """fidelity at the named parameter values, each checked against its range."""
        for name, (lo, hi, hi_allowed) in self.params.items():
            v = values[name]
            if not (lo <= v <= hi if hi_allowed else lo <= v < hi):
                close = "]" if hi_allowed else ")"
                raise ValueError(f"{name} must lie in [{lo:g}, {hi:g}{close}, got {v:g}")
        return self.fidelity(*(values[name] for name in self.params))


CHANNEL_MODELS: dict[str, ChannelModel] = {
    # noisy identity-vs-Z gates: their Choi states are the depolarizing pair
    "pauli": ChannelModel({"eta": _UNIT}, depolarizing_pair_fidelity, True),
    # erasure onto two error states: the Choi states are the erasure mixture
    "erasure": ChannelModel({"eta": _UNIT, "overlap": _OVERLAP}, erasure_pair_fidelity, True),
    "ad": ChannelModel({"r_p": _UNIT, "r_q": _UNIT}, amplitude_damping_choi_fidelity, False),
    # an equator probe of the Pauli pair gives output fidelity sqrt(1 - eta^2)
    "classical-pauli": ChannelModel(
        {"eta": _UNIT}, lambda eta: float(np.sqrt(max(0.0, 1.0 - eta * eta))), True, True
    ),
    # any fixed probe of the erasure pair gives output fidelity
    # eta overlap + (1 - eta), the Choi fidelity itself
    "classical-erasure": ChannelModel(
        {"eta": _UNIT, "overlap": _OVERLAP}, erasure_pair_fidelity, True, True
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
