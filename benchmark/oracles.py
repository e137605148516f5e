"""Reference computations the benchmark checks the program's outputs against.

Nothing here imports approxud: every value is derived again from the
problem's definition with numpy and scipy, so a fault in the program cannot
hide behind the same fault in its own check.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy import linalg


def window_top(eps_p: float, eps_q: float) -> float:
    """Upper end of the residual-overlap window; 1 once eps_p + eps_q >= 1."""
    if eps_p + eps_q >= 1.0:
        return 1.0
    return float(np.sqrt(eps_p * (1.0 - eps_q)) + np.sqrt(eps_q * (1.0 - eps_p)))


def pure_pair_equal_priors(xi: float, eps_p: float, eps_q: float) -> float:
    """Minimum inconclusive probability of a pure pair at equal priors,
    rescaled tolerances: 1 - (1 - xi)/(1 - w), and 0 once w >= xi."""
    w = window_top(eps_p, eps_q)
    if w >= min(xi, 1.0):
        return 0.0
    return float(min(1.0, max(0.0, 1.0 - (1.0 - xi) / (1.0 - w))))


def pure_pair_unrescaled(xi: float, eps_u: float) -> float:
    """The same pure pair at a symmetric un-rescaled tolerance eps_u.

    At equal priors the optimum is symmetric, so the rescaled tolerance t
    with (1 - pf(t)) t = eps_u gives the answer; that map is increasing in
    t, and bisection finds it.
    """
    lo, hi = 0.0, 1.0
    if eps_u <= 0.0:
        return pure_pair_equal_priors(xi, 0.0, 0.0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (1.0 - pure_pair_equal_priors(xi, mid, mid)) * mid <= eps_u:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    return pure_pair_equal_priors(xi, hi, hi)


def helstrom_tangency_equal(xi: float) -> float:
    """Symmetric tolerance at which the overlap window closes: w(e, e) = xi."""
    return float((1.0 - np.sqrt(1.0 - xi * xi)) / 2.0)


def fidelity_sqrtm(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity Tr sqrt(sqrt(rho) sigma sqrt(rho)) by scipy.linalg.sqrtm.

    Only a cross-check: on singular states sqrtm's error is about 1e-8 at
    best, and for the rank-4 two-copy damping Choi states (d = 16) it
    returned 3.9e6.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # sqrtm warns on singular arguments
        root = linalg.sqrtm(rho)
        inner = linalg.sqrtm(root @ sigma @ root)
    return float(np.trace(inner).real)


def psd_factor(rho: np.ndarray) -> np.ndarray:
    """A with A A^dagger = rho, from the eigendecomposition; eigenvalues below
    1e-12 of the largest are rounding and dropped."""
    w, v = np.linalg.eigh((rho + rho.conj().T) / 2)
    keep = w > 1e-12 * w.max()
    return v[:, keep] * np.sqrt(w[keep])


def factor_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Fidelity of rho = A A^dagger and sigma = B B^dagger: the trace norm of
    A^dagger B (the best overlap of two purifications).

    No square root of a singular matrix is taken, so the value is accurate to
    rounding even for rank-deficient states; the channel checks raise it to
    powers near 100.
    """
    return float(np.linalg.svd(a.conj().T @ b, compute_uv=False).sum())


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity of two density matrices."""
    return factor_fidelity(psd_factor(rho), psd_factor(sigma))


def choi_factor(kraus: list[np.ndarray]) -> np.ndarray:
    """Columns (K x 1)|Phi>, one per Kraus operator: Choi = F F^dagger."""
    d_in = kraus[0].shape[1]
    phi = np.eye(d_in).reshape(-1) / np.sqrt(d_in)
    return np.stack([np.kron(k, np.eye(d_in)) @ phi for k in kraus], axis=1)


def choi_matrix(kraus: list[np.ndarray]) -> np.ndarray:
    """Choi state (K x 1)|Phi><Phi|(K x 1)^dagger summed over Kraus operators."""
    f = choi_factor(kraus)
    return f @ f.conj().T


def damping_kraus(r: float) -> list[np.ndarray]:
    return [np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - r)]]), np.array([[0.0, np.sqrt(r)], [0.0, 0.0]])]


_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_gate_kraus(gate: str, eta: float) -> list[np.ndarray]:
    """Gate followed by depolarizing noise: eta U rho U + (1 - eta) I/2."""
    return [np.sqrt(eta) * _PAULI[gate]] + [np.sqrt((1.0 - eta) / 4.0) * p for p in _PAULI.values()]


def erasure_kraus(error_state: np.ndarray, eta: float) -> list[np.ndarray]:
    """Qubit erasure into a 4-d output: eta |e><e| + (1 - eta) rho, with
    the error state orthogonal to the embedded input plane."""
    embed = np.zeros((4, 2))
    embed[0, 0] = embed[1, 1] = 1.0
    return [np.sqrt(1.0 - eta) * embed] + [np.sqrt(eta) * np.outer(error_state, np.eye(2)[j]) for j in (0, 1)]


def channel_pair(model: str, eta: float, overlap: float, r_p: float, r_q: float) -> tuple[list, list]:
    """Kraus operators of the channel pair a `channel` sweep names."""
    if model == "ad":
        pair = (damping_kraus(r_p), damping_kraus(r_q))
    elif model == "pauli":
        pair = (pauli_gate_kraus("I", eta), pauli_gate_kraus("Z", eta))
    elif model == "erasure":
        e1 = np.array([0.0, 0.0, 1.0, 0.0])
        e2 = np.array([0.0, 0.0, overlap, np.sqrt(1.0 - overlap**2)])
        pair = (erasure_kraus(e1, eta), erasure_kraus(e2, eta))
    else:
        raise ValueError(f"no reference channels for model {model!r}")
    return pair


def channel_bound(fid: float, rounds: int, ports: int, sim_error: float, eps_r: tuple[float, float]) -> tuple[float, np.ndarray]:
    """Fidelity-relaxation bound at one rescaled tolerance pair.

    Returns the clamped bound pf - u * Delta / 2 (equal priors, the same
    simulation error for both channels) and the un-rescaled tolerance it
    certifies, (1 - pf) eps_r - u * Delta, where pf is the pure-pair value at
    overlap F^(u M).
    """
    pf = pure_pair_equal_priors(fid ** (rounds * ports), *eps_r)
    bound = min(1.0, max(0.0, pf - 0.5 * rounds * sim_error))
    implied = (1.0 - pf) * np.asarray(eps_r, dtype=float) - rounds * sim_error
    return bound, implied


def pbt_error(ports: int, dim: int = 2) -> float:
    """Port-based teleportation simulation error 2 d (d - 1) / M."""
    return 2.0 * dim * (dim - 1) / ports


def povm_problems(elements: list[np.ndarray], states: list[np.ndarray], priors: np.ndarray,
                  eps: np.ndarray, flavor: str, p_fail: float, tol: float = 1e-7) -> list[str]:
    """Re-score a POVM against its ensemble: PSD elements that sum to the
    identity, the flavor's error constraints, and the reported p_fail."""
    d = states[0].shape[0]
    problems = []
    if len(elements) != len(states) + 1:
        return [f"{len(elements)} POVM elements for {len(states)} hypotheses"]
    for k, e in enumerate(elements):
        if np.max(np.abs(e - e.conj().T)) > tol:
            problems.append(f"element {k} is not Hermitian")
        if np.linalg.eigvalsh((e + e.conj().T) / 2).min() < -tol:
            problems.append(f"element {k} is not PSD")
    if np.max(np.abs(sum(elements) - np.eye(d))) > tol:
        problems.append("elements do not sum to the identity")
    fail = [float(np.trace(s @ elements[0]).real) for s in states]
    for n, s in enumerate(states):
        err = sum(float(np.trace(s @ elements[k + 1]).real) for k in range(len(states)) if k != n)
        limit = eps[n] if flavor == "U" else eps[n] * (1.0 - fail[n])
        if err > limit + tol:
            problems.append(f"P(error|{n}) = {err:.3e} exceeds {limit:.3e} ({flavor})")
    rescored = float(np.dot(priors, fail))
    if abs(rescored - p_fail) > tol:
        problems.append(f"reported p_fail {p_fail:.9f} but the POVM gives {rescored:.9f}")
    return problems
