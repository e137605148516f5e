"""Exact minimization of the inconclusive probability over POVMs.

The discrimination problem is a small dense semidefinite program over the
POVM elements (Pi_0, ..., Pi_m), with Pi_0 the inconclusive outcome:

    minimize    sum_n P_n Tr(rho_n Pi_0)
    subject to  sum_k Pi_k = I,   Pi_k >= 0,
                error constraints per hypothesis (flavor U or R below).

Flavor "U" bounds each conclusive error probability directly,
P(error|n) <= eps_n. Flavor "R" bounds the error conditioned on the
measurement being conclusive under hypothesis n,
P(error|n) <= eps_n * (1 - Tr(rho_n Pi_0)), which is again linear in the
POVM. Complex Hermitian variables are realified (2x2 real block embedding)
so the cone solver works over real symmetric blocks; the embedding commutes
with all constraints, and solutions are averaged back to complex Hermitian
form without loss.

Hypotheses with eps_n = 0 make the feasible set lose its interior (every
competing outcome must annihilate supp(rho_n)), which stalls interior-point
iterations. Those support conditions are eliminated structurally instead:
each conclusive element is restricted to the orthogonal complement of the
supports it must annihilate (facial reduction), which restores strict
feasibility and makes the zero-error constraints hold exactly in the
recovered POVM.
"""

from __future__ import annotations

from dataclasses import dataclass, InitVar
from typing import Literal

import numpy as np

from .conesolver import ConeDims, solve_conelp, svec, smat, svec_dim
from .qmath import StateEnsemble, hermitian_part

SDP_DIM_LIMIT = 32
POVM_PSD_TOL = 1e-8
POVM_SUM_TOL = 1e-8
_ZERO_EPS = 1e-14
_SUPPORT_RTOL = 1e-9

Flavor = Literal["U", "R"]


@dataclass(frozen=True)
class Povm:
    """m+1 PSD elements summing to identity; index 0 is 'inconclusive'."""

    elements: tuple[np.ndarray, ...]
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool) -> None:
        els = tuple(np.asarray(e, dtype=complex) for e in self.elements)
        object.__setattr__(self, "elements", els)
        if not validate:
            return
        if len(els) < 2:
            raise ValueError("a POVM needs at least two elements")
        d = els[0].shape[0]
        total = np.zeros((d, d), dtype=complex)
        for e in els:
            if e.shape != (d, d):
                raise ValueError("POVM elements must share one square shape")
            if np.max(np.abs(e - e.conj().T)) > POVM_PSD_TOL:
                raise ValueError("POVM element is not Hermitian")
            if np.linalg.eigvalsh(hermitian_part(e)).min() < -POVM_PSD_TOL:
                raise ValueError("POVM element is not PSD within tolerance")
            total += e
        if np.max(np.abs(total - np.eye(d))) > POVM_SUM_TOL:
            raise ValueError("POVM elements do not sum to identity")

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    @property
    def n_outcomes(self) -> int:
        return len(self.elements)

    @classmethod
    def unchecked(cls, elements) -> "Povm":
        return cls(tuple(elements), validate=False)


@dataclass(frozen=True)
class ToleranceVector:
    """Per-hypothesis error tolerances with a constraint-flavor tag."""

    values: np.ndarray
    flavor: Flavor

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float).reshape(-1)
        object.__setattr__(self, "values", v)
        if self.flavor not in ("U", "R"):
            raise ValueError(f"flavor must be 'U' or 'R', got {self.flavor!r}")
        if np.any(v < 0) or np.any(v > 1):
            raise ValueError("tolerances must lie in [0, 1]")

    @property
    def m(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class DiscriminationSolution:
    p_fail: float
    povm: Povm
    per_hypothesis_error: np.ndarray
    flavor: Flavor
    solver_status: str  # optimal | max-iterations | infeasible-certified


def p_fail_of(povm: Povm, ens: StateEnsemble) -> float:
    """Overall inconclusive probability sum_n P_n Tr(rho_n Pi_0)."""
    if povm.dim != ens.dim:
        raise ValueError("POVM and ensemble dimensions differ")
    pi0 = povm.elements[0]
    return float(
        sum(p * np.trace(s.mat @ pi0).real for p, s in zip(ens.priors, ens.states))
    )


def conditional_errors(povm: Povm, ens: StateEnsemble) -> np.ndarray:
    """P(error|n) = 1 - Tr(rho_n Pi_n) - Tr(rho_n Pi_0) for each hypothesis."""
    if povm.dim != ens.dim:
        raise ValueError("POVM and ensemble dimensions differ")
    if povm.n_outcomes != ens.m + 1:
        raise ValueError("POVM outcome count does not match ensemble size")
    pi0 = povm.elements[0]
    out = np.empty(ens.m)
    for n, (p, s) in enumerate(zip(ens.priors, ens.states)):
        out[n] = 1.0 - np.trace(s.mat @ povm.elements[n + 1]).real - np.trace(s.mat @ pi0).real
    return out


def mix_povms(povms: list[Povm], weights) -> Povm:
    """Elementwise convex combination: measure with povms[k] w.p. weights[k]."""
    w = np.asarray(weights, dtype=float).reshape(-1)
    if len(povms) != w.shape[0]:
        raise ValueError("need one weight per POVM")
    if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
        raise ValueError("weights must be a probability vector")
    shapes = {(p.n_outcomes, p.dim) for p in povms}
    if len(shapes) != 1:
        raise ValueError("POVMs must share outcome count and dimension")
    n_out = povms[0].n_outcomes
    mixed = [
        sum(wk * p.elements[j] for wk, p in zip(w, povms)) for j in range(n_out)
    ]
    return Povm(tuple(mixed))


def _realify(h: np.ndarray) -> np.ndarray:
    """Embed a complex matrix as a real one: A+iB -> [[A, -B], [B, A]]."""
    a, b = h.real, h.imag
    return np.block([[a, -b], [b, a]])


def _derealify(x: np.ndarray) -> np.ndarray:
    """Inverse of _realify, averaging over the embedding symmetry."""
    d = x.shape[0] // 2
    a = (x[:d, :d] + x[d:, d:]) / 2
    b = (x[d:, :d] - x[:d, d:]) / 2
    return hermitian_part(a + 1j * b)


def _support_basis(rho: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the support of a PSD matrix."""
    w, v = np.linalg.eigh(hermitian_part(rho))
    keep = w > _SUPPORT_RTOL * max(w.max(), 1.0)
    return v[:, keep]


def _allowed_subspaces(ens: StateEnsemble, eps: np.ndarray) -> list[np.ndarray]:
    """Isometry V_k per conclusive outcome onto the subspace it may act on.

    Outcome k must annihilate supp(rho_n) for every other hypothesis n whose
    tolerance is exactly zero; V_k spans the orthogonal complement of those
    supports (the full space when there is nothing to annihilate).
    """
    d = ens.dim
    out = []
    for k in range(ens.m):
        forbidden = [
            _support_basis(ens.states[n].mat)
            for n in range(ens.m)
            if n != k and eps[n] <= _ZERO_EPS
        ]
        if not forbidden:
            out.append(np.eye(d, dtype=complex))
            continue
        stacked = np.hstack(forbidden)
        u, s, _ = np.linalg.svd(stacked, full_matrices=True)
        rank = int(np.sum(s > 1e-10))
        out.append(u[:, rank:])
    return out


def solve_min_fail(ens: StateEnsemble, tol: ToleranceVector) -> DiscriminationSolution:
    """Minimize the inconclusive probability subject to error tolerances.

    Always feasible: answering 'inconclusive' on every outcome satisfies both
    flavors, so an infeasibility certificate indicates a solver failure
    rather than a property of the problem.
    """
    if tol.m != ens.m:
        raise ValueError("tolerance vector length does not match ensemble")
    if ens.dim > SDP_DIM_LIMIT:
        raise ValueError(f"dimension {ens.dim} exceeds solver limit {SDP_DIM_LIMIT}")
    eps = tol.values
    d = ens.dim
    m = ens.m

    vs = _allowed_subspaces(ens, eps)
    ranks = [v.shape[1] for v in vs]
    active = [k for k in range(m) if ranks[k] > 0]
    if not active:
        # every conclusive outcome is forced to zero: always abstain
        povm = Povm.unchecked(
            [np.eye(d, dtype=complex)] + [np.zeros((d, d), dtype=complex)] * m
        )
        return DiscriminationSolution(1.0, povm, conditional_errors(povm, ens), tol.flavor, "optimal")

    d2 = 2 * d
    ns_full = svec_dim(d2)
    block_sizes = [d2] + [2 * ranks[k] for k in active]
    block_off = np.cumsum([0] + [svec_dim(b) for b in block_sizes])
    ineq = [n for n in range(m) if eps[n] > _ZERO_EPS]
    n_var = int(block_off[-1]) + len(ineq)
    n_rows = ns_full + len(ineq)

    rbar = ens.average_state()
    c = np.zeros(n_var)
    c[: ns_full] = svec(_realify(rbar) / 2)

    A = np.zeros((n_rows, n_var))
    b = np.zeros(n_rows)
    # completeness: X_0 + sum_k E_k(X_k) = I in the realified space
    A[:ns_full, :ns_full] = np.eye(ns_full)
    b[:ns_full] = svec(np.eye(d2))
    for j, k in enumerate(active):
        rv = _realify(vs[k])
        nk = 2 * ranks[k]
        emb = np.empty((ns_full, svec_dim(nk)))
        for a_idx in range(svec_dim(nk)):
            e = np.zeros(svec_dim(nk))
            e[a_idx] = 1.0
            emb[:, a_idx] = svec(rv @ smat(e, nk) @ rv.T)
        A[:ns_full, block_off[j + 1] : block_off[j + 2]] = emb

    # tolerance rows (only for eps_n > 0; zero tolerances are structural)
    for i, n in enumerate(ineq):
        row = ns_full + i
        rho_n = ens.states[n].mat
        if tol.flavor == "U":
            A[row, :ns_full] = svec(_realify(rho_n) / 2)
        else:
            A[row, :ns_full] = svec(_realify((1.0 - eps[n]) * rho_n) / 2)
        if n in active:
            j = active.index(n)
            proj = vs[n].conj().T @ rho_n @ vs[n]
            A[row, block_off[j + 1] : block_off[j + 2]] = svec(_realify(proj) / 2)
        A[row, int(block_off[-1]) + i] = -1.0
        b[row] = 1.0 - eps[n]

    dims = ConeDims(psd=tuple(block_sizes), nonneg=len(ineq))
    res = solve_conelp(c, A, b, dims)

    x = res.x
    pi0 = _derealify(smat(x[: ns_full], d2))
    elements = [pi0] + [np.zeros((d, d), dtype=complex) for _ in range(m)]
    for j, k in enumerate(active):
        nk = 2 * ranks[k]
        red = _derealify(smat(x[block_off[j + 1] : block_off[j + 2]], nk))
        elements[k + 1] = vs[k] @ red @ vs[k].conj().T
    # only a converged iterate is a valid POVM; a failed solve still reports
    # its iterate, with the status saying it did not converge
    povm = Povm(tuple(elements)) if res.status == "optimal" else Povm.unchecked(elements)
    errors = conditional_errors(povm, ens)
    p_fail = min(1.0, max(0.0, p_fail_of(povm, ens)))
    return DiscriminationSolution(p_fail, povm, errors, tol.flavor, res.status)
