"""Primal-dual interior-point solver for small dense semidefinite programs.

Solves the conic pair

    minimize    c.x                maximize    b.y
    subject to  A x = b           subject to  A^T y + s = c
                x in K                         s in K

over K = (product of real symmetric PSD cones) x (nonnegative orthant),
using the homogeneous self-dual embedding with Nesterov-Todd scaling and a
Mehrotra predictor-corrector step. The embedding also certifies infeasible
problems instead of diverging, and tolerates problems without a strictly
feasible point (which the discrimination SDPs hit at zero error tolerance).

PSD block variables are packed in scaled upper-triangle ("svec") coordinates
so that the Euclidean inner product of packed vectors equals the Frobenius
inner product of the matrices. Problem sizes are tiny (blocks <= 64, a few
hundred constraints), so all linear algebra is dense: the Schur complement
M = A W A^T is formed explicitly and factored by LAPACK Cholesky each
iteration, and each Newton solve uses the triangular factor with iterative
refinement against the operator z -> A W(A^T z) itself.

The Schur complement is assembled from the structure of the constraints.
Leading rows of A that are a sum of congruences, X_b -> V_b X_b V_b^T from
every PSD block b into the first block's space (the POVM completeness rows
of the discrimination SDP, with V_0 = I), give the block
sum_b symkron(V_b G_b V_b^T) in closed form, G_b the block's NT scaling
matrix; only the remaining rows go through dense products with A.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

_SQRT2 = np.sqrt(2.0)

# cache: n -> (iu_rows, iu_cols, scale vector)
_SVEC_CACHE: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _svec_index(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    got = _SVEC_CACHE.get(n)
    if got is None:
        rows, cols = np.triu_indices(n)
        scale = np.where(rows == cols, 1.0, _SQRT2)
        got = (rows, cols, scale)
        _SVEC_CACHE[n] = got
    return got


def svec_dim(n: int) -> int:
    return n * (n + 1) // 2


def svec(m: np.ndarray) -> np.ndarray:
    """Pack a symmetric matrix so that svec(X).svec(Y) = <X, Y>_F.

    Leading axes are batch axes: a stack of matrices packs row by row."""
    rows, cols, scale = _svec_index(m.shape[-1])
    return m[..., rows, cols] * scale


def smat(v: np.ndarray, n: int) -> np.ndarray:
    """Inverse of svec (leading axes of v are batch axes)."""
    rows, cols, scale = _svec_index(n)
    m = np.empty(v.shape[:-1] + (n, n))
    m[..., rows, cols] = m[..., cols, rows] = v / scale
    return m


# cache: (n, r) -> s_a s_b / 2 over svec index pairs (a of order n, b of order r)
_PAIR_SCALE_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _pair_scale(n: int, r: int) -> np.ndarray:
    got = _PAIR_SCALE_CACHE.get((n, r))
    if got is None:
        off_a = _svec_index(n)[0] != _svec_index(n)[1]
        off_b = _svec_index(r)[0] != _svec_index(r)[1]
        # exact powers of two and sqrt(2)/2, so that symkron(I) is exactly I
        got = np.exp2((off_a[:, None].astype(float) + off_b[None, :]) / 2.0 - 1.0)
        _PAIR_SCALE_CACHE[(n, r)] = got
    return got


def symkron(v: np.ndarray) -> np.ndarray:
    """Matrix of the map X -> V X V^T in svec coordinates.

    V is n x r (square and symmetric for an NT scaling block, an isometry
    for a completeness congruence); the result is svec_dim(n) x svec_dim(r)
    with entry s_a s_b (V_ik V_jl + V_il V_jk) / 2 at the svec index pair
    a = (i, j), b = (k, l).
    """
    n, r = v.shape
    ro, co, _ = _svec_index(n)
    ri, ci, _ = _svec_index(r)
    vi, vj = v[ro], v[co]
    out = vi.take(ri, axis=1)
    out *= vj.take(ci, axis=1)
    cross = vi.take(ci, axis=1)
    cross *= vj.take(ri, axis=1)
    out += cross
    out *= _pair_scale(n, r)
    return out


@dataclass
class ConeDims:
    """Cone structure: PSD block orders followed by an orthant."""

    psd: tuple[int, ...]
    nonneg: int = 0

    @property
    def packed_len(self) -> int:
        return sum(svec_dim(n) for n in self.psd) + self.nonneg

    @property
    def degree(self) -> int:
        return sum(self.psd) + self.nonneg

    def slices(self) -> list[slice]:
        out, off = [], 0
        for n in self.psd:
            out.append(slice(off, off + svec_dim(n)))
            off += svec_dim(n)
        out.append(slice(off, off + self.nonneg))
        return out


@dataclass
class ConeLPResult:
    status: str  # optimal | max-iterations | infeasible-certified
    x: np.ndarray
    y: np.ndarray
    s: np.ndarray
    pcost: float
    dcost: float
    gap: float
    pres: float
    dres: float
    iterations: int


class _Scaling:
    """Nesterov-Todd scaling for one iterate of the product cone."""

    def __init__(self, dims: ConeDims, x: np.ndarray, s: np.ndarray):
        self.dims = dims
        self.R: list[np.ndarray] = []
        self.Rinv: list[np.ndarray] = []
        self.G: list[np.ndarray] = []
        self.lam: list[np.ndarray] = []
        self.sls = sls = dims.slices()
        for n, sl in zip(dims.psd, sls):
            xm = smat(x[sl], n)
            sm = smat(s[sl], n)
            lx = _safe_cholesky(xm)
            ls = _safe_cholesky(sm)
            u, sv, vt = np.linalg.svd(ls.T @ lx)
            isq = 1.0 / np.sqrt(sv)
            r = (lx @ vt.T) * isq[None, :]
            rinv = isq[:, None] * (u.T @ ls.T)
            self.R.append(r)
            self.Rinv.append(rinv)
            self.G.append(r @ r.T)
            self.lam.append(sv)
        osl = sls[-1]
        xo, so = x[osl], s[osl]
        self.w2 = xo / so
        self.lam_o = np.sqrt(xo * so)

    def apply_w(self, v: np.ndarray) -> np.ndarray:
        """x -> W x with W the symmetric scaling (G . G per block, w^2 orthant).

        Leading axes of v are batch axes (rows of a constraint matrix)."""
        out = np.empty_like(v)
        sls = self.sls
        for n, g, sl in zip(self.dims.psd, self.G, sls):
            out[..., sl] = svec(g @ smat(v[..., sl], n) @ g)
        out[..., sls[-1]] = self.w2 * v[..., sls[-1]]
        return out

    def push_r(self, blocks: list[np.ndarray], ovec: np.ndarray) -> np.ndarray:
        """Assemble Delta-x from scaled-space blocks: R d R^T per block, w*d orthant."""
        dims = self.dims
        out = np.empty(dims.packed_len)
        sls = self.sls
        for r, d, sl in zip(self.R, blocks, sls):
            out[sl] = svec(r @ d @ r.T)
        out[sls[-1]] = np.sqrt(self.w2) * ovec
        return out

    def scale_x(self, dx: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
        """Primal direction into scaled space: Rinv DX Rinv^T per block, dx/w."""
        sls = self.sls
        blocks = [
            ri @ smat(dx[sl], n) @ ri.T
            for n, ri, sl in zip(self.dims.psd, self.Rinv, sls)
        ]
        return blocks, dx[sls[-1]] / np.sqrt(self.w2)

    def scale_s(self, ds: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
        """Dual direction into scaled space: R^T DS R per block, w*ds."""
        sls = self.sls
        blocks = [
            r.T @ smat(ds[sl], n) @ r
            for n, r, sl in zip(self.dims.psd, self.R, sls)
        ]
        return blocks, np.sqrt(self.w2) * ds[sls[-1]]


def _safe_cholesky(m: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        # iterate drifted to the cone boundary; nudge back
        jitter = max(1e-14, 1e-12 * abs(np.trace(m)))
        return np.linalg.cholesky(m + jitter * np.eye(m.shape[0]))


def _max_step_sym(lam: np.ndarray, d: np.ndarray) -> float:
    """Largest t with diag(lam) + t*d >= 0 (d symmetric)."""
    isq = 1.0 / np.sqrt(np.maximum(lam, 1e-300))
    m = isq[:, None] * d * isq[None, :]
    m = (m + m.T) / 2
    if not np.all(np.isfinite(m)):
        return 0.0
    try:
        mn = np.linalg.eigvalsh(m).min()
    except np.linalg.LinAlgError:
        return 0.0
    return np.inf if mn >= -1e-16 else 1.0 / (-mn)


def _max_step_vec(lam: np.ndarray, d: np.ndarray) -> float:
    if d.size == 0:
        return np.inf
    ratio = d / lam
    mn = ratio.min()
    return np.inf if mn >= -1e-16 else 1.0 / (-mn)


def _identity_point(dims: ConeDims) -> np.ndarray:
    e = np.empty(dims.packed_len)
    for n, sl in zip(dims.psd, dims.slices()):
        e[sl] = svec(np.eye(n))
    e[dims.slices()[-1]] = 1.0
    return e


def solve_conelp(
    c: np.ndarray,
    A: np.ndarray,
    b: np.ndarray,
    dims: ConeDims,
    *,
    max_iter: int = 500,
    gap_tol: float = 1e-9,
    feas_tol: float = 1e-9,
    step_frac: float = 0.99,
    congruences: Sequence[np.ndarray] | None = None,
) -> ConeLPResult:
    """Solve the conic pair; see module docstring for conventions.

    congruences, when given, holds one matrix V_b per PSD block, each with
    the first block's order as its row count, and declares that the leading
    svec_dim(dims.psd[0]) rows of A are sum_b svec(V_b X_b V_b^T), with
    zeros on the orthant. The Schur complement is then assembled from them
    in closed form; the residuals and the refinement of the Newton solves
    still use A as given.
    """
    c = np.asarray(c, dtype=float)
    b = np.asarray(b, dtype=float)
    A = np.asarray(A, dtype=float)
    p, n = A.shape
    if c.shape != (n,) or b.shape != (p,):
        raise ValueError("inconsistent problem dimensions")
    if congruences is not None and (
        len(congruences) != len(dims.psd)
        or any(v.shape != (dims.psd[0], nb) for v, nb in zip(congruences, dims.psd))
        or svec_dim(dims.psd[0]) > p
    ):
        raise ValueError("need one congruence per PSD block into the first block")

    e = _identity_point(dims)
    x = e.copy()
    s = e.copy()
    y = np.zeros(p)
    tau, kappa = 1.0, 1.0
    nu = dims.degree + 1
    bnorm = 1.0 + np.linalg.norm(b)
    cnorm = 1.0 + np.linalg.norm(c)

    def acceptable(r: ConeLPResult) -> bool:
        return r.pres <= feas_tol and r.dres <= feas_tol and r.gap <= 10.0 * gap_tol

    def rank(r: ConeLPResult) -> tuple[bool, float]:
        # an acceptable iterate beats any other; then the smaller residuals
        return (not acceptable(r), max(r.pres, r.dres) + r.gap)

    best: ConeLPResult | None = None
    stall = 0
    for it in range(max_iter):
        rp = A @ x - b * tau
        rd = A.T @ y + s - c * tau
        rg = float(b @ y - c @ x - kappa)
        mu = (x @ s + tau * kappa) / nu

        pres = np.linalg.norm(A @ (x / tau) - b) / bnorm
        dres = np.linalg.norm(A.T @ (y / tau) + s / tau - c) / cnorm
        gap = (x @ s) / (tau * tau)
        pcost = float(c @ x / tau)
        dcost = float(b @ y / tau)
        relgap = gap / max(1.0, abs(pcost))
        cur = ConeLPResult(
            "max-iterations", x / tau, y / tau, s / tau,
            pcost, dcost, gap, pres, dres, it,
        )
        if best is None or rank(cur) < rank(best):
            best = cur
            stall = 0
        else:
            stall += 1
        if pres <= feas_tol and dres <= feas_tol and (gap <= gap_tol or relgap <= gap_tol):
            cur.status = "optimal"
            return cur
        if stall >= 30:
            # numerically stalled near the solution; the contract tolerance
            # is an order of magnitude looser than the internal target
            break
        # certificate of infeasibility: tau collapses while kappa stays alive
        if tau <= 1e-12 * max(1.0, kappa) and mu <= 1e-10:
            cur.status = "infeasible-certified"
            return cur

        W = _Scaling(dims, x, s)
        lam_blocks, lam_o = W.lam, W.lam_o

        L = _cholesky_factor(_schur_complement(A, W, congruences))

        def schur_op(z: np.ndarray) -> np.ndarray:
            return A @ W.apply_w(A.T @ z)

        wc = W.apply_w(c)
        awc = A @ wc
        u1 = _chol_solve(L, schur_op, awc + b)
        denom = float((b - awc) @ u1 + c @ wc + kappa / tau)

        def direction(d_blocks, d_o, d_tk, rp_t, rd_t, rg_t):
            rdx = W.push_r(d_blocks, d_o)
            rhs = -rp_t - A @ rdx - A @ W.apply_w(rd_t)
            u2 = _chol_solve(L, schur_op, rhs)
            num = (
                -rg_t
                + float(c @ rdx)
                + float(wc @ rd_t)
                + d_tk / tau
                - float((b - awc) @ u2)
            )
            dtau = num / denom
            dy = u2 + dtau * u1
            ds = -rd_t - A.T @ dy + c * dtau
            dx = rdx - W.apply_w(ds)
            dkappa = (d_tk - kappa * dtau) / tau
            return dx, dy, ds, dtau, dkappa

        # predictor (affine scaling) direction
        d_blocks_aff = [-np.diag(l) for l in lam_blocks]
        d_o_aff = -lam_o
        dxa, dya, dsa, dta, dka = direction(d_blocks_aff, d_o_aff, -tau * kappa, rp, rd, rg)

        # longest feasible affine step
        xa_b, xa_o = W.scale_x(dxa)
        sa_b, sa_o = W.scale_s(dsa)
        alpha = 1.0
        for l, db, ds_ in zip(lam_blocks, xa_b, sa_b):
            alpha = min(alpha, _max_step_sym(l, db), _max_step_sym(l, ds_))
        alpha = min(alpha, _max_step_vec(lam_o, xa_o), _max_step_vec(lam_o, sa_o))
        if dta < 0:
            alpha = min(alpha, tau / (-dta))
        if dka < 0:
            alpha = min(alpha, kappa / (-dka))
        mu_aff = (
            (x + alpha * dxa) @ (s + alpha * dsa)
            + (tau + alpha * dta) * (kappa + alpha * dka)
        ) / nu
        sigma = min(1.0, max(0.0, (mu_aff / mu) ** 3))

        # combined corrector direction; feasibility targets shrink by the same
        # factor (1 - sigma) as complementarity, which keeps tau from
        # collapsing along the homogeneous ray
        smu = sigma * mu
        eta = 1.0 - sigma
        d_blocks = []
        for l, db, ds_ in zip(lam_blocks, xa_b, sa_b):
            numer = smu * np.eye(l.size) - np.diag(l * l) - (db @ ds_ + ds_ @ db) / 2
            d_blocks.append(2.0 * numer / (l[:, None] + l[None, :]))
        d_o = (smu - lam_o * lam_o - xa_o * sa_o) / lam_o if lam_o.size else lam_o
        d_tk = smu - tau * kappa - dta * dka
        dx, dy, ds, dt, dk = direction(d_blocks, d_o, d_tk, eta * rp, eta * rd, eta * rg)

        xb_b, xb_o = W.scale_x(dx)
        sb_b, sb_o = W.scale_s(ds)
        alpha = 1.0 / step_frac
        for l, db, ds_ in zip(lam_blocks, xb_b, sb_b):
            alpha = min(alpha, _max_step_sym(l, db), _max_step_sym(l, ds_))
        alpha = min(alpha, _max_step_vec(lam_o, xb_o), _max_step_vec(lam_o, sb_o))
        if dt < 0:
            alpha = min(alpha, tau / (-dt))
        if dk < 0:
            alpha = min(alpha, kappa / (-dk))
        alpha *= step_frac
        alpha = min(alpha, 1.0)

        # scaled-space step bounds can be slightly optimistic at tiny mu;
        # backtrack until the new iterate is strictly inside the cone
        for _ in range(40):
            xn = x + alpha * dx
            sn = s + alpha * ds
            tn = tau + alpha * dt
            kn = kappa + alpha * dk
            if tn > 0 and kn > 0 and _in_cone(dims, xn) and _in_cone(dims, sn):
                break
            alpha *= 0.5
        else:
            break
        if alpha < 1e-13:
            break  # numerically stalled; report the best iterate seen

        x, s, tau, kappa = xn, sn, tn, kn
        y = y + alpha * dy

    assert best is not None
    if acceptable(best):
        best.status = "optimal"
    return best


def _in_cone(dims: ConeDims, v: np.ndarray) -> bool:
    sls = dims.slices()
    for n, sl in zip(dims.psd, sls):
        try:
            np.linalg.cholesky(smat(v[sl], n))
        except np.linalg.LinAlgError:
            return False
    return bool(np.all(v[sls[-1]] > 0.0))


def _schur_complement(
    A: np.ndarray, W: _Scaling, congruences: Sequence[np.ndarray] | None
) -> np.ndarray:
    """M = A W A^T, W the NT scaling of the full cone.

    The leading svec_dim(n_0) rows declared by congruences contribute
    sum_b symkron(V_b G_b V_b^T) to their own block; every other row is
    scaled by W and multiplied out densely against all of A.
    """
    nc = 0 if congruences is None else svec_dim(W.dims.psd[0])
    p = A.shape[0]
    M = np.empty((p, p))
    M[:, nc:] = A @ W.apply_w(A[nc:]).T
    M[nc:, :nc] = M[:nc, nc:].T
    if nc:
        mcc = M[:nc, :nc]
        mcc[...] = 0.0
        for v, g in zip(congruences, W.G):
            mcc += symkron(v @ g @ v.T)
    return (M + M.T) / 2


def _cholesky_factor(M: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of M (LAPACK), with a diagonal jitter if M is
    numerically singular."""
    L, info = dpotrf(M, lower=1)
    if info != 0:
        p = M.shape[0]
        L, info = dpotrf(M + (1e-12 * np.trace(M) / p) * np.eye(p), lower=1)
        if info != 0:
            raise np.linalg.LinAlgError("Schur complement is not positive definite")
    return L


def _chol_solve(
    L: np.ndarray, schur_op: Callable[[np.ndarray], np.ndarray], rhs: np.ndarray
) -> np.ndarray:
    """Solve A W A^T z = rhs from the Cholesky factor of the assembled M,
    with iterative refinement.

    The Schur complement becomes badly conditioned near convergence, and the
    assembled M differs from the operator z -> A W(A^T z) by rounding. Two
    refinement sweeps whose residuals apply the operator itself keep the
    Newton directions consistent with the A that the residuals use.
    """
    z = dpotrs(L, rhs, lower=1)[0]
    for _ in range(2):
        z = z + dpotrs(L, rhs - schur_op(z), lower=1)[0]
    return z
