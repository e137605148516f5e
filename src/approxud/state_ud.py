"""Approximate unambiguous discrimination of binary state ensembles.

Closed-form machinery for a pair of pure states with overlap xi and priors
(p, q): the minimum inconclusive probability under rescaled (conclusive-
conditioned) error tolerances, its analytic lower bound, the conversion
between rescaled and un-rescaled tolerances, and two families of explicit
measurement strategies for noisy (mixed) pairs that give upper bounds.

The pure-pair optimum is parameterized by two abstention angles
(beta, delta) in [0, pi/2]: the protocol first splits off an inconclusive
branch with amplitudes sin(beta), sin(delta) per hypothesis, then measures
the conclusive branch projectively. Existence of the conclusive measurement
constrains the residual overlap of the conclusive branch to a window whose
upper endpoint is

    w(eps_p, eps_q) = sqrt(eps_p (1-eps_q)) + sqrt(eps_q (1-eps_p)),

so feasible angles satisfy

    sin(beta) sin(delta) + w * cos(beta) cos(delta) >= xi.

(The printed window also has a lower endpoint |sqrt(eps_p(1-eps_q)) -
sqrt(eps_q(1-eps_p))|, but a conclusive measurement exists for every
residual overlap below w, so the lower endpoint never binds; enforcing it
would make the optimum non-monotone in the tolerances. When
eps_p + eps_q >= 1 every residual overlap is admissible and the failure
probability is zero.) The objective p sin^2(beta) + q sin^2(delta) is
minimized on that set.

Un-rescaled tolerances go through one inversion, invert_unrescaled_lanes,
which bisects many lanes in lockstep and rounds to the side its caller
needs: "cover" for lower bounds (the channel bound, the state-mixed lower
bound), "achieve" for the erasure strategy. invert_unrescaled is its
one-lane call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import optimize

from .qmath import (
    DensityMatrix,
    StateEnsemble,
    fidelity,
    projector,
    trace_norm,
)
from .sdp import Povm, ToleranceVector

PRIOR_TOL = 1e-12


class VacuousBoundError(ValueError):
    """Raised when a continuity bound degenerates to no information."""


@dataclass(frozen=True)
class BinaryPureProblem:
    """Pure-pair instance: overlap, priors and rescaled tolerances."""

    xi: float
    prior_p: float
    prior_q: float
    eps_p: float
    eps_q: float

    def __post_init__(self) -> None:
        if not 0.0 < self.xi < 1.0:
            raise ValueError("overlap must lie strictly between 0 and 1")
        if self.prior_p < 0 or self.prior_q < 0 or abs(self.prior_p + self.prior_q - 1.0) > PRIOR_TOL:
            raise ValueError("priors must be nonnegative and sum to 1")
        for e in (self.eps_p, self.eps_q):
            if not 0.0 <= e <= 1.0:
                raise ValueError("tolerances must lie in [0, 1]")


@dataclass(frozen=True)
class BinaryPureSolution:
    p_fail: float
    beta: float
    delta: float
    eps_minus: float
    eps_plus: float


@dataclass(frozen=True)
class OperatingPoint:
    """A (tolerance, inconclusive probability) point of some strategy."""

    eps: ToleranceVector
    p_fail: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_fail <= 1.0 + 1e-12:
            raise ValueError("p_fail must lie in [0, 1]")


def overlap_window(eps_p: float, eps_q: float) -> tuple[float, float]:
    """Endpoints of the residual-overlap window for given tolerances."""
    for e in (eps_p, eps_q):
        if not 0.0 <= e <= 1.0:
            raise ValueError("tolerances must lie in [0, 1]")
    a = np.sqrt(eps_p * (1.0 - eps_q))
    b = np.sqrt(eps_q * (1.0 - eps_p))
    return float(abs(a - b)), float(a + b)


def _window_top(eps_p, eps_q):
    """Effective top w of the residual-overlap window, for scalars or arrays.

    The upper endpoint of overlap_window, except that once eps_p + eps_q >= 1
    every residual overlap is admissible and w is 1.
    """
    top = np.sqrt(eps_p * (1.0 - eps_q)) + np.sqrt(eps_q * (1.0 - eps_p))
    # top <= 1, so the maximum with the indicator is 1 exactly where
    # eps_p + eps_q >= 1 and top elsewhere
    return np.maximum(top, eps_p + eps_q >= 1.0)


def _equal_prior_pf(xi, w):
    """Equal-prior optimum 1 - (1 - xi)/(1 - w), for window tops w < xi."""
    return 1.0 - (1.0 - xi) / (1.0 - w)


def _curve_delta(beta: np.ndarray, xi, w: np.ndarray) -> np.ndarray:
    """Smallest delta with sin(b)sin(d) + w cos(b)cos(d) = xi.

    Defined for beta at or above the surface's start, where
    hypot(sin b, w cos b) >= xi up to rounding.
    """
    sb, cb = np.sin(beta), np.cos(beta)
    r = np.hypot(sb, w * cb)
    delta = np.arcsin(np.minimum(xi / r, 1.0)) - np.arctan2(w * cb, sb)
    return np.clip(delta, 0.0, np.pi / 2)


def _surface_value(beta: np.ndarray, xi, w: np.ndarray, p: float, q: float) -> np.ndarray:
    return p * np.sin(beta) ** 2 + q * np.sin(_curve_delta(beta, xi, w)) ** 2


_SCAN = 257
_ZOOM = 8
_ZOOM_ROUNDS = 8
_ZOOM_OFFSETS = np.linspace(-1.0, 1.0, 2 * _ZOOM + 1)
_CHUNK = 1024


def _surface_search(xi, w, p: float, q: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least p sin^2(b) + q sin^2(d) on the active surface, per window top.

    For w < xi the constraint binds at the optimum, so delta is the smallest
    root of sin(b)sin(d) + w cos(b)cos(d) = xi and the search runs over beta
    alone, from the first beta with a root up to pi/2. A 257-point scan
    finds the best point; each of 8 zoom rounds rescans its neighbourhood
    (one scan step either side) at an 8 times finer step, so the final step
    is about 4e-10. Points are processed in chunks of 1024 window tops.
    xi is one overlap, or one per window top. Returns (values, betas,
    deltas), each shaped like w.
    """
    w = np.asarray(w, dtype=float)
    shape = w.shape
    w = w.reshape(-1, 1)
    # xi enters only through products and quotients, so a broadcast scalar
    # gives the same bits as the scalar itself
    xi = np.broadcast_to(np.asarray(xi, dtype=float), shape).reshape(-1, 1)
    s2min = (xi * xi - w * w) / (1.0 - w * w)
    lo = np.arcsin(np.sqrt(np.clip(s2min, 0.0, 1.0)))
    t = np.linspace(0.0, 1.0, _SCAN)
    betas = np.empty(w.shape[0])
    for start in range(0, w.shape[0], _CHUNK):
        sl = slice(start, start + _CHUNK)
        lo_c, w_c, xi_c = lo[sl], w[sl], xi[sl]
        rows = np.arange(lo_c.shape[0])
        points = lo_c + (np.pi / 2 - lo_c) * t
        step = (np.pi / 2 - lo_c) / (_SCAN - 1)
        for _ in range(_ZOOM_ROUNDS + 1):
            k = np.argmin(_surface_value(points, xi_c, w_c, p, q), axis=1)
            best = points[rows, k][:, None]
            points = np.clip(best + step * _ZOOM_OFFSETS, lo_c, np.pi / 2)
            step = step / _ZOOM
        betas[sl] = best[:, 0]
    deltas = _curve_delta(betas, xi[:, 0], w[:, 0])
    vals = p * np.sin(betas) ** 2 + q * np.sin(deltas) ** 2
    return vals.reshape(shape), betas.reshape(shape), deltas.reshape(shape)


def _pf_values(xi, w, p: float, q: float):
    """Pure-pair values at window tops w < xi: the closed form at equal
    priors, else the surface search."""
    if abs(p - q) < 1e-12:
        return _equal_prior_pf(xi, w)
    return _surface_search(xi, w, p, q)[0]


def solve_pure_pair(problem: BinaryPureProblem) -> BinaryPureSolution:
    """Minimum inconclusive probability for a pure pair, rescaled flavor.

    Closed form at equal priors, else the surface search. At equal priors
    the angles beta = delta = arcsin(sqrt(p_fail)) meet the constraint with
    equality. Returns the always-abstain point only when nothing better is
    feasible.
    """
    xi, p, q = problem.xi, problem.prior_p, problem.prior_q
    e_minus, e_plus = overlap_window(problem.eps_p, problem.eps_q)
    w = _window_top(problem.eps_p, problem.eps_q)
    if w >= xi:
        return BinaryPureSolution(0.0, 0.0, 0.0, e_minus, e_plus)
    if abs(p - q) < 1e-12:
        pf = float(_equal_prior_pf(xi, w))
        beta = delta = float(np.arcsin(np.sqrt(pf)))
    else:
        pf, beta, delta = (float(v) for v in _surface_search(xi, w, p, q))
    if pf >= 1.0 - 1e-12:
        pf, beta, delta = 1.0, np.pi / 2, np.pi / 2
    return BinaryPureSolution(pf, beta, delta, e_minus, e_plus)


def pure_pair_pf(xi: float, eps_p: float, eps_q: float, prior_p: float = 0.5, prior_q: float = 0.5) -> float:
    """Value-only form of solve_pure_pair."""
    return solve_pure_pair(BinaryPureProblem(xi, prior_p, prior_q, eps_p, eps_q)).p_fail


def pure_pair_pf_batch(
    xi,
    eps_p: np.ndarray,
    eps_q: np.ndarray,
    prior_p: float = 0.5,
    prior_q: float = 0.5,
) -> np.ndarray:
    """Vectorized pure-pair values over arrays of tolerance pairs, at one
    overlap xi or one per pair.

    The value of solve_pure_pair without validating the problem or building
    the solution; it skips only the snap of values within 1e-12 of 1 to 1.
    """
    ep = np.asarray(eps_p, dtype=float).reshape(-1)
    eq = np.asarray(eps_q, dtype=float).reshape(-1)
    xi = np.asarray(xi, dtype=float)
    w = _window_top(ep, eq)
    live = w < xi
    if live.all():  # the common case in a bisection: no masking needed
        out = _pf_values(xi, w, prior_p, prior_q)
    else:
        out = np.zeros(ep.shape)
        if live.any():
            out[live] = _pf_values(xi[live] if xi.ndim else xi, w[live], prior_p, prior_q)
    # the same as np.clip, at half its call overhead on the short arrays of
    # the bisection lanes
    return np.minimum(np.maximum(out, 0.0), 1.0)


def _pf_fast(xi: float, eps_p: float, eps_q: float, prior_p: float, prior_q: float) -> float:
    """One-point view of pure_pair_pf_batch.

    Nothing in the library calls it: benchmark/tracing.py wraps it by name
    (as channel_ud._pf_fast), and it goes once the library records its own
    spans (ROADMAP item 1).
    """
    return float(pure_pair_pf_batch(xi, eps_p, eps_q, prior_p, prior_q)[0])


def analytic_pf_bound(
    xi: float, eps_p: float, eps_q: float, prior_p: float = 0.5, prior_q: float = 0.5
) -> float:
    """Closed-form lower bound 2 sqrt(pq) times the equal-prior optimum.

    Tight at equal priors. When eps_p + eps_q > 1 the overlap window is
    vacuous and the bound is zero; the singular boundary eps_p + eps_q = 1
    (window endpoint 1) is rejected.
    """
    if not 0.0 < xi < 1.0:
        raise ValueError("overlap must lie strictly between 0 and 1")
    if overlap_window(eps_p, eps_q)[1] >= 1.0 - 1e-15:
        raise ValueError("tolerance window endpoint reaches 1; bound undefined")
    w = _window_top(eps_p, eps_q)
    if w >= xi:
        return 0.0
    return float(2.0 * np.sqrt(prior_p * prior_q) * _equal_prior_pf(xi, w))


def rescaled_to_unrescaled(eps_r: ToleranceVector, p_fail: float) -> ToleranceVector:
    """Map rescaled tolerances to un-rescaled ones: eps_U = (1 - p_fail) eps_R."""
    if eps_r.flavor != "R":
        raise ValueError("expected a rescaled-flavor tolerance vector")
    if not 0.0 <= p_fail < 1.0:
        raise ValueError("p_fail must lie in [0, 1); the map degenerates at 1")
    return ToleranceVector((1.0 - p_fail) * eps_r.values, "U")


class UnrescaledPoint(NamedTuple):
    """A pure-pair value at un-rescaled tolerances and its rescaled point."""

    p_fail: float
    eps_r: np.ndarray
    vacuous: bool = False


class UnrescaledLanes(NamedTuple):
    """invert_unrescaled_lanes per lane: values (L,), rescaled points (L, 2)
    and vacuous flags (L,)."""

    p_fail: np.ndarray
    eps_r: np.ndarray
    vacuous: np.ndarray


def invert_unrescaled_lanes(
    xi,
    priors: tuple[float, float],
    eps_u,
    widening=(0.0, 0.0),
    side: str = "cover",
) -> UnrescaledLanes:
    """Pure-pair values at un-rescaled tolerances, rounded to one side, for
    many lanes at once.

    A rescaled point eps_R with value pf implies the un-rescaled tolerance
    (1 - pf) eps_R - widening. pf depends on eps_R only through the window
    top w, falls as w grows, and w grows with each tolerance; so the point
    where the implied tolerance meets eps_u lies on the ray through
    c = eps_u + widening. Each lane bisects its ray and stops once the
    values at its ends differ by at most 1e-13, or the ends are adjacent
    floats, or after 200 steps. side="cover" returns the end whose
    float-computed implied tolerance is at least eps_u in each component,
    with no slack, and whose value is at most the crossing value (a lower
    bound). side="achieve" returns the end whose implied tolerance is at most
    eps_u, with a value at least the crossing value (a strategy's upper
    bound). c = 0 returns eps_R = 0 exactly; a request that the ray's end
    (value 0) does not cover comes back vacuous, with value 0 and eps_R = 0.

    xi has shape (L,), eps_u and widening (L, 2); any of them broadcasts, and
    the priors and side are shared. The lanes run in lockstep: each step
    probes every lane still bisecting in one pure_pair_pf_batch call. A lane
    takes the same steps as it would alone, so its result does not depend
    on the other lanes.
    """
    if side not in ("cover", "achieve"):
        raise ValueError("side must be 'cover' or 'achieve'")
    xi, req, wid = np.broadcast_arrays(
        np.asarray(xi, dtype=float).reshape(-1, 1),
        np.asarray(eps_u, dtype=float).reshape(-1, 2),
        np.asarray(widening, dtype=float).reshape(-1, 2),
    )
    xi = xi[:, 0]
    if not np.all((0.0 <= req) & (req <= 1.0)):
        raise ValueError("requested tolerances must lie in [0, 1]")
    if not (np.all((0.0 <= xi) & (xi <= 1.0)) and np.all(wid >= 0.0)):
        raise ValueError("overlap must lie in [0, 1] and widening be nonnegative")
    p, q = priors
    cover = side == "cover"
    n = xi.shape[0]
    # t = 0 lies before the crossing on either side
    pf_out = pure_pair_pf_batch(xi, np.zeros(n), np.zeros(n), p, q)
    eps_r = np.zeros((n, 2))
    vacuous = np.zeros(n, dtype=bool)
    c = req + wid
    c_max = c.max(axis=1)
    lanes = np.flatnonzero(c_max > 0.0)  # the others keep eps_R = 0 exactly
    d = c[lanes] / c_max[lanes, None]
    # one column per running lane: overlap, ray direction, request, widening
    xi_l, d_p, d_q = xi[lanes], d[:, 0], d[:, 1]
    req_p, req_q, wid_p, wid_q = req[lanes, 0], req[lanes, 1], wid[lanes, 0], wid[lanes, 1]

    def probe(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Whether each running lane's point at t lies past the crossing, and
        its value."""
        a, b = t * d_p, t * d_q
        pf = pure_pair_pf_batch(xi_l, a, b, p, q)
        imp_p, imp_q = (1.0 - pf) * a - wid_p, (1.0 - pf) * b - wid_q
        if cover:
            return (imp_p >= req_p) & (imp_q >= req_q), pf
        return ~((imp_p <= req_p) & (imp_q <= req_q)), pf

    def finish(stop: np.ndarray) -> None:
        """Write out the stopped lanes: the end past the crossing on the
        cover side, the end before it on the achieve side."""
        t, pf = (hi, pf_hi) if cover else (lo, pf_lo)
        done = lanes[stop]
        pf_out[done] = pf[stop]
        eps_r[done, 0], eps_r[done, 1] = t[stop] * d_p[stop], t[stop] * d_q[stop]

    # lo stays before the crossing, hi past it
    lo, hi, pf_lo = np.zeros(lanes.size), np.ones(lanes.size), pf_out[lanes]
    past, pf_hi = probe(hi)
    if cover:  # not even the ray's end covers
        vacuous[lanes[~past]] = True
        pf_out[lanes[~past]] = 0.0
    else:  # every point of the ray achieves, its end too
        np.copyto(lo, hi, where=~past)
        np.copyto(pf_lo, pf_hi, where=~past)
        finish(~past)
    cols = (lanes, xi_l, d_p, d_q, req_p, req_q, wid_p, wid_q, lo, hi, pf_lo, pf_hi)
    lanes, xi_l, d_p, d_q, req_p, req_q, wid_p, wid_q, lo, hi, pf_lo, pf_hi = (a[past] for a in cols)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        run = (pf_lo - pf_hi > 1e-13) & (lo < mid) & (mid < hi)
        if not run.all():
            finish(~run)
            cols = (lanes, xi_l, d_p, d_q, req_p, req_q, wid_p, wid_q, lo, hi, pf_lo, pf_hi, mid)
            lanes, xi_l, d_p, d_q, req_p, req_q, wid_p, wid_q, lo, hi, pf_lo, pf_hi, mid = (
                a[run] for a in cols
            )
        if not lanes.size:
            break
        past, pf = probe(mid)
        np.copyto(hi, mid, where=past)
        np.copyto(pf_hi, pf, where=past)
        np.copyto(lo, mid, where=~past)
        np.copyto(pf_lo, pf, where=~past)
    finish(np.ones(lanes.size, dtype=bool))  # lanes that used every step
    return UnrescaledLanes(pf_out, eps_r, vacuous)


def invert_unrescaled(
    xi: float,
    priors: tuple[float, float],
    eps_u: tuple[float, float],
    widening: tuple[float, float] = (0.0, 0.0),
    side: str = "cover",
) -> UnrescaledPoint:
    """Pure-pair value at un-rescaled tolerances, rounded to one side: the
    one-lane call of invert_unrescaled_lanes, which documents the sides."""
    lanes = invert_unrescaled_lanes(xi, priors, eps_u, widening, side)
    return UnrescaledPoint(float(lanes.p_fail[0]), lanes.eps_r[0], bool(lanes.vacuous[0]))


def helstrom_tangency(xi: float, prior_p: float = 0.5, prior_q: float = 0.5) -> tuple[float, float]:
    """Tolerance pair of least prior-weighted sum with zero failure probability.

    Zero failure first becomes feasible on the curve w(eps_p, eps_q) = xi;
    minimizing p eps_p + q eps_q along it recovers the minimum-error point.
    Equal priors give the closed form eps = (1 - sqrt(1 - xi^2)) / 2.
    """
    if not 0.0 < xi < 1.0:
        raise ValueError("overlap must lie strictly between 0 and 1")
    if abs(prior_p - prior_q) < 1e-12:
        e = (1.0 - np.sqrt(1.0 - xi * xi)) / 2.0
        return float(e), float(e)

    def eq_on_curve(ep: float) -> float:
        f = lambda eq: overlap_window(ep, eq)[1] - xi
        return float(optimize.brentq(f, 0.0, 1.0 - ep - 1e-12, xtol=1e-14))

    res = optimize.minimize_scalar(
        lambda ep: prior_p * ep + prior_q * eq_on_curve(ep),
        bounds=(1e-12, xi * xi - 1e-12),
        method="bounded",
        options={"xatol": 1e-12},
    )
    ep = float(res.x)
    return ep, eq_on_curve(ep)


def helstrom_binary(ens: StateEnsemble) -> float:
    """Minimum-error probability for two hypotheses: (1 - ||P1 r1 - P2 r2||_1)/2."""
    if ens.m != 2:
        raise ValueError("Helstrom closed form applies to two hypotheses only")
    diff = ens.priors[0] * ens.states[0].mat - ens.priors[1] * ens.states[1].mat
    return float((1.0 - trace_norm(diff)) / 2.0)


def fidelity_lower_bounds(
    rho_p: DensityMatrix,
    rho_q: DensityMatrix,
    priors: tuple[float, float],
    eps_r: tuple[float, float],
) -> tuple[float, float]:
    """Two lower bounds on the rescaled-flavor failure probability of a mixed
    pair: the pure-pair optimum and its analytic bound, both evaluated at the
    fidelity of the pair (purification + data processing). The first is tight
    for pure inputs, and the two coincide at equal priors.
    """
    p, q = priors
    f = fidelity(rho_p, rho_q)
    f = min(max(f, 1e-12), 1.0 - 1e-12)
    lb1 = pure_pair_pf(f, eps_r[0], eps_r[1], p, q)
    try:
        lb2 = analytic_pf_bound(f, eps_r[0], eps_r[1], p, q)
    except ValueError:
        lb2 = 0.0
    return lb1, lb2


def continuity_interval(
    eps_u: ToleranceVector,
    delta: np.ndarray,
    priors: np.ndarray,
    pf_reference_plus: float,
    pf_reference_minus: float,
) -> tuple[float, float]:
    """Two-sided continuity bracket for the un-rescaled failure probability.

    Given per-state trace-norm deviations delta between two ensembles, and
    the reference-ensemble values at widened tolerance (eps + delta) and
    narrowed tolerance (eps - delta), the true value at eps lies within
    [reference_plus - P.delta/2, reference_minus + P.delta/2]. The narrowed
    evaluation requires eps >= delta componentwise.
    """
    if eps_u.flavor != "U":
        raise ValueError("continuity interval applies to un-rescaled tolerances")
    d = np.asarray(delta, dtype=float)
    if np.any(d < 0):
        raise ValueError("deviations must be nonnegative")
    if np.any(eps_u.values - d < -1e-15):
        raise ValueError("narrowed tolerances eps - delta must stay nonnegative")
    half = 0.5 * float(np.asarray(priors) @ d)
    return (
        max(0.0, pf_reference_plus - half),
        min(1.0, pf_reference_minus + half),
    )


def continuity_shifted_tolerance(
    eps_r: ToleranceVector,
    delta: np.ndarray,
    priors: np.ndarray,
    p_fail_reference: float,
    abstain_reference: np.ndarray | None = None,
) -> ToleranceVector:
    """Shifted rescaled tolerance for the one-sided continuity bound.

    The reference value at eps_r lower-bounds the perturbed-ensemble value at
    the shifted tolerance minus P.delta/2. Because the rescaled constraint
    conditions on the conclusive outcome per hypothesis, the shift for
    hypothesis k needs that hypothesis's abstention probability x_k under the
    reference measurement:

        eps'_k = (delta_k + eps_k (1 - x_k)) / (1 - x_k - delta_k / 2).

    Pass the reference measurement's abstentions for the tight shift; without
    them each x_k is capped by p_fail_reference / prior_k, which is always
    valid but looser. Components whose denominator closes are returned as the
    vacuous tolerance 1. Degenerates (raises) when
    p_fail_reference + P.delta/2 >= 1.
    """
    if eps_r.flavor != "R":
        raise ValueError("expected a rescaled-flavor tolerance vector")
    d = np.asarray(delta, dtype=float)
    pr = np.asarray(priors, dtype=float)
    if np.any(d < 0):
        raise ValueError("deviations must be nonnegative")
    half = 0.5 * float(pr @ d)
    if 1.0 - p_fail_reference - half <= 0.0:
        raise VacuousBoundError("continuity bound is vacuous: 1 - p_fail - P.delta/2 <= 0")
    if abstain_reference is None:
        with np.errstate(divide="ignore"):
            x = np.minimum(1.0, p_fail_reference / np.maximum(pr, 1e-300))
    else:
        x = np.asarray(abstain_reference, dtype=float)
        if np.any(x < -1e-12) or np.any(x > 1 + 1e-12):
            raise ValueError("reference abstentions must lie in [0, 1]")
    denom = 1.0 - x - d / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        shifted = np.where(
            denom > 0.0, (d + eps_r.values * (1.0 - x)) / np.maximum(denom, 1e-300), 1.0
        )
    return ToleranceVector(np.clip(shifted, 0.0, 1.0), "R")


# ---------------------------------------------------------------------------
# explicit mixed-state models and measurement strategies


def _bell_states() -> tuple[np.ndarray, np.ndarray]:
    plus = np.zeros(4, dtype=complex)
    plus[0] = plus[3] = 1.0 / np.sqrt(2.0)
    minus = plus.copy()
    minus[3] *= -1.0
    return plus, minus


def depolarizing_pair_states(eta: float) -> StateEnsemble:
    """Equal-prior pair of two-qubit states: eta * (Bell pair) + (1-eta) I/4."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    plus, minus = _bell_states()
    eye4 = np.eye(4, dtype=complex) / 4.0
    rho_p = eta * projector(plus) + (1.0 - eta) * eye4
    rho_m = eta * projector(minus) + (1.0 - eta) * eye4
    return StateEnsemble(
        (DensityMatrix.unchecked(rho_p), DensityMatrix.unchecked(rho_m)),
        np.array([0.5, 0.5]),
    )


def depolarizing_pair_fidelity(eta: float) -> float:
    """Fidelity of the depolarizing pair: (1 - eta + sqrt(1 + 2 eta - 3 eta^2))/2."""
    return float((1.0 - eta + np.sqrt(1.0 + 2.0 * eta - 3.0 * eta * eta)) / 2.0)


def depolarizing_pair_strategy(eta: float, a: float, theta: float) -> tuple[OperatingPoint, Povm]:
    """Two-step measurement for the depolarizing pair.

    First distinguish the Bell-spanned block from its complement; on the
    complement abstain with probability a, otherwise guess by the prior. On
    the Bell block use the projective family parameterized by theta in
    [pi/2, pi], whose inconclusive weight on |00> grows with theta.
    Returns the symmetric operating point and the assembled 4-d POVM.
    """
    if not 0.0 <= a <= 1.0:
        raise ValueError("abstention probability a must lie in [0, 1]")
    if not np.pi / 2 - 1e-12 <= theta <= np.pi + 1e-12:
        raise ValueError("theta must lie in [pi/2, pi]")
    half = theta / 2.0
    tan2 = np.tan(half) ** 2
    p_fail = a * (1.0 - eta) / 2.0 + (1.0 + eta) / 4.0 * (1.0 - 1.0 / tan2)
    p_err = (1.0 - eta) * (1.0 - a) / 4.0 + (
        (1.0 + eta) / 2.0 - eta * np.sin(theta)
    ) / (4.0 * np.sin(half) ** 2)

    e00 = np.zeros(4, dtype=complex)
    e00[0] = 1.0
    e11 = np.zeros(4, dtype=complex)
    e11[3] = 1.0
    phi_plus = np.cos(half) * e00 + np.sin(half) * e11
    phi_minus = np.cos(half) * e00 - np.sin(half) * e11
    pi_q = projector(e00) + projector(e11)
    pi_p = np.eye(4, dtype=complex) - pi_q
    stage0 = (1.0 - 1.0 / tan2) * projector(e00)
    stage_plus = projector(phi_plus) / (2.0 * np.sin(half) ** 2)
    stage_minus = projector(phi_minus) / (2.0 * np.sin(half) ** 2)
    povm = Povm(
        (
            a * pi_p + stage0,
            (1.0 - a) / 2.0 * pi_p + stage_plus,
            (1.0 - a) / 2.0 * pi_p + stage_minus,
        )
    )
    point = OperatingPoint(
        ToleranceVector(np.array([p_err, p_err]), "U"), float(np.clip(p_fail, 0.0, 1.0))
    )
    return point, povm


def erasure_pair_states(eta: float, xi: float) -> StateEnsemble:
    """Equal-prior pair mixed with a common orthogonal pure component.

    rho_x = eta |x><x| + (1-eta) |phi><phi| on a 3-dimensional space, where
    the pure pair has overlap xi and |phi> is orthogonal to both.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    if not 0.0 <= xi < 1.0:
        raise ValueError("overlap must lie in [0, 1)")
    p_vec = np.array([1.0, 0.0, 0.0], dtype=complex)
    q_vec = np.array([xi, np.sqrt(1.0 - xi * xi), 0.0], dtype=complex)
    phi = np.array([0.0, 0.0, 1.0], dtype=complex)
    rho_p = eta * projector(p_vec) + (1.0 - eta) * projector(phi)
    rho_q = eta * projector(q_vec) + (1.0 - eta) * projector(phi)
    return StateEnsemble(
        (DensityMatrix.unchecked(rho_p), DensityMatrix.unchecked(rho_q)),
        np.array([0.5, 0.5]),
    )


def erasure_pair_fidelity(eta: float, xi: float) -> float:
    """Fidelity of the erasure-mixture pair: eta xi + (1 - eta)."""
    return float(eta * xi + (1.0 - eta))


def erasure_pair_strategies(
    eta: float,
    xi: float,
    prior_p: float,
    prior_q: float,
    a_values,
    eps_inner,
) -> list[OperatingPoint]:
    """Two-step measurements for the erasure-mixture pair, over a grid.

    Project onto the common component first: on a hit abstain with
    probability a, else guess by the prior; on a miss run the optimal
    pure-pair measurement at un-rescaled inner tolerances eps_inner. The
    resulting overall point has

        p_fail = eta * pf_pure(eps_inner) + (1 - eta) a,
        eps_p  = (1 - eta)(1 - a) q + eta eps_inner_p   (and symmetrically).

    Returns the point of every a in a_values with every inner tolerance pair
    in eps_inner (shape (K, 2)), a-major. pf_pure does not depend on a, so
    the K inner tolerances are inverted once, in one lane call on the
    "achieve" side.
    """
    a_values = [float(a) for a in a_values]
    if not all(0.0 <= a <= 1.0 for a in a_values):
        raise ValueError("abstention probability a must lie in [0, 1]")
    inner = np.asarray(eps_inner, dtype=float).reshape(-1, 2)
    pf_inner = invert_unrescaled_lanes(xi, (prior_p, prior_q), inner, side="achieve").p_fail
    points = []
    for a in a_values:
        for (e_p, e_q), pf in zip(inner.tolist(), pf_inner.tolist()):
            p_fail = eta * pf + (1.0 - eta) * a
            eps_p = (1.0 - eta) * (1.0 - a) * prior_q + eta * e_p
            eps_q = (1.0 - eta) * (1.0 - a) * prior_p + eta * e_q
            points.append(OperatingPoint(
                ToleranceVector(np.array([eps_p, eps_q]), "U"), float(np.clip(p_fail, 0.0, 1.0))
            ))
    return points


def erasure_pair_strategy(
    eta: float,
    xi: float,
    prior_p: float,
    prior_q: float,
    a: float,
    eps_inner: tuple[float, float],
) -> OperatingPoint:
    """One point of erasure_pair_strategies."""
    return erasure_pair_strategies(eta, xi, prior_p, prior_q, [a], [eps_inner])[0]


# ---------------------------------------------------------------------------
# convex hulls of operating points in the symmetric (eps, p_fail) plane


def lower_convex_hull(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Lower convex hull of (eps, p_fail) points, sorted by eps."""
    pts = sorted(set((float(x), float(y)) for x, y in points))
    if len(pts) <= 2:
        return pts
    hull: list[tuple[float, float]] = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (pt[1] - y1) - (pt[0] - x1) * (y2 - y1) <= 0:
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def hull_value(hull: list[tuple[float, float]], eps: float) -> float:
    """Piecewise-linear evaluation of a lower hull, constant beyond the ends."""
    if not hull:
        raise ValueError("empty hull")
    xs = [p[0] for p in hull]
    ys = [p[1] for p in hull]
    return float(np.interp(eps, xs, ys))


def depolarizing_upper_hull(
    eta: float, n_a: int = 11, n_theta: int = 201
) -> list[tuple[float, float]]:
    """Upper-bound curve for the depolarizing pair: convex hull of the
    two-parameter strategy family together with the trivial point (0, 1)."""
    pts: list[tuple[float, float]] = [(0.0, 1.0)]
    for a in np.linspace(0.0, 1.0, n_a):
        for theta in np.linspace(np.pi / 2, np.pi - 1e-9, n_theta):
            point, _ = depolarizing_pair_strategy(eta, float(a), float(theta))
            pts.append((float(point.eps.values[0]), point.p_fail))
    return lower_convex_hull(pts)


def erasure_upper_hull(
    eta: float, xi: float, n_a: int = 11, n_inner: int = 201
) -> list[tuple[float, float]]:
    """Upper-bound curve for the erasure-mixture pair at equal priors:
    convex hull of the two-parameter strategy family plus (0, 1)."""
    pts: list[tuple[float, float]] = [(0.0, 1.0)]
    helstrom_inner = (1.0 - np.sqrt(1.0 - xi * xi)) / 2.0
    inner_grid = np.concatenate(
        [np.linspace(0.0, 1.2 * helstrom_inner, n_inner), [1.0]]
    )
    strategies = erasure_pair_strategies(
        eta, xi, 0.5, 0.5, np.linspace(0.0, 1.0, n_a), np.column_stack([inner_grid, inner_grid])
    )
    pts += [(float(point.eps.values[0]), point.p_fail) for point in strategies]
    return lower_convex_hull(pts)
