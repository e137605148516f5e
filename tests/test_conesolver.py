import numpy as np
import pytest

from approxud import sdp
from approxud.conesolver import (
    ConeDims,
    _schur_complement,
    _Scaling,
    smat,
    solve_conelp,
    svec,
    svec_dim,
    symkron,
)
from approxud.qmath import StateEnsemble, random_density_matrix

RNG = np.random.default_rng(7)


def random_sym(n, rng):
    m = rng.standard_normal((n, n))
    return (m + m.T) / 2


class TestPacking:
    def test_svec_inner_product(self):
        a = random_sym(5, RNG)
        b = random_sym(5, RNG)
        assert svec(a) @ svec(b) == pytest.approx(np.sum(a * b), abs=1e-12)

    def test_smat_roundtrip(self):
        a = random_sym(6, RNG)
        np.testing.assert_allclose(smat(svec(a), 6), a, atol=1e-14)

    def test_symkron_matches_congruence(self):
        g = random_sym(4, RNG) + 4 * np.eye(4)
        x = random_sym(4, RNG)
        np.testing.assert_allclose(symkron(g) @ svec(x), svec(g @ x @ g), atol=1e-10)
        # a rectangular V is the map X -> V X V^T between orders 3 and 6
        v = RNG.standard_normal((6, 3))
        x = random_sym(3, RNG)
        assert symkron(v).shape == (21, 6)
        np.testing.assert_allclose(symkron(v) @ svec(x), svec(v @ x @ v.T), atol=1e-12)
        np.testing.assert_array_equal(symkron(np.eye(5)), np.eye(15))

    def test_batched_packing(self):
        stack = np.stack([random_sym(4, RNG) for _ in range(3)])
        packed = svec(stack)
        np.testing.assert_array_equal(packed[1], svec(stack[1]))
        np.testing.assert_array_equal(smat(packed, 4), stack)


def _captured_problem(ens, eps, monkeypatch):
    """The conic problem solve_min_fail hands to the solver."""
    seen = {}

    def capture(c, a, b, dims, **kwargs):
        seen.update(a=a, dims=dims, congruences=kwargs["congruences"])
        return solve_conelp(c, a, b, dims, **kwargs)

    monkeypatch.setattr(sdp, "solve_conelp", capture)
    sdp.solve_min_fail(ens, sdp.ToleranceVector(np.asarray(eps), "R"))
    return seen["a"], seen["dims"], seen["congruences"]


def _random_interior_point(dims, rng):
    parts = []
    for n in dims.psd:
        g = rng.standard_normal((n, n))
        parts.append(svec(g @ g.T + 0.1 * np.eye(n)))
    parts.append(rng.uniform(0.1, 2.0, dims.nonneg))
    return np.concatenate(parts)


class TestSchurAssembly:
    @pytest.mark.parametrize("d, ranks, eps", [
        (3, (1, 2), (0.0, 0.1)),                # one tolerance row, one reduced block
        (4, (2, 1, 2), (0.0, 0.05, 0.2)),       # two tolerance rows, reduced blocks
        (4, (1, 2, 1, 2), (0.0, 0.1, 0.1, 0.3)),  # three tolerance rows
    ])
    def test_structured_matches_dense(self, d, ranks, eps, monkeypatch):
        rng = np.random.default_rng(sum(ranks) + d)
        states = tuple(random_density_matrix(d, rng, rank=r) for r in ranks)
        ens = StateEnsemble(states, rng.dirichlet(np.ones(len(ranks))))
        a, dims, congruences = _captured_problem(ens, eps, monkeypatch)
        n0 = dims.psd[0]
        # facial reduction left some conclusive blocks rank-deficient
        assert any(v.shape[1] < n0 for v in congruences)
        assert a.shape[0] - svec_dim(n0) == sum(e > 0 for e in eps)
        for _ in range(3):
            w = _Scaling(dims, _random_interior_point(dims, rng), _random_interior_point(dims, rng))
            dense_w = np.zeros((dims.packed_len, dims.packed_len))
            sls = dims.slices()
            for g, sl in zip(w.G, sls):
                dense_w[sl, sl] = symkron(g)
            dense_w[sls[-1], sls[-1]] = np.diag(w.w2)
            dense = a @ dense_w @ a.T
            for cong in (congruences, None):
                m = _schur_complement(a, w, cong)
                assert np.linalg.norm(m - dense) <= 1e-10 * np.linalg.norm(dense)

    def test_congruences_must_match_blocks(self):
        dims = ConeDims(psd=(2, 2))
        a = np.hstack([np.eye(3), np.eye(3)])
        with pytest.raises(ValueError):
            solve_conelp(np.zeros(6), a, svec(np.eye(2)), dims, congruences=[np.eye(2)])
        res = solve_conelp(
            np.concatenate([svec(np.diag([1.0, 2.0])), svec(np.diag([2.0, 1.0]))]),
            a, svec(np.eye(2)), dims, congruences=[np.eye(2), np.eye(2)],
        )
        assert res.status == "optimal"
        assert res.pcost == pytest.approx(2.0, abs=1e-7)


class TestSolver:
    def test_tiny_lp(self):
        res = solve_conelp(
            np.array([1.0, 0.0]),
            np.array([[1.0, 1.0]]),
            np.array([1.0]),
            ConeDims(psd=(), nonneg=2),
        )
        assert res.status == "optimal"
        assert res.pcost == pytest.approx(0.0, abs=1e-8)

    def test_ground_state_energy(self):
        n = 6
        c_mat = random_sym(n, RNG)
        res = solve_conelp(
            svec(c_mat),
            svec(np.eye(n))[None, :],
            np.array([1.0]),
            ConeDims(psd=(n,)),
        )
        assert res.status == "optimal"
        assert res.pcost == pytest.approx(np.linalg.eigvalsh(c_mat).min(), abs=1e-7)

    def test_weak_duality_and_kkt_on_random_problems(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            dims = ConeDims(psd=(3, 2), nonneg=2)
            n = dims.packed_len
            # build a problem with known strictly feasible primal/dual points
            x0 = np.concatenate(
                [
                    svec(random_sym(3, rng) @ np.eye(3) * 0 + np.eye(3)),
                    svec(np.eye(2)),
                    np.ones(2),
                ]
            )
            a = rng.standard_normal((4, n))
            b = a @ x0
            c = rng.standard_normal(n) * 0.1
            # make c dual-feasible-shiftable: add a PSD offset
            c = c + 2.0 * x0 / np.linalg.norm(x0)
            res = solve_conelp(c, a, b, dims)
            assert res.status == "optimal", res
            assert abs(res.pcost - res.dcost) < 1e-6
            assert np.linalg.norm(a @ res.x - b) < 1e-6
            # primal solution in the cone
            for sz, sl in zip(dims.psd, dims.slices()):
                assert np.linalg.eigvalsh(smat(res.x[sl], sz)).min() > -1e-8
            assert np.all(res.x[dims.slices()[-1]] > -1e-8)

    def test_infeasible_problem_certified(self):
        # x1 + x2 = -1 with x >= 0 has no solution
        res = solve_conelp(
            np.array([1.0, 1.0]),
            np.array([[1.0, 1.0]]),
            np.array([-1.0]),
            ConeDims(psd=(), nonneg=2),
        )
        assert res.status == "infeasible-certified"

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            solve_conelp(
                np.zeros(3),
                np.zeros((1, 2)),
                np.zeros(1),
                ConeDims(psd=(), nonneg=2),
            )
