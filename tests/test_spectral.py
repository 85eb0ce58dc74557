import itertools

import numpy as np
import pytest

from hybridconsensus.errors import ConsensusError
from hybridconsensus.graphs import strong_components
from hybridconsensus.spectral import StochasticMatrix, left_eigenvector
from oracles import NotRankOne, edge_form, period_by_powers, sia_limit


P = edge_form  # the checked matrix whose dense array is `entries`


class TestCheckStochastic:
    def test_accepts_identity(self):
        assert P(np.eye(2)).n == 2

    def test_accepts_generic(self):
        P([[0.5, 0.5], [0.2, 0.8]])

    def test_rejects_bad_row_sum(self):
        with pytest.raises(ConsensusError, match=r"^row 0 violates stochasticity \(residual 1\.000e-01\)$"):
            P([[0.5, 0.6], [0.2, 0.8]])

    def test_rejects_negative_entry(self):
        with pytest.raises(ConsensusError, match=r"^row 0 violates stochasticity \(residual -2\.000e-01\)$"):
            P([[1.2, -0.2], [0.2, 0.8]])

    def test_reports_first_of_two_bad_rows(self):
        with pytest.raises(ConsensusError, match=r"^row 1 violates stochasticity \(residual 1\.000e-01\)$"):
            P([[1.0, 0.0, 0.0], [0.5, 0.6, 0.0], [-0.1, 0.6, 0.5]])

    @pytest.mark.parametrize("where", [(1, 1), (1, 0)], ids=["diagonal", "off-diagonal"])
    def test_rejects_nan_entry(self, where):
        # every comparison with NaN is false, so a NaN row used to pass
        entries = np.array([[1.0, 0.0], [0.5, 0.5]])
        entries[where] = np.nan
        with pytest.raises(ConsensusError, match=r"^row 1 violates stochasticity \(residual nan\)$"):
            P(entries)

    def test_negative_entry_reported_before_row_sum(self):
        # row 0 is negative and off-sum: its min entry is the reported value
        with pytest.raises(ConsensusError, match=r"^row 0 violates stochasticity \(residual -3\.000e-01\)$"):
            P([[0.9, -0.3], [0.2, 0.8]])


class TestEdgeForm:
    def arrays(self, M):
        return M.rows.tolist(), M.cols.tolist(), M.vals.tolist()

    def test_shuffled_entries_give_the_same_arrays(self):
        # each row's off-diagonal entries in column order, then its diagonal
        want = ([0, 0, 0, 1, 1, 1, 2], [1, 2, 0, 0, 2, 1, 2], [0.2, 0.3, 0.5, 0.25, 0.5, 0.25, 1.0])
        entries = [(1, 0, 0.25), (0, 2, 0.3), (1, 2, 0.5), (0, 1, 0.2)]
        for shuffled in itertools.permutations(entries):
            rows, cols, vals = (np.array(c) for c in zip(*shuffled))
            assert self.arrays(StochasticMatrix(np.array([0.5, 0.25, 1.0]), rows, cols, vals)) == want

    def test_zero_off_diagonal_entry_dropped(self):
        # 0.0, -0.0 and an entry that underflowed to zero are no entries
        vals = np.array([0.5, 0.0, -0.0, np.exp(-1e3)])
        M = StochasticMatrix(np.array([0.5, 1.0, 1.0]), np.array([0, 1, 2, 2]), np.array([1, 0, 0, 1]), vals)
        assert self.arrays(M) == ([0, 0, 1, 2], [1, 0, 1, 2], [0.5, 0.5, 1.0, 1.0])

    @pytest.mark.parametrize(
        "rows, cols, vals, message",
        [
            ([0], [0], [0.5], "^entries must name each pair once$"),
            ([0, 0], [1, 1], [0.25, 0.25], "^entries must name each pair once$"),
            ([0], [-1], [0.5], r"^vertex indices must lie in 0\.\.1$"),
            ([2], [1], [0.5], r"^vertex indices must lie in 0\.\.1$"),
            ([0.5], [1], [0.5], "^vertex indices must be integers$"),
            ([0], [1], [0.5, 0.5], "^rows, cols and vals must be of equal length$"),
        ],
        ids=["off-diagonal-at-i-i", "repeated-pair", "column-minus-1", "row-n", "fractional-row", "vals-longer"],
    )
    def test_rejects_bad_entries(self, rows, cols, vals, message):
        # each was accepted, or failed with a bare numpy error: an entry at (0, 0)
        # beside the diagonal was stepped as 1.0 x_0 but printed as 0.5, and a
        # repeated pair was stepped as 0.5 but printed as 0.25
        with pytest.raises(ConsensusError, match=message):
            StochasticMatrix(np.array([0.5, 1.0]), np.array(rows), np.array(cols), np.array(vals))

    def test_zero_diagonal_entry_kept(self):
        # every row ends with its diagonal: `run` sums each row in that order
        M = StochasticMatrix(np.array([0.0, 1.0]), np.array([0]), np.array([1]), np.array([1.0]))
        assert self.arrays(M) == ([0, 0, 1], [1, 0, 1], [1.0, 0.0, 1.0])
        assert M.n == 2


class TestSiaLimit:
    def test_symmetric_two_node(self):
        limit, nu = sia_limit(P([[0.8, 0.2], [0.2, 0.8]]))
        np.testing.assert_allclose(limit, 0.5 * np.ones((2, 2)), atol=1e-11)
        np.testing.assert_allclose(nu.nu, [0.5, 0.5], atol=1e-11)

    def test_identity_not_rank_one(self):
        with pytest.raises(NotRankOne):
            sia_limit(P(np.eye(2)))

    def test_leader_follower(self):
        # powers of [[1,0],[0.3,0.7]] converge to [[1,0],[1,0]]
        limit, nu = sia_limit(P([[1.0, 0.0], [0.3, 0.7]]))
        np.testing.assert_allclose(limit, [[1.0, 0.0], [1.0, 0.0]], atol=1e-11)
        np.testing.assert_allclose(nu.nu, [1.0, 0.0], atol=1e-11)

    def test_nu_is_fixed_point(self):
        _, nu = sia_limit(P([[0.6, 0.4, 0.0], [0.1, 0.8, 0.1], [0.0, 0.5, 0.5]]))
        assert nu.residual < 1e-10
        assert nu.nu.min() >= 0.0
        assert nu.nu.sum() == pytest.approx(1.0, abs=1e-12)

    def test_periodic_swap_not_rank_one(self):
        with pytest.raises(NotRankOne):
            sia_limit(P([[0.0, 1.0], [1.0, 0.0]]))


class TestLeftEigenvector:
    def test_doubly_stochastic_uniform(self):
        M = np.full((4, 4), 0.25)
        nu = left_eigenvector(edge_form(M)).nu
        np.testing.assert_allclose(nu, np.full(4, 0.25), atol=1e-12)

    def test_leader_follower_by_hand(self):
        # solving [[1,0.3],[0,0.7]] nu = nu gives nu = (1, 0)
        nu = left_eigenvector(P([[1.0, 0.0], [0.3, 0.7]])).nu
        np.testing.assert_allclose(nu, [1.0, 0.0], atol=1e-12)

    def test_block_identity_degenerate(self):
        assert left_eigenvector(P(np.eye(2))) is None

    @pytest.mark.parametrize("seed", range(8))
    def test_root_class_period_by_powers(self, seed):
        # the first r vertices are in layers 0..d-1 and mostly link one layer on,
        # so the root class's period divides d; few root rows keep a diagonal, and
        # the transient rows, which hear the class, all do
        rng = np.random.default_rng(seed)
        periods = set()
        for _ in range(60):
            r, t, d = int(rng.integers(2, 12)), int(rng.integers(0, 4)), int(rng.integers(1, 5))
            layer = rng.permutation(np.arange(r) % d)
            step = (layer[None, :] - layer[:, None]) % d == 1 % d
            a = rng.random((r + t, r + t)) < rng.uniform(0.3, 0.9)
            a[:r] &= np.pad(step | (rng.random((r, r)) < 0.02), ((0, 0), (0, t)))
            np.fill_diagonal(a, rng.random(r + t) < np.r_[np.full(r, 0.05), np.ones(t)])
            a[r:, rng.integers(0, r)] = True
            label, closed, _ = strong_components(r + t, *np.nonzero(a))
            if len(closed) != 1 or np.any(label[:r] != closed[0]):
                continue  # the first r vertices are not one closed class
            M = P(a / a.sum(axis=1, keepdims=True))
            want = period_by_powers(M, np.arange(r))
            assert left_eigenvector(M).period == want
            periods.add(want)
        assert len(periods) > 2


class TestOracleAgreement:
    def test_power_limit_matches_null_space(self):
        rng = np.random.default_rng(29)
        tol = 1e-12
        for _ in range(40):
            n = int(rng.integers(2, 8))
            raw = rng.uniform(0, 1, (n, n)) + np.eye(n)  # positive diagonal
            M = edge_form(raw / raw.sum(axis=1, keepdims=True))
            _, nu_power = sia_limit(M, tol=tol)
            nu_solve = left_eigenvector(M)
            assert np.max(np.abs(nu_power.nu - nu_solve.nu)) < 10 * tol

    def test_stochasticity_closed_under_products(self):
        rng = np.random.default_rng(31)
        raw = rng.uniform(0, 1, (5, 5)) + np.eye(5)
        M = raw / raw.sum(axis=1, keepdims=True)
        prod = np.eye(5)
        for _ in range(20):
            prod = prod @ M
            edge_form(prod)
