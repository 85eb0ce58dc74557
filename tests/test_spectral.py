import numpy as np
import pytest

from hybridconsensus import check_stochastic, left_eigenvector
from hybridconsensus.errors import DegenerateEigenspace, NotStochastic
from oracles import NotRankOne, edge_form, sia_limit


def P(entries):
    return check_stochastic(edge_form(entries))


class TestCheckStochastic:
    def test_accepts_identity(self):
        assert P(np.eye(2)).n == 2

    def test_accepts_generic(self):
        P([[0.5, 0.5], [0.2, 0.8]])

    def test_rejects_bad_row_sum(self):
        with pytest.raises(NotStochastic) as exc:
            P([[0.5, 0.6], [0.2, 0.8]])
        assert exc.value.row == 0
        assert exc.value.residual == pytest.approx(0.1)

    def test_rejects_negative_entry(self):
        with pytest.raises(NotStochastic):
            P([[1.2, -0.2], [0.2, 0.8]])

    def test_reports_first_of_two_bad_rows(self):
        with pytest.raises(NotStochastic) as exc:
            P([[1.0, 0.0, 0.0], [0.5, 0.6, 0.0], [-0.1, 0.6, 0.5]])
        assert exc.value.row == 1
        assert exc.value.residual == pytest.approx(0.1)

    @pytest.mark.parametrize("where", [(1, 1), (1, 0)], ids=["diagonal", "off-diagonal"])
    def test_rejects_nan_entry(self, where):
        # every comparison with NaN is false, so a NaN row used to pass
        entries = np.array([[1.0, 0.0], [0.5, 0.5]])
        entries[where] = np.nan
        with pytest.raises(NotStochastic) as exc:
            P(entries)
        assert exc.value.row == 1

    def test_negative_entry_reported_before_row_sum(self):
        # row 0 is negative and off-sum: its min entry is the reported value
        with pytest.raises(NotStochastic) as exc:
            P([[0.9, -0.3], [0.2, 0.8]])
        assert exc.value.row == 0
        assert exc.value.residual == -0.3


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
        nu = left_eigenvector(check_stochastic(edge_form(M))).nu
        np.testing.assert_allclose(nu, np.full(4, 0.25), atol=1e-12)

    def test_leader_follower_by_hand(self):
        # solving [[1,0.3],[0,0.7]] nu = nu gives nu = (1, 0)
        nu = left_eigenvector(P([[1.0, 0.0], [0.3, 0.7]])).nu
        np.testing.assert_allclose(nu, [1.0, 0.0], atol=1e-12)

    def test_block_identity_degenerate(self):
        with pytest.raises(DegenerateEigenspace):
            left_eigenvector(P(np.eye(2)))


class TestOracleAgreement:
    def test_power_limit_matches_null_space(self):
        rng = np.random.default_rng(29)
        tol = 1e-12
        for _ in range(40):
            n = int(rng.integers(2, 8))
            raw = rng.uniform(0, 1, (n, n)) + np.eye(n)  # positive diagonal
            M = check_stochastic(edge_form(raw / raw.sum(axis=1, keepdims=True)))
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
            check_stochastic(edge_form(prod), tol=1e-10)
