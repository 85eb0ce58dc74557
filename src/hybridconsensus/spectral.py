"""Stochastic-matrix analysis.

Two independent routes to the consensus weight vector nu:

* ``sia_limit``      -- power iteration (repeated squaring) until the matrix
                        powers collapse to a rank-one limit 1 * nu^T;
* ``left_eigenvector`` -- direct null-space extraction of (P^T - I).

The two must agree whenever both succeed; tests exercise that cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateEigenspace, NotRankOne, NotStochastic

STOCHASTIC_TOL = 1e-12
#: nu entries below this magnitude are round-off; clamp so nonnegativity holds.
CLAMP_TOL = 1e-14


@dataclass(frozen=True)
class StochasticMatrix:
    """A verified row-stochastic matrix."""

    entries: np.ndarray

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class PerronVector:
    """Normalized nonnegative left eigenvector for eigenvalue 1."""

    nu: np.ndarray
    residual: float  # max-norm of P^T nu - nu


def check_stochastic(matrix: np.ndarray, tol: float = STOCHASTIC_TOL) -> StochasticMatrix:
    """Wrap `matrix` after verifying nonnegativity and unit row sums."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotStochastic(-1, float("nan"))
    negative = (m < 0).any(axis=1)
    residual = np.abs(m.sum(axis=1) - 1.0)
    bad = np.flatnonzero(negative | (residual > tol))
    if bad.size:
        row = int(bad[0])
        raise NotStochastic(row, float(m[row].min() if negative[row] else residual[row]))
    m = m.copy()
    m.setflags(write=False)
    return StochasticMatrix(m)


def _clamp_and_normalize(nu: np.ndarray) -> np.ndarray:
    nu = nu.copy()
    nu[np.abs(nu) < CLAMP_TOL] = 0.0
    return nu / nu.sum()


def _perron_from(P: np.ndarray, nu: np.ndarray) -> PerronVector:
    nu = _clamp_and_normalize(nu)
    residual = float(np.max(np.abs(P.T @ nu - nu)))
    return PerronVector(nu=nu, residual=residual)


def sia_limit(
    P: StochasticMatrix, tol: float = 1e-12, max_iter: int = 200
) -> tuple[np.ndarray, PerronVector]:
    """Limit of P^k by repeated squaring; raises NotRankOne if the powers
    settle on (or never reach) a limit whose rows disagree.

    A NotRankOne outcome signals that the graph associated with P has no
    spanning tree (necessity direction of the SIA equivalence).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    Q = P.entries
    for _ in range(max_iter):
        Q_next = Q @ Q
        if np.max(np.abs(Q_next - Q)) < tol:
            spread = float(np.max(Q_next.max(axis=0) - Q_next.min(axis=0)))
            if spread < tol:
                nu = Q_next.mean(axis=0)
                return Q_next, _perron_from(P.entries, nu)
            raise NotRankOne(
                f"powers converged but rows disagree (column spread {spread:.3e})"
            )
        Q = Q_next
    raise NotRankOne(f"no rank-one limit after {max_iter} squarings")


def left_eigenvector(P: StochasticMatrix, rank_tol: float = 1e-9) -> PerronVector:
    """nu with P^T nu = nu, 1^T nu = 1, via SVD null space of (P^T - I).

    Raises DegenerateEigenspace when the numerical null space has
    dimension > 1 (eigenvalue 1 not simple: no spanning tree).
    """
    A = P.entries.T - np.eye(P.n)
    _, s, vh = np.linalg.svd(A)
    null_dim = int(np.sum(s < rank_tol * max(1.0, s[0] if len(s) else 1.0)))
    if null_dim > 1:
        raise DegenerateEigenspace(
            f"eigenvalue 1 has numerical multiplicity {null_dim}"
        )
    if null_dim == 0:
        raise DegenerateEigenspace("no null vector found; matrix is not stochastic?")
    nu = vh[-1]
    if nu.sum() < 0:
        nu = -nu
    return _perron_from(P.entries, nu)
