"""Stochastic-matrix analysis: the row-stochasticity check and the
consensus weight vector nu.

``left_eigenvector`` finds nu with P^T nu = nu: it is supported on the one
closed strongly connected class of P (the root class) and solved there by
subtraction-free Grassmann-Taksar-Heyman elimination (Oper. Res. 1985), so
weak links keep full accuracy; it is zero elsewhere.  The tests cross-check
it against the rank-one limit of the powers of P (the SIA route).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateEigenspace, NotStochastic
from .graphs import strong_components

STOCHASTIC_TOL = 1e-12


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


def _gth(W: np.ndarray) -> np.ndarray:
    """Unnormalised stationary vector of the irreducible stochastic block W (overwritten).

    Left-looking (Crout) GTH: states n-1..1 are eliminated in turn, each
    reduced row R[k, :k] and scaled column C[:k, k] formed from those stored
    in W's lower and upper triangles.  It reads off-diagonal entries only and
    adds only nonnegatives, so no cancellation occurs however weak a link.
    """
    n = len(W)
    for k in range(n - 1, 0, -1):
        W[k, :k] += W[k, k + 1 :] @ W[k + 1 :, :k]
        W[:k, k] += W[:k, k + 1 :] @ W[k + 1 :, k]
        W[:k, k] /= W[k, :k].sum()
    pi = np.ones(n)
    for k in range(1, n):
        pi[k] = pi[:k] @ W[:k, k]
    return pi


def left_eigenvector(P: StochasticMatrix) -> PerronVector:
    """nu with P^T nu = nu, 1^T nu = 1, by GTH on the root class of P.

    Raises DegenerateEigenspace unless exactly one strong class of P's
    off-diagonal pattern is closed (else eigenvalue 1 is not simple).
    """
    label, closed = strong_components(P.entries)
    if len(closed) != 1:
        raise DegenerateEigenspace(f"{len(closed)} closed classes: eigenvalue 1 is not simple")
    root = np.flatnonzero(label == closed[0])
    nu = np.zeros(P.n)
    nu[root] = _gth(P.entries[np.ix_(root, root)])  # fancy indexing copies
    nu /= nu.sum()
    return PerronVector(nu=nu, residual=float(np.max(np.abs(P.entries.T @ nu - nu))))
