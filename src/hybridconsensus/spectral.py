"""Stochastic-matrix analysis: the row-stochasticity check and the
consensus weight vector nu.

Matrices are held in edge form only, the diagonal plus the nonzero
off-diagonal entries, and the check and the solve take that form, so that
they cost O(n + e) beyond the root-class block; the dense n x n form is
built only when a caller reads `entries` (the `matrix` command).

``left_eigenvector`` finds nu with P^T nu = nu: it is supported on the one
closed strongly connected class of P (the root class) and solved there by
subtraction-free Grassmann-Taksar-Heyman elimination (Oper. Res. 1985), so
weak links keep full accuracy; it is zero elsewhere.  The tests cross-check
it against the rank-one limit of the powers of P (the SIA route).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateEigenspace, NotStochastic
from .graphs import strong_components

STOCHASTIC_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class StochasticMatrix:
    """A square matrix in edge form: its diagonal `diag`, and its nonzero
    off-diagonal entries `vals` at (`rows`, `cols`), sorted by row, then
    column.  The dense `entries` is built on first use, for the `matrix`
    command.  `check_stochastic` returns the ones it has verified."""

    diag: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    @property
    def n(self) -> int:
        return len(self.diag)

    @cached_property
    def entries(self) -> np.ndarray:
        m = np.zeros((self.n, self.n))
        m[self.rows, self.cols] = self.vals
        np.fill_diagonal(m, self.diag)
        m.setflags(write=False)
        return m


@dataclass(frozen=True, eq=False)
class PerronVector:
    """Normalized nonnegative left eigenvector for eigenvalue 1."""

    nu: np.ndarray
    residual: float  # max-norm of P^T nu - nu


def check_stochastic(P: StochasticMatrix, tol: float = STOCHASTIC_TOL) -> StochasticMatrix:
    """`P` after verifying nonnegativity and unit row sums; zero off-diagonal
    entries are dropped."""
    negative = P.diag < 0
    negative[P.rows[P.vals < 0]] = True
    residual = np.abs(np.bincount(P.rows, weights=P.vals, minlength=P.n) + P.diag - 1.0)
    bad = np.flatnonzero(negative | ~(residual <= tol))  # a NaN residual fails too
    if bad.size:
        row = int(bad[0])
        least = np.min(P.vals[P.rows == row], initial=P.diag[row])
        raise NotStochastic(row, float(least if negative[row] else residual[row]))
    if not np.all(P.vals):
        keep = P.vals != 0
        P = StochasticMatrix(P.diag, P.rows[keep], P.cols[keep], P.vals[keep])
    for a in (P.diag, P.rows, P.cols, P.vals):
        a.setflags(write=False)
    return P


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
    label, closed = strong_components(P.n, P.rows, P.cols)
    if len(closed) != 1:
        raise DegenerateEigenspace(f"{len(closed)} closed classes: eigenvalue 1 is not simple")
    root = np.flatnonzero(label == closed[0])
    inside = label[P.rows] == closed[0]  # every edge out of the closed root class
    at = np.empty(P.n, dtype=np.intp)
    at[root] = np.arange(len(root))
    block = np.zeros((len(root), len(root)))  # P's root-class block
    block[at[P.rows[inside]], at[P.cols[inside]]] = P.vals[inside]
    np.fill_diagonal(block, P.diag[root])
    nu = np.zeros(P.n)
    nu[root] = _gth(block)
    nu /= nu.sum()
    # P^T nu, summed over the root class's edges: nu is zero elsewhere
    pt_nu = P.diag * nu + np.bincount(
        P.cols[inside], weights=P.vals[inside] * nu[P.rows[inside]], minlength=P.n
    )
    return PerronVector(nu=nu, residual=float(np.max(np.abs(pt_nu - nu))))
