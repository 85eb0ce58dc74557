"""Stochastic-matrix analysis: the checked matrix in edge form and the
consensus weight vector nu.

Matrices are held in edge form only, and one product over the entries
gives both P x and x P, so the check and the solve cost O(n + e) beyond the
root-class block; no dense n x n form is built.

``left_eigenvector`` finds nu with P^T nu = nu: it is supported on the one
closed strongly connected class of P (the root class) and solved there by
subtraction-free Grassmann-Taksar-Heyman elimination (Oper. Res. 1985), so
weak links keep full accuracy; it is zero elsewhere.  A nu whose residual
max |nu^T P - nu^T| is 1e-10 or more is rejected, in every case.  The tests
cross-check it against the rank-one limit of the powers of P (the SIA route).
"""

from __future__ import annotations

import numpy as np

from .errors import ConsensusError
from .graphs import sorted_entries, strong_components

STOCHASTIC_TOL = 1e-12
NU_RESIDUAL_TOL = 1e-10


class StochasticMatrix:
    """A checked row-stochastic matrix in edge form, built from the arrays of
    its diagonal `diag` and its off-diagonal entries `vals` at (`rows`,
    `cols`), in any order, each pair once, so none at (i, i).  Entries that
    underflowed to zero are dropped, and each row holds its nonzero
    off-diagonal entries in column order, then its diagonal, even if zero:
    `run` sums each row in that order.  Raises ConsensusError unless every
    index is an integer in 0..n-1, every entry is nonnegative and every row
    sums to within STOCHASTIC_TOL of 1; the arrays held are read-only."""

    def __init__(self, diag: np.ndarray, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray):
        n = len(diag)
        rows, cols, vals = sorted_entries(n, np.r_[rows, :n], np.r_[cols, :n], np.r_[vals, diag])
        keep = (vals != 0) | (rows == cols)  # a zero diagonal entry stays
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
        negative = np.zeros(n, dtype=bool)
        negative[rows[vals < 0]] = True
        residual = np.abs(_edge_product(rows, cols, vals, np.ones(n)) - 1.0)
        bad = np.flatnonzero(negative | ~(residual <= STOCHASTIC_TOL))  # a NaN residual fails too
        if bad.size:
            row = int(bad[0])
            value = np.min(vals[rows == row]) if negative[row] else residual[row]
            raise ConsensusError(f"row {row} violates stochasticity (residual {value:.3e})")
        for a in (rows, cols, vals):
            a.setflags(write=False)
        self.n, self.rows, self.cols, self.vals = n, rows, cols, vals


class PerronVector:
    """Normalized nonnegative left eigenvector `nu` for eigenvalue 1, the
    `residual` max-norm of P^T nu - nu, and the `period` of the root class:
    P's powers converge only if it is 1."""

    def __init__(self, nu: np.ndarray, residual: float, period: int):
        self.nu, self.residual, self.period = nu, residual, period


def _edge_product(rows, cols, vals, x: np.ndarray) -> np.ndarray:
    """y_r = sum of vals[e] * x[cols[e]] over the entries e with rows[e] = r,
    added in entry order: P x from P's entries, x P with rows and cols swapped."""
    return np.bincount(rows, vals * x[cols], minlength=len(x))


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


def left_eigenvector(P: StochasticMatrix) -> PerronVector | None:
    """nu with P^T nu = nu, 1^T nu = 1, by GTH on the root class of P.

    None unless exactly one strong class of P's pattern is closed (else
    eigenvalue 1 is not simple and nu is not unique).  Raises ConsensusError
    unless the residual max |P^T nu - nu| is below NU_RESIDUAL_TOL.
    """
    label, closed, depth = strong_components(P.n, P.rows, P.cols)
    if len(closed) != 1:
        return None
    root = np.flatnonzero(label == closed[0])
    inside = label[P.rows] == closed[0]  # every entry in a row of the closed root class
    link = inside & (P.vals > 0)  # a diagonal kept at zero is no link
    period = int(np.gcd.reduce(depth[P.rows[link]] + 1 - depth[P.cols[link]]))
    at = np.empty(P.n, dtype=np.intp)
    at[root] = np.arange(len(root))
    block = np.zeros((len(root), len(root)))  # P's root-class block, diagonal included
    block[at[P.rows[inside]], at[P.cols[inside]]] = P.vals[inside]
    nu = np.zeros(P.n)
    nu[root] = _gth(block)
    nu /= nu.sum()
    nu_p = _edge_product(P.cols, P.rows, P.vals, nu)  # nu^T P
    residual = float(np.max(np.abs(nu_p - nu)))
    if not residual < NU_RESIDUAL_TOL:  # a NaN residual fails too
        raise ConsensusError(f"nu residual |P^T nu - nu| = {residual:.3e}")
    return PerronVector(nu=nu, residual=residual, period=period)
