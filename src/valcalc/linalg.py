"""Exact inverse of a pi-graded matrix over Q[pi, 1/pi].

The pairing Gram matrices of the kinematic formula are graded: each nonzero
entry is c * pi^(a_i + a_j).  Gauss-Jordan elimination keeps such a matrix
graded, so every pivot is a single power of pi, a unit of Q[pi, 1/pi], and
every division is exact.
"""

from .scalars import ONE, ZERO


def invert_scalar_matrix(M):
    """Exact inverse of a square matrix of Scalars, returned as Scalars.

    Runs Gauss-Jordan with monomial pivots; raises ValueError if the matrix
    is singular or a pivot is not of the form c * pi^k.
    """
    n = len(M)
    aug = [list(M[i]) + [ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col][col]
        if len(p.terms) != 1:
            raise ValueError(f"pivot {p} in column {col} is not a single power of pi")
        aug[col] = [e / p for e in aug[col]]
        for r in range(n):
            f = aug[r][col]
            if r != col and f:
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]
