import random
from itertools import permutations

import pytest

from _oracles import solve_linear
from valcalc.kinematic import gram_matrix
from valcalc.linalg import invert_scalar_matrix
from valcalc.scalars import ONE, PI, Rat, Scalar, ZERO, rational


def test_solve_dense_example():
    rows = [{0: Rat(1), 1: Rat(2)}, {0: Rat(3), 1: Rat(-1)}]
    x = solve_linear(rows, [Rat(5), Rat(1)], 2)
    assert x == [Rat(1), Rat(2)]


def test_solve_free_variables_zero():
    # one equation, three unknowns: pivot on the first column only
    x = solve_linear([{0: Rat(2), 2: Rat(1)}], [Rat(6)], 3)
    assert x == [Rat(3), Rat(0), Rat(0)]


def test_solve_scalar_rhs():
    rows = [{0: Rat(1), 1: Rat(1)}, {1: Rat(2)}]
    x = solve_linear(rows, [PI + 1, rational(4)], 2)
    assert x[1] == rational(2)
    assert x[0] == PI - 1


def test_solve_inconsistent():
    rows = [{0: Rat(1)}, {0: Rat(2)}]
    with pytest.raises(ValueError):
        solve_linear(rows, [Rat(1), Rat(3)], 1)


def test_solve_random_consistent():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randrange(1, 7)
        m = rng.randrange(1, 7)
        rows = []
        for _ in range(m):
            r = {}
            for c in range(n):
                if rng.random() < 0.5:
                    r[c] = Rat(rng.randrange(-4, 5))
            rows.append(r)
        xtrue = [Rat(rng.randrange(-3, 4)) for _ in range(n)]
        b = [sum((r.get(c, Rat(0)) * xtrue[c] for c in range(n)), Rat(0)) for r in rows]
        x = solve_linear(rows, b, n)
        for r, bi in zip(rows, b):
            assert sum((r.get(c, Rat(0)) * x[c] for c in range(n)), Rat(0)) == bi


def _product(A, B):
    n = len(B)
    return [[sum((A[i][k] * B[k][j] for k in range(n)), ZERO) for j in range(len(B[0]))]
            for i in range(len(A))]


def assert_exact_inverse(M, inv):
    n = len(M)
    eye = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    assert _product(M, inv) == eye
    assert _product(inv, M) == eye


def _leibniz_det(A):
    """Determinant of a small rational matrix as a sum over permutations."""
    n = len(A)
    total = Rat(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Rat(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= A[i][j]
        total += term
    return total


def test_invert_rational_matrix():
    M = [[rational(2), rational(1)], [rational(1), rational(1)]]
    inv = invert_scalar_matrix(M)
    assert inv == [[rational(1), rational(-1)], [rational(-1), rational(2)]]


def test_invert_pi_matrix():
    M = [[PI, rational(0)], [rational(0), rational(3) * PI]]
    inv = invert_scalar_matrix(M)
    assert inv[0][0] == PI ** -1
    assert inv[1][1] == Scalar.of(1, 3, pi=-1)
    assert inv[0][1].is_zero()


@pytest.mark.parametrize("kind", ["icosahedron", "alesker"])
def test_gram_inverse_exact(kind):
    _, G = gram_matrix(kind)
    assert_exact_inverse(G, invert_scalar_matrix(G))


def test_invert_random_matrices():
    """D1 G_Q D2 with D = diag(pi^a): the inverse is D2^-1 G_Q^-1 D1^-1."""
    rng = random.Random(9)
    singular = 0
    for _ in range(60):
        n = rng.randrange(1, 6)
        GQ = [[Rat(rng.randrange(-3, 4), rng.randrange(1, 3)) for _ in range(n)]
              for _ in range(n)]
        # a zero leading block forces row swaps, as in the anti-diagonal Gram matrices
        k = rng.randrange(0, n + 1)
        for i in range(k):
            for j in range(k):
                GQ[i][j] = Rat(0)
        left = [rng.randrange(-2, 3) for _ in range(n)]
        right = left if rng.random() < 0.5 else [rng.randrange(-2, 3) for _ in range(n)]
        M = [[Scalar({left[i] + right[j]: GQ[i][j]}) for j in range(n)] for i in range(n)]
        if _leibniz_det(GQ) == 0:
            singular += 1
            with pytest.raises(ValueError, match="singular"):
                invert_scalar_matrix(M)
            continue
        inv = invert_scalar_matrix(M)
        assert_exact_inverse(M, inv)
        for i in range(n):
            for j in range(n):
                assert set(inv[i][j].terms) <= {-right[i] - left[j]}
    assert 0 < singular < 30


def test_invert_rejects_non_monomial_pivot():
    with pytest.raises(ValueError, match="pivot"):
        invert_scalar_matrix([[PI + 1]])
    # the second pivot is 1 - pi after clearing the first column
    with pytest.raises(ValueError, match="pivot"):
        invert_scalar_matrix([[ONE, PI], [ONE, ONE]])


def test_invert_singular():
    M = [[ONE, ONE], [ONE, ONE]]
    with pytest.raises(ValueError):
        invert_scalar_matrix(M)
