import random

import pytest

from _oracles import solve_linear
from valcalc.linalg import FracScalar, invert_scalar_matrix
from valcalc.scalars import ONE, PI, Rat, Scalar, rational


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


def test_frac_scalar_arithmetic():
    half = FracScalar(ONE, rational(2))
    assert half + half == FracScalar(1)
    a = FracScalar(PI, PI + 1)
    b = FracScalar(ONE, PI + 1)
    assert a + b == FracScalar(1)
    assert (a / a) == FracScalar(1)
    assert (a * (PI + 1)).to_scalar() == PI
    with pytest.raises(ZeroDivisionError):
        a / FracScalar(0)


def test_frac_scalar_reduction():
    # (pi^2 - 1) / (pi - 1) reduces to pi + 1
    num = PI ** 2 - 1
    den = PI - 1
    f = FracScalar(num, den)
    assert f.den == ONE
    assert f.num == PI + 1
    assert f.to_scalar() == PI + 1


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


def test_invert_random_matrices():
    rng = random.Random(9)
    done = 0
    while done < 20:
        n = rng.randrange(1, 5)
        M = [[rational(rng.randrange(-3, 4)) + rational(rng.randrange(-1, 2)) * PI
              for _ in range(n)] for _ in range(n)]
        try:
            inv = invert_scalar_matrix(M)
        except ValueError:
            continue
        done += 1
        for i in range(n):
            for j in range(n):
                s = sum((M[i][k] * inv[k][j] for k in range(n)), Scalar())
                assert s == (1 if i == j else 0)


def test_invert_singular():
    M = [[ONE, ONE], [ONE, ONE]]
    with pytest.raises(ValueError):
        invert_scalar_matrix(M)
