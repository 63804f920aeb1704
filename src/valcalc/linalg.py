"""Exact linear algebra: determinants and inverses of matrices over Q(pi)."""

from __future__ import annotations

from .scalars import ONE, Rat, Scalar, ZERO


def _poly_coeffs(s: Scalar) -> list:
    """Dense coefficient list of a Scalar with nonnegative pi powers."""
    if not s.terms:
        return []
    d = max(s.terms)
    out = [Rat(0)] * (d + 1)
    for k, c in s.terms.items():
        out[k] = c
    return out


def _poly_gcd(a: Scalar, b: Scalar) -> Scalar:
    """Monic gcd in Q[pi]; inputs must have nonnegative powers only."""
    pa, pb = _poly_coeffs(a), _poly_coeffs(b)
    while pb:
        pa, pb = pb, _poly_mod(pa, pb)
    if not pa:
        return ZERO
    lead = pa[-1]
    return Scalar({k: c / lead for k, c in enumerate(pa) if c})


def _poly_mod(a: list, b: list) -> list:
    a = list(a)
    while len(a) >= len(b):
        f = a[-1] / b[-1]
        off = len(a) - len(b)
        for i, c in enumerate(b):
            a[off + i] -= f * c
        while a and not a[-1]:
            a.pop()
    return a


class FracScalar:
    """Element of the fraction field Q(pi), kept reduced with a monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = num if isinstance(num, Scalar) else Scalar({0: num})
        den = ONE if den is None else (den if isinstance(den, Scalar) else Scalar({0: den}))
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num, self.den = ZERO, ONE
            return
        lo = min(min(num.terms), min(den.terms), 0)
        if lo < 0:
            shift = Scalar({-lo: 1})
            num, den = num * shift, den * shift
        g = _poly_gcd(num, den)
        if not g.is_zero() and g != ONE:
            num, den = num / g, den / g
        lead = den.terms[max(den.terms)]
        if lead != 1:
            inv = Scalar({0: 1 / lead})
            num, den = num * inv, den * inv
        self.num, self.den = num, den

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def to_scalar(self) -> Scalar:
        """Exact conversion to Q[pi, pi^-1]; raises if the denominator does not divide."""
        return self.num / self.den

    def __bool__(self):
        return not self.num.is_zero()

    def __eq__(self, other):
        if not isinstance(other, FracScalar):
            other = FracScalar(other) if isinstance(other, (Scalar, int)) else None
            if other is None:
                return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        other = _frac(other)
        return FracScalar(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other):
        other = _frac(other)
        return FracScalar(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self):
        return FracScalar(-self.num, self.den)

    def __mul__(self, other):
        other = _frac(other)
        return FracScalar(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        other = _frac(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero in Q(pi)")
        return FracScalar(self.num * other.den, self.den * other.num)

    def __str__(self):
        if self.den == ONE:
            return str(self.num)
        return f"({self.num})/({self.den})"

    __repr__ = __str__


def _frac(x) -> FracScalar:
    if isinstance(x, FracScalar):
        return x
    return FracScalar(x)


def scalar_determinant(M) -> Scalar:
    """Exact determinant of a square matrix of Scalars.

    Raises ValueError if the result falls outside Q[pi, pi^-1] (it cannot for
    Scalar entries, but FracScalar inputs are accepted too).
    """
    n = len(M)
    a = [[_frac(M[i][j]) for j in range(n)] for i in range(n)]
    det = FracScalar(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return ZERO
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det = det * a[col][col]
        inv = FracScalar(1) / a[col][col]
        for r in range(col + 1, n):
            if a[r][col]:
                f = a[r][col] * inv
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det.to_scalar()


def invert_scalar_matrix(M):
    """Exact inverse of a square matrix of Scalars, returned as Scalars.

    Runs Gauss-Jordan over Q(pi); raises ValueError if the matrix is singular
    or an inverse entry falls outside Q[pi, pi^-1].
    """
    n = len(M)
    aug = [[FracScalar(M[i][j]) for j in range(n)]
           + [FracScalar(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = FracScalar(1) / aug[col][col]
        aug[col] = [e * inv for e in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [[aug[i][n + j].to_scalar() for j in range(n)] for i in range(n)]
