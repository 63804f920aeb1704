"""Exact scalar ring: Laurent polynomials in pi with rational coefficients.

The rationals are ``fractions.Fraction`` of the standard library (``Rat``).
"""

from __future__ import annotations

import math
from fractions import Fraction

Rat = Fraction

_RAT_TYPES = (int, Fraction)


def _rat(x) -> Rat:
    if isinstance(x, float):
        raise TypeError("exact scalar coefficients must be rational, not float")
    return Rat(x)


class Scalar:
    """Element of Q[pi, pi^-1] stored as {pi power: rational}, zero terms dropped.

    Instances are treated as immutable; all arithmetic returns new objects.
    Equality and hashing agree with plain rationals when no pi is present.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=None):
        t = {}
        if terms:
            for k, c in terms.items():
                if type(c) is not Rat:
                    c = _rat(c)
                if c:
                    t[int(k)] = c
        self.terms = t
        self._hash = None

    @classmethod
    def of(cls, p, q=1, pi=0) -> "Scalar":
        return cls({pi: Rat(p, q)})

    def is_zero(self) -> bool:
        return not self.terms

    def is_rational(self) -> bool:
        return all(k == 0 for k in self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, Scalar):
            return self.terms == other.terms
        if isinstance(other, _RAT_TYPES):
            r = _rat(other)
            return self.terms == ({0: r} if r else {})
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            if self.is_rational():
                self._hash = hash(self.terms.get(0, Rat(0)))
            else:
                self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __add__(self, other) -> "Scalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        t = dict(self.terms)
        for k, c in other.terms.items():
            s = t.get(k, Rat(0)) + c
            if s:
                t[k] = s
            else:
                t.pop(k, None)
        out = Scalar.__new__(Scalar)
        out.terms = t
        out._hash = None
        return out

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        out = Scalar.__new__(Scalar)
        out.terms = {k: -c for k, c in self.terms.items()}
        out._hash = None
        return out

    def __sub__(self, other) -> "Scalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Scalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Scalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        t: dict[int, Rat] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = k1 + k2
                s = t.get(k, Rat(0)) + c1 * c2
                if s:
                    t[k] = s
                else:
                    t.pop(k, None)
        out = Scalar.__new__(Scalar)
        out.terms = t
        out._hash = None
        return out

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Scalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.terms:
            raise ZeroDivisionError("scalar division by zero")
        if len(other.terms) != 1:
            # only the units c * pi^k divide every element of Q[pi, 1/pi]
            raise ValueError(f"scalar division by {other}, which is not a single power of pi")
        if not self.terms:
            return Scalar()
        (k2, c2), = other.terms.items()
        return Scalar({k - k2: c / c2 for k, c in self.terms.items()})

    def __rtruediv__(self, other) -> "Scalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, k: int) -> "Scalar":
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return (ONE / self) ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __float__(self) -> float:
        return float(sum(float(c) * math.pi ** k for k, c in self.terms.items()))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for k in sorted(self.terms):
            c = self.terms[k]
            mag = -c if c < 0 else c
            if k == 0:
                body = str(mag)
            else:
                p = "pi" if k == 1 else f"pi^{k}"
                body = p if mag == 1 else f"{mag}*{p}"
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append((" - " if c < 0 else " + ") + body)
        return "".join(parts)

    __repr__ = __str__


def _coerce(x):
    if isinstance(x, Scalar):
        return x
    if isinstance(x, _RAT_TYPES):
        return Scalar({0: x})
    return NotImplemented


ZERO = Scalar()
ONE = Scalar.of(1)
PI = Scalar.of(1, pi=1)


def rational(p, q=1) -> Scalar:
    return Scalar.of(p, q)
