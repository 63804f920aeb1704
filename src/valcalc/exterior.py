"""Exterior calculus of translation-invariant forms on the sphere bundle R^n x S^(n-1).

Forms live in ambient coordinates (x, v) on R^n x R^n.  Polynomial
coefficients are kept canonical modulo the sphere relation sum(v_i^2) = 1
(the last exponent is reduced below 2) and the one-form content is projected
tangentially to the sphere fiber, so two forms are equal on the bundle
exactly when their stored representations coincide.

Coefficients are Scalars (or ints/rationals); the terms of a float rep
carry plain floats, which the purely algebraic operations accept.
Every operator here is linear over Z, so the exact layers above split a
Scalar-coefficient form once into pi-graded parts with plain int
coefficients (float coefficients into a float64 part), held as sparse
vectors over monomial coordinates; a form made from such vectors builds its
terms only when they are asked for (``columns._join_vectors``), and a sum
with such a form is taken on the vectors.  There
hodge_star and lie_reeb (with contact's Rumin solve) apply as caches of
integer columns keyed by the input's (n, |I|, |J|), and the antipodal
pullback as a sign per monomial.  The dict operators here build those
columns, a batch at a time, with every monomial in a lane of a Python int
whose width comes from a proved bound on the column's entries, and they
stay the reference the tests hold the columns to.  They commute with the
permutations of the coordinates 1..n-1 acting on x and v together, which
fix v_n and so the canonical rewrite of v_n^2, so they run on one monomial
per orbit of those permutations, and the others' columns are permuted.

Fiber integration pi_* enters through closed-form sphere integrals alone:
``sphere_monomial_integral`` as the product of its two parts, for the
pairing, which contracts two forms' vectors over the integer part
``sphere_numerator`` and scales each degree once by ``sphere_factor``
(``columns.pair_top``), and ``fiber_monomial_integral`` for a valuation's
value on a ball.  The one exterior product is
``InvariantForm.wedge``; the tangential projection of dv_J is a product of
projected one-forms taken with it.  The one vector field contracted with is
the Reeb field T = sum_i v_i d/dx_i of the contact form alpha
(``reeb_contract``); ``contract_slot`` contracts with a coordinate direction.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations_with_replacement
from operator import add

from .scalars import _RAT_TYPES, Rat, Scalar, ZERO

# the n of R^n that forms, valuations and bodies live in, those for which the
# Rumin solve has a closed form (``contact._xi_lefschetz``)
DIMENSIONS = range(2, 5)


def check_dimension(n):
    """The one check of n, made where a form or a body is built."""
    if n not in DIMENSIONS:
        raise ValueError(f"dimension {n} is outside 2..4, the dimensions valcalc works in")


def _merge_sign(a, b) -> int:
    """Sign of sorting the concatenation of two disjoint ascending tuples."""
    s = 1
    for x in a:
        for y in b:
            if x > y:
                s = -s
    return s


def _prepend_sign(t, i) -> int:
    """Sign of prepending index i to ascending tuple t and re-sorting."""
    s = 1
    for x in t:
        if x < i:
            s = -s
    return s


def _insert(t, i):
    out = tuple(sorted(t + (i,)))
    return out


def _complement(t, n):
    return tuple(i for i in range(n) if i not in t)


def _sphere_reduce(n, e, c):
    """The terms of c v^e with v_n^(2k) expanded as (1 - v_1^2 - ... -
    v_(n-1)^2)^k by multinomial coefficients: one term per multiset of k
    factors, taken in the order of combinations_with_replacement over
    (v_(n-1)^2, ..., v_1^2, 1), the order a rewrite one square at a time
    would first reach them in; slot n - 1 stands for the factor 1."""
    k, r = divmod(e[n - 1], 2)
    for combo in combinations_with_replacement((*range(n - 2, -1, -1), n - 1), k):
        f = list(e[:n - 1]) + [r]
        count = [0] * n
        for i in combo:
            count[i] += 1
        for i in range(n - 1):
            f[i] += 2 * count[i]
        mult = math.factorial(k) // math.prod(map(math.factorial, count))
        yield tuple(f), c * (mult if (k - count[n - 1]) % 2 == 0 else -mult)


class SpherePoly:
    """Polynomial in the fiber variables v_1..v_n, canonical modulo sum(v_i^2) = 1.

    Stored as {exponent tuple: coefficient} with the last exponent at most 1;
    v_n^(2k) is rewritten as (1 - sum of the other squares)^k on construction.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        t = {}
        for e, c in reversed(terms.items()) if terms else ():
            if not c:
                continue
            for f, x in _sphere_reduce(n, e, c) if e[n - 1] >= 2 else ((e, c),):
                s = t.get(f, 0) + x
                if s:
                    t[f] = s
                else:
                    t.pop(f, None)
        self.terms = t

    @classmethod
    def _canonical(cls, n, terms) -> "SpherePoly":
        """Wrap terms that are already canonical and free of zero coefficients."""
        out = cls.__new__(cls)
        out.n = n
        out.terms = terms
        return out

    @classmethod
    def constant(cls, n, c) -> "SpherePoly":
        return cls(n, {(0,) * n: c})

    @classmethod
    def variable(cls, n, i) -> "SpherePoly":
        e = tuple(1 if k == i else 0 for k in range(n))
        return cls(n, {e: 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def __add__(self, other):
        if not isinstance(other, SpherePoly):
            return NotImplemented
        t = dict(self.terms)
        for e, c in other.terms.items():
            s = t.get(e, 0) + c
            if s:
                t[e] = s
            else:
                t.pop(e, None)
        return SpherePoly._canonical(self.n, t)

    def __neg__(self):
        return SpherePoly._canonical(self.n, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int) and other == 1:
            return self
        if not isinstance(other, SpherePoly):
            t = {}
            for e, c in self.terms.items():
                s = c * other
                if s:
                    t[e] = s
            return SpherePoly._canonical(self.n, t)
        # both factors are canonical, so a product's last exponent is at most
        # 2 and one rewrite of v_n^2 canonicalizes it
        n = self.n
        t = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                c = c1 * c2
                if not c:
                    continue
                e = tuple(map(add, e1, e2))
                if e[n - 1] < 2:
                    t[e] = t.get(e, 0) + c
                    continue
                base = e[:n - 1] + (0,)
                t[base] = t.get(base, 0) + c
                for i in range(n - 1):
                    ei = base[:i] + (base[i] + 2,) + base[i + 1:]
                    t[ei] = t.get(ei, 0) - c
        return SpherePoly._canonical(n, {e: c for e, c in t.items() if c})

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, SpherePoly):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def derivative(self, i) -> "SpherePoly":
        t = {}
        for e, c in self.terms.items():
            if e[i]:
                t[e[:i] + (e[i] - 1,) + e[i + 1:]] = c * e[i]
        return SpherePoly(self.n, t)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            mono = "*".join(f"v{i + 1}" + (f"^{k}" if k > 1 else "")
                            for i, k in enumerate(e) if k)
            cs = str(c)
            parts.append(f"({cs})" + (f"*{mono}" if mono else ""))
        return " + ".join(parts)

    __repr__ = __str__


def _accumulate(d, key, val):
    if not val:
        return
    cur = d.get(key)
    s = val if cur is None else cur + val
    if s:
        d[key] = s
    else:
        del d[key]


@lru_cache(maxsize=None)
def _dv_projection(n, J):
    """Tangential projection of dv_J as ((J', q), ...), meaning sum_J' q dv_J'.

    Each dv_j is replaced by dv_j - v_j * sum_t v_t dv_t and the product is
    expanded; the coefficients q are integer polynomials.  One entry per
    (n, J), so at most 2^n per dimension.
    """
    acc = InvariantForm(n, {((), ()): SpherePoly.constant(n, 1)}, projected=True)
    for j in J:
        terms = {((), (j,)): SpherePoly.constant(n, 1)}
        for t in range(n):
            ejt = [0] * n
            ejt[j] += 1
            ejt[t] += 1
            _accumulate(terms, ((), (t,)), SpherePoly(n, {tuple(ejt): -1}))
        acc = acc.wedge(InvariantForm(n, terms, projected=True))
    return tuple((Jp, q) for (_, Jp), q in acc.terms.items())


def _project_terms(n, terms):
    """Project every dv factor tangentially to the sphere fiber and expand."""
    out = {}
    for (I, J), p in terms.items():
        if not p:
            continue
        if not J:
            _accumulate(out, (I, J), p)
            continue
        for Jp, q in _dv_projection(n, J):
            _accumulate(out, (I, Jp), p * q)
    return out


class InvariantForm:
    """Translation-invariant differential form, stored tangentially projected.

    terms maps (I, J) to a SpherePoly coefficient, where I and J are strictly
    ascending 0-based index tuples naming the dx and dv factors; dx factors
    come first in the monomial orientation.  Forms are not hashable: caches
    key on their split vectors (``columns._form_key``).
    """

    __slots__ = ("n", "_terms", "_parts", "_key")

    def __init__(self, n, terms=None, projected=False):
        check_dimension(n)
        self.n = n
        src = terms or {}
        for (I, J) in src:
            if list(I) != sorted(set(I)) or list(J) != sorted(set(J)):
                raise ValueError(f"index tuples must be strictly ascending: {(I, J)}")
            if any(not 0 <= i < n for i in I + J):
                raise ValueError(f"index out of range for dimension {n}: {(I, J)}")
        clean = {}
        for key, p in src.items():
            if not isinstance(p, SpherePoly):
                p = SpherePoly.constant(n, p)
            _accumulate(clean, (tuple(key[0]), tuple(key[1])), p)
        if not projected:
            clean = _project_terms(n, clean)
        self._terms = clean
        self._parts = None  # columns._split_vectors, once computed
        self._key = None  # columns._form_key, once computed

    @property
    def terms(self) -> dict:
        # a form of split vectors (columns._join_vectors) builds them when asked
        if self._terms is None:
            # columns builds on InvariantForm: the exterior <-> columns cycle
            from .columns import _vector_terms

            self._terms = _vector_terms(self.n, self._parts)
        return self._terms

    @classmethod
    def zero(cls, n) -> "InvariantForm":
        return cls(n, {}, projected=True)

    def _bidegrees(self) -> set:
        """(|I|, |J|) of the nonzero terms; a split form reads its vectors' blocks."""
        if self._parts is not None:
            return {ab for _, blocks in self._parts.values() for ab in blocks}
        return {(len(I), len(J)) for (I, J) in self._terms}

    def is_zero(self) -> bool:
        return not (self._parts if self._parts is not None else self._terms)

    def __bool__(self):
        return not self.is_zero()

    def is_exact(self) -> bool:
        """Whether no coefficient is a float; a split form reads its vectors' dtype."""
        if self._parts is not None:
            return all(vals.dtype.kind != "f" for _, blocks in self._parts.values()
                       for _, vals in blocks.values())
        return not any(
            isinstance(c, float) for p in self._terms.values() for c in p.terms.values())

    def degrees(self):
        return {a + b for a, b in self._bidegrees()}

    def degree(self) -> int:
        degs = self.degrees()
        if len(degs) != 1:
            raise ValueError("form is zero or not homogeneous")
        return degs.pop()

    def __add__(self, other):
        if not isinstance(other, InvariantForm):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        if self._parts is not None or other._parts is not None:
            # columns builds on InvariantForm: the exterior <-> columns cycle
            from .columns import _add_vectors, _join_vectors, _split_vectors

            return _join_vectors(self.n, _add_vectors(
                self.n, _split_vectors(self), _split_vectors(other)))
        t = dict(self.terms)
        for key, p in other.terms.items():
            _accumulate(t, key, p)
        return InvariantForm(self.n, t, projected=True)

    def __neg__(self):
        return InvariantForm(self.n, {k: -p for k, p in self.terms.items()}, projected=True)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, c):
        if isinstance(c, InvariantForm):
            return NotImplemented
        t = {}
        for key, p in self.terms.items():
            _accumulate(t, key, p * c)
        return InvariantForm(self.n, t, projected=True)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, InvariantForm):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __reduce__(self):
        # the cached split vectors number monomials as this process first saw them
        return (InvariantForm, (self.n, self.terms, True))

    def wedge(self, other) -> "InvariantForm":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        out = {}
        for (I1, J1), p1 in self.terms.items():
            for (I2, J2), p2 in other.terms.items():
                if set(I1) & set(I2) or set(J1) & set(J2):
                    continue
                sgn = _merge_sign(I1, I2) * _merge_sign(J1, J2)
                if (len(I2) * len(J1)) % 2:
                    sgn = -sgn
                q = p1 * p2
                if sgn < 0:
                    q = -q
                key = (tuple(sorted(I1 + I2)), tuple(sorted(J1 + J2)))
                _accumulate(out, key, q)
        return InvariantForm(self.n, out, projected=True)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (I, J) in sorted(self.terms, key=lambda k: (len(k[0]) + len(k[1]), k)):
            p = self.terms[(I, J)]
            mono = "^".join([f"dx{i + 1}" for i in I] + [f"dv{j + 1}" for j in J])
            parts.append(f"({p})" + (f" {mono}" if mono else ""))
        return " + ".join(parts)

    __repr__ = __str__


@lru_cache(maxsize=None)
def alpha_form(n) -> InvariantForm:
    t = {((i,), ()): SpherePoly.variable(n, i) for i in range(n)}
    return InvariantForm(n, t, projected=True)


def d(a: InvariantForm) -> InvariantForm:
    """Exterior derivative, computed on the ambient representative then projected."""
    out = {}
    for (I, J), p in a.terms.items():
        for i in range(a.n):
            dp = p.derivative(i)
            if not dp:
                continue
            if i in J:
                continue
            sgn = _prepend_sign(J, i) * (-1 if len(I) % 2 else 1)
            if sgn < 0:
                dp = -dp
            _accumulate(out, (I, _insert(J, i)), dp)
    return InvariantForm(a.n, out)


def reeb_contract(a: InvariantForm) -> InvariantForm:
    """Interior product i_T a with the Reeb field T = sum_i v_i d/dx_i."""
    n = a.n
    v = [SpherePoly.variable(n, i) for i in range(n)]
    out = {}
    for (I, J), p in a.terms.items():
        for pos, i in enumerate(I):
            q = p * v[i]
            if pos % 2:
                q = -q
            _accumulate(out, (I[:pos] + I[pos + 1:], J), q)
    return InvariantForm(n, out, projected=True)


def contract_slot(a: InvariantForm, kind, idx) -> InvariantForm:
    """Interior product with a single coordinate direction (kind 0: x, 1: v)."""
    out = {}
    for (I, J), p in a.terms.items():
        if kind == 0:
            if idx not in I:
                continue
            pos = I.index(idx)
            q = -p if pos % 2 else p
            _accumulate(out, (I[:pos] + I[pos + 1:], J), q)
        else:
            if idx not in J:
                continue
            pos = J.index(idx)
            q = -p if (len(I) + pos) % 2 else p
            _accumulate(out, (I, J[:pos] + J[pos + 1:]), q)
    return InvariantForm(a.n, out, projected=True)


def lie_reeb(a: InvariantForm) -> InvariantForm:
    """Lie derivative along the Reeb field, via the Cartan formula."""
    return reeb_contract(d(a)) + d(reeb_contract(a))


def sphere_monomial_integral(e) -> Scalar:
    """Exact integral of v^e over the unit sphere S^(n-1), n = len(e):
    2 prod_i Gamma((e_i + 1)/2) / Gamma((|e| + n)/2), zero unless every e_i
    is even.  It is ``sphere_numerator(e)`` times ``sphere_factor(n, |e|)``."""
    num = sphere_numerator(e)
    if not num:
        return ZERO
    (power, r), = sphere_factor(len(e), sum(e)).terms.items()
    return Scalar({power: Rat(num * r.numerator, r.denominator)})


def sphere_numerator(e) -> int:
    """The part of the integral of v^e over S^(n-1) that depends on each e_i:
    prod_i (e_i - 1)!!, the odd (2m - 1)!! = (2m)! / (m! 2^m), and 0 unless
    every e_i is even.  As Gamma(m + 1/2) = (2m - 1)!! sqrt(pi) / 2^m,
    prod_i Gamma((e_i + 1)/2) is this times pi^(n/2) / 2^(|e|/2)."""
    if any(ei < 0 for ei in e):
        raise ValueError("negative exponent")
    if any(ei % 2 for ei in e):
        return 0
    return math.prod(odd_factorial(ei) for ei in e)


def odd_factorial(e) -> int:
    """(e - 1)!! of an even e >= 0, the odd (2m - 1)!! = (2m)! / (m! 2^m): the
    ``sphere_numerator`` of one variable."""
    return math.perm(e, e // 2) >> e // 2


# (n, degree) pairs whose ``sphere_factor`` is kept, least recently used
# evicted first: a pairing of low-degree forms reads a few dozen
SPHERE_FACTOR_CACHE_SIZE = 64


@lru_cache(maxsize=SPHERE_FACTOR_CACHE_SIZE)
def sphere_factor(n, degree) -> Scalar:
    """The part of the integral of v^e over S^(n-1), |e| = degree even, that
    depends on n and |e| alone: 2 pi^(n/2) / (2^(|e|/2) Gamma((|e| + n)/2)),
    a rational times pi^(n // 2), built as one fraction of integers whose
    powers of two cancel by shifts. At most SPHERE_FACTOR_CACHE_SIZE are
    kept, as the degrees follow the input."""
    t = degree + n
    if t % 2:
        den, twos = math.perm(t - 1, t // 2) >> t // 2, 1 + t // 2 - degree // 2
    else:
        den, twos = math.factorial(t // 2 - 1), 1 - degree // 2
    zeros = (den & -den).bit_length() - 1
    den, twos = den >> zeros, twos - zeros
    return Scalar({n // 2: Rat(1 << twos, den) if twos >= 0 else Rat(1, den << -twos)})


def fiber_monomial_integral(J, e) -> Scalar:
    """Exact integral of v^e dv_J over S^(n-1), n = len(e), |J| = n - 1: on
    the sphere dv_J is v_t times its volume form, t the index J omits, signed
    by putting t in front of J."""
    (t,) = _complement(J, len(e))
    w = sphere_monomial_integral(e[:t] + (e[t] + 1,) + e[t + 1:])
    return -w if _prepend_sign(J, t) < 0 else w


def hodge_star(a: InvariantForm) -> InvariantForm:
    """Hodge star for the product metric, oriented by dx_1..n ^ fiber volume."""
    n = a.n
    out = {}
    for (I, J), p in a.terms.items():
        Ic = _complement(I, n)
        Jc = _complement(J, n)
        m = len(J)
        sgn = _merge_sign(I, Ic) * _merge_sign(J, Jc)
        if ((n - len(I)) * m + m) % 2:
            sgn = -sgn
        for pos, t in enumerate(Jc):
            q = p * SpherePoly.variable(n, t)
            s2 = sgn * (-1 if pos % 2 else 1)
            if s2 < 0:
                q = -q
            _accumulate(out, (Ic, Jc[:pos] + Jc[pos + 1:]), q)
    return InvariantForm(n, out)


def _pi_terms(c):
    """(pi power, rational) pairs of an exact coefficient."""
    if isinstance(c, Scalar):
        return c.terms.items()
    if isinstance(c, _RAT_TYPES):
        return ((0, c),) if c else ()
    raise TypeError(f"exact coefficients are required, not {type(c).__name__} {c!r}")
