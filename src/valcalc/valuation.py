"""Translation-invariant valuations as form pairs and their exact calculus.

A valuation is carried by a pair (omega, phi): omega an invariant form of
degree n-1 on the sphere bundle integrated over normal cycles, phi a constant
top-degree form integrated over the body.  Translation invariance makes phi a
constant times dx_1^...^dx_n, so a rep stores that constant, a Scalar.  The
operators here (reflection, derivation, signature, Laplacian) and the product
pairing run on the pi-graded parts of the forms as sparse vectors over
monomials (``columns._split_vectors``): every operator involved is linear
over Z, and applies as cached integer columns (see ``columns``), exactly in
Q[pi, 1/pi] on integer parts and in floats on the float64 part of a float
rep.  The pairing contracts two integer vectors against the closed-form
integrals of sphere monomials, each a rational times pi^(n // 2)
(``columns.pair_top``); it and the Rumin-based operators reject floats.
The value on a ball reads the split vectors too.  Evaluation on other
bodies, and the Klain density read from it, live in ``bodies``.
"""

import math
from dataclasses import dataclass
from itertools import combinations, groupby

from .columns import (
    HODGE,
    LIE_REEB,
    _add_vectors,
    _antipode_vectors,
    _join_vectors,
    _ordered_terms,
    _split_vectors,
    pair_top,
)
from .contact import rumin
from .exterior import (
    InvariantForm,
    SpherePoly,
    _complement,
    _merge_sign,
    fiber_monomial_integral,
    reeb_contract,
)
from .scalars import ONE, Rat, Scalar, ZERO, gamma_half, rational


@dataclass(frozen=True)
class ValuationRep:
    """Form pair (omega, phi) representing a smooth translation-invariant valuation.

    phi is the coefficient of dx_1^...^dx_n.
    """

    n: int
    omega: InvariantForm
    phi: Scalar = ZERO

    @classmethod
    def zero(cls, n: int) -> "ValuationRep":
        return cls(n, InvariantForm.zero(n))

    def __post_init__(self):
        if self.omega.n != self.n:
            raise ValueError("dimension mismatch between omega and n")
        if self.omega and self.omega.degree() != self.n - 1:
            raise ValueError("omega must have degree n-1")
        if not isinstance(self.phi, Scalar):
            raise TypeError(f"phi must be a Scalar, not {type(self.phi).__name__}")

    def __add__(self, other: "ValuationRep") -> "ValuationRep":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return ValuationRep(self.n, self.omega + other.omega, self.phi + other.phi)

    def __sub__(self, other: "ValuationRep") -> "ValuationRep":
        return self + (-other)

    def __neg__(self) -> "ValuationRep":
        return ValuationRep(self.n, -self.omega, -self.phi)

    def __mul__(self, c) -> "ValuationRep":
        # a zero phi stays exact, so float reps scale by floats
        return ValuationRep(self.n, self.omega * c, self.phi * c if self.phi else ZERO)

    __rmul__ = __mul__

    def is_exact(self) -> bool:
        """Whether no coefficient is a float (phi's are exact by construction)."""
        return self.omega.is_exact()

    def degrees(self) -> set:
        """Degrees of the nonzero homogeneous components (bidegree filtering)."""
        out = {a for a, _ in self.omega._bidegrees()}
        if self.phi:
            out.add(self.n)
        return out

    def degree(self) -> int:
        degs = self.degrees()
        if len(degs) != 1:
            raise ValueError("valuation is zero or not homogeneous")
        return degs.pop()


def euler_verdier(mu: ValuationRep) -> ValuationRep:
    """Composition with the antipodal reflection: ((-1)^n s*omega, (-1)^n phi)."""
    sign = -1 if mu.n % 2 else 1
    parts = _split_vectors(mu.omega)
    image = _antipode_vectors(mu.n, parts, sign)
    if image is parts and (sign > 0 or not mu.phi):
        return mu
    omega = mu.omega if image is parts else _join_vectors(mu.n, image)
    return ValuationRep(mu.n, omega, -mu.phi if sign < 0 else mu.phi)


def derivation(mu: ValuationRep) -> ValuationRep:
    """Degree-lowering derivative: (L_T omega + i_T pullback(phi), 0)."""
    n = mu.n
    parts = LIE_REEB.apply(n, _split_vectors(mu.omega))
    if mu.phi:
        parts = _add_vectors(n, parts, _split_vectors(reeb_contract(_phi_form(mu))))
    return ValuationRep(n, _join_vectors(n, parts))


def _phi_form(mu: ValuationRep) -> InvariantForm:
    """phi * dx_1^...^dx_n, pulled back to the sphere bundle."""
    top = {(tuple(range(mu.n)), ()): SpherePoly.constant(mu.n, mu.phi)}
    return InvariantForm(mu.n, top, projected=True)


def _inner_parts(mu: ValuationRep) -> dict:
    """Split vectors of D(omega) + pullback(phi); raises TypeError on floats."""
    parts = rumin(mu.omega).D_parts
    return _add_vectors(mu.n, parts, _split_vectors(_phi_form(mu))) if mu.phi else parts


def signature(mu: ValuationRep) -> ValuationRep:
    """Hodge star of the corrected derivative: (star(D omega + pullback(phi)), 0)."""
    parts = HODGE.apply(mu.n, _inner_parts(mu))
    return ValuationRep(mu.n, _join_vectors(mu.n, parts))


def laplace(mu: ValuationRep) -> ValuationRep:
    """(-1)^n times the squared signature operator."""
    out = signature(signature(mu))
    return -out if mu.n % 2 else out


def product_top(mu1: ValuationRep, mu2: ValuationRep) -> Scalar:
    """Top-degree coefficient of the product of mu1 with the reflection of mu2.

    Computed as the dx_1^...^dx_n coefficient of
    (-1)^n pi_*(omega1 ^ (D omega2 + pullback(phi2))) + phi1 ^ pi_*(omega2),
    where the degree-0 part of pi_*(omega2) is mu2's value on a point.
    """
    if mu1.n != mu2.n:
        raise ValueError("dimension mismatch")
    n = mu1.n
    first = pair_top(n, mu1.omega, _inner_parts(mu2))
    if n % 2:
        first = -first
    if not mu1.phi:
        return first
    return first + mu1.phi * unit_ball_value(mu2, 0)


def pairing(mu1: ValuationRep, mu2: ValuationRep) -> Scalar:
    """Exact Poincare-type pairing; zero unless degrees are complementary.

    The forms' vectors are contracted at any polynomial degree
    (``columns.pair_top``).
    """
    if mu1.n != mu2.n:
        raise ValueError("dimension mismatch")
    if not (mu1.is_exact() and mu2.is_exact()):
        raise TypeError("pairing requires exact coefficients, not floats")
    d1, d2 = mu1.degrees(), mu2.degrees()
    if len(d1) <= 1 and len(d2) <= 1:
        if not d1 or not d2 or d1.pop() + d2.pop() != mu1.n:
            return ZERO
    return product_top(mu1, euler_verdier(mu2))


def _invariant_top_pair(n: int, m: int) -> InvariantForm:
    """Rotation-invariant n-form combining complementary dx and dv blocks."""
    terms = {}
    for J in combinations(range(n), m):
        I = _complement(J, n)
        terms[(I, J)] = SpherePoly.constant(n, _merge_sign(I, J))
    return InvariantForm(n, terms)


def ball_volume(n: int, radius=1) -> Scalar:
    """Exact volume of the n-ball: pi^(n/2) / Gamma(n/2 + 1) times radius^n."""
    c, h = gamma_half(n + 2)
    return Scalar({(n - h) // 2: 1 / c}) * (Rat(radius) ** n)


def _ball_parts(mu: ValuationRep, radius, numeric: bool):
    """Exact and float parts of the value on a ball centered anywhere.

    The normal cycle is the graph v -> (c + radius * v, v), so dx pulls back
    to radius * dv and the integral reduces to spherical monomial integrals
    (Folland, "How to integrate a polynomial over a sphere", 2001), over the
    monomials in ``columns._ordered_terms`` order.  Exact grades are summed
    exactly; with numeric set the float grade is summed in floats against the
    same exact integrals, otherwise it raises TypeError like every exact
    operation.
    """
    n = mu.n
    r = Rat(radius)
    exact = mu.phi * ball_volume(n, radius)
    approx = 0.0
    monomials = _ordered_terms(n, _split_vectors(mu.omega), False)
    for (I, J), group in groupby(monomials, key=lambda term: term[:2]):
        scale = r ** len(I)
        if not scale or set(I) & set(J):
            continue
        merged = tuple(sorted(I + J))
        part, fpart = ZERO, 0.0
        for *_, e, coef in group:
            w = fiber_monomial_integral(merged, e)
            if not w:
                continue
            for k, c in coef.items():
                if numeric and isinstance(c, float):
                    fpart += c * float(w)  # a float lies in grade 0, so pi^k = 1
                else:
                    part = part + Scalar({k: c}) * w
        part = part * scale
        fpart *= float(scale)
        if _merge_sign(I, J) < 0:
            part, fpart = -part, -fpart
        exact = exact + part
        approx += fpart
    return exact, approx


def unit_ball_value(mu: ValuationRep, radius=1) -> Scalar:
    """Exact value on a ball of rational radius centered anywhere."""
    return _ball_parts(mu, radius, numeric=False)[0]


def ball_value(mu: ValuationRep, radius) -> float:
    """Value on a ball as a float, for exact and float coefficients alike.

    Exact coefficients are summed exactly and rounded once, so an exact rep
    gives float(unit_ball_value(mu, radius)) bit for bit.  At radius 0 it is
    the value on a point, the sum of a polytope's vertex pieces, which
    ``bodies._integrate_forms`` adds in their place and ``bodies.klain``
    takes for k = 0.
    """
    exact, approx = _ball_parts(mu, radius, numeric=True)
    return float(exact) + approx


def intrinsic_volume_rep(n: int, k: int) -> ValuationRep:
    """The k-th intrinsic volume V_k, exactly.

    The rotation-invariant degree-k rep is normalized by its value on the
    unit ball, V_k(B^n) = binomial(n, k) ball_volume(n) / ball_volume(n - k);
    V_k is binomial(n, k) on the unit cube.
    """
    if not 0 <= k <= n:
        raise ValueError(f"k must lie in 0..{n}")
    if k == n:
        return ValuationRep(n, InvariantForm.zero(n), ONE)
    raw = ValuationRep(n, reeb_contract(_invariant_top_pair(n, n - 1 - k)))
    ball = rational(math.comb(n, k)) * ball_volume(n) / ball_volume(n - k)
    return raw * (ball / unit_ball_value(raw))

