"""Translation-invariant valuations as form pairs and their exact calculus.

A valuation is carried by a pair (omega, phi): omega an invariant form of
degree n-1 on the sphere bundle integrated over normal cycles, phi a constant
top-degree form integrated over the body.  The operators here (reflection,
derivation, signature, Laplacian) and the product pairing are all computed
exactly in Q[pi, 1/pi].
"""

import math
from dataclasses import dataclass
from itertools import combinations

from .contact import rumin
from .exterior import (
    BaseForm,
    InvariantForm,
    SpherePoly,
    _coeff_to_scalar,
    _complement,
    _merge_sign,
    contract,
    fiber_integrate,
    hodge_star,
    lie_reeb,
    pullback_antipode,
    reeb_field,
    sphere_monomial_integral,
    spherical_density,
)
from .scalars import ONE, Rat, Scalar, ZERO, gamma_half, rational


@dataclass(frozen=True)
class ValuationRep:
    """Form pair (omega, phi) representing a smooth translation-invariant valuation."""

    n: int
    omega: InvariantForm
    phi: BaseForm

    @classmethod
    def zero(cls, n: int) -> "ValuationRep":
        return cls(n, InvariantForm.zero(n), BaseForm(n))

    def __post_init__(self):
        if self.omega.n != self.n or self.phi.n != self.n:
            raise ValueError("dimension mismatch between omega, phi and n")
        if self.omega and self.omega.degree() != self.n - 1:
            raise ValueError("omega must have degree n-1")
        if any(len(I) != self.n for I in self.phi.terms):
            raise ValueError("phi must be a top-degree form")

    def __add__(self, other: "ValuationRep") -> "ValuationRep":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return ValuationRep(self.n, self.omega + other.omega, self.phi + other.phi)

    def __sub__(self, other: "ValuationRep") -> "ValuationRep":
        return self + (-other)

    def __neg__(self) -> "ValuationRep":
        return ValuationRep(self.n, -self.omega, -self.phi)

    def __mul__(self, c) -> "ValuationRep":
        return ValuationRep(self.n, self.omega * c, self.phi * c)

    __rmul__ = __mul__

    def is_exact(self) -> bool:
        """Whether no coefficient is a float (phi's are exact by construction)."""
        return not any(isinstance(c, float)
                       for p in self.omega.terms.values() for c in p.terms.values())

    def degrees(self) -> set:
        """Degrees of the nonzero homogeneous components (bidegree filtering)."""
        out = {len(I) for (I, J) in self.omega.terms}
        if self.phi.terms:
            out.add(self.n)
        return out

    def degree(self) -> int:
        degs = self.degrees()
        if len(degs) != 1:
            raise ValueError("valuation is zero or not homogeneous")
        return degs.pop()

    def degree_component(self, k: int) -> "ValuationRep":
        if k == self.n:
            return ValuationRep(self.n, InvariantForm.zero(self.n), self.phi)
        terms = {key: p for key, p in self.omega.terms.items() if len(key[0]) == k}
        omega = InvariantForm(self.n, terms, projected=True)
        return ValuationRep(self.n, omega, BaseForm(self.n))


def euler_verdier(mu: ValuationRep) -> ValuationRep:
    """Composition with the antipodal reflection: ((-1)^n s*omega, (-1)^n phi)."""
    omega = pullback_antipode(mu.omega)
    phi = mu.phi
    if mu.n % 2:
        omega = -omega
        phi = -phi
    return ValuationRep(mu.n, omega, phi)


def derivation(mu: ValuationRep) -> ValuationRep:
    """Degree-lowering derivative: (L_T omega + i_T pullback(phi), 0)."""
    T = reeb_field(mu.n)
    omega = lie_reeb(mu.omega) + contract(T, mu.phi.to_invariant())
    return ValuationRep(mu.n, omega, BaseForm(mu.n))


def signature(mu: ValuationRep) -> ValuationRep:
    """Hodge star of the corrected derivative: (star(D omega + pullback(phi)), 0)."""
    inner = rumin(mu.omega).D_omega + mu.phi.to_invariant()
    return ValuationRep(mu.n, hodge_star(inner), BaseForm(mu.n))


def laplace(mu: ValuationRep) -> ValuationRep:
    """(-1)^n times the squared signature operator."""
    out = signature(signature(mu))
    return -out if mu.n % 2 else out


def product_top(mu1: ValuationRep, mu2: ValuationRep) -> Scalar:
    """Top-degree coefficient of the product of mu1 with the reflection of mu2.

    Computed as the dx_1^...^dx_n coefficient of
    (-1)^n pi_*(omega1 ^ (D omega2 + pullback(phi2))) + phi1 ^ pi_*(omega2).
    """
    if mu1.n != mu2.n:
        raise ValueError("dimension mismatch")
    n = mu1.n
    inner = rumin(mu2.omega).D_omega + mu2.phi.to_invariant()
    first = fiber_integrate(mu1.omega.wedge(inner)).top_coefficient()
    if n % 2:
        first = -first
    second = mu1.phi.top_coefficient() * fiber_integrate(mu2.omega).terms.get((), ZERO)
    return first + second


def pairing(mu1: ValuationRep, mu2: ValuationRep) -> Scalar:
    """Exact Poincare-type pairing; zero unless degrees are complementary."""
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


def unit_cube_value(mu: ValuationRep) -> Scalar:
    """Exact value of the valuation on the unit cube.

    The normal cycle decomposes into face-times-normal-cone pieces; summing a
    fixed face span A over all positions turns each piece into a full
    subsphere integral with an orientation sign depending only on A.
    """
    n = mu.n
    total = mu.phi.top_coefficient()
    for j in range(1, n + 1):
        for B in combinations(range(n), j):
            A = _complement(B, n)
            sign = _merge_sign(A, B) * (-1 if len(A) % 2 else 1)
            acc = ZERO
            for pos, t in enumerate(B):
                p = mu.omega.terms.get((A, B[:pos] + B[pos + 1:]))
                if p is None:
                    continue
                for e, c in p.terms.items():
                    if any(e[a] for a in A):
                        continue
                    eb = tuple(e[b] for b in B)
                    eb = tuple(x + (1 if b == pos else 0) for b, x in enumerate(eb))
                    val = _as_scalar(c) * sphere_monomial_integral(eb)
                    if pos % 2:
                        val = -val
                    acc = acc + val
            if acc:
                total = total + (-acc if sign < 0 else acc)
    return total


def _as_scalar(c) -> Scalar:
    # Scalar rejects float coefficients with a TypeError
    if isinstance(c, Scalar):
        return c
    return Scalar({0: c})


def ball_volume(n: int, radius=1) -> Scalar:
    """Exact volume of the n-ball: pi^(n/2) / Gamma(n/2 + 1) times radius^n."""
    c, h = gamma_half(n + 2)
    return Scalar({(n - h) // 2: 1 / c}) * (Rat(radius) ** n)


def _ball_parts(mu: ValuationRep, radius, numeric: bool):
    """Exact and float parts of the value on a ball centered anywhere.

    The normal cycle is the graph v -> (c + radius * v, v), so dx pulls back
    to radius * dv and the integral reduces to spherical monomial integrals
    (Folland, "How to integrate a polynomial over a sphere", 2001).  With
    numeric set, float coefficients are summed in floats against the same
    exact monomial integrals; otherwise they raise TypeError like every exact
    operation.
    """
    n = mu.n
    r = Rat(radius)
    exact = mu.phi.top_coefficient() * ball_volume(n, radius)
    approx = 0.0
    for (I, J), p in mu.omega.terms.items():
        if set(I) & set(J):
            continue
        merged = tuple(sorted(I + J))
        if len(merged) != n - 1:
            continue
        part, fpart = ZERO, 0.0
        for e, c in spherical_density(n, merged, p).terms.items():
            w = sphere_monomial_integral(e)
            if numeric and isinstance(c, float):
                fpart += c * float(w)
            else:
                part = part + _coeff_to_scalar(c) * w
        scale = r ** len(I)
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
    gives float(unit_ball_value(mu, radius)) bit for bit.
    """
    exact, approx = _ball_parts(mu, radius, numeric=True)
    return float(exact) + approx


def intrinsic_volume_rep(n: int, k: int) -> ValuationRep:
    """Rotation-invariant degree-k valuation normalized to binomial(n, k) on the cube."""
    if not 0 <= k <= n:
        raise ValueError(f"k must lie in 0..{n}")
    if k == n:
        return ValuationRep(n, InvariantForm.zero(n),
                            BaseForm(n, {tuple(range(n)): ONE}))
    T = reeb_field(n)
    omega = contract(T, _invariant_top_pair(n, n - 1 - k))
    raw = ValuationRep(n, omega, BaseForm(n))
    scale = rational(math.comb(n, k)) / unit_cube_value(raw)
    return raw * scale


def klain(mu: ValuationRep, frame) -> float:
    """Klain density of an even degree-k valuation on the span of an orthonormal frame.

    Evaluates mu on a unit-volume piece of the subspace: for k = 0 the value on
    a point, otherwise k! times the value on the simplex spanned by the frame.
    """
    k = mu.degree()
    if len(frame) != k:
        raise ValueError(f"expected {k} frame vectors, got {len(frame)}")
    if k == 0:
        return float(fiber_integrate(mu.omega).terms.get((), ZERO))
    import numpy as np

    mat = np.array([[float(x) for x in f] for f in frame], dtype=float)
    if mat.shape != (k, mu.n):
        raise ValueError("frame vectors must have length n")
    if not np.allclose(mat @ mat.T, np.eye(k), atol=1e-9):
        raise ValueError("frame is not orthonormal")
    from .bodies import Simplex, evaluate

    verts = np.vstack([np.zeros(mu.n), mat])
    return evaluate(mu, Simplex(verts)) * math.factorial(k)
