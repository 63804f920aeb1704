"""Contact structure of the sphere bundle and the Rumin correction.

A form omega of degree n-1 admits a unique correction alpha ^ xi making
d(omega + alpha ^ xi) a multiple of the contact form alpha.  The corrected
derivative is the basic invariant attached to omega here; the correction is
found by inverting the Lefschetz operator on horizontal forms in closed
form.  The solve is linear over Z, so it runs on the pi-graded integer parts
of omega (see ``exterior.split_pi``).
"""

from dataclasses import dataclass
from functools import lru_cache

from .exterior import (
    InvariantForm,
    VectorField,
    alpha_form,
    contract,
    contract_slot,
    d,
    fiber_integrate,
    join_pi,
    reeb_field,
    split_pi,
)

# corrections kept for reuse; one pairing with its operators needs about five
RUMIN_CACHE_SIZE = 64


@dataclass(frozen=True)
class ContactData:
    """The contact form alpha, its Reeb field, and the ambient dimension."""

    n: int
    alpha: InvariantForm
    reeb: VectorField


@lru_cache(maxsize=None)
def contact_data(n: int) -> ContactData:
    return ContactData(n=n, alpha=alpha_form(n), reeb=reeb_field(n))


@dataclass(frozen=True)
class RuminResult:
    """Corrected derivative D_omega = d(omega + alpha ^ xi) with its correction.

    ansatz_degree is the polynomial degree of xi's coefficients.
    """

    D_omega: InvariantForm
    xi: InvariantForm
    ansatz_degree: int


@lru_cache(maxsize=None)
def _pihat(n: int) -> InvariantForm:
    # d alpha is already horizontal: i_T(d alpha) = L_T(alpha) - d(alpha(T)) = 0
    return d(alpha_form(n))


def horizontal_part(a: InvariantForm) -> InvariantForm:
    """Remove the Reeb component: a - alpha ^ i_T(a)."""
    data = contact_data(a.n)
    return a - data.alpha.wedge(contract(data.reeb, a))


def dual_lefschetz(a: InvariantForm) -> InvariantForm:
    """Trace over paired base/fiber slots, adjoint to wedging with d(alpha)."""
    out = InvariantForm.zero(a.n)
    for t in range(a.n):
        out = out + contract_slot(contract_slot(a, 1, t), 0, t)
    return out


def _coeff_degree(a: InvariantForm) -> int:
    return max((p.degree() for p in a.terms.values()), default=0)


def _xi_lefschetz(f: InvariantForm):
    """Correction of an integer-coefficient form as (xi, s), meaning xi / s."""
    n = f.n
    tau = -horizontal_part(d(f))
    lam1 = dual_lefschetz(tau)
    if n in (2, 3):
        return lam1, 1
    if n == 4:
        # lam1 - pihat ^ lam2 / 4, scaled by 4 to stay integral
        return lam1 * 4 - _pihat(n).wedge(dual_lefschetz(lam1)), 4
    raise ValueError(f"unsupported dimension {n}")


def rumin(omega: InvariantForm) -> RuminResult:
    """Correction xi and corrected derivative for a form of degree n-1."""
    return _rumin_cached(omega)


@lru_cache(maxsize=RUMIN_CACHE_SIZE)
def _rumin_cached(omega: InvariantForm) -> RuminResult:
    n = omega.n
    if omega.is_zero():
        zero = InvariantForm.zero(n)
        return RuminResult(D_omega=zero, xi=zero, ansatz_degree=0)
    if omega.degree() != n - 1:
        raise ValueError(f"expected a form of degree {n - 1}, got {omega.degree()}")
    alpha = contact_data(n).alpha
    D_parts, xi_parts = {}, {}
    for k, (den, f) in split_pi(omega).items():
        xi, s = _xi_lefschetz(f)
        D = d(f * s + alpha.wedge(xi))
        if not horizontal_part(D).is_zero():
            raise ArithmeticError("correction failed to make the derivative vertical")
        D_parts[k] = (den * s, D)
        xi_parts[k] = (den * s, xi)
    xi = join_pi(n, xi_parts)
    return RuminResult(D_omega=join_pi(n, D_parts), xi=xi, ansatz_degree=_coeff_degree(xi))


def verify_zero_valuation(omega: InvariantForm, phi) -> bool:
    """True iff the pair (omega, phi) represents the zero valuation.

    Checks D(omega) + pullback of phi = 0 together with fiber_integrate(omega) = 0.
    """
    total = rumin(omega).D_omega + phi.to_invariant()
    return total.is_zero() and fiber_integrate(omega).is_zero()
