"""Contact structure of the sphere bundle and the Rumin correction.

A form omega of degree n-1 admits a unique correction alpha ^ xi making
d(omega + alpha ^ xi) a multiple of the contact form alpha.  The corrected
derivative is the basic invariant attached to omega here; the correction is
found either by inverting the Lefschetz operator on horizontal forms in
closed form or by an escalating polynomial ansatz solved exactly.
"""

from dataclasses import dataclass
from functools import lru_cache

from .exterior import (
    InvariantForm,
    SpherePoly,
    VectorField,
    alpha_form,
    contract,
    contract_slot,
    d,
    fiber_integrate,
    monomial_forms,
    reeb_field,
)
from .linalg import solve_linear
from .scalars import Rat

ANSATZ_DEGREE_CAP = 12
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
    """Corrected derivative D_omega = d(omega + alpha ^ xi) with its correction."""

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


def _xi_lefschetz(omega: InvariantForm) -> InvariantForm:
    n = omega.n
    tau = -horizontal_part(d(omega))
    lam1 = dual_lefschetz(tau)
    if n in (2, 3):
        return lam1
    if n == 4:
        lam2 = dual_lefschetz(lam1)
        return lam1 - _pihat(n).wedge(lam2) * Rat(1, 4)
    raise ValueError(f"unsupported dimension {n}")


def _xi_ansatz(omega: InvariantForm):
    n = omega.n
    dw = d(omega)
    tau = -horizontal_part(dw)
    start = _coeff_degree(dw) + 2
    last_err = None
    for deg in range(start, ANSATZ_DEGREE_CAP + 1, 2):
        basis = monomial_forms(n, n - 2, deg)
        columns = [horizontal_part(_pihat(n).wedge(b)) for b in basis]
        row_index = {}
        rows = []

        def row_for(key):
            if key not in row_index:
                row_index[key] = len(rows)
                rows.append({})
            return rows[row_index[key]]

        for col, form in enumerate(columns):
            for ij, p in form.terms.items():
                for e, c in p.terms.items():
                    row_for((ij, e))[col] = c
        rhs_map = {}
        for ij, p in tau.terms.items():
            for e, c in p.terms.items():
                rhs_map[(ij, e)] = c
        for key in rhs_map:
            row_for(key)
        rhs = [0] * len(rows)
        for key, c in rhs_map.items():
            rhs[row_index[key]] = c
        try:
            sol = solve_linear(rows, rhs, len(columns))
        except ValueError as err:
            last_err = err
            continue
        xi = InvariantForm.zero(n)
        for c, b in zip(sol, basis):
            if c:
                xi = xi + b * c
        return xi, deg
    raise ValueError(f"no solution at degree cap {ANSATZ_DEGREE_CAP}") from last_err


def rumin(omega: InvariantForm, method: str = "lefschetz") -> RuminResult:
    """Correction xi and corrected derivative for a form of degree n-1."""
    return _rumin_cached(omega, method)


@lru_cache(maxsize=RUMIN_CACHE_SIZE)
def _rumin_cached(omega: InvariantForm, method: str) -> RuminResult:
    n = omega.n
    if omega.is_zero():
        zero = InvariantForm.zero(n)
        return RuminResult(D_omega=zero, xi=zero, ansatz_degree=0)
    if omega.degree() != n - 1:
        raise ValueError(f"expected a form of degree {n - 1}, got {omega.degree()}")
    if method == "lefschetz":
        xi = _xi_lefschetz(omega)
        deg = _coeff_degree(xi)
    elif method == "ansatz":
        xi, deg = _xi_ansatz(omega)
    else:
        raise ValueError(f"unknown method {method!r}")
    corrected = omega + contact_data(n).alpha.wedge(xi)
    D = d(corrected)
    if not horizontal_part(D).is_zero():
        raise ArithmeticError("correction failed to make the derivative vertical")
    return RuminResult(D_omega=D, xi=xi, ansatz_degree=deg)


def verify_zero_valuation(omega: InvariantForm, phi) -> bool:
    """True iff the pair (omega, phi) represents the zero valuation.

    Checks D(omega) + pullback of phi = 0 together with fiber_integrate(omega) = 0.
    """
    total = rumin(omega).D_omega + phi.to_invariant()
    return total.is_zero() and fiber_integrate(omega).is_zero()
