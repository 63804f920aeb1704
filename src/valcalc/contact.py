"""Contact structure of the sphere bundle and the Rumin correction.

A form omega of degree n-1 admits a unique correction alpha ^ xi making
d(omega + alpha ^ xi) a multiple of the contact form alpha.  The corrected
derivative is the basic invariant attached to omega here; the correction is
found by inverting the Lefschetz operator on horizontal forms in closed
form: the horizontal part of a form drops alpha ^ i_T a, T the Reeb field
(``exterior.reeb_contract``), and the dual Lefschetz operator traces over
paired base and fiber slots (``exterior.contract_slot``).  The solve is
linear over Z, so it runs on the pi-graded integer parts of omega as sparse
vectors over monomials (see ``columns``): D and xi are each a cache of
integer columns per input block (n, |I|, |J|), ``RUMIN`` and ``RUMIN_XI``.
Each builds its columns with the dict solve, ``_lefschetz_pass``, keeping
one of its two outputs, in lane-packed passes of one monomial per orbit of
the coordinate permutations fixing the last (``columns._group``); every
pass checks, once for every column in it, that the corrected derivative
is vertical.  The solve commutes with those permutations, so every other
column of an orbit is a built one permuted, and vertical as it is.  A
solve applies the columns of D alone, which is all that the pairing and
the operators read, so only they are built there; the result
(``RuminResult``) applies xi's on first read, for the ``rumin`` command.
The lane width comes from ``_rumin_bound``, the product of the column l1
norms of the solve's steps, kept beside the solve whose steps it bounds.
In front of the columns, a bounded LRU (``_rumin_cached``,
``columns._cached_on_vectors``) keeps the result per input, keyed on the
bytes of its vectors, so a form rebuilt from the same vectors hits and no
Scalar term is hashed.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .columns import (
    _ColumnOperator,
    _alpha_norm,
    _cached_on_vectors,
    _d_norm,
    _horizontal_norm,
    _join_vectors,
    _wedge_norm,
)
from .exterior import InvariantForm, alpha_form, contract_slot, d, reeb_contract


@dataclass(frozen=True, eq=False)
class RuminResult:
    """Corrected derivative D_omega = d(omega + alpha ^ xi) with its correction.

    D_parts holds D_omega as split vectors (``columns._split_vectors``);
    parts holds omega's, from which xi_parts applies the columns of xi
    (``RUMIN_XI``) on first read, since only the correction itself (the
    ``rumin`` command) reads them.  D_omega and xi are the forms of the
    vectors (``columns._join_vectors``).  ansatz_degree is the polynomial
    degree of xi's coefficients.
    """

    n: int
    parts: dict
    D_parts: dict

    @cached_property
    def xi_parts(self) -> dict:
        return RUMIN_XI.apply(self.n, self.parts)

    @cached_property
    def D_omega(self) -> InvariantForm:
        return _join_vectors(self.n, self.D_parts)

    @cached_property
    def xi(self) -> InvariantForm:
        return _join_vectors(self.n, self.xi_parts)

    @cached_property
    def ansatz_degree(self) -> int:
        return _coeff_degree(self.xi)


@lru_cache(maxsize=None)
def _pihat(n: int) -> InvariantForm:
    # d alpha is already horizontal: i_T(d alpha) = L_T(alpha) - d(alpha(T)) = 0
    return d(alpha_form(n))


def horizontal_part(a: InvariantForm) -> InvariantForm:
    """Remove the Reeb component: a - alpha ^ i_T(a)."""
    return a - alpha_form(a.n).wedge(reeb_contract(a))


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


def _lefschetz_pass(f: InvariantForm):
    """((xi, D), s) of an integer-coefficient form, meaning xi / s and D / s.

    Raises ArithmeticError unless D is vertical.  On a lane-packed form the
    check covers every lane: each entry of horizontal_part(D) is below
    2^(B - 1) in its lane (``_rumin_bound``), so the packed sum is zero only
    when every lane is.
    """
    xi, s = _xi_lefschetz(f)
    D = d(f * s + alpha_form(f.n).wedge(xi))
    if not horizontal_part(D).is_zero():
        raise ArithmeticError("correction failed to make the derivative vertical")
    return (xi, D), s


def _rumin_bound(n, a, b, deg) -> int:
    """Bound on the entries of xi, D and horizontal_part(D) for one monomial of
    bidegree (a, b) and polynomial degree <= deg: the product of the column l1
    norms of the steps of _lefschetz_pass.  d and the projection raise the
    degree by at most one, i_T and alpha ^ by one, pihat ^ by two.
    """
    lam1 = _d_norm(n, b, deg) * _horizontal_norm(n, a) * min(a, b + 1)
    s, xi, xi_deg = 1, lam1, deg + 3
    if n == 4:
        s, xi, xi_deg = 4, 4 * lam1 + _wedge_norm(_pihat(n)) * min(a - 1, b) * lam1, deg + 5
    D = _d_norm(n, b, max(deg, xi_deg + 1)) * (s + _alpha_norm(n, a - 1) * xi)
    return max(xi, D, _horizontal_norm(n, a) * D)


def _rumin_output(j, out) -> _ColumnOperator:
    """Output j of _lefschetz_pass alone, as columns into the blocks out(n, a, b)."""
    def build(f):
        outputs, s = _lefschetz_pass(f)
        return outputs[j], s

    return _ColumnOperator(build, _rumin_bound, out)


RUMIN_XI = _rumin_output(0, lambda n, a, b: (a - 1, b))
RUMIN = _rumin_output(1, lambda n, a, b: (a, b + 1))


def rumin(omega: InvariantForm) -> RuminResult:
    """Correction xi and corrected derivative for a form of degree n-1.

    The integer columns it builds stay cached for the life of the process,
    one per monomial seen: D's (``RUMIN``) on the solve, xi's (``RUMIN_XI``)
    when the result's xi is first read, the dict solve run for one monomial
    per orbit of the coordinate permutations.  Monomials whose column bound
    needs lanes past 64 bits run the dict solve instead, once for D and
    once more for xi.
    """
    n = omega.n
    if omega and omega.degree() != n - 1:
        raise ValueError(f"expected a form of degree {n - 1}, got {omega.degree()}")
    return _rumin_cached(omega)


@_cached_on_vectors
def _rumin_cached(n, parts) -> RuminResult:
    """The Rumin solve of a split form."""
    if any(vals.dtype.kind == "f" for _, blocks in parts.values() for _, vals in blocks.values()):
        raise TypeError("the Rumin solve requires exact coefficients, not floats")
    return RuminResult(n, parts, RUMIN.apply(n, parts))
