"""The pi-graded integer core against the same formulas on Scalar coefficients.

valcalc splits a form once into parts {pi power: (denominator, int part)},
each part a sparse integer vector over monomials, runs the Z-linear
operators on the parts and joins the result.  The references in
tests/_oracles.py run the Lefschetz solve and the operators on Scalar
coefficients; on forms that mix pi powers and unlike denominators the two
must agree exactly.
"""

import random

import numpy as np
import pytest

from _oracles import (
    derivation_reference,
    pairing_reference,
    random_form,
    random_rational,
    rumin_reference,
    signature_reference,
    split_pi,
)
from valcalc.columns import _join_vectors, _split_vectors
from valcalc.contact import rumin
from valcalc.scalars import Scalar
from valcalc.valuation import ValuationRep, derivation, laplace, pairing, signature

PI_POWERS = (-1, 0, 2)
DEN = 10  # denominators drawn from 1..9


def graded_form(rng, n, deg):
    return random_form(rng, n, deg, pi_powers=PI_POWERS, den=DEN)


def graded_valuation(rng, n):
    top = Scalar({k: random_rational(rng, den=DEN) for k in PI_POWERS})
    return ValuationRep(n, graded_form(rng, n, n - 1), top)


@pytest.mark.parametrize("n", [2, 3, 4])
class TestGradedCore:
    def test_split_join_round_trip(self, n):
        rng = random.Random(800 + n)
        for deg in range(2 * n):
            a = graded_form(rng, n, deg)
            parts = _split_vectors(a)
            assert set(parts) <= set(PI_POWERS)
            for den, blocks in parts.values():
                assert type(den) is int and den > 0
                assert all(vals.dtype == np.int64 for _, vals in blocks.values())
            joined = _join_vectors(n, parts)
            assert joined == a
            assert split_pi(joined) == split_pi(a)

    def test_rumin_matches_reference(self, n):
        rng = random.Random(810 + n)
        for _ in range(3):
            omega = graded_form(rng, n, n - 1)
            xi, D = rumin_reference(omega)
            res = rumin(omega)
            assert res.xi == xi
            assert res.D_omega == D

    def test_operators_match_reference(self, n):
        rng = random.Random(820 + n)
        for _ in range(2):
            mu, nu = graded_valuation(rng, n), graded_valuation(rng, n)
            assert signature(mu).omega == signature_reference(mu).omega
            assert derivation(mu).omega == derivation_reference(mu).omega
            assert pairing(mu, nu) == pairing_reference(mu, nu)
            assert pairing(laplace(mu), nu) == pairing_reference(
                signature_reference(signature_reference(mu)) * (-1) ** n, nu)
