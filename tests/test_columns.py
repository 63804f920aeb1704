"""The exact operators as cached integer columns on monomial coordinates.

valcalc applies the Rumin solve, the Hodge star, the Lie derivative along the
Reeb field and the antipode to the pi-graded integer parts of a form as sparse
vectors over monomials (I, J, v^e): one integer column per monomial, built by
the dict operators in lane-packed passes.  These tests hold the column path to
the dict operators on Scalar coefficients (tests/_oracles.py), a batch build
to columns built one monomial at a time, the lane width to measured column
norms, and the caches to the monomials of their blocks.
"""

import itertools
import math
import random

import numpy as np
import pytest

from _oracles import (
    derivation_reference,
    fiber_integral,
    join_pi,
    pairing_reference,
    pullback_antipode,
    random_sphere_poly,
    rumin_reference,
    signature_reference,
    split_pi,
    stated_z_form,
)
from valcalc import columns, contact, valuation
from valcalc.columns import (
    FORM_CACHE_SIZE,
    HODGE,
    LIE_REEB,
    _alpha_norm,
    _d_norm,
    _hodge_bound,
    _horizontal_norm,
    _lane_bits,
    _lie_bound,
    _reeb_norm,
    _split_vectors,
    _wedge_norm,
)
from valcalc.contact import (
    RUMIN,
    RUMIN_XI,
    _lefschetz_pass,
    _pihat,
    _rumin_bound,
    dual_lefschetz,
    rumin,
)
from valcalc.exterior import (
    SPHERE_FACTOR_CACHE_SIZE,
    InvariantForm,
    SpherePoly,
    _complement,
    alpha_form,
    d,
    hodge_star,
    lie_reeb,
    reeb_contract,
    sphere_factor,
)
from valcalc.scalars import ZERO, Rat, Scalar
from valcalc.bodies import Ball, Box, Simplex, evaluate
from valcalc.su2 import (
    ImDirection,
    icosahedron_directions,
    su2_basis,
    tasaki_density,
    z_rep,
)
from valcalc.valuation import (
    ValuationRep,
    derivation,
    euler_verdier,
    intrinsic_volume_rep,
    laplace,
    pairing,
    signature,
)

PI_POWERS = (-1, 1)
# every bidegree (|I|, |J|) of a form of degree n - 1
BIDEGREES = [(n, a) for n in (2, 3, 4) for a in range(n)]
MAX_DEGREE = 4  # polynomial degree of the random forms


def bidegree_form(rng, n, a, deg=MAX_DEGREE, nterms=3, pi_powers=PI_POWERS):
    """Random form of bidegree (a, n - 1 - a), two pi grades, degree <= deg."""
    terms = {}
    for _ in range(nterms):
        I = tuple(sorted(rng.sample(range(n), a)))
        J = tuple(sorted(rng.sample(range(n), n - 1 - a)))
        terms[(I, J)] = random_sphere_poly(rng, n, deg, nterms=3, pi_powers=pi_powers, den=6)
    return InvariantForm(n, terms)


def graded_rep(rng, n, a):
    top = Scalar({k: rng.randrange(1, 7) for k in PI_POWERS})
    return ValuationRep(n, bidegree_form(rng, n, a), top)


def monomial(n, I, J, e, c=1):
    return InvariantForm(n, {(I, J): SpherePoly._canonical(n, {e: c})}, projected=True)


def l1(form):
    return sum(abs(c) for p in form.terms.values() for c in p.terms.values())


def exponents(n, deg):
    """Canonical exponents (last one at most 1) of total degree deg."""
    return [e for e in itertools.product(range(deg + 1), repeat=n)
            if sum(e) == deg and e[-1] <= 1]


def block_monomials(n, a, b, deg):
    return [(I, J, e) for I in itertools.combinations(range(n), a)
            for J in itertools.combinations(range(n), b) for e in exponents(n, deg)]


def column(cols, i):
    """Column of source id i, as {output id: entry}."""
    c = cols.slot[i]
    start, size = cols.start[c], cols.size[c]
    return dict(zip(cols.rows[start:start + size].tolist(),
                    cols.vals[start:start + size].tolist()))


def permutation_sign(seq):
    return -1 if sum(x > y for x, y in itertools.combinations(seq, 2)) % 2 else 1


def permuted_key(n, p, I, J, e):
    """(sign, key) of p (v^e dx_I ^ dv_J) for a permutation p of range(n):
    v^e goes to v^f with f[p[t]] = e[t], and dx_I ^ dv_J to dx_pI ^ dv_pJ,
    sorted with the sign of each sort."""
    pI, pJ = [p[i] for i in I], [p[j] for j in J]
    f = [0] * n
    for t in range(n):
        f[p[t]] = e[t]
    return (permutation_sign(pI) * permutation_sign(pJ),
            (tuple(sorted(pI)), tuple(sorted(pJ)), tuple(f)))


def permuted(form, p):
    """p applied to a form, monomial by monomial (``permuted_key``)."""
    n = form.n
    terms = {}
    for (I, J), poly in form.terms.items():
        for e, c in poly.terms.items():
            s, (I2, J2, f) = permuted_key(n, p, I, J, e)
            terms.setdefault((I2, J2), {})[f] = s * c
    return InvariantForm(n, {key: SpherePoly._canonical(n, t) for key, t in terms.items()},
                         projected=True)


def coordinate_permutations(n):
    """S_(n-1): the permutations of the coordinates 0..n-2, n - 1 fixed."""
    return [p + (n - 1,) for p in itertools.permutations(range(n - 1))]


def orbit(n, I, J, e):
    """The distinct monomials of the orbit of v^e dx_I ^ dv_J under S_(n-1),
    the monomial itself first."""
    out = []
    for p in coordinate_permutations(n):
        key = permuted_key(n, p, I, J, e)[1]
        if key not in out:
            out.append(key)
    return out


@pytest.mark.parametrize("n, a", BIDEGREES)
class TestAgainstDictPath:
    def test_rumin(self, n, a):
        rng = random.Random(900 + 10 * n + a)
        for _ in range(2):
            omega = bidegree_form(rng, n, a)
            xi, D = rumin_reference(omega)
            res = rumin(omega)
            assert res.xi == xi
            assert res.D_omega == D

    def test_operators(self, n, a):
        rng = random.Random(950 + 10 * n + a)
        mu = graded_rep(rng, n, a)
        nu = graded_rep(rng, n, n - 1 - a)
        sig = signature_reference(mu)
        assert signature(mu).omega == sig.omega
        assert laplace(mu).omega == (signature_reference(sig) * (-1) ** n).omega
        assert derivation(mu).omega == derivation_reference(mu).omega
        reflected = euler_verdier(mu)
        assert reflected.omega == pullback_antipode(mu.omega) * (-1) ** n
        assert reflected.phi == mu.phi * (-1) ** n
        # phi makes both reps of mixed degree, so the full product is taken
        assert pairing(mu, nu) == pairing_reference(mu, nu)
        assert pairing(nu, mu) == pairing_reference(nu, mu)


class TestFloatVectors:
    # a float rep's omega is split vectors of float64 values in grade 0 over
    # den 1, and the operators apply the same integer columns to them
    BODIES = {
        "box": Box(np.array([0.1, 0.0, -0.2, 0.3]), np.array([0.45, 0.55, 0.35, 0.6])),
        "simplex": Simplex([[0, 0, 0, 0], [1.1, 0, 0, 0], [0.2, 0.9, 0, 0],
                            [0.1, 0.2, 1, 0], [0.3, 0.1, 0.2, 0.8]]),
    }

    def test_icosahedron_vectors_are_the_dict_coefficients(self):
        # T m(u) / 8 / pi gives the dict path's coefficients bit for bit
        keys = columns._block(4, 2, 1).keys
        for u in icosahedron_directions():
            parts = z_rep(u).omega._parts
            assert list(parts) == [0] and parts[0][0] == 1
            (ids, vals), = parts[0][1].values()
            assert vals.dtype == np.float64
            ref = -stated_z_form(u)
            assert {keys[i]: c for i, c in zip(ids.tolist(), vals.tolist())} == \
                {(I, J, e): c for (I, J), p in ref.terms.items() for e, c in p.terms.items()}

    @pytest.mark.parametrize("body", list(BODIES))
    def test_float_twin_agrees_with_exact(self, body):
        K = self.BODIES[body]
        zf, ze = z_rep(ImDirection.of(0.6, 0.8, 0.0)), z_rep(ImDirection.of(3, 4, 0))
        ops = {"Z_u": lambda mu: mu, "Lambda": derivation, "sigma": euler_verdier,
               "Lambda sigma": lambda mu: derivation(euler_verdier(mu))}
        for name, op in ops.items():
            a, b = op(zf), op(ze)
            assert not a.is_exact() and b.is_exact(), name
            assert abs(evaluate(a, K) - evaluate(b, K)) < 1e-12, name
            exact = {(key, e): float(c) for key, p in b.omega.terms.items()
                     for e, c in p.terms.items()}
            approx = {(key, e): c for key, p in a.omega.terms.items() for e, c in p.terms.items()}
            assert approx.keys() == exact.keys(), name
            assert max(abs(approx[m] - exact[m]) for m in exact) < 1e-12, name

    def test_derivation_of_a_sum_of_float_reps(self):
        reps = [rep for label, rep in su2_basis("icosahedron") if label.startswith("Z_u")]
        total = reps[0] + reps[3] * 0.5
        lowered = derivation(total)
        assert not lowered.is_exact() and lowered.degree() == 1
        ref = lie_reeb(total.omega)
        got = lowered.omega.terms
        assert got.keys() == ref.terms.keys()
        for key, p in ref.terms.items():
            assert p.terms.keys() == got[key].terms.keys()
            assert all(abs(got[key].terms[e] - c) < 1e-15 for e, c in p.terms.items())
        K = self.BODIES["box"]
        apart = evaluate(derivation(reps[0]), K) + 0.5 * evaluate(derivation(reps[3]), K)
        assert abs(evaluate(lowered, K) - apart) < 1e-12

    def test_float_and_integer_parts_add_to_float64(self):
        (ids, _), = z_rep(icosahedron_directions()[0]).omega._parts[0][1].values()
        f = {0: (1, {(2, 1): (ids[:2], np.array([0.5, 0.25]))})}
        i = {0: (3, {(2, 1): (ids[:1], np.array([1], np.int64))})}
        # the exact 1/3 is rounded once, and the grade is float64 over 1
        for p, q in ((f, i), (i, f)):
            (den, blocks), = columns._add_vectors(4, p, q).values()
            (got_ids, vals), = blocks.values()
            assert den == 1 and vals.dtype == np.float64
            assert dict(zip(got_ids.tolist(), vals.tolist())) == \
                {ids[0]: 0.5 + 1 / 3, ids[1]: 0.25}
        sum_form = columns._join_vectors(4, columns._add_vectors(4, f, i))
        coeffs = [c for p in sum_form.terms.values() for c in p.terms.values()]
        assert sorted(coeffs) == [0.25, 0.5 + 1 / 3]

    def test_float_plus_exact_grade_keeps_the_float_bits(self):
        # Z_u's float grade 0 plus V_3 / 3, whose grade 0 is exact over 6
        zu = z_rep(icosahedron_directions()[0]).omega
        total = zu + intrinsic_volume_rep(4, 3).omega * Rat(1, 3)
        den, blocks = total._parts[0]
        assert den == 1 and all(vals.dtype == np.float64 for _, vals in blocks.values())
        (ids, vals), = zu._parts[0][1].values()
        assert len(ids) == 36
        got = dict(zip(*(a.tolist() for a in blocks[(2, 1)])))
        assert [got[i].hex() for i in ids.tolist()] == [c.hex() for c in vals.tolist()]


    @pytest.mark.parametrize("body", list(BODIES))
    def test_float_plus_exact_sum(self, body):
        # the sum adds on the vectors: the float grade 0 and the exact grade
        # -1 side by side, read as floats
        K = self.BODIES[body]
        zf, ze = z_rep(ImDirection.of(0.6, 0.8, 0.0)), z_rep(ImDirection.of(3, 4, 0))
        total = zf + ze
        assert sorted(total.omega._parts) == [-1, 0] and not total.is_exact()
        assert all(vals.dtype == np.float64 for _, vals in total.omega._parts[0][1].values())
        assert {c.__class__ for p in total.omega.terms.values() for c in p.terms.values()} == {float}
        assert abs(evaluate(total, K) - (evaluate(zf, K) + evaluate(ze, K))) < 1e-12
        ball = Ball(np.array([0.1, -0.2, 0.0, 0.3]), 0.8)
        assert abs(evaluate(total, ball) - 2 * math.pi * 0.64) < 1e-12

    def test_images_of_float_vectors_ignore_the_input_order(self):
        # each output entry sums the input in sorted monomial order, however
        # the input's ids are ordered
        (ids, vals), = z_rep(icosahedron_directions()[2]).omega._parts[0][1].values()
        rng = np.random.default_rng(3)
        w_ids, w_vals = LIE_REEB.columns(4, 2, 1).apply(ids, vals)
        for _ in range(3):
            order = rng.permutation(len(ids))
            g_ids, g_vals = LIE_REEB.columns(4, 2, 1).apply(ids[order], vals[order])
            assert g_ids.tolist() == w_ids.tolist()
            assert [x.hex() for x in g_vals.tolist()] == [x.hex() for x in w_vals.tolist()]


class TestOrderedTerms:
    def test_sorted_order_and_exact_grades(self):
        # a form of two pi grades over their denominators
        rng = random.Random(61)
        omega = bidegree_form(rng, 4, 2, pi_powers=(-1, 0))
        parts = _split_vectors(omega)
        assert len(parts) == 2
        terms = list(columns._ordered_terms(4, parts, False))
        keys = [(I, J, e) for I, J, e, _ in terms]
        assert keys == sorted(keys)
        assert {(I, J, e): Scalar(c) for I, J, e, c in terms} == \
            {(I, J, e): c for (I, J), p in omega.terms.items() for e, c in p.terms.items()}
        assert all(list(c) == sorted(c) for *_, c in terms)
        floats = list(columns._ordered_terms(4, parts, True))
        assert [t[:3] for t in floats] == keys
        assert [c for *_, c in floats] == [float(Scalar(c)) for *_, c in terms]

    def test_float_grade(self):
        parts = z_rep(icosahedron_directions()[1]).omega._parts
        (ids, vals), = parts[0][1].values()
        keys = columns._block(4, 2, 1).keys
        want = sorted((keys[i], c) for i, c in zip(ids.tolist(), vals.tolist()))
        for numeric in (False, True):
            got = [((I, J, e), c) for I, J, e, c in columns._ordered_terms(4, parts, numeric)]
            assert got == [(key, c if numeric else {0: c}) for key, c in want]


class TestPythonInts:
    def test_entries_past_int64(self):
        rng = random.Random(31)
        omega = bidegree_form(rng, 4, 2) * (2 ** 70 + 1)
        parts = _split_vectors(omega)
        assert any(vals.dtype == object for _, blocks in parts.values()
                   for _, vals in blocks.values())
        xi, D = rumin_reference(omega)
        assert rumin(omega).D_omega == D and rumin(omega).xi == xi
        mu = ValuationRep(4, omega)
        nu = ValuationRep(4, bidegree_form(rng, 4, 2), Scalar({1: 3}))
        assert pairing(nu, mu) == pairing_reference(nu, mu)
        assert signature(mu).omega == signature_reference(mu).omega

    def test_products_past_int64(self):
        # every entry fits in int64, but a column times an entry does not
        rng = random.Random(32)
        omega = bidegree_form(rng, 4, 2, pi_powers=(0,)) * (2 ** 55 + 1)
        (_, (_, blocks)), = _split_vectors(omega).items()
        assert all(vals.dtype == np.int64 for _, vals in blocks.values())
        assert rumin(omega).D_omega == rumin_reference(omega)[1]


    def test_contraction_products_past_int64(self, monkeypatch):
        # both vectors the contraction reads hold int64 entries, but their
        # products pass 2^63: the integer pass sums them in Python ints
        rng = random.Random(34)
        big = 2 ** 36 + 1
        mu, nu = graded_rep(rng, 4, 2), graded_rep(rng, 4, 2)
        seen, contract = [], columns._top_contract

        def spy(n, ab, x, y):
            seen.append((x[1].dtype, y[1].dtype, columns._maxabs(x[1]) * columns._maxabs(y[1])))
            return contract(n, ab, x, y)

        monkeypatch.setattr(columns, "_top_contract", spy)
        value = pairing(mu * big, nu * big)
        assert all(dx == dy == np.int64 for dx, dy, _ in seen)
        assert max(top for _, _, top in seen) >= 1 << 63
        assert value == pairing(mu, nu) * Scalar({0: big * big}) == pairing_reference(mu * big, nu * big)

    def test_contraction_sum_past_int64(self):
        # 48 products of degree 2 and numerator 1, each 2^62, all of one
        # sign: no product passes 2^63 but their sum does, so the integer
        # pass must bound its sums by the weights' sum, not their largest
        n, (a, b), c = 4, (1, 2), 2 ** 31
        zero = (0,) * n
        xs = [(I, J, zero) for I in itertools.combinations(range(n), a)
              for J in itertools.combinations(range(n), b)]
        ys, y = [], []
        for I, J, _ in xs:
            for t in _complement(J, n):
                key = (_complement(I, n), tuple(j for j in _complement(J, n) if j != t),
                       tuple(int(i == t) for i in range(n)))
                one = columns._form(n, [(I, J, zero)], [1]).wedge(columns._form(n, [key], [1]))
                ys.append(key)
                y.append(c if float(fiber_integral(one)[tuple(range(n))]) > 0 else -c)
        bx, by = columns._block(n, a, b), columns._block(n, n - a, n - 1 - b)
        ix = np.array([bx.id(key) for key in xs], np.int64)
        iy = np.array([by.id(key) for key in ys], np.int64)
        got = columns._top_contract(n, (a, b), (ix, np.full(len(xs), c, np.int64)),
                                    (iy, np.array(y, np.int64)))
        top = fiber_integral(columns._form(n, xs, [c] * len(xs)).wedge(
            columns._form(n, ys, y)))[tuple(range(n))]
        assert len(ys) == 48 and Scalar(got) == top

    def test_rescaled_entries_past_int64(self):
        # int64 entries near 2^62 whose sum with phi, over denominator 7,
        # rescales them past 2^63: in derivation and in D(omega) + phi
        rng = random.Random(33)
        n, big = 4, 2 ** 60 + 1
        terms = {}
        for _ in range(3):
            I = tuple(sorted(rng.sample(range(n), 2)))
            J = tuple(sorted(rng.sample(range(n), 1)))
            terms[(I, J)] = SpherePoly(n, {e: Scalar({0: rng.choice((-3, -1, 1, 2, 3)) * big})
                                           for e in rng.sample(exponents(n, 3), 3)})
        omega = InvariantForm(n, terms)
        (_, (_, blocks)), = _split_vectors(omega).items()
        assert all(vals.dtype == np.int64 for _, vals in blocks.values())
        mu = ValuationRep(n, omega, Scalar({0: Rat(1, 7)}))
        nu = graded_rep(rng, n, 1)
        assert derivation(mu).omega == derivation_reference(mu).omega
        assert signature(mu).omega == signature_reference(mu).omega
        assert pairing(nu, mu) == pairing_reference(nu, mu)
        assert pairing(mu, nu) == pairing_reference(mu, nu)

    def test_int64_entries_stay_below_bound(self):
        safe = columns.INT64_SAFE
        near = np.array([safe - 1, -3], np.int64)
        assert columns._rescale(near, 7).tolist() == [7 * (safe - 1), -21]
        assert columns._fit(near).dtype == np.int64
        assert columns._fit(np.array([safe, 1], np.int64)).dtype == object
        assert columns._fit([1, -safe]).dtype == object
        assert columns._fit(np.array([safe - 1, 2 ** 70], object)[:1]).dtype == np.int64
        # an int64 column apply whose result reaches INT64_SAFE hands back
        # Python ints: a toy operator, twice its input, with entries 2
        double = columns._ColumnOperator(lambda f: (f * 2, 1), lambda n, a, b, deg: 2,
                                         lambda n, a, b: (a, b))
        omega = monomial(4, (0, 1), (2,), (1, 0, 0, 0), 2 ** 61 + 1)
        parts = double.apply(4, _split_vectors(omega))
        (_, (_, blocks)), = parts.items()
        (_, vals), = blocks.values()
        assert vals.dtype == object and vals.tolist() == [2 ** 62 + 2]


def past_int64_fields():
    """A valuation with v1^(2^15), whose contraction codes are Python ints,
    and one it pairs with to nonzero."""
    high = ValuationRep(4, InvariantForm(4, {((0, 1, 2), ()): SpherePoly(4, {
        (1 << 15, 0, 1, 0): Scalar({0: Rat(2, 3)}), (1, 1, 0, 0): Scalar({-1: Rat(5)})})}))
    low = ValuationRep(4, InvariantForm(4, {((2,), (0, 1)): SpherePoly(4, {
        (0, 0, 1, 0): Scalar({1: Rat(3, 7)})})}))
    return high, low


class TestLimits:
    """Inputs past the column path's limits: the Rumin solve takes the dict
    operator, and the pairing packs exponents in wider fields."""

    def test_rumin_past_int64_lanes(self):
        # at degree 331,751 the bound on a (2, 1) column needs 64-bit lanes,
        # one bit too many: that grade runs the dict solve, the other columns
        deg = 331751
        assert _lane_bits(_rumin_bound(4, 2, 1, deg)) > 64
        assert _lane_bits(_rumin_bound(4, 2, 1, deg - 1)) <= 64
        poly = SpherePoly(4, {(deg, 0, 0, 0): Scalar({1: Rat(3, 5)}),
                              (1, 1, 0, 1): Scalar({0: Rat(2)})})
        omega = InvariantForm(4, {((0, 1), (2,)): poly})
        xi, D = rumin_reference(omega)
        res = rumin(omega)
        assert res.xi == xi and res.D_omega == D
        cols = RUMIN.columns(4, 2, 1)
        built = np.flatnonzero(cols.slot >= 0)
        assert built.size and columns._block(4, 2, 1).codes()[2][built].max() < 10

    @staticmethod
    def _record_widths(monkeypatch):
        """The exponent field width of every sphere numerator the contraction
        reads; each contraction builds its plan afresh, so that none is read
        from a plan kept by an earlier pairing."""
        widths = []
        contract, real = columns._top_contract, columns._sphere_numerators

        def contract_spy(*args):
            columns._contract_plan.cache_clear()
            return contract(*args)

        def spy(n, width, codes):
            widths.append(width)
            return real(n, width, codes)

        monkeypatch.setattr(columns, "_top_contract", contract_spy)
        monkeypatch.setattr(columns, "_sphere_numerators", spy)
        return widths

    def test_pairing_past_contraction_degree(self, monkeypatch):
        # degrees summing past 254 overflow 8-bit exponent fields: the
        # contraction packs 9-bit ones, two of which still fit an int64
        a = InvariantForm(2, {((0,), ()): SpherePoly(2, {(130, 1): Scalar({0: Rat(1, 3)}),
                                                         (2, 0): Scalar({-1: Rat(1)})})})
        b = InvariantForm(2, {((1,), ()): SpherePoly(2, {(127, 0): Scalar({0: Rat(5)}),
                                                         (3, 1): Scalar({1: Rat(1)})})})
        mu, nu = ValuationRep(2, a), ValuationRep(2, b)
        inner = columns._join_vectors(2, valuation._inner_parts(euler_verdier(nu)))
        assert max(p.degree() for p in a.terms.values()) + max(
            p.degree() for p in inner.terms.values()) > 254
        widths = self._record_widths(monkeypatch)
        assert pairing(mu, nu) == pairing_reference(mu, nu) != 0
        assert pairing(nu, mu) == pairing_reference(nu, mu)
        assert widths and all(2 * w < 64 for w in widths)

    def test_pairing_with_an_exponent_past_int64_fields(self, monkeypatch):
        # v1^(2^15) needs 16-bit exponent fields, and four of them pass 63
        # bits: the contraction packs exponents in Python ints
        high, low = past_int64_fields()
        widths = self._record_widths(monkeypatch)
        assert pairing(high, low) == pairing_reference(high, low) != 0
        assert pairing(low, high) == pairing_reference(low, high) != 0
        assert widths and all(4 * w >= 64 for w in widths)


class TestDegreeSums:
    """The contraction sums its products, each times its code's sphere
    numerator, per total degree, and scales each degree's nonzero sum once
    (``exterior.sphere_factor``)."""

    def test_factor_cache_stays_within_bound(self, monkeypatch):
        # V_2 v_1^e against Z_(1,0,2) for e = 0, 2, ..., 398 reads 200
        # degrees past the kept ones: the cache stays within its bound, and
        # every pairing equals the one with each factor built afresh
        zu = z_rep(ImDirection.of(1, 0, 2))
        v2 = intrinsic_volume_rep(4, 2).omega
        highs = [ValuationRep(4, v2 * SpherePoly(4, {(e, 0, 0, 0): 1})) for e in range(0, 400, 2)]
        sphere_factor.cache_clear()
        got = []
        for high in highs:
            got.append(pairing(high, zu))
            assert sphere_factor.cache_info().currsize <= SPHERE_FACTOR_CACHE_SIZE
        info = sphere_factor.cache_info()
        assert info.maxsize == SPHERE_FACTOR_CACHE_SIZE < info.misses
        monkeypatch.setattr(columns, "sphere_factor", sphere_factor.__wrapped__)
        assert [pairing(high, zu) for high in highs] == got

    @staticmethod
    def _record_degrees(monkeypatch):
        """Per contraction, the degrees of the codes whose numerators its plan
        reads, and the degrees it scales; each contraction builds its plan
        afresh, so that none is read from a plan kept by an earlier pairing."""
        calls = []
        contract, numerator, factor = (columns._top_contract, columns._sphere_numerators,
                                       columns.sphere_factor)

        def contract_spy(*args):
            calls.append((set(), set()))
            columns._contract_plan.cache_clear()
            return contract(*args)

        def numerator_spy(n, width, codes):
            mask = (1 << width) - 1
            calls[-1][0].update(sum(code >> (width * i) & mask for i in range(n))
                                for code in codes.tolist())
            return numerator(n, width, codes)

        def factor_spy(n, degree):
            calls[-1][1].add(degree)
            return factor(n, degree)

        monkeypatch.setattr(columns, "_top_contract", contract_spy)
        monkeypatch.setattr(columns, "_sphere_numerators", numerator_spy)
        monkeypatch.setattr(columns, "sphere_factor", factor_spy)
        return calls

    @staticmethod
    def _rep(n, terms):
        return ValuationRep(n, InvariantForm(n, {key: SpherePoly(n, p) for key, p in terms.items()}))

    def test_two_degrees_in_one_contraction(self, monkeypatch):
        mu = self._rep(2, {((0,), ()): {(1, 0): 1, (3, 0): 1}})
        nu = self._rep(2, {((1,), ()): {(0, 1): 1}})
        calls = self._record_degrees(monkeypatch)
        for x, y in ((mu, nu), (nu, mu)):
            calls.clear()
            assert pairing(x, y) == pairing_reference(x, y) != 0
            assert any(len(scaled) >= 2 for _, scaled in calls)

    def test_a_degree_sum_cancels(self, monkeypatch):
        # in pairing(nu, mu) one contraction meets codes of three degrees,
        # and the numerators of one degree's codes add up to 0
        mu = self._rep(3, {((0, 1), ()): {(0, 1, 1): 3}})
        nu = self._rep(3, {((0,), (0,)): {(1, 2, 1): 2}})
        calls = self._record_degrees(monkeypatch)
        assert pairing(mu, nu) == pairing_reference(mu, nu) != 0
        calls.clear()
        assert pairing(nu, mu) == pairing_reference(nu, mu) != 0
        assert any(scaled and summed - scaled for summed, scaled in calls)


class TestContractPlan:
    """The contraction keeps a plan per pair of supports (n, block, ids) in a
    bounded LRU; a kept plan gives the value a fresh one gives."""

    @pytest.fixture
    def fresh_blocks(self, monkeypatch):
        # monomials numbered from 0 in this test alone; no plan on its ids
        # outlives it
        monkeypatch.setattr(columns, "_BLOCKS", {})
        columns._contract_plan.cache_clear()
        yield
        columns._contract_plan.cache_clear()

    def test_equal_ids_on_other_blocks_build_other_plans(self, fresh_blocks):
        # ids 0..3 name other monomials in every block pair below: equal id
        # bytes must build a plan per n and block pair
        rng = random.Random(76)
        ids = np.arange(4, dtype=np.int64)
        x, y = (np.array([rng.choice((-3, -2, -1, 1, 2, 3)) for _ in ids]) for _ in range(2))
        cases = [(2, (1, 0)), (2, (0, 1)), (3, (1, 1)), (3, (2, 0)), (4, (2, 1)), (4, (1, 2))]
        values = []
        for n, (a, b) in cases:
            bx, by = columns._block(n, a, b), columns._block(n, n - a, n - 1 - b)
            for key in rng.sample(block_monomials(n, a, b, 1) + block_monomials(n, a, b, 3), 4):
                bx.id(key)
            for key in rng.sample([key for deg in (0, 2, 4)
                                   for key in block_monomials(n, n - a, n - 1 - b, deg)], 4):
                by.id(key)
            got = Scalar(columns._top_contract(n, (a, b), (ids, x), (ids, y)))
            top = fiber_integral(columns._form(n, bx.keys, x.tolist()).wedge(
                columns._form(n, by.keys, y.tolist()))).get(tuple(range(n)), ZERO)
            assert got == top != 0, (n, a, b)
            values.append(got)
        assert len(set(map(str, values))) == len(cases)
        assert columns._contract_plan.cache_info().misses == len(cases)

    def test_kept_plans_past_int64_fields(self):
        high, low = past_int64_fields()
        for x, y in ((high, low), (low, high)):
            value = pairing(x, y)
            hits = columns._contract_plan.cache_info().hits
            assert pairing(x, y) == value
            assert columns._contract_plan.cache_info().hits > hits
            columns._contract_plan.cache_clear()
            assert pairing(x, y) == value == pairing_reference(x, y) != 0

    def test_plans_stay_within_bound(self):
        n, ab = 4, (2, 1)
        bx, by = columns._block(n, *ab), columns._block(n, 2, 2)
        ids = [bx.id(key) for key in block_monomials(n, *ab, 1)]
        iy = np.array([by.id(key) for key in block_monomials(n, 2, 2, 0)], np.int64)
        y = np.ones(len(iy), np.int64)
        pairs = [(i, j) for i in ids for j in ids if i < j][:FORM_CACHE_SIZE + 10]
        assert len(pairs) == FORM_CACHE_SIZE + 10
        columns._contract_plan.cache_clear()
        for i, j in pairs:
            columns._top_contract(n, ab, (np.array([i, j], np.int64), np.array([1, -2])), (iy, y))
        info = columns._contract_plan.cache_info()
        assert info.misses == len(pairs)
        assert info.maxsize == FORM_CACHE_SIZE
        assert info.currsize <= FORM_CACHE_SIZE

    def test_many_exponents_keep_numerators_within_bound(self):
        # the contraction keeps sphere numerators only in its plans: pairing
        # V_2 v_t^e with Z_(1,0,2) for 90 exponents builds more plans than the
        # LRU holds, and leaves at most FORM_CACHE_SIZE of them
        vol2, zu = intrinsic_volume_rep(4, 2).omega, z_rep(ImDirection.of(1, 0, 2))
        assert not hasattr(columns._sphere_numerators, "cache_info")
        columns._contract_plan.cache_clear()
        for t in range(3):
            for e in range(30):
                high = ValuationRep(4, vol2 * SpherePoly(4, {tuple(e * (i == t) for i in range(4)): 1}))
                value = pairing(high, zu)
                if e == 28:
                    assert value == pairing_reference(high, zu) != 0
        info = columns._contract_plan.cache_info()
        assert info.misses > FORM_CACHE_SIZE >= info.currsize


class TestLazyXi:
    """The pairing and the operators read D alone: the Rumin solve applies
    the columns of D (RUMIN), and xi's (RUMIN_XI) are built and applied on
    first read."""

    def test_operators_leave_xi_unapplied(self, monkeypatch):
        made, result = [], contact.RuminResult
        monkeypatch.setattr(contact, "RuminResult", lambda *args: made.append(result(*args))
                            or made[-1])
        # a fresh LRU, so that every solve below makes its result
        monkeypatch.setattr(contact, "_rumin_cached", contact._cached_on_vectors(
            contact._rumin_cached.__wrapped__))
        monkeypatch.setattr(RUMIN_XI, "caches", {})
        vol3 = intrinsic_volume_rep(4, 3)
        u, v = ImDirection.of(4, 0, -9), ImDirection.of(0, 7, 3)
        zu, zv = z_rep(u), z_rep(v)
        assert pairing(zu, zv) == tasaki_density(u.dot_sq(v))
        pairing(derivation(zu), vol3), pairing(zu, derivation(vol3))
        pairing(signature(zu), zv), pairing(zu, signature(zv))
        pairing(laplace(zu), zv), pairing(zu, laplace(zv))
        assert made and all("xi_parts" not in vars(res) for res in made)
        assert not any(cols.count for cols in RUMIN_XI.caches.values())
        for res in made:
            omega = columns._join_vectors(res.n, res.parts)
            xi, D = rumin_reference(omega)
            assert rumin(omega).xi == xi and res.D_omega == D
        assert RUMIN_XI.columns(4, 2, 1).count

    @pytest.mark.parametrize("u", [(1, 0, 2), (1099511627777, 3, -5)])
    def test_xi_on_first_read(self, u):
        # the second direction's vectors hold Python ints past 2^63
        omega = z_rep(ImDirection.of(*u)).omega
        res = contact._rumin_cached.__wrapped__(4, _split_vectors(omega))
        dtypes = {vals.dtype.kind for _, blocks in res.parts.values() for _, vals in blocks.values()}
        assert dtypes == ({"O"} if max(u) > 1 << 40 else {"i"})
        assert "xi_parts" not in vars(res)
        xi, D = rumin_reference(omega)
        assert res.xi == xi and res.D_omega == D
        assert res.ansatz_degree == max(p.degree() for p in xi.terms.values())

    def test_direct_path_solves_once(self, monkeypatch):
        # a column bound past 64-bit lanes sends every block to the dict
        # solve: reading D solves once, reading xi once more, and neither
        # operator keeps a column
        solves = []

        def counted(f):
            solves.append(f)
            return _lefschetz_pass(f)

        monkeypatch.setattr(contact, "_lefschetz_pass", counted)
        for op in (RUMIN, RUMIN_XI):
            monkeypatch.setattr(op, "caches", {})
            monkeypatch.setattr(op, "bound", lambda n, a, b, deg: 1 << 64)
        omega = monomial(4, (0, 1), (2,), (2, 1, 0, 1), 3) + monomial(4, (0, 1), (3,), (0, 3, 1, 0), -2)
        res = contact._rumin_cached.__wrapped__(4, _split_vectors(omega))
        assert len(solves) == 1
        xi, D = rumin_reference(omega)
        assert res.D_omega == D and len(solves) == 1
        assert res.xi == xi and not xi.is_zero() and len(solves) == 2
        assert res.D_omega == D and res.xi == xi and len(solves) == 2
        assert not RUMIN.columns(4, 2, 1).count and not RUMIN_XI.columns(4, 2, 1).count


def test_split_vectors_match_split_pi():
    rng = random.Random(41)
    for n, a in BIDEGREES:
        omega = bidegree_form(rng, n, a)
        parts = _split_vectors(omega)
        assert _split_vectors(omega) is parts
        want = split_pi(omega)
        assert set(parts) == set(want)
        for k, (den, blocks) in parts.items():
            ints = {}
            for (p, q), (ids, vals) in blocks.items():
                keys = columns._BLOCKS[(n, p, q)].keys
                for i, c in zip(ids.tolist(), vals.tolist()):
                    I, J, e = keys[i]
                    ints.setdefault((I, J), {})[e] = c
            got = InvariantForm(n, {key: SpherePoly(n, t) for key, t in ints.items()},
                                projected=True)
            assert (den, got) == want[k]
        assert join_pi(n, want) == omega


def test_add_vectors_merges_shared_blocks():
    rng = random.Random(42)
    omega = bidegree_form(rng, 4, 2)
    twice = columns._add_vectors(4, _split_vectors(omega), _split_vectors(omega))
    assert columns._join_vectors(4, twice) == omega * 2
    minus = _split_vectors(omega * -1)
    assert columns._add_vectors(4, _split_vectors(omega), minus) == {}


@pytest.mark.parametrize("name", ["rumin", "rumin_xi", "hodge", "lie"])
def test_batch_build_equals_single_monomials(name, monkeypatch):
    op, n, a, b = {"rumin": (RUMIN, 4, 2, 1), "rumin_xi": (RUMIN_XI, 4, 2, 1),
                   "hodge": (HODGE, 4, 2, 2), "lie": (LIE_REEB, 4, 2, 1)}[name]
    rng = random.Random(51)
    keys = rng.sample(block_monomials(n, a, b, 3) + block_monomials(n, a, b, 2), 40)
    blk = columns._block(n, a, b)
    ids = np.array([blk.id(key) for key in keys], np.int64)
    passes = []
    build_lanes = columns._Columns._build_lanes

    def counted(self, src_ids, lane_keys, B):
        passes.append(len(lane_keys))
        return build_lanes(self, src_ids, lane_keys, B)

    # one lane per orbit: the rest of an orbit's columns come by permutation
    orbits = len({frozenset(orbit(n, *key)) for key in keys})
    assert orbits < len(keys)
    monkeypatch.setattr(columns._Columns, "_build_lanes", counted)
    monkeypatch.setattr(op, "caches", {})
    op.columns(n, a, b).apply(ids, np.ones(len(ids), np.int64))
    batch = op.columns(n, a, b)
    assert passes == [orbits]
    monkeypatch.setattr(op, "caches", {})
    for i in ids:
        op.columns(n, a, b).apply(np.array([i]), np.ones(1, np.int64))
    single = op.columns(n, a, b)
    assert passes[1:] == [1] * orbits
    assert batch.scale == single.scale
    for i in ids.tolist():
        assert column(batch, i) == column(single, i)


def test_batch_columns_equal_dict_operator(monkeypatch):
    # each decoded column, of D and of xi, is the dict solve of its monomial
    # alone
    rng = random.Random(52)
    keys = rng.sample(block_monomials(4, 2, 1, 3), 12)
    blk = columns._block(4, 2, 1)
    ids = np.array([blk.id(key) for key in keys], np.int64)
    for op, name in ((RUMIN, "rumin"), (RUMIN_XI, "rumin_xi")):
        monkeypatch.setattr(op, "caches", {})
        cols = op.columns(4, 2, 1)
        cols.apply(ids, np.ones(len(ids), np.int64))
        for i, (I, J, e) in zip(ids.tolist(), keys):
            form, s = dict_operator(name)(monomial(4, I, J, e))
            assert s == cols.scale
            want = {cols.out.id((I2, J2, e2)): c for (I2, J2), p in form.terms.items()
                    for e2, c in p.terms.items()}
            assert column(cols, i) == want


def dict_operator(name):
    """The dict operator of RUMIN, RUMIN_XI, HODGE or LIE_REEB: (output, scale)."""
    if name.startswith("rumin"):
        def solve(m):
            (xi, D), s = _lefschetz_pass(m)
            return (D if name == "rumin" else xi), s

        return solve
    return {"hodge": lambda m: (hodge_star(m), 1), "lie": lambda m: (lie_reeb(m), 1)}[name]


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("name", ["rumin", "rumin_xi", "hodge", "lie"])
def test_dict_operators_commute_with_coordinate_permutations(name, n):
    # the premise of building one column per orbit: every permutation of the
    # coordinates 0..n-2, acting on dx, dv and v together, commutes with the
    # dict operators, on monomials of every bidegree and of degree 0-4
    op, rng = dict_operator(name), random.Random(f"{name}/{n}")
    bidegrees = ([(a, n - 1 - a) for a in range(n)] if name.startswith("rumin")
                 else [(a, b) for a in range(n + 1) for b in range(n)])
    moved = 0
    for a, b in bidegrees:
        for _ in range(3):
            I, J = (tuple(sorted(rng.sample(range(n), k))) for k in (a, b))
            e = rng.choice(exponents(n, rng.randrange(MAX_DEGREE + 1)))
            m = monomial(n, I, J, e, rng.choice((-3, 1, 2)))
            form, s = op(m)
            for p in coordinate_permutations(n):
                image, t = op(permuted(m, p))
                assert t == s
                assert image == permuted(form, p), (name, n, I, J, e, p)
                moved += permuted(form, p) != form
    assert moved or n == 2


class TestOrbitColumns:
    """One column per orbit of S_(n-1) comes from a lane-packed pass; every
    other member's is that column permuted, and equals the dict operator on
    its monomial alone."""

    @staticmethod
    def _count_passes(monkeypatch):
        passes = []
        build_lanes = columns._Columns._build_lanes

        def counted(self, src_ids, lane_keys, B):
            passes.append(len(lane_keys))
            return build_lanes(self, src_ids, lane_keys, B)

        monkeypatch.setattr(columns._Columns, "_build_lanes", counted)
        return passes

    @staticmethod
    def _assert_dict_columns(name, cols, keys):
        for key in keys:
            form, s = dict_operator(name)(monomial(cols.src.n, *key))
            assert s == cols.scale
            want = {cols.out.id((I2, J2, e2)): c for (I2, J2), p in form.terms.items()
                    for e2, c in p.terms.items()}
            assert column(cols, cols.src.index[key]) == want, (name, key)

    @pytest.mark.parametrize("name, n, keys", [
        ("rumin", 4, [((0, 1), (2,), (2, 1, 0, 1)), ((1, 3), (0,), (3, 0, 0, 0)),
                      ((0, 2), (1,), (1, 1, 1, 0)), ((2, 3), (3,), (0, 2, 1, 1))]),
        ("rumin", 3, [((0,), (1,), (2, 1, 1)), ((2,), (0,), (0, 3, 0))]),
        ("hodge", 4, [((0, 1), (2, 3), (2, 1, 0, 1)), ((1, 2), (0, 1), (3, 0, 1, 0))]),
        ("lie", 4, [((0, 3), (1,), (1, 2, 0, 1)), ((1, 2), (2,), (0, 0, 4, 0))]),
        # an exponent past the packed codes' 13-bit fields: the orbit's key is
        # a tuple, and its columns' rows are found through their keys
        ("hodge", 4, [((0, 1), (2, 3), (8200, 1, 0, 1))]),
        ("rumin", 4, [((0, 1), (2,), (8200, 1, 0, 1))]),
        # the correction xi, on the rumin cases above
        ("rumin_xi", 4, [((0, 1), (2,), (2, 1, 0, 1)), ((1, 3), (0,), (3, 0, 0, 0)),
                         ((0, 2), (1,), (1, 1, 1, 0)), ((2, 3), (3,), (0, 2, 1, 1))]),
        ("rumin_xi", 3, [((0,), (1,), (2, 1, 1)), ((2,), (0,), (0, 3, 0))]),
        ("rumin_xi", 4, [((0, 1), (2,), (8200, 1, 0, 1))]),
    ])
    def test_orbit_members_equal_dict_operator(self, name, n, keys, monkeypatch):
        op = {"rumin": RUMIN, "rumin_xi": RUMIN_XI, "hodge": HODGE, "lie": LIE_REEB}[name]
        monkeypatch.setattr(columns, "_BLOCKS", {})
        monkeypatch.setattr(op, "caches", {})
        passes = self._count_passes(monkeypatch)
        orbits = [orbit(n, *key) for key in keys]
        assert all(len(members) > 1 for members in orbits)
        I, J, _ = keys[0]
        cols = op.columns(n, len(I), len(J))
        # one member of each orbit, then every other member in one call
        for call in ([members[0] for members in orbits],
                     [key for members in orbits for key in members[1:]]):
            ids = np.array([cols.src.id(key) for key in call], np.int64)
            cols.apply(ids, np.ones(len(ids), np.int64))
        assert passes == [len(orbits)]
        assert cols.count == sum(map(len, orbits))
        assert len(cols.orbits) == len(orbits)
        wide = max(max(e) for _, _, e in keys) >= 1 << 13
        assert all(isinstance(key, tuple) == wide for key in cols.orbits)
        self._assert_dict_columns(name, cols, [key for members in orbits for key in members])

    def test_block_finds_each_image_once(self, monkeypatch):
        # a block keeps the images it finds: a second call on the same
        # (permutation, id) pairs finds none anew and gives the same images,
        # each the permuted monomial with its sign
        monkeypatch.setattr(columns, "_BLOCKS", {})
        n, found, find = 4, [], columns._Block._find

        def spy(self, perms, ids):
            found.append(len(ids))
            return find(self, perms, ids)

        monkeypatch.setattr(columns._Block, "_find", spy)
        blk = columns._block(n, 2, 1)
        keys = block_monomials(n, 2, 1, 3)[::7]
        group = coordinate_permutations(n)
        perms = np.repeat(np.arange(len(group)), 2 * len(keys))
        ids = np.tile(np.array([blk.id(key) for key in keys] * 2, np.int64), len(group))
        first = blk.image(perms, ids)
        assert sum(found) == len(group) * len(keys)
        found.clear()
        second = blk.image(perms, ids)
        assert not found
        assert all(np.array_equal(x, y) for x, y in zip(first, second))
        for g, i, j, sign in zip(perms.tolist(), ids.tolist(), *(a.tolist() for a in first)):
            assert (sign, blk.keys[j]) == permuted_key(n, group[g], *blk.keys[i])

    def test_failed_pass_records_no_orbit_source(self, monkeypatch):
        # a pass that raises records no orbit source: another member of the
        # orbit is then built afresh, not permuted from a column never built
        original = contact._xi_lefschetz

        def doubled(f):
            xi, s = original(f)
            return xi * 2, s

        monkeypatch.setattr(contact, "_xi_lefschetz", doubled)
        monkeypatch.setattr(RUMIN, "caches", {})
        first, second, *_ = orbit(4, (0, 1), (2,), (2, 1, 0, 1))
        cols = RUMIN.columns(4, 2, 1)
        with pytest.raises(ArithmeticError, match="vertical"):
            cols.apply(np.array([cols.src.id(first)]), np.ones(1, np.int64))
        assert not cols.orbits and not cols.count
        monkeypatch.setattr(contact, "_xi_lefschetz", original)
        passes = self._count_passes(monkeypatch)
        cols.apply(np.array([cols.src.id(second)]), np.ones(1, np.int64))
        assert passes == [1] and len(cols.orbits) == 1
        cols.apply(np.array([cols.src.id(first)]), np.ones(1, np.int64))
        assert passes == [1]
        self._assert_dict_columns("rumin", cols, [first, second])


class TestLaneBound:
    def test_largest_block_fits_int64_lanes(self):
        # the largest block the tests build: n = 4, bidegree (2, 1), degree 4
        bound = _rumin_bound(4, 2, 1, MAX_DEGREE)
        assert bound < 2 ** (_lane_bits(bound) - 1)
        assert _lane_bits(bound) <= 64
        for n, a in BIDEGREES:
            b = n - 1 - a
            for bound in (_rumin_bound(n, a, b, MAX_DEGREE), _hodge_bound(n, a, b + 1, 0),
                          _lie_bound(n, a, b, MAX_DEGREE)):
                assert _lane_bits(bound) <= 64

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_step_norms(self, n):
        # each step's column l1 norm on monomials of degree <= 3 stays within
        # the bound the lane width is built from
        rng = random.Random(60 + n)
        alpha, pihat = alpha_form(n), _pihat(n)
        for a in range(n + 1):
            for b in range(n + 1 - a):
                monos = [key for deg in range(4) for key in block_monomials(n, a, b, deg)]
                for I, J, e in rng.sample(monos, min(len(monos), 40)):
                    m, deg = monomial(n, I, J, e), sum(e)
                    assert l1(d(m)) <= _d_norm(n, b, deg)
                    assert l1(reeb_contract(m)) <= _reeb_norm(n, a)
                    assert l1(alpha.wedge(m)) <= _alpha_norm(n, a)
                    assert l1(m - alpha.wedge(reeb_contract(m))) <= _horizontal_norm(n, a)
                    assert l1(dual_lefschetz(m)) <= min(a, b)
                    assert l1(pihat.wedge(m)) <= _wedge_norm(pihat)
                    assert l1(hodge_star(m)) <= _hodge_bound(n, a, b, deg)
                    assert l1(lie_reeb(m)) <= _lie_bound(n, a, b, deg)

    def test_bound_covers_measured_step_norms(self):
        # the steps of the solve, each measured as its largest column l1 norm
        # on the monomials the previous step reaches from the block (2, 1) up
        # to degree 2, composed as _rumin_bound composes its factors
        n, rng = 4, random.Random(62)
        alpha, pihat = alpha_form(n), _pihat(n)

        def step(fn, keys):
            norm, reached = 0, set()
            for I, J, e in rng.sample(sorted(keys), min(len(keys), 400)):
                image = fn(monomial(n, I, J, e))
                norm = max(norm, l1(image))
                reached |= {(I2, J2, e2) for (I2, J2), p in image.terms.items() for e2 in p.terms}
            return norm, reached

        start = {key for deg in range(3) for key in block_monomials(n, 2, 1, deg)}
        d1, reached = step(d, start)
        h1, reached = step(lambda m: m - alpha.wedge(reeb_contract(m)), reached)
        dl1, lam1 = step(dual_lefschetz, reached)
        dl2, reached = step(dual_lefschetz, lam1)
        pi, reached = step(pihat.wedge, reached)
        al, reached = step(alpha.wedge, lam1 | reached)
        d2, reached = step(d, reached | start)
        h2, _ = step(lambda m: m - alpha.wedge(reeb_contract(m)), reached)
        xi = d1 * h1 * dl1 * (4 + dl2 * pi)
        D = d2 * (4 + al * xi)
        assert max(xi, D, h2 * D) <= _rumin_bound(n, 2, 1, 2)

    @pytest.mark.parametrize("n, a", BIDEGREES)
    def test_entries_within_bound(self, n, a):
        rng = random.Random(70 + 10 * n + a)
        b = n - 1 - a
        monos = block_monomials(n, a, b, 3)
        for I, J, e in rng.sample(monos, min(len(monos), 12)):
            (xi, D), _ = _lefschetz_pass(monomial(n, I, J, e))
            h = contact.horizontal_part(D)
            bound = _rumin_bound(n, a, b, 3)
            assert max((abs(c) for f in (xi, D, h) for p in f.terms.values()
                        for c in p.terms.values()), default=0) <= bound


def test_caches_within_their_blocks():
    # the exact_pairing op: <Z_u, Z_v> and both sides of Lambda, Sigma, Delta,
    # then the correction xi of Z_u
    vol3 = intrinsic_volume_rep(4, 3)
    for u, v in [((1, 0, 2), (0, 3, -2)), ((2, 1, 0), (0, 1, 5)), ((4, 0, -3), (3, 2, 0))]:
        zu, zv = z_rep(ImDirection.of(*u)), z_rep(ImDirection.of(*v))
        pairing(zu, zv)
        pairing(derivation(zu), vol3), pairing(zu, derivation(vol3))
        pairing(signature(zu), zv), pairing(zu, signature(zv))
        pairing(laplace(zu), zv), pairing(zu, laplace(zv))
        rumin(zu.omega).xi
    for op in (RUMIN, RUMIN_XI, HODGE, LIE_REEB):
        assert op.caches
        for cols in op.caches.values():
            built = cols.slot[cols.slot >= 0]
            assert len(built) == len(set(built.tolist())) == cols.count
            assert cols.count <= len(cols.src.keys)
            assert len(cols.start) == len(cols.size) == cols.count
            assert (cols.rows < len(cols.out.keys)).all()


def test_exact_operators_stay_on_vectors(monkeypatch):
    # the pairing and the operators on exact Z_u, Z_v and vol3 run on split
    # vectors: no form made from vectors builds its Scalar terms
    built = []
    terms = InvariantForm.terms

    def counted(form):
        if form._terms is None:
            built.append(form)
        return terms.fget(form)

    monkeypatch.setattr(InvariantForm, "terms", property(counted))
    vol3 = intrinsic_volume_rep(4, 3)
    u, v = ImDirection.of(3, 0, -7), ImDirection.of(0, 5, 2)
    zu, zv = z_rep(u), z_rep(v)
    zz = pairing(zu, zv)
    lam = (pairing(derivation(zu), vol3), pairing(zu, derivation(vol3)))
    sig = (pairing(signature(zu), zv), pairing(zu, signature(zv)))
    lap = (pairing(laplace(zu), zv), pairing(zu, laplace(zv)))
    assert not built
    assert zz == tasaki_density(u.dot_sq(v))
    assert lam[0] == lam[1] and sig[0] == sig[1] and lap[0] == lap[1]
    # asking for the terms builds them once
    assert zu.omega.terms == (-stated_z_form(u)).terms
    assert built == [zu.omega]


def test_failed_correction_raises(monkeypatch):
    original = contact._xi_lefschetz

    def doubled(f):
        xi, s = original(f)
        return xi * 2, s

    monkeypatch.setattr(contact, "_xi_lefschetz", doubled)
    monkeypatch.setattr(RUMIN, "caches", {})
    monkeypatch.setattr(RUMIN_XI, "caches", {})
    omega = z_rep(ImDirection.of(1, 0, 2)).omega
    parts = _split_vectors(omega)
    with pytest.raises(ArithmeticError, match="vertical"):
        contact._rumin_cached.__wrapped__(4, parts)
    monkeypatch.setattr(contact, "_xi_lefschetz", original)
    res = contact._rumin_cached.__wrapped__(4, parts)
    xi, D = rumin_reference(omega)
    assert res.D_omega == D
    # xi's passes check that D is vertical too, and a failed one keeps nothing
    monkeypatch.setattr(contact, "_xi_lefschetz", doubled)
    with pytest.raises(ArithmeticError, match="vertical"):
        res.xi
    assert RUMIN_XI.caches and not any(cols.count or cols.orbits or (cols.slot >= 0).any()
                                       for cols in RUMIN_XI.caches.values())
    monkeypatch.setattr(contact, "_xi_lefschetz", original)
    assert res.xi == xi
