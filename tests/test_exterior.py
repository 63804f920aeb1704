import copy
import itertools
import math
import os
import pickle
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from _oracles import (
    bundle_frame,
    chart_component,
    dv_form,
    dx_form,
    dx_top_form,
    evaluate_at,
    fd_exterior_derivative,
    fiber_integral,
    frame_components,
    gamma_half,
    numeric_contraction,
    numeric_hodge_components,
    poly_value,
    orthographic_chart,
    pullback_antipode,
    pullback_ball_shift,
    pullback_linear,
    random_form,
    random_sphere_poly,
    random_tangent_vector,
    random_unit,
    shuffle_wedge_value,
    sphere_volume_form,
)
from valcalc.exterior import (
    InvariantForm,
    SpherePoly,
    _pi_terms,
    alpha_form,
    contract_slot,
    d,
    hodge_star,
    lie_reeb,
    reeb_contract,
    sphere_factor,
    sphere_monomial_integral,
    sphere_numerator,
)
from valcalc import bodies, columns
from valcalc.columns import _split_vectors
from valcalc.scalars import ONE, PI, Rat, Scalar, ZERO, rational
from valcalc.su2 import ImDirection, z_rep
from valcalc.valuation import intrinsic_volume_rep, pairing, signature


N = 4


def unit_exp(i, n=N):
    return tuple(1 if k == i else 0 for k in range(n))


class TestReduce:
    def test_last_square_rewrites(self):
        p = SpherePoly(N, {(0, 0, 0, 2): 1})
        expect = {(0, 0, 0, 0): 1, (2, 0, 0, 0): -1, (0, 2, 0, 0): -1, (0, 0, 2, 0): -1}
        assert p.terms == {e: c for e, c in expect.items()}

    def test_ideal_generator_killed(self):
        t = {unit_exp(i): 0 for i in range(N)}
        t = {tuple(2 if k == i else 0 for k in range(N)): 1 for i in range(N)}
        t[(0, 0, 0, 0)] = t.get((0, 0, 0, 0), 0) - 1
        assert SpherePoly(N, t).is_zero()

    def test_cubic_rewrite_numeric(self):
        p = SpherePoly(N, {(0, 0, 0, 3): 1})
        expect = SpherePoly(N, {(0, 0, 0, 1): 1, (2, 0, 0, 1): -1,
                                (0, 2, 0, 1): -1, (0, 0, 2, 1): -1})
        assert p == expect
        rng = random.Random(5)
        for _ in range(20):
            v = random_unit(rng, N)
            assert poly_value(p, v) == pytest.approx(v[3] ** 3, abs=1e-12)

    def test_high_last_exponent(self):
        # v4^60 = (1 - v1^2 - v2^2 - v3^2)^30, expanded here one factor at a
        # time; a rewrite that does not merge equal exponents takes about 4
        # times longer for every 2 added to the exponent, and v4^60 never ends
        want = {(0, 0, 0, 0): 1}
        for _ in range(30):
            nxt = {}
            for e, c in want.items():
                nxt[e] = nxt.get(e, 0) + c
                for i in range(3):
                    f = e[:i] + (e[i] + 2,) + e[i + 1:]
                    nxt[f] = nxt.get(f, 0) - c
            want = {e: c for e, c in nxt.items() if c}
        start = time.perf_counter()
        p = SpherePoly(N, {(0, 0, 0, 60): 1})
        assert time.perf_counter() - start < 1.0
        assert p.terms == want

    def test_rewrite_keeps_the_order_of_a_square_at_a_time(self):
        # terms come in the order a rewrite of one square at a time, last
        # term first, reaches them, as they always have: term order is the
        # order of float sums downstream (the tangential projection of dv_n
        # rewrites v_n^2); inputs whose last exponent is 2 or 3 keep it
        # exactly, higher ones keep their values
        def one_square_at_a_time(n, terms):
            t, stack = {}, list(terms.items())
            while stack:
                e, c = stack.pop()
                if e[n - 1] >= 2:
                    base = e[:n - 1] + (e[n - 1] - 2,)
                    stack.append((base, c))
                    stack += [(base[:i] + (base[i] + 2,) + base[i + 1:], -c) for i in range(n - 1)]
                elif t.get(e, 0) + c:
                    t[e] = t.get(e, 0) + c
                else:
                    t.pop(e, None)
            return t

        rng = random.Random(12)
        for top in (3, 7):
            for _ in range(300):
                n = rng.choice([2, 3, 4])
                terms = {tuple(rng.randint(0, 3) for _ in range(n - 1)) + (rng.randint(0, top),):
                         Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(5)}
                got, want = SpherePoly(n, terms).terms, one_square_at_a_time(n, terms)
                assert got == want
                if top == 3:
                    assert list(got) == list(want)

    def test_reduction_idempotent(self):
        rng = random.Random(6)
        for _ in range(30):
            p = random_sphere_poly(rng, N, max_deg=4)
            assert SpherePoly(N, p.terms) == p

    def test_poly_ring(self):
        rng = random.Random(8)
        for _ in range(40):
            a = random_sphere_poly(rng, N)
            b = random_sphere_poly(rng, N)
            c = random_sphere_poly(rng, N)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a
            v = random_unit(rng, N)
            assert poly_value(a * b, v) == \
                pytest.approx(poly_value(a, v) * poly_value(b, v), abs=1e-9)


class TestWedge:
    def test_alpha_squared_zero(self):
        a = alpha_form(N)
        assert a.wedge(a).is_zero()

    def test_anticommute_basic(self):
        ab = dx_form(N, 0).wedge(dx_form(N, 1))
        ba = dx_form(N, 1).wedge(dx_form(N, 0))
        assert ab == -ba

    def test_graded_commutativity(self):
        rng = random.Random(21)
        for _ in range(25):
            p = rng.randrange(0, 3)
            q = rng.randrange(0, 3)
            a = random_form(rng, N, p)
            b = random_form(rng, N, q)
            lhs = a.wedge(b)
            rhs = b.wedge(a)
            if (p * q) % 2:
                rhs = -rhs
            assert lhs == rhs

    def test_associative_bilinear(self):
        rng = random.Random(22)
        for _ in range(15):
            a = random_form(rng, N, 1)
            b = random_form(rng, N, 1)
            c = random_form(rng, N, 2)
            assert a.wedge(b.wedge(c)) == a.wedge(b).wedge(c)
            assert (a + b).wedge(c) == a.wedge(c) + b.wedge(c)

    def test_numeric_oracle(self):
        rng = random.Random(23)
        for _ in range(20):
            p = rng.randrange(1, 3)
            q = rng.randrange(1, 3)
            a = random_form(rng, N, p)
            b = random_form(rng, N, q)
            w = a.wedge(b)
            v = random_unit(rng, N)
            vecs = [random_tangent_vector(rng, N, v) for _ in range(p + q)]
            got = evaluate_at(w, v, vecs)
            want = shuffle_wedge_value(a, b, v, vecs)
            assert got == pytest.approx(want, abs=1e-9, rel=1e-9)


class TestProjection:
    def test_radial_one_form_is_zero(self):
        r_flat = InvariantForm(N, {((), (i,)): SpherePoly.variable(N, i) for i in range(N)})
        assert r_flat.is_zero()

    def test_projection_idempotent(self):
        rng = random.Random(31)
        for _ in range(20):
            raw = {}
            for _ in range(3):
                k = rng.randrange(0, 3)
                I = tuple(sorted(rng.sample(range(N), rng.randrange(0, 2))))
                J = tuple(sorted(rng.sample(range(N), k)))
                raw[(I, J)] = random_sphere_poly(rng, N)
            a = InvariantForm(N, raw)
            again = InvariantForm(N, a.terms)
            assert a == again

    def test_projected_kills_radial_contraction(self):
        rng = random.Random(32)
        for _ in range(10):
            a = random_form(rng, N, 2)
            out = {}
            for (I, J), p in a.terms.items():
                for pos, j in enumerate(J):
                    q = p * SpherePoly.variable(N, j)
                    if (len(I) + pos) % 2:
                        q = -q
                    key = (I, J[:pos] + J[pos + 1:])
                    cur = out.get(key)
                    out[key] = q if cur is None else cur + q
            res = InvariantForm(N, {k: v for k, v in out.items() if v}, projected=True)
            assert res.is_zero()


class TestDerivative:
    def test_monomial_rule(self):
        a = InvariantForm(N, {((0,), ()): SpherePoly.variable(N, 0)})
        expect = InvariantForm(N, {((0,), (0,)): SpherePoly.constant(N, -1)})
        assert d(a) == expect

    def test_d_alpha_nonzero_dd_zero(self):
        da = d(alpha_form(N))
        assert not da.is_zero()
        assert d(da).is_zero()

    def test_dd_zero_random(self):
        rng = random.Random(41)
        for _ in range(15):
            a = random_form(rng, N, rng.randrange(0, 3))
            assert d(d(a)).is_zero()

    def test_leibniz(self):
        rng = random.Random(42)
        for _ in range(12):
            p = rng.randrange(1, 3)
            a = random_form(rng, N, p)
            b = random_form(rng, N, rng.randrange(1, 3))
            lhs = d(a.wedge(b))
            rhs = d(a).wedge(b) + (a.wedge(d(b)) if p % 2 == 0 else -(a.wedge(d(b))))
            assert lhs == rhs

    def test_finite_difference_oracle(self):
        rng = random.Random(43)
        for trial in range(8):
            deg = rng.randrange(1, 3)
            a = random_form(rng, N, deg)
            da = d(a)
            point, frame = orthographic_chart(N, axis=3, signs=1)
            x = np.zeros(N)
            u = np.array([rng.uniform(-0.3, 0.3) for _ in range(N - 1)])
            for _ in range(3):
                subset = tuple(sorted(rng.sample(range(2 * N - 1), deg + 1)))
                got = chart_component(da, frame, x, u, subset)
                want = fd_exterior_derivative(a, frame, x, u, subset)
                assert got == pytest.approx(want, abs=2e-6)


class TestContract:
    def test_reeb_alpha_is_one(self):
        res = reeb_contract(alpha_form(N))
        assert res == InvariantForm(N, {((), ()): SpherePoly.constant(N, 1)}, projected=True)

    def test_reeb_dx(self):
        res = reeb_contract(dx_form(N, 0))
        assert res == InvariantForm(N, {((), ()): SpherePoly.variable(N, 0)}, projected=True)

    def test_double_contraction_zero(self):
        rng = random.Random(51)
        for _ in range(10):
            a = random_form(rng, N, 3)
            assert reeb_contract(reeb_contract(a)).is_zero()

    def test_numeric_oracle(self):
        rng = random.Random(52)
        for _ in range(20):
            deg = rng.randrange(1, 4)
            a = random_form(rng, N, deg)
            got_form = reeb_contract(a)
            v = random_unit(rng, N)
            vecs = [random_tangent_vector(rng, N, v) for _ in range(deg - 1)]
            got = evaluate_at(got_form, v, vecs)
            # the Reeb field's value at (x, v) is (v, 0)
            want = numeric_contraction(a, v, np.concatenate([v, np.zeros(N)]), vecs)
            assert got == pytest.approx(want, abs=1e-9, rel=1e-9)

    def test_reeb_contract_is_sum_of_slots(self):
        # i_T a = sum_i v_i i_(d/dx_i) a
        rng = random.Random(53)
        for _ in range(12):
            a = random_form(rng, N, rng.randrange(1, 4))
            want = InvariantForm.zero(N)
            for i in range(N):
                want = want + contract_slot(a, 0, i) * SpherePoly.variable(N, i)
            assert reeb_contract(a) == want


class TestLieReeb:
    def test_alpha_invariant(self):
        assert lie_reeb(alpha_form(N)).is_zero()

    def test_commutes_with_d(self):
        rng = random.Random(61)
        for _ in range(8):
            a = random_form(rng, N, rng.randrange(1, 3))
            assert lie_reeb(d(a)) == d(lie_reeb(a))


class TestPullbacks:
    def test_antipode_alpha(self):
        assert pullback_antipode(alpha_form(N)) == -alpha_form(N)

    def test_antipode_involution(self):
        rng = random.Random(71)
        for _ in range(10):
            a = random_form(rng, N, rng.randrange(0, 4))
            assert pullback_antipode(pullback_antipode(a)) == a

    def test_antipode_commutes_with_d(self):
        rng = random.Random(72)
        for _ in range(8):
            a = random_form(rng, N, rng.randrange(1, 3))
            assert pullback_antipode(d(a)) == d(pullback_antipode(a))

    def test_ball_shift_dx(self):
        t = Rat(1, 3)
        got = pullback_ball_shift(dx_form(N, 0), t)
        expect = InvariantForm(N, {((0,), ()): SpherePoly.constant(N, 1),
                                   ((), (0,)): SpherePoly.constant(N, t)})
        assert got == expect

    def test_ball_shift_composition(self):
        rng = random.Random(73)
        a = random_form(rng, N, 2)
        one_then_two = pullback_ball_shift(pullback_ball_shift(a, Rat(1, 2)), Rat(1, 3))
        at_once = pullback_ball_shift(a, Rat(5, 6))
        assert one_then_two == at_once
        assert pullback_ball_shift(a, 0) == a

    def test_ball_shift_algebra_hom(self):
        rng = random.Random(74)
        a = random_form(rng, N, 1)
        b = random_form(rng, N, 2)
        t = Rat(2, 5)
        lhs = pullback_ball_shift(a.wedge(b), t)
        rhs = pullback_ball_shift(a, t).wedge(pullback_ball_shift(b, t))
        assert lhs == rhs

    def test_ball_shift_is_the_exponential_of_lie_reeb(self):
        # (x, v) -> (x + t v, v) is the flow of the Reeb field, whose Lie
        # derivative lowers |I|, so the pullback is the finite sum of
        # t^k / k! lie_reeb^k: the Taylor sum that gives tube values
        forms = [z_rep(ImDirection.of(1, 0, 2)).omega]
        forms += [intrinsic_volume_rep(n, k).omega for n in (2, 3, 4) for k in range(n)]
        for omega in forms:
            powers = [omega]
            while powers[-1]:
                powers.append(lie_reeb(powers[-1]))
            assert len(powers) <= omega.n + 1
            for t in (Rat(1, 3), Rat(5, 2)):
                taylor = InvariantForm.zero(omega.n)
                for k, term in enumerate(powers):
                    taylor = taylor + term * (t ** k / math.factorial(k))
                assert pullback_ball_shift(omega, t) == taylor

    def test_linear_rotation_preserves_alpha(self):
        A = [[Rat(3, 5), Rat(-4, 5), 0, 0],
             [Rat(4, 5), Rat(3, 5), 0, 0],
             [0, 0, 1, 0],
             [0, 0, 0, 1]]
        assert pullback_linear(alpha_form(N), A) == alpha_form(N)
        assert pullback_linear(sphere_volume_form(N), A) == sphere_volume_form(N)

    def test_linear_commutes_with_d(self):
        A = [[Rat(3, 5), Rat(-4, 5), 0, 0],
             [Rat(4, 5), Rat(3, 5), 0, 0],
             [0, 0, 1, 0],
             [0, 0, 0, 1]]
        rng = random.Random(75)
        for _ in range(5):
            a = random_form(rng, N, 2)
            assert pullback_linear(d(a), A) == d(pullback_linear(a, A))

    def test_non_orthogonal_rejected(self):
        A = [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        with pytest.raises(ValueError):
            pullback_linear(alpha_form(N), A)


@pytest.mark.parametrize("e", [(-1, 0, 0), (2, 0, 0, -2)])
def test_sphere_integral_rejects_negative_exponents(e):
    with pytest.raises(ValueError) as exc:
        sphere_monomial_integral(e)
    assert str(exc.value) == "negative exponent"


class TestSphereIntegral:
    def test_golden_values(self):
        assert sphere_monomial_integral((0, 0, 0, 0)) == 2 * PI ** 2
        assert sphere_monomial_integral((2, 0, 0, 0)) == Scalar.of(1, 2, pi=2)
        assert sphere_monomial_integral((2, 2, 0, 0)) == Scalar.of(1, 12, pi=2)
        assert sphere_monomial_integral((1, 0, 0, 0)).is_zero()
        assert sphere_monomial_integral((0, 0)) == 2 * PI
        assert sphere_monomial_integral((0, 0, 0)) == 4 * PI
        assert sphere_monomial_integral((2, 0, 0)) == Scalar.of(4, 3, pi=1)

    def test_quartic_identity(self):
        total = ZERO
        for i in range(4):
            e = [0] * 4
            e[i] = 4
            total = total + sphere_monomial_integral(tuple(e))
        for i in range(4):
            for j in range(4):
                if i != j:
                    e = [0] * 4
                    e[i] = 2
                    e[j] = 2
                    total = total + sphere_monomial_integral(tuple(e))
        assert total == 2 * PI ** 2

    @staticmethod
    def _by_gamma(e):
        """2 prod_i Gamma((e_i + 1)/2) / Gamma((|e| + n)/2), zero unless every
        e_i is even, from ``_oracles.gamma_half``."""
        if any(ei % 2 for ei in e):
            return ZERO
        value, roots = Rat(2), 0
        for ei in e:
            g, h = gamma_half(ei + 1)
            value, roots = value * g, roots + h
        g, h = gamma_half(sum(e) + len(e))
        return Scalar({(roots - h) // 2: value / g})

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_numerator_times_factor(self, n):
        # the contraction scales each degree's sum of numerators by one
        # factor: their product is the whole integral
        for e in itertools.product(range(9), repeat=n):
            whole = sphere_factor(n, sum(e)) * sphere_numerator(e)
            assert whole == sphere_monomial_integral(e) == self._by_gamma(e), e

    def test_numerator_times_factor_near_2_15(self):
        e = ((1 << 15) - 2, 4, 0, 2)
        whole = sphere_factor(4, sum(e)) * sphere_numerator(e)
        assert whole == sphere_monomial_integral(e) == self._by_gamma(e) != 0

    def test_monte_carlo_cross_check(self):
        rng = np.random.default_rng(12345)
        pts = rng.standard_normal((200000, 4))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        area = float(2 * PI ** 2)
        for e in [(2, 0, 0, 0), (2, 2, 0, 0), (4, 0, 0, 0), (2, 2, 2, 2)]:
            vals = np.prod(pts ** np.array(e), axis=1)
            approx = vals.mean() * area
            exact = float(sphere_monomial_integral(e))
            assert approx == pytest.approx(exact, rel=0.05)


class TestFiberIntegrate:
    def test_sphere_volume(self):
        got = fiber_integral(sphere_volume_form(N))
        assert got == {(): 2 * PI ** 2}

    def test_fractions_fraction_accepted(self):
        # the standard library's type is exact whichever backend Rat is
        assert list(_pi_terms(Fraction(2, 3))) == [(0, Rat(2, 3))]
        got = fiber_integral(sphere_volume_form(N) * Fraction(1, 2))
        assert got == {(): PI ** 2}

    def test_low_fiber_degree_vanishes(self):
        a = dx_form(N, 0).wedge(dx_form(N, 1)).wedge(dx_form(N, 2))
        assert not fiber_integral(a)

    def test_stokes_on_fiber(self):
        # d of any form with fiber degree at most n-2 integrates to zero
        rng = random.Random(91)
        for I_len in range(0, 4):
            for _ in range(6):
                I = tuple(sorted(rng.sample(range(N), I_len)))
                J = tuple(sorted(rng.sample(range(N), rng.randrange(0, N - 1))))
                p = random_sphere_poly(rng, N, max_deg=3)
                a = InvariantForm(N, {(I, J): p})
                assert not fiber_integral(d(a))


class TestHodge:
    def test_star_of_one(self):
        one = InvariantForm(N, {((), ()): SpherePoly.constant(N, 1)}, projected=True)
        vol = dx_top_form(N).wedge(sphere_volume_form(N))
        assert hodge_star(one) == vol
        assert hodge_star(vol) == one

    def test_star_dx1(self):
        rest = dx_form(N, 1).wedge(dx_form(N, 2)).wedge(dx_form(N, 3))
        expect = rest.wedge(sphere_volume_form(N))
        assert hodge_star(dx_form(N, 0)) == expect

    def test_star_sphere_volume(self):
        assert hodge_star(sphere_volume_form(N)) == dx_top_form(N)

    def test_double_star_identity(self):
        rng = random.Random(101)
        for _ in range(20):
            a = random_form(rng, N, rng.randrange(0, 5))
            assert hodge_star(hodge_star(a)) == a

    def test_pairing_symmetry(self):
        rng = random.Random(102)
        for _ in range(10):
            k = rng.randrange(1, 4)
            a = random_form(rng, N, k)
            b = random_form(rng, N, k)
            ab = a.wedge(hodge_star(b))
            ba = b.wedge(hodge_star(a))
            assert ab == ba

    def test_numeric_frame_oracle(self):
        rng = random.Random(103)
        for _ in range(30):
            deg = rng.randrange(1, 4)
            a = random_form(rng, N, deg)
            star = hodge_star(a)
            v = random_unit(rng, N)
            frame = bundle_frame(v)
            comps = frame_components(a, v, frame, deg)
            want = numeric_hodge_components(comps, 2 * N - 1, deg)
            got = frame_components(star, v, frame, 2 * N - 1 - deg)
            for S, val in want.items():
                assert got[S] == pytest.approx(val, abs=1e-9)


class TestValidation:
    def test_bad_indices(self):
        with pytest.raises(ValueError):
            InvariantForm(N, {((1, 0), ()): SpherePoly.constant(N, 1)})
        with pytest.raises(ValueError):
            InvariantForm(N, {((0, 4), ()): SpherePoly.constant(N, 1)})

    @pytest.mark.parametrize("key, message", [
        (((1, 0), ()), "index tuples must be strictly ascending: ((1, 0), ())"),
        (((0,), (2, 2)), "index tuples must be strictly ascending: ((0,), (2, 2))"),
        (((0, 4), ()), "index out of range for dimension 4: ((0, 4), ())"),
        (((), (-1, 2)), "index out of range for dimension 4: ((), (-1, 2))"),
    ], ids=["I-unsorted", "J-repeated", "I-past-n", "J-negative"])
    def test_index_errors_name_the_key(self, key, message):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            InvariantForm(N, {key: SpherePoly.constant(N, 1)})

    @pytest.mark.parametrize("n", [0, 1, 5, 8])
    def test_dimension_outside_the_range(self, n):
        # forms, valuations and bodies live in R^2..R^4, checked where they
        # are built, before any table keyed by the dimension
        tables = (columns._group, columns._partners, bodies._subsets)
        before = [t.cache_info().currsize for t in tables]
        message = f"^dimension {n} is outside 2\\.\\.4, the dimensions valcalc works in$"
        builds = [
            lambda: InvariantForm(n, {}),
            lambda: intrinsic_volume_rep(n, 1),
            lambda: bodies.Ball(np.zeros(n), 1.0),
            lambda: bodies.Box(np.zeros(n), np.ones(n)),
            lambda: bodies.Simplex(np.vstack([np.zeros(n), np.eye(n)])),
            lambda: bodies.PlanarPolygon(np.eye(2, n), [[0, 0], [1, 0], [0, 1]]),
        ]
        for build in builds:
            with pytest.raises(ValueError, match=message):
                build()
        assert [t.cache_info().currsize for t in tables] == before

    def test_high_dimension_refused_before_its_tables(self):
        # V_2 of R^8 would build S_7's tables, gigabytes; a regression
        # times out here instead of holding up the suite
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        proc = subprocess.run(
            [sys.executable, "-c",
             "from valcalc.valuation import intrinsic_volume_rep; intrinsic_volume_rep(8, 2)"],
            capture_output=True, text=True, timeout=30, env=env)
        assert proc.returncode == 1
        assert proc.stderr.splitlines()[-1] == (
            "ValueError: dimension 8 is outside 2..4, the dimensions valcalc works in")

    def test_evaluate_basic(self):
        v = np.array([0.0, 0.0, 0.0, 1.0])
        e0 = np.zeros(8)
        e0[0] = 1.0
        assert evaluate_at(dx_form(N, 0), v, [e0]) == pytest.approx(1.0)
        f = np.zeros(8)
        f[4] = 1.0
        # projected dv_1 at the pole e_4 keeps its tangential component
        assert evaluate_at(dv_form(N, 0), v, [f]) == pytest.approx(1.0)


# run in a fresh process: number other monomials first, then print the
# pickle of sigma Z_v, whose form's split vectors follow that numbering
_PICKLE_IN_ANOTHER_ORDER = """
import pickle, sys
from valcalc.su2 import ImDirection, z_rep
from valcalc.valuation import derivation, intrinsic_volume_rep, signature
derivation(derivation(intrinsic_volume_rep(4, 2)))
signature(z_rep(ImDirection.of(5, 0, -2)))
rep = signature(z_rep(ImDirection.of(0, 3, -2)))
sys.stdout.write(pickle.dumps(rep).hex())
"""


class TestPickle:
    """A form pickles as its terms: split vectors number monomials in the
    order one process first saw them, so they stay behind."""

    def test_split_forms_copy_to_equal_forms_without_vectors(self):
        zu = z_rep(ImDirection.of(1, 0, 2))
        sig = signature(zu).omega
        _split_vectors(zu.omega)
        assert zu.omega._parts is not None and sig._parts is not None and sig._terms is None
        for form in (zu.omega, sig):
            for twin in (pickle.loads(pickle.dumps(form)), copy.deepcopy(form)):
                assert twin == form
                assert twin._parts is None and twin._key is None and twin._terms is not None

    def test_form_pickled_in_another_process_pairs_the_same(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        proc = subprocess.run([sys.executable, "-c", _PICKLE_IN_ANOTHER_ORDER],
                              capture_output=True, text=True, timeout=300, env=env)
        assert proc.returncode == 0, proc.stderr
        theirs = pickle.loads(bytes.fromhex(proc.stdout))
        ours = signature(z_rep(ImDirection.of(0, 3, -2)))
        zu = z_rep(ImDirection.of(1, 0, 2))
        assert theirs.omega == ours.omega and theirs.phi == ours.phi
        assert pairing(zu, theirs) == pairing(zu, ours) != 0


class TestDimensionTwoThree:
    def test_small_dimensions(self):
        for n in (2, 3):
            a = alpha_form(n)
            assert a.wedge(a).is_zero()
            assert d(d(a)).is_zero()
            assert fiber_integral(sphere_volume_form(n)) == \
                {(): sphere_monomial_integral((0,) * n)}
            one = InvariantForm(n, {((), ()): SpherePoly.constant(n, 1)}, projected=True)
            assert hodge_star(hodge_star(one)) == one
