import random

import numpy as np
import pytest

from _oracles import (
    bundle_frame,
    dx_top_form,
    evaluate_at,
    random_form,
    rumin_ansatz,
    sphere_volume_form,
    stated_z_form,
    verify_zero_valuation,
)
from valcalc import columns
from valcalc.columns import _join_vectors, _key_vectors, _split_vectors, _vector_key
from valcalc.columns import FORM_CACHE_SIZE
from valcalc.contact import (
    RuminResult,
    _rumin_cached,
    dual_lefschetz,
    horizontal_part,
    rumin,
)
from valcalc.exterior import (
    InvariantForm,
    SpherePoly,
    alpha_form,
    d,
    lie_reeb,
    reeb_contract,
)
from valcalc.scalars import PI, Rat, Scalar
from valcalc.su2 import ImDirection, z_rep
from valcalc.valuation import intrinsic_volume_rep, signature


class TestContactData:
    def test_reeb_pairing(self):
        for n in (2, 3, 4):
            # built once per dimension
            assert alpha_form(n) is alpha_form(n)
            one = InvariantForm(n, {((), ()): SpherePoly.constant(n, 1)}, projected=True)
            assert reeb_contract(alpha_form(n)) == one
            assert lie_reeb(alpha_form(n)).is_zero()

    def test_contact_condition_nondegenerate(self):
        # alpha ^ (d alpha)^(n-1) never vanishes on the bundle
        rng = random.Random(7)
        for n in (2, 3, 4):
            form = alpha_form(n)
            da = d(alpha_form(n))
            for _ in range(n - 1):
                form = form.wedge(da)
            for _ in range(10):
                raw = np.array([rng.gauss(0, 1) for _ in range(n)])
                v = raw / np.linalg.norm(raw)
                frame = bundle_frame(v)
                assert abs(evaluate_at(form, v, frame)) > 1e-9

    def test_dual_lefschetz_trace(self):
        for n in (2, 3, 4):
            got = dual_lefschetz(d(alpha_form(n)))
            expect = InvariantForm(n, {((), ()): SpherePoly.constant(n, n - 1)},
                                   projected=True)
            assert got == expect


class TestRumin:
    def test_exact_forms_have_zero_derivative(self):
        rng = random.Random(11)
        for n in (2, 3, 4):
            for _ in range(4):
                eta = random_form(rng, n, n - 2)
                res = rumin(d(eta))
                assert res.D_omega.is_zero()

    def test_alpha_multiples_have_zero_derivative(self):
        rng = random.Random(12)
        for n in (2, 3, 4):
            for _ in range(4):
                tau = random_form(rng, n, n - 2)
                res = rumin(alpha_form(n).wedge(tau))
                assert res.D_omega.is_zero()

    def test_result_invariants(self):
        rng = random.Random(13)
        for n in (3, 4):
            for _ in range(4):
                omega = random_form(rng, n, n - 1)
                res = rumin(omega)
                assert res.D_omega == d(omega + alpha_form(n).wedge(res.xi))
                assert horizontal_part(res.D_omega).is_zero()
                assert d(res.D_omega).is_zero()
                if not res.xi.is_zero():
                    assert res.xi.degree() == n - 2

    def test_linearity(self):
        rng = random.Random(14)
        for n in (3, 4):
            w1 = random_form(rng, n, n - 1)
            w2 = random_form(rng, n, n - 1)
            a, b = Rat(2, 3), Rat(-5, 7)
            lhs = rumin(w1 * a + w2 * b).D_omega
            rhs = rumin(w1).D_omega * a + rumin(w2).D_omega * b
            assert lhs == rhs

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rumin(alpha_form(4))

    def test_zero_input(self):
        res = rumin(InvariantForm.zero(4))
        assert res.D_omega.is_zero() and res.xi.is_zero()

    def test_sphere_volume_closed(self):
        for n in (2, 3, 4):
            res = rumin(sphere_volume_form(n))
            assert res.D_omega.is_zero()

    def test_pi_coefficients(self):
        omega = sphere_volume_form(4) * (PI ** -1) + \
            random_form(random.Random(15), 4, 3) * Scalar.of(1, 2, pi=1)
        res = rumin(omega)
        assert horizontal_part(res.D_omega).is_zero()
        assert d(res.D_omega).is_zero()


class TestRuminCache:
    def test_size_stays_within_bound(self):
        base = intrinsic_volume_rep(3, 1).omega
        for k in range(1, FORM_CACHE_SIZE + 10):
            rumin(base * k)
        info = _rumin_cached.cache_info()
        assert info.maxsize == FORM_CACHE_SIZE
        assert info.currsize <= FORM_CACHE_SIZE

    def test_repeated_form_hits(self):
        omega = intrinsic_volume_rep(3, 2).omega * 7
        first = rumin(omega)
        hits = _rumin_cached.cache_info().hits
        assert rumin(omega) is first
        assert _rumin_cached.cache_info().hits == hits + 1

    def test_repeated_form_computes_its_key_once(self, monkeypatch):
        # the key stays with the form's split vectors, so a repeated hit is
        # one lookup
        omega = signature(z_rep(ImDirection.of(3, 0, -7))).omega
        calls = []
        key = columns._vector_key
        monkeypatch.setattr(columns, "_vector_key", lambda n, parts: calls.append(n) or key(n, parts))
        first = rumin(omega)
        for _ in range(3):
            assert rumin(omega) is first
        assert len(calls) == 1

    def test_key_is_the_vectors(self):
        # the cache takes the form and keys its LRU on the split form's
        # vector key, which the form keeps: the form of that key's vectors hits
        omega = intrinsic_volume_rep(4, 2).omega * 5
        first = rumin(omega)
        assert _rumin_cached(omega) is first
        assert omega._key == _vector_key(4, _split_vectors(omega))
        assert _rumin_cached(_join_vectors(*_key_vectors(omega._key))) is first

    def test_form_rebuilt_from_the_same_vectors_hits(self):
        # a new form object with equal vectors (copied arrays) is a hit,
        # and neither form builds its Scalar terms
        omega = signature(z_rep(ImDirection.of(2, 0, 5))).omega
        first = rumin(omega)
        hits = _rumin_cached.cache_info().hits
        copied = {k: (den, {ab: (ids.copy(), vals.copy()) for ab, (ids, vals) in blocks.items()})
                  for k, (den, blocks) in omega._parts.items()}
        again = _join_vectors(4, copied)
        assert again is not omega
        assert rumin(again) is first
        assert _rumin_cached.cache_info().hits == hits + 1
        assert omega._terms is None and again._terms is None

    def test_object_vectors_round_trip_the_key(self):
        # values past int64 enter the key as a tuple of Python ints
        u = ImDirection.of(2, -(2 ** 70 + 3), 7)
        omega = z_rep(u).omega
        key = _vector_key(4, omega._parts)
        n, parts = _key_vectors(key)
        assert n == 4 and parts.keys() == omega._parts.keys()
        for k, (den, blocks) in omega._parts.items():
            assert parts[k][0] == den and parts[k][1].keys() == blocks.keys()
            for ab, (ids, vals) in blocks.items():
                got_ids, got_vals = parts[k][1][ab]
                assert vals.dtype == got_vals.dtype == object
                assert got_ids.tolist() == ids.tolist() and got_vals.tolist() == vals.tolist()
        assert rumin(omega).D_omega == rumin(-stated_z_form(u)).D_omega


class TestAnsatz:
    # the polynomial-ansatz solve of tests/_oracles.py finds the correction by
    # exact linear algebra, apart from the closed-form Lefschetz solve
    def test_matches_closed_form_small_dims(self):
        rng = random.Random(21)
        for n in (2, 3):
            for _ in range(3):
                omega = random_form(rng, n, n - 1)
                _, D_ansatz, deg = rumin_ansatz(omega)
                assert D_ansatz == rumin(omega).D_omega
                assert horizontal_part(D_ansatz).is_zero()
                assert deg >= 0

    def test_matches_closed_form_dim_four(self):
        n = 4
        omega = InvariantForm(n, {
            ((0,), (1, 2)): SpherePoly.constant(n, 1),
            ((1, 3), (0,)): SpherePoly.constant(n, Rat(1, 2)),
        })
        assert rumin_ansatz(omega)[1] == rumin(omega).D_omega


class TestVerifyZero:
    def test_zero_pair(self):
        for n in (2, 3, 4):
            assert verify_zero_valuation(InvariantForm.zero(n))

    def test_exact_low_fiber_degree(self):
        # eta of fiber degree <= n-2 gives an exact form with zero fiber integral
        rng = random.Random(31)
        for n in (3, 4):
            for _ in range(5):
                raw = {}
                for _ in range(3):
                    jlen = rng.randrange(0, n - 1)
                    ilen = n - 2 - jlen
                    if not 0 <= ilen <= n:
                        continue
                    I = tuple(sorted(rng.sample(range(n), ilen)))
                    J = tuple(sorted(rng.sample(range(n), jlen)))
                    e = [0] * n
                    e[rng.randrange(n)] = rng.randrange(0, 2)
                    raw[(I, J)] = SpherePoly(n, {tuple(e): Rat(rng.randrange(-3, 4))})
                eta = InvariantForm(n, raw)
                assert verify_zero_valuation(d(eta))

    def test_euler_representative_not_zero(self):
        omega = sphere_volume_form(4) * (PI ** -2) * Rat(1, 2)
        assert rumin(omega).D_omega.is_zero()
        assert not verify_zero_valuation(omega)

    def test_volume_not_zero(self):
        phi = Scalar.of(1)
        assert not verify_zero_valuation(InvariantForm.zero(4), phi)
