import math
import random

import pytest

from _oracles import (
    degree_component,
    fiber_integral,
    pairing_reference,
    pullback_linear,
    random_form,
    random_rational,
    random_sphere_poly,
    sphere_volume_form,
    unit_cube_value,
    verify_zero_valuation,
)
from valcalc import columns, valuation
from valcalc.bodies import klain
from valcalc.contact import rumin
from valcalc.exterior import InvariantForm, SpherePoly, d, reeb_contract
from valcalc.scalars import ONE, PI, Rat, Scalar, ZERO, rational
from valcalc.su2 import ImDirection, su2_basis, z_rep
from valcalc.valuation import (
    ValuationRep,
    derivation,
    euler_verdier,
    intrinsic_volume_rep,
    laplace,
    pairing,
    product_top,
    signature,
)


def random_valuation(rng, n):
    omega = random_form(rng, n, n - 1)
    phi = Scalar({0: random_rational(rng)})
    return ValuationRep(n, omega, phi)


class TestRepBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            ValuationRep(4, sphere_volume_form(3))
        with pytest.raises(ValueError):
            ValuationRep(4, InvariantForm(4, {((0,), ()): SpherePoly.constant(4, 1)}))

    def test_phi_is_a_scalar(self):
        assert ValuationRep.zero(4).phi is ZERO
        for phi in (1.0, 1, Rat(1)):
            with pytest.raises(TypeError, match="phi must be a Scalar"):
                ValuationRep(4, InvariantForm.zero(4), phi)

    def test_float_rep_scales_by_floats(self):
        # a float rep's phi is zero, and stays an exact zero
        half = z_rep(ImDirection.of(1.0, 0.0, 0.0)) * 0.5
        assert half.phi is ZERO and not half.is_exact()
        assert half.degree() == 2

    def test_degree_components(self):
        rng = random.Random(3)
        mu = random_valuation(rng, 4)
        recon = ValuationRep.zero(4)
        for k in sorted(mu.degrees()):
            comp = degree_component(mu, k)
            if k < 4:
                assert comp.degrees() <= {k}
            recon = recon + comp
        assert recon.omega == mu.omega and recon.phi == mu.phi

    def test_arithmetic(self):
        rng = random.Random(4)
        a = random_valuation(rng, 3)
        b = random_valuation(rng, 3)
        s = (a + b) - b
        assert s.omega == a.omega and s.phi == a.phi
        t = a * Rat(2, 3)
        assert t.omega == a.omega * Rat(2, 3)


class TestIntrinsicVolumes:
    def test_cube_normalization(self):
        for n in (2, 3, 4):
            for k in range(n + 1):
                mu = intrinsic_volume_rep(n, k)
                assert unit_cube_value(mu) == rational(math.comb(n, k))
                assert mu.degree() == k

    def test_ball_normalization_matches_cube_normalization(self):
        # the library scales each rotation-invariant rep by its value on the
        # unit ball; scaled to binomial(n, k) on the unit cube it is the same
        for n in (2, 3, 4):
            for k in range(n):
                top_pair = valuation._invariant_top_pair(n, n - 1 - k)
                raw = ValuationRep(n, reeb_contract(top_pair))
                want = raw * (rational(math.comb(n, k)) / unit_cube_value(raw))
                got = intrinsic_volume_rep(n, k)
                assert got.omega == want.omega and got.phi == want.phi == ZERO, (n, k)

    def test_euler_rep_matches_sphere_measure(self):
        chi = intrinsic_volume_rep(4, 0)
        assert chi.omega == sphere_volume_form(4) * (Rat(1, 2) * PI ** -2)
        chi3 = intrinsic_volume_rep(3, 0)
        assert chi3.omega == sphere_volume_form(3) * (Rat(1, 4) * PI ** -1)

    def test_rotation_invariance(self):
        A = [[Rat(3, 5), Rat(-4, 5), 0, 0],
             [Rat(4, 5), Rat(3, 5), 0, 0],
             [0, 0, Rat(5, 13), Rat(-12, 13)],
             [0, 0, Rat(12, 13), Rat(5, 13)]]
        for k in range(4):
            om = intrinsic_volume_rep(4, k).omega
            assert pullback_linear(om, A) == om

    def test_top_is_volume(self):
        vol = intrinsic_volume_rep(4, 4)
        assert vol.omega.is_zero()
        assert vol.phi == ONE


class TestGoldenPairings:
    def test_euler_against_volume(self):
        for n in (2, 3, 4):
            chi = intrinsic_volume_rep(n, 0)
            vol = intrinsic_volume_rep(n, n)
            assert pairing(chi, vol) == ONE
            assert pairing(vol, chi) == ONE
            assert product_top(vol, euler_verdier(chi)) == ONE

    def test_complementary_intrinsic_volumes(self):
        v1 = intrinsic_volume_rep(4, 1)
        v3 = intrinsic_volume_rep(4, 3)
        assert pairing(v1, v3) == Rat(3, 4) * PI
        assert pairing(v3, v1) == Rat(3, 4) * PI

    def test_degree_orthogonality(self):
        reps = [intrinsic_volume_rep(4, k) for k in range(5)]
        for a in range(5):
            for b in range(5):
                val = pairing(reps[a], reps[b])
                if a + b != 4:
                    assert val.is_zero()
                else:
                    assert not val.is_zero()


class TestOperators:
    def test_reflection_fixes_volume_and_euler(self):
        vol = intrinsic_volume_rep(4, 4)
        sv = euler_verdier(vol)
        assert sv.omega == vol.omega and sv.phi == vol.phi
        chi = intrinsic_volume_rep(4, 0)
        sc = euler_verdier(chi)
        assert sc.omega == chi.omega

    def test_reflection_adjoint_sign(self):
        rng = random.Random(11)
        for n in (3, 4):
            for _ in range(5):
                a = random_valuation(rng, n)
                b = random_valuation(rng, n)
                lhs = pairing(euler_verdier(a), b)
                rhs = pairing(a, euler_verdier(b))
                if n % 2:
                    rhs = -rhs
                assert lhs == rhs

    def test_reflection_involution_at_pairing_level(self):
        rng = random.Random(12)
        a = random_valuation(rng, 4)
        aa = euler_verdier(euler_verdier(a))
        for k in range(5):
            probe = intrinsic_volume_rep(4, k)
            assert pairing(aa, probe) == pairing(a, probe)

    def test_derivation_kills_euler(self):
        for n in (2, 3, 4):
            out = derivation(intrinsic_volume_rep(n, 0))
            assert out.omega.is_zero() and out.phi.is_zero()

    def test_derivation_of_volume(self):
        # the derivative of volume is twice the codegree-one intrinsic volume
        n = 4
        diff = derivation(intrinsic_volume_rep(n, n)) - intrinsic_volume_rep(n, 3) * 2
        assert verify_zero_valuation(diff.omega, diff.phi)

    def test_derivation_lowers_degree(self):
        for k in range(1, 4):
            mu = intrinsic_volume_rep(4, k)
            assert derivation(mu).degrees() <= {k - 1}

    def test_derivation_self_adjoint(self):
        rng = random.Random(13)
        for _ in range(5):
            a = random_valuation(rng, 4)
            b = random_valuation(rng, 4)
            assert pairing(derivation(a), b) == pairing(a, derivation(b))

    def test_derivation_anticommutes_with_reflection(self):
        rng = random.Random(14)
        for _ in range(4):
            a = random_valuation(rng, 4)
            lhs = derivation(euler_verdier(a))
            rhs = euler_verdier(derivation(a))
            for k in range(5):
                probe = intrinsic_volume_rep(4, k)
                assert pairing(lhs, probe) == -pairing(rhs, probe)

    def test_signature_self_adjoint(self):
        rng = random.Random(15)
        for _ in range(4):
            a = random_valuation(rng, 4)
            b = random_valuation(rng, 4)
            assert pairing(signature(a), b) == pairing(a, signature(b))

    def test_signature_reflection_commutator(self):
        rng = random.Random(16)
        for n in (3, 4):
            a = random_valuation(rng, n)
            lhs = euler_verdier(signature(a))
            rhs = signature(euler_verdier(a))
            if n % 2:
                rhs = -rhs
            for k in range(n + 1):
                probe = intrinsic_volume_rep(n, k)
                assert pairing(lhs, probe) == pairing(rhs, probe)

    def test_signature_zero(self):
        out = signature(ValuationRep.zero(4))
        assert out.omega.is_zero() and out.phi.is_zero()

    def test_laplace_self_adjoint(self):
        rng = random.Random(17)
        a = random_valuation(rng, 4)
        b = random_valuation(rng, 4)
        assert pairing(laplace(a), b) == pairing(a, laplace(b))

    def test_laplace_preserves_invariant_degree_two(self):
        v2 = intrinsic_volume_rep(4, 2)
        lv = laplace(v2)
        c = pairing(lv, v2) / pairing(v2, v2)
        diff = lv - v2 * c
        assert verify_zero_valuation(diff.omega, diff.phi)


def graded_valuation(rng, n, k):
    """Random exact valuation of degree k: a form of bidegree (k, n - 1 - k)
    with polynomials of degree up to 5, or a volume multiple when k = n."""
    if k == n:
        return ValuationRep(n, InvariantForm.zero(n), Scalar({0: random_rational(rng, 1, 7)}))
    terms = {}
    for _ in range(4):
        I = tuple(sorted(rng.sample(range(n), k)))
        J = tuple(sorted(rng.sample(range(n), n - 1 - k)))
        terms[(I, J)] = random_sphere_poly(rng, n, 5, nterms=4, den=6)
    return ValuationRep(n, InvariantForm(n, terms))


class TestPairingSymmetry:
    """The pairing is symmetric, with sign +1, on valuations of every degree
    and either parity (the parts fixed and negated by ``euler_verdier``),
    and pairs an even valuation with an odd one to 0."""

    @pytest.mark.parametrize("k", range(5))
    def test_symmetric_on_random_valuations(self, k):
        rng = random.Random(3300 + k)
        half = Rat(1, 2)
        nonzero = set()
        for _ in range(6):
            parts = []
            for degree in (k, 4 - k):
                mu = graded_valuation(rng, 4, degree)
                reflected = euler_verdier(mu)
                parts.append({"even": (mu + reflected) * half, "odd": (mu - reflected) * half})
            for pa, a in parts[0].items():
                for pb, b in parts[1].items():
                    value = pairing(a, b)
                    assert value == pairing(b, a), (k, pa, pb)
                    if not value.is_zero():
                        nonzero.add((pa, pb))
        # no odd valuation of degree 0 or 4 is nonzero in R^4
        want = {("even", "even"), ("odd", "odd")} if 0 < k < 4 else {("even", "even")}
        assert nonzero == want


class TestKeptPlans:
    """A pairing read through the contraction's kept plans
    (``columns._contract_plan``) equals the one built afresh, and the
    wedge-and-fiber-integrate reference."""

    @pytest.mark.parametrize("k", range(5))
    def test_kept_plans_give_the_fresh_value(self, k):
        rng = random.Random(4500 + k)
        kept = 0
        for _ in range(2):
            a, b = graded_valuation(rng, 4, k), graded_valuation(rng, 4, 4 - k)
            for x, y in ((a, b), (b, a)):
                value = pairing(x, y)
                hits = columns._contract_plan.cache_info().hits
                assert pairing(x, y) == value
                kept += columns._contract_plan.cache_info().hits - hits
                columns._contract_plan.cache_clear()
                assert pairing(x, y) == value == pairing_reference(x, y)
        assert kept


class TestRepresentationIndependence:
    def test_exact_form_does_not_change_pairings(self):
        rng = random.Random(21)
        n = 4
        for _ in range(4):
            a = random_valuation(rng, n)
            b = random_valuation(rng, n)
            raw = {}
            for _ in range(2):
                jlen = rng.randrange(0, n - 1)
                I = tuple(sorted(rng.sample(range(n), n - 2 - jlen)))
                J = tuple(sorted(rng.sample(range(n), jlen)))
                raw[(I, J)] = SpherePoly.constant(n, random_rational(rng))
            eta = InvariantForm(n, raw)
            deta = d(eta)
            assert not fiber_integral(deta)
            shifted = ValuationRep(n, a.omega + deta, a.phi)
            assert pairing(shifted, b) == pairing(a, b)
            assert pairing(b, shifted) == pairing(b, a)


class TestFloatCoefficients:
    # a float-coefficient rep (the icosahedral Z_u) has no exact value: the
    # exact routines raise TypeError instead of reading floats as rationals
    def test_unit_cube_value_rejects(self):
        _, zf = su2_basis("icosahedron")[2]
        with pytest.raises(TypeError):
            unit_cube_value(zf)

    @pytest.mark.parametrize("float_first", [True, False])
    def test_pairing_names_the_cause(self, float_first):
        _, zf = su2_basis("icosahedron")[2]
        v2 = intrinsic_volume_rep(4, 2)
        with pytest.raises(TypeError, match="exact coefficients"):
            pairing(*((zf, v2) if float_first else (v2, zf)))

    @pytest.mark.parametrize("name", ["rumin", "signature", "laplace"])
    def test_rumin_operators_name_the_cause(self, name):
        # the Rumin solve runs on integer coefficients; floats used to surface
        # as a failed verticality check instead of a TypeError
        _, zf = su2_basis("icosahedron")[2]
        op = {"rumin": lambda mu: rumin(mu.omega), "signature": signature,
              "laplace": laplace}[name]
        with pytest.raises(TypeError, match="exact coefficients"):
            op(zf)


@pytest.mark.parametrize("call, message", [
    (lambda: intrinsic_volume_rep(4, 5), "k must lie in 0..4"),
    (lambda: klain(intrinsic_volume_rep(4, 2), [[1, 0, 0], [0, 1, 0]]),
     "frame vectors must have length n"),
    (lambda: intrinsic_volume_rep(3, 1) + intrinsic_volume_rep(4, 1), "dimension mismatch"),
    (lambda: pairing(intrinsic_volume_rep(3, 1), intrinsic_volume_rep(4, 3)),
     "dimension mismatch"),
], ids=["intrinsic-volume-degree", "klain-frame-length", "sum-dimensions",
        "pairing-dimensions"])
def test_argument_checks(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


class TestKlain:
    def test_euler_density(self):
        chi = intrinsic_volume_rep(4, 0)
        assert klain(chi, []) == pytest.approx(1.0)

    def test_frame_count_enforced(self):
        with pytest.raises(ValueError):
            klain(intrinsic_volume_rep(4, 2), [])

    @pytest.mark.parametrize("frame", [[[1, 0, 0, 0], [0, 1, 0]], [[1, 0, 0], [0, 1, 0, 0]],
                                       [[1, 0, 0, 0], [0, 1, 0, 0, 0]]])
    def test_ragged_frame_names_the_row_length(self, frame):
        # rows of unequal length reach the frame's own check, not numpy's
        # complaint about an inhomogeneous shape
        with pytest.raises(ValueError, match="^frame vectors must have length n$"):
            klain(intrinsic_volume_rep(4, 2), frame)

    def test_orthonormality_has_no_relative_slack(self):
        # the Gram matrix's diagonal departs by 9.8e-6, within a relative
        # tolerance of 1e-5 but not within ORTHONORMAL_TOL; 2e-10 is within it
        v2 = intrinsic_volume_rep(4, 2)
        with pytest.raises(ValueError, match="^frame is not orthonormal$"):
            klain(v2, [[1 + 4.9e-6, 0, 0, 0], [0, 1 + 4.9e-6, 0, 0]])
        assert klain(v2, [[1 + 1e-10, 0, 0, 0], [0, 1, 0, 0]]) == \
            pytest.approx(klain(v2, [[1, 0, 0, 0], [0, 1, 0, 0]]), rel=1e-8)
