"""Quaternionic directions, the forms beta/gamma/Omega, and the Z_u valuations."""

import math
import random

import numpy as np
import pytest

from _oracles import (
    fiber_integral,
    imaginary_rotation,
    left_mult_matrix,
    pullback_antipode,
    pullback_linear,
    rational_unit_quaternion,
    right_translation_matrix,
    sphere_volume_form,
    stated_z_form,
    unit_cube_value,
    verify_zero_valuation,
)
from valcalc.exterior import (
    InvariantForm,
    d,
    lie_reeb,
)
from valcalc.contact import rumin
from valcalc import columns, kinematic, su2
from valcalc.bodies import Ball, Box, PlanarPolygon, Simplex, evaluate
from valcalc.columns import _split_vectors
from valcalc.linalg import invert_scalar_matrix
from valcalc.scalars import PI, Rat, Scalar, ZERO, rational
from valcalc.su2 import (
    ImDirection,
    alesker_directions,
    gram_zz,
    icosahedron_directions,
    quaternionic_forms,
    right_mult_matrix,
    su2_basis,
    tasaki_density,
    z_rep,
)
from valcalc.valuation import (
    ValuationRep,
    derivation,
    intrinsic_volume_rep,
    pairing,
    unit_ball_value,
)


def random_direction(rng):
    while True:
        c = tuple(rng.randrange(-5, 6) for _ in range(3))
        if any(c):
            return ImDirection.of(*c)


class TestImDirection:
    def test_canonical_sign(self):
        assert ImDirection.of(-1, 0, 0) == ImDirection.of(1, 0, 0)
        assert ImDirection.of(0, -2, 4) == ImDirection.of(0, 1, -2)

    def test_scale_collapse(self):
        assert ImDirection.of(2, -4, 6) == ImDirection.of(1, -2, 3)
        assert ImDirection.of(Rat(1, 2), 0, Rat(3, 2)).coords == (1, 0, 3)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            ImDirection.of(0, 0, 0)
        with pytest.raises(ValueError):
            ImDirection.of(0.0, 0.0, 0.0)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, float("1.0e400")],
                             ids=["inf", "-inf", "nan", "1.0e400"])
    def test_non_finite_rejected(self, bad):
        # inf / inf would normalize to nan
        for coords in ((bad, 0.0, 0.0), (1.0, bad, 0.0), (0, 1, bad)):
            with pytest.raises(ValueError, match="^direction components must be finite$"):
                ImDirection.of(*coords)

    def test_overflowing_norm_keeps_the_direction(self):
        # 1e200 squared is inf; the components are scaled by the largest first
        assert ImDirection.of(1e200, 0.0, 0.0).coords == (1.0, 0.0, 0.0)
        assert ImDirection.of(-1e300, 1e300, 0.0) == ImDirection.of(1.0, -1.0, 0.0)
        assert ImDirection.of(0.0, 1.5e308, -1.5e308) == ImDirection.of(0.0, 2.0, -2.0)
        # a direction whose norm is finite keeps the bits of dividing by it
        vals = (3e150, -4e150, 1e149)
        norm = math.sqrt(sum(x * x for x in vals))
        assert ImDirection.of(*vals).coords == tuple(x / norm for x in vals)

    def test_float_mode(self):
        u = ImDirection.of(-0.6, -0.8, 0.0)
        assert not u.exact
        assert u.coords[0] > 0
        assert abs(sum(x * x for x in u.coords) - 1.0) < 1e-12

    def test_unit_and_dot(self):
        u = ImDirection.of(2, -1, 3)
        assert abs(sum(x * x for x in u.unit()) - 1.0) < 1e-12
        assert ImDirection.of(1, 0, 0).dot_sq(ImDirection.of(1, 1, 0)) == Rat(1, 2)
        assert u.dot_sq(u) == 1


class TestQuaternionMatrices:
    def test_right_mult_squares_to_minus_norm(self):
        rng = random.Random(3)
        for _ in range(5):
            a, b, c = (rng.randrange(-4, 5) for _ in range(3))
            if not (a or b or c):
                continue
            m = right_mult_matrix(a, b, c)
            s = a * a + b * b + c * c
            sq = [[sum(m[r][t] * m[t][col] for t in range(4)) for col in range(4)]
                  for r in range(4)]
            assert sq == [[-s if r == col else 0 for col in range(4)] for r in range(4)]

    @pytest.mark.parametrize("coef", [(2, -1, 3), (Rat(1, 3), Rat(-2, 5), 0), (0.6, 0.0, -0.8)])
    def test_right_mult_is_the_hamilton_product(self, coef):
        # derived from the left multiplication table, exact for exact entries
        m = right_mult_matrix(*coef)
        assert [list(row) for row in m] == right_translation_matrix((0, *coef))
        assert all(type(x) is type(sum(coef)) for row in m for x in row)

    def test_right_mult_orthogonal(self):
        m = right_mult_matrix(1, 0, 0)
        mtm = [[sum(m[t][r] * m[t][col] for t in range(4)) for col in range(4)]
               for r in range(4)]
        assert mtm == [[1 if r == col else 0 for col in range(4)] for r in range(4)]

    def test_left_right_commute(self):
        rng = random.Random(5)
        for _ in range(4):
            q = rational_unit_quaternion(rng)
            left = left_mult_matrix(q)
            a, b, c = (rng.randrange(-3, 4) for _ in range(3))
            m = right_mult_matrix(a, b, c or 1)
            lm = [[sum(left[r][t] * m[t][col] for t in range(4)) for col in range(4)]
                  for r in range(4)]
            ml = [[sum(m[r][t] * left[t][col] for t in range(4)) for col in range(4)]
                  for r in range(4)]
            assert lm == ml

    def test_rational_unit_quaternion(self):
        rng = random.Random(11)
        for _ in range(5):
            q = rational_unit_quaternion(rng)
            assert sum(x * x for x in q) == 1

    def test_right_translation(self):
        q = (Rat(3, 5), Rat(4, 5), 0, 0)
        m = right_translation_matrix(q)
        # (1,0,0,0) -> q itself
        assert [m[r][0] for r in range(4)] == list(q)

    def test_imaginary_rotation_orthogonal(self):
        rng = random.Random(7)
        q = rational_unit_quaternion(rng)
        rot = imaginary_rotation(q)
        for r in range(3):
            for s in range(3):
                dot = sum(rot[t][r] * rot[t][s] for t in range(3))
                assert dot == (1 if r == s else 0)


class TestQuaternionicForms:
    def test_reeb_relations(self):
        # unit-rational direction (2,3,6)/7 exercises the exact normalization
        for coords in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 3, 6)]:
            u = ImDirection.of(*coords)
            alpha, beta, gamma, omega = quaternionic_forms(u)
            assert (lie_reeb(beta) - gamma).is_zero()
            assert lie_reeb(gamma).is_zero()

    def test_projected(self):
        # re-projecting is a no-op: the stored terms are already tangential
        _, beta, gamma, omega = quaternionic_forms(ImDirection.of(1, 0, 0))
        for form in (beta, gamma, omega):
            assert InvariantForm(4, form.terms) == form

    def test_antipode_flips_beta(self):
        _, beta, _, _ = quaternionic_forms(ImDirection.of(0, 1, 0))
        assert (pullback_antipode(beta) + beta).is_zero()

    def test_gamma_wedge_dgamma(self):
        # twice the fiber volume; opposite to the orientation that grades
        # chi(ball) = +1, hence the explicit -2
        for coords in [(1, 0, 0), (0, 0, 1), (2, 3, 6)]:
            _, _, gamma, _ = quaternionic_forms(ImDirection.of(*coords))
            assert (gamma.wedge(d(gamma)) + sphere_volume_form(4) * 2).is_zero()

    def test_float_direction_forms(self):
        u = icosahedron_directions()[0]
        alpha, beta, gamma, omega = quaternionic_forms(u)
        lt = lie_reeb(beta) - gamma
        worst = max((abs(c) for p in lt.terms.values() for c in p.terms.values()),
                    default=0.0)
        assert worst < 1e-12


class TestZRep:
    def test_ball_value(self):
        for coords in [(1, 0, 0), (1, 1, 0), (2, -1, 3)]:
            mu = z_rep(ImDirection.of(*coords))
            assert unit_ball_value(mu) == PI

    def test_fiber_integral_vanishes(self):
        mu = z_rep(ImDirection.of(0, 1, 0))
        assert not fiber_integral(mu.omega)
        assert mu.phi.is_zero()

    def test_orientation_against_stated_combination(self):
        u = ImDirection.of(1, 0, 0)
        assert (z_rep(u).omega + stated_z_form(u)).is_zero()
        stated = ValuationRep(4, stated_z_form(u))
        assert unit_ball_value(stated) == -PI

    def test_stated_combination_scales(self):
        # exact directions scale by pi^-1 / |u|^2, float ones by 1 / pi, each
        # divided by 8 and by 4: the same values, to the bit, as 1 / (8 pi)
        # and 1 / (4 pi) taken apart
        def coefficients(form):
            return {(key, e): c.hex() if isinstance(c, float) else c
                    for key, p in form.terms.items() for e, c in p.terms.items()}

        for u in icosahedron_directions() + [ImDirection.of(1, -1, 2), ImDirection.of(0, 3, -2)]:
            if u.exact:
                coords, c8, c4 = u.coords, Rat(1, 8) * PI ** -1 / u.norm_sq, \
                    Rat(1, 4) * PI ** -1 / u.norm_sq
            else:
                coords, c8, c4 = u.unit(), 1.0 / (8.0 * math.pi), 1.0 / (4.0 * math.pi)
            beta, gamma, omega = su2._scaled_forms(coords)
            want = beta.wedge(d(beta)) * c8 + gamma.wedge(omega) * c4
            assert coefficients(stated_z_form(u)) == coefficients(want), u

    def test_rumin_derivative_closed_form(self):
        u = ImDirection.of(1, 0, 0)
        alpha, beta, gamma, _ = quaternionic_forms(u)
        want = alpha.wedge(beta).wedge(d(gamma)) * (Rat(1, 2) * PI ** -1)
        assert (rumin(stated_z_form(u)).D_omega - want).is_zero()

    def test_degree_two(self):
        mu = z_rep(ImDirection.of(2, 3, 6))
        assert mu.degree() == 2

    def test_double_lowering_gives_euler(self):
        mu = z_rep(ImDirection.of(1, 0, 0))
        diff = derivation(derivation(mu)) - intrinsic_volume_rep(4, 0) * (2 * PI)
        assert verify_zero_valuation(diff.omega, diff.phi)

    def test_cube_value(self):
        for coords in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]:
            assert unit_cube_value(z_rep(ImDirection.of(*coords))) == 2


def _exact_directions(count=200):
    """Distinct exact directions: small triples with zeros and negative
    entries, and triples with coordinates near 2^40 and near 2^70."""
    rng = random.Random(43)
    small = lambda: rng.choice((0, 0) + tuple(range(-9, 10)))
    near = lambda bits: rng.choice((1, -1)) * (2 ** bits + rng.randrange(-40, 41))
    makers = (small, lambda: near(40), lambda: near(70))
    out = {}
    while len(out) < count:
        kinds = rng.choice(((0, 0, 0), (0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 0, 0), (2, 1, 0),
                            (2, 2, 1)))
        coords = [makers[k]() for k in kinds]
        rng.shuffle(coords)
        if any(coords):
            u = ImDirection.of(*coords)
            out[u.coords] = u
    return list(out.values())


EXACT_DIRECTIONS = _exact_directions()


class TestZTensor:
    def test_directions_cover_the_cases(self):
        coords = [abs(x) for u in EXACT_DIRECTIONS for x in u.coords]
        assert len(EXACT_DIRECTIONS) == 200
        assert sum(1 for u in EXACT_DIRECTIONS if max(map(abs, u.coords)) < 10) >= 50
        assert sum(1 for u in EXACT_DIRECTIONS if 0 in u.coords) >= 40
        assert sum(1 for u in EXACT_DIRECTIONS if min(u.coords) < 0) >= 100
        assert sum(1 for x in coords if 2 ** 39 < x < 2 ** 41) >= 80
        assert sum(1 for x in coords if 2 ** 69 < x < 2 ** 71) >= 80
        # a Z_u past int64 holds object arrays of Python ints
        assert sum(1 for u in EXACT_DIRECTIONS
                   if z_rep(u).omega._parts[-1][1][(2, 1)][1].dtype == object) >= 100

    def test_vectors_are_the_split_of_the_dict_path(self):
        # Z_u's vectors come from a fixed integer tensor in the products
        # u_i u_j; they are the split of -stated_z_form(u), pi^-1 over one
        # reduced denominator, and int64 exactly while below INT64_SAFE
        for u in EXACT_DIRECTIONS:
            parts = z_rep(u).omega._parts
            ref = -stated_z_form(u)
            assert columns._join_vectors(4, parts) == ref, u

            def entries(split):
                return {k: (den, {ab: dict(zip(ids.tolist(), vals.tolist()))
                                  for ab, (ids, vals) in blocks.items()})
                        for k, (den, blocks) in split.items()}

            assert entries(parts) == entries(_split_vectors(ref)), u
            (_, blocks), = parts.values()
            for _, vals in blocks.values():
                big = max(abs(x) for x in vals.tolist()) >= columns.INT64_SAFE
                assert vals.dtype == (object if big else np.int64), u

    def test_terms_are_the_dict_path_in_sorted_order(self):
        # the terms of a Z_u are those of the dict path, built from its
        # vectors in the one monomial order of columns._ordered_terms
        for u in EXACT_DIRECTIONS:
            omega = z_rep(u).omega
            assert omega._terms is None
            assert omega.terms == (-stated_z_form(u)).terms, u
            order = [(I, J, e) for I, J, e, _ in columns._ordered_terms(4, omega._parts, False)]
            assert [(I, J, e) for (I, J), p in omega.terms.items() for e in p.terms] == order, u
            assert order == sorted(order), u

    def test_numeric_evaluation_builds_no_terms(self, monkeypatch):
        # evaluation on bodies and balls reads the split vectors alone
        bodies = [Box(np.zeros(4), np.array([0.4, 0.5, 0.3, 0.6])),
                  Simplex(np.vstack([np.zeros(4), np.eye(4) * 0.9])),
                  PlanarPolygon([[1, 0, 0, 0], [0, 0.6, 0.8, 0]], [[0, 0], [1, 0], [0.5, 0.8]]),
                  Ball(np.array([0.1, 0.2, 0.0, -0.3]), 0.7)]
        # fresh bases, whose terms no other test has asked for
        su2._build_basis.cache_clear()
        for kind in ("icosahedron", "alesker"):
            monkeypatch.setattr(kinematic, "_VECTOR_CACHE", {})
            for K in bodies:
                kinematic.evaluation_vector(K, kind)
            for label, rep in su2_basis(kind):
                if label.startswith("Z_"):
                    assert rep.omega._terms is None, (kind, label)
        omega = z_rep(ImDirection.of(2, -1, 3)).omega
        for K in bodies:
            evaluate(ValuationRep(4, omega), K)
        assert omega._terms is None

    def test_split_form_reads_its_blocks(self):
        mu = z_rep(ImDirection.of(2, -5, 1))
        assert mu.omega and not mu.omega.is_zero()
        assert mu.omega.degrees() == {3} and mu.degrees() == {2} and mu.degree() == 2
        assert mu.is_exact() and mu.omega.is_exact()
        assert mu.omega._terms is None

    def test_large_pairs_match_tasaki(self):
        big = [u for u in EXACT_DIRECTIONS if max(map(abs, u.coords)) > 2 ** 39]
        rng = random.Random(47)
        for _ in range(4):
            u, v = rng.sample(big, 2)
            assert pairing(z_rep(u), z_rep(v)) == tasaki_density(u.dot_sq(v)), (u, v)
        u = ImDirection.of(1099511627777, 3, -5)
        v = ImDirection.of(2, -1180591620717411303425, 7)
        assert gram_zz(u, v) == tasaki_density(u.dot_sq(v))


class TestGram:
    def test_closed_form_values(self):
        ui = ImDirection.of(1, 0, 0)
        uj = ImDirection.of(0, 1, 0)
        assert gram_zz(ui, ui) == Rat(1, 2)
        assert gram_zz(ui, uj) == Rat(1, 4)
        assert gram_zz(ui, ImDirection.of(1, 1, 0)) == Rat(3, 8)

    def test_pipeline_matches_closed_form(self):
        rng = random.Random(17)
        for _ in range(5):
            u, v = random_direction(rng), random_direction(rng)
            assert gram_zz(u, v) == tasaki_density(u.dot_sq(v))

    def test_symmetries(self):
        u = ImDirection.of(3, -2, 1)
        v = ImDirection.of(1, 4, 2)
        g = gram_zz(u, v)
        assert gram_zz(v, u) == g
        assert gram_zz(ImDirection.of(-3, 2, -1), v) == g

    def test_rotation_covariance(self):
        rng = random.Random(23)
        u, v = ImDirection.of(1, 2, 0), ImDirection.of(0, 1, -1)
        base = gram_zz(u, v)
        for _ in range(2):
            rot = imaginary_rotation(rational_unit_quaternion(rng))
            ru = ImDirection.of(*(sum(rot[r][s] * u.coords[s] for s in range(3))
                                  for r in range(3)))
            rv = ImDirection.of(*(sum(rot[r][s] * v.coords[s] for s in range(3))
                                  for r in range(3)))
            assert gram_zz(ru, rv) == base

    def test_float_directions_rejected(self):
        u = icosahedron_directions()[0]
        with pytest.raises(ValueError):
            gram_zz(u, u)

    def test_tasaki_density(self):
        ui = ImDirection.of(1, 0, 0)
        assert tasaki_density(ui.dot_sq(ui)) == Rat(1, 2)
        assert tasaki_density(ui.dot_sq(ImDirection.of(0, 0, 1))) == Rat(1, 4)
        assert type(tasaki_density(ui.dot_sq(ui))) is Rat
        # float directions give the float density
        u, v = icosahedron_directions()[:2]
        assert tasaki_density(u.dot_sq(v)) == pytest.approx(0.3, rel=1e-15)
        assert tasaki_density(u.dot_sq(u)) == pytest.approx(0.5, rel=1e-15)
        # dividing by 4 and multiplying by 0.25 round alike
        for x in (u.dot_sq(v), 0.1, 1 / 3, 0.7071067811865476, 1.0):
            assert tasaki_density(x).hex() == (0.25 * (1.0 + x)).hex()


class TestInvariance:
    def test_left_multiplication_fixes_omega_u(self):
        rng = random.Random(29)
        w = stated_z_form(ImDirection.of(1, -1, 2))
        for _ in range(5):
            q = rational_unit_quaternion(rng)
            assert (pullback_linear(w, left_mult_matrix(q)) - w).is_zero()

    def test_right_multiplication_conjugates_direction(self):
        rng = random.Random(31)
        u = ImDirection.of(1, 0, 0)
        q = rational_unit_quaternion(rng)
        pb = pullback_linear(stated_z_form(u), right_translation_matrix(q))
        rot = imaginary_rotation(q)
        u2 = ImDirection.of(*(rot[r][0] for r in range(3)))
        assert (pb - stated_z_form(u2)).is_zero()


class TestIcosahedron:
    def test_six_classes(self):
        dirs = icosahedron_directions()
        assert len(dirs) == 6
        assert len(set(dirs)) == 6

    def test_pairwise_angles(self):
        dirs = icosahedron_directions()
        for a in range(6):
            for b in range(a + 1, 6):
                dot = sum(x * y for x, y in zip(dirs[a].unit(), dirs[b].unit()))
                assert abs(dot * dot - 0.2) < 1e-12

    def test_algebraic_dot(self):
        # float directions carry the float (u.v)^2; the exact angle lives in
        # the Gram matrix alone
        dirs = icosahedron_directions()
        assert dirs[0].dot_sq(dirs[3]) == pytest.approx(0.2, rel=1e-15)
        assert dirs[2].dot_sq(dirs[2]) == pytest.approx(1.0, rel=1e-15)

    def test_gram_pattern(self):
        # the Z_u block of the Gram matrix: 1/2 on the diagonal, 3/10 off it
        _, G = kinematic.gram_matrix("icosahedron")
        for a in range(6):
            for b in range(6):
                want = Rat(1, 2) if a == b else Rat(3, 10)
                assert G[a + 2][b + 2] == want


class TestBasis:
    def test_labels_and_degrees(self):
        basis = su2_basis()
        assert len(basis) == 10
        assert [lab for lab, _ in basis] == [
            "chi", "vol1", "Z_u1", "Z_u2", "Z_u3", "Z_u4", "Z_u5", "Z_u6",
            "vol3", "vol",
        ]
        assert [mu.degree() for _, mu in basis] == [0, 1, 2, 2, 2, 2, 2, 2, 3, 4]

    def test_alesker_flag(self):
        basis = su2_basis("alesker")
        labels = [lab for lab, _ in basis]
        assert labels[2:8] == ["Z_i", "Z_j", "Z_k", "Z_i+j", "Z_i+k", "Z_j+k"]
        for _, mu in basis[2:8]:
            assert unit_ball_value(mu) == PI

    def test_alesker_gram_nonsingular(self):
        dirs = alesker_directions()
        gram = [[Scalar({0: tasaki_density(u.dot_sq(v))}) for v in dirs] for u in dirs]
        inv = invert_scalar_matrix(gram)
        n = len(gram)
        for i in range(n):
            for j in range(n):
                entry = sum((gram[i][k] * inv[k][j] for k in range(n)), ZERO)
                assert entry == (1 if i == j else 0)
        assert np.linalg.det(np.array([[float(x) for x in row] for row in gram])) > 0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            su2_basis("fourier")
