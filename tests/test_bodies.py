import dataclasses
import functools
import itertools
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from _oracles import (
    adaptive,
    cell_integral,
    cone_density,
    fiber_integral,
    left_mult_matrix,
    point_pieces,
    pullback_ball_shift,
    quadrature_evaluate,
    quadrature_pieces,
    rational_unit_quaternion,
    steiner_volume,
)
from valcalc import bodies, columns
from valcalc.bodies import (
    Ball,
    Box,
    PlanarPolygon,
    Simplex,
    evaluate,
    evaluate_tube,
)
from valcalc.exterior import InvariantForm, SpherePoly
from valcalc.scalars import Rat
from valcalc.su2 import ImDirection, icosahedron_directions, su2_basis, z_rep
from valcalc.valuation import (
    ValuationRep,
    derivation,
    intrinsic_volume_rep,
    pairing,
    unit_ball_value,
)


def unit_box(n):
    return Box(np.full(n, 0.5), np.full(n, 0.5))


def regular_polygon(m, frame=None, radius=1.0):
    ang = 2 * math.pi * np.arange(m) / m
    v2d = radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    if frame is None:
        frame = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
    return PlanarPolygon(frame, v2d)


STANDARD_SIMPLEX = Simplex([[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0],
                            [0, 0, 1, 0], [0, 0, 0, 1]])


class TestConstruction:
    def test_ball_radius(self):
        with pytest.raises(ValueError):
            Ball(np.zeros(3), -1.0)

    def test_box_extents(self):
        with pytest.raises(ValueError):
            Box(np.zeros(3), np.array([1.0, 0.0, 1.0]))

    def test_box_rotation_orthonormal(self):
        with pytest.raises(ValueError):
            Box(np.zeros(3), np.ones(3), np.diag([1.0, 2.0, 1.0]))

    @pytest.mark.parametrize("scale", [1 + 4.9e-6, 1 - 4.9e-6, 1 + 2e-9])
    def test_orthonormality_has_no_relative_slack(self, scale):
        # R R^T departs from the identity by about 2 (scale - 1) on the
        # diagonal, above ORTHONORMAL_TOL: a relative tolerance of 1e-5
        # once let the diagonal drift by 1e-5 + 1e-9
        R = np.linalg.qr(np.random.default_rng(7).standard_normal((4, 4)))[0]
        with pytest.raises(ValueError, match="^rotation must have orthonormal rows$"):
            Box(np.zeros(4), np.array([0.7, 0.3, 0.5, 0.4]), R * scale)
        with pytest.raises(ValueError, match="^frame must have orthonormal rows$"):
            PlanarPolygon(R[:2] * scale, [[0, 0], [1, 0], [0, 1]])

    def test_rotation_within_the_tolerance_accepted(self):
        rng = np.random.default_rng(8)
        R = np.linalg.qr(rng.standard_normal((4, 4)))[0] + 1e-10 * rng.standard_normal((4, 4))
        assert np.max(np.abs(R @ R.T - np.eye(4))) > 1e-11
        box = Box(np.zeros(4), np.ones(4), R)
        assert np.array_equal(box.rotation, R)
        PlanarPolygon(R[:2], [[0, 0], [1, 0], [0, 1]])

    def test_simplex_degenerate(self):
        with pytest.raises(ValueError):
            Simplex([[0, 0, 0], [1, 0, 0], [2, 0, 0]])
        with pytest.raises(ValueError):
            Simplex([[0, 0], [1, 0], [0, 1], [1, 1]])

    def test_polygon_convex_ccw(self):
        frame = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
        with pytest.raises(ValueError):
            PlanarPolygon(frame, [[0, 0], [1, 0], [1, 1], [0.9, 0.1]])
        with pytest.raises(ValueError):
            PlanarPolygon(frame, [[0, 0], [0, 1], [1, 1], [1, 0]])

    def test_polygon_frame(self):
        with pytest.raises(ValueError):
            PlanarPolygon(np.array([[1.0, 0, 0, 0], [1.0, 1, 0, 0]]),
                          [[0, 0], [1, 0], [0, 1]])

    @pytest.mark.parametrize("make, message", [
        (lambda: Box(np.zeros(4), np.ones(3)), "half_extents must match the center dimension"),
        (lambda: Box(np.zeros(4), np.ones((4, 1))), "half_extents must match the center dimension"),
        (lambda: Box(np.zeros(4), np.ones(4), np.eye(3)),
         "rotation must be square of matching dimension"),
        (lambda: Box(np.zeros(4), np.ones(4), np.eye(4)[:3]),
         "rotation must be square of matching dimension"),
        (lambda: PlanarPolygon(np.eye(4)[:3], [[0, 0], [1, 0], [0, 1]]),
         "frame must consist of two rows"),
        (lambda: PlanarPolygon(np.eye(4)[:2], [[0, 0], [1, 0]]),
         "need at least three planar vertices"),
        (lambda: PlanarPolygon(np.eye(4)[:2], [[0, 0], [1, 0], [0, 1]], np.zeros(3)),
         "base point must match the frame dimension"),
    ], ids=["half-extents-length", "half-extents-matrix", "rotation-size", "rotation-rows",
            "frame-rows", "two-vertices", "base-length"])
    def test_shape_checks(self, make, message):
        with pytest.raises(ValueError) as exc:
            make()
        assert str(exc.value) == message

    def test_non_finite_rejected(self):
        frame = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
        tri = [[0, 0], [1, 0], [0, 1]]
        for bad in (math.nan, math.inf, -math.inf):
            makers = [
                lambda: Ball(np.zeros(3), bad),
                lambda: Ball([0.0, bad, 0.0], 1.0),
                lambda: Box(np.zeros(3), np.array([1.0, bad, 1.0])),
                lambda: Box([bad, 0.0, 0.0], np.ones(3)),
                lambda: Box(np.zeros(2), np.ones(2), [[1.0, 0.0], [0.0, bad]]),
                lambda: Simplex([[0, 0], [1, bad], [0, 1]]),
                lambda: PlanarPolygon(frame, [[0, 0], [bad, 0], [0, 1]]),
                lambda: PlanarPolygon(frame, tri, [0, 0, bad, 0]),
            ]
            for make in makers:
                with pytest.raises(ValueError, match="finite"):
                    make()

    def test_polygon_area(self):
        sq = PlanarPolygon(np.array([[0, 0, 1.0, 0], [0, 0, 0, 1.0]]),
                           [[0, 0], [2, 0], [2, 1.5], [0, 1.5]])
        assert sq.area == 3.0
        assert regular_polygon(6).area == pytest.approx(1.5 * math.sqrt(3), abs=1e-14)


def _piece_counts(K):
    """Pieces per shape (k, m) of the body's normal cycle."""
    return {shape: len(volumes) for shape, (_, _, volumes) in K.pieces().items()}


def _face_group(frames, cones):
    """Faces of unit volume with the given frames and normal cones in R^n, a
    group for ``bodies._pieces``."""
    frames, cones = np.array(frames, dtype=float), np.array(cones, dtype=float)
    n = frames.shape[2]
    return frames, np.ones(len(frames)), cones, np.zeros((len(frames), 0, n))


class _HandBuilt:
    """A stand-in polytope in R^4 whose normal cycle is the given face groups."""
    dim = 4

    def __init__(self, *groups):
        self.groups = groups

    def pieces(self):
        return bodies._pieces(self.groups)

    def volume(self):
        return 0.0


class TestFaceLattice:
    # the face lattice as the normal cycle's pieces face x cone, by shape
    def test_box_counts(self):
        # 2^(4-k) C(4, k) faces of dimension k, one piece each; the box
        # itself has no normal cone and gives its volume
        box = unit_box(4)
        assert _piece_counts(box) == {(1, 3): 32, (2, 2): 24, (3, 1): 8}
        assert box.volume() == 1.0

    def test_box_vertices(self):
        # the 2^n vertices c + R (s * h), one per sign vector s, from which
        # the Monte Carlo's mixed volumes take a box's support
        rng = np.random.default_rng(10)
        for n in (2, 3, 4):
            box = Box(rng.uniform(-1, 1, n), rng.uniform(0.1, 1, n), _random_orthogonal(rng, n))
            local = (box._hull() - box.center) @ box.rotation / box.half_extents
            np.testing.assert_allclose(np.abs(local), 1.0, rtol=0, atol=1e-12)
            assert sorted(map(tuple, np.sign(local))) == sorted(itertools.product((-1.0, 1.0), repeat=n))

    def test_segment_counts(self):
        # one edge, one piece per orthant of the 3-dimensional complement
        seg = Simplex([[0, 0, 0, 0], [1, 2, 2, 0]])
        assert _piece_counts(seg) == {(1, 3): 8}

    def test_polygon_counts(self):
        # the polygon and its 7 edges, each times the 4 orthants of the
        # complement of its plane
        poly = regular_polygon(7)
        assert _piece_counts(poly) == {(2, 2): 4, (1, 3): 28}

    def test_no_vertex_entries(self):
        # the vertex pieces give the value on a point, taken in closed form
        rng = np.random.default_rng(9)
        for n in (2, 3, 4):
            bodies_n = [unit_box(n), Box(np.zeros(n), np.full(n, 0.4), _random_orthogonal(rng, n)),
                        PlanarPolygon(_random_orthogonal(rng, n)[:2], _PENTAGON)]
            bodies_n += [_oblique_simplex(rng, n, m) for m in range(2, n + 2)]
            for body in bodies_n:
                pieces = body.pieces()
                assert pieces and all(k >= 1 for k, _ in pieces), (n, body)
            assert Simplex(rng.uniform(-1, 1, (1, n))).pieces() == {}

    def test_frames_orthonormal_regions_orthogonal(self):
        for body in (unit_box(3), STANDARD_SIMPLEX, regular_polygon(5)):
            for (k, m), (faces, gens, volumes) in body.pieces().items():
                assert faces.shape == (len(volumes), k, body.dim)
                assert gens.shape == (len(volumes), m, body.dim)
                for frame, g in zip(faces, gens):
                    gram = frame @ frame.T
                    assert np.allclose(gram, np.eye(k), atol=1e-12)
                    assert np.allclose(np.linalg.norm(g, axis=1), 1.0, atol=1e-12)
                    assert np.max(np.abs(g @ frame.T)) < 1e-12

    def test_face_volumes(self):
        total = {}
        for (k, _), (_, _, volumes) in unit_box(4).pieces().items():
            total[k] = float(np.abs(volumes).sum())
        # 2^(n-k) C(n,k) faces of unit k-volume each, one piece each
        assert np.allclose([total[k] for k in range(1, 4)] + [unit_box(4).volume()],
                           [32, 24, 8, 1], atol=1e-12)


class TestEvaluate:
    def test_euler_characteristic(self):
        chi = intrinsic_volume_rep(4, 0)
        for body in (unit_box(4), STANDARD_SIMPLEX,
                     Simplex([[0.3, -1, 2, 0.5]]),
                     Simplex([[0, 0, 0, 0], [1, 0.2, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0.1]]),
                     regular_polygon(9),
                     Ball(np.ones(4), 2.0)):
            assert abs(evaluate(chi, body) - 1.0) < 1e-9

    def test_box_intrinsic_volumes(self):
        for n in (2, 3, 4):
            for k in range(n + 1):
                val = evaluate(intrinsic_volume_rep(n, k), unit_box(n))
                assert abs(val - math.comb(n, k)) < 1e-9

    def test_simplex_volume(self):
        vol = intrinsic_volume_rep(4, 4)
        assert abs(evaluate(vol, STANDARD_SIMPLEX) - 1 / 24) < 1e-12
        assert STANDARD_SIMPLEX.volume() == pytest.approx(1 / 24, abs=1e-15)

    def test_ball_exact_path(self):
        mu = z_rep(ImDirection.of(1, 0, 0))
        assert evaluate(mu, Ball(np.zeros(4), 1.0)) == pytest.approx(math.pi, abs=1e-15)
        assert evaluate(mu, Ball(np.ones(4), 2.0)) == pytest.approx(4 * math.pi, abs=1e-14)

    def test_disc_projection_average(self):
        # m-gon in the complex line spanned by 1 and i: value is half its area
        mu = z_rep(ImDirection.of(1, 0, 0))
        vals = {}
        for m in (64, 128):
            poly = regular_polygon(m)
            area = 0.5 * m * math.sin(2 * math.pi / m)
            vals[m] = evaluate(mu, poly)
            assert abs(vals[m] - area / 2) < 1e-12
        richardson = (4 * vals[128] - vals[64]) / 3
        assert abs(richardson - math.pi / 2) < 1e-5

    def test_planar_square_in_r4(self):
        frame = np.array([[0, 1.0, 0, 0], [0, 0, 0, 1.0]])
        square = PlanarPolygon(frame, [[0, 0], [1, 0], [1, 1], [0, 1]],
                               base=np.array([0.5, 0, -1, 0]))
        assert abs(evaluate(intrinsic_volume_rep(4, 2), square) - 1.0) < 1e-9
        assert abs(evaluate(intrinsic_volume_rep(4, 0), square) - 1.0) < 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            evaluate(intrinsic_volume_rep(3, 0), unit_box(4))

    def test_dimension_mismatch_in_a_batch(self):
        reps = [intrinsic_volume_rep(4, 0), intrinsic_volume_rep(3, 0)]
        for K in (unit_box(4), Ball(np.zeros(4), 1.0)):
            with pytest.raises(ValueError, match="body dimension does not match the valuation"):
                bodies.evaluate_many(reps, K)

    def test_degenerate_piece_raises_without_a_term_on_it(self):
        # an edge piece whose generators are dependent, under forms with terms
        # on vertex pieces only, and under a form with terms on edge pieces too
        chi = intrinsic_volume_rep(4, 0).omega
        vertex_only = InvariantForm(4, {(I, J): p for (I, J), p in chi.terms.items() if not I})
        assert set(bodies._closed_form_terms(vertex_only)) == {(0, 4)}
        gens = ((0.0, 1.0, 0.0, 0.0), (0.0, 0.6, 0.8, 0.0), (0.0, 0.6, 0.8, 0.0))
        K = _HandBuilt(_face_group([[(1.0, 0.0, 0.0, 0.0)]], [gens]))
        for forms in ([vertex_only], [vertex_only, InvariantForm.zero(4)], [chi, vertex_only]):
            with pytest.raises(ValueError, match="degenerate normal-cycle piece"):
                bodies.evaluate_many([ValuationRep(4, form) for form in forms], K)

    def test_degenerate_piece_names_its_face(self):
        # the second piece of an edge, and the only piece of a 2-face whose
        # generators lie in the span of its frame
        chi = intrinsic_volume_rep(4, 0)
        good = ((0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0))
        bad = ((0.0, 1.0, 0.0, 0.0), (0.0, 0.6, 0.8, 0.0), (0.0, 0.6, 0.8, 0.0))
        edge = [(1.0, 0.0, 0.0, 0.0)]
        with pytest.raises(ValueError, match=r"^degenerate normal-cycle piece: face of "
                                             r"dimension 1, piece 1, \|det\| = 0\.000e\+00$"):
            evaluate(chi, _HandBuilt(_face_group([edge, edge], [good, bad])))
        square = _face_group([[(1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0)]],
                             [((0.0, 0.0, 1.0, 0.0), (0.6, 0.8, 0.0, 0.0))])
        for groups in ([square], [_face_group([edge], [good]), square]):
            with pytest.raises(ValueError, match="face of dimension 2, piece 0, "):
                evaluate(chi, _HandBuilt(*groups))

    def test_mixed_rules_and_reordered_pieces(self):
        # the pieces of a rotated box, an oblique 4-simplex and a pentagon
        # together: the box's octants and the simplex's oblique cones share
        # the edge pieces' triangle rule, and right and oblique angles the
        # 2-face pieces' arc rule
        parts = [_ROTATED_BOX.pieces(), _OBLIQUE_4.pieces(),
                 PlanarPolygon(_random_orthogonal(np.random.default_rng(2), 4)[:2], _PENTAGON,
                               np.array([0.1, 0.2, 0.3, 0.4])).pieces()]
        stacks = {}
        for part in parts:
            for shape, arrays in part.items():
                stacks.setdefault(shape, []).append(arrays)
        pieces = {shape: tuple(np.concatenate(a) for a in zip(*stack))
                  for shape, stack in stacks.items()}
        counts = {k: _generators(bodies._classify(gens)) for (k, _), (_, gens, _) in pieces.items()}
        assert counts == {1: 3, 2: 2, 3: 1}
        # without dv-only terms, whose value on a point each part would add
        rng = np.random.default_rng(13)
        full = [rep.omega for _, rep in su2_basis()] + [_random_form(rng, 4, d) for d in (1, 3)]
        forms = [InvariantForm(4, {(I, J): p for (I, J), p in form.terms.items() if I})
                 for form in full]
        whole = bodies._integrate_forms(forms, pieces)
        summed = [sum(values) for values in
                  zip(*(bodies._integrate_forms(forms, part) for part in parts))]
        # the shapes in reverse order, the pieces of each shuffled
        shuffled = {}
        for shape in reversed(list(pieces)):
            order = rng.permutation(len(pieces[shape][2]))
            shuffled[shape] = tuple(a[order] for a in pieces[shape])
        again = bodies._integrate_forms(forms, shuffled)
        for got, want, other in zip(whole, summed, again):
            assert abs(got - want) <= 1e-14 * abs(want), (got, want)
            assert abs(other - got) <= 1e-14 * abs(got), (other, got)

    def test_batch_of_mixed_degrees_matches_single_forms(self):
        # forms of different degrees share pieces; each takes its own degrees
        # of the moments computed once at the highest
        rng = np.random.default_rng(6)
        forms = [_random_form(rng, 4, d) for d in (3, 0, 1)] + [InvariantForm.zero(4)]
        for K in (_ROTATED_BOX, _OBLIQUE_4, regular_polygon(5)):
            pieces = K.pieces()
            batch = bodies._integrate_forms(forms, pieces)
            single = [bodies._integrate_forms([form], pieces)[0] for form in forms]
            assert [x.hex() for x in batch] == [x.hex() for x in single]

    def test_term_cache_stays_within_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            bodies._closed_form_terms(_random_form(rng, 3, 1))
        info = bodies._closed_form_terms.cache_info()
        assert info.maxsize is not None and info.maxsize < 100
        assert info.currsize <= info.maxsize


class TestBallNumericPath:
    # balls of either coefficient type go through the closed-form monomial
    # sum over the sphere graph: exact coefficients summed exactly, float
    # coefficients summed in floats
    def test_matches_exact(self):
        exact_rep = z_rep(ImDirection.of(1, 0, 0))
        float_rep = z_rep(ImDirection.of(1.0, 0.0, 0.0))
        for ball in (Ball(np.zeros(4), 1.0), Ball(np.array([0.5, -0.25, 0, 1]), 2.0)):
            a = evaluate(exact_rep, ball)
            b = evaluate(float_rep, ball)
            assert abs(a - b) < 1e-12

    def test_exact_rep_rounds_the_exact_value(self):
        mu = z_rep(ImDirection.of(1, 2, 0)) + intrinsic_volume_rep(4, 4) * 3
        for radius in (0.7, 1.0, 2.0):
            ball = Ball(np.array([0.5, -0.25, 0, 1]), radius)
            assert evaluate(mu, ball) == float(unit_ball_value(mu, radius))

    def test_icosahedral_off_centre(self):
        reps = [rep for label, rep in su2_basis("icosahedron") if label.startswith("Z_u")]
        assert len(reps) == 6
        for radius in (0.5, 2.0):
            ball = Ball(np.array([0.3, -1.2, 0.7, 2.0]), radius)
            for rep in reps:
                assert abs(evaluate(rep, ball) - math.pi * radius ** 2) < 1e-12

    def test_tube_of_float_rep(self):
        _, rep = su2_basis("icosahedron")[4]
        ball = Ball(np.array([1.0, 0, -0.5, 0.25]), 0.8)
        val = evaluate_tube(rep, ball, 0.7)
        assert abs(val - math.pi * 1.5 ** 2) < 1e-12

    def test_exact_pipeline_rejects_float_coefficients(self):
        float_rep = z_rep(ImDirection.of(1.0, 0.0, 0.0))
        # the twice-lowered rep has degree 0, so its form reaches the
        # spherical integrals of fiber integration
        with pytest.raises(TypeError):
            fiber_integral(derivation(derivation(float_rep)).omega)
        with pytest.raises(TypeError):
            pairing(float_rep, z_rep(ImDirection.of(0, 1, 0)))
        with pytest.raises(TypeError):
            unit_ball_value(float_rep)


class TestNumberingHistory:
    """Numeric values do not depend on the order in which the process
    numbered the monomials of its forms."""

    def test_cold_and_warm_processes_agree(self):
        # tests/history_probe.py prints the float.hex of Z_u and its images
        # under the operators on a simplex and a ball; the warm process first
        # applies the operators to other forms
        probe = Path(__file__).with_name("history_probe.py")
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        out = {}
        for mode in ("cold", "warm"):
            proc = subprocess.run([sys.executable, str(probe), mode], capture_output=True,
                                  text=True, timeout=300, env=env)
            assert proc.returncode == 0, proc.stderr
            out[mode] = proc.stdout.splitlines()
        assert len(out["cold"]) == 16
        assert out["warm"] == out["cold"]


def test_caches_key_on_the_vectors():
    # a form rebuilt from copies of the same vectors hits both caches, and
    # neither form builds its terms
    omega = derivation(derivation(z_rep(ImDirection.of(2, -1, 4)))).omega
    assert bodies._closed_form_terms(omega) is bodies._closed_form_terms(omega)
    value = bodies._point_value(omega)
    copied = {k: (den, {ab: (ids.copy(), vals.copy()) for ab, (ids, vals) in blocks.items()})
              for k, (den, blocks) in omega._parts.items()}
    again = columns._join_vectors(4, copied)
    hits = (bodies._closed_form_terms.cache_info().hits, bodies._point_value.cache_info().hits)
    assert bodies._closed_form_terms(again) is bodies._closed_form_terms(omega)
    assert bodies._point_value(again) == value
    assert (bodies._closed_form_terms.cache_info().hits,
            bodies._point_value.cache_info().hits) == (hits[0] + 2, hits[1] + 1)
    assert omega._terms is None and again._terms is None


class TestTube:
    def test_point_tube_is_ball(self):
        vol = intrinsic_volume_rep(4, 4)
        point = Simplex([[0.3, -1, 2, 0.5]])
        for t in (0.5, 1.0, 1.7):
            want = math.pi ** 2 * t ** 4 / 2
            assert abs(evaluate_tube(vol, point, t) - want) < 1e-9 * (1 + want)

    def test_chi_of_tube(self):
        chi = intrinsic_volume_rep(4, 0)
        box = Box(np.zeros(4), np.array([0.5, 1.0, 0.25, 0.7]))
        assert abs(evaluate_tube(chi, box, 1.0) - 1.0) < 1e-9

    def test_ball_tube(self):
        mu = z_rep(ImDirection.of(0, 1, 0))
        val = evaluate_tube(mu, Ball(np.zeros(4), 1.0), 0.5)
        assert val == pytest.approx(math.pi * 1.5 ** 2, abs=1e-12)

    def test_negative_t(self):
        with pytest.raises(ValueError):
            evaluate_tube(intrinsic_volume_rep(4, 0), unit_box(4), -0.1)

    @pytest.mark.parametrize("t", [-1.0, -0.1, math.nan, math.inf, -math.inf])
    def test_non_finite_or_negative_t(self, t):
        chi = intrinsic_volume_rep(4, 0)
        for K in (Box(np.zeros(4), np.ones(4)), Ball(np.zeros(4), 1.0), STANDARD_SIMPLEX):
            with pytest.raises(ValueError, match="^tube parameter must be finite and nonnegative"):
                steiner_volume(K, t)
            with pytest.raises(ValueError, match="^tube parameter must be finite and nonnegative"):
                evaluate_tube(chi, K, t)

    @pytest.mark.parametrize("t, steiner, v2", [
        (0, "0x1.0000000000000p+4", "0x1.8000000000000p+4"),
        (0.3, "0x1.5771d98b4e476p+5", "0x1.1395f99e6e915p+5"),
        (1.7, "0x1.1246c9f401be5p+9", "0x1.a68ce931226c7p+6"),
        (1e3, "0x1.2132c00f09aa0p+42", "0x1.209943ebe9f6dp+23"),
    ])
    def test_tube_values_keep_their_bits(self, t, steiner, v2):
        # the Steiner volume and V_2 of the tubes around [-1, 1]^4, as the
        # Taylor sum of the derivation chain gave them with numpy 2.4 on x86-64
        box = Box(np.zeros(4), np.ones(4))
        assert steiner_volume(box, t).hex() == steiner
        assert evaluate_tube(intrinsic_volume_rep(4, 2), box, t).hex() == v2

    @pytest.mark.parametrize("degree, t, power", [(4, 1e80, 4), (2, 1e160, 2), (4, 10 ** 100, 4)])
    def test_overflowing_power_names_t(self, degree, t, power):
        # t^power overflows a float: a ValueError names t and the power in
        # place of a bare OverflowError; the Steiner volume is V_4's tube
        box = Box(np.zeros(4), np.ones(4))
        with pytest.raises(ValueError, match="^" + re.escape(f"tube parameter {t!r}: t^{power} overflows a float") + "$"):
            evaluate_tube(intrinsic_volume_rep(4, degree), box, t)
        if degree == 4:
            with pytest.raises(ValueError, match=rf"\^{power} overflows"):
                steiner_volume(box, t)

    @pytest.mark.parametrize("degree, t, power", [(4, 1e77, 4), (2, 1e154, 2), (1, 1e308, 1)])
    def test_overflowing_term_names_t(self, degree, t, power):
        # t^power is finite but its term is not: the Taylor sum would be inf
        box = Box(np.zeros(4), np.ones(4))
        message = f"tube parameter {t!r}: the sum to the t^{power} term overflows a float"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            evaluate_tube(intrinsic_volume_rep(4, degree), box, t)
        if degree == 4:
            with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
                steiner_volume(box, t)

    def test_tube_builds_the_pieces_once(self, monkeypatch):
        # the whole chain mu, Lambda mu, ... is evaluated on one set of pieces
        calls = []
        original = Box.pieces

        def counted(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(Box, "pieces", counted)
        box = Box(np.zeros(4), np.array([0.5, 1.0, 0.25, 0.7]))
        vol = intrinsic_volume_rep(4, 4)
        for mu in (vol, z_rep(ImDirection.of(1, 2, 0)) + vol * 3):
            calls.clear()
            evaluate_tube(mu, box, 0.3)
            assert calls == [box]

    def test_tube_classifies_each_piece_once(self, monkeypatch):
        # the chain mu, Lambda mu, ... shares one pass, which classifies each
        # shape's cells once for all its forms (64 rows for 64 pieces)
        rows = []
        original = bodies._classify

        def counted(gens):
            rows.append(len(gens))
            return original(gens)

        monkeypatch.setattr(bodies, "_classify", counted)
        box = Box(np.zeros(4), np.array([0.5, 1.0, 0.25, 0.7]))
        evaluate_tube(z_rep(ImDirection.of(1, 0, 0)) + intrinsic_volume_rep(4, 4) * 3, box, 0.3)
        assert sum(rows) == sum(len(gens) for _, gens, _ in box.pieces().values()) == 64

    def test_steiner_volume_at_zero_is_the_volume(self):
        # the full-dimensional term is the body's own volume, bit for bit
        # the value of the volume valuation on it; the Gram determinant of
        # a simplex's edges gives other bits on these simplices
        rng = np.random.default_rng(2)
        vol = {n: intrinsic_volume_rep(n, n) for n in (2, 3, 4)}
        for K in [_oblique_simplex(rng, n, n + 1) for n in (2, 3, 4)] + [_ROTATED_BOX]:
            assert steiner_volume(K, 0.0) == K.volume() == evaluate(vol[K.dim], K), K

    def test_derivation_matches_tube_derivative(self):
        cases = [
            (z_rep(ImDirection.of(1, 0, 0)),
             Box(np.array([0.1, 0, -0.3, 0.2]), np.array([0.4, 0.6, 0.5, 0.3]))),
            (intrinsic_volume_rep(4, 2), STANDARD_SIMPLEX),
        ]
        h = 1e-3
        for mu, K in cases:
            lam = evaluate(derivation(mu), K)
            f0 = evaluate_tube(mu, K, 0.0)
            f1 = evaluate_tube(mu, K, h)
            f2 = evaluate_tube(mu, K, 2 * h)
            fd = (4 * f1 - 3 * f0 - f2) / (2 * h)
            assert abs(fd - lam) < 1e-6 * (1 + abs(lam))

    def test_steiner_square(self):
        sq = unit_box(2)
        t = 0.7
        want = 1 + 4 * t + math.pi * t ** 2
        assert abs(steiner_volume(sq, t) - want) < 1e-12

    def test_steiner_volume_of_a_ball_is_the_volume_of_the_larger_ball(self):
        vol = intrinsic_volume_rep(4, 4)
        center = np.array([0.3, -0.1, 0.2, 0.05])
        for r, t in ((0.35, 0.0), (0.35, 0.4), (1.0, 1.7)):
            want = evaluate(vol, Ball(center, r + t))
            assert steiner_volume(Ball(center, r), t).hex() == want.hex()

    @pytest.mark.parametrize("body", ["box", "simplex", "segment", "polygon"])
    def test_tube_matches_the_pulled_back_form(self, body):
        # the oracle pulls omega back along (x, v) -> (x + t v, v) in exact t
        # and evaluates it on K, and adds phi times the Steiner polynomial
        # sum_k kappa_(4-k) V_k(K) t^(4-k) for the volume of K + tB
        K = {"box": _ROTATED_BOX, "simplex": _OBLIQUE_4,
             "segment": Simplex([[0.1, -0.2, 0.3, 0.05], [0.9, 0.4, -0.2, 0.6]]),
             "polygon": PlanarPolygon(_random_orthogonal(np.random.default_rng(5), 4)[:2],
                                      _PENTAGON, np.array([0.1, 0.2, 0.3, 0.4]))}[body]
        exact, approx = z_rep(ImDirection.of(3, 1, -2)), z_rep(icosahedron_directions()[0])
        vol = intrinsic_volume_rep(4, 4)
        reps = {"Z_u": exact, "float Z_u": approx, "Z_u + 3 vol": exact + vol * 3,
                "float Z_u + vol / 3": approx + vol * Rat(1, 3)}
        intrinsic = [evaluate(intrinsic_volume_rep(4, k), K) for k in range(5)]
        for t in (Rat(3, 10), Rat(7, 4)):
            tf = float(t)
            tube_volume = sum(math.pi ** ((4 - k) / 2) / math.gamma((4 - k) / 2 + 1)
                              * intrinsic[k] * tf ** (4 - k) for k in range(5))
            for name, mu in reps.items():
                shifted = ValuationRep(4, pullback_ball_shift(mu.omega, t))
                want = evaluate(shifted, K) + float(mu.phi) * tube_volume
                got = evaluate_tube(mu, K, tf)
                assert abs(got - want) <= 1e-12 * abs(want), (name, t, got, want)


class TestRowReductions:
    """The row norms of the normal-cycle kernels are numpy's bits."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_row_norms_and_maxima_are_numpys_bits(self, n):
        # rows of fewer than 8 entries, contiguous, strided and single, over
        # a wide range of magnitudes
        rng = np.random.default_rng(40 + n)
        x = rng.normal(size=(4096, 2 * n)) * np.exp(3 * rng.normal(size=(4096, 2 * n)))
        for rows in (x[:, :n], x[:, ::2], -x[:, n:], x[0, :n]):
            assert np.array_equal(bodies._row_norms(rows), np.linalg.norm(rows, axis=-1))


class TestInvariants:
    def test_box_additivity(self):
        # overlapping axis-aligned slabs: union and intersection are boxes
        mu = z_rep(ImDirection.of(1, 1, 0))
        k1 = Box(np.array([0.6, 0.5, 0.5, 0.5]), np.array([0.6, 0.5, 0.5, 0.5]))
        k2 = Box(np.array([1.4, 0.5, 0.5, 0.5]), np.array([0.6, 0.5, 0.5, 0.5]))
        union = Box(np.array([1.0, 0.5, 0.5, 0.5]), np.array([1.0, 0.5, 0.5, 0.5]))
        inter = Box(np.array([1.0, 0.5, 0.5, 0.5]), np.array([0.2, 0.5, 0.5, 0.5]))
        lhs = evaluate(mu, union) + evaluate(mu, inter)
        rhs = evaluate(mu, k1) + evaluate(mu, k2)
        assert abs(lhs - rhs) < 1e-8

    def test_rigid_motion_invariance(self):
        mu = z_rep(ImDirection.of(0, 0, 1))
        K = Simplex([[0, 0, 0, 0], [1, 0.2, 0, 0], [0, 1, 0.1, 0],
                     [0.3, 0, 1, 0], [0, 0.1, 0, 1.2]])
        base = evaluate(mu, K)
        rng = random.Random(11)
        q = rational_unit_quaternion(rng)
        R = np.array([[float(x) for x in row] for row in left_mult_matrix(q)])
        assert abs(evaluate(mu, K.moved(R, np.zeros(4))) - base) < 1e-8
        assert abs(evaluate(mu, K.moved(np.eye(4), np.array([0.3, -1, 2, 0.05])))
                   - base) < 1e-8

    def test_homogeneity(self):
        K = Simplex([[0, 0, 0, 0], [1, 0.2, 0, 0], [0, 1, 0.1, 0],
                     [0.3, 0, 1, 0], [0, 0.1, 0, 1.2]])
        t = 1.7
        Kt = Simplex(np.asarray(K.vertices) * t)
        for k in (1, 2, 3):
            mu = intrinsic_volume_rep(4, k)
            assert abs(evaluate(mu, Kt) - t ** k * evaluate(mu, K)) < 1e-8
        mu = z_rep(ImDirection.of(2, -1, 3))
        assert abs(evaluate(mu, Kt) - t ** 2 * evaluate(mu, K)) < 1e-8


class TestTransforms:
    def test_translate_rotate_classes(self):
        shift3 = np.array([1.0, -2.0, 0.5])
        shift4 = np.array([1.0, -2.0, 0.5, 0.0])
        R = np.eye(4)[[1, 0, 2, 3]] * np.array([1, -1, 1, 1])[:, None]
        ball = Ball(np.zeros(3), 1.0).moved(np.eye(3), shift3)
        assert np.allclose(ball.center, shift3)
        box = Box(np.zeros(4), np.ones(4)).moved(R, np.zeros(4))
        assert np.allclose(box.rotation @ box.rotation.T, np.eye(4))
        poly = regular_polygon(5).moved(R, np.zeros(4))
        assert np.allclose(poly.frame @ poly.frame.T, np.eye(2), atol=1e-12)
        simp = STANDARD_SIMPLEX.moved(np.eye(4), shift4).moved(R, np.zeros(4))
        assert abs(simp.volume() - 1 / 24) < 1e-15

    def test_rotate_validates(self):
        with pytest.raises(ValueError):
            unit_box(3).moved(np.diag([1.0, 1.0, 2.0]), np.zeros(3))

    # x -> R x + t built in two steps, rotation first: one constructor per step
    @pytest.mark.parametrize("body, two_step", [
        (Ball(np.array([0.3, -1.0, 2.0, 0.5]), 0.7),
         lambda K, R, t: Ball((r := Ball(R @ K.center, K.radius)).center + t, r.radius)),
        (Box(np.array([0.1, 0.2, -0.3, 0.4]), np.array([0.5, 1.0, 0.25, 0.7]),
             left_mult_matrix((0.5, 0.5, 0.5, 0.5))),
         lambda K, R, t: Box((r := Box(R @ K.center, K.half_extents, R @ K.rotation)).center
                             + t, r.half_extents, r.rotation)),
        (STANDARD_SIMPLEX,
         lambda K, R, t: Simplex(Simplex(K.vertices @ R.T).vertices + t)),
        (regular_polygon(5, radius=0.8),
         lambda K, R, t: PlanarPolygon(
             (r := PlanarPolygon(K.frame @ R.T, K.vertices2d, R @ K.base)).frame,
             r.vertices2d, r.base + t)),
    ], ids=["ball", "box", "simplex", "polygon"])
    def test_moved_matches_rotate_then_translate(self, body, two_step):
        rng = np.random.default_rng(3)
        R, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        t = rng.normal(size=4)
        got, want = body.moved(R, t), two_step(body, R, t)
        assert type(got) is type(body)
        for field in dataclasses.fields(body):
            assert (np.asarray(getattr(got, field.name)).tobytes()
                    == np.asarray(getattr(want, field.name)).tobytes())


def _random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _random_form(rng, n, degree):
    """Float (n-1)-form with every (I, J) term and random polynomial coefficients."""
    terms = {}
    for k in range(n):
        for I in itertools.combinations(range(n), k):
            for J in itertools.combinations(range(n), n - 1 - k):
                poly = {e: float(rng.standard_normal())
                        for e in itertools.product(range(degree + 1), repeat=n)
                        if sum(e) <= degree and rng.random() < 0.4}
                terms[(I, J)] = SpherePoly(n, poly)
    return InvariantForm(n, terms)


def _close(a, b):
    return abs(a - b) <= 1e-12 * max(1.0, abs(b))


_ROTATED_BOX = Box(np.array([0.1, -0.2, 0.3, 0.0]), np.array([0.6, 0.4, 0.5, 0.3]),
                   _random_orthogonal(np.random.default_rng(7), 4))
_PENTAGON_ANGLES = 2 * math.pi * np.arange(5) / 5 + np.array([0.1, 0.3, -0.2, 0.0, 0.15])
_PENTAGON = 0.8 * np.stack([np.cos(_PENTAGON_ANGLES), np.sin(_PENTAGON_ANGLES)], axis=1)


def _one_cell(gens):
    """The cell spanned by the generators, classified as a batch of one."""
    return bodies._classify(np.asarray(gens, dtype=float)[None])


def _generators(cell):
    return cell.local.shape[1]


def _measure(cell):
    return float(bodies._moments(cell, 0)[0, 0])


def _cell_integral(group, fmat, cell):
    """The group's terms integrated over face x cell, a batch of one piece."""
    minors = bodies._minors(np.asarray(fmat, dtype=float)[None], cell, group.degree)
    return float(bodies._piece_integrals(group, minors)[0])


def _oracle_cell(form, fmat, gens, tol=1e-13):
    return adaptive(functools.partial(cell_integral, form, list(fmat)), gens, tol)


def _cone_near(rng, center, spread, dirs):
    """Three unit generators scattered by ``spread`` about ``center`` in the
    plane of ``dirs``."""
    gens = center + spread * (rng.standard_normal((3, 1)) * dirs[0]
                              + rng.standard_normal((3, 1)) * dirs[1])
    return gens / np.linalg.norm(gens, axis=1, keepdims=True)


def _small_circle_triangle(sin2):
    """Equilateral triangle on the circle at polar angle asin(sqrt(sin2)); its
    solid-angle denominator 1 + a.b + b.c + c.a is 4 - 4.5 sin2, 0 at 8/9."""
    s, c = math.sqrt(sin2), math.sqrt(1.0 - sin2)
    ang = 2 * math.pi * np.arange(3) / 3
    return np.column_stack([s * np.cos(ang), s * np.sin(ang), np.full(3, c)])


_OBLIQUE_4 = Simplex([[0, 0, 0, 0], [1, 0.2, 0, 0], [0, 1, 0.1, 0],
                      [0.3, 0, 1, 0], [0, 0.1, 0, 1.2]])


def _oblique_simplex(rng, n, size):
    return Simplex(np.vstack([np.zeros(n), np.eye(n)])[:size]
                   + rng.uniform(-0.2, 0.2, (size, n)))


class TestDerivativeCache:
    """``_derivatives`` keeps its dense Laplacians and gradients for degrees
    up to DERIVATIVES_KEPT alone: at degree 30 they take 7 MB, and all of
    degrees 1 to 30 46 MB."""

    def test_degree_30_triangle_moments_stay_within_the_bound(self):
        # the geodesic triangles of a box's edge pieces, whose moments a
        # degree-30 evaluation of the box takes through every degree from 1
        # to 30: the cache then holds the degrees up to the bound, well
        # under 1 MiB, and the moments of those degrees are the ones a
        # degree-DERIVATIVES_KEPT call takes from the cache alone
        _, gens, _ = Box(np.zeros(4), np.array([0.7, 0.55, 0.5, 0.6])).pieces()[(1, 3)]
        corners = bodies._classify(gens).local
        bodies._derivatives.cache_clear()
        got = bodies._triangle_moments(corners, 30)
        info = bodies._derivatives.cache_info()
        assert info.maxsize == info.currsize == bodies.DERIVATIVES_KEPT < 30
        kept = [bodies._derivatives(d) for d in range(1, bodies.DERIVATIVES_KEPT + 1)]
        assert bodies._derivatives.cache_info().misses == info.misses
        assert sum(a.nbytes for arrays in kept for a in arrays) < 1 << 20
        low = bodies._triangle_moments(corners, bodies.DERIVATIVES_KEPT)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(low, got))


class TestClosedFormCells:
    """Exact cell rules against the adaptive cubature oracle."""

    @pytest.mark.parametrize("m, arc", [(1, False), (2, False), (2, True), (3, False),
                                        (3, True)])
    def test_cell_matches_quadrature(self, m, arc):
        rng = np.random.default_rng(10 * m + arc)
        # orthonormal generators, or all but one pair at theta: a right or
        # oblique arc for m = 2, a triangle either way for m = 3; the
        # reference cubature at 1e-13 slows with the cell's dimension and
        # the integrand's degree; degree 5 - m keeps each case near a second
        form = _random_form(rng, 4, 5 - m)
        k = 4 - m
        group = bodies._closed_form_terms(form)[(k, m)]
        for theta in (0.7, 2.2):
            q = _random_orthogonal(rng, 4)
            fmat, gens = q[:k], q[k:].copy()
            if arc:
                gens[1] = math.cos(theta) * gens[0] + math.sin(theta) * gens[1]
            gens = gens[rng.permutation(m)]
            cell = _one_cell(gens)
            assert _generators(cell) == m
            got = _cell_integral(group, fmat, cell)
            want = _oracle_cell(form, fmat, gens)
            assert _close(got, want), (got, want)

    def test_cells_near_an_octant_measure_girards_excess(self):
        # cones within 1e-13 to 9e-13 of an octant, or of a right angle
        # against an arc, take the triangle rule like any other: their
        # measure is Girard's angle excess, computed here from the corners
        rng = np.random.default_rng(35)
        q = _random_orthogonal(rng, 4)
        for eps in (1e-13, 5e-13, 9e-13):
            for cos in (0.0, math.cos(1.1)):
                gram = np.full((3, 3), eps) + (1.0 - eps) * np.eye(3)
                gram[0, 1] = gram[1, 0] = cos or eps
                local = np.linalg.cholesky(gram)
                gens = local @ q[1:]
                cell = _one_cell(gens)
                assert _generators(cell) == 3
                # the corner angle at a is the angle between the planes (a, b)
                # and (a, c), whose normals are a x b and a x c
                excess = -math.pi
                for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
                    u = np.cross(local[a], local[b])
                    w = np.cross(local[a], local[c])
                    excess += math.atan2(np.linalg.norm(np.cross(u, w)), u @ w)
                got = _measure(cell)
                assert abs(got - excess) <= 1e-14 * excess, (eps, cos, got, excess)
        # further off an octant, the measure and a form's integral against
        # the cubature oracle
        gens = q[1:] + 1e-8 * rng.standard_normal((3, 4))
        gens /= np.linalg.norm(gens, axis=1, keepdims=True)
        cell = _one_cell(gens)
        assert _close(_measure(cell), adaptive(cone_density, gens, 1e-13))
        form = _random_form(rng, 4, 2)
        group = bodies._closed_form_terms(form)[(1, 3)]
        got = _cell_integral(group, q[:1], cell)
        assert _close(got, _oracle_cell(form, q[:1], gens))

    @pytest.mark.parametrize("seed, spread", [(1, 0.3), (2, 0.6), (3, 0.45)])
    def test_triangle_matches_quadrature(self, seed, spread):
        # every degree up to 5; the spread keeps the oracle at 1e-13 under a second
        rng = np.random.default_rng(seed)
        form = _random_form(rng, 4, 5)
        group = bodies._closed_form_terms(form)[(1, 3)]
        q = _random_orthogonal(rng, 4)
        gens = _cone_near(rng, q[1], spread, q[2:])
        want = _oracle_cell(form, q[:1], gens)
        for order in itertools.permutations(range(3)):
            cell = _one_cell(gens[list(order)])
            # the chart of reordered generators is oriented by the order's sign
            sign = 1.0 if order in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else -1.0
            got = _cell_integral(group, q[:1], cell)
            assert _close(got, sign * want), (order, got, want)

    @pytest.mark.parametrize("corners", [
        # a sliver: two corners 1e-6 apart
        np.array([[1.0, 0.0, 0.0], [math.cos(1e-6), math.sin(1e-6), 0.0], [0.6, 0.3, 0.74]]),
        # a needle: all three corners within 1e-3
        np.array([[0.0, 0.0, 1.0], [1e-3, 0.0, 1.0], [0.0, 1e-3, 1.0]]),
        # solid angle pi: the atan2 denominator is 0, then slightly each side
        _small_circle_triangle(8.0 / 9.0),
        _small_circle_triangle(8.0 / 9.0 - 1e-9),
        _small_circle_triangle(8.0 / 9.0 + 1e-9),
    ], ids=["sliver", "needle", "pi", "pi-below", "pi-above"])
    def test_degenerate_triangles(self, corners):
        gens = corners / np.linalg.norm(corners, axis=1, keepdims=True)
        rng = np.random.default_rng(8)
        form = _random_form(rng, 3, 2)
        group = bodies._closed_form_terms(form)[(0, 3)]
        fmat = np.zeros((0, 3))
        for order in ((0, 1, 2), (2, 1, 0)):
            cell = _one_cell(gens[list(order)])
            assert _close(_measure(cell), adaptive(cone_density, gens, 1e-13))
            got = _cell_integral(group, fmat, cell)
            want = _oracle_cell(form, fmat, gens[list(order)])
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (got, want)

    @pytest.mark.parametrize("n, degree, tol", [(3, 3, 1e-13), (4, 0, 1e-9)])
    def test_vertex_rule_matches_quadrature(self, n, degree, tol):
        # the vertex pieces of the simplex add up to the value on a point,
        # which the oracle integrates over the 2^n orthants of the sphere; the
        # 4-generator orthants of R^4 take seconds at 1e-13, so there the
        # oracle runs at 1e-9
        rng = np.random.default_rng(n)
        full = _random_form(rng, n, degree)
        form = InvariantForm(n, {(I, J): p for (I, J), p in full.terms.items() if not I})
        pieces = _oblique_simplex(rng, n, n + 1).pieces()
        (got,) = bodies._integrate_forms([form], pieces)
        want = quadrature_pieces(form, point_pieces(n), tol)
        assert abs(got - want) <= 10 * tol * max(1.0, abs(want)), (got, want)

    @pytest.mark.parametrize("body", [
        Simplex([[0.1, 0.2], [1.0, -0.1], [0.3, 0.9]]),
        _oblique_simplex(np.random.default_rng(3), 3, 4),
        _OBLIQUE_4,
        _oblique_simplex(np.random.default_rng(4), 4, 4),
        _oblique_simplex(np.random.default_rng(5), 4, 3),
        Box(np.zeros(2), np.array([0.3, 0.8]), _random_orthogonal(np.random.default_rng(6), 2)),
        Box(np.array([0.2, 0.0, -0.1]), np.array([0.3, 0.5, 0.7])),
        _ROTATED_BOX,
        PlanarPolygon(np.eye(2), _PENTAGON),
        PlanarPolygon(_random_orthogonal(np.random.default_rng(2), 3)[:2], _PENTAGON),
        PlanarPolygon(_random_orthogonal(np.random.default_rng(2), 4)[:2], _PENTAGON),
    ], ids=["triangle2", "simplex3", "simplex4", "tetrahedron4", "triangle4", "box2", "box3",
            "box4", "pentagon2", "pentagon3", "pentagon4"])
    def test_euler_characteristic_is_one(self, body):
        assert abs(evaluate(intrinsic_volume_rep(body.dim, 0), body) - 1.0) <= 1e-15

    def test_euler_characteristic_is_exactly_one(self):
        # the vertex pieces add up to the closed-form value on a point, summed
        # exactly and rounded once
        rng = np.random.default_rng(21)
        for n in (2, 3, 4):
            bodies_n = [Box(rng.uniform(-1, 1, n), rng.uniform(0.2, 0.9, n),
                            _random_orthogonal(rng, n)),
                        PlanarPolygon(_random_orthogonal(rng, n)[:2], _PENTAGON,
                                      rng.uniform(-1, 1, n))]
            bodies_n += [_oblique_simplex(rng, n, m) for m in range(1, n + 2)]
            chi = intrinsic_volume_rep(n, 0)
            for body in bodies_n:
                assert evaluate(chi, body) == 1.0, (n, body)

    def test_every_cell_has_an_exact_rule(self):
        rng = np.random.default_rng(12)
        counts = {}
        for n in (2, 3, 4):
            bodies_n = {
                "point": Simplex(rng.uniform(-1, 1, (1, n))),
                "segment": _oblique_simplex(rng, n, 2),
                "simplex": _oblique_simplex(rng, n, n + 1),
                "box": Box(np.zeros(n), np.full(n, 0.4), _random_orthogonal(rng, n)),
                "polygon": PlanarPolygon(_random_orthogonal(rng, n)[:2], _PENTAGON),
            }
            if n == 4:
                bodies_n["tetrahedron"] = _oblique_simplex(rng, 4, 4)
                bodies_n["triangle"] = _oblique_simplex(rng, 4, 3)
            for name, body in bodies_n.items():
                found = counts.setdefault((name, n), set())
                for _, gens, _ in body.pieces().values():
                    found.add(_generators(bodies._classify(gens)))
                for k in range(n + 1):
                    assert math.isfinite(evaluate(intrinsic_volume_rep(n, k), body))
                assert math.isfinite(steiner_volume(body, 0.3))
        # a face of dimension k has n - k generators: a point, an arc or a
        # triangle for every face of dimension >= 1 in R^2 to R^4
        assert counts[("simplex", 4)] == counts[("box", 4)] == counts[("tetrahedron", 4)] \
            == {1, 2, 3}
        assert counts[("simplex", 3)] == counts[("box", 3)] == counts[("polygon", 3)] == {1, 2}
        assert counts[("triangle", 4)] == counts[("polygon", 4)] == {2, 3}
        assert counts[("segment", 4)] == {3}
        assert all(not found for (name, _), found in counts.items() if name == "point")
        s5 = Simplex(np.vstack([np.zeros(5), np.eye(5)]))
        with pytest.raises(ValueError, match="4 generators in R\\^5"):
            evaluate(intrinsic_volume_rep(5, 1), s5)
        with pytest.raises(ValueError, match="4 generators in R\\^5"):
            steiner_volume(s5, 0.3)

    def test_oblique_cone_raises_only_where_a_form_needs_it(self):
        # the edges of a 4-simplex in R^5 have cones of four oblique
        # generators, which only V_1 integrates over
        S = Simplex([[0, 0, 0, 0, 0], [1, 0.2, 0, 0, 0.1], [0, 1, 0.1, 0, 0],
                     [0.3, 0, 1, 0, 0.2], [0, 0.1, 0, 1.2, 0]])
        message = "no exact rule for a normal cone of 4 generators in R^5"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            evaluate(intrinsic_volume_rep(5, 1), S)
        values = {k: evaluate(intrinsic_volume_rep(5, k), S) for k in (0, 2, 3, 4)}
        assert all(math.isfinite(v) for v in values.values())
        assert values[0] == 1.0
        # V_4 is the 4-volume and V_3 half the boundary's 3-volume
        verts = S.vertices

        def volume(points):
            edges = points[1:] - points[0]
            return math.sqrt(np.linalg.det(edges @ edges.T)) / math.factorial(len(edges))

        assert _close(values[4], volume(verts))
        assert _close(values[3], 0.5 * sum(volume(np.delete(verts, j, axis=0)) for j in range(5)))

    @pytest.mark.parametrize("body, ks", [
        (_ROTATED_BOX, (1, 2, 3)),
        (Box(np.array([0.2, 0.0, -0.1]), np.array([0.3, 0.5, 0.7])), (0, 1, 2)),
        (Simplex([[0.3, -1, 2, 0.5]]), (0,)),
        (Simplex([[0.3, -1, 2, 0.5], [1.0, 0.2, 1.5, 0.1]]), (1,)),
        (PlanarPolygon(_random_orthogonal(np.random.default_rng(2), 4)[:2], _PENTAGON,
                       np.array([0.1, 0.2, 0.3, 0.4])), (1, 2)),
        (PlanarPolygon(np.eye(2), _PENTAGON), (0, 1)),
    ], ids=["rotated-box4", "box3", "point4", "segment4", "pentagon4", "pentagon2"])
    def test_body_matches_quadrature(self, body, ks):
        # chi on R^4 bodies other than the point is left out: the oracle
        # integrates its vertex part over the sixteen 4-generator orthants of
        # a point, seconds at tolerance 1e-13, which point4 already covers
        reps = [intrinsic_volume_rep(body.dim, k) for k in ks]
        if body is _ROTATED_BOX:
            reps += [rep for label, rep in su2_basis("icosahedron")
                     if label in ("Z_u1", "Z_u4")]
        for mu in reps:
            got, want = evaluate(mu, body), quadrature_evaluate(mu, body, 1e-13)
            assert _close(got, want), (got, want)

    def test_simplex_steiner_volume_from_intrinsic_volumes(self):
        t = 0.3
        want = 0.0
        for k in range(5):
            omega = math.pi ** ((4 - k) / 2) / math.gamma((4 - k) / 2 + 1)
            want += omega * evaluate(intrinsic_volume_rep(4, k), _OBLIQUE_4) * t ** (4 - k)
        assert abs(steiner_volume(_OBLIQUE_4, t) - want) <= 1e-12 * want

    def test_box_steiner_volume_is_elementary_symmetric(self):
        edges = 2.0 * _ROTATED_BOX.half_extents
        t = 0.35
        want = 0.0
        for k in range(5):
            omega = math.pi ** ((4 - k) / 2) / math.gamma((4 - k) / 2 + 1)
            e_k = sum(math.prod(c) for c in itertools.combinations(edges, k))
            want += omega * e_k * t ** (4 - k)
        assert abs(steiner_volume(_ROTATED_BOX, t) - want) <= 1e-12 * want
