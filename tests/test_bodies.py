import dataclasses
import math
import random

import numpy as np
import pytest
from scipy.optimize import linprog

from valcalc.bodies import (
    Ball,
    Box,
    IndeterminateIntersection,
    PlanarPolygon,
    Simplex,
    evaluate,
    evaluate_tube,
    intersects,
    steiner_volume,
)
from valcalc.exterior import fiber_integrate
from valcalc.su2 import (
    ImDirection,
    left_mult_matrix,
    rational_unit_quaternion,
    su2_basis,
    z_rep,
)
from valcalc.valuation import derivation, intrinsic_volume_rep, pairing, unit_ball_value


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


class TestFaceLattice:
    def test_box_counts(self):
        counts = {}
        for entry in unit_box(4).face_lattice():
            counts[entry.k] = counts.get(entry.k, 0) + 1
        assert counts == {0: 16, 1: 32, 2: 24, 3: 8, 4: 1}

    def test_segment_counts(self):
        seg = Simplex([[0, 0, 0, 0], [1, 2, 2, 0]])
        counts = {}
        for entry in seg.face_lattice():
            counts[entry.k] = counts.get(entry.k, 0) + 1
        assert counts == {0: 2, 1: 1}

    def test_polygon_counts(self):
        poly = regular_polygon(7)
        counts = {}
        for entry in poly.face_lattice():
            counts[entry.k] = counts.get(entry.k, 0) + 1
        assert counts == {0: 7, 1: 7, 2: 1}

    def test_frames_orthonormal_regions_orthogonal(self):
        for body in (unit_box(3), STANDARD_SIMPLEX, regular_polygon(5)):
            for entry in body.face_lattice():
                frame = np.asarray(entry.frame, dtype=float)
                if entry.k:
                    gram = frame @ frame.T
                    assert np.allclose(gram, np.eye(entry.k), atol=1e-12)
                for gens in entry.region:
                    g = np.asarray(gens, dtype=float)
                    assert np.allclose(np.linalg.norm(g, axis=1), 1.0, atol=1e-12)
                    if entry.k:
                        assert np.max(np.abs(g @ frame.T)) < 1e-12

    def test_face_volumes(self):
        total = {k: 0.0 for k in range(5)}
        for entry in unit_box(4).face_lattice():
            total[entry.k] += entry.volume
        # 2^(n-k) C(n,k) faces of unit k-volume each
        assert np.allclose([total[k] for k in range(5)],
                           [16, 32, 24, 8, 1], atol=1e-12)


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
            fiber_integrate(derivation(derivation(float_rep)).omega)
        with pytest.raises(TypeError):
            pairing(float_rep, z_rep(ImDirection.of(0, 1, 0)))
        with pytest.raises(TypeError):
            unit_ball_value(float_rep)


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


class TestSupport:
    def test_ball(self):
        b = Ball(np.array([1.0, 2.0, 0.0]), 1.5)
        xi = np.array([0.0, 1.0, 0.0])
        assert b.support(xi) == pytest.approx(3.5)

    def test_box_rotated(self):
        c, s = math.cos(0.3), math.sin(0.3)
        R = np.array([[c, -s], [s, c]])
        box = Box(np.array([1.0, 0.0]), np.array([2.0, 1.0]), R)
        rng = np.random.default_rng(5)
        for _ in range(20):
            xi = rng.normal(size=2)
            want = box.center @ xi + np.abs(R.T @ xi) @ box.half_extents
            assert box.support(xi) == pytest.approx(want, abs=1e-12)

    def test_simplex_and_polygon(self):
        xi = np.array([1.0, 1.0, 0.0, 0.0])
        assert STANDARD_SIMPLEX.support(xi) == pytest.approx(1.0)
        poly = regular_polygon(8)
        verts = poly.embedded_vertices()
        assert poly.support(xi) == pytest.approx(float(np.max(verts @ xi)), abs=1e-12)

    def test_batch_matches_single_directions(self):
        rng = np.random.default_rng(11)
        bodies = [Ball(np.array([1.0, -0.5, 0.2, 0.0]), 0.7),
                  Box(np.zeros(4), np.array([0.5, 1.0, 0.25, 0.7]),
                      left_mult_matrix((0.5, 0.5, 0.5, 0.5))),
                  STANDARD_SIMPLEX, regular_polygon(5)]
        dirs = rng.normal(size=(7, 4))
        for K in bodies:
            batch = K.support(dirs)
            assert batch.shape == (7,)
            for xi, h in zip(dirs, batch):
                assert isinstance(K.support(xi), float)
                assert K.support(xi) == pytest.approx(h, abs=1e-12)


def lp_constraints(K, n):
    if isinstance(K, Box):
        Rt = K.rotation.T
        A = np.vstack([Rt, -Rt])
        shift = Rt @ K.center
        b = np.concatenate([K.half_extents + shift, K.half_extents - shift])
        return A, b, None, None, 0
    m = len(K.vertices)
    A_eq = np.hstack([np.eye(n), -K.vertices.T])
    A_eq = np.vstack([A_eq, np.hstack([np.zeros(n), np.ones(m)])])
    b_eq = np.append(np.zeros(n), 1.0)
    A_ub = np.hstack([np.zeros((m, n)), -np.eye(m)])
    return A_ub, np.zeros(m), A_eq, b_eq, m


def lp_intersects(K, L, n):
    blocks = [lp_constraints(K, n), lp_constraints(L, n)]
    nv = n + blocks[0][4] + blocks[1][4]
    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    off = n
    for A, b, Ae, be, m in blocks:
        def pad(M, off=off, m=m):
            out = np.zeros((len(M), nv))
            out[:, :n] = M[:, :n]
            if m:
                out[:, off:off + m] = M[:, n:]
            return out
        if len(A):
            A_ub.append(pad(A))
            b_ub.append(b)
        if Ae is not None:
            A_eq.append(pad(Ae))
            b_eq.append(be)
        off += m
    res = linprog(np.zeros(nv),
                  A_ub=np.vstack(A_ub) if A_ub else None,
                  b_ub=np.concatenate(b_ub) if b_ub else None,
                  A_eq=np.vstack(A_eq) if A_eq else None,
                  b_eq=np.concatenate(b_eq) if b_eq else None,
                  bounds=[(None, None)] * n + [(0, None)] * (nv - n),
                  method="highs")
    return res.status == 0


def random_polytope(rng, n):
    if rng.integers(0, 2) == 0:
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        return Box(rng.uniform(-2, 2, n), rng.uniform(0.2, 1.5, n), q)
    m = int(rng.integers(2, n + 2))
    while True:
        v = rng.uniform(-2, 2, (m, n))
        if np.linalg.matrix_rank(v[1:] - v[0], tol=1e-8) == m - 1:
            return Simplex(v)


class TestIntersects:
    def test_balls(self):
        assert intersects(Ball(np.zeros(4), 1.0), Ball(np.array([1.9, 0, 0, 0]), 1.0))
        assert not intersects(Ball(np.zeros(4), 1.0), Ball(np.array([2.1, 0, 0, 0]), 1.0))

    def test_box_far_translate(self):
        box = Box(np.zeros(3), np.ones(3))
        assert not intersects(box, box.moved(np.eye(3), np.array([10.4, 0, 0])))
        assert intersects(box, box.moved(np.eye(3), np.array([1.9, 0, 0])))

    def test_lp_oracle(self):
        rng = np.random.default_rng(20260818)
        for _ in range(1000):
            n = int(rng.integers(2, 5))
            K, L = random_polytope(rng, n), random_polytope(rng, n)
            assert intersects(K, L) == lp_intersects(K, L, n)

    def test_ball_vs_simplex(self):
        tet = Simplex([[2, 0, 0], [3, 0, 0], [2, 1, 0], [2, 0, 1]])
        assert not intersects(Ball(np.zeros(3), 1.9), tet)
        assert intersects(Ball(np.zeros(3), 2.1), tet)


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
