import math

import numpy as np
import pytest
from scipy.stats import kstest

from valcalc.bodies import Ball, Box, PlanarPolygon, Simplex
from valcalc.kinematic import (
    VECTOR_CACHE_SIZE,
    EvaluationVector,
    KinematicTensor,
    MCReport,
    RigidMotion,
    evaluation_vector,
    gram_matrix,
    haar_sample,
    kinematic_tensor,
    mc_poincare,
    mc_principal_kinematic,
    plane_class,
    rhs_kinematic,
    rotation_matrix,
    _VECTOR_CACHE,
)
from valcalc.scalars import ONE, PI, Rat, Scalar, ZERO, rational
from valcalc.su2 import left_mult_matrix, su2_basis
from valcalc.valuation import pairing


def mgon(m, frame, radius=1.0, base=None):
    ang = 2 * math.pi * np.arange(m) / m
    v = radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return PlanarPolygon(np.asarray(frame, dtype=float), v,
                         base=np.zeros(4) if base is None else base)


class TestGram:
    def test_icosahedron_entries(self):
        labels, G = gram_matrix("icosahedron")
        assert labels == ["chi", "vol1", "Z_u1", "Z_u2", "Z_u3", "Z_u4",
                          "Z_u5", "Z_u6", "vol3", "vol"]
        assert G[0][9] == ONE
        assert G[1][8] == rational(3, 4) * PI
        for i in range(2, 8):
            for j in range(2, 8):
                want = rational(1, 2) if i == j else rational(3, 10)
                assert G[i][j] == want

    def test_degree_block_structure(self):
        degrees = (0, 1, 2, 2, 2, 2, 2, 2, 3, 4)
        _, G = gram_matrix("icosahedron")
        for i in range(10):
            for j in range(10):
                if degrees[i] + degrees[j] != 4:
                    assert G[i][j].is_zero()

    def test_alesker_pipeline_block(self):
        _, G = gram_matrix("alesker")
        # directions i, j, k pairwise orthogonal; mixed pairs at 1/sqrt(2)
        assert G[2][2] == rational(1, 2)
        assert G[2][3] == rational(1, 4)
        assert G[2][5] == rational(3, 8)  # i against (i+j)/sqrt2
        assert G[5][6] == rational(5, 16)  # (i+j) against (i+k)


class TestTensor:
    def test_icosahedron_coefficients(self):
        T = kinematic_tensor("icosahedron")
        assert T.entry("chi", "vol") == ONE
        assert T.entry("vol", "chi") == ONE
        assert T.entry("vol1", "vol3") == rational(4, 3) * PI ** -1
        for a in ("Z_u1", "Z_u2", "Z_u3", "Z_u4", "Z_u5", "Z_u6"):
            for b in ("Z_u1", "Z_u2", "Z_u3", "Z_u4", "Z_u5", "Z_u6"):
                assert T.entry(a, b) == (rational(17, 4) if a == b else rational(-3, 4))

    def test_tensor_times_gram_is_identity(self):
        for kind in ("icosahedron", "alesker"):
            labels, G = gram_matrix(kind)
            T = kinematic_tensor(kind)
            for i in range(10):
                for j in range(10):
                    acc = ZERO
                    for l in range(10):
                        acc = acc + T.matrix[i][l] * G[l][j]
                    assert acc == (ONE if i == j else ZERO)

    def test_symmetric_and_block_antidiagonal(self):
        degrees = (0, 1, 2, 2, 2, 2, 2, 2, 3, 4)
        T = kinematic_tensor("icosahedron")
        for i in range(10):
            for j in range(10):
                assert T.matrix[i][j] == T.matrix[j][i]
                if degrees[i] + degrees[j] != 4:
                    assert T.matrix[i][j].is_zero()

    def test_explicit_basis_list(self):
        basis = [(label, rep) for label, rep in su2_basis("alesker")]
        T = kinematic_tensor(basis)
        assert T.entry("vol1", "vol3") == rational(4, 3) * PI ** -1
        with pytest.raises(ValueError):
            kinematic_tensor(su2_basis("icosahedron"))  # float coefficients


class TestEvaluationVector:
    def test_point_vector(self):
        point = Simplex([[0.2, -1.0, 0.0, 3.0]])
        vec = evaluation_vector(point)
        assert vec.labels[0] == "chi"
        assert vec.values[0] == pytest.approx(1.0, abs=1e-9)
        assert all(abs(v) < 1e-12 for v in vec.values[1:])

    def test_box_chi_entry(self):
        vec = evaluation_vector(Box(np.zeros(4), np.full(4, 0.5)))
        assert vec.values[0] == pytest.approx(1.0, abs=1e-9)
        assert vec.values[-1] == pytest.approx(1.0, abs=1e-9)

    def test_cache_size_stays_within_bound(self):
        balls = [Ball(np.zeros(4), 1.0 + k / 64) for k in range(VECTOR_CACHE_SIZE + 10)]
        vecs = [evaluation_vector(K) for K in balls]
        assert len(_VECTOR_CACHE) <= VECTOR_CACHE_SIZE
        assert evaluation_vector(balls[-1]) is vecs[-1]


class TestRhs:
    def test_point_pairs(self):
        point = Simplex([[0.0, 0, 0, 0]])
        assert rhs_kinematic(point, point) == pytest.approx(0.0, abs=1e-12)

    def test_ball_point(self):
        ball = Ball(np.zeros(4), 1.0)
        point = Simplex([[0.5, 0, 0, 0]])
        assert rhs_kinematic(ball, point) == pytest.approx(math.pi ** 2 / 2, abs=1e-9)

    def test_ball_ball_is_radius_sum_ball_volume(self):
        # rotations are irrelevant for balls: the motion integral is the
        # Lebesgue volume of a ball with the summed radii
        half = Ball(np.zeros(4), 0.5)
        assert rhs_kinematic(half, half) == pytest.approx(math.pi ** 2 / 2, abs=1e-9)

    def test_symmetry_and_translation_invariance(self):
        box = Box(np.zeros(4), np.array([0.6, 0.5, 0.4, 0.55]))
        simp = Simplex([[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0],
                        [0, 0, 1, 0], [0, 0, 0, 1]])
        ab = rhs_kinematic(box, simp)
        ba = rhs_kinematic(simp, box)
        assert ab == pytest.approx(ba, rel=1e-9)
        shifted = box.moved(np.eye(4), np.array([3.0, -2.0, 0.5, 1.0]))
        assert rhs_kinematic(shifted, simp) == pytest.approx(ab, rel=1e-9)

    def test_basis_independence(self):
        box = Box(np.zeros(4), np.array([0.6, 0.5, 0.4, 0.55]))
        thin = Box(np.zeros(4), np.array([1.0, 1.0, 0.08, 0.08]))
        a = rhs_kinematic(box, thin, kind="icosahedron")
        b = rhs_kinematic(box, thin, kind="alesker")
        assert abs(a - b) < 1e-9 * (1 + abs(a))


class TestRigidMotion:
    def test_validation(self):
        with pytest.raises(ValueError):
            RigidMotion(np.array([1.0, 1.0, 0.0, 0.0]), np.zeros(4))
        with pytest.raises(ValueError):
            RigidMotion(np.array([1.0, 0.0, 0.0]), np.zeros(4))

    def test_matrix_matches_exact_left_multiplication(self):
        q = (Rat(1, 3), Rat(2, 3), Rat(-2, 3), Rat(0))
        exact = np.array([[float(x) for x in row] for row in left_mult_matrix(q)])
        got = rotation_matrix([1 / 3, 2 / 3, -2 / 3, 0])
        assert np.allclose(exact, got, atol=1e-15)

    def test_apply(self):
        motion = RigidMotion(np.array([0.0, 1.0, 0.0, 0.0]), np.array([1.0, 0, 0, 0]))
        moved = motion.apply(Ball(np.array([1.0, 0, 0, 0]), 2.0))
        # left multiplication by i sends 1 to i
        assert np.allclose(moved.center, [1.0, 1.0, 0.0, 0.0])
        assert moved.radius == 2.0


class TestHaar:
    def test_moments(self):
        rng = np.random.default_rng(12345)
        qs = np.array([haar_sample(rng).q for _ in range(20000)])
        # component means vanish, second moments are 1/4
        assert np.max(np.abs(qs.mean(axis=0))) < 4 / (2 * math.sqrt(20000))
        assert np.max(np.abs((qs ** 2).mean(axis=0) - 0.25)) < 0.01

    def test_rotated_vector_uniform_on_sphere(self):
        rng = np.random.default_rng(77)
        v0 = np.array([1.0, 0.0, 0.0, 0.0])
        coords = []
        for _ in range(5000):
            m = haar_sample(rng)
            coords.append(float((m.matrix() @ v0)[1]))

        def sphere_cdf(x):
            x = np.clip(x, -1.0, 1.0)
            return 0.5 + (x * np.sqrt(1 - x * x) + np.arcsin(x)) / math.pi

        stat = kstest(coords, sphere_cdf)
        assert stat.pvalue > 1e-3

    def test_translation_box(self):
        rng = np.random.default_rng(3)
        m = haar_sample(rng, t_low=[-1, 0, 2, -3], t_high=[1, 1, 3, -2])
        assert np.all(m.t >= [-1, 0, 2, -3]) and np.all(m.t <= [1, 1, 3, -2])
        assert abs(m.q @ m.q - 1) < 1e-12


class TestMCPrincipal:
    def test_ball_ball(self):
        half = Ball(np.zeros(4), 0.5)
        rep = mc_principal_kinematic(half, half, N=200000, seed=42)
        assert abs(rep.z_score) < 3
        assert rep.samples == 200000
        assert rep.indeterminate == 0

    def test_reproducible_and_thread_invariant(self):
        half = Ball(np.zeros(4), 0.5)
        box = Box(np.zeros(4), np.array([0.5, 0.4, 0.6, 0.3]))
        a = mc_principal_kinematic(half, box, N=70000, seed=9)
        b = mc_principal_kinematic(half, box, N=70000, seed=9)
        c = mc_principal_kinematic(half, box, N=70000, seed=9, threads=4)
        assert a.estimate == b.estimate == c.estimate
        assert a.stderr == c.stderr

    def test_threads_bounded_by_chunks_and_cpus(self, monkeypatch):
        import valcalc.kinematic as kinematic

        seen = []

        class Recorder:
            # records the pool size and runs the chunks in order on the
            # calling thread, so no thread is started
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(kinematic, "ThreadPoolExecutor", Recorder)
        monkeypatch.setattr(kinematic.os, "cpu_count", lambda: 64)
        half = Ball(np.zeros(4), 0.5)
        N = 2 * kinematic.MC_CHUNK + 1  # three chunks
        one = mc_principal_kinematic(half, half, N=N, seed=4)
        many = mc_principal_kinematic(half, half, N=N, seed=4, threads=10**6)
        assert seen == [3]
        assert (many.estimate, many.stderr) == (one.estimate, one.stderr)
        monkeypatch.setattr(kinematic.os, "cpu_count", lambda: 2)
        mc_principal_kinematic(half, half, N=N, seed=4, threads=10**6)
        assert seen == [3, 2]

    def test_box_point(self):
        box = Box(np.zeros(4), np.array([0.5, 0.5, 0.5, 0.5]))
        point = Simplex([[0.0, 0, 0, 0]])
        rep = mc_principal_kinematic(box, point, N=20000, seed=5)
        # every translation in the bounding box of {x - q y} hits, so the
        # estimator is exact: the motion measure is vol(box)
        assert rep.estimate == pytest.approx(1.0, abs=1e-12)
        assert rep.rhs == pytest.approx(1.0, abs=1e-9)

    def test_stderr_scales(self):
        half = Ball(np.zeros(4), 0.5)
        box = Box(np.zeros(4), np.array([0.5, 0.4, 0.6, 0.3]))
        a = mc_principal_kinematic(half, box, N=40000, seed=1)
        b = mc_principal_kinematic(half, box, N=160000, seed=1)
        assert b.stderr < a.stderr
        assert b.stderr == pytest.approx(a.stderr / 2, rel=0.2)

    def test_box_box_generic_rotations(self):
        k = Box(np.zeros(4), np.array([0.7, 0.3, 0.5, 0.4]))
        l = Box(np.array([0.1, 0, -0.2, 0]), np.array([0.45, 0.55, 0.35, 0.6]))
        rep = mc_principal_kinematic(k, l, N=200000, seed=17)
        assert abs(rep.z_score) < 3


class TestMCPoincare:
    def test_same_class_density(self):
        p1 = mgon(6, [[1, 0, 0, 0], [0, 1, 0, 0]])
        p2 = mgon(5, [[1, 0, 0, 0], [0, 1, 0, 0]], radius=0.8)
        rep = mc_poincare(p1, p2, N=150000, seed=1)
        area1 = 0.5 * 6 * math.sin(2 * math.pi / 6)
        area2 = 0.5 * 5 * math.sin(2 * math.pi / 5) * 0.64
        assert rep.rhs == pytest.approx(0.5 * area1 * area2, rel=1e-12)
        assert abs(rep.z_score) < 3

    def test_orthogonal_class_density(self):
        p1 = mgon(6, [[1, 0, 0, 0], [0, 1, 0, 0]])
        p3 = mgon(7, [[1, 0, 0, 0], [0, 0, 1, 0]], radius=0.9)
        rep = mc_poincare(p1, p3, N=150000, seed=2)
        area1 = 0.5 * 6 * math.sin(2 * math.pi / 6)
        area3 = 0.5 * 7 * math.sin(2 * math.pi / 7) * 0.81
        assert rep.rhs == pytest.approx(0.25 * area1 * area3, rel=1e-12)
        assert abs(rep.z_score) < 3

    def test_generic_pair(self):
        p1 = mgon(6, [[1, 0, 0, 0], [0, 1, 0, 0]])
        f = np.array([0.0, 2.0, 2.0, 1.0]) / 3.0
        p4 = mgon(8, [[1, 0, 0, 0], list(f)], radius=0.7,
                  base=np.array([0.4, 0, 0, -0.3]))
        u1, u4 = plane_class(p1.frame), plane_class(p4.frame)
        assert np.allclose(u4, f[1:])
        rep = mc_poincare(p1, p4, N=150000, seed=3)
        density = 0.25 * (1 + float(u1 @ u4) ** 2)
        assert rep.rhs == pytest.approx(
            density * _area(6, 1.0) * _area(8, 0.7), rel=1e-12)
        assert abs(rep.z_score) < 3

    def test_left_multiplication_preserves_class(self):
        p = mgon(5, [[1, 0, 0, 0], [0, 0, 1, 0]])
        q = np.array([1.0, -2.0, 0.5, 3.0])
        q /= np.linalg.norm(q)
        moved = p.moved(rotation_matrix(q), np.zeros(4))
        assert np.allclose(plane_class(moved.frame), plane_class(p.frame), atol=1e-12)


def _area(m, radius):
    return 0.5 * m * math.sin(2 * math.pi / m) * radius ** 2
