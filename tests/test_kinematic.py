import math
import tracemalloc
from concurrent.futures import Future
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement

import numpy as np
import pytest
from scipy.linalg import null_space
from scipy.spatial import ConvexHull
from scipy.stats import kstest

import _oracles
from _oracles import exact_rotation_mean, haar_quaternions, left_mult_matrix, mc_failure, rotation_matrix
from valcalc import bodies
from valcalc import kinematic
from valcalc.bodies import Ball, Box, PlanarPolygon, Simplex
from valcalc.kinematic import (
    VECTOR_CACHE_SIZE,
    EvaluationVector,
    KinematicTensor,
    MCReport,
    evaluation_vector,
    gram_matrix,
    kinematic_tensor,
    mc_poincare,
    mc_principal_kinematic,
    plane_class,
    rhs_kinematic,
    _VECTOR_CACHE,
)
from valcalc.scalars import ONE, PI, Rat, Scalar, ZERO, rational
from valcalc.su2 import alesker_directions, gram_zz, su2_basis
from valcalc.valuation import pairing


# the box and simplex of the motion_mc benchmark workload
MOTION_BOX = Box(np.zeros(4), np.array([0.7, 0.55, 0.5, 0.6]))
MOTION_SIMPLEX = Simplex([[0.0, 0.0, 0.0, 0.0], [1.1, 0.0, 0.0, 0.0],
                          [0.2, 0.9, 0.0, 0.0], [0.1, 0.2, 1.0, 0.0],
                          [0.3, 0.1, 0.2, 0.8]])


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

    def test_alesker_pairs_the_basis_reps(self, monkeypatch):
        import valcalc.su2 as su2

        su2_basis("alesker")
        calls = []
        real = su2.z_rep
        monkeypatch.setattr(su2, "z_rep", lambda *args: calls.append(args) or real(*args))
        _, G = gram_matrix("alesker")
        assert calls == []
        monkeypatch.undo()
        dirs = alesker_directions()
        for i, u in enumerate(dirs):
            for j, v in enumerate(dirs):
                assert G[i + 2][j + 2] == gram_zz(u, v)


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
            assert T.entry("vol1", "vol3") == rational(4, 3) * PI ** -1
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

    def test_cache_key_holds_the_shapes(self, monkeypatch):
        # a triangle in R^4 and a tetrahedron in R^3 with the same 12 vertex
        # numbers: the tetrahedron must not get the triangle's cached vector
        monkeypatch.setattr(kinematic, "_VECTOR_CACHE", {})
        x = np.random.default_rng(3).uniform(-1, 1, 12)
        triangle = evaluation_vector(Simplex(x.reshape(3, 4)))
        assert triangle.values[0] == 1.0
        with pytest.raises(ValueError, match="body dimension does not match the valuation"):
            evaluation_vector(Simplex(x.reshape(4, 3)))
        assert evaluation_vector(Simplex(x.reshape(3, 4))) is triangle

    def test_basis_built_once_per_kind(self, monkeypatch):
        import valcalc.su2 as su2

        assert su2_basis("alesker") is su2_basis("alesker")
        assert su2_basis() is su2_basis("icosahedron")
        evaluation_vector(Box(np.zeros(4), np.full(4, 0.3)))
        calls = []
        monkeypatch.setattr(su2, "z_rep", lambda *args: calls.append(args))
        vec = evaluation_vector(Box(np.zeros(4), np.full(4, 0.35)))
        assert calls == []
        assert vec.values[-1] == pytest.approx(0.7 ** 4, rel=1e-12)


# evaluation vectors as float.hex, pinned with numpy 2.4 and OpenBLAS 0.3.31 on
# x86-64 from the evaluation that integrates the pieces of one shape together
# as arrays, each form's monomials in sorted (I, J, e) order; chi is the
# closed-form value on a point, 1 exactly
_PENTAGON_2D = [[0.8 * math.cos(2 * math.pi * i / 5 + 0.1 * i),
                 0.8 * math.sin(2 * math.pi * i / 5 + 0.1 * i)] for i in range(5)]
PINNED_BODIES = {
    "box": Box(np.array([0.1, 0.0, -0.2, 0.3]), np.array([0.45, 0.55, 0.35, 0.6]),
               rotation_matrix([0.5, 0.5, 0.5, 0.5]) @ rotation_matrix([0.6, 0.0, 0.8, 0.0])),
    "simplex": Simplex([[0.0, 0.0, 0.0, 0.0], [1.1, 0.0, 0.1, 0.0], [0.2, 0.9, 0.0, -0.1],
                        [0.1, 0.2, 1.0, 0.0], [0.3, 0.1, 0.2, 0.8]]),
    "pentagon": PlanarPolygon([[1, 0, 0, 0], [0, 2 / 3, 2 / 3, 1 / 3]], _PENTAGON_2D,
                              [0.1, 0.2, 0.3, 0.4]),
    "point": Simplex([[0.2, -1.0, 0.0, 3.0]]),
    "segment": Simplex([[0.0, 0.1, 0.2, 0.3], [1.0, -0.5, 0.7, 0.2]]),
}
_ONE = "0x1.0000000000000p+0"
_ZERO = "0x0.0p+0"
PINNED_VECTORS = {
    "icosahedron": {
        "box": (
            _ONE, "0x1.f333333333336p+1", "0x1.e07d29a1a1ecap+0",
            "0x1.e07d29a1a1ecap+0", "0x1.e2ff4f10fc280p+0", "0x1.e2ff4f10fc280p+0",
            "0x1.ddcb3561dccd1p+0", "0x1.ddcb3561dccd2p+0", "0x1.c7ced916872b1p+1",
            "0x1.a9c779a6b50b1p-1",
        ),
        "simplex": (
            _ONE, "0x1.2cc1d8451cfa1p+1", "0x1.131fe1ade3160p-1",
            "0x1.1089ea06d79a3p-1", "0x1.06f30591360efp-1", "0x1.0d4f8b003a11ep-1",
            "0x1.0c0f83fd62fddp-1", "0x1.0e634f2f56ee5p-1", "0x1.9800e483b174cp-2",
            "0x1.0f64e5ec10ee3p-5",
        ),
        "pentagon": (
            _ONE, "0x1.2b8c791ffdb1cp+1", "0x1.0bd9b8f991f91p-1",
            "0x1.7fcf052ea71f0p-2", "0x1.5fe7a3941881ep-1", "0x1.90066d9f375ddp-2",
            "0x1.28548d5e6960ap-1", "0x1.b8c4adf855ee0p-2", _ZERO, _ZERO,
        ),
        "point": (_ONE,) + (_ZERO,) * 9,
        "segment": (_ONE, "0x1.45d5b5c3f4f6dp+0") + (_ZERO,) * 8,
    },
    "alesker": {
        "box": (
            _ONE, "0x1.f333333333336p+1", "0x1.dd70a3d70a3d8p+0",
            "0x1.e51eb851eb853p+0", "0x1.deb851eb851edp+0", "0x1.e147ae147ae18p+0",
            "0x1.de147ae147ae4p+0", "0x1.e1eb851eb8520p+0", "0x1.c7ced916872b1p+1",
            "0x1.a9c779a6b50b1p-1",
        ),
        "simplex": (
            _ONE, "0x1.2cc1d8451cfa1p+1", "0x1.0a5462e866e83p-1",
            "0x1.0a0dc32a9c0d8p-1", "0x1.14cd71a66f68fp-1", "0x1.06a2b40cfd446p-1",
            "0x1.0e43db388aa73p-1", "0x1.10dfa7785072ap-1", "0x1.9800e483b174cp-2",
            "0x1.0f64e5ec10ee3p-5",
        ),
        "pentagon": (
            _ONE, "0x1.2b8c791ffdb1cp+1", "0x1.13f56d31da186p-1",
            "0x1.13f56d31da186p-1", "0x1.a88d4587c5af6p-2", "0x1.68de7b19ce6e9p-1",
            "0x1.1e928eeed8a32p-1", "0x1.1e928eeed8a32p-1", _ZERO, _ZERO,
        ),
        "point": (_ONE,) + (_ZERO,) * 9,
        "segment": (_ONE, "0x1.45d5b5c3f4f6dp+0") + (_ZERO,) * 8,
    },
}


class TestOnePass:
    """The basis is evaluated on a body in one pass over its pieces."""

    @pytest.mark.parametrize("kind", ["icosahedron", "alesker"])
    @pytest.mark.parametrize("name", list(PINNED_BODIES))
    def test_pinned_bits(self, kind, name, monkeypatch):
        monkeypatch.setattr(kinematic, "_VECTOR_CACHE", {})
        vec = evaluation_vector(PINNED_BODIES[name], kind)
        assert tuple(float(v).hex() for v in vec.values) == PINNED_VECTORS[kind][name]

    @pytest.mark.parametrize("kind", ["icosahedron", "alesker"])
    @pytest.mark.parametrize("name", list(PINNED_BODIES) + ["ball"])
    def test_vector_equals_single_evaluations(self, kind, name):
        K = Ball(np.array([0.1, 0.0, 0.2, -0.3]), 0.7) if name == "ball" else PINNED_BODIES[name]
        vec = evaluation_vector(K, kind)
        for value, (label, rep) in zip(vec.values, su2_basis(kind)):
            assert float(value).hex() == bodies.evaluate(rep, K).hex(), label

    @pytest.mark.parametrize("kind", ["icosahedron", "alesker"])
    def test_point_values_cached_without_moving_bits(self, kind):
        # one value per form with dv-only terms: chi's, the only basis rep
        # whose omega has terms on vertex pieces
        reps = [rep for _, rep in su2_basis(kind)]
        bodies._point_value.cache_clear()
        cold = {name: bodies.evaluate_many(reps, PINNED_BODIES[name])
                for name in ("box", "simplex", "pentagon")}
        assert bodies._point_value.cache_info().currsize == sum(
            1 for rep in reps if (0, 4) in bodies._closed_form_terms(rep.omega)) == 1
        for name, values in cold.items():
            warm = bodies.evaluate_many(reps, PINNED_BODIES[name])
            assert [v.hex() for v in warm] == [v.hex() for v in values], name

    def test_one_pieces_call_per_cold_vector(self, monkeypatch):
        monkeypatch.setattr(kinematic, "_VECTOR_CACHE", {})
        calls = []
        for cls in (Box, Simplex, PlanarPolygon):
            original = cls.pieces

            def counted(self, original=original):
                calls.append(self)
                return original(self)

            monkeypatch.setattr(cls, "pieces", counted)
        for name, K in PINNED_BODIES.items():
            for kind in ("icosahedron", "alesker"):
                evaluation_vector(K, kind)
                assert [c for c in calls if c is K] == [K], (name, kind)
                calls.clear()
            evaluation_vector(K)
            assert not [c for c in calls if c is K], name

    @pytest.mark.parametrize("kind", ["icosahedron", "alesker"])
    def test_one_spherical_cell_per_live_piece(self, kind, monkeypatch):
        monkeypatch.setattr(kinematic, "_VECTOR_CACHE", {})
        shapes = set()
        for _, rep in su2_basis(kind):
            if not rep.omega.is_zero():
                shapes |= set(bodies._closed_form_terms(rep.omega))
        calls = []
        original = bodies._classify

        def counted(gens):
            calls.extend(gens)
            return original(gens)

        monkeypatch.setattr(bodies, "_classify", counted)
        for name in ("box", "simplex", "pentagon", "segment"):
            K = PINNED_BODIES[name]
            live = sum(len(volumes) for shape, (_, _, volumes) in K.pieces().items()
                       if shape in shapes)
            calls.clear()
            evaluation_vector(K, kind)
            assert live and len(calls) == live, (name, len(calls), live)

    def test_basis_terms_not_rebuilt_on_a_second_body(self, monkeypatch):
        monkeypatch.setattr(kinematic, "_VECTOR_CACHE", {})
        evaluation_vector(PINNED_BODIES["box"])
        calls = []
        original = bodies._closed_form_terms

        def counted(form):
            calls.append(form)
            return original(form)

        monkeypatch.setattr(bodies, "_closed_form_terms", counted)
        misses = original.cache_info().misses
        evaluation_vector(PINNED_BODIES["simplex"])
        forms = [rep.omega for _, rep in su2_basis() if not rep.omega.is_zero()]
        assert len(calls) == len(forms)
        assert original.cache_info().misses == misses


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

    def test_same_bits_in_either_order(self):
        # the terms are summed exactly and rounded once: a plain running
        # sum gave box8/simplex and the CI's ball/simplex 1 ulp apart
        for K, L in [(MOTION_BOX, MOTION_SIMPLEX), (OFF_CENTRE_BALL, MOTION_SIMPLEX),
                     (MOTION_SIMPLEX, mgon(5, PENTAGON_FRAME, radius=0.8))]:
            assert rhs_kinematic(K, L).hex() == rhs_kinematic(L, K).hex()

    def test_basis_independence(self):
        box = Box(np.zeros(4), np.array([0.6, 0.5, 0.4, 0.55]))
        thin = Box(np.zeros(4), np.array([1.0, 1.0, 0.08, 0.08]))
        a = rhs_kinematic(box, thin, kind="icosahedron")
        b = rhs_kinematic(box, thin, kind="alesker")
        assert abs(a - b) < 1e-9 * (1 + abs(a))


class TestRigidMotion:
    def test_matrix_matches_exact_left_multiplication(self):
        q = (Rat(1, 3), Rat(2, 3), Rat(-2, 3), Rat(0))
        exact = np.array([[float(x) for x in row] for row in left_mult_matrix(q)])
        got = rotation_matrix([1 / 3, 2 / 3, -2 / 3, 0])
        assert np.allclose(exact, got, atol=1e-15)

    def test_apply(self):
        moved = Ball(np.array([1.0, 0, 0, 0]), 2.0).moved(
            rotation_matrix([0.0, 1.0, 0.0, 0.0]), np.array([1.0, 0, 0, 0]))
        # left multiplication by i sends 1 to i
        assert np.allclose(moved.center, [1.0, 1.0, 0.0, 0.0])
        assert moved.radius == 2.0


def _lattice_quaternions(n, seed, idx=0):
    """The n unit quaternions of replicate idx of the rotation lattice the
    estimators draw, as (n, 4) rows."""
    out = np.empty((4, 1, n))
    shift = np.random.default_rng([seed, idx]).random((1, 3))
    kinematic._rotation_lattice(n)(shift, 0, out)
    return out[:, 0].T


def _left_mults(qs):
    return np.array([left_mult_matrix(q) for q in qs])


def _rotations(qs):
    return np.array([rotation_matrix(q) for q in qs])


class TestHaar:
    """The rotations L_q of the unit quaternions q the Monte Carlo
    estimators draw: one shifted lattice of 20,000 points is already
    spread over S^3 like Haar measure."""

    def test_moments(self):
        # the first column of L_q is q itself
        qs = _left_mults(_lattice_quaternions(20000, 12345))[:, :, 0]
        # component means vanish, second moments are 1/4
        assert np.max(np.abs(qs.mean(axis=0))) < 4 / (2 * math.sqrt(20000))
        assert np.max(np.abs((qs ** 2).mean(axis=0) - 0.25)) < 0.01
        np.testing.assert_allclose(np.linalg.norm(qs, axis=1), 1.0, rtol=0, atol=1e-15)

    def test_rotated_vector_uniform_on_sphere(self):
        # coordinate 1 of each rotation's image of e_0
        coords = _left_mults(_lattice_quaternions(5000, 77))[:, 1, 0]

        def sphere_cdf(x):
            x = np.clip(x, -1.0, 1.0)
            return 0.5 + (x * np.sqrt(1 - x * x) + np.arcsin(x)) / math.pi

        stat = kstest(coords, sphere_cdf)
        assert stat.pvalue > 1e-3

    def test_rotations_are_left_multiplications_by_the_quaternions(self):
        # the weights read L_q as sum_k q_k _UNIT_LEFT[k], built from the
        # index and sign tables: the matrix of q x, bit for bit
        qs = _lattice_quaternions(1000, 5)
        Rs = _left_mults(qs)
        assert np.ascontiguousarray(Rs[:, :, 0]).tobytes() == np.ascontiguousarray(qs).tobytes()
        assert np.array_equal(Rs, _rotations(qs))
        assert np.array_equal(Rs, np.einsum("bk,kij->bij", qs, kinematic._UNIT_LEFT))


class TestMCPrincipal:
    def test_ball_ball(self):
        half = Ball(np.zeros(4), 0.5)
        rep = mc_principal_kinematic(half, half, N=200000, seed=42)
        assert abs(rep.z_score) < 3, mc_failure("ball/ball", half, half, 200000, 42, 1, rep)
        assert rep.samples == 200000
        assert rep.indeterminate == 0

    def test_reproducible_and_thread_invariant(self):
        half = Ball(np.zeros(4), 0.5)
        box = Box(np.zeros(4), np.array([0.5, 0.4, 0.6, 0.3]))
        a = mc_principal_kinematic(half, box, N=70000, seed=9)
        b = mc_principal_kinematic(half, box, N=70000, seed=9)
        c = mc_principal_kinematic(half, box, N=70000, seed=9, threads=4)
        message = mc_failure("ball/box at 4 threads", half, box, 70000, 9, 4, c)
        assert a.estimate == b.estimate == c.estimate, message
        assert a.stderr == c.stderr, message

    def test_threads_bounded_by_chunks_and_cpus(self, monkeypatch):
        import valcalc.kinematic as kinematic

        seen = []

        class Recorder:
            # a worker slot that records the share it is given and runs it
            # on the calling thread, so no thread is started
            def __init__(self, max_workers):
                assert max_workers == 1

            def submit(self, fn, first):
                seen.append(first)
                done = Future()
                done.set_result(fn(first))
                return done

        monkeypatch.setattr(kinematic, "ThreadPoolExecutor", Recorder)
        monkeypatch.setattr(kinematic, "_SLOTS", [])
        monkeypatch.setattr(kinematic.os, "cpu_count", lambda: 64)
        half = Ball(np.zeros(4), 0.5)
        # every pair's units are its 16 shifted lattices, the ball/simplex
        # pair's too; 16 lattices that fit in one chunk together share one
        # call and busy no slot; each estimate gives slots 0, 1, ... one
        # share each
        N = 2 * kinematic.MC_CHUNK
        busy = list(range(kinematic.REPLICATES))
        one = mc_principal_kinematic(half, half, N=N, seed=4)
        many = mc_principal_kinematic(half, half, N=N, seed=4, threads=10**6)
        assert seen == busy
        assert (many.estimate, many.stderr) == (one.estimate, one.stderr)
        mc_principal_kinematic(half, half, N=64, seed=4, threads=10**6)
        assert seen == busy
        mc_principal_kinematic(half, MOTION_SIMPLEX, N=N, seed=4, threads=10**6)
        assert seen == busy * 2
        monkeypatch.setattr(kinematic.os, "cpu_count", lambda: 2)
        mc_principal_kinematic(half, half, N=N, seed=4, threads=10**6)
        mc_principal_kinematic(half, MOTION_SIMPLEX, N=N, seed=4, threads=10**6)
        assert seen == busy * 2 + [0, 1, 0, 1]
        # the slots are kept: no estimate made more than the most it used
        assert len(kinematic._SLOTS) == kinematic.REPLICATES

    def test_box_point(self):
        box = Box(np.zeros(4), np.array([0.5, 0.5, 0.5, 0.5]))
        point = Simplex([[0.0, 0, 0, 0]])
        rep = mc_principal_kinematic(box, point, N=20000, seed=5)
        # every shadow of a point but the 0-dimensional one vanishes, so
        # each weight vol(box - q point) is vol(box), the motion measure
        assert rep.estimate == pytest.approx(1.0, abs=1e-12)
        assert rep.rhs == pytest.approx(1.0, abs=1e-9)

    def test_stderr_scales(self):
        # 4 times the samples cut the standard error for a ball against a
        # simplex by more than 4: its weight, the simplex's shadows, is
        # continuous in q, which the rotation lattice integrates faster than
        # an iid mean (a hit indicator, scored before, about halved it)
        half = Ball(np.zeros(4), 0.5)
        a = mc_principal_kinematic(half, MOTION_SIMPLEX, N=40000, seed=1)
        b = mc_principal_kinematic(half, MOTION_SIMPLEX, N=160000, seed=1)
        message = mc_failure("ball/simplex at 4N", half, MOTION_SIMPLEX, 160000, 1, 1, b)
        assert b.stderr < a.stderr, message
        assert b.stderr < a.stderr / 4, message

    def test_box_box_generic_rotations(self):
        k = Box(np.zeros(4), np.array([0.7, 0.3, 0.5, 0.4]))
        l = Box(np.array([0.1, 0, -0.2, 0]), np.array([0.45, 0.55, 0.35, 0.6]))
        rep = mc_principal_kinematic(k, l, N=200000, seed=17)
        assert abs(rep.z_score) < 3, mc_failure("box/box", k, l, 200000, 17, 1, rep)


    @pytest.mark.parametrize("seed", [1, 2])
    def test_ball_simplex_decided(self, seed):
        # every sample is scored by the simplex's exact shadows, so none is
        # left undecided
        half = Ball(np.zeros(4), 0.5)
        rep = mc_principal_kinematic(half, MOTION_SIMPLEX, N=20000, seed=seed)
        message = mc_failure("ball/simplex", half, MOTION_SIMPLEX, 20000, seed, 1, rep)
        assert rep.indeterminate == 0, message
        assert abs(rep.z_score) < 3, message

    def test_ball_simplex_thread_invariant_across_chunks(self):
        # ball/simplex draws rotations, each scored by the simplex's shadows
        # weighed by the radius
        half = Ball(np.zeros(4), 0.5)
        N = kinematic.MC_CHUNK + 4096
        one = mc_principal_kinematic(half, MOTION_SIMPLEX, N=N, seed=8)
        two = mc_principal_kinematic(half, MOTION_SIMPLEX, N=N, seed=8, threads=2)
        assert (one.estimate, one.stderr, one.indeterminate) == \
            (two.estimate, two.stderr, two.indeterminate), \
            mc_failure("ball/simplex at 2 threads", half, MOTION_SIMPLEX, N, 8, 2, two)
        assert abs(one.z_score) < 3, mc_failure("ball/simplex", half, MOTION_SIMPLEX, N, 8, 1, one)


class TestMCArguments:
    SQUARE = ([[1, 0, 0, 0], [0, 1, 0, 0]], [[0, 0], [1, 0], [1, 1], [0, 1]])

    def _estimate(self, estimator, dim=4, **kwargs):
        if estimator == "poincare":
            frame, verts = self.SQUARE
            p = PlanarPolygon(np.asarray(frame, dtype=float)[:, :dim], verts)
            return mc_poincare(p, mgon(5, self.SQUARE[0]), **{"N": 96, **kwargs})
        ball = Ball(np.zeros(dim), 0.5)
        return mc_principal_kinematic(ball, Ball(np.zeros(4), 0.5), **{"N": 96, **kwargs})

    @pytest.mark.parametrize("estimator", ["principal", "poincare"])
    @pytest.mark.parametrize("name, value", [
        ("N", 0), ("N", -5), ("N", 2.5), ("N", True),
        ("threads", 0), ("threads", -1), ("threads", 1.0),
    ])
    def test_counts_must_be_positive_integers(self, estimator, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1"):
            self._estimate(estimator, **{name: value})

    @pytest.mark.parametrize("estimator", ["principal", "poincare"])
    def test_bodies_must_lie_in_r4(self, estimator):
        first = "M1" if estimator == "poincare" else "K"
        with pytest.raises(ValueError, match=f"^{first} must be a body in R\\^4"):
            self._estimate(estimator, dim=3)
        with pytest.raises(ValueError, match="^L must be a body in R\\^4"):
            mc_principal_kinematic(Ball(np.zeros(4), 0.5), Ball(np.zeros(3), 0.5), N=10)

    def test_numpy_integers_accepted(self):
        rep = self._estimate("principal", N=np.int64(64), threads=np.int32(1))
        assert rep.samples == 64

    @pytest.mark.parametrize("N", [100, 8, 1, 2 * kinematic.MC_CHUNK + 1])
    def test_ball_pairs_need_a_multiple_of_the_replicates(self, N):
        # a ball against a ball, a box or a vertex hull splits N over 16
        # shifted lattices, as a box against a simplex does
        with pytest.raises(kinematic.SampleCountError, match="^N must be a multiple of 16"):
            self._estimate("principal", N=N)
        for K, L in ((ROTATED_BOX, OFF_CENTRE_BALL), (_BALL, MOTION_SIMPLEX),
                     (mgon(5, PENTAGON_FRAME, radius=0.8), _BALL), (MOTION_BOX, MOTION_SIMPLEX)):
            with pytest.raises(ValueError, match="multiple of 16"):
                mc_principal_kinematic(K, L, N=N)

    @pytest.mark.parametrize("N", [100, 8, 1, 2 * kinematic.MC_CHUNK + 1])
    def test_rotation_pairs_need_a_multiple_of_the_replicates(self, N):
        # every pair that draws a rotation splits N over 16 shifted
        # lattices, in either estimator, with the one message of the ball
        # pairs; no N is cut down to a multiple in silence
        message = f"^N must be a multiple of 16 \\(16 shifted lattices of N/16 points\\), got {N}$"
        square, pentagon = mgon(4, self.SQUARE[0]), mgon(5, PENTAGON_FRAME, radius=0.8)
        pairs = [BOX_PAIRS[1], (MOTION_BOX, MOTION_SIMPLEX), (MOTION_SIMPLEX, ROTATED_BOX),
                 (pentagon, MOTION_SIMPLEX), (square, pentagon)]
        for K, L in pairs:
            with pytest.raises(ValueError, match=message):
                mc_principal_kinematic(K, L, N=N)
        with pytest.raises(ValueError, match=message):
            mc_poincare(square, pentagon, N=N)
        whole = 16 * max(1, N // 16)
        assert mc_poincare(square, pentagon, N=whole).samples == whole


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

    @pytest.mark.parametrize("threads", [1, 2])
    def test_principal_estimate_of_the_plates_is_the_count(self, threads):
        # two plates in general position meet in at most one point, so their
        # intersection count is chi(M1 . gM2): the two estimators draw the
        # same quaternions and weigh them alike, and only their right-hand
        # sides, the exact tensor and the plane-class density, differ
        square, pentagon, _ = PINNED_PAIRS["poincare"]
        principal = mc_principal_kinematic(square, pentagon, N=40000, seed=13, threads=threads)
        count = mc_poincare(square, pentagon, N=40000, seed=13, threads=threads)
        assert [x.hex() for x in (principal.estimate, principal.stderr)] == \
            [x.hex() for x in (count.estimate, count.stderr)]
        assert principal.rhs == pytest.approx(count.rhs, rel=1e-14, abs=0)

    def test_rhs_of_the_ci_plates_keeps_its_bits(self):
        # the CI's square and pentagon plates: the density of su2 times the
        # two areas, with the bits the density written inline as
        # 0.25 * (1.0 + (u.v)^2) gave
        square = PlanarPolygon(SQUARE_FRAME, [[0, 0], [1, 0], [1, 1], [0, 1]])
        pentagon = PlanarPolygon(PENTAGON_FRAME, [
            [0.8 * math.cos(2 * math.pi * i / 5), 0.8 * math.sin(2 * math.pi * i / 5)]
            for i in range(5)])
        rep = mc_poincare(square, pentagon, N=64, seed=13)
        assert rep.rhs.hex() == "0x1.1957f995aae44p-1"
        cos2 = float(plane_class(square.frame) @ plane_class(pentagon.frame)) ** 2
        assert rep.rhs == 0.25 * (1.0 + cos2) * square.area * pentagon.area

    def test_left_multiplication_preserves_class(self):
        p = mgon(5, [[1, 0, 0, 0], [0, 0, 1, 0]])
        q = np.array([1.0, -2.0, 0.5, 3.0])
        q /= np.linalg.norm(q)
        moved = p.moved(rotation_matrix(q), np.zeros(4))
        assert np.allclose(plane_class(moved.frame), plane_class(p.frame), atol=1e-12)


def _area(m, radius):
    return 0.5 * m * math.sin(2 * math.pi / m) * radius ** 2


def _random_rotation(rng):
    q, r = np.linalg.qr(rng.standard_normal((4, 4)))
    return q * np.sign(np.diag(r))


_BOX_RNG = np.random.default_rng(2024)
# the box/box pair of the motion_mc benchmark, two axis-aligned boxes apart,
# and two pairs of randomly rotated boxes
BOX_PAIRS = [
    (Box(np.zeros(4), np.array([0.6, 0.5, 0.4, 0.55])),) * 2,
    (Box(np.zeros(4), np.array([0.7, 0.3, 0.5, 0.4])),
     Box(np.array([0.1, 0.0, -0.2, 0.0]), np.array([0.45, 0.55, 0.35, 0.6]))),
] + [
    (Box(_BOX_RNG.uniform(-0.3, 0.3, 4), _BOX_RNG.uniform(0.1, 0.8, 4), _random_rotation(_BOX_RNG)),
     Box(_BOX_RNG.uniform(-0.3, 0.3, 4), _BOX_RNG.uniform(0.1, 0.8, 4), _random_rotation(_BOX_RNG)))
    for _ in range(2)
]


def _scored(volumes, q):
    """A rotation weight's values at the (4, B) columns q, in a new array."""
    return volumes(q, np.empty(q.shape[1]))


def _zonotope_volumes(K, L, Rs):
    """16 times the sum of |det| over the 70 4-subsets of the 8 half-generators
    of K - R L, by numpy's determinant."""
    gens = _oracles.box_box_generators(K, L, Rs)
    return 16.0 * sum(np.abs(np.linalg.det(gens[:, list(sub)]))
                      for sub in combinations(range(8), 4))


def _elementary(x, k):
    return sum(math.prod(c) for c in combinations(x, k))


def _axis_box_rhs(a, b):
    """The mean of vol(K - R L) over left multiplications R by unit
    quaternions, for axis-aligned boxes of half extents a and b.

    The 1x1 and 3x3 minors of R have mean |q_k| = 4/(3 pi); a 2x2 minor on
    rows P and columns T is a sum of two squares, of mean 1/2, when T is P
    or its complement, and has mean 1/4 otherwise.
    """
    total = math.prod(a) + math.prod(b) + 4.0 / (3.0 * math.pi) * (
        _elementary(a, 3) * _elementary(b, 1) + _elementary(a, 1) * _elementary(b, 3))
    for P in combinations(range(4), 2):
        rest = tuple(i for i in range(4) if i not in P)
        for T in combinations(range(4), 2):
            c = 0.5 if T in (P, rest) else 0.25
            total += math.prod(a[i] for i in rest) * math.prod(b[j] for j in T) * c
    return 16.0 * total


def _assert_averages_the_hit_indicator(K, L, volumes, rng, rotations, n, slack=0.0):
    """The Fubini step for a few unit quaternions q: translations t uniform
    in the bounding box of K - L_q L, each scored by the box's volume times
    whether K meets L_q L + t, average to volumes(q) within 4 standard
    errors (plus ``slack`` times the weight). The hit is Qhull's test of
    t against the facets of K - L_q L, and its first few verdicts per
    rotation match the LP oracle on the moved bodies."""
    for q in haar_quaternions(rng, rotations):
        R = rotation_matrix(q)
        lo, hi = _oracles.translation_box(K, L, R)
        ts = lo + rng.uniform(size=(n, 4)) * (hi - lo)
        hits = _oracles.translation_hits(K, L, R, ts)
        for t, hit in zip(ts[:8], hits):
            assert _oracles.lp_intersects(K, L.moved(R, t), 4) == hit
        w = np.prod(hi - lo) * hits
        se = w.std(ddof=1) / math.sqrt(n)
        (want,) = _scored(volumes, q[:, None])
        assert abs(w.mean() - want) <= 4.0 * se + slack * want, (w.mean(), want, se)


class TestBoxBoxVolumes:
    """The box/box weight vol(K - R L) against numpy's determinants, the
    hit indicator it integrates and the exact right-hand side."""

    @pytest.mark.parametrize("pair", range(len(BOX_PAIRS)))
    def test_matches_determinant_sum(self, pair):
        # one full block and a partial one
        K, L = BOX_PAIRS[pair]
        Rs = _rotations(haar_quaternions(np.random.default_rng(31 + pair),
                                         kinematic.WEIGHT_BLOCK + 500))
        got = _scored(kinematic._mixed_volumes(K, L), Rs[:, :, 0].T)
        np.testing.assert_allclose(got, _zonotope_volumes(K, L, Rs), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("pair", [1, 2])
    def test_averages_the_hit_indicator(self, pair):
        # the Fubini step: translations uniform in the translation box, each
        # scored by box volume times whether the bodies meet, average to the
        # weight to within 4 standard errors over 2^16 translations
        K, L = BOX_PAIRS[pair]
        _assert_averages_the_hit_indicator(K, L, kinematic._mixed_volumes(K, L),
                                           np.random.default_rng(50 + pair), 4, 1 << 16)

    @pytest.mark.parametrize("a, b", [
        # the box pair of the motion_mc benchmark, its box8 against a second
        # box, and the thin boxes of acceptance criterion 10
        ((0.6, 0.5, 0.4, 0.55), (0.6, 0.5, 0.4, 0.55)),
        ((0.7, 0.55, 0.5, 0.6), (0.45, 0.55, 0.35, 0.6)),
        ((1.0, 1.0, 0.06, 0.06), (1.0, 1.0, 0.06, 0.06)),
    ])
    def test_rhs_of_axis_aligned_boxes(self, a, b):
        K = Box(np.zeros(4), np.array(a))
        L = Box(np.array([0.1, 0.0, -0.2, 0.0]), np.array(b))
        assert rhs_kinematic(K, L) == pytest.approx(_axis_box_rhs(a, b), rel=1e-12, abs=0)


# a reflected rotation (det -1, the last row of the CI's rotation negated)
# and a thin box of extent 1e-3 against the rotated boxes
_REFLECTION = rotation_matrix([0.6, 0.0, 0.8, 0.0]) * np.array([[1.0], [1.0], [1.0], [-1.0]])
WEIGHT_PAIRS = BOX_PAIRS + [
    (Box(np.zeros(4), np.array([0.7, 0.55, 0.5, 0.6])),
     Box(np.array([0.1, 0.0, -0.2, 0.0]), np.array([0.45, 0.55, 0.35, 0.6]), _REFLECTION)),
    (Box(np.zeros(4), np.array([0.5, 1e-3, 0.4, 0.6]), BOX_PAIRS[2][0].rotation), BOX_PAIRS[3][1]),
]


def _complement(subset):
    return [i for i in range(4) if i not in subset]


def _nearly_orthonormal_pair():
    """A box whose rotation is 1e-10 off orthonormal, within ORTHONORMAL_TOL,
    against a rotated box, and the generator that drew it."""
    rng = np.random.default_rng(80)
    rotation = _random_rotation(rng) + 1e-10 * rng.standard_normal((4, 4))
    return Box(np.zeros(4), np.array([0.7, 0.3, 0.5, 0.4]), rotation), BOX_PAIRS[3][1], rng


class TestBoxBoxForms:
    """The box/box weight from its mixed volumes, whose linear and quadratic
    |forms| in q merge up to sign and rounding to at most 16 and 18: the
    complementary minors it merges, and its values against all 70 Laplace
    minors and numpy's determinants."""

    @pytest.mark.parametrize("pair", range(len(WEIGHT_PAIRS)))
    def test_complementary_minors_agree(self, pair):
        # O(q) = K.rotation^T L_q L.rotation is orthogonal, so in absolute
        # value each 2x2 minor is its complementary minor and each 3x3 minor
        # its complementary entry (Jacobi)
        K, L = WEIGHT_PAIRS[pair]
        Rs = _rotations(haar_quaternions(np.random.default_rng(60 + pair), 256))
        O = K.rotation.T @ Rs @ L.rotation
        for P in combinations(range(4), 2):
            for T in combinations(range(4), 2):
                minor = np.linalg.det(O[:, P][:, :, T])
                other = np.linalg.det(O[:, _complement(P)][:, :, _complement(T)])
                np.testing.assert_allclose(np.abs(minor), np.abs(other), rtol=0, atol=1e-14)
        for c in range(4):
            for a in range(4):
                minor = np.linalg.det(O[:, _complement([c])][:, :, _complement([a])])
                np.testing.assert_allclose(np.abs(minor), np.abs(O[:, c, a]), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("pair", range(len(WEIGHT_PAIRS)))
    def test_matches_laplace_minors_and_determinants(self, pair):
        # one full block and a partial one
        K, L = WEIGHT_PAIRS[pair]
        Rs = _rotations(haar_quaternions(np.random.default_rng(70 + pair),
                                         kinematic.WEIGHT_BLOCK + 500))
        got = _scored(kinematic._mixed_volumes(K, L), Rs[:, :, 0].T)
        want = _oracles.box_box_laplace_volumes(K, L, Rs[:, :, 0])
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
        np.testing.assert_allclose(got, _zonotope_volumes(K, L, Rs), rtol=1e-13, atol=0)

    def test_nearly_orthonormal_rotation(self):
        # a rotation 1e-10 off orthonormal, within ORTHONORMAL_TOL: the
        # complementary minors, and so the weights, differ by about as much
        K, L, rng = _nearly_orthonormal_pair()
        qs = haar_quaternions(rng, 2000)
        np.testing.assert_allclose(_scored(kinematic._mixed_volumes(K, L), qs.T),
                                   _oracles.box_box_laplace_volumes(K, L, qs), rtol=1e-8, atol=0)

    @pytest.mark.parametrize("pair", [*range(len(WEIGHT_PAIRS)), "nearly_orthonormal"])
    def test_merged_forms_match_laplace_minors(self, pair, monkeypatch):
        # the two sides' 64 linear |forms| are 16 up to sign, fewer where the
        # frames share axes, and the 36 quadratic ones 18 up to rounding
        # (Jacobi), but 36 where the rotation is 1e-10 off orthonormal, past
        # the rounding bound. The merged weight matches the Laplace minors,
        # and the weight merged only where forms are equal bit for bit
        K, L = WEIGHT_PAIRS[pair] if pair != "nearly_orthonormal" else _nearly_orthonormal_pair()[:2]
        floats, blocked = [], kinematic._blocked
        monkeypatch.setattr(kinematic, "_blocked", lambda kernel, per: floats.append(per) or blocked(kernel, per))
        merged = kinematic._mixed_volumes(K, L)
        monkeypatch.setattr(kinematic, "FORM_MERGE_TOL", 0.0)
        exact = kinematic._mixed_volumes(K, L)
        # a sum and 10 monomials, then the forms
        forms = [per - 11 for per in floats]
        if pair == "nearly_orthonormal":
            assert forms == [16 + 36] * 2
        else:
            assert forms[0] <= 16 + 18 and forms[1] <= 16 + 36
        qs = haar_quaternions(np.random.default_rng(75), 2000)
        got = _scored(merged, qs.T)
        np.testing.assert_allclose(got, _scored(exact, qs.T), rtol=0, atol=1e-15 * got.max())
        np.testing.assert_allclose(got, _oracles.box_box_laplace_volumes(K, L, qs), atol=0,
                                   rtol=1e-8 if pair == "nearly_orthonormal" else 1e-13)


def _plates_sharing_a_line(rng, F1t, eps, count):
    """Frames whose plane meets span F1t at principal angles eps and a random
    angle phi in [0.1, pi/2]: a line of F1t's plane tilted by eps. Returns
    the frames and sin(eps) sin(phi), their |det [F1t | F2]|."""
    comp = np.linalg.svd(F1t, full_matrices=True)[0][:, 2:]
    frames, dets = [], []
    for _ in range(count):
        a, b, phi = rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi), \
            rng.uniform(0.1, math.pi / 2)
        u = F1t @ np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
        w = comp @ np.array([[math.cos(b), -math.sin(b)], [math.sin(b), math.cos(b)]])
        frames.append(np.stack([math.cos(eps) * u[:, 0] + math.sin(eps) * w[:, 0],
                                math.cos(phi) * u[:, 1] + math.sin(phi) * w[:, 1]], axis=1))
        dets.append(math.sin(eps) * math.sin(phi))
    return np.array(frames), np.array(dets)


def _svd_volumes(F1t, F2):
    """|det [F1t | F2]| as the product of the singular values."""
    mats = np.concatenate([np.broadcast_to(F1t, F2.shape), F2], axis=2)
    return np.prod(np.linalg.svd(mats, compute_uv=False), axis=-1)


def _plate_weights(F1t, F2t, qs):
    """|det [F1t | L_q F2t]| for each row q of qs, as the plates score it:
    the weight of two unit squares in the planes of F1t and F2t."""
    M1, M2 = (PlanarPolygon(Ft.T, [[0, 0], [1, 0], [1, 1], [0, 1]]) for Ft in (F1t, F2t))
    return _scored(kinematic._mixed_volumes(M1, M2), qs.T)


SQUARE_FRAME = [[1, 0, 0, 0], [0, 1, 0, 0]]
PENTAGON_FRAME = [[1, 0, 0, 0], [0, 2 / 3, 2 / 3, 1 / 3]]


class TestDetForm:
    """A determinant with some columns turned by L_q as fixed coefficients
    over the monomials of q."""

    @pytest.mark.parametrize("b", range(3))
    def test_matches_the_turned_determinant(self, b):
        # every choice of b moving columns, at quaternions that are not
        # unit: the form of degree b is a polynomial identity
        rng = np.random.default_rng(200 + b)
        cols = rng.normal(size=(3, 4, 4))
        qs = rng.normal(size=(8, 4)) * rng.uniform(0.5, 2.0, (8, 1))
        monomials = _oracles.quaternion_monomials(qs.T, b)[b]
        assert len(monomials) == math.comb(b + 3, 3) <= 10
        for moving in combinations(range(4), b):
            coeffs = kinematic._det_form(cols, moving)
            assert coeffs.shape == (3, len(monomials))
            for q, row in zip(qs, monomials.T):
                turned = cols.copy()
                turned[:, list(moving)] = cols[:, list(moving)] @ rotation_matrix(q).T
                want = np.linalg.det(turned.swapaxes(1, 2))
                np.testing.assert_allclose(coeffs @ row, want, rtol=1e-13, atol=0)

    def test_monomials_are_sorted_index_products(self):
        # the oracle's monomials of every degree, and the blocks' products
        # of degree 2
        q = np.array([[2.0], [3.0], [5.0], [7.0]])
        for b in range(5):
            want = [math.prod(q[list(t), 0]) for t in combinations_with_replacement(range(4), b)]
            assert _oracles.quaternion_monomials(q, b)[b][:, 0].tolist() == want
            if b == 2:
                assert kinematic._products(q, np.empty((10, 1)))[:, 0].tolist() == want


class TestPlateConditioning:
    """The plate weight |det [F1^T | L_q F2^T]|, the mixed volumes' one
    |quadratic form| in q, against the frames' 2x2 minors and the singular
    values.

    For orthonormal frames it is sin a sin b, a and b the principal angles
    between the planes, so a pair near parallel gets a weight near 0 and no
    pair is set aside.
    """

    def test_matches_svd_on_sampled_motions(self):
        M1 = mgon(4, SQUARE_FRAME)
        M2 = mgon(5, PENTAGON_FRAME, radius=0.8)
        Rs = _rotations(haar_quaternions(np.random.default_rng(12), 4096))
        F1t, F2 = M1.frame.T, Rs @ M2.frame.T
        mats = np.concatenate([np.broadcast_to(F1t, F2.shape), F2], axis=2)
        minors = _oracles.plate_determinants(F1t, F2)
        np.testing.assert_allclose(minors, np.abs(np.linalg.det(mats)), rtol=0, atol=1e-13)
        np.testing.assert_allclose(minors, _svd_volumes(F1t, F2), rtol=0, atol=1e-13)
        got = _plate_weights(F1t, M2.frame.T, Rs[:, :, 0])
        np.testing.assert_allclose(got, minors, rtol=0, atol=1e-15)
        # the product of the singular values is itself up to 1.1e-15 off the
        # exact determinant of these float frames, which the minors and the
        # form meet to 2.2e-16; 2e-15 is the bound of the shared-line test
        np.testing.assert_allclose(got, _svd_volumes(F1t, F2), rtol=0, atol=2e-15)

    def test_matches_svd_near_the_zero_set(self):
        # the 200 of 4 10^5 sampled quaternions where the form is nearest 0:
        # L_q F2^T nearly shares a line with F1^T
        F1t = mgon(4, SQUARE_FRAME).frame.T
        F2t = mgon(5, PENTAGON_FRAME, radius=0.8).frame.T
        qs = haar_quaternions(np.random.default_rng(13), 4 * 10 ** 5)
        weights = _plate_weights(F1t, F2t, qs)
        near = np.argsort(weights)[:200]
        qs, got = qs[near], weights[near]
        F2 = np.array([rotation_matrix(q) for q in qs]) @ F2t
        assert np.max(got) < 1e-3
        np.testing.assert_allclose(got, _oracles.plate_determinants(F1t, F2), rtol=0, atol=1e-15)
        np.testing.assert_allclose(got, _svd_volumes(F1t, F2), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("eps", [10.0 ** -k for k in range(2, 17)] + [0.0])
    def test_matches_svd_near_a_shared_line(self, eps):
        rng = np.random.default_rng(int(-math.log10(eps)) if eps else 99)
        F1t = _random_rotation(rng)[:, :2]
        F2, want = _plates_sharing_a_line(rng, F1t, eps, 128)
        minors = _oracles.plate_determinants(F1t, F2)
        np.testing.assert_allclose(minors, want, rtol=0, atol=1e-15)
        np.testing.assert_allclose(minors, _svd_volumes(F1t, F2), rtol=0, atol=2e-15)
        # the form of F1t and each frame F, at q = 1 where L_q F = F
        got = [_plate_weights(F1t, F, np.array([[1.0, 0.0, 0.0, 0.0]]))[0] for F in F2]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
        np.testing.assert_allclose(got, _svd_volumes(F1t, F2), rtol=0, atol=2e-15)

    def test_plate_against_itself(self):
        p = mgon(6, SQUARE_FRAME)
        F1t = p.frame.T
        assert _oracles.plate_determinants(F1t, F1t[None])[0] <= 1e-15
        assert _plate_weights(F1t, F1t, np.array([[1.0, 0.0, 0.0, 0.0]]))[0] <= 1e-15
        rep = mc_poincare(p, p, N=96, seed=4)
        assert math.isfinite(rep.estimate) and math.isfinite(rep.stderr)
        assert rep.indeterminate == 0


_REAL_DEFAULT_RNG = np.random.default_rng


class _Draws:
    """A stand-in for ``np.random.default_rng`` whose generators record each
    draw and offer only the one method a sample path may use."""

    def __init__(self, method, log):
        self.method, self.log = method, log

    def __call__(self, seed):
        rng = _REAL_DEFAULT_RNG(seed)

        def draw(shape):
            self.log.append(shape)
            return getattr(rng, self.method)(shape)
        return type("Recorded", (), {self.method: staticmethod(draw)})()


class TestQuaternionWeights:
    """Every pair without a ball draws only unit quaternions, from 16
    shifted lattices of three uniforms each, and scores them by a
    closed-form weight."""

    def test_no_rotation_drawn(self, monkeypatch):
        draws = []
        monkeypatch.setattr(kinematic.np.random, "default_rng", _Draws("random", draws))
        # just past one chunk, where the 16 lattices stop sharing one call
        N = kinematic.MC_CHUNK + 96
        pentagon = mgon(5, PENTAGON_FRAME, radius=0.8)
        reps = [mc_principal_kinematic(*BOX_PAIRS[1], N=N, seed=3),
                mc_principal_kinematic(MOTION_BOX, MOTION_SIMPLEX, N=N, seed=3),
                mc_principal_kinematic(MOTION_SIMPLEX, ROTATED_BOX, N=N, seed=3),
                mc_principal_kinematic(pentagon, MOTION_SIMPLEX, N=N, seed=3),
                mc_principal_kinematic(mgon(4, SQUARE_FRAME), pentagon, N=N, seed=3),
                mc_poincare(mgon(4, SQUARE_FRAME), pentagon, N=N, seed=3)]
        assert draws == [3] * kinematic.REPLICATES * len(reps)
        for rep in reps:
            assert abs(rep.z_score) < 3


# (estimate, stderr, indeterminate) as float.hex at the benchmark's sample
# counts for the ball pairs, pinned with numpy 2.4 on x86-64 from the
# rounded 3-box sections over 16 shifted 1-D lattices, each block split into
# its clamped, rising and falling runs
PINNED_BALL_SECTIONS = {
    ("ball_ball", 91): ("0x1.3bd3cc9be4905p+2", "0x1.e161845c54a87p-42", 0),
    ("ball_ball", 92): ("0x1.3bd3cc9be46c2p+2", "0x1.a660bd81698d5p-42", 0),
    ("ball_box", 91): ("0x1.9499c90c58526p+3", "0x1.70260484b2504p-25", 0),
    ("ball_box", 92): ("0x1.9499c91e7e9b6p+3", "0x1.41824070d4c1fp-25", 0),
}
# the same for the pairs weighted from q, pinned with numpy 2.4 on x86-64
# from the 16 shifted 3-D rotation lattices and their mixed volumes: box/box
# from its 4 linear and 12 quadratic |forms|, box/simplex from maxima over the
# simplex's vertices and the box's |forms|, and the plates from one |form|
PINNED_QUATERNION_WEIGHTS = {
    ("box_box", 91): ("0x1.dd8f1abe4a158p+4", "0x1.beead29f34889p-15", 0),
    ("box_box", 92): ("0x1.dd8f56069ebebp+4", "0x1.c62999bd056bap-15", 0),
    ("box_simplex", 91): ("0x1.ac0e0c5024f93p+3", "0x1.0f771e4e5b954p-7", 0),
    ("box_simplex", 92): ("0x1.abc14b5f02d3ap+3", "0x1.b7e73cfb51c0dp-8", 0),
    ("poincare", 91): ("0x1.1957e55309939p-1", "0x1.5bcc0a11710a7p-22", 0),
    ("poincare", 92): ("0x1.19580ab147d25p-1", "0x1.82c043d934a1dp-22", 0),
}
PINNED_ESTIMATES = {**PINNED_BALL_SECTIONS, **PINNED_QUATERNION_WEIGHTS}
_BALL = Ball(np.zeros(4), 0.5)
# the pinned pairs of the motion_mc benchmark at its sample counts
PINNED_PAIRS = {
    "ball_ball": (_BALL, _BALL, 1 << 20),
    "ball_box": (_BALL, Box(np.zeros(4), np.array([0.6, 0.5, 0.4, 0.55])), 28 << 15),
    "box_box": (*BOX_PAIRS[0], 60 << 10),
    "poincare": (PlanarPolygon(SQUARE_FRAME, [[0, 0], [1, 0], [1, 1], [0, 1]]),
                 mgon(5, PENTAGON_FRAME, radius=0.8), 5 << 15),
    "box_simplex": (Box(np.zeros(4), np.array([0.7, 0.55, 0.5, 0.6])),
                    Simplex([[0.0, 0.0, 0.0, 0.0], [1.1, 0.0, 0.0, 0.0], [0.2, 0.9, 0.0, 0.0],
                             [0.1, 0.2, 1.0, 0.0], [0.3, 0.1, 0.2, 0.8]]), 512),
}


class TestTranslationBox:
    @pytest.mark.parametrize("pair, seed", list(PINNED_ESTIMATES))
    def test_pinned_estimates(self, pair, seed):
        K, L, N = PINNED_PAIRS[pair]
        estimator = mc_poincare if pair == "poincare" else mc_principal_kinematic
        for threads in (1, 2):
            rep = estimator(K, L, N=N, seed=seed, threads=threads)
            got = (float(rep.estimate).hex(), float(rep.stderr).hex(), rep.indeterminate)
            assert got == PINNED_ESTIMATES[(pair, seed)], threads


# the rotated box of the CI's Monte Carlo step and an off-centre ball
ROTATED_BOX = Box(np.array([0.1, 0, -0.2, 0]), np.array([0.45, 0.55, 0.35, 0.6]),
                  rotation_matrix([0.6, 0.0, 0.8, 0.0]))
OFF_CENTRE_BALL = Ball(np.array([0.3, -0.1, 0.2, 0.05]), 0.35)


# kappa_j, the volume of the unit j-ball
_KAPPA = (1.0, 2.0, math.pi, 4.0 * math.pi / 3.0, math.pi ** 2 / 2.0)


def _steiner_box(half_extents, r):
    """vol(box + r B^4) = sum_k kappa_(4-k) V_k(box) r^(4-k), V_k(box) the
    k-th elementary symmetric function of the edge lengths."""
    edges = [2.0 * h for h in half_extents]
    return sum(_KAPPA[4 - k] * _elementary(edges, k) * r ** (4 - k) for k in range(5))


class TestBallReach:
    """Pairs with a ball, whose motion integral is the volume within reach
    of the other body, draw only the shifts of their lattices."""

    def test_no_rotation_drawn(self, monkeypatch):
        # a ball against a ball or a box draws one uniform per shift, the
        # 1-D lattice's shift, and none per point; against a vertex hull,
        # three per shift, the rotation lattice's
        draws = []
        monkeypatch.setattr(kinematic.np.random, "default_rng", _Draws("random", draws))
        N = kinematic.MC_CHUNK + 96
        lattice = [(_BALL, _BALL), (_BALL, ROTATED_BOX), (ROTATED_BOX, OFF_CENTRE_BALL)]
        hulls = [(OFF_CENTRE_BALL, MOTION_SIMPLEX), (mgon(5, PENTAGON_FRAME, radius=0.8), _BALL)]
        for K, L in lattice + hulls:
            rep = mc_principal_kinematic(K, L, N=N, seed=3)
            assert abs(rep.z_score) < 3, mc_failure("ball reach", K, L, N, 3, 1, rep)
        assert draws == [1] * kinematic.REPLICATES * len(lattice) + \
            [3] * kinematic.REPLICATES * len(hulls)

    def test_off_centre_pair_in_either_order(self):
        want = _steiner_box(ROTATED_BOX.half_extents, OFF_CENTRE_BALL.radius)
        a = mc_principal_kinematic(OFF_CENTRE_BALL, ROTATED_BOX, N=200000, seed=23)
        b = mc_principal_kinematic(ROTATED_BOX, OFF_CENTRE_BALL, N=200000, seed=23)
        assert (a.estimate, a.stderr) == (b.estimate, b.stderr)
        assert a.rhs == pytest.approx(want, rel=1e-9)
        assert abs(a.estimate - want) < 3 * a.stderr, (a.estimate, want, a.stderr)

    def test_zero_radius_ball_gives_box_volume(self):
        point = Ball(np.array([0.2, 0.0, 0.1, 0.0]), 0.0)
        rep = mc_principal_kinematic(point, ROTATED_BOX, N=50000, seed=4)
        assert rep.estimate == pytest.approx(np.prod(2.0 * ROTATED_BOX.half_extents),
                                             rel=1e-14)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_sections_of_a_point_are_exact(self, threads):
        # a zero-radius ball's sections are the box's own face, h3 h4, at
        # every lattice point: every shift gives vol(box) to rounding, with a
        # standard error at rounding level; two points meet on a null set
        point = Ball(np.array([0.2, 0.0, 0.1, 0.0]), 0.0)
        volume = np.prod(2.0 * ROTATED_BOX.half_extents)
        for N in (16, 4096 + 16 * 7, 16 * (kinematic.MC_CHUNK + 100)):
            rep = mc_principal_kinematic(ROTATED_BOX, point, N=N, seed=5, threads=threads)
            assert abs(rep.estimate - volume) <= 1e-14 * volume, rep
            assert rep.stderr <= 1e-15 * volume, rep
        rep = mc_principal_kinematic(point, point, N=4096, seed=6, threads=threads)
        assert (rep.estimate, rep.stderr, rep.rhs, rep.z_score) == (0.0, 0.0, 0.0, 0.0)

    def test_ball_box_stderr(self):
        # criterion 10's ball/box run: the translation box around rotated
        # copies gave 1.9e-3
        rep = mc_principal_kinematic(_BALL, PINNED_PAIRS["ball_box"][1], N=10**6, seed=31)
        assert rep.stderr / rep.estimate < 1e-3


class _Shift:
    """A stand-in for ``np.random.default_rng`` whose every draw is d."""

    def __init__(self, d):
        self.d = d

    def random(self, shape):
        return np.full(shape, self.d)


class TestBallSections:
    """A ball against a ball or a box: rounded 3-box sections over a
    shifted, tent-folded 1-D lattice."""

    def test_first_reaching_is_the_elementwise_pass(self):
        # the first k with k step + c >= level, against the block's own
        # row of k times step plus c, levels on and between its values
        rng = np.random.default_rng(39)
        k = kinematic._lattice_index(kinematic.MC_CHUNK)
        for _ in range(400):
            size = int(rng.integers(1, 3000))
            step = 2.0 * rng.uniform(0.01, 50.0) / rng.integers(1, 70000)
            c = rng.uniform(-1.0, 0.0) * size * step
            row = np.multiply(k[:size], step) + c
            for level in (row[rng.integers(size)], rng.uniform(row[0], row[-1]), 0.0,
                          row[0], row[-1], np.nextafter(row[-1], np.inf), row[0] - 1.0):
                want = int(np.argmax(row >= level)) if row[-1] >= level else size
                assert kinematic._first_reaching(step, c, float(level), size) == want
        assert kinematic._first_reaching(0.0, -0.0, 0.0, 10) == 0
        assert kinematic._first_reaching(0.0, -1.0, 0.0, 10) == 10

    @pytest.mark.parametrize("h, r", [(ROTATED_BOX.half_extents, OFF_CENTRE_BALL.radius),
                                      (np.zeros(4), 0.7),
                                      (np.array([0.6, 0.5, 0.4, 0.55]), 0.5)])
    def test_sections_integrate_to_the_steiner_volume(self, h, r):
        # Fubini: the section volumes averaged over a fine midpoint grid in
        # y1 give vol(box + r B^4). Under the shift phi = 1/2 the tent takes
        # the n points x = (k + 1/2)/n to the midpoints of n/2 cells of
        # [0, h1 + r], each twice
        n = 8192
        scale, lattice = kinematic._section_rule(h, r)[1:]
        with kinematic._WORK as take:
            (total,) = lattice(n)(np.array([[0.5 / n]]), 0, take(4, 1, n))
        assert scale * total / n == pytest.approx(_steiner_box(h, r), rel=1e-6, abs=0)

    def test_rising_run_rounds_to_at_most_r(self):
        # before the apex Y_k + c < 0 exactly; at the largest such Y_k, the
        # float below -c, Y_k + (r + c) rounds to at most r, whether -c lies
        # below r/2, between r/2 and 2r or past 2r, at powers of two too: the
        # rising run has no constant to step down, unlike the falling one
        rng = np.random.default_rng(61)
        for r in [*rng.uniform(0.01, 5.0, 300).tolist(), 0.25, 1.0, 3.0]:
            for c in [*(-rng.uniform(0.0, 0.5 * r, 4)), *(-rng.uniform(0.5 * r, 2.0 * r, 4)),
                      *(-rng.uniform(2.0 * r, 1e4 * r, 4)), -0.5 * r, -2.0 * r,
                      -2.0 ** math.ceil(math.log2(r)), -2.0 ** (math.ceil(math.log2(r)) + 3)]:
                y = math.nextafter(-c, 0.0)
                assert y + c < 0 and y + (r + c) <= r
        # the rule's blocks keep rho^2 >= 0 and weigh as the section
        # volumes computed point by point
        for _ in range(60):
            h = rng.uniform(0.0, 3.0, 4) * (rng.random() < 0.8)
            r, n = float(rng.uniform(0.02, 1.5)), int(rng.integers(2, 3000))
            d = float(rng.random())
            start = int(rng.integers(0, n))
            size = min(n - start, kinematic.MC_CHUNK)
            lattice = kinematic._section_rule(h, r)[2]
            with np.errstate(invalid="raise"), kinematic._WORK as take:
                (total,) = lattice(n)(np.array([[d]]), start, take(4, 1, size))
            x = (start + np.arange(size) + d * n % 1.0) / n
            y1 = (h[0] + r) * (1.0 - np.abs(2.0 * x - 1.0))
            rho = np.sqrt(np.maximum(r * r - np.maximum(y1 - h[0], 0.0) ** 2, 0.0))
            volume = (h[1] * h[2] * h[3] + rho * (h[1] * h[2] + h[1] * h[3] + h[2] * h[3])
                      + math.pi / 4 * rho ** 2 * (h[1] + h[2] + h[3]) + math.pi / 6 * rho ** 3)
            assert total == pytest.approx(float(volume.sum()), rel=1e-11, abs=1e-300)

    @pytest.mark.parametrize("h, r, n, shift", [
        pytest.param(ROTATED_BOX.half_extents, OFF_CENTRE_BALL.radius, 1000, None, id="h0-0.35-1000"),
        pytest.param(np.zeros(4), 1.0, 768, None, id="h1-1.0-768"),
        pytest.param(np.zeros(4), 1.0, 7, None, id="h2-1.0-7"),
        # h1 + r = 1 and n = 1024 under d = 0, every float exact: the apex
        # t = 0 on point 512, the first of a block, and y1 = h1 on points
        # 128 and 896, the clamped runs' edges
        pytest.param(np.array([0.25, 0.5, 0.4, 0.3]), 0.75, 1024, 0.0, id="apex-first-y1-h1-on-points"),
        # t = 0 on point 128 of one block, where r - c = r + h1 + r rounds
        # up: the falling run's constant steps down, else u > r there and
        # rho is not real
        pytest.param(np.array([0.15, 0.5, 0.4, 0.3]), 0.3, 256, 0.0, id="apex-rounding"),
        # phi = 1/2: the first point with t >= 0 is 511, the last of a block
        pytest.param(np.array([0.3, 0.5, 0.4, 0.3]), 0.35, 1022, 0.25, id="apex-last"),
        # h1 >> r: the first and last blocks lie wholly in the clamped runs,
        # and the offset of each run is far larger than r; an odd n
        pytest.param(np.array([4.0, 0.5, 0.4, 0.3]), 0.25, 1000, None, id="clamped-blocks"),
        pytest.param(np.array([30.0, 0.6, 0.5, 0.2]), 0.05, 4097, None, id="h1-far-past-r"),
        pytest.param(ROTATED_BOX.half_extents, OFF_CENTRE_BALL.radius, 999, None, id="odd-n")])
    def test_replicates_are_the_shifted_lattice_rule(self, monkeypatch, h, r, n, shift):
        # blocks of 256 points, the last one partial, against the rule
        # written plainly: the points frac(k/n + d), folded by the tent onto
        # y1 in [0, h1 + r], the section volume of each; every replicate
        # shifted by the given d, if any
        monkeypatch.setattr(kinematic, "MC_CHUNK", 256)
        if shift is not None:
            monkeypatch.setattr(kinematic.np.random, "default_rng", lambda seed: _Shift(shift))
        means = kinematic._lattice_means(kinematic._section_rule(h, r), n, 77, 1)
        assert kinematic._lattice_means(kinematic._section_rule(h, r), n, 77, 2) == means
        k = np.arange(n)
        for idx in range(kinematic.REPLICATES):
            (d,) = np.random.default_rng([77, idx]).random(1)
            x = (k / n + d) % 1.0
            y1 = (h[0] + r) * (1.0 - np.abs(2.0 * x - 1.0))
            rho2 = np.maximum(r * r - np.maximum(y1 - h[0], 0.0) ** 2, 0.0)
            rho = np.sqrt(rho2)
            volume = (h[1] * h[2] * h[3] + rho * (h[1] * h[2] + h[1] * h[3] + h[2] * h[3])
                      + math.pi / 4 * rho2 * (h[1] + h[2] + h[3]) + math.pi / 6 * rho ** 3)
            want = 16.0 * (h[0] + r) * volume.mean()
            assert means[idx] == pytest.approx(want, rel=1e-12, abs=0)

    def test_stderr_has_fifteen_degrees_of_freedom(self, monkeypatch):
        # the reported error is that of the 16 replicate means
        half = Ball(np.zeros(4), 0.5)
        seen = []
        real = kinematic._lattice_means

        def recording(*args):
            seen.extend(real(*args))
            return seen
        monkeypatch.setattr(kinematic, "_lattice_means", recording)
        rep = mc_principal_kinematic(half, ROTATED_BOX, N=16 * 1000, seed=8)
        assert len(seen) == kinematic.REPLICATES
        assert rep.estimate == pytest.approx(np.mean(seen), rel=1e-15)
        assert rep.stderr == pytest.approx(np.std(seen, ddof=1) / 4.0, rel=1e-12)


# vertex hulls of every kind: simplices of 1 to 5 vertices, the pentagon
# plate of the motion_mc benchmark, off-centre, and the unit square
_MIX_RNG = np.random.default_rng(2026)
HULLS = {
    **{f"simplex{m}": Simplex(_MIX_RNG.uniform(-0.6, 0.6, (m, 4))) for m in range(1, 6)},
    "pentagon": mgon(5, PENTAGON_FRAME, radius=0.8, base=np.array([0.1, 0.2, -0.1, 0.3])),
    "square": PlanarPolygon(SQUARE_FRAME, [[0, 0], [1, 0], [1, 1], [0, 1]]),
}
HULL_PAIRS = list(combinations(HULLS, 2)) + [(name, name) for name in HULLS]


def _hull_dim(P):
    return 2 if isinstance(P, PlanarPolygon) else len(P.vertices) - 1


def _qhull_difference_volume(K, L, q):
    """vol(K - L_q L) as Qhull's volume of the vertex differences."""
    diffs = K._hull()[:, None] - (L._hull() @ rotation_matrix(q).T)[None]
    return ConvexHull(diffs.reshape(-1, 4)).volume


# a box against each kind of vertex hull: the motion_mc benchmark's
# box/simplex, the rotated box against that simplex, and boxes against the
# pentagon plate, a segment, a point, a triangle and a tetrahedron
_HULL_RNG = np.random.default_rng(2025)
POLYTOPE_PAIRS = {
    "box_simplex": (MOTION_BOX, MOTION_SIMPLEX),
    "rotated_box_simplex": (ROTATED_BOX, MOTION_SIMPLEX),
    "box_pentagon": (MOTION_BOX, mgon(5, PENTAGON_FRAME, radius=0.8)),
    "box_segment": (MOTION_BOX, Simplex([[0.1, -0.2, 0.3, 0.0], [0.9, 0.4, -0.5, 0.6]])),
    "box_point": (MOTION_BOX, Simplex([[0.3, 0.1, -0.2, 0.4]])),
    "box_triangle": (ROTATED_BOX, Simplex(_HULL_RNG.uniform(-0.6, 0.6, (3, 4)))),
    "box_tetrahedron": (Box(_HULL_RNG.uniform(-0.3, 0.3, 4), _HULL_RNG.uniform(0.1, 0.8, 4),
                            _random_rotation(_HULL_RNG)),
                        Simplex(_HULL_RNG.uniform(-0.6, 0.6, (4, 4)))),
}


def _kubota_weight(points, volume, r):
    """kappa_4 r^4 + volume plus the shadows of the points' hull on the
    coordinate subspaces by Qhull (``_oracles.shadow_volumes``), each
    j-dimensional one times kappa_4 / kappa_j r^(4 - j): the weight whose
    mean over rotations is the volume within r of the hull (Steiner and
    Kubota)."""
    shadows = _oracles.shadow_volumes(points)
    return _KAPPA[4] * r ** 4 + volume + sum(
        _KAPPA[4] / _KAPPA[j] * r ** (4 - j) * shadow.sum() for j, shadow in enumerate(shadows, start=1))


class TestZonotopeSupport:
    """A box's and a ball's support as the mixed volumes read it, the
    weighted |linear forms| of their axes (``_mixed_side``), against the
    maximum over their vertices."""

    @pytest.mark.parametrize("body", [ROTATED_BOX, BOX_PAIRS[2][0], WEIGHT_PAIRS[5][0], OFF_CENTRE_BALL],
                             ids=["rotated", "random", "thin", "ball"])
    def test_support_is_the_maximum_over_the_hull(self, body):
        # at x = L_q u, for 10^4 Haar q and the 4-simplex's facet normals u;
        # a ball's support is its cube's, [-1/2, 1/2]^4 times 3 pi/8 r
        _, axes, weights, _ = kinematic._mixed_side(body)
        if isinstance(body, Ball):
            verts = 3.0 * math.pi / 8.0 * body.radius * kinematic._unit_cube()._hull()
        else:
            verts = body._hull() - body.center
        qs = haar_quaternions(np.random.default_rng(85), 10 ** 4)
        normals = kinematic._facet_directions({3: MOTION_SIMPLEX.face_groups()[2]})[0]
        x = np.einsum("bij,uj->bui", np.array([rotation_matrix(q) for q in qs]), normals)
        got = np.abs(x @ axes.T) @ weights
        want = (x @ verts.T).max(axis=2)
        # x is a unit vector: rounding of a few ulps of the weights' sum
        np.testing.assert_allclose(got, want, rtol=0, atol=4 * np.finfo(float).eps * weights.sum())


class TestHullShadows:
    """The shadows of a vertex hull on the coordinate subspaces against
    scipy's Qhull, as the mixed volumes weigh them: against a ball, whose
    weighted cube sums each j-dimensional shadow times kappa_4 / kappa_j
    r^(4 - j), and against a box."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_matches_qhull(self, m):
        # the ranges and, past two points, the plane areas and, past three,
        # the 3-D shadows of m random points; two radii keep the terms of
        # each dimension apart. The plane shadows of fewer points are flat
        rng = np.random.default_rng(90 + m)
        L = Simplex(rng.standard_normal((m, 4)))
        qs = haar_quaternions(rng, 100)
        for r in (0.35, 2.0):
            got = _scored(kinematic._mixed_volumes(Ball(np.zeros(4), r), L), qs.T)
            for q, weight in zip(qs, got):
                want = _kubota_weight(L.vertices @ rotation_matrix(q).T, L.volume(), r)
                assert weight == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("m", [4, 5])
    def test_three_space_shadows_match_qhull(self, m):
        # a box whose only edge longer than 2e-300 is axis l weighs the 3-D
        # shadow on the 3-space omitting l alone, its other terms vanishing
        # below rounding, so the weight less vol L is that shadow: the
        # support of the box's vertices on a tetrahedron's normal line, or
        # on a 4-simplex's five facet normals
        rng = np.random.default_rng(100 + m)
        L = Simplex(rng.uniform(-0.6, 0.6, (m, 4)))
        qs = haar_quaternions(rng, 40)
        for _ in range(5):
            R = _random_rotation(rng)
            for l in range(4):
                needle = Box(np.zeros(4), np.where(np.arange(4) == l, 0.5, 1e-300), R)
                got = _scored(kinematic._mixed_volumes(needle, L), qs.T) - L.volume()
                for q, shadow in zip(qs, got):
                    points = L.vertices @ (R.T @ rotation_matrix(q)).T
                    want = _oracles.shadow_volumes(points)[2][l]
                    assert shadow == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("m", [3, 5, 8])
    def test_polygon_cycle(self, m):
        # a convex polygon's vertices in order make its one 2-face, whose
        # normal cone is its plane's complement: its plane shadows against
        # a ball and a box, in their frames, match Qhull's
        rng = np.random.default_rng(95 + m)
        M = mgon(m, PENTAGON_FRAME, radius=0.8)
        qs = haar_quaternions(rng, 100)
        r = OFF_CENTRE_BALL.radius
        ball = _scored(kinematic._mixed_volumes(OFF_CENTRE_BALL, M), qs.T)
        box = _scored(kinematic._mixed_volumes(ROTATED_BOX, M), qs.T)
        for q, by_ball, by_box in zip(qs, ball, box):
            want = _kubota_weight(M.embedded_vertices() @ rotation_matrix(q).T, 0.0, r)
            assert by_ball == pytest.approx(want, rel=1e-12, abs=0)
            want = _oracles.box_polytope_volume(ROTATED_BOX, M, q)
            assert by_box == pytest.approx(want, rel=1e-12, abs=0)


class TestBoxPolytopeVolumes:
    """The box/polytope weight vol(K - L_q L), the mixed volumes of the
    polytope and the box, against Qhull's shadows, the hit indicator it
    integrates and the exact right-hand side."""

    @pytest.mark.parametrize("pair", list(POLYTOPE_PAIRS))
    def test_matches_qhull_shadows(self, pair):
        # one full block and a partial one
        K, L = POLYTOPE_PAIRS[pair]
        qs = haar_quaternions(np.random.default_rng(110), kinematic.WEIGHT_BLOCK + 100)
        got = _scored(kinematic._mixed_volumes(K, L), qs.T)
        for b in range(0, len(qs), 37):
            assert got[b] == pytest.approx(_oracles.box_polytope_volume(K, L, qs[b]),
                                           rel=1e-12, abs=0)

    @pytest.mark.parametrize("name", list(HULLS))
    def test_every_hull_matches_qhull_shadows(self, name):
        # the rotated box against every kind of vertex hull, the hull given
        # first: the box is taken as K, the same weight bit for bit
        L = HULLS[name]
        qs = haar_quaternions(np.random.default_rng(111), 1000)
        got = _scored(kinematic._translation_volumes(L, ROTATED_BOX), qs.T)
        assert got.tobytes() == _scored(kinematic._mixed_volumes(ROTATED_BOX, L), qs.T).tobytes()
        for b in range(0, len(qs), 19):
            assert got[b] == pytest.approx(_oracles.box_polytope_volume(ROTATED_BOX, L, qs[b]),
                                           rel=1e-12, abs=0)

    @pytest.mark.parametrize("pair", list(POLYTOPE_PAIRS))
    def test_averages_the_hit_indicator(self, pair):
        # the Fubini step over 2^14 translations; a point's difference body
        # fills its translation box, so every sample hits and only rounding
        # separates the mean from the weight
        K, L = POLYTOPE_PAIRS[pair]
        _assert_averages_the_hit_indicator(K, L, kinematic._mixed_volumes(K, L),
                                           np.random.default_rng(120), 3, 1 << 14, slack=1e-12)

    @pytest.mark.parametrize("pair", list(POLYTOPE_PAIRS))
    def test_estimate_matches_rhs_in_either_order(self, pair):
        K, L = POLYTOPE_PAIRS[pair]
        N = 2 * kinematic.WEIGHT_BLOCK + 96
        a = mc_principal_kinematic(K, L, N=N, seed=130)
        b = mc_principal_kinematic(L, K, N=N, seed=130)
        assert (a.estimate, a.stderr, a.indeterminate) == (b.estimate, b.stderr, 0)
        assert abs(a.z_score) < 3, a

    @pytest.mark.parametrize("pair", ["box_simplex", "box_pentagon"])
    def test_thread_invariant_across_chunks(self, pair):
        K, L = POLYTOPE_PAIRS[pair]
        N = kinematic.MC_CHUNK + 4096
        one = mc_principal_kinematic(K, L, N=N, seed=8)
        two = mc_principal_kinematic(K, L, N=N, seed=8, threads=2)
        assert (one.estimate, one.stderr, one.indeterminate) == \
            (two.estimate, two.stderr, two.indeterminate)
        assert abs(one.z_score) < 3

    @pytest.mark.parametrize("seed", [91, 92])
    def test_box_simplex_relative_stderr(self, seed):
        # the motion_mc benchmark's box/simplex at its 512 samples: the hit
        # indicator over the translation box gave 3.6e-2 at these seeds
        rep = mc_principal_kinematic(MOTION_BOX, MOTION_SIMPLEX, N=512, seed=seed)
        assert rep.stderr <= 2e-3 * rep.estimate
        assert abs(rep.z_score) < 3


class TestHullHullVolumes:
    """The mixed-volume weight vol(K - L_q L) of two vertex hulls against
    Qhull, the plates' weight, the hit indicator it integrates and the exact
    right-hand side."""

    @pytest.mark.parametrize("pair", HULL_PAIRS, ids="-".join)
    def test_matches_qhull(self, pair):
        # one full block and a partial one; a sum of dimension below 4 is
        # 0 exactly
        K, L = (HULLS[name] for name in pair)
        qs = haar_quaternions(np.random.default_rng(140), kinematic.WEIGHT_BLOCK + 100)
        got = _scored(kinematic._mixed_volumes(K, L), qs.T)
        if _hull_dim(K) + _hull_dim(L) < 4:
            assert not got.any()
            return
        for b in range(0, len(qs), 131):
            assert got[b] == pytest.approx(_qhull_difference_volume(K, L, qs[b]), rel=1e-12, abs=0)

    @pytest.mark.parametrize("pair", HULL_PAIRS, ids="-".join)
    def test_weight_does_not_depend_on_the_direction_x(self, pair, monkeypatch):
        # x picks the pairs of 2-faces that count, the cells of one mixed
        # subdivision of K - L_q L: another generic x picks the cells of
        # another, of the same volume
        K, L = (HULLS[name] for name in pair)
        qs = haar_quaternions(np.random.default_rng(142), 4096)
        one = _scored(kinematic._mixed_volumes(K, L), qs.T)
        monkeypatch.setattr(kinematic, "_GENERIC",
                            np.array([-0.2718281828459045, 0.6180339887498949,
                                      0.1234567890123457, -0.7071067811865476]))
        two = _scored(kinematic._mixed_volumes(K, L), qs.T)
        np.testing.assert_allclose(two, one, rtol=0, atol=1e-13 * np.abs(one).max())

    def test_plates_match_the_plate_form(self):
        # two plates' sum is an affine image of their product:
        # area1 area2 |det [F1^T | L_q F2^T]|, the intersection count's weight
        M1, M2 = HULLS["square"], HULLS["pentagon"]
        qs = haar_quaternions(np.random.default_rng(141), 4096)
        scale = M1.area * M2.area
        F2 = np.array([rotation_matrix(q) for q in qs]) @ M2.frame.T
        want = scale * _oracles.plate_determinants(M1.frame.T, F2)
        got = _scored(kinematic._mixed_volumes(M1, M2), qs.T)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * scale)

    @pytest.mark.parametrize("pair", [("simplex5", "simplex5"), ("pentagon", "simplex5")],
                             ids="-".join)
    def test_averages_the_hit_indicator(self, pair):
        K, L = (HULLS[name] for name in pair)
        _assert_averages_the_hit_indicator(K, L, kinematic._mixed_volumes(K, L),
                                           np.random.default_rng(150), 3, 1 << 14)

    @pytest.mark.parametrize("pair", [("simplex5", "simplex5"), ("pentagon", "simplex5"),
                                      ("simplex3", "simplex4"), ("simplex2", "simplex4"),
                                      ("simplex3", "pentagon"), ("square", "pentagon")],
                             ids="-".join)
    def test_estimate_matches_rhs_in_either_order(self, pair):
        # the two orders weigh vol(K - L_q L) and vol(L - K_q K): equal in
        # distribution, not sample by sample
        K, L = (HULLS[name] for name in pair)
        N = 2 * kinematic.WEIGHT_BLOCK + 96
        for a, b in [(K, L), (L, K)]:
            rep = mc_principal_kinematic(a, b, N=N, seed=160)
            assert rep.indeterminate == 0
            assert abs(rep.z_score) < 3, rep

    @pytest.mark.parametrize("pair", [("simplex5", "simplex5"), ("pentagon", "simplex5")],
                             ids="-".join)
    def test_thread_invariant_across_chunks(self, pair):
        K, L = (HULLS[name] for name in pair)
        N = kinematic.MC_CHUNK + 4096
        one = mc_principal_kinematic(K, L, N=N, seed=8)
        two = mc_principal_kinematic(K, L, N=N, seed=8, threads=2)
        assert one == two
        assert abs(one.z_score) < 3

    def test_simplex_simplex_relative_stderr(self):
        # the motion_mc benchmark's simplex against the standard one at
        # 8192 samples: the hit indicator over the translation box had a
        # relative variance of 15.8 per sample, a relative stderr of 4.4e-2
        standard = Simplex(np.vstack([np.zeros(4), np.eye(4)]))
        rep = mc_principal_kinematic(MOTION_SIMPLEX, standard, N=8192, seed=170)
        assert rep.stderr <= 3e-3 * rep.estimate
        assert abs(rep.z_score) < 3


class TestHullReach:
    """A ball against a simplex or a polygon: the rotation rule on the mixed
    volumes of the hull and the ball's weighted cube, which sum the hull's
    coordinate shadows weighed by the radius (Steiner and Kubota), whose
    mean over q is the volume within reach of the hull."""

    @pytest.mark.parametrize("name", list(HULLS))
    def test_weight_matches_kubota_weighted_qhull_shadows(self, name):
        # every kind of vertex hull, given first: the ball is taken as K,
        # the same weight bit for bit
        P = HULLS[name]
        qs = haar_quaternions(np.random.default_rng(182), 200)
        got = _scored(kinematic._translation_volumes(P, OFF_CENTRE_BALL), qs.T)
        assert got.tobytes() == _scored(kinematic._mixed_volumes(OFF_CENTRE_BALL, P), qs.T).tobytes()
        for q, weight in zip(qs, got):
            want = _kubota_weight(P._hull() @ rotation_matrix(q).T, P.volume(), OFF_CENTRE_BALL.radius)
            assert weight == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("name", ["simplex5", "simplex3", "pentagon", "square"])
    def test_mean_weight_matches_the_distance_oracle(self, name):
        # an oracle off the tensor: the volume of the points within r of the
        # hull, counted over iid points of its bounding box grown by r with
        # the tests' distance oracles, against the weight's mean over iid
        # Haar q. The reach fills about 21% of the box for the 4-simplex and
        # 14-58% for the others, so 2^20 and 2^21 points give a relative
        # error below 2e-3. Points farther than r from the hull's affine
        # hull or beyond a facet's plane, and points within r of a vertex,
        # are decided exactly without the oracle
        P, r = HULLS[name], 0.35
        verts = P._hull()
        lo, span = verts.min(axis=0) - r, np.ptp(verts, axis=0) + 2 * r
        perp = null_space(verts[1:] - verts[0])
        facets = ConvexHull(verts).equations if _hull_dim(P) == 4 else np.zeros((0, 5))
        rng, size, hits = np.random.default_rng(180), 1 << (20 if _hull_dim(P) == 4 else 21), 0
        for _ in range(0, size, 1 << 16):
            y = lo + rng.random((1 << 16, 4)) * span
            beyond = (np.linalg.norm((y - verts[0]) @ perp, axis=1) > r) | \
                (y @ facets[:, :4].T + facets[:, 4] > r).any(axis=1)
            near = ~beyond & (np.linalg.norm(y[:, None] - verts, axis=2).min(axis=1) <= r)
            rest = y[~beyond & ~near]
            if isinstance(P, PlanarPolygon):
                dist = _oracles.polygon_distance(rest, P)
            else:
                dist = _oracles.hull_distance(rest, verts)
            hits += np.count_nonzero(near) + np.count_nonzero(dist <= r)
        p = hits / size
        count, count_err = np.prod(span) * p, np.prod(span) * math.sqrt(p * (1 - p) / size)
        assert count_err < 2e-3 * count
        weights = _scored(kinematic._mixed_volumes(Ball(np.zeros(4), r), P),
                      haar_quaternions(np.random.default_rng(181), 1 << 16).T)
        mean, err = weights.mean(), weights.std(ddof=1) / math.sqrt(len(weights))
        assert abs(mean - count) < 4 * math.hypot(err, count_err), (mean, err, count, count_err)

    @pytest.mark.parametrize("n", [7, 16, 17, 1000])
    def test_replicates_are_the_shifted_lattice_rule(self, monkeypatch, n):
        # chunks of 256 points, as for the rotations: the ball/pentagon
        # rule is the rotation rule of its mixed volumes, written plainly
        monkeypatch.setattr(kinematic, "MC_CHUNK", 256)
        P = HULLS["pentagon"]
        rule = kinematic._rule(OFF_CENTRE_BALL, P)
        means = kinematic._lattice_means(rule, n, 77, 1)
        assert kinematic._lattice_means(rule, n, 77, 2) == means
        volumes = kinematic._mixed_volumes(OFF_CENTRE_BALL, P)
        np.testing.assert_allclose(means, _plain_rotation_means(volumes, n, 77), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("name", ["simplex5", "simplex2", "pentagon"])
    def test_estimate_matches_rhs_in_either_order(self, name):
        # the ball is the ball in either order: the same report, bit for bit
        P = HULLS[name]
        a = mc_principal_kinematic(OFF_CENTRE_BALL, P, N=40000, seed=191)
        b = mc_principal_kinematic(P, OFF_CENTRE_BALL, N=40000, seed=191)
        assert a == b
        assert a.indeterminate == 0
        assert abs(a.z_score) < 3, a

    @staticmethod
    def _assert_constant_weight(ball, P, want):
        # every q weighs want to rounding, and so does every estimate, past
        # one chunk at 1 and 2 threads
        weights = _scored(kinematic._mixed_volumes(ball, P),
                      haar_quaternions(np.random.default_rng(192), 1000).T)
        assert np.all(np.abs(weights - want) <= 2 * math.ulp(want)), (weights, want)
        N = 2 * kinematic.MC_CHUNK + 16 * 7
        for threads in (1, 2):
            rep = mc_principal_kinematic(ball, P, N=N, seed=4, threads=threads)
            assert abs(rep.estimate - want) <= 4 * math.ulp(want), (rep, want)
            assert abs(rep.z_score) < 3, rep

    def test_zero_radius_ball_gives_simplex_volume(self):
        # every shadow weighs r^(4 - j) = 0
        self._assert_constant_weight(Ball(np.zeros(4), 0.0), MOTION_SIMPLEX, MOTION_SIMPLEX.volume())

    def test_one_vertex_hull_gives_ball_volume(self):
        # every shadow of a point is 0
        point = Simplex([[0.1, -0.2, 0.3, 0.4]])
        self._assert_constant_weight(OFF_CENTRE_BALL, point,
                                     math.pi ** 2 / 2 * OFF_CENTRE_BALL.radius ** 4)


class TestOracleEstimates:
    def test_estimates_unchanged_by_the_oracles(self, monkeypatch):
        # past one chunk per estimate; every sample must get the same weight
        # with numpy's row norms as with the column sums, the simplex's facet
        # normals in its mixed volumes with the box among them: the second
        # run builds its weights afresh
        N = kinematic.MC_CHUNK + 7008
        half = Ball(np.zeros(4), 0.5)
        box = BOX_PAIRS[0][0]
        square = mgon(4, [[1, 0, 0, 0], [0, 1, 0, 0]])
        pentagon = mgon(5, [[1, 0, 0, 0], [0, 2 / 3, 2 / 3, 1 / 3]], radius=0.8)

        def run():
            reps = [mc_principal_kinematic(K, L, N=N, seed=seed)
                    for seed, (K, L) in enumerate([(half, half), (half, box), BOX_PAIRS[0],
                                                   BOX_PAIRS[3], (MOTION_BOX, MOTION_SIMPLEX)])]
            reps.append(mc_poincare(square, pentagon, N=N, seed=5))
            return [(r.estimate, r.stderr, r.indeterminate) for r in reps]

        fast = run()
        monkeypatch.setattr(kinematic, "_WEIGHT_CACHE", {})
        monkeypatch.setattr(bodies, "_row_norms", _oracles.row_norms_numpy)
        assert run() == fast


class TestRoundingFloor:
    """Every pair's standard error is at least ROUNDING_ULPS ulps of its
    estimate: a weight that does not depend on the sample gives 16 equal
    replicate means, so a spread of 0, and an rhs a few ulps away must not
    give z = inf, while one off by more must still be flagged."""

    def test_box_against_a_point_agrees(self):
        box, point = POLYTOPE_PAIRS["box_point"]
        for N in (4096, kinematic.MC_CHUNK + 96):
            rep = mc_principal_kinematic(box, point, N=N, seed=5)
            assert rep.stderr == kinematic.ROUNDING_ULPS * math.ulp(rep.estimate), rep
            assert abs(rep.z_score) <= 1.0, rep

    @pytest.mark.parametrize("rel", [1e-12, -1e-12])
    def test_rhs_off_by_one_part_in_a_trillion_is_flagged(self, monkeypatch, rel):
        box, point = POLYTOPE_PAIRS["box_point"]
        want = rhs_kinematic(box, point)
        monkeypatch.setattr(kinematic, "rhs_kinematic",
                            lambda K, L, kind="icosahedron": want * (1.0 + rel))
        rep = mc_principal_kinematic(box, point, N=4096, seed=5)
        assert abs(rep.z_score) > 3, rep
        # the estimate lies on the other side of the rhs
        assert math.copysign(1.0, rep.z_score) == -math.copysign(1.0, rel)


    def test_ball_pair_with_equal_replicate_means(self, monkeypatch):
        # a ball pair's sections are integrated all but exactly: ball/ball's
        # standard error sits near 1e-13 relative at the benchmark's N, so
        # 16 equal replicate means must get the floor too
        K, L, N = PINNED_PAIRS["ball_ball"]
        want = rhs_kinematic(K, L)
        monkeypatch.setattr(kinematic, "_lattice_means",
                            lambda *args: [want] * kinematic.REPLICATES)
        rep = mc_principal_kinematic(K, L, N=N, seed=5)
        assert rep.stderr == kinematic.ROUNDING_ULPS * math.ulp(rep.estimate), rep
        assert rep.z_score == 0.0, rep
        for rel in (1e-12, -1e-12):
            monkeypatch.setattr(kinematic, "rhs_kinematic",
                                lambda K, L, kind="icosahedron": want * (1.0 + rel))
            rep = mc_principal_kinematic(K, L, N=N, seed=5)
            assert abs(rep.z_score) > 3, rep


def _plain_candidates(n, count):
    """The generator candidates written plainly: of the a coprime to n in
    (n/4, n/2], the first at or above the integer part of each of the
    ``count`` points n/4 + (i + 1/2) n / (4 count), or all of them when the
    range holds no more."""
    coprime = [a for a in range(n // 4 + 1, n // 2 + 1) if math.gcd(a, n) == 1]
    if n // 2 - n // 4 <= count:
        return coprime
    points = [math.floor(Fraction(n, 4) + Fraction(2 * i + 1, 8 * count) * n)
              for i in range(count)]
    return sorted({min(a for a in coprime if a >= p) for p in points if coprime[-1] >= p})


def _plain_p2(n, a):
    """P_2 of the lattice (1, a, a^2 mod n) over all n points at once."""
    x = np.outer(np.arange(n), [1, a, a * a % n]) % n / n
    return -1.0 + np.mean(np.prod(1.0 + 2.0 * math.pi ** 2 * (x * x - x + 1.0 / 6.0), axis=1))


def _plain_rotation_means(volumes, n, seed):
    """The 16 replicate means written plainly: the points frac(k (1, a,
    a^2)/n + d), the tent on the first coordinate and Shoemake's map."""
    a = kinematic._korobov_generator(n)
    z = np.array([1, a, a * a % n])
    means = []
    for idx in range(kinematic.REPLICATES):
        d = np.random.default_rng([seed, idx]).random(3)
        u = (np.outer(np.arange(n), z) % n / n + d) % 1.0
        u1 = 1.0 - np.abs(2.0 * u[:, 0] - 1.0)
        t2, t3 = 2.0 * math.pi * u[:, 1], 2.0 * math.pi * u[:, 2]
        qs = np.stack([np.sqrt(1.0 - u1) * np.cos(t2), np.sqrt(1.0 - u1) * np.sin(t2),
                       np.sqrt(u1) * np.cos(t3), np.sqrt(u1) * np.sin(t3)], axis=1)
        means.append(_scored(volumes, qs.T).mean())
    return means


class TestRotationLattice:
    """The 3-D rank-1 lattice of the rotation pairs: its generator against
    a plain search, and the shifted, folded and mapped points against the
    rule written plainly."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 7, 30, 32, 97, 480, 1280, 2054, 3840])
    def test_generator_matches_a_plain_search(self, n):
        a = kinematic._korobov_generator(n)
        cands = _plain_candidates(n, kinematic.KOROBOV_CANDIDATES)
        if not cands:
            assert a == 1
            return
        assert a in cands and math.gcd(a, n) == 1
        merits = [_plain_p2(n, c) for c in cands]
        assert _plain_p2(n, a) <= min(merits) + 1e-12 * abs(min(merits))

    @pytest.mark.parametrize("n", [7, 16, 17, 768, 1000])
    def test_replicates_are_the_shifted_lattice_rule(self, monkeypatch, n):
        # chunks of 256 points: the 16 lattices share one call up to n = 16
        # and run a replicate at a time past it, in blocks, the last one
        # partial
        monkeypatch.setattr(kinematic, "MC_CHUNK", 256)
        for K, L in (BOX_PAIRS[2], PINNED_PAIRS["poincare"][:2]):
            volumes = kinematic._translation_volumes(K, L)
            rule = kinematic._rotation_rule(volumes)
            got = kinematic._lattice_means(rule, n, 77, 1)
            np.testing.assert_allclose(got, _plain_rotation_means(volumes, n, 77), rtol=1e-12, atol=0)
            assert kinematic._lattice_means(rule, n, 77, 2) == got

    @pytest.mark.parametrize("n, d1, size", [(1000, 0.3, 256), (512, 0.5, 256), (1023, 0.25, 700)])
    def test_radii_are_the_folded_coordinate_bit_for_bit(self, n, d1, size):
        # a block starting at k' = m = int(d1 n) under d = (d1, 0, 0) turns
        # the angles by 0, so it holds the tables' cosines and sines times
        # the radii sqrt(|2 u1 - 1|) and sqrt(1 - |2 u1 - 1|), each of which
        # must be the plain fold's, bit for bit, on both sides of the apex
        # u1 = 1/2 (on the block's first point at n = 512)
        m = int(d1 * n)
        out = np.empty((4, 1, size))
        kinematic._rotation_lattice(n)(np.array([[d1, 0.0, 0.0]]), m, out)
        _, tent, angles = kinematic._lattice_tables(n, kinematic.MC_CHUNK)
        t = tent[:size] + ((m + (d1 * n - m)) * (2.0 / n) - 1.0)
        assert t[0] <= 0.0 < t[-1]
        fold = np.abs(t)
        radii = np.sqrt([fold, fold, 1.0 - fold, 1.0 - fold])
        assert out[:, 0].tobytes() == (angles[:, :size] * radii).tobytes()

    def test_stderr_has_fifteen_degrees_of_freedom(self, monkeypatch):
        # the reported error is that of the 16 replicate means
        seen = []
        real = kinematic._lattice_means

        def recording(*args):
            seen.extend(real(*args))
            return seen
        monkeypatch.setattr(kinematic, "_lattice_means", recording)
        rep = mc_principal_kinematic(*BOX_PAIRS[1], N=16 * 1000, seed=8)
        assert len(seen) == kinematic.REPLICATES
        assert rep.estimate == pytest.approx(np.mean(seen), rel=1e-15)
        assert rep.stderr == pytest.approx(np.std(seen, ddof=1) / 4.0, rel=1e-12)


# the thin boxes of acceptance criterion 10, aligned and generic
_THIN = Box(np.zeros(4), np.array([1.0, 1.0, 0.06, 0.06]))
_THIN_GENERIC = Box(np.zeros(4), np.array([1.0, 1.0, 0.06, 0.06]),
                    np.array(_oracles.right_translation_matrix((1 / 3, 2 / 3, -2 / 3, 0)), dtype=float))


def _agrees(value, exact):
    """The check the exact means hold the tensor to: 1e-13 relative."""
    return abs(value - exact) <= 1e-13 * abs(exact)


class TestExactRotationMean:
    """The exact mean over S^3 of the box/box and plate weights
    (``_oracles.exact_rotation_mean``) against the exact tensor and the
    plane-class density, to rounding."""

    def test_box_pairs_match_the_tensor(self):
        rng = np.random.default_rng(2027)
        random_pairs = [
            (Box(rng.uniform(-0.3, 0.3, 4), rng.uniform(0.1, 0.8, 4), _random_rotation(rng)),
             Box(rng.uniform(-0.3, 0.3, 4), rng.uniform(0.1, 0.8, 4), _random_rotation(rng)))
            for _ in range(4)]
        for K, L in WEIGHT_PAIRS + random_pairs + [(_THIN, _THIN), (_THIN, _THIN_GENERIC)]:
            exact = exact_rotation_mean(K, L)
            assert _agrees(rhs_kinematic(K, L), exact), (K, L, exact)

    @pytest.mark.parametrize("a, b", [((0.6, 0.5, 0.4, 0.55), (0.6, 0.5, 0.4, 0.55)),
                                      ((1.0, 1.0, 0.06, 0.06), (1.0, 1.0, 0.06, 0.06))])
    def test_axis_aligned_boxes_match_their_closed_form(self, a, b):
        K, L = Box(np.zeros(4), np.array(a)), Box(np.zeros(4), np.array(b))
        assert exact_rotation_mean(K, L) == pytest.approx(_axis_box_rhs(a, b), rel=1e-13, abs=0)

    def test_plates_match_the_density(self):
        rng = np.random.default_rng(2028)
        pairs = [PINNED_PAIRS["poincare"][:2]] + [
            (mgon(4, _random_rotation(rng)[:2]), mgon(5, _random_rotation(rng)[:2], radius=0.8))
            for _ in range(6)]
        for M1, M2 in pairs:
            rhs = mc_poincare(M1, M2, N=16, seed=0).rhs
            assert _agrees(rhs, exact_rotation_mean(M1, M2)), (M1, M2)

    def test_a_wrong_power_of_pi_in_the_gram_matrix_fails(self, monkeypatch):
        # the vol1/vol3 entry times pi: the tensor and so the rhs move
        real = kinematic.gram_matrix

        def mutant(kind="icosahedron"):
            labels, G = real(kind)
            G[1][8] = G[8][1] = G[1][8] * PI
            return labels, G

        monkeypatch.setattr(kinematic, "gram_matrix", mutant)
        kinematic.kinematic_tensor.cache_clear()
        try:
            for K, L in (BOX_PAIRS[0], BOX_PAIRS[2]):
                assert not _agrees(rhs_kinematic(K, L), exact_rotation_mean(K, L))
        finally:
            kinematic.kinematic_tensor.cache_clear()


class TestLatticeAccuracy:
    """The lattice rules' reported standard error against their true error,
    the exact mean: over 48 seeds the RMS relative error is within 1.5
    times the median relative standard error, for the motion_mc
    benchmark's box/box and plates at its sample counts and for a rotated
    box pair. The same holds for a ball against a simplex and a pentagon,
    weighed by their mixed volumes, and for the 1-D lattice of a ball against a
    ball or a box, whose exact mean is the Steiner volume."""

    SEEDS = range(7100, 7148)

    @staticmethod
    def _rms_and_median_stderr(estimate, exact):
        errors, stderrs = [], []
        for seed in TestLatticeAccuracy.SEEDS:
            rep = estimate(seed)
            errors.append((rep.estimate - exact) / exact)
            stderrs.append(rep.stderr / exact)
        return math.sqrt(np.mean(np.square(errors))), np.median(stderrs)

    @staticmethod
    @lru_cache(maxsize=None)
    def _hull_reach_accuracy(hull):
        # the off-centre ball of the CI against its simplex and pentagon at
        # its 40,000 samples, against the exact tensor's rhs; kept for the
        # gain gate below, as the 96 estimates are the same
        L = MOTION_SIMPLEX if hull == "simplex" else mgon(5, PENTAGON_FRAME, radius=0.8)
        return TestLatticeAccuracy._rms_and_median_stderr(
            lambda seed: mc_principal_kinematic(OFF_CENTRE_BALL, L, N=40000, seed=seed),
            rhs_kinematic(OFF_CENTRE_BALL, L))

    @pytest.mark.parametrize("hull", ["simplex", "pentagon"])
    def test_hull_reach_rms_error_matches_the_reported_stderr(self, hull):
        rms, stderr = self._hull_reach_accuracy(hull)
        assert rms <= 1.5 * stderr, (rms, stderr)

    @pytest.mark.parametrize("hull", ["simplex", "pentagon"])
    def test_hull_reach_relative_stderr(self, hull):
        # the hit indicator over a 4-D lattice gave medians of 3.3e-3
        # (simplex) and 4.4e-3 (pentagon)
        assert self._hull_reach_accuracy(hull)[1] < 1e-4

    @pytest.mark.parametrize("pair", ["box_box", "poincare", "rotated_boxes"])
    def test_rms_error_matches_the_reported_stderr(self, pair):
        if pair == "rotated_boxes":
            K, L, N = (*BOX_PAIRS[2], 60 << 10)
        else:
            K, L, N = PINNED_PAIRS[pair]
        estimator = mc_poincare if pair == "poincare" else mc_principal_kinematic
        rms, stderr = self._rms_and_median_stderr(
            lambda seed: estimator(K, L, N=N, seed=seed), exact_rotation_mean(K, L))
        assert rms <= 1.5 * stderr, (rms, stderr)

    # the motion_mc benchmark's ball pairs at its sample counts, and the
    # CI's off-centre ball against its rotated box and against itself at
    # its 40,000 samples
    BALL_PAIRS = {
        "ball_ball": PINNED_PAIRS["ball_ball"],
        "ball_box": PINNED_PAIRS["ball_box"],
        "ci_ball_box": (OFF_CENTRE_BALL, ROTATED_BOX, 40000),
        "ci_ball_ball": (OFF_CENTRE_BALL, OFF_CENTRE_BALL, 40000),
    }

    @staticmethod
    def _ball_pair_accuracy(pair):
        K, L, N = TestLatticeAccuracy.BALL_PAIRS[pair]
        if isinstance(L, Ball):
            exact = _steiner_box(np.zeros(4), K.radius + L.radius)
        else:
            exact = _steiner_box(L.half_extents, K.radius)
        return TestLatticeAccuracy._rms_and_median_stderr(
            lambda seed: mc_principal_kinematic(K, L, N=N, seed=seed), exact)

    @pytest.mark.parametrize("pair", list(BALL_PAIRS))
    def test_ball_section_rms_error_matches_the_reported_stderr(self, pair):
        rms, stderr = self._ball_pair_accuracy(pair)
        assert rms <= 1.5 * stderr, (rms, stderr)

    def test_ci_ball_box_relative_stderr(self):
        # the 2-D lattice over (y1, y2) with rounded-rectangle sections gave
        # a median of 7.8e-5
        assert self._ball_pair_accuracy("ci_ball_box")[1] < 1e-5


class TestLatticeTables:
    """The per-n lattice tables: one bounded cache of read-only arrays,
    never read at a block size other than the one they were built for."""

    @pytest.mark.parametrize("n", [768, 1000])
    def test_same_means_whichever_block_size_came_first(self, monkeypatch, n):
        # the rules of the tests that run at MC_CHUNK = 256: tables built at
        # 2^15 hold more points than a block of 256 and tables built at 256
        # fewer than a block of 2^15, so either order reads the wrong ones if
        # the cache forgets the block size
        rules = [kinematic._section_rule(ROTATED_BOX.half_extents, OFF_CENTRE_BALL.radius),
                 kinematic._rotation_rule(kinematic._translation_volumes(*BOX_PAIRS[2])),
                 kinematic._rule(OFF_CENTRE_BALL, HULLS["pentagon"])]

        def means(chunk):
            monkeypatch.setattr(kinematic, "MC_CHUNK", chunk)
            return [kinematic._lattice_means(rule, n, 77, 1) for rule in rules]

        kinematic._lattice_tables.cache_clear()
        small, big = means(256), means(1 << 15)
        kinematic._lattice_tables.cache_clear()
        assert means(1 << 15) == big
        assert means(256) == small

    def test_cache_size_stays_within_bound(self):
        kinematic._lattice_tables.cache_clear()
        sizes = range(100, 100 + kinematic.TABLE_CACHE_SIZE + 3)
        for n in sizes:
            kinematic._lattice_tables(n, kinematic.MC_CHUNK)
        info = kinematic._lattice_tables.cache_info()
        assert info.maxsize == kinematic.TABLE_CACHE_SIZE
        assert info.currsize == kinematic.TABLE_CACHE_SIZE and info.misses == len(sizes)
        kinematic._lattice_tables(sizes[-1], kinematic.MC_CHUNK)
        assert kinematic._lattice_tables.cache_info().hits == 1

    def test_tables_are_read_only(self):
        a, tent, angles = kinematic._lattice_tables(1000, kinematic.MC_CHUNK)
        # the generator, 2k/n, then the cosines and sines of the two angles
        assert a == kinematic._korobov_generator(1000)
        assert tent.shape == (1000,) and angles.shape == (4, 1000)
        for table in (tent, angles):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 0.5


# the vertex-hull pairs of the CI's Monte Carlo step
WORKSPACE_HULLS = {
    "simplex_simplex": (MOTION_SIMPLEX, MOTION_SIMPLEX),
    "pentagon_simplex": (mgon(5, PENTAGON_FRAME, radius=0.8), MOTION_SIMPLEX),
}
# its pairs of a vertex hull and a box or a ball
WORKSPACE_MIXED = {
    "ci_box_simplex": (MOTION_BOX, MOTION_SIMPLEX),
    "ci_box_pentagon": (MOTION_BOX, mgon(5, PENTAGON_FRAME, radius=0.8)),
    "ci_ball_simplex": (OFF_CENTRE_BALL, MOTION_SIMPLEX),
    "ci_ball_pentagon": (OFF_CENTRE_BALL, mgon(5, PENTAGON_FRAME, radius=0.8)),
}


class TestWeightCache:
    """The rotation pairs' weights are built once per pair of bodies, keyed
    by their fields' bytes, in a cache of at most WEIGHT_CACHE_SIZE."""

    def test_cache_size_stays_within_bound_and_evicts_the_oldest(self, monkeypatch):
        monkeypatch.setattr(kinematic, "_WEIGHT_CACHE", {})
        point = Simplex([[0.1, -0.2, 0.3, 0.4]])
        boxes = [Box(np.zeros(4), np.full(4, 0.3 + k / 64)) for k in range(kinematic.WEIGHT_CACHE_SIZE + 3)]
        for box in boxes:
            kinematic._rule(box, point)
            assert len(kinematic._WEIGHT_CACHE) <= kinematic.WEIGHT_CACHE_SIZE
        keys = [(kinematic._body_key(box), kinematic._body_key(point)) for box in boxes]
        assert list(kinematic._WEIGHT_CACHE) == keys[3:]

    def test_a_rebuilt_body_hits(self, monkeypatch):
        # bodies built again from equal arrays get the cached weight, and a
        # box whose half extents differ a weight of its own
        monkeypatch.setattr(kinematic, "_WEIGHT_CACHE", {})
        built = []
        real = kinematic._translation_volumes

        def recording(K, L):
            built.append((K, L))
            return real(K, L)
        monkeypatch.setattr(kinematic, "_translation_volumes", recording)
        kinematic._rule(Box(np.zeros(4), np.array([0.7, 0.55, 0.5, 0.6])),
                        Simplex(MOTION_SIMPLEX.vertices.copy()))
        (weight,) = kinematic._WEIGHT_CACHE.values()
        kinematic._rule(MOTION_BOX, MOTION_SIMPLEX)
        assert len(built) == 1 and list(kinematic._WEIGHT_CACHE.values()) == [weight]
        kinematic._rule(Box(np.zeros(4), np.array([0.7, 0.55, 0.5, 0.61])), MOTION_SIMPLEX)
        assert len(built) == 2 and len(kinematic._WEIGHT_CACHE) == 2

    @pytest.mark.parametrize("pair", list(WORKSPACE_MIXED))
    def test_estimates_are_the_same_cold_and_warm(self, monkeypatch, pair):
        K, L = WORKSPACE_MIXED[pair]
        monkeypatch.setattr(kinematic, "_WEIGHT_CACHE", {})
        cold = mc_principal_kinematic(K, L, N=40000, seed=21)
        mc_principal_kinematic(K, L, N=16000, seed=22)
        assert len(kinematic._WEIGHT_CACHE) == 1
        assert mc_principal_kinematic(K, L, N=40000, seed=21) == cold
        assert mc_principal_kinematic(L, K, N=40000, seed=21) == cold


# a pair for each kind of |forms| and maxima the rotation weight sums, and
# for both sides of a ball's
SPLIT_PAIRS = {
    "box_box": BOX_PAIRS[2],
    "plates": PINNED_PAIRS["poincare"][:2],
    "simplex_simplex": WORKSPACE_HULLS["simplex_simplex"],
    "box_pentagon": WORKSPACE_MIXED["ci_box_pentagon"],
    "ball_simplex": WORKSPACE_MIXED["ci_ball_simplex"],
}


class TestBlocks:
    """A rotation weight walks q in blocks of at most WEIGHT_BLOCK
    (``_blocked``): a column weighs the same in whichever block it falls."""

    @pytest.mark.parametrize("pair", list(SPLIT_PAIRS))
    def test_split_q_scores_the_same_bytes(self, pair):
        # rows of q contiguous, as a lattice block's are, cut at 1009 and
        # 5003, primes: inside the first block of box/box and the plates
        # and past it, and off every block boundary of the mixed volumes
        volumes = kinematic._translation_volumes(*SPLIT_PAIRS[pair])
        q = np.ascontiguousarray(haar_quaternions(np.random.default_rng(200),
                                                  2 * kinematic.WEIGHT_BLOCK + 96).T)
        whole = _scored(volumes, q)
        split = np.empty_like(whole)
        for lo, hi in [(0, 1009), (1009, 5003), (5003, q.shape[1])]:
            volumes(q[:, lo:hi], split[lo:hi])
        assert split.tobytes() == whole.tobytes()


class TestWorkspace:
    """Warm estimates work in each thread's resident workspace."""

    @pytest.mark.parametrize("pair, N", [pytest.param(pair, N, id=pair)
                                         for pair, (_, _, N) in PINNED_PAIRS.items()]
                             + [pytest.param("box_box", 1 << 20, id="box_box-past-a-chunk")]
                             + [pytest.param(pair, 40000, id=pair) for pair in WORKSPACE_HULLS]
                             + [pytest.param(pair, N, id=f"{pair}-{N}") for pair in WORKSPACE_MIXED
                                for N in (40000, 1 << 20)])
    def test_warm_estimate_allocates_at_most_512_kib(self, pair, N):
        # before the workspace, a warm estimate's temporaries peaked at
        # 1.5-2.3 MiB: the whole-chunk buffer, the tables, box/box's forms
        # and the simplex shadows' (pair, plane, sample) arrays. From
        # N = 2^19 on a replicate's block holds MC_CHUNK points, and box/box's
        # forms must fit beside it: in 5 MC_CHUNK floats they did not, and a
        # warm estimate at N = 2^20 peaked at 1,161 KiB. The facet sum of two
        # vertex hulls peaked at 8,000 KiB (simplex/simplex) and 5,520 KiB
        # (pentagon/simplex), and the shadows of a hull against a box or a
        # ball at 2,508-3,955 KiB
        K, L = {**PINNED_PAIRS, **WORKSPACE_HULLS, **WORKSPACE_MIXED}[pair][:2]
        estimator = mc_poincare if pair == "poincare" else mc_principal_kinematic
        estimator(K, L, N=N, seed=1)
        tracemalloc.start()
        try:
            estimator(K, L, N=N, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 512 * 1024, peak

    @pytest.mark.parametrize("pair", ["box_box", "poincare", *WORKSPACE_HULLS, *WORKSPACE_MIXED])
    def test_warm_peak_does_not_grow_with_n(self, pair):
        # the rotation weights write into the workspace: when each allocated
        # its output, a block of MC_CHUNK points from N = 2^19 on cost
        # 256 KiB, and warm peaks at 2^20 read 261-372 KiB against
        # 44-135 KiB at 40,000
        K, L = {**PINNED_PAIRS, **WORKSPACE_HULLS, **WORKSPACE_MIXED}[pair][:2]
        estimator = mc_poincare if pair == "poincare" else mc_principal_kinematic
        peaks = []
        for N in (40000, 1 << 20):
            estimator(K, L, N=N, seed=1)
            tracemalloc.start()
            try:
                estimator(K, L, N=N, seed=2)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 16 * 1024, peaks

    @pytest.mark.parametrize("pair", list(PINNED_PAIRS))
    def test_warm_estimate_at_two_threads_allocates_at_most_512_kib(self, pair):
        # the threads that split the replicates are kept with their
        # workspaces: a fresh pair of them took 2.5-2.7 MiB per estimate
        K, L, N = PINNED_PAIRS[pair]
        estimator = mc_poincare if pair == "poincare" else mc_principal_kinematic
        estimator(K, L, N=N, seed=1, threads=2)
        tracemalloc.start()
        try:
            rep = estimator(K, L, N=N, seed=2, threads=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 512 * 1024, peak
        for threads in (1, 4):
            other = estimator(K, L, N=N, seed=2, threads=threads)
            assert (other.estimate.hex(), other.stderr.hex()) == (rep.estimate.hex(),
                                                                  rep.stderr.hex())

    def test_frames_free_what_they_took(self):
        # every estimate leaves the workspace as it found it, its floats
        # allocated once; the threads that run replicates read the calling
        # thread's section coordinates
        K, L, N = PINNED_PAIRS["ball_box"]
        one = mc_principal_kinematic(K, L, N=N // 8, seed=3)
        floats = kinematic._WORK.floats
        assert kinematic._WORK.top == 0 and floats is not None
        for threads in (2, 4):
            rep = mc_principal_kinematic(K, L, N=N // 8, seed=3, threads=threads)
            assert (rep.estimate, rep.stderr) == (one.estimate, one.stderr)
        mc_principal_kinematic(*PINNED_PAIRS["box_simplex"][:2], N=512, seed=3)
        assert kinematic._WORK.top == 0 and kinematic._WORK.floats is floats

    def test_take_past_the_end_makes_a_new_array(self):
        work = kinematic._Workspace()
        with work as take:
            # arrays start on 64-byte steps: 5 flags take 8 floats
            flags = take(5, dtype=bool)
            assert flags.dtype == bool and np.shares_memory(flags, work.floats)
            inside = take(kinematic.WORKSPACE_FLOATS - 8)
            assert np.shares_memory(inside, work.floats)
            assert not np.shares_memory(take(1), work.floats)
        assert work.top == 0
        assert work.floats.ctypes.data % 64 == 0
