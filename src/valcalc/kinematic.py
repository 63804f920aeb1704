"""Kinematic tensors and Monte Carlo checks over the motion group of H.

The ten-element bases are graded by degree, so the pairing Gram matrix is
anti-diagonal in degree: chi pairs with vol, vol1 with vol3, and the six
degree-2 projection valuations pair among themselves with density
(1 + (u.v)^2)/4.  Inverting the Gram matrix over Q(pi) yields the tensor
of the principal kinematic formula; a Monte Carlo estimator over random
rotations and translations provides an independent numeric check of the
normalization (probability Haar measure on the rotations, Lebesgue on the
translations).
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from itertools import combinations

import numpy as np

from .bodies import Ball, Box, PlanarPolygon, evaluate, intersects_batch
from .linalg import invert_scalar_matrix
from .scalars import Scalar, ZERO
from .su2 import alesker_directions, gram_zz, icosahedron_directions, su2_basis, tasaki_density
from .tolerances import (
    CONTACT_TOL,
    MC_DEGENERATE_PLANE_RATE,
    MC_INDETERMINATE_RATE,
    UNIT_QUATERNION_TOL,
    ZERO_NORM_TOL,
    ZONOTOPE_TOL,
)
from .valuation import pairing

MC_CHUNK = 1 << 15

BASIS_DEGREES = (0, 1, 2, 2, 2, 2, 2, 2, 3, 4)


@dataclass(frozen=True)
class KinematicTensor:
    labels: tuple
    matrix: tuple

    def entry(self, a: str, b: str) -> Scalar:
        i, j = self.labels.index(a), self.labels.index(b)
        return self.matrix[i][j]


@dataclass(frozen=True)
class EvaluationVector:
    body: object
    labels: tuple
    values: tuple


@dataclass(frozen=True)
class MCReport:
    estimate: float
    stderr: float
    samples: int
    seed: int
    rhs: float
    z_score: float
    indeterminate: int = 0

    def to_dict(self):
        return {
            "estimate": self.estimate,
            "stderr": self.stderr,
            "samples": self.samples,
            "seed": self.seed,
            "rhs": self.rhs,
            "z_score": self.z_score,
            "indeterminate": self.indeterminate,
        }


def _directions(kind: str):
    if kind == "icosahedron":
        return icosahedron_directions()
    if kind == "alesker":
        return alesker_directions()
    raise ValueError(f"unknown basis kind {kind!r}")


def gram_matrix(kind: str = "icosahedron"):
    """Labels and the exact 10x10 pairing Gram matrix of the basis."""
    basis = su2_basis(kind)
    dirs = _directions(kind)
    labels = [label for label, _ in basis]
    n = len(basis)
    G = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if BASIS_DEGREES[i] + BASIS_DEGREES[j] != 4:
                continue
            zi, zj = 2 <= i < 8, 2 <= j < 8
            if zi and zj:
                u, v = dirs[i - 2], dirs[j - 2]
                # the projection-valuation block; the direction pairs of the
                # icosahedron basis carry algebraic (u.v)^2, the rational
                # directions go through the full symbolic pairing
                val = tasaki_density(u, v) if kind == "icosahedron" else gram_zz(u, v)
            else:
                val = pairing(basis[i][1], basis[j][1])
            G[i][j] = G[j][i] = val
    return labels, G


_TENSOR_CACHE = {}


def kinematic_tensor(basis="icosahedron") -> KinematicTensor:
    """Exact inverse of the pairing Gram matrix over Q(pi)."""
    if isinstance(basis, str):
        if basis not in _TENSOR_CACHE:
            labels, G = gram_matrix(basis)
            inv = invert_scalar_matrix(G)
            _TENSOR_CACHE[basis] = KinematicTensor(
                tuple(labels), tuple(tuple(row) for row in inv))
        return _TENSOR_CACHE[basis]
    labels = [label for label, _ in basis]
    reps = [rep for _, rep in basis]
    if not all(rep.is_exact() for rep in reps):
        raise ValueError("kinematic tensor requires exact representatives")
    G = [[pairing(a, b) for b in reps] for a in reps]
    inv = invert_scalar_matrix(G)
    return KinematicTensor(tuple(labels), tuple(tuple(row) for row in inv))


# evaluation vectors by (basis, body type and field bytes), oldest evicted first
VECTOR_CACHE_SIZE = 256
_VECTOR_CACHE = {}


def evaluation_vector(K, kind: str = "icosahedron") -> EvaluationVector:
    key = (kind, type(K).__name__,
           *(np.asarray(getattr(K, f.name)).tobytes() for f in fields(K)))
    if key in _VECTOR_CACHE:
        return _VECTOR_CACHE[key]
    basis = su2_basis(kind)
    values = tuple(evaluate(rep, K) for _, rep in basis)
    vec = EvaluationVector(K, tuple(label for label, _ in basis), values)
    if len(_VECTOR_CACHE) >= VECTOR_CACHE_SIZE:
        del _VECTOR_CACHE[next(iter(_VECTOR_CACHE))]
    _VECTOR_CACHE[key] = vec
    return vec


def rhs_kinematic(K, L, kind: str = "icosahedron") -> float:
    """Exact-tensor pairing of the evaluation vectors: integral of chi(K . gL)."""
    T = kinematic_tensor(kind)
    vK = evaluation_vector(K, kind)
    vL = vK if L is K else evaluation_vector(L, kind)
    total = 0.0
    for i, a in enumerate(vK.values):
        if a == 0.0:
            continue
        for j, b in enumerate(vL.values):
            c = T.matrix[i][j]
            if b != 0.0 and not c.is_zero():
                total += float(c) * a * b
    return total


def rotation_matrix(q) -> np.ndarray:
    """Left multiplication by the unit quaternion q as a 4x4 float matrix."""
    q0, q1, q2, q3 = (float(x) for x in q)
    return np.array([
        [q0, -q1, -q2, -q3],
        [q1, q0, -q3, q2],
        [q2, q3, q0, -q1],
        [q3, -q2, q1, q0],
    ])


@dataclass(frozen=True, eq=False)
class RigidMotion:
    q: np.ndarray
    t: np.ndarray

    def __init__(self, q, t):
        q = np.asarray(q, dtype=float)
        t = np.asarray(t, dtype=float)
        if q.shape != (4,) or t.shape != (4,):
            raise ValueError("rigid motion needs a quaternion and a translation in R^4")
        if abs(q @ q - 1.0) > UNIT_QUATERNION_TOL:
            raise ValueError("rotation part must be a unit quaternion")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "t", t)

    def matrix(self) -> np.ndarray:
        return rotation_matrix(self.q)

    def apply(self, K):
        return K.moved(self.matrix(), self.t)


def haar_sample(rng, t_low=None, t_high=None) -> RigidMotion:
    """Rotation uniform on the unit quaternions; translation uniform in a box.

    Without translation bounds the translation part is zero; the kinematic
    estimator draws translations itself from per-sample bounding boxes.
    """
    while True:
        q = rng.standard_normal(4)
        norm = math.sqrt(q @ q)
        if norm > ZERO_NORM_TOL:
            break
    q = q / norm
    if t_low is None:
        t = np.zeros(4)
    else:
        t = rng.uniform(np.asarray(t_low, dtype=float), np.asarray(t_high, dtype=float))
    return RigidMotion(q, t)


def _batch_rotations(qs: np.ndarray) -> np.ndarray:
    q0, q1, q2, q3 = qs[:, 0], qs[:, 1], qs[:, 2], qs[:, 3]
    R = np.empty((len(qs), 4, 4))
    R[:, 0, 0], R[:, 0, 1], R[:, 0, 2], R[:, 0, 3] = q0, -q1, -q2, -q3
    R[:, 1, 0], R[:, 1, 1], R[:, 1, 2], R[:, 1, 3] = q1, q0, -q3, q2
    R[:, 2, 0], R[:, 2, 1], R[:, 2, 2], R[:, 2, 3] = q2, q3, q0, -q1
    R[:, 3, 0], R[:, 3, 1], R[:, 3, 2], R[:, 3, 3] = q3, -q2, q1, q0
    return R


def _translation_box(K, L, Rs: np.ndarray):
    """Axis bounds of {x - q y : x in K, y in L} for each sample rotation."""
    B = len(Rs)
    lo = np.empty((B, 4))
    hi = np.empty((B, 4))
    for i in range(4):
        e = np.zeros(4)
        e[i] = 1.0
        rows = Rs[:, i, :]
        hi[:, i] = K.support(e) + L.support(-rows)
        lo[:, i] = -(K.support(-e) + L.support(rows))
    return lo, hi


def _det3(m: np.ndarray) -> np.ndarray:
    return (m[..., 0, 0] * (m[..., 1, 1] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 1])
            - m[..., 0, 1] * (m[..., 1, 0] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 0])
            + m[..., 0, 2] * (m[..., 1, 0] * m[..., 2, 1] - m[..., 1, 1] * m[..., 2, 0]))


def _orthogonal_complement(rows: np.ndarray) -> np.ndarray:
    """Vector orthogonal to three row vectors in R^4, batched as (B, 3, 4)."""
    out = np.empty(rows.shape[:-2] + (4,))
    cols = np.arange(4)
    for l in range(4):
        keep = cols[cols != l]
        out[..., l] = (-1.0) ** l * _det3(rows[..., keep])
    return out


def _ball_box_hits(y, box, radius):
    """Whether ball centers at box-frame coordinates y (B, 4) reach the box."""
    clipped = np.clip(y, -box.half_extents, box.half_extents)
    return np.linalg.norm(y - clipped, axis=1) <= radius + CONTACT_TOL


def _hits_box_box(K, L, Rs, ts):
    # Minkowski difference of two boxes is a zonotope on 8 generators; the
    # origin lies inside iff no facet normal separates, and every facet
    # normal annihilates some independent triple of generators
    B = len(Rs)
    gen_K = (K.rotation * K.half_extents).T                  # (4, 4) static
    gen_L = np.swapaxes(Rs @ (L.rotation * L.half_extents), 1, 2)  # (B, 4, 4)
    d = Rs @ L.center + ts - K.center                        # (B, 4)
    gens = np.concatenate([np.broadcast_to(gen_K, (B, 4, 4)), gen_L], axis=1)
    inside = np.ones(B, dtype=bool)
    for tri in combinations(range(8), 3):
        nu = _orthogonal_complement(gens[:, tri, :])
        scale = np.linalg.norm(nu, axis=1)
        ok = scale > ZERO_NORM_TOL
        proj = np.abs(np.einsum("bi,bi->b", nu, d))
        extent = np.abs(np.einsum("bi,bgi->bg", nu, gens)).sum(axis=1)
        inside &= ~ok | (proj <= extent + ZONOTOPE_TOL * scale)
    return inside


def _score_principal(K, L, Rs, ts):
    """Hit indicators for K against the rotated, translated copies of L."""
    if isinstance(K, Ball) and isinstance(L, Ball):
        d = K.center - (Rs @ L.center + ts)
        return np.linalg.norm(d, axis=1) <= K.radius + L.radius, 0
    if isinstance(K, Ball) and isinstance(L, Box):
        y = np.einsum("bij,bi->bj", Rs @ L.rotation, K.center - (Rs @ L.center + ts))
        return _ball_box_hits(y, L, K.radius), 0
    if isinstance(K, Box) and isinstance(L, Ball):
        y = (Rs @ L.center + ts - K.center) @ K.rotation
        return _ball_box_hits(y, K, L.radius), 0
    if isinstance(K, Box) and isinstance(L, Box):
        return _hits_box_box(K, L, Rs, ts), 0
    sep = intersects_batch(K, L, Rs, ts)
    return sep.hits, int(np.count_nonzero(sep.undecided))


def _mc_chunks(N):
    sizes = []
    done = 0
    while done < N:
        size = min(MC_CHUNK, N - done)
        sizes.append(size)
        done += size
    return sizes


def _run_chunks(worker, N, threads):
    sizes = _mc_chunks(N)
    workers = min(threads, len(sizes), os.cpu_count() or 1)
    if workers <= 1:
        results = [worker(idx, size) for idx, size in enumerate(sizes)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(worker, range(len(sizes)), sizes))
    sum_w = math.fsum(r[0] for r in results)
    sum_w2 = math.fsum(r[1] for r in results)
    bad = sum(r[2] for r in results)
    return sum_w, sum_w2, bad


def _finalize(sum_w, sum_w2, N, seed, rhs, bad):
    mean = sum_w / N
    var = max(sum_w2 - N * mean * mean, 0.0) / max(N - 1, 1)
    stderr = math.sqrt(var / N)
    if stderr > 0:
        z = (mean - rhs) / stderr
    else:
        z = 0.0 if mean == rhs else math.inf
    return MCReport(mean, stderr, N, seed, rhs, z, bad)


def _sample_motions(K, L, seed, idx, size):
    """Rotations, translations and translation-box volumes of chunk idx."""
    rng = np.random.default_rng([seed, idx])
    qs = rng.standard_normal((size, 4))
    qs /= np.linalg.norm(qs, axis=1, keepdims=True)
    Rs = _batch_rotations(qs)
    lo, hi = _translation_box(K, L, Rs)
    vol = np.prod(hi - lo, axis=1)
    ts = lo + rng.uniform(size=(size, 4)) * (hi - lo)
    return Rs, ts, vol


def _check_mc_args(N, threads, **bodies):
    for name, value in (("N", N), ("threads", threads)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
            raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    for name, body in bodies.items():
        if getattr(body, "dim", None) != 4:
            raise ValueError(f"{name} must be a body in R^4")


def _check_rate(bad, N, limit, what, K, L, seed):
    if bad > limit * N:
        raise RuntimeError(
            f"{bad} of {N} samples {what} for {type(K).__name__} against "
            f"{type(L).__name__} at seed {seed}: rate {bad / N:.3g} exceeds {limit:g}")


def mc_principal_kinematic(K, L, N: int = 10**6, seed: int = 0,
                           threads: int = 1, kind: str = "icosahedron") -> MCReport:
    """Monte Carlo estimate of the motion integral of chi(K . gL).

    Per sample: a Haar rotation, a translation uniform in the bounding box
    of the support differences, scored by box volume times the intersection
    indicator.  Deterministic for fixed (seed, N) regardless of threads.
    """
    _check_mc_args(N, threads, K=K, L=L)
    rhs = rhs_kinematic(K, L, kind)

    def worker(idx, size):
        Rs, ts, vol = _sample_motions(K, L, seed, idx, size)
        hits, bad = _score_principal(K, L, Rs, ts)
        w = vol * hits
        return float(np.sum(w)), float(np.sum(w * w)), bad

    sum_w, sum_w2, bad = _run_chunks(worker, N, threads)
    _check_rate(bad, N, MC_INDETERMINATE_RATE, "undecided", K, L, seed)
    return _finalize(sum_w, sum_w2, N, seed, rhs, bad)


def plane_class(frame) -> np.ndarray:
    """Imaginary direction u with frame[1] = frame[0] . u (right multiplication)."""
    e, f = (np.asarray(row, dtype=float) for row in frame)
    e0, e1, e2, e3 = e
    f0, f1, f2, f3 = f
    # imaginary part of conj(e) f
    return np.array([
        e0 * f1 - e1 * f0 - e2 * f3 + e3 * f2,
        e0 * f2 + e1 * f3 - e2 * f0 - e3 * f1,
        e0 * f3 - e1 * f2 + e2 * f1 - e3 * f0,
    ])


def _inside_polygon(v2d: np.ndarray, pts: np.ndarray) -> np.ndarray:
    edges = np.roll(v2d, -1, axis=0) - v2d
    inside = np.ones(len(pts), dtype=bool)
    for (vx, vy), (ex, ey) in zip(v2d, edges):
        cross = ex * (pts[:, 1] - vy) - ey * (pts[:, 0] - vx)
        inside &= cross >= -CONTACT_TOL
    return inside


def mc_poincare(M1: PlanarPolygon, M2: PlanarPolygon, N: int = 10**6,
                seed: int = 0, threads: int = 1) -> MCReport:
    """Monte Carlo for the expected number of intersection points of two
    moving polygons, against the plane-class density (1 + (u.v)^2)/4."""
    _check_mc_args(N, threads, M1=M1, M2=M2)
    if not isinstance(M1, PlanarPolygon) or not isinstance(M2, PlanarPolygon):
        raise ValueError("the intersection count estimator needs planar polygons")
    u1, u2 = plane_class(M1.frame), plane_class(M2.frame)
    rhs = 0.25 * (1.0 + float(u1 @ u2) ** 2) * M1.area * M2.area
    F1t = np.asarray(M1.frame, dtype=float).T
    F2t = np.asarray(M2.frame, dtype=float).T
    b1 = np.asarray(M1.base, dtype=float)
    b2 = np.asarray(M2.base, dtype=float)
    v1 = np.asarray(M1.vertices2d, dtype=float)
    v2 = np.asarray(M2.vertices2d, dtype=float)

    def worker(idx, size):
        Rs, ts, vol = _sample_motions(M1, M2, seed, idx, size)
        mats = np.concatenate([np.broadcast_to(F1t, (size, 4, 2)), -(Rs @ F2t)], axis=2)
        rhsv = Rs @ b2 + ts - b1
        cond = np.linalg.cond(mats)
        ok = np.isfinite(cond) & (cond <= 1e12)
        bad = int(np.sum(~ok))
        w = np.zeros(size)
        if np.any(ok):
            sols = np.linalg.solve(mats[ok], rhsv[ok][..., None])[..., 0]
            hit = _inside_polygon(v1, sols[:, :2]) & _inside_polygon(v2, sols[:, 2:])
            w[ok] = vol[ok] * hit
        return float(np.sum(w)), float(np.sum(w * w)), bad

    sum_w, sum_w2, bad = _run_chunks(worker, N, threads)
    _check_rate(bad, N, MC_DEGENERATE_PLANE_RATE, "in degenerate plane pairs", M1, M2, seed)
    return _finalize(sum_w, sum_w2, N, seed, rhs, bad)
