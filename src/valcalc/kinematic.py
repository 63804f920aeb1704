"""Kinematic tensors and Monte Carlo checks over the motion group of H.

The ten-element bases are graded by degree, so the pairing Gram matrix is
anti-diagonal in degree: chi pairs with vol, vol1 with vol3, and the six
degree-2 projection valuations pair among themselves with density
(1 + (u.v)^2)/4.  Each nonzero Gram entry is a single power of pi, so
Gauss-Jordan elimination with monomial pivots in Q[pi, 1/pi] inverts it
exactly and yields the tensor of the principal kinematic formula; a Monte
Carlo estimator over random rotations and translations provides an
independent numeric check of the normalization (probability Haar measure
on the rotations, Lebesgue on the translations).
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from itertools import combinations

import numpy as np

from .bodies import Ball, Box, PlanarPolygon, _row_norms, evaluate_many, intersects_batch
from .linalg import invert_scalar_matrix
from .scalars import Scalar, ZERO
from .su2 import icosahedron_directions, su2_basis, tasaki_density
from .tolerances import (
    CONTACT_TOL,
    MC_DEGENERATE_PLANE_RATE,
    MC_INDETERMINATE_RATE,
    PLATE_COND_LIMIT,
    ZERO_NORM_TOL,
    ZONOTOPE_TOL,
)
from .valuation import pairing

MC_CHUNK = 1 << 15
# samples per block of the box/box test, whose temporaries come to about a
# hundred floats per sample
BOX_BOX_BLOCK = 1 << 12

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


def gram_matrix(kind: str = "icosahedron"):
    """Labels and the exact 10x10 pairing Gram matrix of the basis."""
    basis = su2_basis(kind)
    labels = [label for label, _ in basis]
    # the icosahedron's direction pairs carry algebraic (u.v)^2, so its Z_u
    # have float coefficients and its projection-valuation block takes the
    # closed-form density; every other entry pairs the basis reps
    dirs = icosahedron_directions() if kind == "icosahedron" else None
    n = len(basis)
    G = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if BASIS_DEGREES[i] + BASIS_DEGREES[j] != 4:
                continue
            if dirs and 2 <= i < 8 and 2 <= j < 8:
                val = tasaki_density(dirs[i - 2], dirs[j - 2])
            else:
                val = pairing(basis[i][1], basis[j][1])
            G[i][j] = G[j][i] = val
    return labels, G


_TENSOR_CACHE = {}


def kinematic_tensor(basis="icosahedron") -> KinematicTensor:
    """Exact inverse of the pairing Gram matrix, by Gauss-Jordan elimination
    with monomial pivots in Q[pi, 1/pi]; raises ValueError on a Gram matrix
    that needs any other pivot."""
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
    values = tuple(evaluate_many([rep for _, rep in basis], K))
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


# left multiplication by q0 + q1 i + q2 j + q3 k: entry (r, c) of its matrix
# is _LEFT_SIGN[r, c] * q[_LEFT_INDEX[r, c]]
_LEFT_INDEX = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
_LEFT_SIGN = np.array([[1.0, -1.0, -1.0, -1.0], [1.0, 1.0, -1.0, 1.0],
                       [1.0, 1.0, 1.0, -1.0], [1.0, -1.0, 1.0, 1.0]])


def rotation_matrix(q) -> np.ndarray:
    """Left multiplication by the unit quaternion q as a 4x4 float matrix."""
    return np.array([float(x) for x in q])[_LEFT_INDEX] * _LEFT_SIGN


def _haar_rotations(rng, size):
    """Left multiplications by ``size`` unit quaternions uniform on S^3."""
    qs = rng.standard_normal((size, 4))
    qs /= _row_norms(qs)[:, None]
    Rs = qs[:, _LEFT_INDEX]
    Rs *= _LEFT_SIGN
    return Rs


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


def _ball_box_hits(y, box, radius):
    """Whether ball centers at box-frame coordinates y (B, 4) reach the box."""
    clipped = np.clip(y, -box.half_extents, box.half_extents)
    return _row_norms(y - clipped) <= radius + CONTACT_TOL


# the pairs (a, b), a < b, of four indices (box generators or coordinates);
# for each index the three pairs that hold it, for each pair the two indices
# outside it
_PAIRS = tuple(combinations(range(4), 2))
_FIRST, _SECOND = (np.array(side) for side in zip(*_PAIRS))
_HOLDING = np.array([[p for p, pair in enumerate(_PAIRS) if a in pair] for a in range(4)])
_OUTSIDE = np.array([[c for c in range(4) if c not in pair] for pair in _PAIRS])


def _hits_box_box(K, L, Rs, ts):
    """Whether K meets R L + t, for each sample rotation R and translation t."""
    return np.concatenate([_hits_box_box_block(K, L, Rs[s:s + BOX_BOX_BLOCK],
                                               ts[s:s + BOX_BOX_BLOCK])
                           for s in range(0, len(Rs), BOX_BOX_BLOCK)])


def _hits_box_box_block(K, L, Rs, ts):
    """The box/box hit test on one block of samples.

    The Minkowski difference of two boxes is a zonotope on their 8
    generators. The origin lies inside iff no facet normal separates, and
    each of the 56 facet normals annihilates three generators. In K's frame
    K's generators are h_i e_i, so each normal is a closed form: e_l (three
    of K's), a 2-D perpendicular to an L generator (two of K's), a 3-D cross
    product of two L generators (one of K's) or an L axis (three of L's).
    These are the separating axes of Gottschalk, Lin and Manocha's OBBTree,
    taken to R^4. Each normal n is tested with its scale: it is skipped
    when w |n| <= ZERO_NORM_TOL, w the half-extent product that makes it the
    generalized cross product of its three generators, and otherwise needs
    |n.d| <= sum_g |n.g| + ZONOTOPE_TOL |n|.
    """
    B = len(Rs)
    hK, hL = K.half_extents, L.half_extents
    # G[c, a]: coordinate c of L's generator a in K's frame, and D[c]:
    # coordinate c of the offset of L's center from K's, one (B,) row each
    G = (np.kron(K.rotation.T, (L.rotation * hL).T) @ Rs.reshape(B, 16).T).reshape(4, 4, B)
    D = K.rotation.T @ (Rs @ L.center + ts - K.center).T
    absG = np.abs(G)
    vol_K = np.prod(hK)
    # e_l
    inside = _unseparated(np.abs(D), hK[:, None] + absG.sum(axis=1), 1.0, (vol_K / hK)[:, None])
    # G[l, a] e_k - G[k, a] e_l; its products with L's generators are the
    # 2x2 minors of rows k, l of G
    minors = {}
    for k, l in _PAIRS:
        Gk, Gl = G[k], G[l]
        m = minors[k, l] = Gk[_FIRST] * Gl[_SECOND] - Gl[_FIRST] * Gk[_SECOND]
        extent = hK[k] * absG[l] + hK[l] * absG[k] + np.abs(m)[_HOLDING].sum(axis=1)
        inside &= _unseparated(np.abs(Gl * D[k] - Gk * D[l]), extent,
                               np.sqrt(Gk * Gk + Gl * Gl), vol_K / (hK[k] * hK[l]))
    # the cross products, on the coordinates other than i, of L's generator pairs
    for i in range(4):
        c1, c2, c3 = (c for c in range(4) if c != i)
        n1, n2, n3 = minors[c2, c3], -minors[c1, c3], minors[c1, c2]
        proj = np.abs(n1 * D[c1] + n2 * D[c2] + n3 * D[c3])
        others = (n1[:, None] * G[c1][_OUTSIDE] + n2[:, None] * G[c2][_OUTSIDE]
                  + n3[:, None] * G[c3][_OUTSIDE])
        extent = (hK[c1] * np.abs(n1) + hK[c2] * np.abs(n2) + hK[c3] * np.abs(n3)
                  + np.abs(others).sum(axis=1))
        inside &= _unseparated(proj, extent, np.sqrt(n1 * n1 + n2 * n2 + n3 * n3), hK[i])
    # L's axis G[:, d], orthogonal to L's other three generators
    square = (G * G).sum(axis=0)
    inside &= _unseparated(np.abs((G * D[:, None]).sum(axis=0)),
                           (absG * hK[:, None, None]).sum(axis=0) + square, np.sqrt(square),
                           (np.prod(hL) / (hL * hL))[:, None])
    return inside


def _unseparated(proj, extent, length, weight):
    """Samples that no normal of a family separates, given one normal n per
    row: |n.d|, sum_g |n.g|, |n| and the weight w."""
    return np.all((proj <= extent + ZONOTOPE_TOL * length)
                  | (weight * length <= ZERO_NORM_TOL), axis=0)


def _score_principal(K, L, Rs, ts):
    """Hit indicators for K against the rotated, translated copies of L."""
    if isinstance(K, Ball) and isinstance(L, Ball):
        d = K.center - (Rs @ L.center + ts)
        return _row_norms(d) <= K.radius + L.radius, 0
    if isinstance(K, Ball) and isinstance(L, Box):
        y = np.einsum("bij,bi->bj", Rs, K.center - (Rs @ L.center + ts)) @ L.rotation
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
    Rs = _haar_rotations(rng, size)
    # hi - lo and lo + u (hi - lo) in place: with fewer temporaries beside
    # Rs, a chunk's arrays fit in the heap the allocator keeps between
    # chunks instead of being returned to the system and faulted in again
    lo, span = _translation_box(K, L, Rs)
    span -= lo
    ts = rng.uniform(size=(size, 4))
    ts *= span
    ts += lo
    return Rs, ts, np.prod(span, axis=1)


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


def _plates_transversal(F1t, F2):
    """Which plate pairs are far enough from parallel to solve for their
    crossing, for the orthonormal 4x2 frame F1t and a (B, 4, 2) batch of
    orthonormal frames F2: cond [F1t | -F2] <= PLATE_COND_LIMIT.

    For orthonormal frames that condition number is cot(theta/2) =
    (1 + cos theta) / sin theta, theta the smallest principal angle between
    the planes (Bjorck and Golub 1973). Wherever it comes near the limit,
    cos theta rounds to 1, so the test is sin theta >= 2 / PLATE_COND_LIMIT.
    sin theta is the smaller singular value of the residual
    P = F2 - F1t (F1t^T F2). It is taken from the trace of P^T P and its
    Cauchy-Binet determinant, the sum of the squared 2x2 minors of P, which
    keeps the accuracy of an SVD near parallel planes.
    """
    P = F2 - F1t @ (F1t.T @ F2)
    minors = P[:, _FIRST, 0] * P[:, _SECOND, 1] - P[:, _SECOND, 0] * P[:, _FIRST, 1]
    det = (minors * minors).sum(axis=1)
    trace = (P * P).sum(axis=(1, 2))
    # sin^2 theta, the smaller root of x^2 - trace x + det, in the form free
    # of cancellation
    root = trace + np.sqrt(np.maximum(trace * trace - 4.0 * det, 0.0))
    sin2 = np.divide(2.0 * det, root, out=np.zeros_like(det), where=root > 0.0)
    return 2.0 <= PLATE_COND_LIMIT * np.sqrt(sin2)


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
        F2 = Rs @ F2t
        rhsv = Rs @ b2 + ts - b1
        ok = _plates_transversal(F1t, F2)
        bad = int(np.sum(~ok))
        w = np.zeros(size)
        if np.any(ok):
            F2 = F2[ok]
            mats = np.concatenate([np.broadcast_to(F1t, F2.shape), -F2], axis=2)
            sols = np.linalg.solve(mats, rhsv[ok][..., None])[..., 0]
            hit = _inside_polygon(v1, sols[:, :2]) & _inside_polygon(v2, sols[:, 2:])
            w[ok] = vol[ok] * hit
        return float(np.sum(w)), float(np.sum(w * w)), bad

    sum_w, sum_w2, bad = _run_chunks(worker, N, threads)
    _check_rate(bad, N, MC_DEGENERATE_PLANE_RATE, "in degenerate plane pairs", M1, M2, seed)
    return _finalize(sum_w, sum_w2, N, seed, rhs, bad)
