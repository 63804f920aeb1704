"""Kinematic tensors and Monte Carlo checks over the motion group of H.

The ten-element bases are graded by degree, so the pairing Gram matrix is
anti-diagonal in degree: chi pairs with vol, vol1 with vol3, and the six
degree-2 projection valuations pair among themselves with density
(1 + (u.v)^2)/4.  Each nonzero Gram entry is a single power of pi, so
Gauss-Jordan elimination with monomial pivots in Q[pi, 1/pi] inverts it
exactly and yields the tensor of the principal kinematic formula; a Monte
Carlo estimator over random rigid motions provides an independent numeric
check of the normalization (probability Haar measure on the rotations,
Lebesgue on the translations).  Where the translation integral for a fixed
rotation has a closed form (two boxes: a zonotope volume; a box and a
simplex, segment, point or polygon: vol(K - R L) from the shadows of R L on
the coordinate subspaces of the box's frame; two plates: a determinant) the
estimator draws only rotations and integrates the translation exactly.  A
rotation is left multiplication L_q by a unit quaternion q, so these weights
are scored from q itself: the box/box weight sums |16 linear and 18
quadratic forms| in q, a polytope's vertices in the box's frame are a fixed
matrix times q, and the plates' determinant is a quadratic form q^T A q in
it.  A ball is unchanged by rotation, and the motion measure by g -> g^-1,
so a ball against a ball or a box draws only translations: the integral is
the volume of the points within the ball's radius of the other body; a
polytope against a box is scored as that box against the polytope, for
the same reason.  The remaining pairs (a ball against a simplex or a
polygon, and two polytopes neither of which is a box) have no closed form
here: they draw rotations and translations and score the batched GJK's hit
indicator.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields
from functools import lru_cache
from itertools import combinations

import numpy as np

from .bodies import (
    Ball,
    Box,
    PlanarPolygon,
    _VertexHull,
    _row_max,
    _row_min,
    _row_norms,
    evaluate_many,
    intersects_batch,
)
from .linalg import invert_scalar_matrix
from .scalars import Scalar, ZERO
from .su2 import icosahedron_directions, su2_basis, tasaki_density
from .tolerances import MC_INDETERMINATE_RATE
from .valuation import pairing

MC_CHUNK = 1 << 15
# samples per block of the box/box and box/polytope volumes: box/box's 16
# linear and 18 quadratic forms in q come to about fifty floats per sample,
# and a 4-simplex's shadows to a few hundred
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
        return asdict(self)


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


# evaluation vectors by (basis, body type, field shapes and bytes), oldest evicted first
VECTOR_CACHE_SIZE = 256
_VECTOR_CACHE = {}


def evaluation_vector(K, kind: str = "icosahedron") -> EvaluationVector:
    arrays = (np.asarray(getattr(K, f.name)) for f in fields(K))
    key = (kind, type(K).__name__, *((a.shape, a.tobytes()) for a in arrays))
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


# _UNIT_LEFT[k] is left multiplication by the quaternion unit e_k, so that
# L_q = sum_k q_k _UNIT_LEFT[k]
_UNIT_LEFT = _LEFT_SIGN * (_LEFT_INDEX == np.arange(4)[:, None, None])

# the 2-subsets of four indices in lexicographic order (5 - p the complement
# of p), the 18 pairs (P, T) of them with 0 in P, and the 10 index pairs k <= l
_SUBSETS = np.array(list(combinations(range(4), 2)))
_P, _T = np.divmod(np.arange(18), 6)
_QK, _QL = np.triu_indices(4)
# row l: the three axes other than l, a coordinate 3-space; its first two
# span a coordinate plane (a row of _SUBSETS) and the third is its height
_SPACES = np.array(list(combinations(range(4), 3)))[::-1]
_SPACE_PLANE = np.array([[tuple(p) for p in _SUBSETS].index(tuple(s[:2])) for s in _SPACES])


def _haar_quaternions(rng, size):
    """``size`` unit quaternions uniform on S^3, as (size, 4) rows."""
    qs = rng.standard_normal((size, 4))
    norms = _row_norms(qs)
    for k in range(4):  # a column at a time, as in _count_within_reach
        qs[:, k] /= norms
    return qs


def _haar_rotations(rng, size):
    """Left multiplications by ``size`` unit quaternions uniform on S^3."""
    qs = _haar_quaternions(rng, size)
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
        plus, minus = L.support_pair(Rs[:, i, :])
        hi[:, i] = K.support(e) + minus
        lo[:, i] = -(K.support(-e) + plus)
    return lo, hi


def _ball_reach(K, L):
    """(h, r) for a ball against a ball or a box, else None: the motion
    integral is the volume of the points within r of the box [-h, h] in the
    other body's frame (two balls: a point, h = 0, and r their radius sum).
    It is symmetric in each coordinate, so samples draw |y| in [0, h + r]."""
    ball, other = (K, L) if isinstance(K, Ball) else (L, K)
    if isinstance(ball, Ball) and isinstance(other, Ball):
        return np.zeros(4), K.radius + L.radius
    if isinstance(ball, Ball) and isinstance(other, Box):
        return other.half_extents, ball.radius
    return None


def _box_box_volumes(K, L):
    """The function taking unit quaternions q, the (B, 4) rows of qs, to
    vol(K - L_q L), a block at a time. The volume is 16 sum |det| over the
    4-subsets of the zonotope's 8 half-generators (Shephard 1974): in K's
    frame prod_(P^c) hK prod_T hL |minor(O; P, T)|, |P| = |T| and O =
    K.rotation^T L_q L.rotation. O is orthogonal, so |det O| = 1 and
    |minor(O; P, T)| = |minor(O; P^c, T^c)| (Jacobi): the 70 minors reduce to
    c0, the 16 entries gen @ q (weights W1) and 18 2x2 minors S @ m(q), m(q)
    the 10 products q_k q_l (weights W2). The relative error is at most about
    the rotations' departure from orthonormality, max |R R^T - I|: near 1e-9
    at ORTHONORMAL_TOL, far below any Monte Carlo standard error."""
    hK, hL = K.half_extents, L.half_extents
    gen = np.kron(K.rotation.T, L.rotation.T) @ _UNIT_LEFT.reshape(4, 16).T
    W1 = (np.outer(np.prod(hK) / hK, hL) + np.outer(hK, np.prod(hL) / hL)).ravel()
    O, (i, j), (a, b) = gen.reshape(4, 4, 4), _SUBSETS[_P].T, _SUBSETS[_T].T
    M = np.einsum("mk,ml->mkl", O[i, a], O[j, b]) - np.einsum("mk,ml->mkl", O[i, b], O[j, a])
    S = M[:, _QK, _QL] + (_QK != _QL) * M[:, _QL, _QK]
    pK, pL = np.prod(hK[_SUBSETS], axis=1), np.prod(hL[_SUBSETS], axis=1)
    W2 = pK[5 - _P] * pL[_T] + pK[_P] * pL[5 - _T]
    c0 = np.prod(hK) + np.prod(hL)

    def volumes(qs):
        vol = np.empty(len(qs))
        for s in range(0, len(qs), BOX_BOX_BLOCK):
            q = qs[s:s + BOX_BOX_BLOCK]
            vol[s:s + BOX_BOX_BLOCK] = (np.abs(q @ gen.T) @ W1 + c0
                                        + np.abs((q[:, _QK] * q[:, _QL]) @ S.T) @ W2)
        return 16.0 * vol
    return volumes


@lru_cache(maxsize=None)
def _hull_indices(m):
    """Index arrays for the shadows of m >= 3 points: the pairs (a, b),
    a < b; the pairs ab, bc, ac of each sorted triple (a, b, c); for each
    pair (a, b) and each other point c, the places of "c lies left of
    (a, b)" and of "c lies right of it" among the stacked tests [each
    triple turns left; each turns right] (a sorted triple turns as
    (a, b, c) does unless a < c < b); and the 4-subsets, each with the
    triples omitting its points in turn. Only simplices call it, so m is 3,
    4 or 5 and the cache holds at most three entries."""
    pairs = list(combinations(range(m), 2))
    triples = list(combinations(range(m), 3))
    pair, triple = ({t: i for i, t in enumerate(ts)} for ts in (pairs, triples))
    turns = [[pair[a, b], pair[b, c], pair[a, c]] for a, b, c in triples]
    seen = np.array([[triple[tuple(sorted((a, b, c)))] for c in range(m) if c not in (a, b)]
                     for a, b in pairs])
    flip = np.array([[a < c < b for c in range(m) if c not in (a, b)] for a, b in pairs])
    quads = list(combinations(range(m), 4))
    faces = np.array([[triple[q[:r] + q[r + 1:]] for r in range(4)] for q in quads], dtype=int)
    T = len(triples)
    return (np.array(pairs).T, np.array(turns).T, seen + T * flip, seen + T * ~flip,
            np.array(quads), faces)


def _hull_shadows(X, dim, cycle):
    """Shadows of the convex hull of m points onto the coordinate
    subspaces, the points given as X (m, 4, B), point by coordinate by
    sample, with samples last: the ranges on the 4 axes (4, B), the areas
    on the 6 coordinate planes of _SUBSETS (6, B) and the volumes in the 4
    coordinate 3-spaces of _SPACES (4, B), the list cut off after the
    hull's dimension dim, beyond which they vanish.

    ``cycle`` says the points are a convex polygon's vertices in order: a
    linear map keeps that cycle or flattens it to a segment, so a plane
    shadow is |shoelace| / 2, at a cost linear in m.
    Otherwise the pair {a, b} is a hull edge, counterclockwise (+1) or
    clockwise (-1), when every other point lies strictly on its left or
    its right, and the area is half the sum of sign * (x_a y_b - x_b y_a).
    The orientation of each triple is taken once per plane, as the sum of
    its pairs' cross products. In 3-D, a 4-subset's 6-volume is its
    determinant expanded along the height over those orientations, and the
    hull of 5 points in general position has half the sum of the 5
    tetrahedra's volumes (Radon: its points split 1 + 4 or 2 + 3, and
    either way the tetrahedra cover the hull twice).
    """
    by_point = X.transpose(1, 2, 0)
    shadows = [_row_max(by_point) - _row_min(by_point)]
    if dim < 2:
        return shadows
    x, y = X[:, _SUBSETS[:, 0]], X[:, _SUBSETS[:, 1]]
    if cycle:
        nxt = np.roll(np.arange(len(X)), -1)
        area = (x * y[nxt] - x[nxt] * y).sum(axis=0)
        return shadows + [0.5 * np.abs(area)]
    (a, b), (ab, bc, ac), left, right, quads, faces = _hull_indices(len(X))
    cross = x[a] * y[b] - x[b] * y[a]
    orient = cross[ab] + cross[bc] - cross[ac]
    turns = np.concatenate([orient > 0, orient < 0])
    edge = turns[left].all(axis=1) * cross - turns[right].all(axis=1) * cross
    shadows.append(0.5 * edge.sum(axis=0))
    if dim < 3:
        return shadows
    terms = X[:, _SPACES[:, 2]][quads] * orient[:, _SPACE_PLANE][faces]
    det = terms[:, 0] - terms[:, 1] + terms[:, 2] - terms[:, 3]
    shadows.append(np.abs(det).sum(axis=0) / (12.0 if len(quads) > 1 else 6.0))
    return shadows


def _box_polytope_volumes(K, L):
    """The function taking unit quaternions q, the (B, 4) rows of qs, to
    vol(K - L_q L), a block at a time, for a box K and a vertex hull L (a
    simplex of 1 to 5 vertices or a planar polygon).

    K - L_q L is a polytope plus K's four orthogonal edges, so its volume
    is the sum over the axis sets S of K's frame of prod_S 2 hK times the
    (4 - |S|)-volume of the shadow of L_q L on the other axes (Shephard
    1974): a point, ranges, areas, 3-volumes (``_hull_shadows``) and L's
    own volume. In K's frame L's vertices, less their mean, are a fixed
    (4m x 4) matrix times q; translations change no shadow."""
    verts = L._hull() - L.reference_point()
    m = len(verts)
    cycle = isinstance(L, PlanarPolygon)
    dim = 2 if cycle else m - 1
    # gen[j, i, k]: coordinate i of L_q v_j in K's frame is sum_k gen[j, i, k] q_k
    gen = np.einsum("li,klr,jr->jik", K.rotation, _UNIT_LEFT, verts).reshape(4 * m, 4)
    edges = 2.0 * K.half_extents
    # a shadow's weight is the product of K's edges on the other axes: the
    # 3-space off a range's axis, the plane complementary to a plane, and
    # the axis a 3-space omits
    weights = [np.prod(edges[_SPACES], axis=1), np.prod(edges[_SUBSETS[::-1]], axis=1), edges]
    c0 = np.prod(edges) + L.volume()

    def volumes(qs):
        vol = np.empty(len(qs))
        for s in range(0, len(qs), BOX_BOX_BLOCK):
            X = (gen @ qs[s:s + BOX_BOX_BLOCK].T).reshape(m, 4, -1)
            total = c0
            for w, shadow in zip(weights, _hull_shadows(X, dim, cycle)):
                total = total + w @ shadow
            vol[s:s + BOX_BOX_BLOCK] = total
        return vol
    return volumes


def _translation_volumes(K, L):
    """qs -> vol(K - L_q L), the translation integral of chi(K . (L_q L + t)),
    for two boxes or a box and a vertex hull, else None. The motion measure
    is unchanged by g -> g^-1, so a vertex hull against a box takes the box
    as K, the same function of the same q."""
    if isinstance(K, Box) and isinstance(L, Box):
        return _box_box_volumes(K, L)
    box, hull = (K, L) if isinstance(K, Box) else (L, K)
    if isinstance(box, Box) and isinstance(hull, _VertexHull):
        return _box_polytope_volumes(box, hull)
    return None


def _count_within_reach(y, h, r):
    """The rows of y, uniform in [0, 1)^4, within r of the box [-h, h] once
    column k is scaled by h_k + r, less h_k and clamped at 0 where h_k != 0.
    A column at a time (numpy broadcasts a (4,) vector over (B, 4) rows as B
    loops of 4); each element takes the steps of a row-wise scoring in order."""
    for k, hk in enumerate(h):
        c = y[:, k] * (hk + r)
        if hk:
            c -= hk
            np.maximum(c, 0.0, out=c)
        c *= c
        total = np.add(total, c, out=total) if k else c
    return np.count_nonzero(np.sqrt(total, out=total) <= r)


def _run_chunks(worker, N, threads):
    sizes = [min(MC_CHUNK, N - s) for s in range(0, N, MC_CHUNK)]
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


def mc_principal_kinematic(K, L, N: int = 10**6, seed: int = 0,
                           threads: int = 1, kind: str = "icosahedron") -> MCReport:
    """Monte Carlo estimate of the motion integral of chi(K . gL).

    A ball against a ball or a box draws per sample a point y uniform in a
    fixed box in the other body's frame, scored by box volume times whether
    y lies within the ball's radius of that body. Every other pair draws a Haar
    rotation R = L_q. For two boxes, or a box and a simplex or polygon in
    either order, the translation integral of chi(K . (R L + t)) is
    vol(K - R L), which scores the sample in closed form from q: for two
    boxes a weighted sum of the absolute values of 16 linear and 18
    quadratic forms in q, for a box and a polytope a weighted sum of the
    polytope's shadows (``_box_polytope_volumes``), built once per estimate.
    The rest also draw a translation uniform in the bounding box of the
    support differences, scored by box volume times the GJK's intersection
    indicator. Deterministic for fixed (seed, N) regardless of threads.
    """
    _check_mc_args(N, threads, K=K, L=L)
    rhs = rhs_kinematic(K, L, kind)
    volumes = _translation_volumes(K, L)
    reach = _ball_reach(K, L)

    def worker(idx, size):
        if reach:
            h, r = reach
            # random() draws the bits uniform(size=...) would
            n = _count_within_reach(np.random.default_rng([seed, idx]).random((size, 4)), h, r)
            vol = float(np.prod(2.0 * (h + r)))
            return vol * n, vol * vol * n, 0
        if volumes:
            w, bad = volumes(_haar_quaternions(np.random.default_rng([seed, idx]), size)), 0
        else:
            Rs, ts, vol = _sample_motions(K, L, seed, idx, size)
            sep = intersects_batch(K, L, Rs, ts)
            w, bad = vol * sep.hits, int(np.count_nonzero(sep.undecided))
        return float(np.sum(w)), float(np.sum(w * w)), bad

    sum_w, sum_w2, bad = _run_chunks(worker, N, threads)
    if bad > MC_INDETERMINATE_RATE * N:
        raise RuntimeError(
            f"{bad} of {N} samples undecided for {type(K).__name__} against "
            f"{type(L).__name__} at seed {seed}: rate {bad / N:.3g} exceeds "
            f"{MC_INDETERMINATE_RATE:g}")
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


def _plate_form(F1t, F2t):
    """The symmetric 4x4 matrix A with det [F1t | L_q F2t] = q^T A q for
    every quaternion q, F1t and F2t 4x2 frames.

    The columns of L_q F2t are q a and q b, a and b those of F2t read as
    quaternions, and q a = sum_i q_i (e_i a) is linear in q. The
    determinant is linear in each column, so it is sum_ij q_i q_j
    det [F1t | e_i a | e_j b], and A_ij is the mean of that determinant and
    the one with i and j swapped.
    """
    mats = np.empty((4, 4, 4, 4))
    mats[..., :2] = F1t
    mats[..., 2] = (_UNIT_LEFT @ F2t[:, 0])[:, None, :]
    mats[..., 3] = (_UNIT_LEFT @ F2t[:, 1])[None, :, :]
    D = np.linalg.det(mats)
    return 0.5 * (D + D.T)


def _quadratic_forms(A, qs):
    """q^T A q for each row q of the (B, 4) array qs and symmetric A.

    The sum over i of q_i (q . A_i) takes one (B,) product at a time: with
    no (B, 4) array beside qs, a chunk's arrays stay in the heap the
    allocator keeps between chunks instead of being faulted in again.
    """
    total = qs @ A[0]
    total *= qs[:, 0]
    for i in range(1, 4):
        term = qs @ A[i]
        term *= qs[:, i]
        total += term
    return total


def mc_poincare(M1: PlanarPolygon, M2: PlanarPolygon, N: int = 10**6,
                seed: int = 0, threads: int = 1) -> MCReport:
    """Monte Carlo for the expected number of intersection points of two
    moving polygons, against the plane-class density (1 + (u.v)^2)/4.

    Per sample a Haar rotation L_q, scored by the translation integral of
    the intersection count, area1 area2 |det [F1^T | L_q F2^T]|: near-parallel
    plates get a weight near 0. The determinant is the quadratic form
    q^T A q of the unit quaternion q, with

        A_ij = (det [F1^T | e_i a | e_j b] + det [F1^T | e_j a | e_i b]) / 2,

    a and b the rows of F2 read as quaternions and e_i the quaternion
    units, so each sample costs a 4-vector product with A and no rotation
    matrix is built.
    """
    _check_mc_args(N, threads, M1=M1, M2=M2)
    if not isinstance(M1, PlanarPolygon) or not isinstance(M2, PlanarPolygon):
        raise ValueError("the intersection count estimator needs planar polygons")
    u1, u2 = plane_class(M1.frame), plane_class(M2.frame)
    rhs = 0.25 * (1.0 + float(u1 @ u2) ** 2) * M1.area * M2.area
    A = M1.area * M2.area * _plate_form(M1.frame.T, M2.frame.T)

    def worker(idx, size):
        w = _quadratic_forms(A, _haar_quaternions(np.random.default_rng([seed, idx]), size))
        np.abs(w, out=w)
        return float(np.sum(w)), float(np.sum(w * w)), 0

    sum_w, sum_w2, _ = _run_chunks(worker, N, threads)
    return _finalize(sum_w, sum_w2, N, seed, rhs, 0)
