"""Kinematic tensors and Monte Carlo checks over the motion group of H.

The ten-element bases are graded by degree, so the pairing Gram matrix is
anti-diagonal in degree: chi pairs with vol, vol1 with vol3, and the six
degree-2 projection valuations pair among themselves with density
(1 + (u.v)^2)/4.  Each nonzero Gram entry is a single power of pi, so
Gauss-Jordan elimination with monomial pivots in Q[pi, 1/pi] inverts it
exactly and yields the tensor of the principal kinematic formula; a Monte
Carlo estimator over random rigid motions provides an independent numeric
check of the normalization (probability Haar measure on the rotations,
Lebesgue on the translations).  Every sample is scored exactly and with no
iteration, so every sample is decided.  A ball is unchanged by rotation,
and the motion measure by g -> g^-1, so the integral of a ball against
any body is the volume of the points within the ball's radius of the other
body.  Against a ball or a box a ball draws only translations: that volume
is integrated over three coordinates of the box's frame in closed form, the
section at fixed y1 being a rounded 3-box, whose volume is a cubic in its
rounding radius (Steiner).  On a block of y1's lattice the rounding radius
is r wherever y1 <= h1, and y1 - h1 is affine in the point's index on
either side of the tent's apex, so a block splits into runs: the points
with y1 <= h1 are counted in closed form, not evaluated, and the others
take one affine pass.  Every other pair draws only a rotation, left
multiplication L_q by a unit quaternion q, and integrates the translation
in closed form: the weight is vol(K - L_q L), scored from q itself, a sum
of |determinants| with columns turned by L_q.  Each is a form of degree at
most 2 in q: L_q is a rotation (det L_q = |q|^4 = 1, L_q^T = L_qbar), so a
determinant with 3 or 4 columns turned is the one with the other 1 or 0
turned by L_qbar.  For two boxes it sums |16 linear and 18 quadratic forms|
in q; for a box and a simplex, segment, point or polygon, in either order,
it sums the shadows of L_q L on the coordinate subspaces of the box's
frame, L's vertices and its 3-faces' cofactor vectors there being a fixed
matrix times q; for two plates it is area1 area2 |q^T A q|, which also
weighs their intersection count; for any other two vertex hulls it sums
their mixed volumes, maxima of linear forms in q over 3-faces and |forms
of degree 2| over the pairs of 2-faces that one fixed direction picks.
The plates' A and the 2-face pairs' forms are fixed coefficients times the
monomials of q (``_det_form``), taken once per pair of bodies.  A ball
against a vertex hull weighs the same shadows by the ball's radius
(Steiner and Kubota), a weight whose mean over q, not its value at each q,
is the volume within reach of the hull.

Every pair runs one sampler (``_lattice_means``): a rank-1 lattice of
N / 16 points in [0, 1)^s under 16 random shifts (Cranley-Patterson),
whose 16 replicate means give the standard error, with 15 degrees of
freedom.  s = 1 for the y1 of a ball against a ball or a box, folded by
the tent 1 - |2x - 1|, and s = 3 for q, with Korobov's generating vector
(1, a, a^2 mod n), its first coordinate folded by the same tent and mapped
onto S^3 by Shoemake's map.  So N must be a multiple of 16, for every
pair.  What depends on n alone is built once per n (``_lattice_tables``),
and the blocks work in their thread's resident workspace (``_Workspace``),
so a warm estimate allocates no large array, but for a hull's shadows
against a box or a ball (``_shadow_volumes``); the threads that split the
replicates are kept across estimates (``_SLOTS``), with their workspaces.
The estimates are bit for bit those of the plain computation.
"""

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields
from functools import cached_property, lru_cache
from itertools import combinations, combinations_with_replacement, product

import numpy as np

from .bodies import (
    Ball,
    Box,
    PlanarPolygon,
    _row_max,
    _row_min,
    evaluate_many,
)
from .linalg import invert_scalar_matrix
from .scalars import Rat, Scalar, ZERO
from .su2 import UNIT_LEFT, su2_basis, tasaki_density
from .valuation import pairing

MC_CHUNK = 1 << 15
# random shifts of every pair's lattice: the standard error comes from their
# means, with REPLICATES - 1 degrees of freedom
REPLICATES = 16
# candidate generators whose figure of merit the Korobov lattice's search takes
KOROBOV_CANDIDATES = 48
# the least standard error an estimate reports, in units in the last place
# of its estimate: the spread of the replicate means cannot see the
# rounding that every sample shares
ROUNDING_ULPS = 4
# lattice generators and tables kept, by (n, MC_CHUNK), least recently used
# evicted first: a motion_mc op estimates five pairs, each on a lattice of
# its own
TABLE_CACHE_SIZE = 8
# samples per block of the translation volumes: box/box's 16 linear and 18
# quadratic forms in q come to about fifty floats per sample, a 4-simplex's
# shadows to a few hundred and two hulls' mixed volumes to up to about 650
BOX_BOX_BLOCK = 1 << 12
# floats in each thread's workspace (``_Workspace``): a block of MC_CHUNK
# points of 4 coordinates, and past it box/box's 18 forms, 10 products and
# sums for BOX_BOX_BLOCK samples, more than a ball section's first
# coordinate or a rotation block's radii take
WORKSPACE_FLOATS = 4 * MC_CHUNK + 29 * BOX_BOX_BLOCK

BASIS_DEGREES = (0, 1, 2, 2, 2, 2, 2, 2, 3, 4)


@dataclass(frozen=True)
class KinematicTensor:
    labels: tuple
    matrix: tuple

    def entry(self, a: str, b: str) -> Scalar:
        i, j = self.labels.index(a), self.labels.index(b)
        return self.matrix[i][j]

    @cached_property
    def float_entries(self):
        """(i, j, float(entry)) for each nonzero entry, converted once."""
        return tuple((i, j, float(t)) for i, row in enumerate(self.matrix)
                     for j, t in enumerate(row) if not t.is_zero())


@dataclass(frozen=True)
class EvaluationVector:
    body: object
    labels: tuple
    values: tuple


class SampleCountError(ValueError):
    """N is not a multiple of REPLICATES."""


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
    # the icosahedron's Z_u have float coefficients, as its directions are
    # irrational; any two of them meet at (u.v)^2 = 1/5, so its Z_u block
    # takes the plane-class density (1 + (u.v)^2) / 4. Every other entry
    # pairs the basis reps
    n = len(basis)
    G = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if BASIS_DEGREES[i] + BASIS_DEGREES[j] != 4:
                continue
            if kind == "icosahedron" and 2 <= i < 8 and 2 <= j < 8:
                val = Scalar({0: tasaki_density(Rat(1) if i == j else Rat(1, 5))})
            else:
                val = pairing(basis[i][1], basis[j][1])
            G[i][j] = G[j][i] = val
    return labels, G


@lru_cache(maxsize=None)
def kinematic_tensor(basis: str) -> KinematicTensor:
    """Exact inverse of the named basis's pairing Gram matrix, built once, by
    Gauss-Jordan elimination with monomial pivots in Q[pi, 1/pi]; raises
    ValueError on a Gram matrix that needs any other pivot."""
    labels, G = gram_matrix(basis)
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
    # an exactly rounded sum of terms symmetric in (K, L): the same float in
    # either order
    a, b = vK.values, vL.values
    return math.fsum(t * (a[i] * b[j]) for i, j, t in T.float_entries
                     if a[i] != 0.0 and b[j] != 0.0)


# left multiplication by q0 + q1 i + q2 j + q3 k is L_q = sum_k q_k _UNIT_LEFT[k]
_UNIT_LEFT = np.array(UNIT_LEFT, dtype=float)

# the 2-subsets of four indices in lexicographic order (5 - p the complement
# of p), the 18 pairs (P, T) of them with 0 in P, and the 10 index pairs k <= l
_SUBSETS = np.array(list(combinations(range(4), 2)))
_P, _T = np.divmod(np.arange(18), 6)
_QK, _QL = np.triu_indices(4)
# row l: the three axes other than l, a coordinate 3-space
_SPACES = np.array(list(combinations(range(4), 3)))[::-1]


class _Workspace(threading.local):
    """One thread's floats for Monte Carlo blocks: WORKSPACE_FLOATS of them,
    allocated at the thread's first use and kept, so that no estimate
    allocates, and faults in, a large array of its own. Arrays are taken
    from the front of the floats within a ``with`` frame (``with _WORK as
    take``), and leaving the frame frees what was taken in it. An array that
    no longer fits is a new one."""

    def __init__(self):
        self.floats = None
        self.top = 0
        self.frames = []

    def __enter__(self):
        self.frames.append(self.top)
        return self.take

    def __exit__(self, *exc):
        self.top = self.frames.pop()

    def take(self, *shape, dtype=float):
        if self.floats is None:
            # the allocator aligns to 16 bytes, and SIMD loads run fastest
            # from 64-byte boundaries
            raw = np.empty(WORKSPACE_FLOATS + 8)
            start = -raw.ctypes.data % 64 // 8
            self.floats = raw[start:start + WORKSPACE_FLOATS]
        size = math.prod(shape)
        stop = self.top + -(-size * np.dtype(dtype).itemsize // 64) * 8
        if stop > len(self.floats):
            return np.empty(shape, dtype)
        start, self.top = self.top, stop
        return self.floats[start:stop].view(dtype)[:size].reshape(shape)


_WORK = _Workspace()

# single-thread executors kept for the process's life, one per worker slot:
# a slot always runs on one thread, which keeps its workspace from one
# estimate to the next
_SLOTS = []
_SLOTS_LOCK = threading.Lock()


def _first_reaching(step, c, level, size):
    """The first k in 0, ..., size - 1 with k step + c >= level, or size if
    there is none, each product and sum rounded as a block's elementwise
    pass rounds it (k step is the block's row of k times step). For
    step >= 0 the left side does not decrease in k, so a guess from the
    exact line is corrected a point at a time."""
    if not step:
        return 0 if c >= level else size
    x = (level - c) / step
    k = 0 if x <= 0 else size if x >= size else math.ceil(x)
    while k > 0 and (k - 1) * step + c >= level:
        k -= 1
    while k < size and k * step + c < level:
        k += 1
    return k


def _section_rule(h, r):
    """The rule (``_lattice_means``) of a ball of radius r against the box
    [-h, h] in its frame: vol(box + r B^4) is 16 times the volume of the
    points y in [0, h + r]^4 with sum_k (y_k - h_k)_+^2 <= r^2. At fixed y1
    the (y2, y3, y4) section is the part in [0, h + r]^3 of the box
    [0, h2] x [0, h3] x [0, h4] grown by rho, rho^2 = r^2 - (y1 - h1)_+^2, a
    rounded 3-box: by the Steiner formula (Schneider, Convex Bodies, 2014,
    ch. 4) its volume is c0 + c1 rho + c2 rho^2 + c3 rho^3, with c0 =
    h2 h3 h4, c1 = h2 h3 + h2 h4 + h3 h4, c2 = pi (h2 + h3 + h4) / 4 and
    c3 = pi / 6. So a point y1 weighs 16 (h1 + r) times that volume
    (Fubini).

    y1 = (h1 + r)(1 - |2x - 1|) at the points x of the 1-D lattice: under a
    shift d they are x = (k + phi)/n, k = 0, ..., n - 1 and phi = frac(d n),
    with no wrap. The tent keeps the uniform measure and makes the
    integrand periodic in x (Hickernell 2002). On a block starting at
    k = start, t = (h1 + r)(2x - 1) = Y_k + c, Y_k = (h1 + r) 2k/n taken
    once per call into the calling thread's workspace and c a constant per
    shift, and u = y1 - h1 = r - |t|. So u is affine on either side of the
    apex t = 0: (r + c) + Y_k before it, rising, and (r - c) - Y_k from it
    on, falling. Where u <= 0 (only when h1 != 0, else by rounding) it is
    clamped and rho = r exactly. The clamped points are a prefix of the
    rising run and a suffix of the falling one, found with the apex by
    ``_first_reaching`` on the same float expressions: a block splits into
    at most four runs, clamped, rising, falling, clamped. The two middle
    runs take one affine pass each, then rho^2 and rho and their sums; the
    clamped ones add their count times r, r^2 and r^3. Should a run's
    largest u, at the apex, round past r, its constant steps down an ulp
    until it does not: so 0 < u <= r and 0 <= rho^2 < r^2 hold exactly.
    Terms whose coefficient is 0 are skipped."""
    a1 = h[0] + r
    c0 = h[1] * h[2] * h[3]
    c1 = h[1] * h[2] + h[1] * h[3] + h[2] * h[3]
    c2 = 0.25 * math.pi * (h[1] + h[2] + h[3])
    r2 = r * r
    r3 = r2 * r
    tiny = math.ulp(0.0)

    def lattice(n):
        step = 2.0 * a1 / n
        k = _lattice_index(MC_CHUNK)[:min(n, MC_CHUNK)]
        Y = np.multiply(k, step, out=_WORK.take(len(k)))

        def weigh(d, start, out):
            size = out.shape[2]
            totals = []
            for u, rho, d1 in zip(out[0], out[1], d[:, 0].tolist()):
                c = (start + d1 * n % 1.0) * step - a1
                apex = _first_reaching(step, c, 0.0, size)
                rise, fall = r + c, r - c
                while apex and (apex - 1) * step + rise > r:
                    rise = math.nextafter(rise, -math.inf)
                while apex < size and fall - apex * step > r:
                    fall = math.nextafter(fall, -math.inf)
                # the runs [lo, apex) and [apex, hi), where u > 0: fall - Y_k
                # is -(Y_k - fall), exactly
                lo = min(_first_reaching(step, rise, tiny, size), apex)
                hi = max(_first_reaching(step, -fall, 0.0, size), apex)
                u = u[lo:hi]
                np.add(Y[lo:apex], rise, out=u[:apex - lo])
                np.subtract(fall, Y[apex:hi], out=u[apex - lo:])
                u *= u
                rho2 = np.subtract(r2, u, out=u)
                rho = np.sqrt(rho2, out=rho[lo:hi])
                # c0 size + c1 sum rho + c2 sum rho^2 + c3 sum rho^3, the
                # clamped points' rho being r
                clamped = size - len(rho)
                total = c0 * size
                if c1:
                    total += c1 * (clamped * r + float(rho.sum()))
                if c2:
                    total += c2 * (clamped * r2 + float(rho2.sum()))
                # a dot of up to MC_CHUNK terms: einsum sums it in one order,
                # where BLAS would split it among however many threads it has
                total += math.pi / 6.0 * (clamped * r3 + float(np.einsum("i,i->", rho2, rho)))
                totals.append(total)
            return np.array(totals)
        return weigh
    return 1, 16.0 * a1, lattice


def _korobov_generator(n):
    """The a of the n-point rank-1 lattice {frac(k (1, a, a^2 mod n)/n)} in
    [0, 1)^3 (Korobov): of the a coprime to n in (n/4, n/2], the first at
    or above the integer part of each of the KOROBOV_CANDIDATES points
    n/4 + (i + 1/2) n / (4 KOROBOV_CANDIDATES), evenly spaced inside that
    range (all of them when it holds no more), the one of least figure of
    merit P_2 = -1 + (1/n) sum_k prod_(z = 1, a, a^2) (1 + 2 pi^2
    B_2(frac(k z / n))), B_2(x) = x^2 - x + 1/6 (Sloan & Joe 1994, ch. 5);
    the first on a tie, and a = 1 when the range holds none. n - a gives
    the mirrored lattice, of the same P_2.

    The summand is the same at k and n - k, and at k = 0 and k = n/2 the
    same for every candidate, so the candidates compare by the sum over
    0 < k < n/2, walked in blocks of MC_CHUNK: the search costs
    O(KOROBOV_CANDIDATES n) time and O(MC_CHUNK) memory, about 25 ms at
    n = 62,500 (N = 10^6). ``_lattice_tables`` keeps it per n."""
    lo, hi = n // 4 + 1, n // 2
    c = KOROBOV_CANDIDATES
    if hi - lo + 1 <= c:
        cands = [a for a in range(lo, hi + 1) if math.gcd(a, n) == 1]
    else:
        cands = []
        for i in range(c):
            a = max(lo, n * (2 * c + 2 * i + 1) // (8 * c))
            while a <= hi and math.gcd(a, n) != 1:
                a += 1
            if a <= hi and (not cands or a > cands[-1]):
                cands.append(a)
    if len(cands) < 2:
        return cands[0] if cands else 1

    def factor(r):
        # 1 + 2 pi^2 B_2(r / n) over residues r
        x = r / n
        x *= x - 1.0
        x += 1.0 / 6.0
        x *= 2.0 * math.pi ** 2
        x += 1.0
        return x

    merit = np.zeros(len(cands))
    half = (n + 1) // 2
    for start in range(1, half, MC_CHUNK):
        k = np.arange(start, min(start + MC_CHUNK, half))
        first = factor(k)
        for i, a in enumerate(cands):
            term = factor(k * a % n)
            term *= factor(k * (a * a % n) % n)
            merit[i] += float(first @ term)
    return cands[int(np.argmin(merit))]


@lru_cache(maxsize=1)
def _lattice_index(chunk):
    """0, 1, ..., chunk - 1 as read-only floats: the k of every block."""
    k = np.arange(chunk, dtype=float)
    k.flags.writeable = False
    return k


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _lattice_tables(n, chunk):
    """What the n-point rank-1 lattice of ``_korobov_generator`` needs that
    depends on n alone: its generator a, and read-only rows over its first
    m = min(n, chunk) points k, 2k/n and a (4, m) table of the cosine and
    sine of 2 pi frac(k z / n), the rows (cos, sin) for z = a and then for
    z = a^2 mod n. Built once per (n, chunk), chunk being MC_CHUNK at the
    call, so that a table built for one block size is never read at
    another; at most TABLE_CACHE_SIZE of them. At the benchmark's sizes the
    tables and the index take about 0.8 MB together."""
    m = min(n, chunk)
    k = np.arange(m)
    a = _korobov_generator(n)
    angles = np.empty((4, m))
    for cos, sin, z in zip(angles[::2], angles[1::2], (a, a * a % n)):
        t = 2.0 * math.pi / n * (k * z % n)
        np.cos(t, out=cos)
        np.sin(t, out=sin)
    tent = _lattice_index(chunk)[:m] * (2.0 / n)
    for table in (tent, angles):
        table.flags.writeable = False
    return a, tent, angles


def _rotation_lattice(n):
    """The function block(d, start, out) that writes into out, (4, R,
    size), the unit quaternions of points start, ..., start + size - 1 of
    the n-point rank-1 lattice of ``_korobov_generator`` under each of R
    shifts, the rows of d (R, 3) (Cranley & Patterson 1976). A shifted
    point u in [0, 1)^3 has its first coordinate folded by the tent
    1 - |2 u1 - 1|, which keeps the uniform measure and lets the rule treat
    the integrand as periodic in u1 (Hickernell 2002), and is mapped onto
    S^3 by Shoemake's map (Graphics Gems III, 1992)
    u -> (sqrt(1 - u1) (cos, sin) 2 pi u2, sqrt(u1) (cos, sin) 2 pi u3),
    which takes the uniform measure on [0, 1)^3 to Haar measure.

    Writing d1 n = m + phi and k' = k + m mod n, point k' has u1 = (k' +
    phi)/n, so the first coordinate needs no wrap, as in
    ``_section_rule``; the angles need none either, being periodic. The
    cosines and sines of the first MC_CHUNK points' angles 2 pi frac(k'
    z_j / n) come from ``_lattice_tables``; a block starting at k' = start
    turns them by the constant angles 2 pi (frac((start - m) z_j / n) +
    d_j), one block-diagonal 4x4 rotation per shift applied by one matrix
    product, and scales them by the radii, with a row of the thread's
    workspace to work in."""
    a, tent, angles = _lattice_tables(n, MC_CHUNK)
    steps = (a, a * a % n)

    def block(d, start, out):
        size = out.shape[2]
        # per shift, in floats (a numpy call on R values costs more than
        # the arithmetic): the tent's offset and the turn of the angles
        offsets, turns = [], []
        for d1, *rest in d.tolist():
            m = int(d1 * n)
            offsets.append((start + (d1 * n - m)) * (2.0 / n) - 1.0)
            angle = [2.0 * math.pi * (((start - m) * g % n / n + dj) % 1.0)
                     for g, dj in zip(steps, rest)]
            (c2, c3), (s2, s3) = map(math.cos, angle), map(math.sin, angle)
            turns.append(((c2, -s2, 0.0, 0.0), (s2, c2, 0.0, 0.0),
                          (0.0, 0.0, c3, -s3), (0.0, 0.0, s3, c3)))
        np.matmul(np.array(turns), angles[:, :size], out=out.transpose(1, 0, 2))
        offsets = np.array(offsets)[:, None]
        with _WORK as take:
            w = take(len(d), size)

            def fold():
                # |2 u1 - 1|, which the tent takes to 1 - u1: folded again
                # for the second radius, as the workspace has one row free
                return np.abs(np.add(tent[:size], offsets, out=w), out=w)
            out[:2] *= np.sqrt(fold(), out=w)
            out[2:] *= np.sqrt(np.subtract(1.0, fold(), out=w), out=w)
    return block


def _rotation_rule(volumes):
    """The rule (``_lattice_means``) of a pair weighted from q by volumes:
    the unit quaternions of ``_rotation_lattice``."""
    def lattice(n):
        block = _rotation_lattice(n)

        def weigh(d, start, out):
            block(d, start, out)
            return volumes(out.reshape(4, -1)).reshape(len(d), -1).sum(axis=1)
        return weigh
    return 3, 1.0, lattice


def _box_box_volumes(K, L):
    """The function taking unit quaternions, the (4, B) columns of q, to
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

    def volumes(q):
        # a block's forms in the thread's workspace: the linear ones, then
        # the quadratic ones in their place, the products q_k q_l a row per
        # (k, l), and the quadratic forms' weighted sums
        vol = np.empty(q.shape[1])
        B = min(len(vol), BOX_BOX_BLOCK)
        with _WORK as take:
            forms, products, sums = take(18 * B), take(10, B), take(B)
            for s in range(0, len(vol), BOX_BOX_BLOCK):
                qb = q[:, s:s + BOX_BOX_BLOCK]
                m = qb.shape[1]
                lin = np.matmul(gen, qb, out=forms[:16 * m].reshape(16, m))
                v = np.matmul(W1, np.abs(lin, out=lin), out=vol[s:s + m])
                v += c0
                p = _products(qb, products[:, :m])
                quad = np.matmul(S, p, out=forms[:18 * m].reshape(18, m))
                v += np.matmul(W2, np.abs(quad, out=quad), out=sums[:m])
        vol *= 16.0
        return vol
    return volumes


@lru_cache(maxsize=None)
def _hull_indices(m):
    """Index arrays for the plane shadows of m >= 3 points: the pairs
    (a, b), a < b; the pairs ab, bc, ac of each sorted triple (a, b, c); and
    for each pair (a, b) and each other point c, the places of "c lies left
    of (a, b)" and of "c lies right of it" among the stacked tests [each
    triple turns left; each turns right] (a sorted triple turns as
    (a, b, c) does unless a < c < b). Only simplices call it, so m is 3, 4
    or 5 and the cache holds at most three entries."""
    pairs = list(combinations(range(m), 2))
    triples = list(combinations(range(m), 3))
    pair, triple = ({t: i for i, t in enumerate(ts)} for ts in (pairs, triples))
    turns = [[pair[a, b], pair[b, c], pair[a, c]] for a, b, c in triples]
    seen = np.array([[triple[tuple(sorted((a, b, c)))] for c in range(m) if c not in (a, b)]
                     for a, b in pairs])
    flip = np.array([[a < c < b for c in range(m) if c not in (a, b)] for a, b in pairs])
    T = len(triples)
    return np.array(pairs).T, np.array(turns).T, seen + T * flip, seen + T * ~flip


def _gather(a, rows, out):
    """a[rows] written into out; np.take's default mode would copy it into
    a new array first."""
    return np.take(a, rows, axis=0, out=out, mode="clip")


def _hull_shadows(X, cycle):
    """Shadows of the convex hull of m points onto the coordinate axes and
    planes, the points given as X (m, 4, B), point by coordinate by sample,
    with samples last: the ranges on the 4 axes (4, B) and, for m >= 3, the
    areas on the 6 coordinate planes of _SUBSETS (6, B); fewer points have
    flat plane shadows.

    ``cycle`` says the points are a convex polygon's vertices in order: a
    linear map keeps that cycle or flattens it to a segment, so a plane
    shadow is |shoelace| / 2, at a cost linear in m.
    Otherwise the pair {a, b} is a hull edge, counterclockwise (+1) or
    clockwise (-1), when every other point lies strictly on its left or
    its right, and the area is half the sum of sign * (x_a y_b - x_b y_a).
    The orientation of each triple is taken once per plane, as the sum of
    its pairs' cross products.

    The gathered and multiplied (pair, plane, sample) arrays are taken from
    the thread's workspace, and freed once the area is summed.
    """
    by_point = X.transpose(1, 2, 0)
    shadows = [_row_max(by_point) - _row_min(by_point)]
    m, _, B = X.shape
    if m < 3:
        return shadows
    if cycle:
        x, y = X[:, _SUBSETS[:, 0]], X[:, _SUBSETS[:, 1]]
        nxt = np.roll(np.arange(m), -1)
        area = (x * y[nxt] - x[nxt] * y).sum(axis=0)
        return shadows + [0.5 * np.abs(area)]
    (a, b), (ab, bc, ac), left, right = _hull_indices(m)
    # row 4 j + i of rows is coordinate i of point j; a plane's x and y are
    # the coordinates _SUBSETS[:, 0] and _SUBSETS[:, 1]
    rows, (x, y) = X.reshape(-1, B), _SUBSETS.T
    T, P = len(ab), len(a)
    with _WORK as take:
        # cross = x[a] y[b] - x[b] y[a]
        cross, term, other = take(P, 6, B), take(max(P, T), 6, B), take(max(P, T), 6, B)
        np.multiply(_gather(rows, 4 * a[:, None] + x, cross),
                    _gather(rows, 4 * b[:, None] + y, other[:P]), out=cross)
        cross -= np.multiply(_gather(rows, 4 * b[:, None] + x, term[:P]),
                             _gather(rows, 4 * a[:, None] + y, other[:P]), out=term[:P])
        # orient = cross[ab] + cross[bc] - cross[ac]
        orient = _gather(cross, ab, other[:T])
        orient += _gather(cross, bc, term[:T])
        orient -= _gather(cross, ac, term[:T])
        turns = take(2 * T, 6, B, dtype=bool)
        np.greater(orient, 0, out=turns[:T])
        np.less(orient, 0, out=turns[T:])
        # edge = turns[left].all(axis=1) cross - turns[right].all(axis=1) cross
        tests, sides = take(*left.shape, 6, B, dtype=bool), take(P, 6, B, dtype=bool)
        _gather(turns, left, tests).all(axis=1, out=sides)
        edge = np.multiply(sides, cross, out=term[:P])
        _gather(turns, right, tests).all(axis=1, out=sides)
        edge -= np.multiply(sides, cross, out=cross)
        shadows.append(0.5 * edge.sum(axis=0))
    return shadows


def _shadow_volumes(K, L):
    """The function taking unit quaternions, the (4, B) columns of q, to c0
    plus a weighted sum of the shadows of L_q L on the coordinate subspaces
    of K's frame, a block at a time, for a box or a ball K and a vertex hull
    L (a simplex of 1 to 5 vertices or a planar polygon). In K's frame L's
    vertices, less their mean, are a fixed (4m x 4) matrix times q, and
    their ranges and plane areas are ``_hull_shadows``'; translations change
    no shadow.

    A 3-D shadow is linear in q: on the 3-space omitting axis l of K's
    frame R (columns its axes), a tetrahedron's is |det [R^T L_q s_i; e_l]|
    / 6 = |<R e_l, L_q c>| / 6, as R^T L_q is a rotation, c the cofactor
    vector of its spans s_i (<c, u> = det [s_1; s_2; s_3; u]), turned like
    a vertex; a 4-simplex's is half the sum of its five facets' (Cauchy's
    projection formula, Schneider, Convex Bodies, 2014, 5.3). The relative
    error is at most about R's departure from orthonormality,
    max |R R^T - I|, as in ``_box_box_volumes``.

    For a box the sum is vol(K - L_q L) at each q. K - L_q L is a polytope
    plus K's four orthogonal edges, so its volume is the sum over the axis
    sets S of K's frame of prod_S 2 hK times the (4 - |S|)-volume of the
    shadow of L_q L on the other axes (Shephard 1974): a point, ranges,
    areas, 3-volumes and L's own volume.

    For a ball of radius r the frame is the identity, a j-shadow weighs
    kappa_4 / kappa_j r^(4 - j), kappa_j the volume of the unit j-ball, and
    c0 = kappa_4 r^4 + vol L. The sum is then vol(L + r B^4), the motion
    integral, in its mean over Haar q, not at each q (Steiner and Kubota,
    ibid.). Steiner gives vol(L + r B) =
    sum_j kappa_(4-j) r^(4-j) V_j(L), and Kubota gives V_j(L) as
    C(4, j) kappa_4 / (kappa_j kappa_(4-j)) times the mean over j-planes E
    of vol_j(L | E). The shadow of L_q L on E is that of L on L_q^T E. L_q
    takes an axis or a 3-space to one whose normal is uniform on S^3, so
    each of the C(4, j) coordinate ones has the mean shadow. L_q keeps a
    2-plane's class, the u in S^2 with f = e u for an orthonormal basis
    (e, f) of it, and the mean area over the planes of one class is
    quadratic in u, as the degree-2 SU(2)-invariant valuations Z_u are. The
    six coordinate planes carry the classes +-i, +-j and +-k, two planes
    each, and that octahedron is a spherical 3-design (Delsarte, Goethals &
    Seidel 1977): their mean of a quadratic in u is its mean over S^2."""
    verts = L._hull() - L._hull().mean(axis=0)
    m = len(verts)
    cycle = isinstance(L, PlanarPolygon)
    # a simplex's 3-faces are its 4-subsets of vertices (a polygon has none);
    # rows[f, k] is face f's spans from its first vertex, then e_k, so
    # det rows[f] is the face's cofactor vector
    quads = np.array([] if cycle else list(combinations(range(m), 4)), dtype=int).reshape(-1, 4)
    rows = np.zeros((len(quads), 4, 4, 4))
    rows[:, :, :3] = (verts[quads[:, 1:]] - verts[quads[:, :1]])[:, None]
    rows[:, :, 3] = np.eye(4)
    facets = np.linalg.det(rows)
    if isinstance(K, Ball):
        frame, r = np.eye(4), K.radius
        weights = [np.full(4, math.pi ** 2 / 4.0 * r ** 3), np.full(6, math.pi / 2.0 * r ** 2),
                   np.full(4, 3.0 * math.pi / 8.0 * r)]
        c0 = math.pi ** 2 / 2.0 * r ** 4 + L.volume()
    else:
        frame, edges = K.rotation, 2.0 * K.half_extents
        # a shadow's weight is the product of K's edges on the other axes:
        # the 3-space off a range's axis, the plane complementary to a
        # plane, and the axis a 3-space omits
        weights = [np.prod(edges[_SPACES], axis=1), np.prod(edges[_SUBSETS[::-1]], axis=1), edges]
        c0 = np.prod(edges) + L.volume()
    # gen[j, i, k]: coordinate i of L_q v_j in K's frame is sum_k gen[j, i, k] q_k,
    # the v_j being the m vertices and then the facets' cofactors
    gen = np.einsum("kir,jr->jik", frame.T @ _UNIT_LEFT, np.vstack([verts, facets])).reshape(-1, 4)

    def volumes(q):
        vol = np.empty(q.shape[1])
        for s in range(0, len(vol), BOX_BOX_BLOCK):
            qb = q[:, s:s + BOX_BOX_BLOCK]
            with _WORK as take:
                X = np.matmul(gen, qb, out=take(len(gen), qb.shape[1])).reshape(-1, 4, qb.shape[1])
                shadows = _hull_shadows(X[:m], cycle)
                if len(facets):
                    volume = np.abs(X[m:], out=X[m:]).sum(axis=0)
                    shadows.append(volume / (6.0 if len(facets) == 1 else 12.0))
                total = c0
                for w, shadow in zip(weights, shadows):
                    total = total + w @ shadow
            vol[s:s + BOX_BOX_BLOCK] = total
        return vol
    return volumes


def _products(q, out):
    """The 10 monomials q_k q_l, k <= l, of the (4, B) columns q written into
    out (10, B), in ``combinations_with_replacement`` order, the order of
    the monomials of every degree here: q_k times q_k, ..., q_3."""
    for k, row in ((0, 0), (1, 4), (2, 7), (3, 9)):
        np.multiply(q[k], q[k:], out=out[row:row + 4 - k])
    return out


@lru_cache(maxsize=None)
def _index_tuples(b):
    """The 4^b index tuples of length b <= 2, (4^b, b) in ``product`` order,
    and the 0/1 matrix taking each to its sorted one in ``_products``."""
    tuples = list(product(range(4), repeat=b))
    where = {m: i for i, m in enumerate(combinations_with_replacement(range(4), b))}
    fold = np.zeros((len(tuples), len(where)))
    fold[np.arange(len(tuples)), [where[tuple(sorted(t))] for t in tuples]] = 1.0
    return np.array(tuples, dtype=int).reshape(len(tuples), b), fold


def _det_form(cols, moving):
    """The coefficients (..., C(d + 3, 3)) over the degree-d monomials of q
    (``_products``), d = min(b, 4 - b) <= 2, of the determinants of 4x4
    matrices, column j of each being cols[..., j, :], with the b columns in
    moving turned by L_q, q a unit. L_q x = sum_k q_k e_k x and the
    determinant is linear in each column, so it is the sum over the 4^b
    index tuples (k_1, ..., k_b) of q_k1 ... q_kb times the determinant with
    column moving[i] turned by e_ki, taken here once and summed onto the
    tuple's sorted monomial. For b >= 3, as L_q^T L_q = I and det L_q = 1,
    multiplying by L_q^T = sum_k q_k e_k^T keeps the determinant and turns
    the other 4 - b columns instead: that form holds on S^3 alone."""
    units = _UNIT_LEFT
    if len(moving) > 2:
        moving, units = [j for j in range(4) if j not in moving], units.swapaxes(1, 2)
    ks, fold = _index_tuples(len(moving))
    mats = np.repeat(cols[..., None, :, :], len(ks), axis=-3)
    for i, j in enumerate(moving):
        # row k of turned: unit k times column j
        turned = (units @ cols[..., j, None, :, None])[..., 0]
        mats[..., j, :] = turned[..., ks[:, i], :]
    return np.linalg.det(np.swapaxes(mats, -1, -2)) @ fold


# the x of ``_hull_hull_volumes``: no plane spanned by two of a face's
# normal vectors holds it but by a coincidence of measure zero
_GENERIC = np.array([0.5772156649015329, -0.3183098861837907, 0.7390851332151607, 0.4142135623730951])


def _facet_directions(groups):
    """The directions (D, 4) of a hull's 3-faces' normal cones, a facet's
    normal or +-p for a 3-dimensional hull, and each face's 3-volume."""
    if 3 not in groups:
        return np.zeros((0, 4)), np.zeros(0)
    _, volumes, cones, perp = groups[3]
    if cones.shape[1]:
        return cones[:, 0], volumes
    return np.vstack([perp, -perp]).reshape(-1, 4), np.tile(volumes, 2)


def _normal_planes(groups):
    """A hull's 2-faces' normal planes (F, 2, 4), spanned by their cones'
    c generators and then the complement basis; c; and each face's area
    over the square root of those vectors' Gram determinant."""
    _, volumes, cones, perp = groups[2]
    vecs = np.concatenate([cones, np.broadcast_to(perp, (len(volumes), 2 - cones.shape[1], 4))], axis=1)
    return vecs, cones.shape[1], volumes / np.sqrt(np.linalg.det(vecs @ vecs.swapaxes(1, 2)))


def _hull_hull_volumes(K, L):
    """The function taking unit quaternions, the (4, B) columns of q, to
    vol(K - L_q L), a block at a time, for two vertex hulls (simplices of 1
    to 5 vertices or planar polygons), by mixed volumes over their
    ``face_groups``: with M = -L_q L, vol(K + M) = vol K + vol M +
    4 V(K[3], M) + 6 V(K[2], M[2]) + 4 V(K, M[3]) (Schneider, Convex Bodies,
    2014, 5.1). Two plates take ``_plate_volumes``, which the tests compare
    with it. 4 V(K[3], M) sums vol_3(F) h_M(u) over K's 3-faces F and the
    directions u of their normal cones, h_M(u) = max over L's vertices l of
    -<L_q l, u>; 4 V(K, M[3]) likewise sums h_K(-L_q u) = max -<k, L_q u>.

    6 V(K[2], M[2]) sums vol(F + L_q G) = vol_2 F vol_2 G |det [F's frame,
    L_q G's frame]| over the pairs of 2-faces with x in N(K, F) + L_q N(L, G)
    = N(K, F) - N(M, -L_q G), x fixed (``_GENERIC``): the cells of the mixed
    subdivision of K + M that lifting K by <x, .> makes (Huber & Sturmfels,
    Math. Comp. 64, 1995; Fulton & Sturmfels, Topology 36, 1997). Solving
    x = [a, p, L_q b, L_q r] t by Cramer's rule, a, b the cones' generators
    and p, r the complement bases (``_normal_planes``), the pair counts when
    each generator's numerator has the denominator's sign. By Hodge duality
    the frames' |det| is |den| over the roots of the normal planes' Gram
    determinants. den and a numerator with x for a are forms of degree 2 in
    q (``_det_form``), one with x for b of degree 1. A tie needs q on the
    zero set of a form that is not 0 (L_q turns one normal plane through
    every angle with another, and x lies in none): no tolerance. Dimensions
    adding to less than 4 leave no pair of 2-faces and 3-faces only against
    one vertex, 0 less the vertices' mean: the volume is 0 exactly.

    A block's monomials, forms and sign tests are taken from the thread's
    workspace past a block of MC_CHUNK points, its size following from the
    pair's form rows; so each product, at most (2-face pairs, 10) times
    (10, block), stays below the sizes at which OpenBLAS starts threads of
    its own, which inside the estimate's threads would oversubscribe."""
    groups = [{g[0].shape[1]: g for g in P.face_groups()} for P in (K, L)]
    # the vertices less their mean, the fewer repeating their last
    verts = [P._hull() - P._hull().mean(axis=0) for P in (K, L)]
    m = max(map(len, verts))
    verts = [v[np.minimum(np.arange(m), len(v) - 1)] for v in verts]
    # support forms, by (direction, vertex, k): the coefficients of q_k in
    # -vol <L_q l, u> and in -vol <k, L_q u>
    (u_K, vol_K), (u_L, vol_L) = map(_facet_directions, groups)
    forms = -np.concatenate([np.einsum("d,di,kij,lj->dlk", vol_K, u_K, _UNIT_LEFT, verts[1]),
                             np.einsum("d,vi,kij,dj->dvk", vol_L, verts[0], _UNIT_LEFT, u_L)]).reshape(-1, 4)
    # per pair of 2-faces, the denominator, weighted, then a numerator per
    # generator: degree 2 with x for one of K's, 1 with x for one of L's
    rows = []
    if 2 in groups[0] and 2 in groups[1]:
        (a, c_K, w_K), (b, c_L, w_L) = map(_normal_planes, groups)
        cols = np.concatenate(np.broadcast_arrays(a[:, None], b[None]), axis=2)
        rows.append(np.outer(w_K, w_L)[..., None] * _det_form(cols, (2, 3)))
        for j in [*range(c_K), *range(2, 2 + c_L)]:
            at = cols.copy()
            at[:, :, j] = _GENERIC
            rows.append(_det_form(at, (2, 3) if j < 2 else (5 - j,)))
        rows = [r.reshape(-1, r.shape[-1]) for r in rows]
    c0 = K.volume() + L.volume()
    S, R, P = len(forms), len(rows), len(rows[0]) if rows else 0
    # samples per block: per sample a sum, the forms, the monomials and a
    # byte per test, all and any, less 8 floats per array for its rounding
    per = 1 + S + 10 + R * P + (R + 2) * P / 8
    block = min(BOX_BOX_BLOCK, int((WORKSPACE_FLOATS - 4 * MC_CHUNK - 56) / per))

    def volumes(q):
        vol = np.full(q.shape[1], c0)
        for s in range(0, len(vol), block):
            qb = q[:, s:s + block]
            B = qb.shape[1]
            with _WORK as take:
                sums = take(B)
                if S:
                    # h per direction: the max over the vertices
                    h = np.matmul(forms, qb, out=take(S, B)).reshape(-1, m, B)
                    for v in range(1, m):
                        np.maximum(h[:, 0], h[:, v], out=h[:, 0])
                    vol[s:s + B] += np.add.reduce(h[:, 0], axis=0, out=sums)
                if P:
                    products = _products(qb, take(10, B))
                    tests = take(R, P, B)
                    for r, form in zip(tests, rows):
                        np.matmul(form, products if form.shape[1] == 10 else qb, out=r)
                    positive = np.greater(tests, 0, out=take(R, P, B, dtype=bool))
                    every = np.logical_and.reduce(positive, axis=0, out=take(P, B, dtype=bool))
                    some = np.logical_or.reduce(positive, axis=0, out=take(P, B, dtype=bool))
                    # a pair counts when every row is positive or none is
                    den = np.abs(tests[0], out=tests[0])
                    den *= np.greater_equal(every, some, out=every)
                    vol[s:s + B] += np.add.reduce(den, axis=0, out=sums)
        return vol
    return volumes


def _plate_volumes(M1, M2):
    """The function taking unit quaternions, the (4, B) columns of q, to
    vol(M1 - L_q M2) for two plates: their sum is an affine image of their
    product, so the volume is area1 area2 |det [F1^T | L_q F2^T]|, a
    quadratic form q^T A q scaled by the areas, A_kk the coefficient of
    q_k^2 in ``_det_form`` and A_kl = A_lk half that of q_k q_l. It falls
    to 0 as the plates turn parallel, as two hulls' mixed volumes do
    (``_hull_hull_volumes``), which the tests compare with it.

    A block of q takes one product A q and one sum over i of (A q)_i q_i,
    in the thread's workspace."""
    c = _det_form(np.vstack([M1.frame, M2.frame]), (2, 3))
    A = np.empty((4, 4))
    A[_QK, _QL] = A[_QL, _QK] = M1.area * M2.area * np.where(_QK == _QL, c, 0.5 * c)

    def volumes(q):
        total = np.empty(q.shape[1])
        B = min(len(total), BOX_BOX_BLOCK)
        with _WORK as take:
            terms = take(4 * B)
            for s in range(0, len(total), BOX_BOX_BLOCK):
                qb = q[:, s:s + BOX_BOX_BLOCK]
                m = qb.shape[1]
                t = np.matmul(A, qb, out=terms[:4 * m].reshape(4, m))
                t *= qb
                t.sum(axis=0, out=total[s:s + m])
        return np.abs(total, out=total)
    return volumes


def _translation_volumes(K, L):
    """q -> vol(K - L_q L), the translation integral of chi(K . (L_q L + t)),
    for any pair of boxes and vertex hulls, two hulls by mixed volumes. The
    motion measure is unchanged by g -> g^-1, so a vertex hull against a box
    takes the box as K, the same function of the same q."""
    if isinstance(K, Box) and isinstance(L, Box):
        return _box_box_volumes(K, L)
    box, hull = (K, L) if isinstance(K, Box) else (L, K)
    if isinstance(box, Box):
        return _shadow_volumes(box, hull)
    if isinstance(K, PlanarPolygon) and isinstance(L, PlanarPolygon):
        return _plate_volumes(K, L)
    return _hull_hull_volumes(K, L)


def _run_units(worker, units, threads):
    """[worker(0), ..., worker(units - 1)], in that order, on up to
    ``threads`` threads (no more than the units or the CPUs): slot w of
    ``_SLOTS`` runs units w, w + workers, ... on its resident thread."""
    workers = min(threads, units, os.cpu_count() or 1)
    if workers <= 1:
        return [worker(idx) for idx in range(units)]
    with _SLOTS_LOCK:
        _SLOTS.extend(ThreadPoolExecutor(max_workers=1) for _ in range(workers - len(_SLOTS)))
        slots = _SLOTS[:workers]
    results = [None] * units

    def share(first):
        for idx in range(first, units, workers):
            results[idx] = worker(idx)
    for future in [slot.submit(share, w) for w, slot in enumerate(slots)]:
        future.result()
    return results


def _rule(K, L):
    """The lattice rule (``_lattice_means``) of the pair's motion integral:
    the sections of a ball against a ball or a box, two balls being a box
    of half extents 0 against a ball of their radius sum, and the rotations
    of every other pair, a ball against a vertex hull weighed by the hull's
    shadows (``_shadow_volumes``)."""
    ball, other = (K, L) if isinstance(K, Ball) else (L, K)
    if not isinstance(ball, Ball):
        return _rotation_rule(_translation_volumes(K, L))
    if isinstance(other, Ball):
        return _section_rule(np.zeros(4), K.radius + L.radius)
    if isinstance(other, Box):
        return _section_rule(other.half_extents, ball.radius)
    return _rotation_rule(_shadow_volumes(ball, other))


def _lattice_means(rule, n, seed, threads):
    """The REPLICATES mean weights of a rule over its n-point rank-1
    lattice in [0, 1)^s, replicate idx under the shift of s uniforms of
    default_rng([seed, idx]) (Cranley & Patterson 1976): s = 1 for a ball
    against a ball or a box (``_section_rule``) and 3 for the rotations
    (``_rotation_rule``). A rule is (s, scale, lattice): lattice(n) gives weigh(d, start, out), which scores
    points start, ..., start + size - 1 of the lattice under each of R
    shifts, the rows of d (R, s), with out (4, R, size) to work in, and
    returns their summed weights per shift; a replicate's mean is scale
    times its sum over n. When all of them fit in one block of MC_CHUNK,
    the REPLICATES lattices are scored in one call; else the threads split
    the replicates, each run in blocks of MC_CHUNK. The path depends on n
    alone, so the means depend only on (seed, n), whatever the threads.

    Every block, and whatever lattice(n) takes for the call, is taken from
    the running thread's workspace (``_Workspace``), which outlives the
    call: an estimate's steady state allocates no large array, whatever the
    allocator's thresholds, but for the shadows' (``_shadow_volumes``)."""
    s, scale, lattice = rule
    shifts = np.array([np.random.default_rng([seed, idx]).random(s) for idx in range(REPLICATES)])
    with _WORK:
        weigh = lattice(n)
        if REPLICATES * n <= MC_CHUNK:
            with _WORK as take:
                return (scale * weigh(shifts, 0, take(4, REPLICATES, n)) / n).tolist()

        def replicate(idx):
            total = 0.0
            with _WORK as take:
                block = take(4, 1, min(MC_CHUNK, n))
                for start in range(0, n, MC_CHUNK):
                    out = block[..., :min(MC_CHUNK, n - start)]
                    total += float(weigh(shifts[idx:idx + 1], start, out)[0])
            return scale * total / n
        return _run_units(replicate, REPLICATES, threads)


def _replicate_moments(means):
    """Mean and standard error of the REPLICATES means, one per random
    shift: independent and identically distributed, so the error has
    REPLICATES - 1 degrees of freedom."""
    mean = math.fsum(means) / REPLICATES
    var = math.fsum((m - mean) ** 2 for m in means) / (REPLICATES - 1)
    return mean, math.sqrt(var / REPLICATES)


def _check_mc_args(N, threads, **bodies):
    for name, value in (("N", N), ("threads", threads)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
            raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    for name, body in bodies.items():
        if getattr(body, "dim", None) != 4:
            raise ValueError(f"{name} must be a body in R^4")
    if N % REPLICATES:
        raise SampleCountError(f"N must be a multiple of {REPLICATES} ({REPLICATES} shifted "
                               f"lattices of N/{REPLICATES} points), got {N}")


def _estimate(K, L, N, seed, threads, rhs):
    """The Monte Carlo estimate of the motion integral of chi(K . gL) that
    both estimators report, against their right-hand side rhs: the pair's
    rule (``_rule``) over 16 shifted rank-1 lattices of N / 16 points in
    [0, 1)^s (``_lattice_means``), s = 1 for a ball against a ball or a
    box and 3 for the q of every other pair. Every sample is scored
    exactly, with no iteration.

    The standard error is that of the 16 replicate means, with 15 degrees
    of freedom, so with no defect |z| > 3 has probability 0.009 (the
    normal's is 0.0027). It is at least ROUNDING_ULPS units in the last
    place of the estimate, as the spread of the replicate means cannot see
    the rounding every sample shares: a weight that does not depend on the
    sample (a box against a point weighs vol(box) at every q) gives 16
    equal means, and the lattice integrates some weights, a ball against a
    ball's among them, all but exactly. An rhs a few ulps off then gives a
    small z, and one further off a large one. A mean of 0 is a sum of
    weights that are all 0, which no rounding touches. Deterministic for
    fixed (seed, N) regardless of threads."""
    mean, stderr = _replicate_moments(_lattice_means(_rule(K, L), N // REPLICATES, seed, threads))
    if mean:
        stderr = max(stderr, ROUNDING_ULPS * math.ulp(mean))
    if stderr > 0:
        z = (mean - rhs) / stderr
    else:
        z = 0.0 if mean == rhs else math.inf
    return MCReport(mean, stderr, N, seed, rhs, z)


def mc_principal_kinematic(K, L, N: int = 10**6, seed: int = 0,
                           threads: int = 1) -> MCReport:
    """Monte Carlo estimate of the motion integral of chi(K . gL) against
    the exact tensor's pairing of the evaluation vectors (``rhs_kinematic``).
    The samples and weights are ``_estimate``'s; N must be a multiple of
    16."""
    _check_mc_args(N, threads, K=K, L=L)
    return _estimate(K, L, N, seed, threads, rhs_kinematic(K, L))


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


def mc_poincare(M1: PlanarPolygon, M2: PlanarPolygon, N: int = 10**6,
                seed: int = 0, threads: int = 1) -> MCReport:
    """Monte Carlo for the expected number of intersection points of two
    moving polygons, against the plane-class density (1 + (u.v)^2)/4 times
    their areas. Two plates in general position meet in at most one point,
    so the count is chi(M1 . gM2), and the estimate is that of
    ``mc_principal_kinematic`` (``_estimate``); only the rhs differs."""
    _check_mc_args(N, threads, M1=M1, M2=M2)
    if not isinstance(M1, PlanarPolygon) or not isinstance(M2, PlanarPolygon):
        raise ValueError("the intersection count estimator needs planar polygons")
    u1, u2 = plane_class(M1.frame), plane_class(M2.frame)
    rhs = tasaki_density(float(u1 @ u2) ** 2) * M1.area * M2.area
    return _estimate(M1, M2, N, seed, threads, rhs)
