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
in closed form: the weight is vol(K - L_q L), scored from q itself as one
sum of mixed volumes over the two bodies' faces, for boxes, plates and
vertex hulls (simplices, segments, points and polygons) alike.  Its 3-face
terms are maxima of linear forms in q over a hull's vertices, or |linear
forms| over a box's axes, a box being a zonotope; its 2-face terms are
|determinants| with columns turned by L_q over the pairs of 2-faces that
one fixed direction picks.  Each determinant is a form of degree at most 2
in q: L_q is a rotation (det L_q = |q|^4 = 1, L_q^T = L_qbar), so a
determinant with 3 or 4 columns turned is the one with the other 1 or 0
turned by L_qbar: turning two columns is enough.  |forms| equal up to
sign or rounding merge: two boxes sum at most 16 linear and 18 quadratic
ones, and two plates one, area1 area2 |q^T A q|, which also weighs their
intersection count.  The forms are fixed coefficients times the monomials
of q (``_det_form``), taken once per pair of bodies and kept
(``_WEIGHT_CACHE``).  A ball against a vertex hull takes the same mixed
volumes with the ball as a cube whose faces weigh powers of its radius
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
and the blocks and their weights work in their thread's resident workspace
(``_Workspace``), so a warm estimate allocates no large array at any N;
the threads that split the replicates are kept across estimates
(``_SLOTS``), with their workspaces.  The estimates are bit for bit those
of the plain computation.
"""

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement, product

import numpy as np

from .bodies import Ball, Box, PlanarPolygon, evaluate_many
from .linalg import invert_scalar_matrix
from .scalars import Rat, Scalar, ZERO
from .su2 import UNIT_LEFT, su2_basis, tasaki_density
from .tolerances import FORM_MERGE_TOL
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
# samples per block of a rotation weight (``_blocked``), at most: two
# axis-aligned boxes take 27 floats a sample (a sum, 10 monomials and 16
# |forms|), two rotated ones 45 (34 |forms|), two 4-simplices about 660
WEIGHT_BLOCK = 1 << 12
# floats in each thread's workspace (``_Workspace``): a block of MC_CHUNK
# points of 4 coordinates and their weights, then 29 floats for each of
# WEIGHT_BLOCK samples and 64 for the rounding of its arrays, more than a
# ball section's first coordinate or a rotation block's radii take: two
# rotated boxes weigh a replicate of 2,500 points (N = 40,000) in one block
WORKSPACE_FLOATS = 5 * MC_CHUNK + 29 * WEIGHT_BLOCK + 64

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


def _body_key(K):
    """A body's type and each field's shape and bytes, the fields read from
    its instance dict, which holds them alone: equal for bodies built from
    equal arrays, the key of the caches here."""
    arrays = map(np.asarray, vars(K).values())
    return (type(K).__name__, *((a.shape, a.tobytes()) for a in arrays))


def _keep(cache, size, key, value):
    """value, stored in cache under key, the oldest entry evicted first
    once the cache holds size of them."""
    if len(cache) >= size:
        del cache[next(iter(cache))]
    cache[key] = value
    return value


# evaluation vectors by (basis, ``_body_key``), oldest evicted first
VECTOR_CACHE_SIZE = 256
_VECTOR_CACHE = {}


def evaluation_vector(K, kind: str = "icosahedron") -> EvaluationVector:
    key = (kind, _body_key(K))
    if key in _VECTOR_CACHE:
        return _VECTOR_CACHE[key]
    basis = su2_basis(kind)
    values = tuple(evaluate_many([rep for _, rep in basis], K))
    return _keep(_VECTOR_CACHE, VECTOR_CACHE_SIZE, key,
                 EvaluationVector(tuple(label for label, _ in basis), values))


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
    clamped ones add their count times r, r^2 and r^3. Should the falling
    run's largest u, at the apex, round past r, its constant steps down an
    ulp until it does not. The rising run's never does: before the apex
    Y_k < -c exactly, and r + c rounds by nothing where r/2 <= -c <= 2r
    (Sterbenz), by less than -c - Y_k where -c > 2r, and by at most half an
    ulp of r where -c < r/2, so Y_k + (r + c) is below r + ulp(r)/2 before
    it rounds. So 0 < u <= r and 0 <= rho^2 < r^2 hold exactly. Terms whose
    coefficient is 0 are skipped."""
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
    """The rule (``_lattice_means``) of a pair weighted from q by volumes
    (``_blocked``): the unit quaternions of ``_rotation_lattice``, their
    weights written into the thread's workspace."""
    def lattice(n):
        rotate = _rotation_lattice(n)

        def weigh(d, start, out):
            rotate(d, start, out)
            q = out.reshape(4, -1)
            with _WORK as take:
                return volumes(q, take(q.shape[1])).reshape(len(d), -1).sum(axis=1)
        return weigh
    return 3, 1.0, lattice


def _blocked(kernel, per):
    """The weight volumes(q, vol) of a rotation pair, which writes the
    weights of the unit quaternions q, (4, B) columns, into vol (B,) and
    returns it: kernel(qb, vb, take) weighs each block qb of at most
    WEIGHT_BLOCK columns into its slice vb, in per floats a sample taken
    from the workspace past MC_CHUNK points and their weights (and 8 per
    array for its rounding), a multiple of 8 columns, so that every row of
    a block's arrays starts on a 64-byte step. So each product, at most
    (2-face pairs, 10) times (10, block), stays below the sizes at which
    OpenBLAS starts threads of its own, which would oversubscribe the
    estimate's threads. A column weighs the same in whichever block it
    falls."""
    block = min(WEIGHT_BLOCK, int((WORKSPACE_FLOATS - 5 * MC_CHUNK - 64) / per) // 8 * 8)

    def volumes(q, vol):
        for s in range(0, q.shape[1], block):
            with _WORK as take:
                kernel(q[:, s:s + block], vol[s:s + block], take)
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
    """The coefficients (..., C(b + 3, 3)) over the degree-b monomials of q
    (``_products``) of the determinants of 4x4 matrices, column j of each
    being cols[..., j, :], with the b <= 2 columns in moving turned by L_q.
    L_q x = sum_k q_k e_k x and the determinant is linear in each column, so
    it is the sum over the 4^b index tuples (k_1, ..., k_b) of q_k1 ... q_kb
    times the determinant with column moving[i] turned by e_ki, taken here
    once and summed onto the tuple's sorted monomial."""
    ks, fold = _index_tuples(len(moving))
    mats = np.repeat(cols[..., None, :, :], len(ks), axis=-3)
    for i, j in enumerate(moving):
        # row k of turned: unit k times column j
        turned = (_UNIT_LEFT @ cols[..., j, None, :, None])[..., 0]
        mats[..., j, :] = turned[..., ks[:, i], :]
    return np.linalg.det(np.swapaxes(mats, -1, -2)) @ fold


# the x of ``_mixed_volumes``: no plane spanned by two of a face's normal
# vectors holds it but by a coincidence of measure zero
_GENERIC = np.array([0.5772156649015329, -0.3183098861837907, 0.7390851332151607, 0.4142135623730951])


def _facet_directions(groups):
    """The directions (D, 4) of a body's 3-faces' normal cones, a facet's
    normal, or +-p where the cone is the line of p (a 3-dimensional hull's
    or a box's faces), and each face's 3-volume."""
    if 3 not in groups:
        return np.zeros((0, 4)), np.zeros(0)
    _, volumes, cones, perp = groups[3]
    if cones.shape[1]:
        return cones[:, 0], volumes
    return np.vstack([perp, -perp]).reshape(-1, 4), np.tile(volumes, 2)


def _normal_planes(groups):
    """A body's 2-faces' normal planes (F, 2, 4), spanned by their cones'
    c generators and then the complement basis; c; and each face's area
    over the square root of those vectors' Gram determinant."""
    _, volumes, cones, perp = groups[2]
    vecs = np.concatenate([cones, np.broadcast_to(perp, (len(volumes), 2 - cones.shape[1], 4))], axis=1)
    return vecs, cones.shape[1], volumes / np.sqrt(np.linalg.det(vecs @ vecs.swapaxes(1, 2)))


@lru_cache(maxsize=1)
def _unit_cube():
    """The cube [-1/2, 1/2]^4, whose faces and vertices a ball's weight
    scales, built on first use rather than at import."""
    return Box(np.zeros(4), np.full(4, 0.5))


def _mixed_side(P):
    """What ``_mixed_volumes`` reads of one body: its face groups
    (``face_groups``) by dimension, of which it reads those of dimension 2
    and 3, its support's vectors and weights, and its volume. A box is a
    zonotope, of support sum_i h_i |<a_i, .>| over its axes a_i (its
    rotation's columns) and half extents h_i (Shephard 1974). A ball of
    radius r takes the unit cube's 2- and 3-faces in the identity frame,
    weighing pi^2/4 r^3 and pi/2 r^2, its axes weighing 3 pi/16 r (the
    cube's support times 3 pi/8 r) and its own volume kappa_4 r^4; so a
    ball of radius 0 weighs 0 on every face. A vertex hull's support is the
    maximum over its vertices less their mean, of weights None."""
    if isinstance(P, Ball):
        r = P.radius
        weights = {3: math.pi ** 2 / 4.0 * r ** 3, 2: math.pi / 2.0 * r ** 2}
        groups = {frames.shape[1]: (frames, np.full(len(volumes), weights[frames.shape[1]]), cones, perp)
                  for frames, volumes, cones, perp in _unit_cube().face_groups() if frames.shape[1] in weights}
        return groups, np.eye(4), np.full(4, 3.0 * math.pi / 16.0 * r), P.volume()
    groups = {g[0].shape[1]: g for g in P.face_groups()}
    if isinstance(P, Box):
        return groups, P.rotation.T, P.half_extents, P.volume()
    verts = P._hull()
    return groups, verts - verts.mean(axis=0), None, P.volume()


def _merged(rows, weights):
    """The |forms| of coefficient rows (n, m), weighing weights (n,) >= 0,
    as fewer rows with their weights folded in. A row is flipped so that
    its first coefficient past FORM_MERGE_TOL of the largest is positive,
    and rows within that bound of each other are one, the first, weighing
    their sum: rows equal up to sign (one box's axes against another's
    3-faces, and those against its own) or up to rounding (the
    complementary minors of two boxes' 2-face pairs, by Jacobi). A lone
    row gets a row of zeros: BLAS takes one row as a matrix-vector product,
    which rounds a block's last columns otherwise than the rest."""
    if not len(rows):
        return rows
    bound = FORM_MERGE_TOL * np.abs(rows).max()
    first = (np.abs(rows) > bound).argmax(axis=1)
    rows = rows * np.where(rows[np.arange(len(rows)), first] < 0, -1.0, 1.0)[:, None]
    # each row's first near row, followed until it is its own
    near = (np.abs(rows[:, None] - rows).max(axis=2) <= bound).argmax(axis=1)
    while np.any(near[near] != near):
        near = near[near]
    keep = np.flatnonzero(near == np.arange(len(rows)))
    rows = rows[keep] * np.bincount(near, weights, len(rows))[keep, None]
    return np.vstack([rows, np.zeros_like(rows)]) if len(rows) == 1 else rows


def _mixed_volumes(K, L):
    """The weight (``_blocked``) q -> vol(K - L_q L) of any two boxes,
    balls and vertex hulls (simplices of 1 to 5 vertices and planar
    polygons) but a ball against a ball or a box, by mixed volumes over
    their faces and supports (``_mixed_side``): with M = -L_q L,
    vol(K + M) = vol K + vol M + 4 V(K[3], M) + 6 V(K[2], M[2]) +
    4 V(K, M[3]) (Schneider, Convex Bodies, 2014, 5.1). 4 V(K[3], M) sums
    vol_3(F) h_M(u) over K's 3-faces F and the directions u of their normal
    cones: h_M(u) is the maximum of -<u, L_q l> over L's vertices l, or
    sum h_l |<u, L_q l>| over a zonotope's axes l; 4 V(K, M[3]) likewise
    sums vol_3(G) h_K(-L_q u) over L's 3-faces G. Each <a, L_q b> is a
    linear form in q, taken with a from K and b from L in one product, so
    that equal forms are equal bit for bit, and the |forms| merge
    (``_merged``): two boxes read 16 where their two sides give 64.

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
    every angle with another, and x lies in none): no tolerance. A box's or
    a polygon's 2-face cones hold no generator, so two such bodies test
    none: every pair counts, its |den| merged with the linear |forms|. Two
    boxes read 18 of 36, and two plates one, area1 area2 |det [F1^T |
    L_q F2^T]|, also their intersection count's weight. Two hulls whose
    dimensions add to less than 4 have no pair of 2-faces and 3-faces only
    against one vertex, 0 less the vertices' mean: the volume is 0 exactly.

    A ball K of radius r enters as the unit cube in the identity frame,
    weighted (``_mixed_side``): its 3-faces sum M's ranges on the axes times
    pi^2/4 r^3, its 2-faces M's areas on the coordinate planes times
    pi/2 r^2, and its axes M's 3-volumes on the coordinate 3-spaces, half
    the sum of vol_3(G) |<e_l, L_q u>| over M's 3-faces (Cauchy), times
    3 pi/8 r: each j-dimensional shadow of L_q L weighs kappa_4 / kappa_j
    r^(4 - j), kappa_j the volume of the unit j-ball, beside kappa_4 r^4 +
    vol L. That sum is vol(L + r B^4), the motion integral, in its mean over
    Haar q, not at each q (Steiner and Kubota, ibid., 5.3). Steiner gives
    vol(L + r B) = sum_j kappa_(4-j) r^(4-j) V_j(L), and Kubota gives V_j(L)
    as C(4, j) kappa_4 / (kappa_j kappa_(4-j)) times the mean over j-planes
    E of vol_j(L | E). The shadow of L_q L on E is that of L on L_q^T E. L_q
    takes an axis or a 3-space to one whose normal is uniform on S^3, so
    each of the C(4, j) coordinate ones has the mean shadow. L_q keeps a
    2-plane's class, the u in S^2 with f = e u for an orthonormal basis
    (e, f) of it, and the mean area over the planes of one class is
    quadratic in u, as the degree-2 SU(2)-invariant valuations Z_u are. The
    six coordinate planes carry the classes +-i, +-j and +-k, two planes
    each, and that octahedron is a spherical 3-design (Delsarte, Goethals &
    Seidel 1977): their mean of a quadratic in u is its mean over S^2."""
    groups, vecs, weights, sizes = zip(*map(_mixed_side, (K, L)))
    (u_K, vol_K), (u_L, vol_L) = map(_facet_directions, groups)
    # the 3-face terms, a row of q's coefficients in -<a, L_q b> per pair
    # (a, b): K's directions against L's support, then K's support against
    # L's directions, by (direction, vector). A row weighs its face's
    # 3-volume, in the form under a hull's maximum, and outside it, times
    # the axis's weight, for a zonotope's |forms|
    sides = [(u_K, vol_K, vecs[1], weights[1]), (u_L, vol_L, vecs[0], weights[0])]
    pairs = [(np.repeat(u, len(v), axis=0), np.tile(v, (len(u), 1))) for u, _, v, _ in sides]
    a, b = np.concatenate([pairs[0][0], pairs[1][1]]), np.concatenate([pairs[0][1], pairs[1][0]])
    inside = np.concatenate([np.repeat(vol, len(v)) if h is None else np.ones(len(u) * len(v))
                             for u, vol, v, h in sides])
    forms = np.split(-np.einsum("n,ni,kij,nj->nk", inside, a, _UNIT_LEFT, b), [len(pairs[0][0])])
    # each sum of maxima: its forms' rows, its maxima's rows and its vertex
    # count; the linear |forms| and their weights
    hull, maxima, linear, scale = [np.zeros((0, 4))], [], [np.zeros((0, 4))], [np.zeros(0)]
    S = D = 0
    for part, (u, vol, v, h) in zip(forms, sides):
        if h is None:
            hull.append(part)
            maxima.append((slice(S, S + len(part)), slice(D, D + len(u)), len(v)))
            S, D = S + len(part), D + len(u)
        else:
            linear.append(part)
            scale.append(np.outer(vol, h).ravel())
    hull = np.concatenate(hull)
    # per pair of 2-faces, the denominator, weighted, then a numerator per
    # generator: degree 2 with x for one of K's, 1 with x for one of L's;
    # with no generator, the denominators alone, as |forms|
    rows, quadratic, area = [], np.zeros((0, 10)), np.zeros(0)
    if 2 in groups[0] and 2 in groups[1]:
        (a, c_K, w_K), (b, c_L, w_L) = map(_normal_planes, groups)
        cols = np.concatenate(np.broadcast_arrays(a[:, None], b[None]), axis=2)
        den = _det_form(cols, (2, 3))
        if c_K + c_L:
            rows.append(np.outer(w_K, w_L)[..., None] * den)
        else:
            quadratic, area = den.reshape(-1, 10), np.outer(w_K, w_L).ravel()
        for j in [*range(c_K), *range(2, 2 + c_L)]:
            at = cols.copy()
            at[:, :, j] = _GENERIC
            rows.append(_det_form(at, (2, 3) if j < 2 else (5 - j,)))
        rows = [r.reshape(-1, r.shape[-1]) for r in rows]
    linear, quadratic = _merged(np.concatenate(linear), np.concatenate(scale)), _merged(quadratic, area)
    c0 = sizes[0] + sizes[1]
    Z, Y, R, P = len(linear), len(quadratic), len(rows), len(rows[0]) if rows else 0

    def kernel(q, vol, take):
        B = q.shape[1]
        sums = take(B)
        vol.fill(c0)
        if S:
            # h per direction: the max over the other body's vertices
            h, top = np.matmul(hull, q, out=take(S, B)), take(D, B)
            for form_rows, top_rows, m in maxima:
                by_vertex, t = h[form_rows].reshape(-1, m, B), top[top_rows]
                np.copyto(t, by_vertex[:, 0])
                for v in range(1, m):
                    np.maximum(t, by_vertex[:, v], out=t)
            vol += np.add.reduce(top, axis=0, out=sums)
        if Y or P:
            products = _products(q, take(10, B))
        if Z or Y:
            t = take(Z + Y, B)
            if Z:
                np.matmul(linear, q, out=t[:Z])
            if Y:
                np.matmul(quadratic, products, out=t[Z:])
            vol += np.add.reduce(np.abs(t, out=t), axis=0, out=sums)
        if P:
            tests = take(R, P, B)
            for r, form in zip(tests, rows):
                np.matmul(form, products if form.shape[1] == 10 else q, out=r)
            positive = np.greater(tests, 0, out=take(R, P, B, dtype=bool))
            every = np.logical_and.reduce(positive, axis=0, out=take(P, B, dtype=bool))
            some = np.logical_or.reduce(positive, axis=0, out=take(P, B, dtype=bool))
            # a pair counts when every row is positive or none is
            den = np.abs(tests[0], out=tests[0])
            den *= np.greater_equal(every, some, out=every)
            vol += np.add.reduce(den, axis=0, out=sums)
    # floats per sample: a sum, the forms, their maxima, the monomials, the
    # |forms|, and a byte per test, all and any
    return _blocked(kernel, 1 + S + D + 10 * bool(Y or P) + Z + Y + R * P + (R + 2) * P / 8)


def _translation_volumes(K, L):
    """q -> vol(K - L_q L), the translation integral of chi(K . (L_q L + t)),
    by mixed volumes (``_mixed_volumes``); against a ball, their mean over
    q is the motion integral. The motion measure is unchanged by
    g -> g^-1, so a vertex hull against a box or a ball takes that body as
    K, the same function of the same q in either order."""
    if isinstance(L, (Ball, Box)) and not isinstance(K, (Ball, Box)):
        K, L = L, K
    return _mixed_volumes(K, L)


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


# the rotation pairs' weights (``_translation_volumes``) by their bodies'
# ``_body_key``s, oldest evicted first: setting up a pair's forms costs more
# than a small estimate of it
WEIGHT_CACHE_SIZE = 32
_WEIGHT_CACHE = {}


def _rule(K, L):
    """The lattice rule (``_lattice_means``) of the pair's motion integral:
    the sections of a ball against a ball or a box, two balls being a box
    of half extents 0 against a ball of their radius sum, and the rotations
    of every other pair, weighed by ``_translation_volumes``, built once per
    pair of bodies (``_WEIGHT_CACHE``)."""
    ball, other = (K, L) if isinstance(K, Ball) else (L, K)
    if isinstance(ball, Ball) and isinstance(other, Ball):
        return _section_rule(np.zeros(4), K.radius + L.radius)
    if isinstance(ball, Ball) and isinstance(other, Box):
        return _section_rule(other.half_extents, ball.radius)
    key = (_body_key(K), _body_key(L))
    volumes = _WEIGHT_CACHE.get(key)
    if volumes is None:
        volumes = _keep(_WEIGHT_CACHE, WEIGHT_CACHE_SIZE, key, _translation_volumes(K, L))
    return _rotation_rule(volumes)


def _lattice_means(rule, n, seed, threads):
    """The REPLICATES mean weights of a rule over its n-point rank-1
    lattice in [0, 1)^s, replicate idx under the shift of s uniforms of
    default_rng([seed, idx]) (Cranley & Patterson 1976): s = 1 for a ball
    against a ball or a box (``_section_rule``) and 3 for the rotations
    (``_rotation_rule``). A rule is (s, scale, lattice): lattice(n) gives
    weigh(d, start, out), which scores points start, ..., start + size - 1
    of the lattice under each of R shifts, the rows of d (R, s), with out
    (4, R, size) to work in, and returns their summed weights per shift; a
    replicate's mean is scale times its sum over n. A unit is a group of
    shifts, scored together in blocks of MC_CHUNK points: all REPLICATES of
    them when their lattices fit in one block, else one. The threads split
    the units; the grouping depends on n alone, so the means depend only on
    (seed, n), whatever the threads.

    Every block, and whatever lattice(n) takes for the call, is taken from
    the running thread's workspace (``_Workspace``), which outlives the
    call: an estimate's steady state allocates no large array, whatever the
    allocator's thresholds."""
    s, scale, lattice = rule
    shifts = np.array([np.random.default_rng([seed, idx]).random(s) for idx in range(REPLICATES)])
    group = REPLICATES if REPLICATES * n <= MC_CHUNK else 1
    step = MC_CHUNK // group
    with _WORK:
        weigh = lattice(n)

        def unit(idx):
            d = shifts[idx * group:(idx + 1) * group]
            totals = np.zeros(group)
            with _WORK as take:
                block = take(4, group, min(step, n))
                for start in range(0, n, step):
                    totals += weigh(d, start, block[..., :min(step, n - start)])
            return (scale * totals / n).tolist()
        return [mean for means in _run_units(unit, REPLICATES // group, threads) for mean in means]


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
