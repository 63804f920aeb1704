"""Convex bodies and numeric evaluation of valuations over their normal cycles.

A ball's normal cycle is a sphere graph, on which every valuation has a closed
form (``valuation.ball_value``).  Any other body's normal cycle decomposes
into pieces face x spherical simplex: a face with an orthonormal frame and a
k-volume, times a simplex of its normal region given by m linearly
independent unit generators.  Each polytope class builds its pieces as arrays
by shape (k, m) (``pieces``), oriented by the sign of det[frame | generators],
the convention under which the Euler characteristic of every body is +1.

Every piece is integrated exactly, through the spherical moments of its cell,
which its generator count m alone makes a point (m = 1), an arc (m = 2) or
a geodesic triangle (m = 3).  The vertex cones of a polytope tile the
sphere, so its vertex pieces together give the valuation's value on a
point, ``valuation.ball_value`` at radius 0, whose exact coefficients are
summed exactly and rounded once; the pieces cover only faces of dimension
>= 1, and a point has none.  That covers every cell of boxes, points,
segments, polygons and simplices in R^2 to R^4; a cone of four or more
generators, which only bodies in R^n with n >= 5 have on a face of
dimension >= 1, raises ``ValueError``.
Several valuations on one body share one pass over its pieces
(``evaluate_many``), their cells and moments computed once per shape for all
the valuations.  A tube value is the Taylor sum of t^k / k! (Lambda^k mu)(K)
over the derivation's chain, evaluated in one such pass (``evaluate_tube``),
and so is the Steiner volume.  The Klain density of an even degree-k
valuation on a k-plane is k! times its value on the simplex of an
orthonormal frame of the plane (``klain``).  A form's monomials are read
from its split vectors in one fixed order (``_closed_form_terms``), kept
per form in a bounded LRU on its vectors (``columns._cached_on_vectors``).

Each body class carries its own volume, rigid motion ``moved(R, t)`` for
x -> R x + t, and, except the ball, its faces grouped by dimension
(``face_groups``), from which it builds its pieces, and its vertices
(``_hull``).  The Monte Carlo weighs a vertex hull against a box or
another hull by mixed volumes over these groups and vertices, and against a
ball over a cube's, weighted by the ball's radius.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, combinations, product
from typing import NamedTuple

import numpy as np

from .columns import _cached_on_vectors, _join_vectors, _ordered_terms
from .tolerances import (
    CONVEXITY_TOL,
    DEGENERATE_PIECE_TOL,
    ORTHONORMAL_TOL,
    RANK_TOL,
)
from .valuation import ValuationRep, ball_value, ball_volume, derivation

def _finite(values, name):
    a = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be finite")
    return a


def _as_matrix(rows, name):
    a = _finite(rows, name)
    if a.ndim != 2:
        raise ValueError(f"{name} must be a matrix")
    return a


def _row_norms(x):
    """Euclidean norms over the last axis.

    The squares are summed left to right as explicit column sums, the order
    in which ``np.linalg.norm`` adds a row of fewer than 8 entries, so the
    values are the same bits without its reduction machinery.
    """
    total = x[..., 0] * x[..., 0]
    for k in range(1, x.shape[-1]):
        total = total + x[..., k] * x[..., k]
    return np.sqrt(total)


def _check_orthonormal(a, name, tol=ORTHONORMAL_TOL):
    g = a @ a.T
    if not np.allclose(g, np.eye(a.shape[0]), rtol=0, atol=tol):
        raise ValueError(f"{name} must have orthonormal rows")


def _complement_basis(rows):
    """Orthonormal basis of the orthogonal complement of the rows of a matrix."""
    _, s, vt = np.linalg.svd(rows)
    return vt[int(np.sum(s > RANK_TOL)):]


def _simplex_facet_normals(verts):
    """Unit outer normals of the facets of a simplex within its affine hull,
    row j for the facet opposite vertex j: the negated unit gradients of the
    barycentric coordinates, for vertices 1, 2, ... the rows of the
    pseudo-inverse of E^T, E the edges from vertex 0, and for vertex 0 minus
    their sum."""
    edges = verts[1:] - verts[0]
    grads = np.linalg.pinv(edges.T)
    grads = np.vstack([-grads.sum(axis=0), grads])
    return -grads / _row_norms(grads)[:, None]


def _pieces(groups):
    """A polytope's normal cycle as pieces face x spherical simplex, by shape
    (k, m): face frames (P, k, n), cone generators (P, m, n) and face volumes
    signed by the orientation (-1)^k sign det[frame | generators].

    Each group holds faces of one dimension k (``face_groups``): orthonormal
    frames (F, k, n), k-volumes (F,), the generators of their normal cones
    within the body's affine hull (F, c, n), and orthonormal bases of the
    hull's orthogonal complement (F, d, n), or one (d, n) for all.  A face
    gives one piece per orthant of the complement, + before -, the last sign
    fastest; a face of volume 0 or with no generators gives none.  A
    degenerate piece, whose frame and generators are dependent, raises
    ``ValueError`` naming its face dimension and its place in its shape.
    """
    out = {}
    for frames, volumes, cones, perp in groups:
        k, n = frames.shape[1:]
        c, d = cones.shape[1], perp.shape[-2]
        keep = volumes != 0.0
        if not c + d or not keep.any():
            continue
        perp = np.broadcast_to(perp, (len(frames), d, n))[keep]
        signs = np.array(list(product((1.0, -1.0), repeat=d))).reshape(2 ** d, d)
        F, S = int(keep.sum()), len(signs)
        faces = np.repeat(frames[keep], S, axis=0)
        gens = np.concatenate([np.broadcast_to(cones[keep][:, None], (F, S, c, n)),
                               signs[:, :, None] * perp[:, None]], axis=2)
        gens = gens.reshape(F * S, c + d, n)
        det = np.linalg.det(np.concatenate([faces, gens], axis=1))
        bad = np.flatnonzero(np.abs(det) < DEGENERATE_PIECE_TOL)
        if len(bad):
            raise ValueError(f"degenerate normal-cycle piece: face of dimension {k}, "
                             f"piece {bad[0]}, |det| = {abs(det[bad[0]]):.3e}")
        volume = np.repeat(volumes[keep], S)
        out[(k, c + d)] = faces, gens, (-1.0) ** k * np.where(det > 0, 1.0, -1.0) * volume
    return out


class _Polytope:
    """A body given by its faces (``face_groups``)."""

    def pieces(self):
        """The normal cycle's pieces of the face groups, by shape (``_pieces``)."""
        return _pieces(self.face_groups())


@dataclass(frozen=True, eq=False)
class Ball:
    center: np.ndarray
    radius: float

    def __init__(self, center, radius):
        object.__setattr__(self, "center", _finite(center, "center"))
        object.__setattr__(self, "radius", float(_finite(radius, "radius")))
        if self.center.ndim != 1:
            raise ValueError("center must be a vector")
        if self.radius < 0:
            raise ValueError("radius must be nonnegative")

    @property
    def dim(self):
        return len(self.center)

    def volume(self) -> float:
        """Lebesgue volume (zero for the lower-dimensional bodies)."""
        return float(ball_volume(self.dim)) * self.radius ** self.dim

    def moved(self, R, t):
        """Image under x -> R x + t."""
        return Ball(R @ self.center + t, self.radius)


@dataclass(frozen=True, eq=False)
class Box(_Polytope):
    center: np.ndarray
    half_extents: np.ndarray
    rotation: np.ndarray

    def __init__(self, center, half_extents, rotation=None):
        center = _finite(center, "center")
        half = _finite(half_extents, "half_extents")
        n = len(center)
        if half.shape != (n,):
            raise ValueError("half_extents must match the center dimension")
        if np.any(half <= 0):
            raise ValueError("half extents must be positive")
        rot = np.eye(n) if rotation is None else _as_matrix(rotation, "rotation")
        if rot.shape != (n, n):
            raise ValueError("rotation must be square of matching dimension")
        _check_orthonormal(rot, "rotation")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "half_extents", half)
        object.__setattr__(self, "rotation", rot)

    @property
    def dim(self):
        return len(self.center)

    def volume(self) -> float:
        return float(np.prod(2.0 * self.half_extents))

    def moved(self, R, t):
        return Box(R @ self.center + t, self.half_extents, R @ self.rotation)

    def _hull(self):
        """The 2^n vertices, center + R (s * half_extents) for the sign
        vectors s in ``product`` order."""
        signs = np.array(list(product((-1.0, 1.0), repeat=self.dim)))
        return self.center + (signs * self.half_extents) @ self.rotation.T

    def face_groups(self):
        """The faces of dimension 1 to n - 1 (``_pieces``) by their free
        axes, in ``combinations`` order; a face's normal cone is the span of
        its fixed axes, so it gives one piece per orthant of them."""
        n = self.dim
        axes, edges = self.rotation.T, 2.0 * self.half_extents
        groups = []
        for k in range(1, n):
            free = _subsets(n, k)[0]
            volumes = np.prod(edges[free], axis=1)
            fixed = _subsets(n, n - k)[0][::-1]  # row i: the axes not in free's row i
            groups.append((axes[free], volumes, np.zeros((len(free), 0, n)), axes[fixed]))
        return groups


@dataclass(frozen=True, eq=False)
class Simplex(_Polytope):
    vertices: np.ndarray

    def __init__(self, vertices):
        verts = _as_matrix(vertices, "vertices")
        n = verts.shape[1]
        if not 1 <= verts.shape[0] <= n + 1:
            raise ValueError("a simplex in R^n has between 1 and n+1 vertices")
        edges = verts[1:] - verts[0]
        if len(edges) and np.linalg.matrix_rank(edges, tol=RANK_TOL) < len(edges):
            raise ValueError("vertices are affinely dependent")
        object.__setattr__(self, "vertices", verts)

    @property
    def dim(self):
        return self.vertices.shape[1]

    def _hull(self):
        return self.vertices

    def volume(self) -> float:
        if len(self.vertices) != self.dim + 1:
            return 0.0
        edges = self.vertices[1:] - self.vertices[0]
        return abs(float(np.linalg.det(edges))) / math.factorial(self.dim)

    def moved(self, R, t):
        return Simplex(self.vertices @ R.T + t)

    def face_groups(self):
        """The faces of dimension >= 1 (``_pieces``) by their vertex sets,
        in ``combinations`` order, one group per dimension; a face's cone is
        spanned by the facet normals of the vertices it omits. A point has
        none."""
        verts = self.vertices
        kt = len(verts) - 1
        if not kt:
            return []
        perp = _complement_basis(verts[1:] - verts[0])
        normals = _simplex_facet_normals(verts)
        groups = []
        for size in range(2, kt + 2):
            subsets = _subsets(kt + 1, size)[0]
            others = _subsets(kt + 1, kt + 1 - size)[0][::-1]  # row i: the rest
            # frames from one stacked QR, volumes from one stacked Gram determinant
            fverts = verts[subsets]
            edges = fverts[:, 1:] - fverts[:, :1]
            frames = np.linalg.qr(edges.transpose(0, 2, 1))[0].transpose(0, 2, 1)
            gram = np.linalg.det(edges @ edges.transpose(0, 2, 1))
            volumes = np.sqrt(np.maximum(gram, 0.0)) / math.factorial(size - 1)
            groups.append((frames, volumes, normals[others], perp))
        return groups


@dataclass(frozen=True, eq=False)
class PlanarPolygon(_Polytope):
    frame: np.ndarray
    vertices2d: np.ndarray
    base: np.ndarray

    def __init__(self, frame, vertices2d, base=None):
        frame = _as_matrix(frame, "frame")
        verts = _as_matrix(vertices2d, "vertices2d")
        if frame.shape[0] != 2:
            raise ValueError("frame must consist of two rows")
        n = frame.shape[1]
        _check_orthonormal(frame, "frame")
        if verts.shape[0] < 3 or verts.shape[1] != 2:
            raise ValueError("need at least three planar vertices")
        m = verts.shape[0]
        for i in range(m):
            a, b, c = verts[i - 1], verts[i], verts[(i + 1) % m]
            cross = (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])
            if cross <= CONVEXITY_TOL:
                raise ValueError("polygon must be convex and counterclockwise")
        base = np.zeros(n) if base is None else _finite(base, "base")
        if base.shape != (n,):
            raise ValueError("base point must match the frame dimension")
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "vertices2d", verts)
        object.__setattr__(self, "base", base)

    @property
    def dim(self):
        return self.frame.shape[1]

    def embedded_vertices(self):
        return self.base + self.vertices2d @ self.frame

    _hull = embedded_vertices

    @property
    def area(self):
        """Shoelace area of the counterclockwise polygon in its plane."""
        v = self.vertices2d
        m = len(v)
        area = 0.0
        for i in range(m):
            a, b = v[i], v[(i + 1) % m]
            area += 0.5 * (a[0] * b[1] - a[1] * b[0])
        return float(area)

    def volume(self) -> float:
        return self.area if self.dim == 2 else 0.0

    def moved(self, R, t):
        return PlanarPolygon(self.frame @ R.T, self.vertices2d, R @ self.base + t)

    def face_groups(self):
        """The faces of dimension >= 1 (``_pieces``): the polygon itself,
        then its edges."""
        n = self.dim
        perp = _complement_basis(self.frame)
        # edge i runs vertices2d[i] -> vertices2d[i+1]; its embedded direction, outer normal
        e = np.roll(self.vertices2d, -1, axis=0) - self.vertices2d
        lengths = _row_norms(e)
        dirs = (e[:, :1] * self.frame[0] + e[:, 1:] * self.frame[1]) / lengths[:, None]
        normals = (e[:, 1:] * self.frame[0] - e[:, :1] * self.frame[1]) / lengths[:, None]
        return [
            (self.frame[None], np.array([self.area]), np.zeros((1, 0, n)), perp),
            (dirs[:, None], lengths, normals[:, None], perp),
        ]


# -- exact cells -----------------------------------------------------------------
#
# A cell is integrated through its moments, the integrals of y^a over the cell
# for every monomial a, where v = y E in an orthonormal frame E of the span of
# its m generators.  The generator count alone picks the closed form:
#   point:    m = 1, every moment 1;
#   arc:      m = 2, generators at angle theta in (0, pi),
#             int y^a = int_0^theta cos^a_0 sin^a_1 (``_arc_integrals``);
#   triangle: m = 3, a geodesic triangle on S^2 (``_triangle_moments``).
# Vertex cells need no rule of their own (``_point_value``).  That leaves
# cones of four or more generators on faces of dimension >= 1, which only
# bodies in R^n with n >= 5 have: they raise.
# The pieces of one shape (k, m) are integrated together: ``_classify`` and
# ``_moments`` take them as arrays, and each form takes one contraction.


@lru_cache(maxsize=None)
def _monomials(nvars, degree):
    """Exponent tuples of one degree in nvars variables, and their positions."""
    if nvars == 1:
        exps = ((degree,),)
    else:
        exps = tuple((i,) + rest for i in range(degree, -1, -1)
                     for rest in _monomials(nvars - 1, degree - i)[0])
    return exps, {e: k for k, e in enumerate(exps)}


def _moment_position(n, e):
    """Position of v^e among the monomials of degree 0, 1, ... laid end to end."""
    d = sum(e)
    return sum(len(_monomials(n, j)[0]) for j in range(d)) + _monomials(n, d)[1][e]


def _shifted(e, i, step):
    return e[:i] + (e[i] + step,) + e[i + 1:]


@lru_cache(maxsize=None)
def _lowering(nvars, degree):
    """Per monomial of the degree: its first variable i and the position of the
    monomial divided by v_i among those of degree - 1."""
    exps = _monomials(nvars, degree)[0]
    lower = _monomials(nvars, degree - 1)[1]
    var = [next(i for i, a in enumerate(e) if a) for e in exps]
    parent = [lower[_shifted(e, i, -1)] for e, i in zip(exps, var)]
    return np.array(var), np.array(parent)


@lru_cache(maxsize=None)
def _raising(nvars, degree):
    """Row k: positions of (each monomial of degree - 1) * y_k in the degree."""
    lower = _monomials(nvars, degree - 1)[0]
    index = _monomials(nvars, degree)[1]
    return np.array([[index[_shifted(e, k, 1)] for e in lower]
                     for k in range(nvars)]).reshape(nvars, len(lower))


# the degrees up to which ``_derivatives`` keeps its dense arrays: above the
# basis evaluations' (1 and 2); a higher degree's are built per call, as its
# arrays take megabytes (7 MB at degree 30)
DERIVATIVES_KEPT = 8


@lru_cache(maxsize=DERIVATIVES_KEPT)
def _derivatives(degree):
    """Laplacian and gradient of the monomials of the degree in three variables:
    ``lap[r]`` holds the coefficients of Delta y^e_r over the monomials of
    degree - 2, ``grad[i, r]`` those of d/dy_i y^e_r over degree - 1."""
    exps = _monomials(3, degree)[0]
    lower = _monomials(3, degree - 1)[1]
    lower2 = _monomials(3, degree - 2)[1] if degree >= 2 else {}
    lap = np.zeros((len(exps), len(lower2)))
    grad = np.zeros((3, len(exps), len(lower)))
    for r, e in enumerate(exps):
        for i, a in enumerate(e):
            if a:
                grad[i, r, lower[_shifted(e, i, -1)]] = a
            if a > 1:
                lap[r, lower2[_shifted(e, i, -2)]] = a * (a - 1)
    return lap, grad


def _atan2(y, x):
    """math.atan2 over arrays: numpy's arctan2 loads 0.1 MB of code for a few angles."""
    return np.array(list(map(math.atan2, y.tolist(), x.tolist())))


def _arc_integrals(theta, degree):
    """F[p, a, b] = integral of cos^a sin^b over [0, theta_p], for a + b <= degree."""
    c, s = np.cos(theta), np.sin(theta)
    F = np.zeros((len(theta), degree + 1, degree + 1))
    F[:, 0, 0] = theta
    if degree:
        F[:, 0, 1] = 2.0 * np.sin(theta / 2.0) ** 2
    for b in range(2, degree + 1):
        F[:, 0, b] = ((b - 1) * F[:, 0, b - 2] - s ** (b - 1) * c) / b
    for b in range(degree):
        F[:, 1, b] = s ** (b + 1) / (b + 1)
    for a in range(2, degree + 1):
        for b in range(degree + 1 - a):
            F[:, a, b] = (c ** (a - 1) * s ** (b + 1) + (a - 1) * F[:, a - 2, b]) / (a + b)
    return F


def _arc_moments(theta, degree):
    """Moments of arcs of angles theta (P,), per degree: y^a = y_0^a_0 y_1^a_1
    integrates to F[a_0, a_1] of ``_arc_integrals``, in polar coordinates
    from the first generator."""
    F = _arc_integrals(theta, degree)
    return [F[:, np.arange(d, -1, -1), np.arange(d + 1)] for d in range(degree + 1)]


def _triangle_moments(corners, degree):
    """Moments of the geodesic triangles T on S^2 with the given corners
    (P, 3, 3), per degree.

    The corners have a positive determinant, as in the frame of their cell.

    Degree 0 is the solid angle (Van Oosterom and Strackee, "The solid angle
    of a plane triangle", 1983).  On S^2 a homogeneous P of degree d has
    Delta_S P = Delta P - d(d+1) P, and by the divergence theorem the integral
    of Delta_S P over T is the flux of grad P through the boundary, so

        int_T P = (int_T Delta P - sum over arcs of int grad P . nu ds) / (d(d+1))

    with nu the outward unit normal of the arc's great circle.  On a harmonic
    of degree d this is int_T h = -flux(h) / (d(d+1)); Delta P carries the
    lower harmonics of P's Fischer decomposition, so P need not be split.  The
    arc integrals are the moments of two-generator arc cells, all 3P of them
    at once.
    """
    u = corners / _row_norms(corners)[..., None]
    g = u @ u.transpose(0, 2, 1)
    out = [2.0 * _atan2(np.linalg.det(u), 1.0 + g[:, 0, 1] + g[:, 1, 2] + g[:, 2, 0])[:, None]]
    if not degree:
        return out
    # the arcs ab, bc and ca of every triangle
    a, b, c = u.transpose(1, 0, 2)
    x, z = np.concatenate([a, b, c]), np.concatenate([b, c, a])
    normal = np.cross(x, z)  # points into T
    s = _row_norms(normal)
    normal = normal / s[:, None]
    cos = np.concatenate([g[:, 0, 1], g[:, 1, 2], g[:, 2, 0]])
    arc = _frame_moments(np.stack([x, np.cross(normal, x)], axis=1),
                         _arc_moments(_atan2(s, cos), degree - 1))
    for d in range(1, degree + 1):
        # the arrays of a degree past DERIVATIVES_KEPT are built, not kept
        lap, grad = (_derivatives if d <= DERIVATIVES_KEPT else _derivatives.__wrapped__)(d)
        # flux (P, 3, monomials of degree d - 1), summed over the three arcs
        flux = -(normal[:, :, None] * arc[d - 1][:, None]).reshape(3, len(u), 3, -1).sum(axis=0)
        total = -np.einsum("irk,pik->pr", grad, flux)
        if d >= 2:
            total += out[d - 2] @ lap.T
        out.append(total / (d * (d + 1)))
    return out


def _frame_moments(frame, y):
    """Integrals of v^e over cells with frames (P, m, n), one (P, monomials)
    array per degree d (monomials e in ``_monomials`` order), from y[d], their
    moments of the monomials of degree d in the frame coordinates v = y E.

    ``sub`` holds the y-coefficients of (y E)^e, one row per monomial e of the
    current degree, built from the degree below by one factor (y E)_i each.
    """
    P, m, n = frame.shape
    sub = np.ones((P, 1, 1))
    out = []
    for d, yd in enumerate(y):
        if d:
            var, parent = _lowering(n, d)
            up = _raising(m, d)
            prev = sub[:, parent]
            sub = np.zeros((P, len(var), len(_monomials(m, d)[0])))
            for k in range(m):
                sub[:, :, up[k]] += frame[:, k, var][:, :, None] * prev
        out.append(np.einsum("pij,pj->pi", sub, yd))
    return out


class _Cells(NamedTuple):
    """Spherical cells of one shape, as arrays over the P cells."""
    frame: np.ndarray   # (P, m, n) orthonormal rows E spanning each cell, v = y E
    local: np.ndarray   # (P, m, m) the generators in frame coordinates, g E^T
    theta: np.ndarray   # (P,) an arc's angle, None unless m = 2


def _classify(gens):
    """The cells spanned by generators (P, m, n): their frames, orthonormal
    bases of the spans by Gram-Schmidt in the generators' order, and for
    m = 2 the arcs' angles.  A cone of four or more generators has no exact
    rule and raises ``ValueError``."""
    P, m, n = gens.shape
    if m > 3:
        raise ValueError(f"no exact rule for a normal cone of {m} generators in R^{n}")
    q, r = np.linalg.qr(gens.transpose(0, 2, 1))
    flip = np.sign(np.diagonal(r, axis1=1, axis2=2))
    frame = (q * flip[:, None, :]).transpose(0, 2, 1)
    local = gens @ frame.transpose(0, 2, 1)
    theta = _atan2(flip[:, 1] * r[:, 1, 1], flip[:, 0] * r[:, 0, 1]) if m == 2 else None
    return _Cells(frame, local, theta)


def _moments(cells, degree):
    """Integrals of v^e over each cell, one row per cell, for every monomial e
    of degree 0 up to the given, laid end to end as ``_moment_position``
    numbers them; those of one degree do not depend on the top degree.  The
    generator count m picks the cell's closed form: a point, an arc or a
    triangle."""
    P, m, _ = cells.frame.shape
    if m == 1:
        y = [np.ones((P, 1))] * (degree + 1)
    elif m == 2:
        y = _arc_moments(cells.theta, degree)
    else:
        y = _triangle_moments(cells.local, degree)
    return np.concatenate(_frame_moments(cells.frame, y), axis=1)


@lru_cache(maxsize=None)
def _subsets(n, size):
    """The size-subsets of range(n) in ``combinations`` order, and their positions."""
    subsets = list(combinations(range(n), size))
    return np.array(subsets, dtype=int).reshape(len(subsets), size), \
        {c: i for i, c in enumerate(subsets)}


class _TermGroup(NamedTuple):
    """The terms dx_I dv_J of a form on pieces of one shape, one entry per monomial."""
    base: np.ndarray      # (Q,) position of I among the k-subsets
    fiber: np.ndarray     # (Q,) position of J among the (m - 1)-subsets
    coef: np.ndarray      # (Q,) float coefficient
    position: np.ndarray  # (Q, n) moment position of monomial * v_i
    degree: int           # highest degree of monomial * v_i


@_cached_on_vectors
def _closed_form_terms(n, parts):
    """The form's terms grouped by (k, m): face dimension, cone generators,
    in ``columns._ordered_terms`` order, the order of every float sum over them."""
    rows = {}
    for I, J, e, c in _ordered_terms(n, parts, True):
        rows.setdefault((len(I), len(J) + 1), []).append(
            (_subsets(n, len(I))[1][I], _subsets(n, len(J))[1][J], c,
             [_moment_position(n, _shifted(e, i, 1)) for i in range(n)], sum(e)))
    groups = {}
    for shape, items in rows.items():
        base, fiber, coef, position, degree = zip(*items)
        groups[shape] = _TermGroup(
            np.array(base, dtype=int), np.array(fiber, dtype=int), np.array(coef),
            np.array(position, dtype=int).reshape(len(items), n), max(degree) + 1)
    return groups


def _minors(faces, cells, degree):
    """What the terms of every form need of pieces of one shape (k, m), with
    face frames (P, k, n): per k-subset I, det of the frame's columns I
    (P, C(n, k)); per (m - 1)-subset J, w_J E (P, C(n, m - 1), n); and the
    cells' ``_moments`` up to the degree, each times its cell's sign det(g E^T),
    the orientation of the generators' barycentric chart against the frame.

    On a cell, dv_J = det[y^T | E[:, J]] dsigma = (y . w_J) dsigma, where w_J
    holds the signed cofactors of E[:, J]; since y = E v, y . w_J = v . (w_J E),
    and the integrand p(v) (v . w_J E) is integrated through the moments.
    """
    frame = cells.frame
    m, n = frame.shape[1:]
    base = np.linalg.det(faces[:, :, _subsets(n, faces.shape[1])[0]].transpose(0, 2, 1, 3))
    rows = _subsets(m, m - 1)[0][::-1]  # row c: every row of E but c
    cofactors = np.linalg.det(frame[:, rows][..., _subsets(n, m - 1)[0]].transpose(0, 3, 1, 2, 4))
    fiber = np.einsum("pjc,pcn->pjn", cofactors * (-1.0) ** np.arange(m), frame)
    sign = np.where(np.linalg.det(cells.local) > 0, 1.0, -1.0)
    return base, fiber, sign[:, None] * _moments(cells, degree)


def _piece_integrals(group, minors):
    """The group's terms integrated over each piece face x cell, from its
    ``_minors``, oriented by the cell's sign."""
    base, fiber, moments = minors
    vals = np.einsum("pqi,pqi->pq", moments[:, group.position], fiber[:, group.fiber])
    return np.einsum("pq,pq->p", vals, group.coef * base[:, group.base])


@_cached_on_vectors
def _point_value(n, parts):
    """The form's integral over the normal cycle of a point, which the vertex
    pieces of every polytope add up to: its value on a ball of radius 0
    (``valuation.ball_value``), where only the dv-only terms count.  Exact
    coefficients are summed exactly and rounded once."""
    return ball_value(ValuationRep(n, _join_vectors(n, parts)), 0)


def _integrate_forms(forms, pieces):
    """Oriented integrals of forms on R^n over a polytope's normal cycle, its
    ``pieces`` by shape, in one pass: the cells and moments of the pieces of
    one shape serve every form with terms of that shape.

    Only the dv-only terms (I = ()) live on vertex pieces, and they depend on
    v alone.  The vertex normal cones of a polytope tile S^(n-1), so its
    vertex pieces together give the form's value on a point (``_point_value``),
    and a body's pieces include no vertex pieces.
    """
    totals = [0.0] * len(forms)
    live = [(i, _closed_form_terms(form)) for i, form in enumerate(forms)
            if not form.is_zero()]
    if not live:
        return totals
    n = forms[live[0][0]].n
    for shape, (faces, gens, volume) in pieces.items():
        users = [(i, groups[shape]) for i, groups in live if shape in groups]
        if not users:
            continue
        minors = _minors(faces, _classify(gens), max(group.degree for _, group in users))
        for i, group in users:
            totals[i] += float(volume @ _piece_integrals(group, minors))
    for i, groups in live:
        if (0, n) in groups:
            totals[i] += _point_value(forms[i])
    return totals


def evaluate_many(reps, K) -> list:
    """Numeric values of the valuations on one convex body, in one pass over
    its normal cycle's pieces."""
    reps = list(reps)
    if any(K.dim != mu.n for mu in reps):
        raise ValueError("body dimension does not match the valuation")
    if isinstance(K, Ball):
        return [ball_value(mu, K.radius) for mu in reps]
    integrals = _integrate_forms([mu.omega for mu in reps], K.pieces())
    phi = [float(mu.phi) for mu in reps]
    volume = K.volume() if any(phi) else 0.0
    return [f * volume + integral if f else integral for f, integral in zip(phi, integrals)]


def evaluate(mu: ValuationRep, K) -> float:
    """Numeric value of the valuation on a convex body."""
    return evaluate_many([mu], K)[0]


def klain(mu: ValuationRep, frame) -> float:
    """Klain density of an even degree-k valuation on the span of an orthonormal frame.

    Evaluates mu on a unit-volume piece of the subspace: for k = 0 the value on
    a point, the value on a ball of radius 0 (``ball_value``), otherwise k!
    times the value on the simplex spanned by the frame.
    """
    k = mu.degree()
    if len(frame) != k:
        raise ValueError(f"expected {k} frame vectors, got {len(frame)}")
    if k == 0:
        return ball_value(mu, 0)
    if any(len(f) != mu.n for f in frame):
        raise ValueError("frame vectors must have length n")
    mat = np.array([[float(x) for x in f] for f in frame], dtype=float)
    if not np.all(np.isfinite(mat)):
        raise ValueError("frame entries must be finite")
    if not np.allclose(mat @ mat.T, np.eye(k), rtol=0, atol=ORTHONORMAL_TOL):
        raise ValueError("frame is not orthonormal")
    verts = np.vstack([np.zeros(mu.n), mat])
    return evaluate(mu, Simplex(verts)) * math.factorial(k)


def evaluate_tube(mu: ValuationRep, K, t: float) -> float:
    """Value of the valuation on the outer parallel body K + tB: the derivation
    Lambda is d/dt at t = 0 and lowers degree, so this is the Taylor sum of
    t^k / k! (Lambda^k mu)(K) down to degree 0, its values in one pass."""
    if not math.isfinite(t) or t < 0:
        raise ValueError(f"tube parameter must be finite and nonnegative, got {t}")
    if isinstance(K, Ball):
        return evaluate(mu, Ball(K.center, K.radius + t))
    chain = [mu]
    while max(chain[-1].degrees(), default=0) > 0:
        chain.append(derivation(chain[-1]))
    values = evaluate_many(chain, K)
    n = len(values) - 1
    try:
        terms = [v * t ** k / math.factorial(k) for k, v in enumerate(values)]
    except OverflowError:
        raise ValueError(f"tube parameter {t!r}: t^{n} overflows a float") from None
    total = sum(terms)
    if not math.isfinite(total):
        # the first partial sum that overflows, at a term or on adding finite ones
        k = next(k for k, part in enumerate(accumulate(terms)) if not math.isfinite(part))
        raise ValueError(f"tube parameter {t!r}: the sum to the t^{k} term overflows a float")
    return total
