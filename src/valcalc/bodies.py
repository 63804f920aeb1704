"""Convex bodies and numeric evaluation of valuations over their normal cycles.

A ball's normal cycle is a sphere graph, on which every valuation has a closed
form (``valuation.ball_value``).  Any other body's normal cycle decomposes
into products face x spherical normal region, integrated by one adaptive
cubature routine.  Faces carry an orthonormal frame and a k-volume; normal
regions are lists of spherical simplices, each given by n-k linearly
independent unit generators.  The piece orientation is the sign of
det[frame | generators], matching the convention under which the Euler
characteristic of every body comes out +1.

Each body class carries its own support function (``support``,
``support_point``, ``reference_point``), volume, rigid motion
``moved(R, t)`` for x -> R x + t, and, except the ball, its face lattice.
"""

import math
import os
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations, product

import numpy as np

from .exterior import pullback_ball_shift
from .valuation import ValuationRep, ball_value, ball_volume

QUAD_ORDER = 8
QUAD_ORDER_FINE = 12
QUAD_DEPTH = 14
GJK_CAP = 200


def _quad_tol() -> float:
    return float(os.environ.get("VALCALC_QUAD_TOL", "1e-9"))


class IndeterminateIntersection(RuntimeError):
    """Raised when the separation iteration hits its cap without a verdict."""


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


def _check_orthonormal(a, name, tol=1e-9):
    g = a @ a.T
    if not np.allclose(g, np.eye(a.shape[0]), atol=tol):
        raise ValueError(f"{name} must have orthonormal rows")


@dataclass(frozen=True)
class FaceLatticeEntry:
    k: int
    frame: tuple        # k orthonormal direction rows
    volume: float
    region: tuple       # spherical simplices, each a tuple of n-k unit rows


def _orthant_signs(d):
    return list(product((1.0, -1.0), repeat=d))


def _complement_basis(directions, n):
    """Orthonormal basis of the orthogonal complement of the given rows."""
    a = np.asarray(directions, dtype=float).reshape(-1, n)
    if a.shape[0] == 0:
        return np.eye(n)
    _, s, vt = np.linalg.svd(a)
    rank = int(np.sum(s > 1e-10))
    return vt[rank:]


def _simplex_facet_normals(verts):
    """Unit outer normals of the facets of a simplex, within its affine hull."""
    k = len(verts) - 1
    normals = []
    for j in range(k + 1):
        others = [verts[i] for i in range(k + 1) if i != j]
        edges = np.array([o - others[0] for o in others[1:]])
        w = verts[j] - others[0]
        if len(edges):
            sol, *_ = np.linalg.lstsq(edges.T, w, rcond=None)
            w = w - edges.T @ sol
        normals.append(-w / np.linalg.norm(w))
    return normals


def _face_volume(verts):
    if len(verts) == 1:
        return 1.0
    edges = np.array([np.asarray(v) - np.asarray(verts[0]) for v in verts[1:]])
    g = edges @ edges.T
    return math.sqrt(max(np.linalg.det(g), 0.0)) / math.factorial(len(edges))


def _orthonormal_frame(edges):
    a = np.asarray(edges, dtype=float)
    if a.shape[0] == 0:
        return a.reshape(0, a.shape[1] if a.ndim == 2 else 0)
    q, _ = np.linalg.qr(a.T)
    return q.T[: a.shape[0]]


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

    def support(self, xi):
        """Support function sup_{x in K} <xi, x>.

        A single direction gives a float, a (B, n) batch of directions an array.
        """
        xi = np.asarray(xi, dtype=float)
        h = xi @ self.center + self.radius * np.linalg.norm(xi, axis=-1)
        return float(h) if xi.ndim == 1 else h

    def support_point(self, xi):
        """A point of the body attaining the support value in direction xi."""
        xi = np.asarray(xi, dtype=float)
        norm = float(np.linalg.norm(xi))
        if norm == 0.0:
            return self.center.copy()
        return self.center + self.radius * xi / norm

    def reference_point(self):
        """A point of the body, used to seed and scale the separation iteration."""
        return self.center.copy()

    def volume(self) -> float:
        """Lebesgue volume (zero for the lower-dimensional bodies)."""
        return float(ball_volume(self.dim)) * self.radius ** self.dim

    def moved(self, R, t):
        """Image under x -> R x + t."""
        return Ball(R @ self.center + t, self.radius)


@dataclass(frozen=True, eq=False)
class Box:
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

    def axis(self, i):
        return self.rotation[:, i]

    def support(self, xi):
        xi = np.asarray(xi, dtype=float)
        h = xi @ self.center + np.abs(xi @ self.rotation) @ self.half_extents
        return float(h) if xi.ndim == 1 else h

    def support_point(self, xi):
        proj = self.rotation.T @ np.asarray(xi, dtype=float)
        return self.center + self.rotation @ (self.half_extents * np.sign(proj))

    def reference_point(self):
        return self.center.copy()

    def volume(self) -> float:
        return float(np.prod(2.0 * self.half_extents))

    def moved(self, R, t):
        return Box(R @ self.center + t, self.half_extents, R @ self.rotation)

    def face_lattice(self):
        """All faces with oriented frames, volumes, and triangulated normal regions."""
        n = self.dim
        axes = [self.rotation[:, i] for i in range(n)]
        out = []
        for free in range(n + 1):
            for idx in combinations(range(n), free):
                fixed = [i for i in range(n) if i not in idx]
                frame = tuple(tuple(axes[i]) for i in idx)
                vol = 1.0
                for i in idx:
                    vol *= 2.0 * self.half_extents[i]
                if not fixed:
                    out.append(FaceLatticeEntry(free, frame, vol, ()))
                    continue
                # one face per sign choice of the fixed coordinates
                for signs in _orthant_signs(len(fixed)):
                    region = (tuple(tuple(s * axes[i]) for s, i in zip(signs, fixed)),)
                    out.append(FaceLatticeEntry(free, frame, vol, region))
        return out


class _VertexHull:
    """Support data of a body that is the convex hull of ``_hull()``'s rows."""

    def support(self, xi):
        xi = np.asarray(xi, dtype=float)
        h = np.max(xi @ self._hull().T, axis=-1)
        return float(h) if xi.ndim == 1 else h

    def support_point(self, xi):
        verts = self._hull()
        return verts[int(np.argmax(verts @ np.asarray(xi, dtype=float)))].copy()

    def reference_point(self):
        return self._hull().mean(axis=0)


@dataclass(frozen=True, eq=False)
class Simplex(_VertexHull):
    vertices: np.ndarray

    def __init__(self, vertices):
        verts = _as_matrix(vertices, "vertices")
        n = verts.shape[1]
        if not 1 <= verts.shape[0] <= n + 1:
            raise ValueError("a simplex in R^n has between 1 and n+1 vertices")
        edges = verts[1:] - verts[0]
        if len(edges) and np.linalg.matrix_rank(edges, tol=1e-10) < len(edges):
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

    def face_lattice(self):
        verts = self.vertices
        n = self.dim
        kt = len(verts) - 1
        edges = verts[1:] - verts[0]
        perp = _complement_basis(edges, n)
        normals = _simplex_facet_normals(verts) if kt else []
        out = []
        for size in range(1, kt + 2):
            for subset in combinations(range(kt + 1), size):
                fverts = [verts[i] for i in subset]
                frame = _orthonormal_frame(np.array(fverts[1:]) - fverts[0]) if size > 1 \
                    else np.zeros((0, n))
                cone = [normals[j] for j in range(kt + 1) if j not in subset]
                region = []
                if len(perp):
                    for signs in _orthant_signs(len(perp)):
                        gens = [tuple(g) for g in cone]
                        gens += [tuple(s * b) for s, b in zip(signs, perp)]
                        region.append(tuple(gens))
                elif cone:
                    region.append(tuple(tuple(g) for g in cone))
                k = size - 1
                if k == n:
                    region = []
                out.append(FaceLatticeEntry(
                    k, tuple(tuple(r) for r in frame), _face_volume(fverts),
                    tuple(region)))
        return out


@dataclass(frozen=True, eq=False)
class PlanarPolygon(_VertexHull):
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
            if cross <= 1e-12:
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

    def face_lattice(self):
        n = self.dim
        u1, u2 = self.frame
        verts2 = self.vertices2d
        m = len(verts2)
        perp = _complement_basis(self.frame, n)
        # outer normals of the edges, embedded; edge i runs verts2[i] -> verts2[i+1]
        edge_normals = []
        edge_dirs = []
        lengths = []
        for i in range(m):
            a, b = verts2[i], verts2[(i + 1) % m]
            e = b - a
            ln = float(np.linalg.norm(e))
            lengths.append(ln)
            edge_dirs.append((e[0] * u1 + e[1] * u2) / ln)
            edge_normals.append((e[1] * u1 - e[0] * u2) / ln)
        out = []
        if n == 2:
            body_region = ()
        else:
            body_region = tuple(
                tuple(tuple(s * b) for s, b in zip(signs, perp))
                for signs in _orthant_signs(len(perp)))
        out.append(FaceLatticeEntry(2, (tuple(u1), tuple(u2)), self.area, body_region))
        for i in range(m):
            region = []
            if len(perp):
                for signs in _orthant_signs(len(perp)):
                    region.append(tuple([tuple(edge_normals[i])]
                                        + [tuple(s * b) for s, b in zip(signs, perp)]))
            else:
                region.append((tuple(edge_normals[i]),))
            out.append(FaceLatticeEntry(
                1, (tuple(edge_dirs[i]),), lengths[i], tuple(region)))
        for i in range(m):
            mprev = edge_normals[i - 1]
            mnext = edge_normals[i]
            region = []
            if len(perp):
                for signs in _orthant_signs(len(perp)):
                    region.append(tuple([tuple(mprev), tuple(mnext)]
                                        + [tuple(s * b) for s, b in zip(signs, perp)]))
            else:
                region.append((tuple(mprev), tuple(mnext)))
            out.append(FaceLatticeEntry(0, (), 1.0, tuple(region)))
        return out


@lru_cache(maxsize=None)
def _gauss(order):
    x, w = np.polynomial.legendre.leggauss(order)
    return (x + 1.0) / 2.0, w / 2.0


@lru_cache(maxsize=None)
def _duffy_points(dim, order):
    """Quadrature nodes/weights on the standard simplex {l >= 0, sum l <= 1}."""
    if dim == 0:
        return (np.zeros(0),), (1.0,)
    x, w = _gauss(order)
    nodes, weights = [], []
    for idx in product(range(order), repeat=dim):
        lam = np.zeros(dim)
        weight = 1.0
        rem = 1.0
        for axis, i in enumerate(idx):
            lam[axis] = x[i] * rem
            weight *= w[i] * rem
            rem -= lam[axis]
        nodes.append(lam)
        weights.append(weight)
    return tuple(nodes), tuple(weights)


def _sphere_points(gens, order):
    """Batched quadrature data: points, tangent stacks, weights, 1/|raw|."""
    gens = np.asarray(gens, dtype=float)
    m = len(gens)
    nodes, weights = _duffy_points(m - 1, order)
    lam = np.array(nodes).reshape(len(nodes), m - 1)
    wts = np.array(weights)
    bary = np.column_stack([1.0 - lam.sum(axis=1), lam])
    raw = bary @ gens
    norms = np.linalg.norm(raw, axis=1)
    v = raw / norms[:, None]
    edges = gens[1:] - gens[0]
    dots = v @ edges.T
    # tangents[q, j] = projection of edge j to the sphere at v[q]
    tangents = (edges[None, :, :] - dots[:, :, None] * v[:, None, :]) / norms[:, None, None]
    return v, tangents, wts


def _poly_batch(p, v):
    """Vectorized SpherePoly evaluation over rows of v."""
    out = np.zeros(len(v))
    for e, c in p.terms.items():
        term = np.full(len(v), float(c))
        for i, ei in enumerate(e):
            if ei:
                term = term * v[:, i] ** ei
        out += term
    return out


def _cell_integral(form, face_vecs, gens, order):
    """Oriented integral of the form over face x spherical simplex.

    Face vectors have no fiber part and sphere tangents no base part, so each
    term's determinant splits into a constant base minor times a batched
    fiber minor over the quadrature points.
    """
    m = len(gens)
    v, tangents, wts = _sphere_points(gens, order)
    k = len(face_vecs)
    fmat = np.array(face_vecs, dtype=float).reshape(k, form.n)
    total = np.zeros(len(v))
    for (I, J), p in form.terms.items():
        if len(I) != k or len(J) != m - 1:
            continue
        base_minor = float(np.linalg.det(fmat[:, I])) if k else 1.0
        if base_minor == 0.0:
            continue
        if J:
            fiber = np.linalg.det(tangents[:, :, J])
        else:
            fiber = 1.0
        total += base_minor * fiber * _poly_batch(p, v)
    return float(total @ wts)


def _split_longest(gens):
    gens = np.asarray(gens, dtype=float)
    m = len(gens)
    best, pair = -1.0, (0, 1)
    for a in range(m):
        for b in range(a + 1, m):
            d = float(np.linalg.norm(gens[a] - gens[b]))
            if d > best:
                best, pair = d, (a, b)
    a, b = pair
    mid = gens[a] + gens[b]
    mid = mid / np.linalg.norm(mid)
    left = gens.copy()
    left[b] = mid
    right = gens.copy()
    right[a] = mid
    return left, right


def _cone_density(gens, order):
    """Spherical measure of the simplex spanned by the generators, at one order."""
    v, tangents, wts = _sphere_points(gens, order)
    mats = np.concatenate([v[:, None, :], tangents], axis=1)
    grams = mats @ np.swapaxes(mats, 1, 2)
    dens = np.sqrt(np.maximum(np.linalg.det(grams), 0.0))
    return float(dens @ wts)


def _adaptive(integrand, gens, tol, depth=QUAD_DEPTH):
    """Adaptive cubature of integrand(cell, order) over a spherical simplex.

    A cell is accepted when its order-8 and order-12 values agree to within
    0.1 * tol relative; otherwise it is split at the midpoint of its longest
    edge.  The gap overestimates the order-12 error by orders of magnitude on
    analytic integrands, so the accepted value is far inside tol.
    """
    if len(gens) == 1:
        return integrand(gens, QUAD_ORDER)
    coarse = integrand(gens, QUAD_ORDER)
    fine = integrand(gens, QUAD_ORDER_FINE)
    if abs(coarse - fine) <= 0.1 * tol * (1.0 + abs(fine)):
        return fine
    if depth <= 0:
        raise RuntimeError("spherical quadrature did not converge")
    left, right = _split_longest(gens)
    return (_adaptive(integrand, left, tol, depth - 1)
            + _adaptive(integrand, right, tol, depth - 1))


def _piece_sign(face_vecs, gens):
    rows = [np.asarray(f, dtype=float) for f in face_vecs]
    rows += [np.asarray(g, dtype=float) for g in gens]
    det = np.linalg.det(np.array(rows))
    if abs(det) < 1e-12:
        raise ValueError("degenerate normal-cycle piece")
    return 1.0 if det > 0 else -1.0


def _integrate_lattice(form, lattice, tol):
    total = 0.0
    if form.is_zero():
        return total
    for entry in lattice:
        if entry.volume == 0.0 or not entry.region:
            continue
        face_vecs = [np.asarray(f, dtype=float) for f in entry.frame]
        parity = -1.0 if entry.k % 2 else 1.0
        for gens in entry.region:
            sgn = parity * _piece_sign(face_vecs, gens)
            val = _adaptive(partial(_cell_integral, form, face_vecs), gens, tol)
            total += sgn * entry.volume * val
    return total


def evaluate(mu: ValuationRep, K) -> float:
    """Numeric value of the valuation on a convex body."""
    if K.dim != mu.n:
        raise ValueError("body dimension does not match the valuation")
    if isinstance(K, Ball):
        return ball_value(mu, K.radius)
    lattice = K.face_lattice()
    total = 0.0
    phi_top = float(mu.phi.top_coefficient())
    if phi_top:
        total += phi_top * K.volume()
    total += _integrate_lattice(mu.omega, lattice, _quad_tol())
    return total


def steiner_volume(K, t: float) -> float:
    """Volume of the outer parallel body K + tB via the face decomposition."""
    if isinstance(K, Ball):
        return float(ball_volume(K.dim)) * (K.radius + t) ** K.dim
    n = K.dim
    tol = _quad_tol()
    total = 0.0
    for entry in K.face_lattice():
        if entry.k == n:
            total += entry.volume
            continue
        angle = sum(_adaptive(_cone_density, g, tol) for g in entry.region)
        total += entry.volume * angle / (n - entry.k) * t ** (n - entry.k)
    return total


def evaluate_tube(mu: ValuationRep, K, t: float) -> float:
    """Value of the valuation on the outer parallel body K + tB."""
    if t < 0:
        raise ValueError("tube parameter must be nonnegative")
    if isinstance(K, Ball):
        return evaluate(mu, Ball(K.center, K.radius + t))
    if t == 0:
        return evaluate(mu, K)
    tol = _quad_tol()
    shifted = pullback_ball_shift(mu.omega.to_float(), float(t))
    total = _integrate_lattice(shifted, K.face_lattice(), tol)
    phi_top = float(mu.phi.top_coefficient())
    if phi_top:
        total += phi_top * steiner_volume(K, t)
    return total


def _closest_in_hull(points):
    """Closest point of the convex hull to the origin with its support set."""
    best = None
    for size in range(1, len(points) + 1):
        for subset in combinations(range(len(points)), size):
            pts = [points[i] for i in subset]
            if size == 1:
                lam = [1.0]
            else:
                a = np.array([pts[i] - pts[0] for i in range(1, size)])
                g = a @ a.T
                b = -a @ pts[0]
                try:
                    sol = np.linalg.solve(g, b)
                except np.linalg.LinAlgError:
                    continue
                lam = np.concatenate([[1.0 - sol.sum()], sol])
            if any(l < -1e-12 for l in lam):
                continue
            c = sum(l * p for l, p in zip(lam, pts))
            d = float(c @ c)
            if best is None or d < best[0] - 1e-18:
                best = (d, subset, c)
    return best


def _body_radius(K, center):
    n = K.dim
    r = 0.0
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        for s in (1.0, -1.0):
            r = max(r, float(np.linalg.norm(K.support_point(s * e) - center)))
    return r


def intersects(K, L, tol: float = 1e-12) -> bool:
    """Whether the two bodies meet, by iterative support-function separation.

    Maintains a simplex inside the difference body K - L and tracks the
    distance from its hull to the origin; exits on a zero-distance witness or
    a certified positive lower bound from a support evaluation.
    """
    if K.dim != L.dim:
        raise ValueError("dimension mismatch")

    def diff_support(d):
        return K.support_point(d) - L.support_point(-d)

    ck, cl = K.reference_point(), L.reference_point()
    d0 = ck - cl
    scale = 1.0 + float(np.linalg.norm(d0)) + _body_radius(K, ck) + _body_radius(L, cl)
    if float(np.linalg.norm(d0)) < tol * scale:
        return True
    points = [diff_support(-d0)]
    for _ in range(GJK_CAP):
        _, subset, c = _closest_in_hull(points)
        dist = float(np.linalg.norm(c))
        if dist <= tol * scale:
            return True
        points = [points[i] for i in subset]
        w = diff_support(-c)
        # w minimizes <c, z> over the difference body, so <c,w>/|c| bounds the
        # distance from below; positive bound certifies separation
        lower = float(c @ w) / dist
        if lower > tol * scale:
            return False
        if dist - lower <= tol * scale:
            return False
        points.append(w)
    raise IndeterminateIntersection("separation iteration hit its cap")
