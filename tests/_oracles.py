"""Shared numeric oracles and random generators for the test suite."""

import itertools
import json
import math
import random
from collections import defaultdict
from functools import lru_cache, partial

import numpy as np
from scipy.linalg import null_space
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, QhullError

from valcalc.bodies import Box, PlanarPolygon, evaluate_tube
from valcalc.contact import dual_lefschetz, horizontal_part, rumin
from valcalc.exterior import (
    InvariantForm,
    SpherePoly,
    _complement,
    _merge_sign,
    _accumulate,
    _pi_terms,
    alpha_form,
    d,
    hodge_star,
    fiber_monomial_integral,
    lie_reeb,
    reeb_contract,
    sphere_monomial_integral,
)
from valcalc.scalars import PI, ZERO, Rat, Scalar
from valcalc.serialization import body_to_json
from valcalc.su2 import _scaled_forms
from valcalc.tolerances import DEGENERATE_PIECE_TOL
from valcalc.valuation import ValuationRep, euler_verdier, intrinsic_volume_rep


def gamma_half(two_a: int):
    """Gamma(two_a / 2) as a pair (rational, h) meaning rational * pi^(h/2), h in {0,1}."""
    if two_a <= 0:
        raise ValueError("gamma argument must be positive")
    if two_a % 2 == 0:
        return Rat(math.factorial(two_a // 2 - 1)), 0
    # Gamma(m + 1/2) / sqrt(pi) = (2m - 1)!! / 2^m, and (2m)! / m! = 2^m (2m - 1)!!
    m = (two_a - 1) // 2
    return Rat(math.perm(2 * m, m) >> m, 1 << m), 1


def random_rational(rng, lo=-3, hi=4, den=4):
    return Rat(rng.randrange(lo, hi), rng.randrange(1, den))


def random_sphere_poly(rng, n, max_deg=2, nterms=2, pi_powers=(0,), den=4):
    """Random polynomial whose coefficients carry a random rational per pi power."""
    t = {}
    for _ in range(nterms):
        e = [0] * n
        for _ in range(rng.randrange(0, max_deg + 1)):
            e[rng.randrange(n)] += 1
        t[tuple(e)] = Scalar({k: random_rational(rng, den=den) for k in pi_powers})
    return SpherePoly(n, t)


def random_form(rng, n, deg, max_vdeg=2, nterms=3, pi_powers=(0,), den=4):
    """Random tangentially projected form of the given total degree."""
    terms = {}
    for _ in range(nterms):
        k = rng.randrange(max(0, deg - n), min(deg, n) + 1)
        I = tuple(sorted(rng.sample(range(n), k)))
        J = tuple(sorted(rng.sample(range(n), deg - k)))
        terms[(I, J)] = random_sphere_poly(rng, n, max_vdeg, pi_powers=pi_powers, den=den)
    return InvariantForm(n, terms)


def random_unit(rng, n):
    while True:
        v = np.array([rng.gauss(0, 1) for _ in range(n)])
        r = np.linalg.norm(v)
        if r > 1e-6:
            return v / r


def random_tangent_vector(rng, n, v):
    """Random vector tangent to the sphere bundle at fiber point v."""
    w = np.array([rng.gauss(0, 1) for _ in range(2 * n)])
    wv = w[n:] - np.dot(w[n:], v) * v
    return np.concatenate([w[:n], wv])


def shuffle_wedge_value(a, b, v, vectors):
    """Numeric wedge via the shuffle formula, as an oracle for the symbolic wedge."""
    p = a.degree() if not a.is_zero() else 0
    total = 0.0
    idx = range(len(vectors))
    for S in itertools.combinations(idx, p):
        Sc = tuple(i for i in idx if i not in S)
        sign = 1
        for x in S:
            for y in Sc:
                if x > y:
                    sign = -sign
        total += sign * evaluate_at(a, v, [vectors[i] for i in S]) \
            * evaluate_at(b, v, [vectors[i] for i in Sc])
    return total


def orthographic_chart(n, axis, signs):
    """Chart of the sphere bundle: (x, u) -> (x, v(u)) with v solved on one axis."""
    others = [i for i in range(n) if i != axis]

    def point(x, u):
        v = np.zeros(n)
        for a, i in enumerate(others):
            v[i] = u[a]
        v[axis] = signs * math.sqrt(1.0 - float(np.dot(u, u)))
        return v

    def frame(x, u):
        v = point(x, u)
        vecs = []
        for i in range(n):
            e = np.zeros(2 * n)
            e[i] = 1.0
            vecs.append(e)
        for a, i in enumerate(others):
            e = np.zeros(2 * n)
            e[n + i] = 1.0
            e[n + axis] = -u[a] / v[axis]
            vecs.append(e)
        return v, vecs

    return point, frame


def chart_component(form, frame_fn, x, u, subset):
    v, vecs = frame_fn(x, u)
    return evaluate_at(form, v, [vecs[i] for i in subset])


def fd_exterior_derivative(form, frame_fn, x, u, subset, h=1e-5):
    """Finite-difference d in chart coordinates on coordinate vector fields."""
    n = len(x)
    total = 0.0
    for pos, s in enumerate(subset):
        rest = subset[:pos] + subset[pos + 1:]

        def g(t):
            if s < n:
                x2 = np.array(x, dtype=float)
                x2[s] += t
                return chart_component(form, frame_fn, x2, u, rest)
            u2 = np.array(u, dtype=float)
            u2[s - n] += t
            return chart_component(form, frame_fn, x, u2, rest)

        deriv = (g(h) - g(-h)) / (2 * h)
        total += deriv if pos % 2 == 0 else -deriv
    return total


def orthonormal_fiber_frame(v):
    """Tangent frame t_1..t_(n-1) of the sphere at v with det[v, t...] = +1."""
    n = len(v)
    basis = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        w = e - np.dot(e, v) * v
        for b in basis:
            w = w - np.dot(w, b) * b
        r = np.linalg.norm(w)
        if r > 1e-8:
            basis.append(w / r)
        if len(basis) == n - 1:
            break
    if np.linalg.det(np.column_stack([v] + basis)) < 0:
        basis[0] = -basis[0]
    return basis


def bundle_frame(v):
    """Positively oriented orthonormal frame of the bundle tangent space at v."""
    n = len(v)
    vecs = []
    for i in range(n):
        e = np.zeros(2 * n)
        e[i] = 1.0
        vecs.append(e)
    for t in orthonormal_fiber_frame(v):
        e = np.zeros(2 * n)
        e[n:] = t
        vecs.append(e)
    return vecs


def frame_components(form, v, frame, deg):
    comps = {}
    for S in itertools.combinations(range(len(frame)), deg):
        comps[S] = evaluate_at(form, v, [frame[i] for i in S])
    return comps


def numeric_hodge_components(comps, dim, deg):
    """Hodge star of a component dict over an oriented orthonormal frame."""
    out = {}
    idx = range(dim)
    for S, val in comps.items():
        Sc = tuple(i for i in idx if i not in S)
        sign = 1
        for x in S:
            for y in Sc:
                if x > y:
                    sign = -sign
        out[Sc] = sign * val
    return out


def numeric_contraction(form, v, X_at, vectors):
    """Oracle for interior product: plug the field value into the first slot."""
    return evaluate_at(form, v, [X_at] + list(vectors))


def poly_value(p: SpherePoly, v) -> float:
    """The polynomial's value at the point v, in floats."""
    total = 0.0
    for e, c in p.terms.items():
        m = float(c)
        for vi, ei in zip(v, e):
            if ei:
                m *= vi ** ei
        total += m
    return total


# -- quadrature oracle for normal-cycle integrals ----------------------------------
#
# Adaptive cubature over spherical simplices: the reference that the exact
# cell rules of ``valcalc.bodies`` are checked against.

QUAD_ORDER = 8
QUAD_ORDER_FINE = 12
QUAD_DEPTH = 14


@lru_cache(maxsize=None)
def gauss(order):
    x, w = np.polynomial.legendre.leggauss(order)
    return (x + 1.0) / 2.0, w / 2.0


@lru_cache(maxsize=None)
def duffy_points(dim, order):
    """Quadrature nodes/weights on the standard simplex {l >= 0, sum l <= 1}."""
    if dim == 0:
        return (np.zeros(0),), (1.0,)
    x, w = gauss(order)
    nodes, weights = [], []
    for idx in itertools.product(range(order), repeat=dim):
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


def sphere_points(gens, order):
    """Batched quadrature data: points, tangent stacks, weights."""
    gens = np.asarray(gens, dtype=float)
    m = len(gens)
    nodes, weights = duffy_points(m - 1, order)
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


def poly_batch(p, v):
    """Vectorized SpherePoly evaluation over rows of v."""
    out = np.zeros(len(v))
    for e, c in p.terms.items():
        term = np.full(len(v), float(c))
        for i, ei in enumerate(e):
            if ei:
                term = term * v[:, i] ** ei
        out += term
    return out


def cell_integral(form, face_vecs, gens, order):
    """Oriented integral of the form over face x spherical simplex.

    Face vectors have no fiber part and sphere tangents no base part, so each
    term's determinant splits into a constant base minor times a batched
    fiber minor over the quadrature points.
    """
    m = len(gens)
    v, tangents, wts = sphere_points(gens, order)
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
        total += base_minor * fiber * poly_batch(p, v)
    return float(total @ wts)


def split_longest(gens):
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


def cone_density(gens, order):
    """Spherical measure of the simplex spanned by the generators, at one order."""
    v, tangents, wts = sphere_points(gens, order)
    mats = np.concatenate([v[:, None, :], tangents], axis=1)
    grams = mats @ np.swapaxes(mats, 1, 2)
    dens = np.sqrt(np.maximum(np.linalg.det(grams), 0.0))
    return float(dens @ wts)


def adaptive(integrand, gens, tol, depth=QUAD_DEPTH):
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
    left, right = split_longest(gens)
    return (adaptive(integrand, left, tol, depth - 1)
            + adaptive(integrand, right, tol, depth - 1))


def point_pieces(n):
    """The normal cycle of a point as pieces by shape: one vertex piece per
    orthant of S^(n-1), generators the signed unit vectors, volume 1."""
    gens = np.array([np.diag(signs) for signs in itertools.product((1.0, -1.0), repeat=n)])
    return {(0, n): (np.zeros((len(gens), 0, n)), gens, np.ones(len(gens)))}


def piece_sign(face_vecs, gens):
    """Orientation of one piece face x cell, sign det[frame | generators]."""
    det = np.linalg.det(np.array(list(face_vecs) + list(gens), dtype=float))
    if abs(det) < DEGENERATE_PIECE_TOL:
        raise ValueError("degenerate normal-cycle piece")
    return 1.0 if det > 0 else -1.0


def quadrature_pieces(form, pieces, tol):
    """Oriented integral of the form over a normal cycle given as pieces by
    shape (k, m), every piece by adaptive cubature.  Only the size of a
    piece's volume is read: its orientation is taken again from its frame
    and generators."""
    total = 0.0
    for (k, _), (faces, gens, volumes) in pieces.items():
        parity = -1.0 if k % 2 else 1.0
        for face_vecs, cell, volume in zip(faces, gens, volumes):
            sgn = parity * piece_sign(face_vecs, cell)
            val = adaptive(partial(cell_integral, form, list(face_vecs)), cell, tol)
            total += sgn * abs(volume) * val
    return total


def quadrature_evaluate(mu, K, tol):
    """Numeric value of the valuation on a polytope, every piece by cubature.

    A body's pieces include no vertex pieces; the vertex cones of a polytope
    tile S^(n-1), so its vertex pieces are integrated as a point's normal
    cycle.
    """
    total = quadrature_pieces(mu.omega, {**K.pieces(), **point_pieces(K.dim)}, tol)
    phi_top = float(mu.phi)
    return total + phi_top * K.volume() if phi_top else total


# -- reference Rumin solves and operators on Scalar coefficients -----------------
#
# valcalc runs the Lefschetz solve and the operators on pi-graded integer
# parts.  These references run the same formulas on Scalar coefficients, and
# the ansatz solve finds the correction by exact linear algebra instead.

ANSATZ_DEGREE_CAP = 12


def rumin_reference(omega):
    """(xi, D_omega) by the Lefschetz solve run on Scalar coefficients."""
    n = omega.n
    tau = -horizontal_part(d(omega))
    xi = dual_lefschetz(tau)
    if n == 4:
        xi = xi - d(alpha_form(n)).wedge(dual_lefschetz(xi)) * Rat(1, 4)
    return xi, d(omega + alpha_form(n).wedge(xi))


def derivation_reference(mu):
    omega = lie_reeb(mu.omega) + reeb_contract(dx_top_form(mu.n) * mu.phi)
    return ValuationRep(mu.n, omega)


def signature_reference(mu):
    inner = rumin_reference(mu.omega)[1] + dx_top_form(mu.n) * mu.phi
    return ValuationRep(mu.n, hodge_star(inner))


def pairing_reference(mu1, mu2):
    """Top coefficient of (-1)^n pi_*(omega1 ^ (D omega2' + phi2')) + phi1 pi_*(omega2'),
    with mu2' the Euler-Verdier reflection of mu2."""
    n = mu1.n
    mu2 = euler_verdier(mu2)
    inner = rumin_reference(mu2.omega)[1] + dx_top_form(n) * mu2.phi
    first = fiber_integral(mu1.omega.wedge(inner)).get(tuple(range(n)), ZERO)
    if n % 2:
        first = -first
    return first + mu1.phi * fiber_integral(mu2.omega).get((), ZERO)


def solve_linear(rows, rhs, ncols):
    """Solve A x = rhs over the rationals, assigning zero to every free variable.

    rows: list of sparse rows {column: rational}; rhs entries may be rationals
    or Scalars (the matrix itself must be rational).  Pivot columns are chosen
    in ascending order, so the result is deterministic.  Raises ValueError if
    the system is inconsistent.
    """
    rows = [{c: Rat(v) for c, v in r.items() if v} for r in rows]
    rhs = [v if isinstance(v, Scalar) else Rat(v) for v in rhs]
    nrows = len(rows)
    if len(rhs) != nrows:
        raise ValueError("rhs length mismatch")
    by_col = defaultdict(set)
    for i, r in enumerate(rows):
        for c in r:
            by_col[c].add(i)
    used = [False] * nrows
    pivots = {}
    for col in range(ncols):
        cand = [i for i in by_col.get(col, ()) if not used[i]]
        if not cand:
            continue
        piv = min(cand, key=lambda i: (len(rows[i]), i))
        used[piv] = True
        pivots[col] = piv
        pr = rows[piv]
        pc = pr[col]
        if pc != 1:
            for c in list(pr):
                pr[c] = pr[c] / pc
            rhs[piv] = rhs[piv] / pc
        for i in list(by_col[col]):
            if i == piv:
                continue
            f = rows[i].get(col)
            if not f:
                continue
            ri = rows[i]
            for c, v in pr.items():
                nv = ri.get(c, 0) - f * v
                if nv:
                    ri[c] = nv
                    by_col[c].add(i)
                else:
                    ri.pop(c, None)
                    by_col[c].discard(i)
            rhs[i] = rhs[i] - f * rhs[piv]
    for i in range(nrows):
        if not used[i] and rhs[i]:
            raise ValueError("inconsistent linear system")
    x = [Rat(0)] * ncols
    for col, piv in pivots.items():
        x[col] = rhs[piv]
    return x


def _exponents_up_to(n, max_deg):
    out = []

    def rec(prefix, remaining):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        # canonical exponents keep the last slot below 2
        cap = remaining if len(prefix) < n - 1 else min(remaining, 1)
        for k in range(cap + 1):
            rec(prefix + [k], remaining - k)

    rec([], max_deg)
    return out


def monomial_forms(n, degree, max_vdeg):
    """All projected monomial forms v^e dx_I ^ dv_J of the given total form degree."""
    out = []
    exps = _exponents_up_to(n, max_vdeg)
    for k in range(degree + 1):
        for I in itertools.combinations(range(n), k):
            for J in itertools.combinations(range(n), degree - k):
                for e in exps:
                    f = InvariantForm(n, {(I, J): SpherePoly(n, {e: 1})})
                    if not f.is_zero():
                        out.append(f)
    return out


def rumin_ansatz(omega):
    """(xi, D_omega, degree): xi from a polynomial ansatz of escalating degree,
    solved exactly so that d(omega + alpha ^ xi) is vertical."""
    n = omega.n
    dw = d(omega)
    tau = -horizontal_part(dw)
    pihat = d(alpha_form(n))
    start = max((p.degree() for p in dw.terms.values()), default=0) + 2
    last_err = None
    for deg in range(start, ANSATZ_DEGREE_CAP + 1, 2):
        basis = monomial_forms(n, n - 2, deg)
        columns = [horizontal_part(pihat.wedge(b)) for b in basis]
        row_index = {}
        for form in columns + [tau]:
            for ij, p in form.terms.items():
                for e in p.terms:
                    row_index.setdefault((ij, e), len(row_index))
        rows = [{} for _ in row_index]
        for col, form in enumerate(columns):
            for ij, p in form.terms.items():
                for e, c in p.terms.items():
                    rows[row_index[(ij, e)]][col] = c
        rhs = [0] * len(rows)
        for ij, p in tau.terms.items():
            for e, c in p.terms.items():
                rhs[row_index[(ij, e)]] = c
        try:
            sol = solve_linear(rows, rhs, len(columns))
        except ValueError as err:
            last_err = err
            continue
        xi = InvariantForm.zero(n)
        for c, b in zip(sol, basis):
            if c:
                xi = xi + b * c
        return xi, d(omega + alpha_form(n).wedge(xi)), deg
    raise ValueError(f"no solution at degree cap {ANSATZ_DEGREE_CAP}") from last_err


# -- Monte Carlo scoring oracles --------------------------------------------------
#
# References for the Monte Carlo scoring in ``valcalc.kinematic``: the
# zonotope's world-frame generators, the hit indicator that every weight
# vol(K - R L) integrates over translations (Qhull's facets of the vertex
# differences, and a linear program on the moved bodies), Qhull's shadows of
# a vertex hull and the box/polytope volume they give, distances to a hull
# for the ball pairs' hits, numpy's row norms and maxima, iid Haar unit
# quaternions, and the exact means over them of the box/box and plate weights.


def haar_quaternions(rng, size):
    """``size`` iid unit quaternions uniform on S^3, as (size, 4) rows:
    normal deviates scaled to unit length."""
    qs = rng.standard_normal((size, 4))
    return qs / np.linalg.norm(qs, axis=1)[:, None]


def quaternion_monomials(q, b):
    """The monomials of the (4, B) columns q of degrees 0 to b, a (count, B)
    array per degree in ``combinations_with_replacement`` order, the order
    of ``kinematic._det_form``'s coefficients: q_k times the last
    C(d + 2 - k, d - 1) of degree d - 1, those in q_k, ..., q_3."""
    monomials = [np.ones((1, q.shape[1]))]
    for d in range(1, b + 1):
        lower = monomials[-1]
        monomials.append(np.concatenate([q[k] * lower[len(lower) - math.comb(d + 2 - k, d - 1):]
                                         for k in range(4)]))
    return monomials


# E|q_k| for q uniform on S^3: q_k has density (2/pi) sqrt(1 - t^2)
LINEAR_FORM_MEAN = 4.0 / (3.0 * math.pi)


def paired_form_mean(M, rel=1e-12):
    """E|q^T M q| over q uniform on S^3, for a symmetric 4x4 M whose
    eigenvalues pair as (a, a, b, b), which it asserts to ``rel`` of the
    largest. In M's eigenbasis q^T M q = a r + b (1 - r), r = q1^2 + q2^2
    uniform on [0, 1], so the mean is |a + b|/2 when ab >= 0, else
    (a^2 + b^2)/(2(|a| + |b|))."""
    e = np.linalg.eigvalsh(M)
    scale = max(np.max(np.abs(e)), np.finfo(float).tiny)
    assert abs(e[1] - e[0]) <= rel * scale and abs(e[3] - e[2]) <= rel * scale, e
    a, b = (e[0] + e[1]) / 2.0, (e[2] + e[3]) / 2.0
    if a * b >= 0.0:
        return abs(a + b) / 2.0
    return (a * a + b * b) / (2.0 * (abs(a) + abs(b)))


def _symmetric(M):
    return 0.5 * (M + M.T)


def exact_rotation_mean(K, L):
    """The mean of vol(K - L_q L) over q uniform on S^3, exactly up to
    rounding, for two boxes or two plates: the motion integral their
    Monte Carlo estimates.

    Two boxes: 16 times the sum over the 70 Laplace minors of O(q) =
    K.rotation^T L_q L.rotation on rows P and columns T, |P| = |T|, of
    prod_(P^c) hK prod_T hL E|minor| (Shephard 1974). The empty minor and
    det O are 1 in absolute value. Each entry of O is a linear form l.q, of
    mean |l| 4/(3 pi), and so is each 3x3 minor, being in absolute value its
    complementary entry (Jacobi, O orthogonal). Each 2x2 minor is a
    quadratic form q^T M q; L_q acts on the 2-vectors trivially on one of
    the summands of Lambda^2 = Lambda^2_+ + Lambda^2_- and as a rotation on
    the other, so M has eigenvalues (a, a, b, b) (``paired_form_mean``).

    Two plates: area1 area2 E|det [F1^T | L_q F2^T]|, the determinant a
    quadratic form in q by its Laplace expansion along the first two
    columns, again with paired eigenvalues."""
    U = unit_left()
    if isinstance(K, Box) and isinstance(L, Box):
        # lin[c, a]: entry (c, a) of O(q) is lin[c, a] . q
        lin = np.einsum("ic,kij,ja->cak", K.rotation, U, L.rotation)
        hK, hL = K.half_extents, L.half_extents
        total = math.prod(hK) + math.prod(hL)
        for c, a in itertools.product(range(4), repeat=2):
            rest_K = math.prod(h for i, h in enumerate(hK) if i != c)
            rest_L = math.prod(h for j, h in enumerate(hL) if j != a)
            total += LINEAR_FORM_MEAN * np.linalg.norm(lin[c, a]) * (
                rest_K * hL[a] + hK[c] * rest_L)
        for (p1, p2), (t1, t2) in itertools.product(itertools.combinations(range(4), 2), repeat=2):
            M = np.outer(lin[p1, t1], lin[p2, t2]) - np.outer(lin[p1, t2], lin[p2, t1])
            weight = math.prod(h for i, h in enumerate(hK) if i not in (p1, p2)) * hL[t1] * hL[t2]
            total += weight * paired_form_mean(_symmetric(M))
        return 16.0 * total
    if isinstance(K, PlanarPolygon) and isinstance(L, PlanarPolygon):
        # coordinate i of L_q x is sum_k q_k (U[k] x)_i, for x = L's frame rows
        Ua, Ub = (U @ x for x in L.frame)
        signed = (_PAIR_SIGNS * _pair_minors(K.frame.T))[::-1]
        A = sum(w * (np.outer(Ua[:, r], Ub[:, s]) - np.outer(Ua[:, s], Ub[:, r]))
                for w, r, s in zip(signed, _FIRST, _SECOND))
        return K.area * L.area * paired_form_mean(_symmetric(A))
    raise ValueError("exact_rotation_mean takes two boxes or two plates")


def box_box_generators(K, L, Rs):
    """The 8 generators of the zonotope K - R L, world frame, as (B, 8, 4)."""
    gen_K = (K.rotation * K.half_extents).T
    gen_L = np.swapaxes(Rs @ (L.rotation * L.half_extents), 1, 2)
    return np.concatenate([np.broadcast_to(gen_K, (len(Rs), 4, 4)), gen_L], axis=1)


def translation_box(K, L, R):
    """Axis bounds (lo, hi) of {x - R y : x in K, y in L}, outside which K
    and R L + t cannot meet, from the vertex differences."""
    diffs = polytope_vertices(K)[:, None] - (polytope_vertices(L) @ R.T)[None]
    return diffs.min(axis=(0, 1)), diffs.max(axis=(0, 1))


def polytope_vertices(K):
    """The vertices of a box, simplex or planar polygon, as rows."""
    if isinstance(K, Box):
        signs = np.array(list(itertools.product((-1.0, 1.0), repeat=4)))
        return K.center + (signs * K.half_extents) @ K.rotation.T
    return K._hull()


def translation_hits(K, L, R, ts):
    """Whether K meets R L + t for each row t of ts: whether t lies in
    K - R L, the hull of the vertex differences, on the inner side of every
    facet equation a.x + b <= 0 Qhull gives."""
    diffs = polytope_vertices(K)[:, None] - (polytope_vertices(L) @ R.T)[None]
    eq = ConvexHull(diffs.reshape(-1, 4)).equations
    return np.all(eq[:, :4] @ ts.T + eq[:, 4:] <= 0.0, axis=0)


def box_box_laplace_volumes(K, L, qs):
    """vol(K - L_q L) for each unit quaternion q of the (B, 4) rows qs from
    all 70 Laplace minors of L's half-generators in K's frame: the reference
    for two boxes' mixed volumes, their merged |forms| in q."""
    # coordinate c of L's half-generator a in K's frame is row 4c + a of
    # gen @ q: K.rotation^T L_q L.rotation diag(hL), flattened, is linear in q
    gen = np.kron(K.rotation.T, (L.rotation * L.half_extents).T) @ unit_left().reshape(4, 16).T
    return box_box_block(K.half_extents, (gen @ qs.T).reshape(4, 4, len(qs)))


def box_box_block(hK, G):
    """The zonotope volumes of a batch of samples, hK K's half extents and
    G[c, a] the (B,) row of coordinate c of L's half-generator a in K's frame.

    K - R L is the zonotope of K's 4 and R L's 4 half-generators, so its
    volume is 16 times the sum of |det| over the 70 4-subsets of them
    (Shephard 1974). In K's frame K's half-generators are h_i e_i, so the
    subset of K's generators off the rows P and L's generators T, |T| = |P|,
    contributes prod_(i not in P) h_i |minor(G; P, T)|, G the matrix of L's
    half-generators. Each minor is a Laplace expansion along its first row
    of those one size smaller.
    """
    minors = {((), ()): 1.0}
    vol = np.full(G.shape[2], np.prod(hK))
    for k in range(1, 5):
        for rows in itertools.combinations(range(4), k):
            weight = np.prod([h for i, h in enumerate(hK) if i not in rows])
            for cols in itertools.combinations(range(4), k):
                m = 0.0
                for j, c in enumerate(cols):
                    term = G[rows[0], c] * minors[rows[1:], cols[:j] + cols[j + 1:]]
                    m = m - term if j % 2 else m + term
                minors[rows, cols] = m
                vol += weight * np.abs(m)
    return 16.0 * vol


def shadow_volumes(points):
    """The shadows of the convex hull of the rows of ``points`` (m, 4) on the
    coordinate subspaces, by scipy's Qhull: the ranges on the 4 axes, the
    areas on the 6 coordinate planes (i, j), i < j, in lexicographic order,
    and the volumes in the 4 coordinate 3-spaces omitting axis 0, 1, 2, 3.
    A shadow of fewer points than its dimension plus one, or a flat one, is 0."""
    def hull_volume(axes):
        pts = points[:, list(axes)]
        if len(pts) <= len(axes):
            return 0.0
        try:
            return ConvexHull(pts).volume
        except QhullError:
            return 0.0

    planes = itertools.combinations(range(4), 2)
    spaces = [[i for i in range(4) if i != l] for l in range(4)]
    return (np.ptp(points, axis=0), np.array([hull_volume(p) for p in planes]),
            np.array([hull_volume(s) for s in spaces]))


def box_polytope_volume(K, L, q):
    """vol(K - L_q L) for a box K, a vertex hull L and a unit quaternion q,
    from Qhull's shadows of L_q L in K's frame: the sum over the axis sets S
    of prod_S (2 hK) times the shadow on the other axes (Shephard 1974)."""
    points = L._hull() @ (K.rotation.T @ rotation_matrix(q)).T
    edges = 2.0 * K.half_extents
    total = np.prod(edges) + L.volume()
    for dim, shadows in enumerate(shadow_volumes(points), start=1):
        axes = itertools.combinations(range(4), dim) if dim < 3 else (
            [i for i in range(4) if i != l] for l in range(4))
        for shadow, kept in zip(shadows, axes):
            total += shadow * np.prod([e for i, e in enumerate(edges) if i not in kept])
    return total


def verify_mc_line(K, L, N, seed, threads, poincare=False):
    """The bash line that reruns a Monte Carlo estimate through the CLI,
    each body's JSON passed by process substitution."""
    def body(B):
        return "<(echo '" + json.dumps(body_to_json(B), separators=(",", ":")) + "')"
    return " ".join(["valcalc verify mc", *(["--poincare"] if poincare else []),
                     "--k", body(K), "--l", body(L),
                     f"--samples {N} --seed {seed} --threads {threads}"])


def mc_failure(name, K, L, N, seed, threads, rep, poincare=False):
    """What a failed Monte Carlo assert reports: the pair, the run's
    settings, its numbers and the CLI line that repeats it."""
    return (f"{name}: seed {seed}, N {N}, threads {threads}: estimate {rep.estimate!r} "
            f"+- {rep.stderr!r} against rhs {rep.rhs!r} (z {rep.z_score:+.2f}); rerun with "
            + verify_mc_line(K, L, N, seed, threads, poincare))


# the six pairs (a, b), a < b, of four indices in lexicographic order; pair
# 5 - p is the complement of pair p, and _PAIR_SIGNS[p] the sign of the term
# of p in the Laplace expansion of a 4x4 determinant along its first two
# columns
_FIRST, _SECOND = np.array(list(itertools.combinations(range(4), 2))).T
_PAIR_SIGNS = np.array([1.0, -1.0, 1.0, 1.0, -1.0, 1.0])


def _pair_minors(F):
    """The six 2x2 minors of the (..., 4, 2) frames F, one per pair of rows."""
    return F[..., _FIRST, 0] * F[..., _SECOND, 1] - F[..., _SECOND, 0] * F[..., _FIRST, 1]


def plate_determinants(F1t, F2):
    """|det [F1t | F2]| for the 4x2 frame F1t and each of the (B, 4, 2)
    frames F2, from the 2x2 minors of both (a Laplace expansion along the
    first two columns): the reference for the plates' quadratic form in
    the quaternion."""
    return np.abs(_pair_minors(F2) @ (_PAIR_SIGNS * _pair_minors(F1t))[::-1])


def lp_constraints(K, n):
    if isinstance(K, Box):
        Rt = K.rotation.T
        A = np.vstack([Rt, -Rt])
        shift = Rt @ K.center
        b = np.concatenate([K.half_extents + shift, K.half_extents - shift])
        return A, b, None, None, 0
    verts = K.embedded_vertices() if isinstance(K, PlanarPolygon) else K.vertices
    m = len(verts)
    A_eq = np.hstack([np.eye(n), -verts.T])
    A_eq = np.vstack([A_eq, np.hstack([np.zeros(n), np.ones(m)])])
    b_eq = np.append(np.zeros(n), 1.0)
    A_ub = np.hstack([np.zeros((m, n)), -np.eye(m)])
    return A_ub, np.zeros(m), A_eq, b_eq, m


def lp_intersects(K, L, n):
    """Whether the polytopes K and L in R^n meet: whether a linear program
    finds a point of both, a box by its half-spaces and a vertex hull as
    convex weights of its vertices (scipy's HiGHS)."""
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


def hull_distance(x, verts):
    """Distance from each point x (B, n) to the hull of the vertices (V, n).

    The closest point is x's projection onto the affine hull of some face and
    lies inside that face, so the least distance to the projections that lie
    inside their faces is exact. Each face's Gram system is solved once, for
    every point."""
    best = np.full(len(x), np.inf)
    for m in range(1, len(verts) + 1):
        for face in itertools.combinations(range(len(verts)), m):
            p = verts[list(face)]
            e = p[1:] - p[0]
            # the projection's coordinates along e: sol = (x - p0) e^T (e e^T)^-1
            sol = (x - p[0]) @ np.linalg.solve(e @ e.T, e).T
            lam = np.concatenate([1.0 - sol.sum(axis=1, keepdims=True), sol], axis=1)
            d = np.linalg.norm(x - p[0] - sol @ e, axis=1)
            best = np.where(np.all(lam >= 0, axis=1), np.minimum(best, d), best)
    return best


def polygon_distance(x, P):
    """Distance from each row of x (B, 4) to the planar polygon P: the
    height off its plane, from scipy's null space, and within the plane 0
    inside and else the distance to the nearest edge, in quadrature."""
    rel = x - P.base
    height = rel @ null_space(P.frame)
    z = rel @ P.frame.T
    v = P.vertices2d
    e = np.roll(v, -1, axis=0) - v
    inside = np.ones(len(x), dtype=bool)
    flat = np.full(len(x), np.inf)
    for a, edge in zip(v, e):
        d = z - a
        inside &= edge[0] * d[:, 1] - edge[1] * d[:, 0] >= 0.0
        t = np.clip(d @ edge / (edge @ edge), 0.0, 1.0)
        flat = np.minimum(flat, np.linalg.norm(d - t[:, None] * edge, axis=1))
    flat[inside] = 0.0
    return np.sqrt(flat ** 2 + np.sum(height ** 2, axis=1))


def row_norms_numpy(x):
    return np.linalg.norm(x, axis=-1)


def split_pi(a: InvariantForm) -> dict:
    """The pi-graded integer parts {k: (den, f)} of a, with a = sum_k pi^k f / den.

    Each f has plain int coefficients and den is the least common
    denominator of the pi^k coefficients.  Float coefficients have no exact
    value and raise TypeError.
    """
    n = a.n
    raw = {}
    for key, p in a.terms.items():
        for e, c in p.terms.items():
            for k, r in _pi_terms(c):
                raw.setdefault(k, {}).setdefault(key, {})[e] = r
    parts = {}
    for k, terms in raw.items():
        den = math.lcm(*(int(r.denominator) for poly in terms.values() for r in poly.values()))
        ints = {key: SpherePoly._canonical(
                    n, {e: int(r.numerator) * (den // int(r.denominator))
                        for e, r in poly.items()})
                for key, poly in terms.items()}
        parts[k] = (den, InvariantForm(n, ints, projected=True))
    return parts


def join_pi(n, parts) -> InvariantForm:
    """The Scalar-coefficient form sum_k pi^k f / den of parts {k: (den, f)}."""
    coeffs = {}
    for k, (den, f) in parts.items():
        for key, p in f.terms.items():
            poly = coeffs.setdefault(key, {})
            for e, c in p.terms.items():
                poly.setdefault(e, {})[k] = Rat(c, den)
    terms = {key: SpherePoly._canonical(n, {e: Scalar(t) for e, t in poly.items()})
             for key, poly in coeffs.items()}
    return InvariantForm(n, terms, projected=True)


# -- basic forms, quaternion matrices and checks that only the tests use -------


def pullback_antipode(a: InvariantForm) -> InvariantForm:
    """The pullback along the antipodal map (x, v) -> (x, -v): the reference
    for ``columns._antipode_vectors``."""
    out = {}
    for (I, J), p in a.terms.items():
        sign = -1 if len(J) % 2 else 1
        out[(I, J)] = SpherePoly._canonical(
            a.n, {e: c * sign * (-1) ** sum(e) for e, c in p.terms.items()})
    return InvariantForm(a.n, out, projected=True)


def exact_scalar(c) -> Scalar:
    """An exact coefficient, a Scalar or a rational of either backend, as a
    Scalar; a float raises TypeError."""
    return Scalar(dict(_pi_terms(c)))


def integrate_spherical(n, J, p) -> Scalar:
    """The integral of p dv_J over S^(n-1), |J| = n - 1, exactly."""
    total = ZERO
    for e, c in p.terms.items():
        total = total + exact_scalar(c) * fiber_monomial_integral(J, e)
    return total


def fiber_integral(a: InvariantForm) -> dict:
    """The fiber integral pi_*(a) as {I: Scalar}, the nonzero coefficients of
    dx_I; only the terms of dv-degree n-1 contribute."""
    n = a.n
    out = {}
    for (I, J), p in a.terms.items():
        if len(J) == n - 1:
            out[I] = out.get(I, ZERO) + integrate_spherical(n, J, p)
    return {I: c for I, c in out.items() if c}


def substitute_linear(p: SpherePoly, A) -> SpherePoly:
    """Substitute v_i -> sum_j A[i][j] v_j in p."""
    n = p.n
    lin = [SpherePoly(n, {tuple(1 if k == j else 0 for k in range(n)): A[i][j]
                          for j in range(n) if A[i][j]})
           for i in range(n)]
    out = SpherePoly(n)
    for e, c in p.terms.items():
        term = SpherePoly.constant(n, c)
        for i, ei in enumerate(e):
            for _ in range(ei):
                term = term * lin[i]
        out = out + term
    return out


def pullback_linear(a: InvariantForm, A) -> InvariantForm:
    """Pullback along (x, v) -> (Ax, Av) for an exactly orthogonal matrix A."""
    n = a.n
    A = [[Rat(x) if not isinstance(x, (Scalar, float)) else x for x in row] for row in A]
    for row in A:
        for x in row:
            if isinstance(x, (Scalar, float)):
                raise ValueError("orthogonal matrix entries must be exact rationals")
    for i in range(n):
        for j in range(n):
            s = sum(A[k][i] * A[k][j] for k in range(n))
            if s != (1 if i == j else 0):
                raise ValueError("matrix is not orthogonal")
    dx_images = [[(A[i][k], 0, k) for k in range(n) if A[i][k]] for i in range(n)]
    dv_images = [[(A[j][k], 1, k) for k in range(n) if A[j][k]] for j in range(n)]
    return _substitute(a, dx_images, dv_images, lambda p: substitute_linear(p, A))


def _substitute(a, dx_images, dv_images, coefficient=lambda p: p) -> InvariantForm:
    """The form with each dx_i and dv_j replaced by its image, a list of
    (coefficient, 0 for dx or 1 for dv, index), and each coefficient
    polynomial by coefficient(p)."""
    n = a.n

    def one_form(image):
        terms = {}
        for c, kind, k in image:
            _accumulate(terms, ((k,), ()) if kind == 0 else ((), (k,)),
                        c if isinstance(c, SpherePoly) else SpherePoly.constant(n, c))
        return InvariantForm(n, terms, projected=True)

    dx_forms, dv_forms = [one_form(im) for im in dx_images], [one_form(im) for im in dv_images]
    out = {}
    for (I, J), p in a.terms.items():
        acc = InvariantForm(n, {((), ()): coefficient(p)}, projected=True)
        for i in I:
            acc = acc.wedge(dx_forms[i])
        for j in J:
            acc = acc.wedge(dv_forms[j])
        for key, q in acc.terms.items():
            _accumulate(out, key, q)
    return InvariantForm(n, out)


def pullback_ball_shift(a: InvariantForm, t) -> InvariantForm:
    """Pullback along (x, v) -> (x + t v, v): the reference for tube values,
    which the Taylor sum of the derivation gives on the vectors."""
    n = a.n
    dx_images = [[(1, 0, i), (t, 1, i)] for i in range(n)]
    dv_images = [[(1, 1, j)] for j in range(n)]
    return _substitute(a, dx_images, dv_images)


def unit_cube_value(mu: ValuationRep) -> Scalar:
    """Exact value of the valuation on the unit cube.

    The normal cycle decomposes into face-times-normal-cone pieces; summing a
    fixed face span A over all positions turns each piece into a full
    subsphere integral with an orientation sign depending only on A.
    """
    n = mu.n
    total = mu.phi
    for j in range(1, n + 1):
        for B in itertools.combinations(range(n), j):
            A = _complement(B, n)
            sign = _merge_sign(A, B) * (-1 if len(A) % 2 else 1)
            acc = ZERO
            for pos, t in enumerate(B):
                p = mu.omega.terms.get((A, B[:pos] + B[pos + 1:]))
                if p is None:
                    continue
                for e, c in p.terms.items():
                    if any(e[a] for a in A):
                        continue
                    eb = tuple(e[b] for b in B)
                    eb = tuple(x + (1 if b == pos else 0) for b, x in enumerate(eb))
                    val = exact_scalar(c) * sphere_monomial_integral(eb)
                    if pos % 2:
                        val = -val
                    acc = acc + val
            if acc:
                total = total + (-acc if sign < 0 else acc)
    return total


def dx_form(n, i) -> InvariantForm:
    return InvariantForm(n, {((i,), ()): SpherePoly.constant(n, 1)}, projected=True)


def dv_form(n, i) -> InvariantForm:
    return InvariantForm(n, {((), (i,)): SpherePoly.constant(n, 1)})


def dx_top_form(n) -> InvariantForm:
    return InvariantForm(n, {(tuple(range(n)), ()): SpherePoly.constant(n, 1)}, projected=True)


def sphere_volume_form(n) -> InvariantForm:
    """Volume form of the fiber sphere: contraction of dv_1^...^dv_n with v."""
    t = {}
    for t_idx in range(n):
        J = tuple(i for i in range(n) if i != t_idx)
        c = SpherePoly.variable(n, t_idx)
        t[((), J)] = c if t_idx % 2 == 0 else -c
    return InvariantForm(n, t, projected=True)


def evaluate_at(form, v, vectors) -> float:
    """Numeric value of the form on tangent vectors at fiber point v.

    Each vector is a length-2n sequence (x-components then v-components).
    """
    k = len(vectors)
    total = 0.0
    for (I, J), p in form.terms.items():
        if len(I) + len(J) != k:
            continue
        c = poly_value(p, v)
        if c == 0.0:
            continue
        if k == 0:
            total += c
            continue
        rows = [[vec[i] for vec in vectors] for i in I]
        rows += [[vec[form.n + j] for vec in vectors] for j in J]
        total += c * float(np.linalg.det(np.array(rows, dtype=float)))
    return total


def degree_component(mu: ValuationRep, k: int) -> ValuationRep:
    """The degree-k part of the valuation."""
    if k == mu.n:
        return ValuationRep(mu.n, InvariantForm.zero(mu.n), mu.phi)
    terms = {key: p for key, p in mu.omega.terms.items() if len(key[0]) == k}
    omega = InvariantForm(mu.n, terms, projected=True)
    return ValuationRep(mu.n, omega)


def steiner_volume(K, t: float) -> float:
    """Volume of the outer parallel body K + tB via the derivation's Taylor
    polynomial: the volume valuation's tube (``evaluate_tube``)."""
    return evaluate_tube(intrinsic_volume_rep(K.dim, K.dim), K, t)


def verify_zero_valuation(omega: InvariantForm, phi=ZERO) -> bool:
    """True iff the pair (omega, phi) represents the zero valuation, phi the
    coefficient of dx_1^...^dx_n.

    Checks D(omega) + pullback of phi = 0 together with fiber_integral(omega) = 0.
    """
    total = rumin(omega).D_omega + dx_top_form(omega.n) * phi
    return total.is_zero() and not fiber_integral(omega)


def stated_z_form(u) -> InvariantForm:
    """The combination (1/8pi) beta^d(beta) + (1/4pi) gamma^Omega of the
    paper, unit-normalized, built on the dict path: the reference Z_u is
    compared with, Z_u being its negative (su2.Z_ORIENTATION).

    An exact direction builds the forms from its integer triple and divides
    by |u|^2; a float direction builds them from its unit coordinates.
    Dividing the scale by 8 and by 4 is exact in either case.
    """
    if u.exact:
        coords, scale = u.coords, PI ** -1 / u.norm_sq
    else:
        coords, scale = u.unit(), 1 / math.pi
    beta, gamma, omega = _scaled_forms(coords)
    return beta.wedge(d(beta)) * (scale / 8) + gamma.wedge(omega) * (scale / 4)


def right_translation_matrix(q):
    """Matrix of x -> x q for a full quaternion q = (q0, q1, q2, q3), from the
    Hamilton product written out."""
    q0, q1, q2, q3 = q
    return [
        [q0, -q1, -q2, -q3],
        [q1, q0, q3, -q2],
        [q2, -q3, q0, q1],
        [q3, q2, -q1, q0],
    ]


def left_mult_matrix(q):
    """Matrix of left multiplication by the quaternion q = (q0, q1, q2, q3)."""
    q0, q1, q2, q3 = q
    return [
        [q0, -q1, -q2, -q3],
        [q1, q0, -q3, q2],
        [q2, q3, q0, -q1],
        [q3, -q2, q1, q0],
    ]


def rotation_matrix(q) -> np.ndarray:
    """Left multiplication by the unit quaternion q as a 4x4 float matrix,
    from the Hamilton product written out in ``left_mult_matrix``."""
    return np.array(left_mult_matrix([float(x) for x in q]))


def unit_left() -> np.ndarray:
    """(4, 4, 4): entry k is left multiplication by the quaternion unit e_k,
    so that L_q = sum_k q_k unit_left()[k]."""
    return np.array([left_mult_matrix(e) for e in np.eye(4)])


def rational_unit_quaternion(rng):
    """Random unit quaternion with rational entries (Cayley parametrization)."""
    while True:
        t, s, r = (Rat(rng.randrange(-6, 7), rng.randrange(1, 7)) for _ in range(3))
        if t or s or r:
            break
    m = 1 + t * t + s * s + r * r
    return ((1 - t * t - s * s - r * r) / m, 2 * t / m, 2 * s / m, 2 * r / m)


def imaginary_rotation(q):
    """3x3 matrix of u -> q u conj(q) on the imaginary part, rational in q."""
    q0, q1, q2, q3 = q
    return [
        [q0 * q0 + q1 * q1 - q2 * q2 - q3 * q3, 2 * (q1 * q2 - q0 * q3), 2 * (q1 * q3 + q0 * q2)],
        [2 * (q1 * q2 + q0 * q3), q0 * q0 - q1 * q1 + q2 * q2 - q3 * q3, 2 * (q2 * q3 - q0 * q1)],
        [2 * (q1 * q3 - q0 * q2), 2 * (q2 * q3 + q0 * q1), q0 * q0 - q1 * q1 - q2 * q2 + q3 * q3],
    ]
