"""Quaternionic line structures: the forms beta, gamma, Omega and valuations Z_u.

Coordinates on R^4 follow the basis (1, i, j, k).  An imaginary direction u
defines right multiplication I_u; the associated invariant forms combine into
a degree-2 valuation Z_u whose pairings generate the unitarily invariant
integral geometry of the quaternionic line.

Directions are stored unscaled: an exact direction keeps a primitive integer
triple (p, q, r) standing for (p, q, r)/sqrt(p^2+q^2+r^2), which keeps every
derived quantity rational even when the normalization is irrational.

Every Z_u is built as split vectors (``columns``) from a fixed integer
tensor: the numerator beta^d(beta) + 2 gamma^Omega is quadratic in u, so it
is T times the six products u_i u_j, with T found once per process by
polarization of the dict forms.  The products are those of an exact
direction's integer triple, or of a float direction's unit coordinates.
Numeric evaluation reads the vectors; Z_u's terms are built from them.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .columns import _fit, _join_vectors, _reduce_grade, _split_vectors, _widen
from .exterior import (
    InvariantForm,
    SpherePoly,
    alpha_form,
    d,
)
from .scalars import Rat, Scalar
from .tolerances import ZERO_NORM_TOL
from .valuation import ValuationRep, intrinsic_volume_rep, pairing

# UNIT_LEFT[k] is the matrix of left multiplication by the quaternion unit
# e_k of the basis (1, i, j, k): column s holds the coordinates of e_k e_s
UNIT_LEFT = (
    ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
    ((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 0, -1), (0, 0, 1, 0)),
    ((0, 0, -1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, -1, 0, 0)),
    ((0, 0, 0, -1), (0, 0, -1, 0), (0, 1, 0, 0), (1, 0, 0, 0)),
)

# Orientation fix: with normal cycles oriented so that chi(ball) = +1, the
# combination (1/8pi) beta^d(beta) + (1/4pi) gamma^Omega integrates to -pi
# over the unit sphere graph.  Z_u flips it so that Z_u(ball) = +pi.
Z_ORIENTATION = -1


def right_mult_matrix(a, b, c):
    """Matrix of right quaternion multiplication by a*i + b*j + c*k, exact for
    exact coefficients: entry (r, s) of x -> x e_k is coordinate r of e_s e_k,
    UNIT_LEFT[s][r][k]."""
    coef = (a, b, c)
    return tuple(
        tuple(sum(coef[m] * UNIT_LEFT[s][r][m + 1] for m in range(3)) for s in range(4))
        for r in range(4)
    )


@dataclass(frozen=True)
class ImDirection:
    """A point of the projective sphere of imaginary quaternions.

    coords is either a primitive integer triple (exact mode, standing for its
    normalization) or a float unit triple; the sign is canonical with the
    first nonzero coordinate positive, identifying u with -u.
    """

    coords: tuple
    exact: bool

    @classmethod
    def of(cls, a, b, c):
        vals = (a, b, c)
        if not any(isinstance(x, float) for x in vals):
            vals = tuple(Rat(x) for x in vals)
            if not any(vals):
                raise ValueError("direction must be nonzero")
            den = math.lcm(*(int(x.denominator) for x in vals))
            ints = [int(x * den) for x in vals]
            g = math.gcd(*ints)
            ints = [x // g for x in ints]
            for x in ints:
                if x:
                    if x < 0:
                        ints = [-y for y in ints]
                    break
            return cls(tuple(ints), True)
        vals = tuple(float(x) for x in vals)
        if not all(map(math.isfinite, vals)):
            raise ValueError("direction components must be finite")
        norm = math.sqrt(sum(x * x for x in vals))
        if not math.isfinite(norm):
            # the squares overflow: scale by the largest component first
            top = max(map(abs, vals))
            vals = tuple(x / top for x in vals)
            norm = math.sqrt(sum(x * x for x in vals))
        if norm < ZERO_NORM_TOL:
            raise ValueError("direction must be nonzero")
        vals = tuple(x / norm for x in vals)
        for x in vals:
            if abs(x) > ZERO_NORM_TOL:
                if x < 0:
                    vals = tuple(-y for y in vals)
                break
        return cls(vals, False)

    @property
    def norm_sq(self):
        return sum(x * x for x in self.coords)

    def unit(self):
        """Float unit coordinates."""
        if not self.exact:
            return tuple(float(x) for x in self.coords)
        s = math.sqrt(float(self.norm_sq))
        return tuple(float(x) / s for x in self.coords)

    def dot_sq(self, other):
        """(u . v)^2, exact when the pair allows it."""
        if self.exact and other.exact:
            dot = sum(x * y for x, y in zip(self.coords, other.coords))
            return Rat(dot * dot, self.norm_sq * other.norm_sq)
        dot = sum(x * y for x, y in zip(self.unit(), other.unit()))
        return dot * dot

    def __str__(self):
        if self.exact:
            return "({}, {}, {})".format(*self.coords)
        return "({:.6f}, {:.6f}, {:.6f})".format(*self.coords)


def _linear_poly(n, coeffs):
    return SpherePoly(n, {tuple(1 if t == s else 0 for t in range(n)): c
                          for s, c in enumerate(coeffs) if c})


def _scaled_forms(coords):
    """beta, gamma, Omega built from an unscaled imaginary triple."""
    n = 4
    mat = right_mult_matrix(*coords)
    beta = {}
    gamma = {}
    for s in range(4):
        col = [mat[t][s] for t in range(4)]
        p = _linear_poly(n, col)
        if p:
            beta[((s,), ())] = p
            gamma[((), (s,))] = p
    omega = {}
    for s in range(4):
        for t in range(s + 1, 4):
            if mat[s][t]:
                omega[((s, t), ())] = SpherePoly.constant(n, mat[s][t])
    return (InvariantForm(n, beta, projected=True),
            InvariantForm(n, gamma),
            InvariantForm(n, omega, projected=True))


def quaternionic_forms(u: ImDirection):
    """The contact form with the unit-normalized beta_u, gamma_u, Omega_u."""
    alpha = alpha_form(4)
    if u.exact:
        s = u.norm_sq
        num, den = int(s.numerator), int(s.denominator)
        rn, rd = math.isqrt(num), math.isqrt(den)
        if rn * rn == num and rd * rd == den:
            beta, gamma, omega = _scaled_forms(tuple(Rat(x) for x in u.coords))
            inv = Rat(rd, rn)
            return alpha, beta * inv, gamma * inv, omega * inv
    coords = u.unit()
    beta, gamma, omega = _scaled_forms(coords)
    return alpha, beta, gamma, omega


# the products u_i u_j of a direction's coordinates, in the order _z_tensor
# polarizes them
_PRODUCTS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))


@lru_cache(maxsize=None)
def _z_tensor():
    """(ids, T, bound): the numerator beta^d(beta) + 2 gamma^Omega of the forms
    of an integer triple u is T m(u) on the monomials ids of block (2, 1),
    where m(u) holds the products u_i u_j of _PRODUCTS; bound is the largest
    row l1 norm of T.

    The numerator is quadratic in u, so T follows by polarization from the
    dict forms of e_i and e_i + e_j, built once per process.
    """
    images = []
    for i, j in _PRODUCTS:
        beta, gamma, omega = _scaled_forms(tuple(int(t in (i, j)) for t in range(3)))
        (_, blocks), = _split_vectors(beta.wedge(d(beta)) + gamma.wedge(omega) * 2).values()
        (ids, vals), = blocks.values()
        images.append(dict(zip(ids.tolist(), vals.tolist())))
    for c, (i, j) in enumerate(_PRODUCTS):
        if i != j:
            images[c] = {r: x - images[i].get(r, 0) - images[j].get(r, 0)
                         for r, x in images[c].items()}
    ids = np.array(sorted(set().union(*images)), np.int64)
    T = np.array([[image.get(r, 0) for image in images] for r in ids.tolist()], np.int64)
    return ids, T, int(np.abs(T).sum(axis=1).max())


def _z_vectors(u: ImDirection) -> dict:
    """The split vectors of Z_u, Z_ORIENTATION T m(u) / (8 pi): for an exact
    direction, m(u) of its integer triple and pi^-1 over 8 |u|^2, reduced by
    the gcd; for a float one, m(u) of its unit coordinates, in float64 over 1."""
    ids, T, bound = _z_tensor()
    x = u.coords if u.exact else u.unit()
    prods = [x[i] * x[j] for i, j in _PRODUCTS]
    t, m = _widen(bound * max(map(abs, prods)), T, _fit(prods))
    vals = (t @ m) * Z_ORIENTATION
    nz = np.flatnonzero(vals)
    if not u.exact:
        return {0: (1, {(2, 1): (ids[nz], vals[nz] / 8 / math.pi)})}
    return {-1: _reduce_grade(8 * u.norm_sq, {(2, 1): (ids[nz], _fit(vals[nz]))})}


def z_rep(u: ImDirection) -> ValuationRep:
    """The valuation Z_u, oriented so that the unit ball evaluates to +pi.

    Its form is its split vectors (``_z_vectors``); numeric evaluation reads
    them, and its terms are built from them only when asked for.
    """
    return ValuationRep(4, _join_vectors(4, _z_vectors(u)))


def gram_zz(u: ImDirection, v: ImDirection) -> Scalar:
    """Pairing <Z_u, Z_v> through the full symbolic pipeline."""
    if not (u.exact and v.exact):
        raise ValueError("gram_zz requires exact directions")
    return pairing(z_rep(u), z_rep(v))


def tasaki_density(cos2):
    """The plane-class density (1 + (u.v)^2) / 4 at cos2 = (u.v)^2
    (``ImDirection.dot_sq``): exact for a Fraction, a float for a float."""
    return (1 + cos2) / 4


def icosahedron_directions():
    """Six projective vertex classes of the regular icosahedron, from the
    golden-ratio vertices; ``kinematic.gram_matrix`` holds their exact angle."""
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    seeds = [
        (0.0, 1.0, phi), (0.0, 1.0, -phi),
        (1.0, phi, 0.0), (1.0, -phi, 0.0),
        (phi, 0.0, 1.0), (phi, 0.0, -1.0),
    ]
    return [ImDirection.of(*s) for s in seeds]


def alesker_directions():
    """The six exact directions i, j, k, (i+j), (i+k), (j+k) up to scale."""
    seeds = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1)]
    return [ImDirection.of(*s) for s in seeds]


def su2_basis(kind: str = "icosahedron"):
    """Ten labeled valuations spanning the unitarily invariant space, as a
    tuple of (label, rep) pairs built once per kind."""
    return _build_basis(kind)


@lru_cache(maxsize=None)
def _build_basis(kind):
    if kind == "icosahedron":
        dirs = icosahedron_directions()
        labels = [f"Z_u{i + 1}" for i in range(6)]
    elif kind == "alesker":
        dirs = alesker_directions()
        labels = ["Z_i", "Z_j", "Z_k", "Z_i+j", "Z_i+k", "Z_j+k"]
    else:
        raise ValueError(f"unknown basis kind {kind!r}")
    out = [("chi", intrinsic_volume_rep(4, 0)), ("vol1", intrinsic_volume_rep(4, 1))]
    out += list(zip(labels, (z_rep(u) for u in dirs)))
    out += [("vol3", intrinsic_volume_rep(4, 3)), ("vol", intrinsic_volume_rep(4, 4))]
    return tuple(out)
