"""Monomial coordinates and integer columns for the exact path.

On the exact path a pi-graded integer part is a sparse vector over the
monomials v^e dx_I ^ dv_J of one bidegree (|I|, |J|), a block, numbered in
the order the process first sees them.  A split form is
{k: (den, {(|I|, |J|): (ids, vals)})}, ids indexing the block's monomials and
vals int64 while every entry is below INT64_SAFE, an object array of Python
ints otherwise (``_fit``).  A float coefficient lies in grade 0, whose vals
are then float64 over den 1; the columns apply to them unchanged, and no
float is truncated or gcd-reduced.

hodge_star (HODGE), lie_reeb (LIE_REEB) and the two outputs of contact's
Rumin solve, the corrected derivative D (``contact.RUMIN``) and the
correction xi (``contact.RUMIN_XI``), are caches of integer columns, one
per monomial of an input block: its image as (row, value) arrays into the
operator's one output block.  Applying one is a gather and an np.add.at, in
int64 while a checked bound allows it and in Python ints past it
(``_widen``).  Each operator commutes with the permutations of the
coordinates 1..n-1 acting on x and v together (``_group``): they are
isometries of R^n, and they fix v_n and so the canonical rewrite of v_n^2.
So the dict operators build one column per orbit of these permutations, and
every other column of the orbit is a built one with its rows permuted and
signed (``_Columns._permute``); a block finds the images of its monomials
among its packed codes, sorted when it looks, and keeps every image it
finds (``_Block.image``).  The columns to build run in one pass: monomial i
enters with coefficient 2^(B i), so its image rides in lane i of each
output coefficient, and a bias of 2^(B - 1) per lane decodes it.  The lane
width B comes from a proved bound on a column's entries, the product of the
column l1 norms of the operator's steps (the *_norm helpers), so no lane
carries into the next.  pair_top contracts two vectors against the
closed-form integrals of sphere monomials, the one path of the pairing at
every degree.  The integral of v^e is an integer numerator of e
(``exterior.sphere_numerator``) times a factor of n and |e| alone
(``exterior.sphere_factor``).  Which products x_i y_j integrate to nonzero,
and with which numerator, depends on the two supports alone, so the
contraction splits as a sparse direct solver splits its symbolic analysis
from its numeric passes: a plan (``_contract_plan``), kept per (n, block
pair, ids of x, ids of y) in an LRU of FORM_CACHE_SIZE plans, holds the
positions in x and y of every product whose exponents are all even, its
partner sign times its code's numerator, and the products grouped by total
degree; a call is then one integer pass over the plan and one fraction per
degree (``_top_contract``).

An operator's output stays split vectors: the form ``_join_vectors`` makes
of them builds its Scalar terms (``_vector_terms``) only when they are
asked for, and until then its zero test, degrees and exactness read the
vectors' blocks.  Every float sum over monomials takes them sorted by (I, J,
e) (``_ordered_terms``), never in the order the process numbered them.
``_vector_key`` turns split vectors into a hashable key, which a form keeps
once computed (``_form_key``).  ``_cached_on_vectors`` keeps a function of a
form in a bounded LRU on that key: contact's Rumin solve and the numeric
caches of ``bodies``.

Limit: a block numbers monomials of degree up to MAX_DEGREE = 2^13 - 1 alone
in R^2..R^4, and ``_Block.id`` refuses any other with a ValueError that
names it.  So a packed code holds each exponent in 13 bits, a contraction
code two degrees' sum plus one in 14, and every column bound fits 64-bit
lanes.  ``serialization`` refuses a file's monomial past MAX_DEGREE when it
parses it; a form that the tangential projection or an operator takes past
it is refused here, when its monomials are numbered.  The column caches
keep every column they build for the life of the process, with one source
per orbit, and a block keeps its image table, one entry per permutation and
monomial: their size is bounded by the number of monomials of the degrees
in use, not by a count of forms.  The contraction's plans, at most
FORM_CACHE_SIZE, are the only place that keeps a sphere numerator; a plan
holds three entries per product it keeps.
This module builds on ``exterior`` and ``scalars`` alone; every module
above it imports it at load.
"""

import math
from functools import lru_cache, wraps
from itertools import combinations, permutations, product
from typing import NamedTuple

import numpy as np

from .exterior import (
    InvariantForm,
    SpherePoly,
    _complement,
    _dv_projection,
    _merge_sign,
    _pi_terms,
    _prepend_sign,
    hodge_star,
    lie_reeb,
    odd_factorial,
    sphere_factor,
)
from .scalars import Rat, Scalar

INT64_SAFE = 1 << 62  # vector entries below it are stored as int64
# bits of an exponent field: of a block's packed code (``_group``), which holds
# degrees up to MAX_DEGREE, and of a contraction code, twice that plus one
FIELD_BITS, CONTRACT_BITS = 13, 14
MAX_DEGREE = (1 << FIELD_BITS) - 1
# bits of one lane-packed coefficient, lanes times lane width.  A pass of a
# dict operator costs in proportion to its monomials, and little more for
# wider lanes: the Rumin solve over 62 monomials of degrees 1 and 3 in block
# (2, 1) took 22-23 ms at 1-bit lanes, 25 ms at 40-bit and 27-34 ms at
# 64-bit, against 2.2 ms for one monomial alone.  Peak memory grows with the
# width of its coefficients: a pass of the Rumin solve over 316 monomials of
# Z_u-like forms raised peak RSS by 3 MB at 5,120 bits and by 8 MB at 10,240
# bits (all figures on x86-64, Python 3.11)
PACKED_BITS = 8192
# results kept per function of a form (``_cached_on_vectors``), and plans kept
# by the contraction (``_contract_plan``); one pairing with its operators needs
# about five Rumin solves
FORM_CACHE_SIZE = 64


class _Group(NamedTuple):
    """S_(n-1) as tables over its elements p_g (``_group``)."""

    gather: np.ndarray  # (G, n): p_g^-1, so that v^e goes to v^(e[gather[g]])
    inverse: np.ndarray  # (G,): the number of p_g^-1
    compose: np.ndarray  # (G, G): the number of p_g p_h, p_h applied first
    mask: np.ndarray  # (G, 4^n): the key code of p_g (dx_I ^ dv_J)
    sign: np.ndarray  # (G, 4^n): the sign of sorting p_g I times that of p_g J
    place: np.ndarray  # (n, G): 2^(2n + FIELD_BITS p_g(t)), exponent t's field
    pairs: tuple  # (I, J) per key code


@lru_cache(maxsize=None)
def _group(n) -> _Group:
    """The permutations p of the coordinates 0..n-2, n - 1 fixed, acting on
    dx, dv and v together, numbered as ``itertools.permutations`` gives them
    (0 the identity).  p takes v^e dx_I ^ dv_J to s v^f dx_pI ^ dv_pJ, f_p(t)
    = e_t and s the sign of sorting pI times that of sorting pJ.  It fixes
    v_n, so it keeps the canonical rewrite of v_n^2, and it is an isometry
    of R^n, so the Rumin solve, the Hodge star and the Lie derivative along
    the Reeb field commute with it (``_Columns._permute``).  A monomial's
    packed code is its key code plus its exponents in fields of FIELD_BITS
    bits above the 2n bits of the key code, 60 bits at most in R^4."""
    perms = [p + (n - 1,) for p in permutations(range(n - 1))]
    number = {p: g for g, p in enumerate(perms)}
    inverse = [tuple(sorted(range(n), key=p.__getitem__)) for p in perms]
    tables, pairs = np.zeros((2, len(perms), 1 << 2 * n), np.int64), []
    for code in range(1 << 2 * n):
        I = tuple(i for i in range(n) if code >> i & 1)
        J = tuple(j for j in range(n) if code >> n + j & 1)
        pairs.append((I, J))
        for g, p in enumerate(perms):
            pI, pJ = [p[i] for i in I], [p[j] for j in J]
            tables[0, g, code] = sum(1 << i for i in pI) | sum(1 << n + j for j in pJ)
            flips = sum(x > y for t in (pI, pJ) for x, y in combinations(t, 2))
            tables[1, g, code] = -1 if flips % 2 else 1
    return _Group(
        np.array(inverse, np.int64).reshape(len(perms), n),
        np.array([number[q] for q in inverse], np.int64),
        np.array([[number[tuple(p[q[t]] for t in range(n))] for q in perms] for p in perms],
                 np.int64),
        tables[0], tables[1],
        np.array([[1 << 2 * n + FIELD_BITS * p[t] for p in perms] for t in range(n)], np.int64),
        tuple(pairs))


class _Block:
    """The monomials (I, J, e) of one bidegree in dimension n, numbered as first seen."""

    __slots__ = ("n", "a", "b", "index", "keys", "_codes", "_packed", "_images")

    def __init__(self, n, a, b):
        self.n, self.a, self.b = n, a, b
        self.index = {}
        self.keys = []
        self._codes = (np.zeros(0, np.int64), np.zeros((0, n), np.int64), np.zeros(0, np.int64))
        self._packed = np.zeros(0, np.int64)
        self._images = np.zeros((len(_group(n).inverse), 0), np.int64)

    def id(self, key) -> int:
        """The number of the monomial key (I, J, e), numbering it if new;
        a new one of degree past MAX_DEGREE raises ValueError."""
        i = self.index.get(key)
        if i is None:
            if sum(key[2]) > MAX_DEGREE:
                raise ValueError(f"monomial {_form(self.n, [key], [1])} has degree {sum(key[2])}, "
                                 f"past {MAX_DEGREE}, the most the exact path numbers")
            i = self.index[key] = len(self.keys)
            self.keys.append(key)
        return i

    def codes(self):
        """Per id: key code Imask | Jmask << n, exponents as a row, degree."""
        have = len(self._codes[0])
        if have < len(self.keys):
            n = self.n
            new = self.keys[have:]
            keys = np.array([sum(1 << i for i in I) | sum(1 << (n + j) for j in J)
                             for I, J, _ in new], np.int64)
            exps = np.array([e for _, _, e in new], np.int64).reshape(-1, n)
            self._append(keys, exps)
        return self._codes

    def _append(self, keys, exps):
        """Append the key codes and exponents of ids just numbered."""
        self._codes = tuple(np.concatenate([old, col]) for old, col in
                            zip(self._codes, (keys, exps, exps.sum(axis=1))))

    def packed(self):
        """Per id: the exponents packed CONTRACT_BITS bits each (``_place``)."""
        exps = self.codes()[1]
        if len(self._packed) < len(exps):
            self._packed = exps @ _place(self.n)
        return self._packed

    def _add(self, keys, codes, exps):
        """Number new keys, given their key codes and exponents."""
        have = len(self.codes()[0])
        self.keys.extend(keys)
        self.index.update(zip(keys, range(have, len(self.keys))))
        self._append(codes, exps)

    def _index(self):
        """The packed codes (``_group``) of the ids, ascending, and the ids in
        that order."""
        grp = _group(self.n)
        codes, exps, _ = self.codes()
        code = codes + exps @ grp.place[:, 0]
        order = np.argsort(code)
        return code[order], order

    def orbits(self, ids) -> list:
        """Per id: (key, g), the key of its orbit under S_(n-1) and the number
        g of a permutation (``_group``) that takes it to the orbit's least
        member.  The key is that member's packed code, a Python int."""
        grp = _group(self.n)
        codes, exps, _ = self.codes()
        images = grp.mask[:, codes[ids]].T + exps[ids] @ grp.place
        g = images.argmin(axis=1)
        return list(zip(images[np.arange(len(g)), g].tolist(), g.tolist()))

    def image(self, perms, ids):
        """(ids, signs) of the images of the monomials ids, each under the
        permutation numbered perms (``_group``): p m is the sign times the
        monomial of the image id.  The block keeps every image id it finds,
        per permutation and id (``_images``, -1 where none is kept yet), and
        finds each missing one once per call (``_find``)."""
        grp = _group(self.n)
        codes = self.codes()[0]
        sign = grp.sign[perms, codes[ids]]
        grow = len(codes) - self._images.shape[1]
        if grow:
            self._images = np.concatenate(
                [self._images, np.full((len(grp.inverse), grow), -1, np.int64)], axis=1)
        out = self._images[perms, ids]
        todo = np.flatnonzero(out < 0)
        if todo.size:
            g, i = perms[todo], ids[todo]
            # each pair (g, i) keeps the mark of one of its entries
            mark = np.arange(todo.size)
            self._images[g, i] = -2 - mark
            first = np.flatnonzero(self._images[g, i] == -2 - mark)
            self._images[g[first], i[first]] = self._find(g[first], i[first])
            out[todo] = self._images[g, i]
        return out, sign

    def _find(self, perms, ids):
        """The ids of the images of the monomials ids, each under the
        permutation numbered perms, through their packed codes
        (``_index``).  Images not yet in the block are numbered, in the
        order of their packed codes."""
        grp = _group(self.n)
        codes, exps, _ = self.codes()
        codes = grp.mask[perms, codes[ids]]
        exps = np.take_along_axis(exps[ids], grp.gather[perms], axis=1)
        code = codes + exps @ grp.place[:, 0]
        known, order = self._index()
        pos = np.searchsorted(known, code)
        hit = pos < len(known)
        hit[hit] = known[pos[hit]] == code[hit]
        out = np.empty(len(ids), np.int64)
        out[hit] = order[pos[hit]]
        new = np.flatnonzero(~hit)
        if new.size:
            _, first, which = np.unique(code[new], return_index=True, return_inverse=True)
            rows = new[first]
            keys = [(*grp.pairs[c], tuple(e)) for c, e in zip(codes[rows].tolist(),
                                                               exps[rows].tolist())]
            out[new] = len(self.keys) + which
            self._add(keys, codes[rows], exps[rows])
        return out


_BLOCKS = {}


def _block(n, a, b) -> _Block:
    blk = _BLOCKS.get((n, a, b))
    if blk is None:
        blk = _BLOCKS[(n, a, b)] = _Block(n, a, b)
    return blk


def _fit(vals):
    """Entries (a list or an array) as a vector's values: float64 if any is a
    float, int64 while every entry is below INT64_SAFE, else an object array
    of Python ints."""
    if isinstance(vals, np.ndarray):
        if vals.dtype.kind == "i":
            return vals.astype(object) if _maxabs(vals) >= INT64_SAFE else vals
        vals = vals.tolist()
    if any(isinstance(x, float) for x in vals):
        return np.array(vals, np.float64)
    if vals and max(max(vals), -min(vals)) >= INT64_SAFE:
        out = np.empty(len(vals), object)
        out[:] = vals
        return out
    return np.array(vals, np.int64)


def _maxabs(vals) -> int:
    return int(np.abs(vals).max()) if vals.size else 0


def _widen(bound, *arrays):
    """The arrays of a product or sum whose every partial result is at most
    bound in size: as they are while bound < 2^63 and all are int64, else as
    object arrays of Python ints."""
    if bound < 1 << 63 and all(a.dtype != object for a in arrays):
        return arrays
    return tuple(a.astype(object) for a in arrays)


def _split_vectors(a: InvariantForm) -> dict:
    """The pi-graded parts of a, with a = sum_k pi^k part_k / den_k, as sparse
    vectors, computed once per form.  A float coefficient lies in grade 0, and
    a grade holding one is float64 over den 1; a non-finite one raises
    ValueError naming its monomial."""
    if a._parts is None:
        n = a.n
        raw = {}
        for (I, J), p in a.terms.items():
            blk = _block(n, len(I), len(J))
            for e, c in p.terms.items():
                if isinstance(c, float) and not math.isfinite(c):
                    raise ValueError(f"monomial {_form(n, [(I, J, e)], [1])} has the "
                                     f"non-finite coefficient {c}")
                i = blk.id((I, J, e))
                for k, r in ((0, c),) if isinstance(c, float) else _pi_terms(c):
                    ids, rats = raw.setdefault(k, {}).setdefault((blk.a, blk.b), ([], []))
                    ids.append(i)
                    rats.append(r)
        parts = {}
        for k, blocks in raw.items():
            rats = [r for _, rs in blocks.values() for r in rs]
            floats = any(isinstance(r, float) for r in rats)
            den = 1 if floats else math.lcm(*(int(r.denominator) for r in rats))
            parts[k] = (den, {ab: (np.array(ids, np.int64), _fit(rs if floats else [
                int(r.numerator) * (den // int(r.denominator)) for r in rs]))
                              for ab, (ids, rs) in blocks.items()})
        a._parts = parts
    return a._parts


def _join_vectors(n, parts) -> InvariantForm:
    """The form of split vectors; it keeps them as its split, and builds its
    Scalar coefficients (``_vector_terms``) only when they are asked for."""
    form = InvariantForm.__new__(InvariantForm)
    form.n, form._terms, form._parts, form._key = n, None, parts, None
    return form


def _ordered_terms(n, parts, numeric):
    """(I, J, e, coefficient) per monomial of a split form, sorted by (I, J, e):
    the one order of float sums over monomials.  With numeric set the
    coefficient is sum_k float(c_k) pi^k, as ``Scalar.__float__`` computes it;
    otherwise {k: c_k} over ascending k, c_k rational or, in grade 0, a float."""
    coeffs = {}
    for k in sorted(parts):
        den, blocks = parts[k]
        for ab, (ids, vals) in blocks.items():
            keys = _BLOCKS[(n,) + ab].keys
            flt = vals.dtype.kind == "f"
            for i, c in zip(ids.tolist(), vals.tolist()):
                coeffs.setdefault(keys[i], {})[k] = c / den if flt else Rat(c, den)
    for key in sorted(coeffs):
        t = coeffs[key]
        yield (*key, sum(float(c) * math.pi ** k for k, c in t.items()) if numeric else t)


def _vector_terms(n, parts) -> dict:
    """The terms of the form of split vectors, in ``_ordered_terms`` order:
    Scalar coefficients, or float ones if any vector holds floats."""
    floats = any(vals.dtype.kind == "f" for _, blocks in parts.values()
                 for _, vals in blocks.values())
    terms = {}
    for I, J, e, c in _ordered_terms(n, parts, floats):
        terms.setdefault((I, J), {})[e] = c if floats else Scalar(c)
    return {key: SpherePoly._canonical(n, t) for key, t in terms.items()}


def _vector_key(n, parts) -> tuple:
    """A hashable key that determines the split form: n, then per pi power k
    and block (a, b) the denominator, the ids' bytes, the values' dtype and
    the values, as bytes for int64 and as a tuple of ints for object arrays."""
    return (n,) + tuple(
        (k, den, ab, ids.tobytes(), vals.dtype.str,
         tuple(vals.tolist()) if vals.dtype == object else vals.tobytes())
        for k, (den, blocks) in parts.items() for ab, (ids, vals) in blocks.items())


def _form_key(form) -> tuple:
    """The form's ``_vector_key``, computed once and kept with the form: the
    key of ``_cached_on_vectors``."""
    if form._key is None:
        form._key = _vector_key(form.n, _split_vectors(form))
    return form._key


def _key_vectors(key):
    """(n, split form) of a ``_vector_key``; the arrays are read-only."""
    n, *entries = key
    parts = {}
    for k, den, ab, ids, dtype, vals in entries:
        if isinstance(vals, tuple):
            out = np.empty(len(vals), object)
            out[:] = vals
        else:
            out = np.frombuffer(vals, dtype)
        parts.setdefault(k, (den, {}))[1][ab] = (np.frombuffer(ids, np.int64), out)
    return n, parts


def _cached_on_vectors(fn):
    """fn(n, parts) of a split form as a function of a form, in a bounded LRU
    on its vector key (``_form_key``): a form rebuilt from the same vectors
    hits, and no Scalar term is hashed.  Results are shared, not copied."""
    @lru_cache(maxsize=FORM_CACHE_SIZE)
    def cached(key):
        return fn(*_key_vectors(key))

    @wraps(fn)
    def call(form):
        return cached(_form_key(form))

    call.cache_info, call.cache_clear = cached.cache_info, cached.cache_clear
    return call


def _reduce_grade(den, blocks):
    """(den, blocks) divided through by the gcd of den and every entry; a
    grade holding floats stays as it is."""
    g = den
    for _, vals in blocks.values():
        g = 1 if vals.dtype.kind == "f" else math.gcd(
            g, int(np.gcd.reduce(vals)) if vals.dtype != object else math.gcd(*vals.tolist()))
        if g == 1:
            return den, blocks
    return den // g, {ab: (ids, vals // g) for ab, (ids, vals) in blocks.items()}


def _rescale(vals, f):
    """f times a vector's values."""
    (vals,) = _widen(_maxabs(vals) * f, vals)
    return _fit(vals * f)


def _add_vectors(n, p, q) -> dict:
    """Sum of two split forms, each pi power over the lcm of its denominators;
    a pi power that holds floats on either side is float64 over 1."""
    out = dict(p)
    for k, (dq, bq) in q.items():
        if k not in out:
            out[k] = (dq, bq)
            continue
        dp, bp = out[k]
        if any(vals.dtype.kind == "f" for _, vals in (*bp.values(), *bq.values())):
            # each exact entry c / den is rounded once, as int / int rounds
            bp, bq = ({ab: (ids, np.array([c / d for c in vals.tolist()], np.float64))
                       for ab, (ids, vals) in b.items()} for d, b in ((dp, bp), (dq, bq)))
            dp = dq = 1
        den = math.lcm(dp, dq)
        merged = {ab: (ids, _rescale(vals, den // dp)) for ab, (ids, vals) in bp.items()}
        for ab, (ids, vals) in bq.items():
            vals = _rescale(vals, den // dq)
            if ab in merged:
                acc = np.zeros(len(_BLOCKS[(n,) + ab].keys), object)
                np.add.at(acc, merged[ab][0], merged[ab][1].astype(object))
                np.add.at(acc, ids, vals.astype(object))
                ids = np.flatnonzero(acc)
                vals = _fit(acc[ids])
            merged[ab] = (ids, vals)
        merged = {ab: v for ab, v in merged.items() if len(v[0])}
        if merged:
            out[k] = _reduce_grade(den, merged)
        else:
            del out[k]
    return out


def _form(n, keys, values) -> InvariantForm:
    """The integer-coefficient form with coefficient values[i] on monomial keys[i]."""
    terms = {}
    for (I, J, e), c in zip(keys, values):
        terms.setdefault((I, J), {})[e] = c
    return InvariantForm(n, {key: SpherePoly._canonical(n, t) for key, t in terms.items()},
                         projected=True)


def _monomials(form, blk):
    """(ids, coefficients) of the monomials of a form that lies in block blk."""
    ids, values = [], []
    for (I, J), p in form.terms.items():
        if (len(I), len(J)) != (blk.a, blk.b):
            raise ArithmeticError(f"column outside its block {(blk.a, blk.b)}: {(I, J)}")
        for e, c in p.terms.items():
            ids.append(blk.id((I, J, e)))
            values.append(c)
    return np.array(ids, np.int64), values


def _decode_lanes(form, blk, lanes, B):
    """(lane, row, value) arrays of the monomials of form, lane i read from bits
    B i .. B i + B - 1 of each coefficient, less the bias 2^(B - 1)."""
    ids, values = _monomials(form, blk)
    nbytes, width = lanes * B // 8, B // 8
    bias = ((1 << (B * lanes)) - 1) // ((1 << B) - 1) << (B - 1)
    chunk = max(1, 65536 // lanes)
    out_l, out_r, out_v = [], [], []
    for s in range(0, len(values), chunk):
        part = values[s:s + chunk]
        raw = b"".join((c + bias).to_bytes(nbytes, "little") for c in part)
        x = np.zeros((len(part), lanes, 8), np.uint8)
        x[:, :, :width] = np.frombuffer(raw, np.uint8).reshape(len(part), lanes, width)
        # the lane's value minus the bias, modulo 2^64, read as int64
        x = (x.view("<u8")[:, :, 0] - np.uint64(1 << (B - 1))).view(np.int64)
        r, lane = np.nonzero(x)
        out_l.append(lane)
        out_r.append(ids[s:s + chunk][r])
        out_v.append(x[r, lane])
    if not out_l:
        return (np.zeros(0, np.int64),) * 3
    return tuple(np.concatenate(a) for a in (out_l, out_r, out_v))


def _lane_bits(bound) -> int:
    """Lane width B, a whole number of bytes, with bound < 2^(B - 1): entries
    of size up to bound decode exactly (and fit in int64 while B <= 64)."""
    return 8 * -(-(bound.bit_length() + 1) // 8)


def _key_order(blk, ids, vals):
    """A vector (ids, vals) of block blk; a float one sorted by monomial key,
    so that its sums run in ``_ordered_terms`` order."""
    if vals.dtype.kind != "f":
        return ids, vals
    keys = [blk.keys[i] for i in ids.tolist()]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return ids[order], vals[order]


def _ranges(start, size):
    """The positions start[k] .. start[k] + size[k] - 1, k in turn."""
    return np.repeat(start - np.cumsum(size) + size, size) + np.arange(int(size.sum()))


class _Columns:
    """Integer columns of a Z-linear operator on the monomials of one block.

    build(form) runs the dict operator on a lane-packed form and returns
    (output form, scale): the operator is output / scale.  bound(degree) is
    a proved bound on the entries of one column of that polynomial degree.
    """

    def __init__(self, n, a, b, build, bound, out):
        self.src = _block(n, a, b)
        self.build, self.bound = build, bound
        self.out = _block(n, *out)
        self.scale = 1
        self.slot = np.zeros(0, np.int64)  # column number per source id, -1 if not built
        self.orbits = {}  # orbit key -> (source id, g), as _build records them
        self.count = 0
        self.maxabs = 0
        self.start, self.size, self.rows, self.vals = (np.zeros(0, np.int64) for _ in range(4))

    def apply(self, ids, vals):
        """The image of the vector (ids, vals) in the output block, as (ids,
        vals), or None where it is empty.  Float entries are summed in
        ``_ordered_terms`` order."""
        ids, vals = _key_order(self.src, ids, vals)
        grow = len(self.src.keys) - len(self.slot)
        if grow:
            self.slot = np.concatenate([self.slot, np.full(grow, -1, np.int64)])
        cols = self.slot[ids]
        missing = ids[cols < 0]
        if missing.size:
            self._build(missing.tolist())
            cols = self.slot[ids]
        size = self.size[cols]
        idx = _ranges(self.start[cols], size)
        # every partial sum is at most max|x| * max|entry| * len(idx)
        x, col_vals = _widen(_maxabs(vals) * self.maxabs * len(idx), vals, self.vals[idx])
        acc = np.zeros(len(self.out.keys), x.dtype)
        np.add.at(acc, self.rows[idx], col_vals * np.repeat(x, size))
        nz = np.flatnonzero(acc)
        return (nz, _fit(acc[nz])) if nz.size else None

    def _build(self, missing):
        """Build the columns of the source ids missing.  The lane-packed
        passes build the first missing member of each orbit
        (``_Block.orbits``) with no built column, and record it as its
        orbit's source once its pass has succeeded; every other column is a
        built one permuted (``_permute``).  Lanes past 64 bits raise
        ArithmeticError, which no monomial of degree up to MAX_DEGREE
        reaches."""
        fresh, rest = {}, []
        for i, (key, g) in zip(missing, self.src.orbits(missing)):
            if key in self.orbits or key in fresh:
                rest.append((i, key, g))
            else:
                fresh[key] = (i, g)
        if fresh:
            todo = list(fresh.items())
            keys = [self.src.keys[i] for _, (i, _) in todo]
            degree = max(sum(e) for _, _, e in keys)
            B = _lane_bits(self.bound(degree))
            if B > 64:
                raise ArithmeticError(f"columns of degree {degree} need {B}-bit lanes")
            passes = -(-len(keys) * B // PACKED_BITS)
            step = -(-len(keys) // passes)
            for s in range(0, len(keys), step):
                self._build_lanes([i for _, (i, _) in todo[s:s + step]], keys[s:s + step], B)
                self.orbits.update(todo[s:s + step])
        if rest:
            self._permute(rest)

    def _permute(self, rest):
        """Build the column of each (id, orbit key, g) of rest from the column
        of its orbit's source s, recorded with the number h of a permutation
        that takes s where p_g takes the id.  p = p_g^-1 p_h takes s to the
        id times a sign, and the operator commutes with p (``_group``): the
        id's column is that sign times p applied to s's column, row by row,
        each row's image numbered in the output block with its own sign."""
        grp = _group(self.src.n)
        moves = []
        for i, key, g in rest:
            s, h = self.orbits[key]
            moves.append((i, s, grp.compose[grp.inverse[g], h]))
        ids, src, perms = np.array(moves, np.int64).T
        sign = grp.sign[perms, self.src.codes()[0][src]]
        cols = self.slot[src]
        self.slot[ids] = np.arange(self.count, self.count + len(ids))
        self.count += len(ids)
        size = self.size[cols]
        idx = _ranges(self.start[cols], size)
        rows, signs = self.out.image(np.repeat(perms, size), self.rows[idx])
        self._append(size, rows, self.vals[idx] * signs * np.repeat(sign, size))

    def _build_lanes(self, ids, keys, B):
        """Build the columns of the source ids, with monomials keys, in one
        pass of lanes B bits wide.  The output is decoded, and its rows
        numbered, before any column is recorded, so a pass that raises
        records none."""
        lanes = len(keys)
        packed = _form(self.src.n, keys, [1 << (B * i) for i in range(lanes)])
        form, self.scale = self.build(packed)
        lane, row, val = _decode_lanes(form, self.out, lanes, B)
        self.slot[ids] = np.arange(self.count, self.count + lanes)
        self.count += lanes
        order = np.argsort(lane, kind="stable")
        self._append(np.bincount(lane, minlength=lanes), row[order], val[order])
        if val.size:
            self.maxabs = max(self.maxabs, int(np.abs(val).max()))

    def _append(self, size, rows, vals):
        """Append columns: their sizes, then their rows and values one column
        after another."""
        self.start = np.concatenate([self.start, len(self.rows) + np.cumsum(size) - size])
        self.size = np.concatenate([self.size, size])
        self.rows = np.concatenate([self.rows, rows])
        self.vals = np.concatenate([self.vals, vals])


class _ColumnOperator:
    """A Z-linear operator as column caches keyed by (n, |I|, |J|) of its input.

    build(form) -> (output form, scale), as for _Columns; bound(n, a, b,
    degree) bounds the entries of a column; out(n, a, b) names the output
    block.
    """

    def __init__(self, build, bound, out):
        self.build, self.bound, self.out = build, bound, out
        self.caches = {}

    def columns(self, n, a, b) -> _Columns:
        cols = self.caches.get((n, a, b))
        if cols is None:
            cols = self.caches[(n, a, b)] = _Columns(
                n, a, b, self.build, lambda deg: self.bound(n, a, b, deg), self.out(n, a, b))
        return cols

    def apply(self, n, parts) -> dict:
        """The operator on every part of a split form, as a split form."""
        result = {}
        for k, (den, blocks) in parts.items():
            image = {}
            for (a, b), (ids, vals) in blocks.items():
                cols = self.columns(n, a, b)
                out = cols.apply(ids, vals)
                # the images of different input blocks lie in different blocks
                if out is not None:
                    image[(cols.out.a, cols.out.b)] = out
            if image:
                result[k] = _reduce_grade(den * cols.scale, image)
        return result


# column l1 norms of the steps the operators take, on monomials of canonical
# SpherePoly coefficients; a product's last exponent can reach 2 and rewrite
# into n terms, which is the factor n below


def _mul_norm(p: SpherePoly) -> int:
    """Bound on |q p|_1 over canonical monomials q."""
    n = p.n
    return sum(abs(c) * (n if e[n - 1] else 1) for e, c in p.terms.items())


def _wedge_norm(a: InvariantForm) -> int:
    """Bound on the column l1 norm of a ^ (.)."""
    return sum(_mul_norm(p) for p in a.terms.values())


@lru_cache(maxsize=None)
def _projection_norm(n, m) -> int:
    """Column l1 norm bound of the tangential projection of dv_J, |J| = m
    (0 where no such J exists)."""
    if m < 0:
        return 0
    return max((sum(_mul_norm(q) for _, q in _dv_projection(n, J))
                for J in combinations(range(n), m)), default=0)


def _d_norm(n, b, deg) -> int:
    """Bound for d on monomials of |J| = b and degree <= deg: sum_i e_i <= deg
    derivatives, each projected."""
    return deg * _projection_norm(n, b + 1)


def _reeb_norm(n, a) -> int:
    """Bound for i_T on |I| = a: a products v_i, of which only v_n's can
    rewrite into n terms."""
    return a + n - 1 if a else 0


def _alpha_norm(n, a) -> int:
    """Bound for alpha ^ (.) on |I| = a: n - a products v_i, of which only
    v_n's can rewrite into n terms."""
    return 2 * n - a - 1 if a < n else 0


def _horizontal_norm(n, a) -> int:
    """Bound for a - alpha ^ i_T a on |I| = a."""
    return 1 + _reeb_norm(n, a) * _alpha_norm(n, a - 1)


def _hodge_bound(n, a, b, deg) -> int:
    # one product v_t per t outside J, then the projection of the rest
    return (2 * n - b - 1) * _projection_norm(n, n - b - 1)


def _lie_bound(n, a, b, deg) -> int:
    # i_T d + d i_T; i_T raises the degree by one
    return _reeb_norm(n, a) * (_d_norm(n, b, deg) + _d_norm(n, b, deg + 1))


HODGE = _ColumnOperator(lambda f: (hodge_star(f), 1), _hodge_bound,
                        lambda n, a, b: (n - a, n - b - 1))
LIE_REEB = _ColumnOperator(lambda f: (lie_reeb(f), 1), _lie_bound,
                           lambda n, a, b: (a - 1, b + 1))


def _antipode_vectors(n, parts, sign):
    """sign times the antipodal pullback of a split form: (-1)^(|e| + |J|) per
    monomial.  Returns parts itself when no entry changes sign."""
    out = {}
    flips = False
    for k, (den, blocks) in parts.items():
        image = {}
        for (a, b), (ids, vals) in blocks.items():
            deg = _BLOCKS[(n, a, b)].codes()[2][ids]
            neg = (deg + b) % 2 == (0 if sign < 0 else 1)
            flips = flips or bool(neg.any())
            image[(a, b)] = (ids, np.where(neg, -vals, vals))
        out[k] = (den, image)
    return out if flips else parts


@lru_cache(maxsize=None)
def _partners(n, b):
    """For each key code Imask | Jmask << n of a monomial dx_I ^ dv_J of degree
    n - 1, |J| = b, the key codes of the n - b monomials its wedge reaches
    dx_1..n ^ dv_(all but t) with, one per t outside J, as arrays of shape
    (4^n, n - b): partner key, sign of wedge and fiber orientation, t."""
    key, sign, slot = (np.zeros((1 << (2 * n), n - b), np.int64) for _ in range(3))
    for I1, J1 in product(combinations(range(n), n - 1 - b), combinations(range(n), b)):
        code = sum(1 << i for i in I1) | sum(1 << (n + j) for j in J1)
        I2 = _complement(I1, n)
        for col, t in enumerate(_complement(J1, n)):
            J2 = tuple(j for j in _complement(J1, n) if j != t)
            s = _merge_sign(I1, I2) * _merge_sign(J1, J2) * (-1) ** (len(I2) * len(J1))
            key[code, col] = sum(1 << i for i in I2) | sum(1 << (n + j) for j in J2)
            sign[code, col] = s * _prepend_sign(tuple(sorted(J1 + J2)), t)
            slot[code, col] = t
    return key, sign, slot


@lru_cache(maxsize=None)
def _place(n):
    """2^(CONTRACT_BITS t) for t < n, as int64."""
    return np.array([1 << (CONTRACT_BITS * t) for t in range(n)], np.int64)


def _sphere_numerators(n, codes):
    """``exterior.sphere_numerator`` of the exponents of each of codes, every
    one even, packed CONTRACT_BITS bits each (``_place``), as an array: the
    product of its fields' one-variable numerators, each computed once per
    distinct exponent.  int64 while every product is below INT64_SAFE, Python
    ints past that."""
    fields = codes[:, None] // _place(n) & (1 << CONTRACT_BITS) - 1
    exps = sorted(set(fields.ravel().tolist()))
    table = [odd_factorial(e) for e in exps]
    table = np.array(table, np.int64 if n * table[-1].bit_length() <= 62 else object)
    return np.multiply.reduce(table[np.searchsorted(exps, fields)], axis=1)


@lru_cache(maxsize=FORM_CACHE_SIZE)
def _contract_plan(n, ab, ix, iy):
    """The part of ``_top_contract`` that reads the supports alone, ids ix on
    block ab and iy on the complementary block (int64 bytes): (px, py, w,
    starts, degrees, l1), or None where no product integrates to nonzero.

    Product m is x[px[m]] y[py[m]] times w[m], its partner sign times its
    code's sphere numerator.  The products run grouped by total degree, the
    group of degrees[g] from starts[g] on; l1 is sum |w|.  w is int64 while
    its entries fit, an object array of Python ints past that.  A code
    packs the product's exponents, the two degrees' sum plus one at most, in
    CONTRACT_BITS-bit fields, so a code is an int64."""
    ix, iy = np.frombuffer(ix, np.int64), np.frombuffer(iy, np.int64)
    a, b = ab
    blk_x, blk_y = _block(n, a, b), _block(n, n - a, n - 1 - b)
    kx, ky = blk_x.codes()[0][ix], blk_y.codes()[0]
    place, mod = _place(n), (1 << CONTRACT_BITS) - 1
    py = np.argsort(ky[iy], kind="stable")
    ky, ey = ky[iy[py]], blk_y.packed()[iy[py]]
    pkey, psign, pslot = (t[kx].ravel() for t in _partners(n, b))
    # the code of x_i's exponents times its partner's v_t, per (i, slot)
    ex = np.repeat(blk_x.packed()[ix], n - b) + place[pslot]
    lo = np.searchsorted(ky, pkey)
    count = np.searchsorted(ky, pkey, side="right") - lo
    pair = np.repeat(np.arange(len(count)), count)
    j = np.repeat(lo - np.cumsum(count) + count, count) + np.arange(len(pair))
    code = ex[pair] + ey[j]
    # only codes with every exponent even integrate to nonzero
    even = np.flatnonzero((code & place.sum()) == 0)
    if not even.size:
        return None
    # an even code's fields sum to its degree, which is even and so below
    # mod; as 2^CONTRACT_BITS is 1 modulo mod, so is the code
    code = code[even]
    degree = code % mod
    order = np.lexsort((code, degree))
    code, degree, pair, j = code[order], degree[order], pair[even[order]], j[even[order]]
    edges = np.flatnonzero(np.concatenate(([True], code[1:] != code[:-1], [True])))
    size = np.diff(edges)
    num = _sphere_numerators(n, code[edges[:-1]])
    w = np.repeat(num, size) * psign[pair]
    starts = np.flatnonzero(np.concatenate(([True], degree[1:] != degree[:-1])))
    l1 = sum(c * s for c, s in zip(num.tolist(), size.tolist()))
    plan = pair // (n - b), py[j], w, starts
    for arr in plan:
        arr.flags.writeable = False  # shared by every call on these supports
    return (*plan, degree[starts].tolist(), l1)


def _top_contract(n, ab, x_vec, y_vec):
    """Top coefficient of pi_*(x ^ y) for integer vectors x on block ab and y
    on the complementary block, as {pi power: rational}.

    Which products x_i y_j integrate to nonzero, and with which weight,
    depends on the supports alone: ``_contract_plan`` finds them once per
    pair of supports and keeps them in an LRU of FORM_CACHE_SIZE plans.  It
    packs the exponents of a product v^(e_x + e_y) v_t, at most the two
    degrees' sum plus one, into one int64 code of CONTRACT_BITS-bit fields.
    The integral of v^e is ``sphere_numerator`` times a factor of n and |e|
    alone (``sphere_factor``), so a plan weighs each even product by its partner
    sign times its code's numerator, computed once per code, and groups the
    products by total degree.  A call is then one integer pass: the weighted
    products summed per degree, in int64 while max|x| max|y| sum|w| bounds
    every partial sum below 2^63 and in Python ints past it, and one
    fraction per degree."""
    (ix, x), (iy, y) = x_vec, y_vec
    plan = _contract_plan(n, ab, ix.tobytes(), iy.tobytes())
    if plan is None:
        return {}
    px, py, w, starts, degrees, l1 = plan
    x, y, w = _widen(_maxabs(x) * _maxabs(y) * l1, x, y, w)
    out = {}
    for deg, t in zip(degrees, np.add.reduceat(x[px] * y[py] * w, starts).tolist()):
        if t:
            (power, r), = sphere_factor(n, deg).terms.items()
            out[power] = out.get(power, 0) + t * r
    return out


def pair_top(n, omega, parts) -> Scalar:
    """Top coefficient of pi_*(omega ^ y) for a form omega of degree n - 1 and
    a split form y of degree n, contracted on their vectors."""
    first = {}
    for k1, (d1, blocks1) in _split_vectors(omega).items():
        for k2, (d2, blocks2) in parts.items():
            for (a, b), x in blocks1.items():
                y = blocks2.get((n - a, n - 1 - b))
                if y is None:
                    continue
                for power, r in _top_contract(n, (a, b), x, y).items():
                    key = k1 + k2 + power
                    first[key] = first.get(key, 0) + r / (d1 * d2)
    return Scalar(first)
