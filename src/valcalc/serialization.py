"""JSON encoding of forms, valuations, and bodies with exact round trips.

Exact objects serialize their canonical internal representation: rationals
become "p/q" strings, scalars become {pi power: rational} objects, and form
indices are written 1-based to match the printed names dx1..dxn.  Parsing
re-canonicalizes (sphere reduction and tangential projection), so hand
written files land on the same normal forms the library produces, and
serialize-then-parse returns an equal value bit for bit.

Forms with float coefficients have no exact representation and are rejected.
Body coordinates are floats and round-trip through the shortest-repr float
encoding of the json module.
"""

import json
import math

from .bodies import Ball, Box, PlanarPolygon, Simplex
from .exterior import InvariantForm, SpherePoly
from .scalars import _RAT_TYPES, Rat, Scalar
from .valuation import ValuationRep

# the largest |number| a body file may hold: evaluations reach eighth powers
# of a body's coordinates (Gram determinants of 4 edges), which stay finite
MAX_COORDINATE = 1e30


class SerializationError(ValueError):
    """Malformed serialized data; the message names the offending location."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")


def scalar_to_json(c) -> dict:
    """Scalar (or exact rational) as {pi power: "p/q"} with string keys."""
    if isinstance(c, float):
        raise ValueError("float coefficients cannot be serialized exactly")
    if isinstance(c, Scalar):
        return {str(k): str(c.terms[k]) for k in sorted(c.terms)}
    if isinstance(c, _RAT_TYPES):
        return {"0": str(Rat(c))} if c else {}
    raise TypeError(f"cannot serialize coefficient {c!r}")


def scalar_from_json(obj, path="coeff") -> Scalar:
    if not isinstance(obj, dict):
        raise SerializationError(path, "expected an object mapping pi powers to rationals")
    terms = {}
    for key, val in obj.items():
        where = f"{path}[{key!r}]"
        try:
            power = int(key)
        except ValueError:
            raise SerializationError(where, "pi power must be an integer") from None
        if not isinstance(val, str):
            raise SerializationError(where, "rational must be a 'p/q' string")
        try:
            terms[power] = terms.get(power, 0) + Rat(val)
        except (ValueError, ZeroDivisionError):
            raise SerializationError(where, f"bad rational {val!r}") from None
    return Scalar(terms)


def form_to_json(form: InvariantForm) -> dict:
    terms = []
    for key in sorted(form.terms, key=lambda k: (len(k[0]) + len(k[1]), k)):
        I, J = key
        p = form.terms[key]
        poly = [{"exp": list(e), "coeff": scalar_to_json(p.terms[e])}
                for e in sorted(p.terms)]
        terms.append({"dx": [i + 1 for i in I], "dv": [j + 1 for j in J], "poly": poly})
    return {"dim": form.n, "terms": terms}


def _check_dim(obj, path) -> int:
    if not isinstance(obj, dict):
        raise SerializationError(path, "expected a JSON object")
    n = obj.get("dim")
    if not isinstance(n, int) or isinstance(n, bool) or not 2 <= n <= 4:
        raise SerializationError(f"{path}.dim", "dim must be an integer between 2 and 4")
    return n


def _index_tuple(raw, n, path) -> tuple:
    if not isinstance(raw, list) or not all(
            isinstance(i, int) and not isinstance(i, bool) for i in raw):
        raise SerializationError(path, "expected a list of integers")
    if any(not 1 <= i <= n for i in raw):
        raise SerializationError(path, f"indices must lie in 1..{n}")
    if sorted(set(raw)) != raw:
        raise SerializationError(path, "indices must be strictly increasing")
    return tuple(i - 1 for i in raw)


def _poly_from_json(raw, n, path) -> SpherePoly:
    if not isinstance(raw, list):
        raise SerializationError(path, "expected a list of monomials")
    terms = {}
    for idx, mono in enumerate(raw):
        where = f"{path}[{idx}]"
        if not isinstance(mono, dict):
            raise SerializationError(where, "expected an object with exp and coeff")
        exp = mono.get("exp")
        if (not isinstance(exp, list) or len(exp) != n
                or not all(isinstance(e, int) and not isinstance(e, bool) and e >= 0
                           for e in exp)):
            raise SerializationError(f"{where}.exp",
                                     f"expected {n} nonnegative integer exponents")
        c = scalar_from_json(mono.get("coeff", {}), f"{where}.coeff")
        e = tuple(exp)
        terms[e] = terms.get(e, Scalar()) + c
    return SpherePoly(n, terms)


def form_from_json(obj, path="form") -> InvariantForm:
    n = _check_dim(obj, path)
    raw_terms = obj.get("terms")
    if not isinstance(raw_terms, list):
        raise SerializationError(f"{path}.terms", "expected a list of terms")
    acc = {}
    for idx, term in enumerate(raw_terms):
        where = f"{path}.terms[{idx}]"
        if not isinstance(term, dict):
            raise SerializationError(where, "expected an object with dx, dv, poly")
        I = _index_tuple(term.get("dx", []), n, f"{where}.dx")
        J = _index_tuple(term.get("dv", []), n, f"{where}.dv")
        p = _poly_from_json(term.get("poly", []), n, f"{where}.poly")
        key = (I, J)
        acc[key] = acc[key] + p if key in acc else p
    return InvariantForm(n, acc)


def valuation_to_json(mu: ValuationRep) -> dict:
    return {
        "dim": mu.n,
        "omega": form_to_json(mu.omega),
        "phi": scalar_to_json(mu.phi),
    }


def valuation_from_json(obj, path="valuation") -> ValuationRep:
    n = _check_dim(obj, path)
    omega = form_from_json(obj.get("omega", {"dim": n, "terms": []}), f"{path}.omega")
    phi = scalar_from_json(obj.get("phi", {}), f"{path}.phi")
    try:
        return ValuationRep(n, omega, phi)
    except ValueError as e:
        raise SerializationError(path, str(e)) from None


def _vector(raw, path):
    if (not isinstance(raw, list) or not raw
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                       for x in raw)):
        raise SerializationError(path, "expected a nonempty list of numbers")
    # the size first: an int too large for a float has no isfinite
    if any(abs(x) > MAX_COORDINATE for x in raw):
        raise SerializationError(path, f"numbers must be at most {MAX_COORDINATE:g} in size")
    if not all(math.isfinite(x) for x in raw):
        raise SerializationError(path, "numbers must be finite")
    return [float(x) for x in raw]


def _matrix(raw, path):
    if not isinstance(raw, list) or not raw:
        raise SerializationError(path, "expected a list of rows")
    rows = [_vector(r, f"{path}[{i}]") for i, r in enumerate(raw)]
    if len({len(r) for r in rows}) != 1:
        raise SerializationError(path, "rows must have equal length")
    return rows


def body_to_json(K) -> dict:
    if isinstance(K, Ball):
        return {"type": "ball", "center": list(map(float, K.center)),
                "radius": float(K.radius)}
    if isinstance(K, Box):
        return {"type": "box", "center": list(map(float, K.center)),
                "half_extents": list(map(float, K.half_extents)),
                "rotation": [list(map(float, row)) for row in K.rotation]}
    if isinstance(K, Simplex):
        return {"type": "simplex",
                "vertices": [list(map(float, v)) for v in K.vertices]}
    if isinstance(K, PlanarPolygon):
        return {"type": "polygon",
                "frame": [list(map(float, row)) for row in K.frame],
                "vertices": [list(map(float, v)) for v in K.vertices2d],
                "base": list(map(float, K.base))}
    raise TypeError(f"cannot serialize body {K!r}")


def body_from_json(obj, path="body"):
    if not isinstance(obj, dict):
        raise SerializationError(path, "expected a JSON object")
    tag = obj.get("type")
    try:
        if tag == "ball":
            radius = obj.get("radius")
            if not isinstance(radius, (int, float)) or isinstance(radius, bool):
                raise SerializationError(f"{path}.radius", "expected a number")
            (radius,) = _vector([radius], f"{path}.radius")
            body = Ball(_vector(obj.get("center"), f"{path}.center"), radius)
        elif tag == "box":
            rot = obj.get("rotation")
            body = Box(_vector(obj.get("center"), f"{path}.center"),
                       _vector(obj.get("half_extents"), f"{path}.half_extents"),
                       None if rot is None else _matrix(rot, f"{path}.rotation"))
        elif tag == "simplex":
            body = Simplex(_matrix(obj.get("vertices"), f"{path}.vertices"))
        elif tag == "polygon":
            base = obj.get("base")
            body = PlanarPolygon(_matrix(obj.get("frame"), f"{path}.frame"),
                                 _matrix(obj.get("vertices"), f"{path}.vertices"),
                                 None if base is None else _vector(base, f"{path}.base"))
        else:
            raise SerializationError(
                f"{path}.type", "expected one of ball, box, simplex, polygon")
    except SerializationError:
        raise
    except ValueError as e:
        raise SerializationError(path, str(e)) from None
    if not 2 <= body.dim <= 4:
        raise SerializationError(path, "body dimension must lie between 2 and 4")
    return body


def read_json_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise SerializationError(path, e.strerror or str(e)) from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise SerializationError(f"{path}:{e.lineno}:{e.colno}", e.msg) from None


def write_json_file(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def load_form(path) -> InvariantForm:
    return form_from_json(read_json_file(path), path=str(path))


def load_valuation(path) -> ValuationRep:
    return valuation_from_json(read_json_file(path), path=str(path))


def load_body(path):
    return body_from_json(read_json_file(path), path=str(path))
