"""Command line surface: exact calculus, evaluation, and verification reports.

Exact scalars print in their canonical string form; floats print with twelve
digits after the decimal point, matching the precision promised by the
evaluators.  Every command accepts --json for machine-readable output with
the same numeric content.  Exit codes: 0 success, 2 invalid input (bad
arguments, malformed files or non-exact coefficients, with the offending
location in the message), 3 numeric failure (non-convergence, an arithmetic
error).
"""

import argparse
import json
import math
import sys
from contextlib import contextmanager

from . import serialization as ser
from .bodies import evaluate, klain
from .contact import rumin
from .exterior import alpha_form
from .kinematic import (
    KOROBOV_CANDIDATES,
    REPLICATES,
    SampleCountError,
    gram_matrix,
    kinematic_tensor,
    mc_poincare,
    mc_principal_kinematic,
)
from .scalars import Rat
from .su2 import ImDirection, _scaled_forms, quaternionic_forms, z_rep
from .valuation import derivation, euler_verdier, laplace, pairing, signature

OPERATORS = {
    "sigma": euler_verdier,
    "lambda": derivation,
    "signature": signature,
    "laplace": laplace,
}

BASES = ("icosahedron", "alesker")


def format_float(x) -> str:
    return f"{float(x):.12f}"


def _table(rows) -> str:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(c.rjust(w) for c, w in zip(r, widths)).rstrip()
                     for r in rows)


def _labeled_matrix(basis, labels, matrix):
    """The text table and the JSON payload of a basis's labelled matrix."""
    cells = [[str(x) for x in row] for row in matrix]
    rows = [[""] + list(labels)] + [[lab] + row for lab, row in zip(labels, cells)]
    return _table(rows), {"basis": basis, "labels": list(labels), "matrix": cells}


def _number(text: str) -> float:
    if "/" in text:
        return float(Rat(text))
    return float(text)


def _seed_arg(text: str) -> int:
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if not 0 <= v < 2 ** 64:
        raise argparse.ArgumentTypeError("seed must fit in 64 unsigned bits")
    return v


def _positive_arg(text: str) -> int:
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if v <= 0:
        raise argparse.ArgumentTypeError("must be positive")
    return v


def _direction_arg(text: str) -> ImDirection:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"{text!r}: expected three comma-separated components a,b,c")
    vals = []
    for part in parts:
        part = part.strip()
        try:
            vals.append(float(part) if "." in part else Rat(part))
        except (ValueError, ZeroDivisionError):
            raise argparse.ArgumentTypeError(
                f"{text!r}: bad component {part!r}") from None
    try:
        return ImDirection.of(*vals)
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"{text!r}: {e}") from None


def _plane_arg(text: str):
    frame = []
    for i, chunk in enumerate(text.split(";")):
        try:
            frame.append([_number(x) for x in chunk.split(",")])
        except (ValueError, ZeroDivisionError):
            raise argparse.ArgumentTypeError(
                f"vector {i + 1} of {text!r} is not a comma-separated number list"
            ) from None
    if len({len(v) for v in frame}) != 1:
        raise argparse.ArgumentTypeError("frame vectors must have equal length")
    return frame


@contextmanager
def _naming(*inputs):
    """Prefix the message of an error raised within by the inputs it was
    computed from, as "--a a.json, --b b.json: ", keeping its class and so
    its exit code; a message that starts with its option keeps its own."""
    try:
        yield
    except (ValueError, TypeError, RuntimeError, ArithmeticError) as e:
        if not str(e).startswith("--"):
            e.args = (f"{', '.join(inputs)}: {e}",)
        raise


def cmd_rumin(args):
    form = ser.load_form(args.form)
    with _naming(f"--form {args.form}"):
        res = rumin(form)
        human = f"D_omega = {res.D_omega}\nxi = {res.xi}"
        payload = {
            "D_omega": ser.form_to_json(res.D_omega),
            "xi": ser.form_to_json(res.xi),
            "ansatz_degree": res.ansatz_degree,
        }
    return human, payload


def cmd_pair(args):
    a = ser.load_valuation(args.a)
    b = ser.load_valuation(args.b)
    with _naming(f"--a {args.a}", f"--b {args.b}"):
        if a.n != b.n:
            raise ValueError(f"dimension mismatch ({a.n} and {b.n})")
        value = pairing(a, b)
    return str(value), {"pairing": str(value)}


def cmd_op(args):
    mu = ser.load_valuation(args.valuation)
    with _naming(f"--valuation {args.valuation}"):
        out = OPERATORS[args.name](mu)
    top = "^".join(f"dx{i + 1}" for i in range(out.n))
    human = f"omega = {out.omega}\nphi = " + (f"({out.phi}) {top}" if out.phi else "0")
    return human, {"name": args.name, "result": ser.valuation_to_json(out)}


def cmd_eval(args):
    mu = ser.load_valuation(args.valuation)
    body = ser.load_body(args.body)
    with _naming(f"--valuation {args.valuation}", f"--body {args.body}"):
        value = evaluate(mu, body)
    return format_float(value), {"value": value}


def cmd_su2_gram(args):
    return _labeled_matrix(args.basis, *gram_matrix(args.basis))


def cmd_su2_kinematic(args):
    tensor = kinematic_tensor(args.basis)
    return _labeled_matrix(args.basis, tensor.labels, tensor.matrix)


def cmd_su2_forms(args):
    u = args.u
    if not u.exact:
        raise ValueError("su2 forms requires rational direction components")
    norm_sq = int(u.norm_sq)
    root = math.isqrt(norm_sq)
    if root * root == norm_sq:
        alpha, beta, gamma, omega = quaternionic_forms(u)
        scale = 1
    else:
        # unit normalization would be irrational; emit the forms of the
        # primitive integer triple and record the squared normalizer
        alpha = alpha_form(4)
        beta, gamma, omega = _scaled_forms(tuple(Rat(c) for c in u.coords))
        scale = norm_sq
    z = z_rep(u)
    named = [("alpha", alpha), ("beta", beta), ("gamma", gamma), ("Omega", omega)]
    payload = {"u": [int(c) for c in u.coords], "norm_sq": scale}
    lines = [f"u = {u}"]
    if scale != 1:
        lines.append(f"forms are for the integer triple; divide by sqrt({scale}) "
                     "to normalize")
    for name, form in named:
        payload[name] = ser.form_to_json(form)
        lines.append(f"{name} = {form}")
    payload["z"] = ser.valuation_to_json(z)
    if args.z_out:
        ser.write_json_file(payload["z"], args.z_out)
        lines.append(f"wrote z valuation to {args.z_out}")
    return "\n".join(lines), payload


def cmd_verify_mc(args):
    K = ser.load_body(args.k)
    L = ser.load_body(args.l)
    estimator = mc_poincare if args.poincare else mc_principal_kinematic
    with _naming(f"--k {args.k}", f"--l {args.l}"):
        try:
            report = estimator(K, L, N=args.samples, seed=args.seed, threads=args.threads)
        except SampleCountError as e:
            raise ValueError(f"--samples: {e}") from None
    payload = report.to_dict()
    rows = [[key, format_float(val) if isinstance(val, float) else str(val)]
            for key, val in payload.items()]
    # strict JSON has no Infinity: a zero-variance estimate off its rhs has z = inf
    payload["z_score"] = report.z_score if math.isfinite(report.z_score) else None
    return _table(rows), payload


def cmd_klain(args):
    mu = z_rep(args.u)
    with _naming("--plane " + ";".join(",".join(map(repr, v)) for v in args.plane)):
        value = klain(mu, args.plane)
    return format_float(value), {"value": value}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="print machine-readable JSON instead of text")

    parser = argparse.ArgumentParser(
        prog="valcalc",
        description="Exact calculus of translation-invariant valuations.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rumin", parents=[common],
                       help="corrected differential of an invariant form")
    p.add_argument("--form", required=True, help="JSON file with the input form")
    p.set_defaults(handler=cmd_rumin)

    p = sub.add_parser("pair", parents=[common],
                       help="exact pairing of two valuations")
    p.add_argument("--a", required=True, help="JSON file, first valuation")
    p.add_argument("--b", required=True, help="JSON file, second valuation")
    p.set_defaults(handler=cmd_pair)

    p = sub.add_parser("op", parents=[common], help="apply an operator")
    p.add_argument("--name", required=True, choices=sorted(OPERATORS))
    p.add_argument("--valuation", required=True, help="JSON file with the input")
    p.set_defaults(handler=cmd_op)

    p = sub.add_parser("eval", parents=[common],
                       help="evaluate a valuation on a convex body")
    p.add_argument("--valuation", required=True, help="JSON valuation file")
    p.add_argument("--body", required=True, help="JSON body file")
    p.set_defaults(handler=cmd_eval)

    p_su2 = sub.add_parser("su2", help="quaternionic line computations")
    su2_sub = p_su2.add_subparsers(dest="su2_command", required=True)

    p = su2_sub.add_parser("gram", parents=[common],
                           help="exact pairing Gram matrix of the ten-element basis")
    p.add_argument("--basis", choices=BASES, default=BASES[0])
    p.set_defaults(handler=cmd_su2_gram)

    p = su2_sub.add_parser("kinematic", parents=[common],
                           help="exact kinematic coefficient table")
    p.add_argument("--basis", choices=BASES, default=BASES[0])
    p.set_defaults(handler=cmd_su2_kinematic)

    p = su2_sub.add_parser("forms", parents=[common],
                           help="forms attached to an imaginary direction")
    p.add_argument("--u", required=True, type=_direction_arg,
                   help="direction a,b,c (rational components stay exact)")
    p.add_argument("--z-out", help="also write the Z_u valuation to this file")
    p.set_defaults(handler=cmd_su2_forms)

    p_verify = sub.add_parser("verify", help="Monte Carlo verification")
    verify_sub = p_verify.add_subparsers(dest="verify_command", required=True)

    p = verify_sub.add_parser(
        "mc", parents=[common], help="motion integral estimate vs exact value",
        description=(
            "Monte Carlo estimate of a motion integral against its exact value. Every "
            "pair runs a rank-1 lattice of n = N/{R} points in [0, 1)^s under {R} random "
            "shifts: N must be a multiple of {R}, and the standard error is that of the "
            "{R} shift means, with {R1} degrees of freedom, so |z| > 3 has probability "
            "0.009 with no defect. A ball against a ball or a box integrates three "
            "coordinates of the box's frame in closed form (a rounded 3-box section, by "
            "the Steiner formula) and takes the fourth from the 1-D lattice, folded by "
            "the tent 1 - |2x - 1|. Every other pair draws only rotations, unit "
            "quaternions q from the 3-D lattice with generating vector (1, a, a^2 mod n), "
            "its first coordinate folded by the tent 1 - |2u - 1| and mapped onto S^3 by "
            "Shoemake's map. Each is weighed by the pair's mixed volumes over the faces: "
            "maxima of linear forms in q over a hull's vertices, |linear forms| over a "
            "box's axes, a box being a zonotope, and |quadratic forms| over pairs of "
            "2-faces, forms equal up to sign or rounding merged (two rotated boxes 34, "
            "two plates one), a ball's being a cube's whose faces weigh powers of its "
            "radius (Steiner and Kubota). a is, of the a "
            "coprime to n in (n/4, n/2] first at or above {C} evenly spaced points, the "
            "one of least figure of merit P_2.").format(
                R=REPLICATES, R1=REPLICATES - 1, C=KOROBOV_CANDIDATES))
    p.add_argument("--k", required=True, help="JSON body file, fixed body")
    p.add_argument("--l", required=True, help="JSON body file, moving body")
    p.add_argument("--samples", required=True, type=_positive_arg,
                   help=f"N, a multiple of {REPLICATES}: {REPLICATES} shifted lattices of "
                        f"N/{REPLICATES} points, 1-D for a ball against a ball or a box, 3-D "
                        f"Korobov rotations otherwise")
    p.add_argument("--seed", required=True, type=_seed_arg,
                   help="explicit RNG seed (no wall-clock seeding)")
    p.add_argument("--poincare", action="store_true",
                   help="compare with the plane-class density (1 + (u.v)^2)/4 of the "
                        "intersection count instead of the exact tensor; only the "
                        "right-hand side changes, and both bodies must be polygons")
    p.add_argument("--threads", type=_positive_arg, default=1)
    p.set_defaults(handler=cmd_verify_mc)

    p = sub.add_parser("klain", parents=[common],
                       help="Klain density of Z_u on a 2-plane")
    p.add_argument("--u", required=True, type=_direction_arg)
    p.add_argument("--plane", required=True, type=_plane_arg,
                   help="frame vectors like x1,x2,x3,x4;y1,y2,y3,y4")
    p.set_defaults(handler=cmd_klain)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        human, payload = args.handler(args)
    except (ValueError, TypeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    print(json.dumps(payload, indent=2) if args.json else human)
    return 0


if __name__ == "__main__":
    sys.exit(main())
