"""Numeric values of Z_u and its images under the operators, one per line.

Prints the float.hex of Z_u, Lambda Z_u, Lambda^2 Z_u and, for an exact u,
sigma Z_u, each on a 4-simplex and on a ball of radius 0.7 (``ball_value``),
and of Z_u on the tube of radius 0.4 about the simplex (``evaluate_tube``),
for an exact and a float direction u.  Run with ``cold`` it computes nothing
first.  Run with ``warm`` it first splits vol_2 and applies signature and
derivation twice to other directions, so that the process numbers the
monomials of the shared blocks in another order.  The two runs must print
the same lines:

    python tests/history_probe.py cold > cold.txt
    python tests/history_probe.py warm > warm.txt
    cmp cold.txt warm.txt
"""

import sys

from valcalc.bodies import Simplex, evaluate, evaluate_tube
from valcalc.su2 import ImDirection, z_rep
from valcalc.valuation import ball_value, derivation, intrinsic_volume_rep, signature

SIMPLEX = Simplex([[0.0, 0.0, 0.0, 0.0], [1.1, 0.0, 0.1, 0.0], [0.2, 0.9, 0.0, -0.1],
                   [0.1, 0.2, 1.0, 0.0], [0.3, 0.1, 0.2, 0.8]])
DIRECTIONS = (ImDirection.of(1, -2, 3), ImDirection.of(0.48, -0.6, 0.64))


def warm_up():
    """Operators on other directions, and on a form of block (2, 1)."""
    derivation(derivation(intrinsic_volume_rep(4, 2)))
    for u in (ImDirection.of(5, 0, -2), ImDirection.of(0, 3, 7)):
        signature(z_rep(u))
        derivation(derivation(z_rep(u)))
    derivation(derivation(z_rep(ImDirection.of(0.3, 0.0, -0.9))))


def lines():
    for u in DIRECTIONS:
        zu = z_rep(u)
        reps = {"Z": zu, "Lambda Z": derivation(zu), "Lambda^2 Z": derivation(derivation(zu))}
        if u.exact:
            reps["sigma Z"] = signature(zu)
        for name, rep in reps.items():
            yield f"{u} {name} simplex {evaluate(rep, SIMPLEX).hex()}"
            yield f"{u} {name} ball {ball_value(rep, 0.7).hex()}"
        yield f"{u} Z tube {evaluate_tube(zu, SIMPLEX, 0.4).hex()}"


def main(argv):
    if argv != ["cold"] and argv != ["warm"]:
        sys.exit("usage: history_probe.py cold|warm")
    if argv == ["warm"]:
        warm_up()
    for line in lines():
        print(line)


if __name__ == "__main__":
    main(sys.argv[1:])
