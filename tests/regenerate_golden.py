"""Regenerate the golden CLI outputs under tests/golden.

Writes the inputs of the CI's exact steps to tests/golden/inputs: Z_u of
four directions through ``su2 forms --z-out``, the omega of two of them as
Rumin inputs, the volume of R^4 and V_2 times v1^300.  Then runs every
command of tests/golden/commands.json through ``cli.main`` in that
directory and writes its stdout to tests/golden/outputs, as <name>.txt and,
with --json, as <name>.json.  test_golden.py compares against these bytes.
Run it only where an exact output is meant to change, and list each file
that changed:

    PYTHONPATH=src python tests/regenerate_golden.py
"""

import contextlib
import io
import json
import os
from pathlib import Path

from valcalc import cli
from valcalc import serialization as ser
from valcalc.exterior import SpherePoly
from valcalc.valuation import ValuationRep, intrinsic_volume_rep

GOLDEN = Path(__file__).resolve().parent / "golden"
DIRECTIONS = {"zu": "1,0,2", "zv": "0,3,-2", "bu": "1099511627777,3,-5",
              "bv": "2,-1180591620717411303425,7"}


def stdout_of(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    if rc:
        raise SystemExit(f"{argv} exited {rc}")
    return out.getvalue()


def write_inputs():
    inputs = GOLDEN / "inputs"
    inputs.mkdir(exist_ok=True)
    for name, u in DIRECTIONS.items():
        stdout_of(["su2", "forms", "--u", u, "--z-out", f"inputs/{name}.json"])
    for name in ("zu", "bu"):
        omega = json.loads((inputs / f"{name}.json").read_text())["omega"]
        ser.write_json_file(omega, inputs / f"omega_{name}.json")
    ser.write_json_file(ser.valuation_to_json(intrinsic_volume_rep(4, 4)), inputs / "vol.json")
    high = ValuationRep(4, intrinsic_volume_rep(4, 2).omega * SpherePoly(4, {(300, 0, 0, 0): 1}))
    ser.write_json_file(ser.valuation_to_json(high), inputs / "v1_300.json")


def main():
    os.chdir(GOLDEN)
    write_inputs()
    outputs = GOLDEN / "outputs"
    outputs.mkdir(exist_ok=True)
    commands = json.loads((GOLDEN / "commands.json").read_text())
    for name, argv in commands.items():
        (outputs / f"{name}.txt").write_text(stdout_of(argv))
        (outputs / f"{name}.json").write_text(stdout_of(argv + ["--json"]))


if __name__ == "__main__":
    main()
