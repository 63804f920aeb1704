import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from valcalc import cli, kinematic
from valcalc import serialization as ser
from valcalc.bodies import Ball, Box, PlanarPolygon, Simplex
from valcalc.cli import main
from valcalc.contact import rumin
from valcalc.kinematic import kinematic_tensor
from valcalc.su2 import ImDirection, quaternionic_forms, z_rep
from valcalc.exterior import SpherePoly
from valcalc.valuation import ValuationRep, derivation, intrinsic_volume_rep, pairing


def run(capsys, *args):
    rc = main(list(args))
    out = capsys.readouterr()
    return rc, out.out, out.err


@pytest.fixture
def files(tmp_path):
    def save(name, obj):
        p = tmp_path / name
        ser.write_json_file(obj, p)
        return str(p)

    return tmp_path, save


def square(side=1.0):
    h = side / 2.0
    return PlanarPolygon(np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]]),
                         np.array([[h, -h], [h, h], [-h, h], [-h, -h]]))


class TestDocumentedOutputs:
    def test_pair_orthogonal_directions(self, capsys, files):
        _, save = files
        a = save("zu_i.json", ser.valuation_to_json(z_rep(ImDirection.of(1, 0, 0))))
        b = save("zu_j.json", ser.valuation_to_json(z_rep(ImDirection.of(0, 1, 0))))
        rc, out, _ = run(capsys, "pair", "--a", a, "--b", b)
        assert rc == 0
        assert out.strip() == "1/4"

    def test_eval_chi_on_box(self, capsys, files):
        _, save = files
        chi = save("chi.json", ser.valuation_to_json(intrinsic_volume_rep(4, 0)))
        box = save("box.json", ser.body_to_json(Box(np.zeros(4), 0.5 * np.ones(4))))
        rc, out, _ = run(capsys, "eval", "--valuation", chi, "--body", box)
        assert rc == 0
        assert out.strip() == "1.000000000000"

    def test_kinematic_table_constants(self, capsys):
        rc, out, _ = run(capsys, "su2", "kinematic")
        assert rc == 0
        assert "17/4" in out
        assert "-3/4" in out
        assert "4/3*pi^-1" in out

    @pytest.mark.parametrize("basis", ["icosahedron", "alesker"])
    def test_kinematic_basis(self, capsys, basis):
        rc, out, _ = run(capsys, "su2", "kinematic", "--basis", basis, "--json")
        assert rc == 0
        payload = json.loads(out)
        tensor = kinematic_tensor(basis)
        assert payload["basis"] == basis
        assert payload["labels"] == list(tensor.labels)
        assert payload["matrix"] == [[str(x) for x in row] for row in tensor.matrix]

    def test_kinematic_unknown_basis(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["su2", "kinematic", "--basis", "cube"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_gram_table_constants(self, capsys):
        rc, out, _ = run(capsys, "su2", "gram")
        assert rc == 0
        assert "1/2" in out
        assert "3/10" in out
        assert "3/4*pi" in out


class TestJsonParity:
    def test_eval_same_value(self, capsys, files):
        _, save = files
        vol = save("vol.json", ser.valuation_to_json(intrinsic_volume_rep(4, 4)))
        body = save("box.json", ser.body_to_json(
            Box(np.zeros(4), np.array([0.5, 1.0, 0.25, 0.75]))))
        rc, human, _ = run(capsys, "eval", "--valuation", vol, "--body", body)
        assert rc == 0
        rc, machine, _ = run(capsys, "eval", "--valuation", vol, "--body", body, "--json")
        assert rc == 0
        assert abs(json.loads(machine)["value"] - float(human)) < 1e-12

    def test_pair_same_value(self, capsys, files):
        _, save = files
        a = save("a.json", ser.valuation_to_json(intrinsic_volume_rep(4, 1)))
        b = save("b.json", ser.valuation_to_json(intrinsic_volume_rep(4, 3)))
        rc, human, _ = run(capsys, "pair", "--a", a, "--b", b)
        rc2, machine, _ = run(capsys, "pair", "--a", a, "--b", b, "--json")
        assert rc == 0 and rc2 == 0
        assert json.loads(machine)["pairing"] == human.strip() == "3/4*pi"

    def test_gram_same_entries(self, capsys):
        rc, human, _ = run(capsys, "su2", "gram")
        rc2, machine, _ = run(capsys, "su2", "gram", "--json")
        assert rc == 0 and rc2 == 0
        payload = json.loads(machine)
        for row in payload["matrix"]:
            for entry in row:
                assert entry in human


class TestRoundTripThroughCli:
    def test_rumin_output_parses_back(self, capsys, files):
        _, save = files
        omega = z_rep(ImDirection.of(0, 0, 1)).omega
        f = save("omega.json", ser.form_to_json(omega))
        rc, out, _ = run(capsys, "rumin", "--form", f, "--json")
        assert rc == 0
        payload = json.loads(out)
        res = rumin(omega)
        assert ser.form_from_json(payload["D_omega"]) == res.D_omega
        assert ser.form_from_json(payload["xi"]) == res.xi

    def test_op_lambda_matches_library(self, capsys, files):
        _, save = files
        vol1 = intrinsic_volume_rep(4, 1)
        f = save("vol1.json", ser.valuation_to_json(vol1))
        rc, out, _ = run(capsys, "op", "--name", "lambda", "--valuation", f, "--json")
        assert rc == 0
        result = ser.valuation_from_json(json.loads(out)["result"])
        expected = derivation(vol1)
        assert result.omega == expected.omega
        assert result.phi == expected.phi

    def test_forms_z_out_feeds_pair(self, capsys, files):
        tmp, save = files
        a = save("zi.json", ser.valuation_to_json(z_rep(ImDirection.of(1, 0, 0))))
        out_path = str(tmp / "z_mixed.json")
        rc, _, _ = run(capsys, "su2", "forms", "--u", "1,1,0", "--z-out", out_path)
        assert rc == 0
        rc, out, _ = run(capsys, "pair", "--a", a, "--b", out_path)
        assert rc == 0
        # <Z_i, Z_(i+j)/sqrt(2)> = (1 + 1/2) / 4
        assert out.strip() == "3/8"

    def test_pair_with_a_high_last_exponent(self, capsys, files):
        # the file's v4^(e + 50) is rewritten as v4^e (1 - v1^2 - v2^2 -
        # v3^2)^25 when parsed; rewriting one square at a time without
        # merging equal exponents never finished
        _, save = files
        vol2 = intrinsic_volume_rep(4, 2)
        raw = ser.valuation_to_json(vol2)
        for term in raw["omega"]["terms"]:
            for mono in term["poly"]:
                mono["exp"][3] += 50
        a = save("high.json", raw)
        zu = z_rep(ImDirection.of(1, 0, 2))
        b = save("zu.json", ser.valuation_to_json(zu))
        rc, out, _ = run(capsys, "pair", "--a", a, "--b", b)
        assert rc == 0
        high = ValuationRep(4, vol2.omega * SpherePoly(4, {(0, 0, 0, 50): 1}))
        assert out.strip() == str(pairing(high, zu)) != "0"

    def test_forms_exact_direction_round_trips(self, capsys):
        rc, out, _ = run(capsys, "su2", "forms", "--u", "0,0,1", "--json")
        assert rc == 0
        payload = json.loads(out)
        assert payload["norm_sq"] == 1
        _, beta, gamma, omega = quaternionic_forms(ImDirection.of(0, 0, 1))
        assert ser.form_from_json(payload["beta"]) == beta
        assert ser.form_from_json(payload["gamma"]) == gamma
        assert ser.form_from_json(payload["Omega"]) == omega


class TestKlain:
    def test_complex_line(self, capsys):
        rc, out, _ = run(capsys, "klain", "--u", "1,0,0",
                         "--plane", "1,0,0,0;0,1,0,0")
        assert rc == 0
        assert out.strip() == "0.500000000000"

    def test_orthogonal_class_plane(self, capsys):
        # span(1, k) has class k; against u = j the density is 1/4
        rc, out, _ = run(capsys, "klain", "--u", "0,1,0",
                         "--plane", "1,0,0,0;0,0,0,1")
        assert rc == 0
        assert abs(float(out) - 0.25) < 1e-6

    def test_rational_entries(self, capsys):
        rc, out, _ = run(capsys, "klain", "--u", "1,0,0",
                         "--plane", "3/5,4/5,0,0;-4/5,3/5,0,0")
        assert rc == 0
        assert abs(float(out) - 0.5) < 1e-6

    def test_bad_frame(self, capsys):
        rc, _, err = run(capsys, "klain", "--u", "1,0,0",
                         "--plane", "1,0,0,0;1,0,0,0")
        assert rc == 2
        assert "orthonormal" in err

    def test_overflowing_direction(self, capsys):
        # 1.0e400 reads as inf, which used to normalize to a nan density
        with pytest.raises(SystemExit) as exc:
            main(["klain", "--u", "1.0e400,0,0", "--plane", "1,0,0,0;0,1,0,0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --u" in err and "direction components must be finite" in err

    def test_direction_with_overflowing_norm(self, capsys):
        # 1.0e200 squared overflows; the direction is still i
        rc, out, err = run(capsys, "klain", "--u", "1.0e200,0,0", "--plane", "1,0,0,0;0,1,0,0")
        assert (rc, err) == (0, "")
        assert out == run(capsys, "klain", "--u", "1.0,0,0", "--plane", "1,0,0,0;0,1,0,0")[1]
        assert out.strip() == "0.500000000000"

    @pytest.mark.parametrize("plane", ["1e400,0,0,0;0,1,0,0", "1,0,0,0;0,nan,0,0"])
    def test_non_finite_frame(self, capsys, plane):
        # rejected before the orthonormality test, which warned on inf * 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = run(capsys, "klain", "--u", "1,0,0", "--plane", plane)
        assert rc == 2
        assert not out
        assert err == "error: frame entries must be finite\n"


class TestVerifyMc:
    def test_principal_deterministic(self, capsys, files):
        _, save = files
        k = save("k.json", ser.body_to_json(Ball(np.zeros(4), 0.5)))
        l = save("l.json", ser.body_to_json(Ball(np.zeros(4), 0.5)))
        args = ("verify", "mc", "--k", k, "--l", l,
                "--samples", "20000", "--seed", "11")
        rc, out1, _ = run(capsys, *args)
        assert rc == 0
        rc, out2, _ = run(capsys, *args, "--threads", "2")
        assert rc == 0
        assert out1 == out2
        rc, machine, _ = run(capsys, *args, "--json")
        payload = json.loads(machine)
        assert payload["samples"] == 20000
        assert payload["seed"] == 11
        assert abs(payload["z_score"]) < 4.0
        assert f"{payload['estimate']:.12f}" in out1

    def test_poincare_mode(self, capsys, files):
        _, save = files
        k = save("p1.json", ser.body_to_json(square()))
        l = save("p2.json", ser.body_to_json(square()))
        rc, out, _ = run(capsys, "verify", "mc", "--k", k, "--l", l,
                         "--samples", "20000", "--seed", "3", "--poincare", "--json")
        assert rc == 0
        payload = json.loads(out)
        assert payload["rhs"] == pytest.approx(0.5)
        assert abs(payload["z_score"]) < 4.0

    def test_poincare_rejects_non_polygons(self, capsys, files):
        _, save = files
        k = save("k.json", ser.body_to_json(Ball(np.zeros(4), 1.0)))
        l = save("p.json", ser.body_to_json(square()))
        rc, _, err = run(capsys, "verify", "mc", "--k", k, "--l", l,
                         "--samples", "96", "--seed", "0", "--poincare")
        assert rc == 2
        assert err

    def test_infinite_z_is_null_in_strict_json(self, capsys, files, monkeypatch):
        # every section of a zero-radius ball against another is empty, so
        # the estimate and its standard error are 0; against a right-hand
        # side of 1/2, z = inf. (A box against a point, whose every weight
        # is vol(box), reports a standard error of a few ulps instead.)
        monkeypatch.setattr(kinematic, "rhs_kinematic", lambda K, L, kind="icosahedron": 0.5)
        _, save = files
        k = save("point.json", ser.body_to_json(Ball(np.zeros(4), 0.0)))
        args = ("verify", "mc", "--k", k, "--l", k, "--samples", "20000", "--seed", "5")
        rc, machine, _ = run(capsys, *args, "--json")
        assert rc == 0

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        payload = json.loads(machine, parse_constant=reject)
        assert payload["z_score"] is None
        assert payload["stderr"] == 0.0 and (payload["estimate"], payload["rhs"]) == (0.0, 0.5)
        rc, human, _ = run(capsys, *args)
        assert rc == 0
        assert ["z_score", "inf"] in [line.split() for line in human.splitlines()]

    @pytest.mark.parametrize("samples", ["100", "8", "40001"])
    def test_ball_pair_samples_must_be_a_multiple_of_16(self, capsys, files, samples):
        # a ball against a ball, a box or a simplex splits N over 16
        # shifted lattices; any other N is refused before a sample is
        # drawn, on one line
        _, save = files
        k = save("k.json", ser.body_to_json(Ball(np.zeros(4), 0.5)))
        l = save("l.json", ser.body_to_json(Box(np.zeros(4), 0.5 * np.ones(4))))
        simplex = save("s.json", ser.body_to_json(Simplex([[0.0, 0, 0, 0], [1.0, 0, 0, 0]])))
        for pair in ((k, k), (k, l), (l, k), (k, simplex), (simplex, k)):
            rc, out, err = run(capsys, "verify", "mc", "--k", pair[0], "--l", pair[1],
                               "--samples", samples, "--seed", "1")
            assert (rc, out) == (2, "")
            assert err.splitlines() == [
                f"error: --samples: N must be a multiple of 16 (16 shifted lattices of "
                f"N/16 points), got {samples}"]

    @pytest.mark.parametrize("samples", ["100", "8", "40001"])
    def test_rotation_pair_samples_must_be_a_multiple_of_16(self, capsys, files, samples):
        # a pair that draws rotations runs 16 shifted lattices of N/16
        # points too: a box pair, a box against a simplex and two plates in
        # either estimator refuse any other N on the same one line
        _, save = files
        box = save("box.json", ser.body_to_json(Box(np.zeros(4), 0.5 * np.ones(4))))
        simplex = save("s.json", ser.body_to_json(Simplex([[0.0, 0, 0, 0], [1.0, 0, 0, 0]])))
        plate = save("p.json", ser.body_to_json(square()))
        for pair, extra in (((box, box), ()), ((box, simplex), ()), ((plate, plate), ()),
                            ((plate, plate), ("--poincare",))):
            rc, out, err = run(capsys, "verify", "mc", "--k", pair[0], "--l", pair[1],
                               "--samples", samples, "--seed", "1", *extra)
            assert (rc, out) == (2, "")
            assert err.splitlines() == [
                f"error: --samples: N must be a multiple of 16 (16 shifted lattices of "
                f"N/16 points), got {samples}"]

    def test_failure_message_line_reruns_the_estimate(self, capsys):
        # the verify mc line a failed Monte Carlo assert prints, run by bash
        # with the module in place of the installed entry point
        from _oracles import mc_failure, verify_mc_line
        K = Ball(np.array([0.3, -0.1, 0.2, 0.05]), 0.35)
        L = Box(np.array([0.1, 0, -0.2, 0]), np.array([0.45, 0.55, 0.35, 0.6]))
        line = verify_mc_line(K, L, 4096, 21, 2)
        rep = kinematic.mc_principal_kinematic(K, L, N=4096, seed=21, threads=2)
        assert mc_failure("ball/box", K, L, 4096, 21, 2, rep).endswith("rerun with " + line)
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        command = line.replace("valcalc", f"'{sys.executable}' -m valcalc.cli", 1) + " --json"
        proc = subprocess.run(["bash", "-c", command], capture_output=True, text=True,
                              timeout=300, env=env)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == rep.to_dict()

    def test_seed_required(self, capsys, files):
        _, save = files
        k = save("k.json", ser.body_to_json(Ball(np.zeros(4), 0.5)))
        with pytest.raises(SystemExit) as exc:
            main(["verify", "mc", "--k", k, "--l", k, "--samples", "100"])
        assert exc.value.code == 2

    def test_seed_range_checked(self, capsys, files):
        _, save = files
        k = save("k.json", ser.body_to_json(Ball(np.zeros(4), 0.5)))
        for bad in ("-1", str(2 ** 64), "abc"):
            with pytest.raises(SystemExit) as exc:
                main(["verify", "mc", "--k", k, "--l", k,
                      "--samples", "100", "--seed", bad])
            assert exc.value.code == 2


class TestExitCodes:
    def test_non_finite_body_numbers(self, capsys, files):
        tmp, save = files
        chi = save("chi.json", ser.valuation_to_json(intrinsic_volume_rep(4, 0)))
        cases = [
            ("ball.json", '{"type": "ball", "center": [0, 0, 0, 0], "radius": NaN}',
             "radius"),
            ("box.json", '{"type": "box", "center": [0, 0, 0, 0], '
                         '"half_extents": [0.5, Infinity, 0.5, 0.5]}', "half_extents"),
        ]
        for name, text, field in cases:
            body = tmp / name
            body.write_text(text)
            rc, out, err = run(capsys, "eval", "--valuation", chi, "--body", str(body))
            assert rc == 2
            assert not out
            assert f"{body}.{field}" in err

    @pytest.mark.parametrize("name, text, field", [
        ("box.json", '{"type": "box", "center": [0, 0, 0, 0], '
                     '"half_extents": [1e308, 1e308, 1e308, 1e308]}', "half_extents"),
        ("ball.json", '{"type": "ball", "center": [0, 0, 0, 0], "radius": 1e300}', "radius"),
    ])
    def test_overflowing_body_numbers(self, capsys, files, name, text, field):
        # the box used to print numpy overflow warnings and inf with exit 0,
        # the ball to exit 3 on an integer division too large for a float
        tmp, save = files
        vol1 = save("vol1.json", ser.valuation_to_json(intrinsic_volume_rep(4, 1)))
        body = tmp / name
        body.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = run(capsys, "eval", "--valuation", vol1, "--body", str(body))
        assert rc == 2
        assert not out
        assert err.startswith(f"error: {body}.{field}: ")

    @pytest.mark.parametrize("field", ["center", "radius"])
    def test_integer_too_large_for_a_float(self, capsys, files, field):
        # a 400-digit integer used to exit 3 with "int too large to convert
        # to float" and no location
        tmp, save = files
        k = save("k.json", ser.body_to_json(Ball(np.zeros(4), 0.5)))
        ball = {"type": "ball", "center": [0, 0, 0, 0], "radius": 0.5}
        if field == "center":
            ball["center"] = [10 ** 400, 0, 0, 0]
        else:
            ball["radius"] = 10 ** 400
        body = tmp / "big.json"
        body.write_text(json.dumps(ball))
        rc, out, err = run(capsys, "verify", "mc", "--k", k, "--l", str(body),
                           "--samples", "512", "--seed", "1")
        assert rc == 2
        assert not out
        assert err == f"error: {body}.{field}: numbers must be at most 1e+30 in size\n"

    def test_bodies_at_the_coordinate_bound_evaluate(self, capsys, files):
        # every number of these bodies is 1e30 in size at most, and every
        # intrinsic volume of them is finite, with no warning
        tmp, save = files
        big = ser.MAX_COORDINATE
        bodies = {
            "box": Box(np.array([big, -big, 0, 0]), np.full(4, big)),
            "simplex": Simplex(np.vstack([np.zeros(4), np.eye(4) * big])),
            "ball": Ball(np.array([big, 0, 0, 0]), big),
        }
        for name, K in bodies.items():
            body = save(f"{name}.json", ser.body_to_json(K))
            for k in range(5):
                rep = save(f"v{k}.json", ser.valuation_to_json(intrinsic_volume_rep(4, k)))
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    rc, out, _ = run(capsys, "eval", "--valuation", rep, "--body", body)
                assert rc == 0 and np.isfinite(float(out)), (name, k)

    def test_missing_file(self, capsys, tmp_path):
        rc, _, err = run(capsys, "rumin", "--form", str(tmp_path / "nope.json"))
        assert rc == 2
        assert "nope.json" in err

    def test_malformed_json_location(self, capsys, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{"dim": 4, ')
        rc, _, err = run(capsys, "rumin", "--form", str(p))
        assert rc == 2
        assert "broken.json:1" in err

    def test_schema_error_location(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"dim": 4, "terms": [{"dx": [0], "dv": [], "poly": []}]}')
        rc, _, err = run(capsys, "rumin", "--form", str(p))
        assert rc == 2
        assert "terms[0].dx" in err

    def test_wrong_degree_form(self, capsys, files):
        _, save = files
        obj = {"dim": 4, "terms": [
            {"dx": [1], "dv": [], "poly": [{"exp": [0, 0, 0, 0], "coeff": {"0": "1"}}]}]}
        f = save("deg1.json", obj)
        rc, _, err = run(capsys, "rumin", "--form", f)
        assert rc == 2
        assert "degree" in err

    @pytest.mark.parametrize("exc, code", [
        (TypeError("exact operation on non-exact coefficient 0.5"), 2),
        (ArithmeticError("correction failed to make the derivative vertical"), 3),
        (ZeroDivisionError("division by zero"), 3),
    ], ids=["type", "arithmetic", "zero-division"])
    def test_library_errors(self, capsys, monkeypatch, exc, code):
        def handler(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_su2_kinematic", handler)
        rc, out, err = run(capsys, "su2", "kinematic")
        assert rc == code
        assert not out
        assert err == f"error: {exc}\n"

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_direction(self):
        for bad in ("1,0", "1,0,0,0", "a,b,c", "0,0,0"):
            with pytest.raises(SystemExit) as exc:
                main(["klain", "--u", bad, "--plane", "1,0,0,0;0,1,0,0"])
            assert exc.value.code == 2

    @pytest.mark.parametrize("args, message", [
        (["verify", "mc", "--k", "k.json", "--l", "l.json", "--seed", "1", "--samples", "many"],
         "argument --samples: 'many' is not an integer"),
        (["verify", "mc", "--k", "k.json", "--l", "l.json", "--seed", "1", "--samples", "0"], "argument --samples: must be positive"),
        (["verify", "mc", "--k", "k.json", "--l", "l.json", "--seed", "1", "--samples", "16", "--threads", "1.5"],
         "argument --threads: '1.5' is not an integer"),
        (["verify", "mc", "--k", "k.json", "--l", "l.json", "--seed", "1", "--samples", "16", "--threads", "0"],
         "argument --threads: must be positive"),
        (["klain", "--u", "1,0,0", "--plane", "1,0,0,0;0,x,0,0"],
         "argument --plane: vector 2 of '1,0,0,0;0,x,0,0' is not a comma-separated number list"),
        (["klain", "--u", "1,0,0", "--plane", "1,0,0,0;0,1,0"],
         "argument --plane: frame vectors must have equal length"),
        (["su2", "forms", "--u", "1.5,0,0"], "su2 forms requires rational direction components"),
    ], ids=["samples-text", "samples-zero", "threads-text", "threads-zero", "plane-number",
            "plane-ragged", "forms-float"])
    def test_argument_checks(self, capsys, args, message):
        # each check ends the run with exit code 2 and its own one-line
        # message, from argparse or from main, and no traceback
        try:
            rc = main(args)
        except SystemExit as exc:
            rc = exc.code
        out, err = capsys.readouterr()
        assert rc == 2
        assert not out
        assert err.splitlines()[-1].endswith(f"error: {message}")
        assert "Traceback" not in err


class TestSubprocess:
    def test_module_entry_point(self, tmp_path):
        chi = tmp_path / "chi.json"
        box = tmp_path / "box.json"
        ser.write_json_file(ser.valuation_to_json(intrinsic_volume_rep(4, 0)), chi)
        ser.write_json_file(ser.body_to_json(Box(np.zeros(4), 0.5 * np.ones(4))), box)
        # the subprocess does not get pyproject's pythonpath, so it gets the
        # repository's src here and needs no install
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        proc = subprocess.run(
            [sys.executable, "-m", "valcalc.cli", "eval",
             "--valuation", str(chi), "--body", str(box)],
            capture_output=True, text=True, timeout=300, env=env)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "1.000000000000"
