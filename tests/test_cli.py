import json
import subprocess
import sys

import numpy as np
import pytest

from valcalc import cli
from valcalc import serialization as ser
from valcalc.bodies import Ball, Box, PlanarPolygon, Simplex
from valcalc.cli import main
from valcalc.contact import rumin
from valcalc.su2 import ImDirection, quaternionic_forms, z_rep
from valcalc.valuation import derivation, intrinsic_volume_rep


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
                         "--samples", "100", "--seed", "0", "--poincare")
        assert rc == 2
        assert err

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

    def test_quadrature_non_convergence(self, capsys, files, monkeypatch):
        _, save = files
        monkeypatch.setenv("VALCALC_QUAD_TOL", "1e-30")
        zu = save("zu.json", ser.valuation_to_json(z_rep(ImDirection.of(1, 0, 0))))
        body = save("s.json", ser.body_to_json(
            Simplex(np.vstack([np.zeros(4), np.eye(4)]))))
        rc, _, err = run(capsys, "eval", "--valuation", zu, "--body", body)
        assert rc == 3
        assert "converge" in err

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


class TestSubprocess:
    def test_module_entry_point(self, tmp_path):
        chi = tmp_path / "chi.json"
        box = tmp_path / "box.json"
        ser.write_json_file(ser.valuation_to_json(intrinsic_volume_rep(4, 0)), chi)
        ser.write_json_file(ser.body_to_json(Box(np.zeros(4), 0.5 * np.ones(4))), box)
        proc = subprocess.run(
            [sys.executable, "-m", "valcalc.cli", "eval",
             "--valuation", str(chi), "--body", str(box)],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "1.000000000000"
