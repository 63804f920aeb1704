from fractions import Fraction

import numpy as np
import pytest

from valcalc import serialization as ser
from valcalc.bodies import Ball, Box, PlanarPolygon, Simplex
from _oracles import dx_form
from valcalc.exterior import InvariantForm, SpherePoly
from valcalc.scalars import PI, Rat, Scalar, rational
from valcalc.serialization import SerializationError
from valcalc.su2 import ImDirection, su2_basis, z_rep
from valcalc.valuation import ValuationRep, intrinsic_volume_rep


def random_form(rng, n, degree):
    terms = {}
    for _ in range(4):
        k = rng.randrange(max(0, degree - n), min(degree, n) + 1)
        I = tuple(sorted(rng.sample(range(n), k)))
        J = tuple(sorted(rng.sample(range(n), degree - k)))
        e = tuple(rng.randrange(3) for _ in range(n))
        c = Scalar({rng.randrange(-1, 2): Rat(rng.randrange(-9, 10), rng.randrange(1, 9))})
        p = SpherePoly(n, {e: c})
        terms[(I, J)] = terms.get((I, J), SpherePoly(n)) + p
    return InvariantForm(n, terms)


class TestScalarJson:
    def test_round_trip(self):
        values = [Scalar(), rational(17, 4), rational(-3, 4),
                  rational(4, 3) * PI ** -1, rational(3, 4) * PI,
                  rational(1, 2) + rational(5, 7) * PI ** 3]
        for s in values:
            obj = ser.scalar_to_json(s)
            assert ser.scalar_from_json(obj) == s
            assert ser.scalar_to_json(ser.scalar_from_json(obj)) == obj

    def test_plain_rationals(self):
        assert ser.scalar_to_json(3) == {"0": "3"}
        assert ser.scalar_to_json(Rat(1, 2)) == {"0": "1/2"}
        assert ser.scalar_to_json(0) == {}

    def test_fractions_fraction_accepted(self):
        # the standard library's type is accepted whichever backend Rat is
        assert ser.scalar_to_json(Fraction(-3, 4)) == {"0": "-3/4"}
        assert ser.scalar_to_json(Fraction(0)) == {}

    def test_float_rejected(self):
        with pytest.raises(ValueError):
            ser.scalar_to_json(0.5)

    def test_bad_inputs(self):
        with pytest.raises(SerializationError):
            ser.scalar_from_json(["1"])
        with pytest.raises(SerializationError):
            ser.scalar_from_json({"x": "1"})
        with pytest.raises(SerializationError):
            ser.scalar_from_json({"0": 1})
        with pytest.raises(SerializationError):
            ser.scalar_from_json({"0": "1/0"})
        with pytest.raises(SerializationError):
            ser.scalar_from_json({"0": "one"})


class TestFormJson:
    def test_basis_round_trips(self):
        for label, mu in su2_basis("alesker"):
            obj = ser.form_to_json(mu.omega)
            back = ser.form_from_json(obj)
            assert back == mu.omega, label
            assert ser.form_to_json(back) == obj, label

    def test_random_round_trips(self):
        import random

        rng = random.Random(20260818)
        for n in (2, 3, 4):
            for degree in range(n):
                f = random_form(rng, n, degree)
                obj = ser.form_to_json(f)
                assert ser.form_from_json(obj) == f
                assert ser.form_to_json(ser.form_from_json(obj)) == obj

    def test_noncanonical_input_is_canonicalized(self):
        # v4^2 exponent and an unprojected radial dv term
        obj = {"dim": 4, "terms": [
            {"dx": [], "dv": [1, 2, 3],
             "poly": [{"exp": [0, 0, 0, 2], "coeff": {"0": "1"}}]},
        ]}
        f = ser.form_from_json(obj)
        again = ser.form_to_json(f)
        assert ser.form_from_json(again) == f

    def test_duplicate_terms_accumulate(self):
        single = {"dim": 3, "terms": [
            {"dx": [1], "dv": [], "poly": [{"exp": [0, 0, 0], "coeff": {"0": "2"}}]}]}
        doubled = {"dim": 3, "terms": [
            {"dx": [1], "dv": [], "poly": [{"exp": [0, 0, 0], "coeff": {"0": "1"}}]},
            {"dx": [1], "dv": [], "poly": [{"exp": [0, 0, 0], "coeff": {"0": "1"}}]}]}
        assert ser.form_from_json(doubled) == ser.form_from_json(single)

    def test_float_form_rejected(self):
        f = InvariantForm(4, {((0,), (1,)): 0.5})
        with pytest.raises(ValueError):
            ser.form_to_json(f)

    def test_errors_carry_location(self):
        bad = [
            ({"dim": 5, "terms": []}, "dim"),
            ({"dim": 4}, "terms"),
            ({"dim": 4, "terms": [{"dx": [0], "dv": [], "poly": []}]}, "terms[0].dx"),
            ({"dim": 4, "terms": [{"dx": [2, 1], "dv": [], "poly": []}]}, "terms[0].dx"),
            ({"dim": 4, "terms": [{"dx": [], "dv": [1, 1], "poly": []}]}, "terms[0].dv"),
            ({"dim": 4, "terms": [{"dx": [1], "dv": [], "poly": [{"exp": [0], "coeff": {}}]}]},
             "poly[0].exp"),
            ({"dim": 4, "terms": [{"dx": [1], "dv": [], "poly": [
                {"exp": [0, 0, 0, 0], "coeff": {"0": "1/0"}}]}]}, "coeff"),
        ]
        for obj, needle in bad:
            with pytest.raises(SerializationError) as err:
                ser.form_from_json(obj)
            assert needle in str(err.value)


@pytest.mark.parametrize("load, obj, message", [
    (ser.valuation_from_json, {"dim": 4, "omega": [1]}, "valuation.omega: expected a JSON object"),
    (ser.form_from_json, {"dim": 4, "terms": [{"dx": 1}]},
     "form.terms[0].dx: expected a list of integers"),
    (ser.form_from_json, {"dim": 4, "terms": [{"poly": {"exp": [0, 0, 0, 0]}}]},
     "form.terms[0].poly: expected a list of monomials"),
    (ser.form_from_json, {"dim": 4, "terms": [[1]]},
     "form.terms[0]: expected an object with dx, dv, poly"),
    (ser.form_from_json, {"dim": 4, "terms": [{"poly": [[0, 0, 0, 0]]}]},
     "form.terms[0].poly[0]: expected an object with exp and coeff"),
    (ser.body_from_json, {"type": "simplex", "vertices": []}, "body.vertices: expected a list of rows"),
    (ser.body_from_json, {"type": "simplex", "vertices": [[0, 0, 0], [1, 0]]},
     "body.vertices: rows must have equal length"),
], ids=["omega-not-object", "dx-not-list", "poly-not-list", "term-not-object",
        "monomial-not-object", "no-rows", "ragged-rows"])
def test_shape_errors_name_their_location(load, obj, message):
    with pytest.raises(SerializationError) as err:
        load(obj)
    assert str(err.value) == message


class TestValuationJson:
    def test_round_trips(self):
        reps = [intrinsic_volume_rep(4, k) for k in range(5)]
        reps.append(z_rep(ImDirection.of(1, 2, -2)))
        reps += [intrinsic_volume_rep(n, n) for n in (2, 3)]
        for mu in reps:
            obj = ser.valuation_to_json(mu)
            back = ser.valuation_from_json(obj)
            assert back.omega == mu.omega
            assert back.phi == mu.phi
            assert ser.valuation_to_json(back) == obj

    def test_wrong_omega_degree(self):
        obj = {"dim": 4,
               "omega": ser.form_to_json(dx_form(4, 0)),
               "phi": {}}
        with pytest.raises(SerializationError):
            ser.valuation_from_json(obj)

    def test_missing_omega_defaults_to_zero(self):
        mu = ser.valuation_from_json({"dim": 4, "phi": {"0": "1"}})
        assert mu.omega.is_zero()
        assert mu.phi == 1


class TestBodyJson:
    def test_round_trips(self):
        frame = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
        rot, _ = np.linalg.qr(np.random.default_rng(7).normal(size=(4, 4)))
        bodies = [
            Ball(np.array([0.1, -0.2, 0.3, 0.4]), 1.25),
            Box(np.zeros(3), np.array([1.0, 0.5, 0.25])),
            Box(np.ones(4), np.array([1.0, 0.5, 0.25, 2.0]), rot),
            Simplex(np.vstack([np.zeros(4), np.eye(4)])),
            PlanarPolygon(frame, np.array([[1.0, 0], [0, 1.0], [-1.0, 0], [0, -1.0]]),
                          np.array([0.0, 0.0, 0.5, -0.5])),
        ]
        for K in bodies:
            obj = ser.body_to_json(K)
            back = ser.body_from_json(obj)
            assert type(back) is type(K)
            assert ser.body_to_json(back) == obj

    def test_float_coordinates_survive_exactly(self):
        center = np.array([1 / 3, 2 / 7, 0.1, -5 / 11])
        back = ser.body_from_json(ser.body_to_json(Ball(center, 1 / 9)))
        assert np.all(back.center == center)
        assert back.radius == 1 / 9

    def test_errors(self):
        cases = [
            {"type": "sphere"},
            {"type": "ball", "center": [0, 0], "radius": "1"},
            {"type": "ball", "center": [0, 0], "radius": -1.0},
            {"type": "ball", "center": [0.0], "radius": 1.0},
            {"type": "ball", "center": [0, 0], "radius": float("nan")},
            {"type": "ball", "center": [0, float("inf")], "radius": 1.0},
            {"type": "box", "center": [0, 0], "half_extents": [1.0, float("inf")]},
            {"type": "ball", "center": "origin", "radius": 1.0},
            {"type": "box", "center": [0, 0], "half_extents": [1.0, 0.0]},
            {"type": "box", "center": [0, 0], "half_extents": [1, 1],
             "rotation": [[1, 1], [0, 1]]},
            {"type": "simplex", "vertices": [[0, 0], [1, 0], [2, 0]]},
            {"type": "polygon", "frame": [[1, 0, 0, 0], [0, 1, 0, 0]],
             "vertices": [[0, 0], [1, 0], [1, 1], [0.5, 0.5]]},
            ["ball"],
        ]
        for obj in cases:
            with pytest.raises(SerializationError):
                ser.body_from_json(obj)


class TestFiles:
    def test_file_round_trip(self, tmp_path):
        mu = z_rep(ImDirection.of(0, 1, 0))
        p = tmp_path / "z.json"
        ser.write_json_file(ser.valuation_to_json(mu), p)
        back = ser.load_valuation(p)
        assert back.omega == mu.omega

    def test_missing_file(self, tmp_path):
        with pytest.raises(SerializationError) as err:
            ser.load_body(tmp_path / "nope.json")
        assert "nope.json" in str(err.value)

    def test_syntax_error_reports_position(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{"dim": 4,\n  "terms": [}')
        with pytest.raises(SerializationError) as err:
            ser.load_form(p)
        assert "broken.json:2" in str(err.value)
