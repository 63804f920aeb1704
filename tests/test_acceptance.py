"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single pass/fail
line (visible with -s); the stated runtime budgets are asserted too.
"""
import math
import random
import time

import numpy as np

from _oracles import (
    fiber_integral,
    mc_failure,
    random_form,
    random_sphere_poly,
    right_translation_matrix,
    stated_z_form,
)
from valcalc.bodies import (
    Ball,
    Box,
    PlanarPolygon,
    Simplex,
    evaluate,
    evaluate_tube,
)
from valcalc.contact import rumin
from valcalc.exterior import (
    InvariantForm,
    alpha_form,
    d,
    hodge_star,
    lie_reeb,
)
from valcalc.kinematic import (
    BASIS_DEGREES,
    gram_matrix,
    kinematic_tensor,
    mc_poincare,
    mc_principal_kinematic,
    rhs_kinematic,
)
from valcalc.scalars import ONE, PI, Rat, Scalar, ZERO, rational
from valcalc.su2 import (
    ImDirection,
    _scaled_forms,
    quaternionic_forms,
    su2_basis,
    tasaki_density,
    z_rep,
)
from valcalc.valuation import (
    ValuationRep,
    derivation,
    euler_verdier,
    intrinsic_volume_rep,
    laplace,
    pairing,
    signature,
    unit_ball_value,
)


def run_criterion(num, name, limit, body):
    t0 = time.perf_counter()
    try:
        detail = body()
    except BaseException:
        print(f"criterion {num:2d} {name}: FAIL")
        raise
    dt = time.perf_counter() - t0
    tail = f" | {detail}" if detail else ""
    print(f"criterion {num:2d} {name}: PASS ({dt:.1f}s of {limit:.0f}s){tail}")
    assert dt < limit, f"criterion {num} took {dt:.1f}s, budget {limit:.0f}s"


GOLDEN_DIRECTIONS = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)]


def test_01_corrected_differential_closed_form():
    def body():
        worst = 0.0
        for coords in GOLDEN_DIRECTIONS:
            u = ImDirection.of(*coords)
            t0 = time.perf_counter()
            got = rumin(stated_z_form(u)).D_omega
            beta, gamma, _ = _scaled_forms(u.coords)
            want = alpha_form(4).wedge(beta).wedge(d(gamma)) * (
                Rat(1, 2) * PI ** -1 / u.norm_sq)
            dt = time.perf_counter() - t0
            assert got == want, coords
            assert dt < 10.0, (coords, dt)
            worst = max(worst, dt)
        return f"max {worst:.2f}s per direction"

    run_criterion(1, "corrected differential closed form", 40.0, body)


def test_02_pairing_density_closed_form():
    def body():
        rng = random.Random(20260202)
        done = 0
        while done < 20:
            cu = tuple(rng.randrange(-5, 6) for _ in range(3))
            cv = tuple(rng.randrange(-5, 6) for _ in range(3))
            if not any(cu) or not any(cv):
                continue
            u, v = ImDirection.of(*cu), ImDirection.of(*cv)
            assert pairing(z_rep(u), z_rep(v)) == tasaki_density(u.dot_sq(v)), (cu, cv)
            done += 1
        return "20 exact rational direction pairs"

    run_criterion(2, "pairing density closed form", 120.0, body)


def test_03_icosahedron_gram_and_inverse_block():
    def body():
        labels, G = gram_matrix("icosahedron")
        assert labels[2:8] == ["Z_u1", "Z_u2", "Z_u3", "Z_u4", "Z_u5", "Z_u6"]
        for i in range(2, 8):
            for j in range(2, 8):
                want = rational(1, 2) if i == j else rational(3, 10)
                assert G[i][j] == want, (i, j)
        T = kinematic_tensor("icosahedron")
        for i in range(2, 8):
            for j in range(2, 8):
                want = rational(17, 4) if i == j else rational(-3, 4)
                assert T.matrix[i][j] == want, (i, j)
        return "Gram 1/2 on, 3/10 off; inverse 17/4 on, -3/4 off"

    run_criterion(3, "icosahedron Gram block and its inverse", 60.0, body)


def test_04_full_kinematic_tensor():
    def body():
        T = kinematic_tensor("icosahedron")
        assert T.entry("chi", "vol") == ONE
        assert T.entry("vol", "chi") == ONE
        mixed = rational(4, 3) * PI ** -1
        assert T.entry("vol1", "vol3") == mixed
        assert T.entry("vol3", "vol1") == mixed
        for i in range(2, 8):
            for j in range(2, 8):
                want = rational(17, 4) if i == j else rational(-3, 4)
                assert T.matrix[i][j] == want, (i, j)
        for i in range(10):
            for j in range(10):
                inside = 2 <= i < 8 and 2 <= j < 8
                named = {i, j} in ({0, 9}, {1, 8})
                if not inside and not named:
                    assert T.matrix[i][j] == ZERO, (i, j)
        return "entries 1, 4/3*pi^-1, 17/4, -3/4 and zeros elsewhere"

    run_criterion(4, "full kinematic tensor", 120.0, body)


def test_05_reeb_flow_and_double_lowering():
    def body():
        for coords in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 3, 6)]:
            u = ImDirection.of(*coords)
            _, beta, gamma, omega = quaternionic_forms(u)
            assert lie_reeb(beta) == gamma, coords
            assert lie_reeb(gamma).is_zero(), coords
            assert lie_reeb(lie_reeb(omega)) == d(gamma), coords
        basis = su2_basis("alesker")
        for coords in [(1, 0, 0), (2, 3, 6)]:
            mu = z_rep(ImDirection.of(*coords))
            diff = derivation(derivation(mu)) - intrinsic_volume_rep(4, 0) * (2 * PI)
            for label, b in basis:
                assert pairing(diff, b) == ZERO, (coords, label)
        return "flow identities exact; double lowering is 2*pi*chi"

    run_criterion(5, "Reeb flow and double lowering", 30.0, body)


def test_06_ball_and_disc_values():
    def body():
        for coords in GOLDEN_DIRECTIONS + [(2, 3, 6)]:
            mu = z_rep(ImDirection.of(*coords))
            assert unit_ball_value(mu) == PI, coords
        zu = z_rep(ImDirection.of(1, 0, 0))
        ball = Ball(np.zeros(4), 1.0)
        assert abs(evaluate(zu, ball) - math.pi) < 1e-9

        frame = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])

        def disc_value(m):
            ang = 2.0 * math.pi / m
            verts = [(math.cos(i * ang), math.sin(i * ang)) for i in range(m)]
            return evaluate(zu, PlanarPolygon(frame, verts))

        target = math.pi / 2.0
        v64, v128 = disc_value(64), disc_value(128)
        assert abs(v128 - target) < abs(v64 - target)
        rich = (4.0 * v128 - v64) / 3.0
        assert abs(rich - target) < 1e-5, rich
        return f"ball exact; disc extrapolation error {abs(rich - target):.1e}"

    run_criterion(6, "ball and inscribed disc values", 60.0, body)


def _random_valuation(rng, nterms=3):
    omega = random_form(rng, 4, 3, max_vdeg=2, nterms=nterms)
    phi = Scalar({0: Rat(rng.randrange(-9, 10), rng.randrange(1, 7))})
    return ValuationRep(4, omega, phi)


def test_07_operator_adjointness():
    def body():
        reps = [rep for _, rep in su2_basis("alesker")]
        lam = [derivation(m) for m in reps]
        sig = [signature(m) for m in reps]
        dlt = [laplace(m) for m in reps]
        ev = [euler_verdier(m) for m in reps]
        brk = [derivation(ev[i]) + euler_verdier(lam[i]) for i in range(10)]
        swp = [euler_verdier(sig[i]) - signature(ev[i]) for i in range(10)]
        for i in range(10):
            for j in range(i, 10):
                a, b = reps[i], reps[j]
                assert pairing(lam[i], b) == pairing(a, lam[j]), (i, j)
                assert pairing(sig[i], b) == pairing(a, sig[j]), (i, j)
                assert pairing(dlt[i], b) == pairing(a, dlt[j]), (i, j)
                assert pairing(ev[i], b) == pairing(a, ev[j]), (i, j)
                assert pairing(brk[i], b) == ZERO, (i, j)
                assert pairing(swp[i], b) == ZERO, (i, j)
        rng = random.Random(7207)
        rand = [_random_valuation(rng) for _ in range(20)]
        for a, b in zip(rand[:10], rand[10:]):
            assert pairing(derivation(a), b) == pairing(a, derivation(b))
            assert pairing(signature(a), b) == pairing(a, signature(b))
            assert pairing(laplace(a), b) == pairing(a, laplace(b))
        return "55 basis pairs and 10 random pairs, all exact"

    run_criterion(7, "operator adjointness", 600.0, body)


def _low_fiber_form(rng, n, deg):
    terms = {}
    for _ in range(3):
        k = rng.choice([deg - 1, deg])
        I = tuple(sorted(rng.sample(range(n), k)))
        J = tuple(sorted(rng.sample(range(n), deg - k)))
        terms[(I, J)] = random_sphere_poly(rng, n, 2)
    return InvariantForm(n, terms)


def test_08_exact_differential_changes_nothing():
    def body():
        rng = random.Random(808)
        etas = [_low_fiber_form(rng, 4, 2) for _ in range(2)]
        detas = [d(eta) for eta in etas]
        for deta in detas:
            assert not fiber_integral(deta)
        basis = su2_basis("alesker")
        box = Box(np.zeros(4), np.array([0.7, 0.55, 0.5, 0.6]))
        simplex = Simplex(np.array([
            [0.0, 0.0, 0.0, 0.0],
            [1.1, 0.0, 0.0, 0.0],
            [0.2, 0.9, 0.0, 0.0],
            [0.1, 0.2, 1.0, 0.0],
            [0.3, 0.1, 0.2, 0.8],
        ]))
        mus = [z_rep(ImDirection.of(1, 0, 0)), intrinsic_volume_rep(4, 1)]
        for mu in mus:
            base_ball = unit_ball_value(mu)
            base_box = evaluate(mu, box)
            base_simplex = evaluate(mu, simplex)
            for deta in detas:
                shifted = ValuationRep(4, mu.omega + deta, mu.phi)
                for label, b in basis:
                    assert pairing(shifted, b) == pairing(mu, b), label
                assert unit_ball_value(shifted) == base_ball
                assert abs(evaluate(shifted, box) - base_box) < 1e-8
                assert abs(evaluate(shifted, simplex) - base_simplex) < 1e-8
        return "pairings unchanged exactly, body values within 1e-8"

    run_criterion(8, "exact differentials change nothing", 120.0, body)


def test_09_lowering_matches_tube_derivative():
    def body():
        h = 1e-4
        box = Box(np.array([0.1, -0.05, 0.2, 0.0]),
                  np.array([0.7, 0.55, 0.5, 0.6]))
        simplex = Simplex(np.array([
            [0.0, 0.0, 0.0, 0.0],
            [1.1, 0.0, 0.0, 0.0],
            [0.2, 0.9, 0.0, 0.0],
            [0.1, 0.2, 1.0, 0.0],
            [0.3, 0.1, 0.2, 0.8],
        ]))
        mus = [
            ("vol", intrinsic_volume_rep(4, 4)),
            ("vol3", intrinsic_volume_rep(4, 3)),
            ("Z_i", z_rep(ImDirection.of(1, 0, 0))),
        ]
        worst = 0.0
        for name, mu in mus:
            dmu = derivation(mu)
            for K in (box, simplex):
                f0 = evaluate_tube(mu, K, 0.0)
                f1 = evaluate_tube(mu, K, h)
                f2 = evaluate_tube(mu, K, 2.0 * h)
                fd = (-3.0 * f0 + 4.0 * f1 - f2) / (2.0 * h)
                lhs = evaluate(dmu, K)
                rel = abs(lhs - fd) / abs(lhs)
                assert rel < 1e-4, (name, type(K).__name__, rel)
                worst = max(worst, rel)
        return f"worst relative difference {worst:.1e}"

    run_criterion(9, "lowering matches tube derivative", 120.0, body)


def test_10_monte_carlo_principal_formula():
    def body():
        half = Ball(np.zeros(4), 0.5)
        box = Box(np.zeros(4), np.array([0.6, 0.5, 0.4, 0.55]))
        thin = Box(np.zeros(4), np.array([1.0, 1.0, 0.06, 0.06]))
        R = np.array(right_translation_matrix(
            (Rat(1, 3), Rat(2, 3), Rat(-2, 3), Rat(0))), dtype=float)
        thin_generic = Box(np.zeros(4), np.array([1.0, 1.0, 0.06, 0.06]),
                           rotation=R)
        runs = [
            ("ball/ball", half, half, 20260818),
            ("ball/box", half, box, 31),
            ("thin aligned", thin, thin, 77),
            ("thin generic", thin, thin_generic, 78),
        ]
        reports = {}
        for name, K, L, seed in runs:
            r = mc_principal_kinematic(K, L, N=10 ** 6, seed=seed, threads=4)
            message = mc_failure(name, K, L, 10 ** 6, seed, 4, r)
            assert abs(r.z_score) < 3.0, message
            assert r.stderr / r.estimate < 0.01, message
            reports[name] = r
        ra, rg = reports["thin aligned"], reports["thin generic"]
        gap = ra.rhs - rg.rhs
        assert gap > 3.0 * (ra.stderr + rg.stderr), (
            f"rhs gap {gap!r}; " + mc_failure("thin aligned", thin, thin, 10 ** 6, 77, 4, ra)
            + "; " + mc_failure("thin generic", thin, thin_generic, 10 ** 6, 78, 4, rg))
        zs = ", ".join(f"{n} z={r.z_score:+.2f}" for n, r in reports.items())
        return zs

    run_criterion(10, "Monte Carlo principal formula", 600.0, body)


def test_11_monte_carlo_intersection_counts():
    def body():
        sq = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        plane_1i = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
        plane_1j = np.array([[1.0, 0, 0, 0], [0, 0, 1.0, 0]])
        plane_gen = np.array([[1.0, 0, 0, 0],
                              [0, 2.0 / 3.0, 2.0 / 3.0, 1.0 / 3.0]])
        ang = 2.0 * math.pi / 5.0
        pent = [(0.8 * math.cos(i * ang), 0.8 * math.sin(i * ang))
                for i in range(5)]
        pent_area = 2.5 * 0.64 * math.sin(ang)
        p_same = PlanarPolygon(plane_1i, sq)
        p_orth = PlanarPolygon(plane_1j, sq)
        p_gen = PlanarPolygon(plane_gen, pent)
        runs = [
            ("same class", p_same, p_same, 0.5 * 1.0 * 1.0, 41),
            ("orthogonal", p_same, p_orth, 0.25 * 1.0 * 1.0, 42),
            ("generic", p_same, p_gen, (13.0 / 36.0) * pent_area, 43),
        ]
        zs = []
        for name, A, B, want_rhs, seed in runs:
            r = mc_poincare(A, B, N=10 ** 6, seed=seed, threads=4)
            message = mc_failure(name, A, B, 10 ** 6, seed, 4, r, poincare=True)
            assert abs(r.rhs - want_rhs) < 1e-9, (want_rhs, message)
            assert abs(r.estimate - r.rhs) <= 3.0 * r.stderr, message
            zs.append(f"{name} z={r.z_score:+.2f}")
        return ", ".join(zs)

    run_criterion(11, "Monte Carlo intersection counts", 300.0, body)


def test_12_structural_property_suite():
    def body():
        rng = random.Random(1212)
        for n in (2, 3, 4):
            for _ in range(6):
                a = random_form(rng, n, rng.randrange(0, 2 * n - 1))
                assert d(d(a)).is_zero()
                assert InvariantForm(n, dict(a.terms)) == a
            for _ in range(6):
                p, q = rng.randrange(0, 3), rng.randrange(0, 3)
                r = rng.randrange(0, 2)
                a = random_form(rng, n, p)
                b = random_form(rng, n, q)
                c = random_form(rng, n, r)
                assert a.wedge(b) == b.wedge(a) * ((-1) ** (p * q))
                assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))
                assert d(a.wedge(b)) == d(a).wedge(b) + a.wedge(d(b)) * ((-1) ** p)
            for _ in range(6):
                a = random_form(rng, n, rng.randrange(0, 2 * n - 2))
                assert not fiber_integral(d(a))
        for _ in range(8):
            a = random_form(rng, 4, rng.randrange(0, 5))
            assert hodge_star(hodge_star(a)) == a
        for _ in range(6):
            k = rng.randrange(1, 4)
            a, b = random_form(rng, 4, k), random_form(rng, 4, k)
            assert a.wedge(hodge_star(b)) == b.wedge(hodge_star(a))
        basis = su2_basis("alesker")
        for i in range(10):
            for j in range(10):
                if BASIS_DEGREES[i] + BASIS_DEGREES[j] != 4:
                    assert pairing(basis[i][1], basis[j][1]) == ZERO, (i, j)
        for _ in range(5):
            a, b = _random_valuation(rng), _random_valuation(rng)
            assert pairing(a, b) == pairing(b, a)
        K = Box(np.zeros(4), np.array([0.8, 0.6, 0.7, 0.5]))
        L = Simplex(np.array([
            [0.0, 0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]))
        gap = abs(rhs_kinematic(K, L, "icosahedron") - rhs_kinematic(K, L, "alesker"))
        assert gap < 1e-9, gap
        return f"basis independence gap {gap:.1e}"

    run_criterion(12, "structural property suite", 600.0, body)
