"""The three workloads: seeded inputs, the timed op, untimed output checks.

Every workload runs a fixed list of ops of one kind and one composition. The
list length follows from ``--seconds`` through ``seconds_per_op`` (a fixed
scale, not a deadline), so a run with the same ``--seconds`` always does the
same work. Where a workload mixes several kinds of input (normal_cycle's
three kinds of body, motion_mc's five pairs), one op takes one of each, so
that every op has the same make-up and the median op does not sit on the
edge between two clusters of op times. No direction or body repeats within a
run; the constant caches that every op shares (``vol3``'s corrected
derivative, quadrature rules, the exact right-hand sides of the fixed Monte
Carlo pairs) are filled during set-up, from warm-up inputs that are the same
on every seed, so each timed op sees the same cache state and every set-up
does the same work.

The checks compare against quantities computed here, apart from valcalc, or
against properties the method must have; never against stored outputs.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np

from tracing import median_or_zero

REL_TOL = 1e-8   # numeric checks; the quadrature default is 1e-9
MC_Z_LIMIT = 5.0  # pooled Monte Carlo estimate vs. exact value, in standard errors


class Workload:
    name = ""
    stream = 0  # keeps the workloads' numpy streams apart for one seed
    seconds_per_op = 1.0
    # set-ups per run whose median is setup_s (see run.py)
    setup_runs = 3

    def __init__(self, seed, seconds, api, tracer):
        self.api = api
        self.tracer = tracer
        self.n_ops = max(1, math.ceil(seconds / self.seconds_per_op))
        self.rng = random.Random(f"{self.name}/{seed}")
        self.nprng = np.random.default_rng([seed, self.stream])

    def setup(self):
        """Input generation and warm-up; everything before the first timed op."""

    def op(self, i):
        raise NotImplementedError

    def check(self, outputs):
        """Problems found in the outputs of the ops that did not fail."""
        return []

    def layer_metrics(self, outputs):
        """Per-layer figures of a traced run: {name: value}."""
        return {}


# -- exact_pairing -------------------------------------------------------------


def _two_sparse_directions(rng, count, exclude=()):
    """Distinct primitive integer triples with two nonzero entries of unequal
    size up to 9, sign-canonical (first nonzero entry positive), none of them
    in ``exclude``."""
    seen = set(exclude)
    out = []
    while len(out) < count:
        a, b = rng.randint(1, 9), rng.randint(1, 9)
        if a == b or math.gcd(a, b) != 1:
            continue
        first, second = sorted(rng.sample(range(3), 2))
        t = [0, 0, 0]
        t[first], t[second] = a, b * rng.choice((1, -1))
        t = tuple(t)
        if t not in seen:
            seen.add(t)
            out.append(t)
    return out


# of the same composition as the timed pairs, and never one of them
WARMUP_PAIR = ((1, 0, 2), (0, 3, -2))


def _rumin_misses():
    """Misses of the Rumin cache so far; valcalc has no public counter yet."""
    import valcalc.contact as contact

    return contact._rumin_cached.cache_info().misses


def _pairing_density(u, v):
    """(1 + (u.v)^2) / 4 for unit directions, from the integer triples."""
    dot = sum(x * y for x, y in zip(u, v))
    cos2 = Fraction(dot * dot, sum(x * x for x in u) * sum(y * y for y in v))
    return (1 + cos2) / 4


class ExactPairing(Workload):
    """<Z_u, Z_v> and the two sides of self-adjointness of Lambda, Sigma, Delta."""

    name = "exact_pairing"
    stream = 1
    seconds_per_op = 1.25

    def setup(self):
        from valcalc.su2 import ImDirection

        a = self.api
        dirs = _two_sparse_directions(self.rng, 2 * self.n_ops, exclude=WARMUP_PAIR)
        self.triples = [(dirs[2 * i], dirs[2 * i + 1]) for i in range(self.n_ops)]
        self.triples.append(WARMUP_PAIR)
        self.dirs = [(ImDirection.of(*u), ImDirection.of(*v)) for u, v in self.triples]
        self.vol3 = a["valuation.intrinsic_volume_rep"](4, 3)
        if self.tracer:
            self.tracer.classify("contact.rumin", _rumin_misses,
                                 lambda args, before: "cold" if _rumin_misses() > before
                                 else "hit")
            self.tracer.classify("valuation.derivation", lambda: None,
                                 lambda args, _: max(args[0].degrees(), default=-1))
        # the last pair is the warm-up: it fills vol3's caches, and it is the
        # same pair on every seed, so that set-up does the same work
        self._run(*self.dirs[-1])

    def _run(self, u, v):
        a = self.api
        pairing = a["valuation.pairing"]
        zu, zv = a["su2.z_rep"](u), a["su2.z_rep"](v)
        lam, sig, lap = (a["valuation.derivation"], a["valuation.signature"],
                         a["valuation.laplace"])
        return {
            "zz": pairing(zu, zv),
            "lambda": (pairing(lam(zu), self.vol3), pairing(zu, lam(self.vol3))),
            "sigma": (pairing(sig(zu), zv), pairing(zu, sig(zv))),
            "laplace": (pairing(lap(zu), zv), pairing(zu, lap(zv))),
            "reps": (zu, zv),
        }

    def op(self, i):
        return self._run(*self.dirs[i])

    def check(self, outputs):
        problems = []
        for i, out in outputs:
            u, v = self.triples[i]
            want = _pairing_density(u, v)
            if out["zz"] != want:
                problems.append(f"op {i}: <Z_u, Z_v> = {out['zz']}, want {want} for {u}, {v}")
            for op_name in ("lambda", "sigma", "laplace"):
                left, right = out[op_name]
                if left != right:
                    problems.append(f"op {i}: {op_name} not self-adjoint: {left} != {right}")
        return problems

    def layer_metrics(self, outputs):
        t = self.tracer
        kids = t.child_index()
        warm = []
        for idx, rec in enumerate(t.spans):
            if rec[0] != "valuation.pairing" or not isinstance(rec[4], int):
                continue
            tags = [t.spans[k][5] for k in kids[idx] if t.spans[k][0] == "contact.rumin"]
            if tags and all(tag == "hit" for tag in tags):
                warm.append(rec[2] - rec[1])
        return {
            "scalars.mul_us": _scalar_mul_us(outputs),
            "su2.z_rep_ms": median_or_zero(t.durations("su2.z_rep"), 1e3),
            "contact.rumin_cold_ms": median_or_zero(t.durations("contact.rumin", "cold"), 1e3),
            "contact.rumin_hit_us": median_or_zero(t.durations("contact.rumin", "hit"), 1e6),
            "exterior.wedge_ms": median_or_zero(
                t.durations("exterior.InvariantForm.wedge"), 1e3),
            "exterior.fiber_integrate_ms": median_or_zero(
                t.durations("exterior.fiber_integrate"), 1e3),
            "exterior.hodge_star_ms": median_or_zero(t.durations("exterior.hodge_star"), 1e3),
            "valuation.pairing_warm_ms": median_or_zero(warm, 1e3),
            "valuation.signature_ms": median_or_zero(t.durations("valuation.signature"), 1e3),
            "valuation.laplace_ms": median_or_zero(t.durations("valuation.laplace"), 1e3),
            # Lambda of the degree-2 Z_u; Lambda(vol3) is a different, tiny call
            "valuation.derivation_ms": median_or_zero(
                t.durations("valuation.derivation", 2), 1e3),
        }


def _scalar_mul_us(outputs):
    """Median time of one Scalar product over coefficient pairs of Z_u, Z_v."""
    per_op = []
    for _, out in outputs:
        zu, zv = out["reps"]
        cu = [c for p in zu.omega.terms.values() for c in p.terms.values()][:32]
        cv = [c for p in zv.omega.terms.values() for c in p.terms.values()][:32]
        pairs = [(x, y) for x in cu for y in cv]
        start = time.thread_time()
        for _ in range(4):
            for x, y in pairs:
                x * y
        per_op.append((time.thread_time() - start) / (4 * len(pairs)))
    return median_or_zero(per_op, 1e6)


# -- normal_cycle --------------------------------------------------------------


def _orthogonal(nprng, n=4):
    q, r = np.linalg.qr(nprng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _elementary_symmetric(values, k):
    return sum(math.prod(c) for c in itertools.combinations(values, k))


def _simplex_volume(points):
    """k-volume of the k-simplex on k + 1 points of R^4, from the Gram determinant."""
    edges = np.asarray(points[1:], dtype=float) - points[0]
    return math.sqrt(max(np.linalg.det(edges @ edges.T), 0.0)) / math.factorial(len(edges))


def _simplex_facet_sum(verts):
    """Sum of the 3-volumes of the five facets of a 4-simplex."""
    return sum(_simplex_volume(np.delete(verts, skip, axis=0)) for skip in range(5))


def _polygon_area_4d(spec):
    """Area of a convex planar polygon, as a fan of triangles in R^4."""
    v = spec["vertices2d"]
    pts = spec["base"] + v @ spec["frame"]
    return sum(_simplex_volume([pts[0], pts[k], pts[k + 1]]) for k in range(1, len(pts) - 1))


WARMUP_SEED = 0  # the timed bodies come from the streams [seed, 2]


class NormalCycle(Workload):
    """The icosahedron basis evaluated on one fresh box, one fresh simplex and
    one fresh polygon per op."""

    name = "normal_cycle"
    stream = 2
    seconds_per_op = 4.0
    kinds = ("box", "simplex", "polygon")

    def setup(self):
        from valcalc.bodies import Box, PlanarPolygon, Simplex

        classes = {"box": Box, "simplex": Simplex, "polygon": PlanarPolygon}
        make = {"box": self._box_spec, "simplex": self._simplex_spec,
                "polygon": self._polygon_spec}
        self.specs = [[make[kind]() for kind in self.kinds] for _ in range(self.n_ops)]
        self.bodies = [[classes[kind](**args) for kind, args in op] for op in self.specs]
        if self.tracer:
            self.tracer.classify("kinematic.evaluation_vector", lambda: None,
                                 lambda args, _: type(args[0]).__name__)
            self.tracer.classify("bodies.evaluate", lambda: None, _evaluate_tag)
        # the warm-up body, a simplex that is the same on every seed, builds
        # the quadrature rules of every cone dimension
        _, warm = self._simplex_spec(np.random.default_rng(WARMUP_SEED))
        self.api["kinematic.evaluation_vector"](Simplex(**warm))

    def _box_spec(self):
        g = self.nprng
        return "box", {"center": g.uniform(-0.5, 0.5, 4),
                       "half_extents": g.uniform(0.3, 0.8, 4),
                       "rotation": _orthogonal(g)}

    def _simplex_spec(self, g=None):
        g = g or self.nprng
        corner = np.vstack([np.zeros(4), np.eye(4)]) + g.uniform(-0.15, 0.15, (5, 4))
        return "simplex", {"vertices": corner @ _orthogonal(g).T + g.uniform(-0.5, 0.5, 4)}

    def _polygon_spec(self):
        g = self.nprng
        angles = 2 * math.pi * np.arange(5) / 5 + g.uniform(0, 2 * math.pi) \
            + g.uniform(-0.25, 0.25, 5)
        radius = g.uniform(0.5, 1.0)
        return "polygon", {"frame": _orthogonal(g)[:2],
                           "vertices2d": radius * np.column_stack([np.cos(angles),
                                                                   np.sin(angles)]),
                           "base": g.uniform(-0.5, 0.5, 4)}

    def op(self, i):
        out = []
        for body in self.bodies[i]:
            vec = self.api["kinematic.evaluation_vector"](body)
            out.append(dict(zip(vec.labels, (float(x) for x in vec.values))))
        return out

    def check(self, outputs):
        problems = []
        for i, values in outputs:
            for (kind, spec), val in zip(self.specs[i], values):
                problems += _check_body(f"op {i} ({kind})", kind, spec, val)
        return problems

    def layer_metrics(self, outputs):
        t = self.tracer
        ev = "kinematic.evaluation_vector"
        return {
            "bodies.evalvec_box_ms": median_or_zero(t.durations(ev, "Box"), 1e3),
            "bodies.evalvec_simplex_ms": median_or_zero(t.durations(ev, "Simplex"), 1e3),
            "bodies.evalvec_polygon_ms": median_or_zero(t.durations(ev, "PlanarPolygon"), 1e3),
            "bodies.chi_box_ms": median_or_zero(
                t.durations("bodies.evaluate", "Box/0/exact"), 1e3),
        }


def _check_body(where, kind, spec, val):
    """Problems in one body's evaluation vector, against values computed here."""
    zsum = sum(val[f"Z_u{k}"] for k in range(1, 7))
    want = {"chi": 1.0}
    if kind == "box":
        edges = list(2.0 * spec["half_extents"])
        want |= {"vol1": _elementary_symmetric(edges, 1),
                 "vol3": _elementary_symmetric(edges, 3),
                 "vol": _elementary_symmetric(edges, 4),
                 "Z_sum": 2.0 * _elementary_symmetric(edges, 2)}
    elif kind == "simplex":
        verts = spec["vertices"]
        want |= {"vol": abs(np.linalg.det(verts[1:] - verts[0])) / 24.0,
                 "vol3": 0.5 * _simplex_facet_sum(verts)}
    else:
        v = spec["vertices2d"]
        perimeter = float(np.sum(np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1)))
        want |= {"vol1": 0.5 * perimeter, "vol3": 0.0, "vol": 0.0,
                 "Z_sum": 2.0 * _polygon_area_4d(spec)}
    got = val | {"Z_sum": zsum}
    return [f"{where}: {label} = {got[label]!r}, want {expected!r}"
            for label, expected in want.items()
            if abs(got[label] - expected) > REL_TOL * max(1.0, abs(expected))]


def _evaluate_tag(args, _):
    mu, body = args
    has_float = any(isinstance(c, float)
                    for p in mu.omega.terms.values() for c in p.terms.values())
    degrees = "".join(str(k) for k in sorted(mu.degrees()))
    return f"{type(body).__name__}/{degrees}/{'float' if has_float else 'exact'}"


# -- motion_mc -----------------------------------------------------------------

# N per estimate, chosen so that each pair takes about 0.3 s of one op's time
PAIR_SAMPLES = {
    "ball_ball": 1 << 20,
    "ball_box": 28 << 15,
    "box_box": 60 << 10,
    "box_simplex": 512,
    "poincare": 5 << 15,
}
BALL_RADIUS = 0.5
# the plates lie in the planes spanned by 1 and a unit imaginary u; such a
# plane's class is u itself, since its second frame vector is 1 . u
PLATE_CLASSES = ((1.0, 0.0, 0.0), (2.0 / 3.0, 2.0 / 3.0, 1.0 / 3.0))
PENTAGON_RADIUS = 0.8


class MotionMC(Workload):
    """Monte Carlo estimates of motion integrals for fixed body pairs.

    Bodies follow the acceptance suite: the half ball and box of criterion 10,
    the box and simplex of criterion 8, the square and pentagon plates of
    criterion 11. One op makes one estimate per pair; only the sampler seeds
    change from op to op.
    """

    name = "motion_mc"
    stream = 3
    seconds_per_op = 5.0
    # one set-up per run: it is 20 s long, which already averages out the
    # machine's short swings of speed
    setup_runs = 1

    def setup(self):
        from valcalc.bodies import Ball, Box, PlanarPolygon, Simplex

        a = self.api
        ball = Ball(np.zeros(4), BALL_RADIUS)
        self.box_edges = 2.0 * np.array([0.6, 0.5, 0.4, 0.55])
        box = Box(np.zeros(4), self.box_edges / 2.0)
        box8 = Box(np.zeros(4), np.array([0.7, 0.55, 0.5, 0.6]))
        simplex = Simplex(np.array([[0.0, 0.0, 0.0, 0.0], [1.1, 0.0, 0.0, 0.0],
                                    [0.2, 0.9, 0.0, 0.0], [0.1, 0.2, 1.0, 0.0],
                                    [0.3, 0.1, 0.2, 0.8]]))
        ang = 2.0 * math.pi / 5.0
        frames = [np.array([[1.0, 0.0, 0.0, 0.0], [0.0, *u]]) for u in PLATE_CLASSES]
        verts = ([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)],
                 [(PENTAGON_RADIUS * math.cos(i * ang), PENTAGON_RADIUS * math.sin(i * ang))
                  for i in range(5)])
        plates = tuple(PlanarPolygon(f, v) for f, v in zip(frames, verts))
        self.pairs = {"ball_ball": (ball, ball), "ball_box": (ball, box),
                      "box_box": (box, box), "box_simplex": (box8, simplex),
                      "poincare": plates}
        self.order = list(PAIR_SAMPLES)
        seeds = []
        while len(seeds) < (self.n_ops + 1) * len(self.order):
            s = self.rng.randrange(1 << 62)
            if s not in seeds:
                seeds.append(s)
        # seeds[i][name]: the sampler seed of pair ``name`` in op i; the last
        # row is the warm-up's
        self.seeds = [dict(zip(self.order, seeds[k:k + len(self.order)]))
                      for k in range(0, len(seeds), len(self.order))]
        if self.tracer:
            self.tracer.classify("bodies.evaluate", lambda: None, _evaluate_tag)
            self.tracer.classify("kinematic.mc_principal_kinematic", lambda: None,
                                 _pair_tag)
        a["kinematic.kinematic_tensor"]("icosahedron")
        for name in self.order:
            if name != "poincare":
                a["kinematic.rhs_kinematic"](*self.pairs[name])
        # warm-up: one small estimate per pair, on seeds the ops do not use
        for name in self.order:
            self._estimate(name, self.seeds[-1][name], max(16, PAIR_SAMPLES[name] >> 7),
                           threads=1)

    def _estimate(self, name, seed, n, threads):
        a = self.api
        K, L = self.pairs[name]
        if name == "poincare":
            return a["kinematic.mc_poincare"](K, L, N=n, seed=seed, threads=threads)
        return a["kinematic.mc_principal_kinematic"](K, L, N=n, seed=seed, threads=threads)

    def op(self, i):
        return {name: self._estimate(name, self.seeds[i][name], PAIR_SAMPLES[name],
                                     threads=1)
                for name in self.order}

    def _exact_rhs(self, name):
        """Right-hand sides known in closed form, computed here."""
        r = BALL_RADIUS
        if name == "ball_ball":
            return math.pi ** 2 / 2.0 * (2 * r) ** 4
        if name == "ball_box":
            # Steiner formula: vol(box + rB) = sum_k omega_(4-k) V_k(box) r^(4-k)
            omega = (1.0, 2.0, math.pi, 4.0 * math.pi / 3.0, math.pi ** 2 / 2.0)
            return sum(omega[4 - k] * _elementary_symmetric(list(self.box_edges), k)
                       * r ** (4 - k) for k in range(5))
        if name == "poincare":
            cos = float(np.dot(*PLATE_CLASSES))
            square, pentagon = 1.0, 2.5 * PENTAGON_RADIUS ** 2 * math.sin(2.0 * math.pi / 5.0)
            return 0.25 * (1.0 + cos ** 2) * square * pentagon
        return None

    def check(self, outputs):
        problems = []
        for name in self.order:
            reps = [(i, out[name]) for i, out in outputs]
            if not reps:
                problems.append(f"{name}: no op returned, nothing to check")
                continue
            exact = self._exact_rhs(name)
            rhs = reps[0][1].rhs
            if exact is not None and abs(rhs - exact) > 1e-9 * exact:
                problems.append(f"{name}: right-hand side {rhs!r}, closed form {exact!r}")
            total = sum(rep.samples for _, rep in reps)
            mean = sum(rep.estimate * rep.samples for _, rep in reps) / total
            se = math.sqrt(sum((rep.stderr * rep.samples) ** 2 for _, rep in reps)) / total
            if se <= 0 or abs(mean - rhs) > MC_Z_LIMIT * se:
                problems.append(f"{name}: pooled estimate {mean!r} +- {se!r} "
                                f"vs right-hand side {rhs!r}")
            i, first = reps[0]
            again = self._estimate(name, self.seeds[i][name], PAIR_SAMPLES[name], threads=2)
            if (again.estimate, again.stderr, again.indeterminate) != \
                    (first.estimate, first.stderr, first.indeterminate):
                problems.append(f"{name}: threads=2 estimate {again.estimate!r} differs "
                                f"from threads=1 {first.estimate!r}")
        return problems

    def layer_metrics(self, outputs):
        t = self.tracer
        out = {}
        for name in self.order:
            if name == "poincare":
                secs = t.durations("kinematic.mc_poincare")
            else:
                secs = t.durations("kinematic.mc_principal_kinematic", name)
            out[f"kinematic.mc_{name}_sps"] = \
                PAIR_SAMPLES[name] * len(secs) / sum(secs) if secs else 0.0
        out |= {
            "bodies.ball_float_z_s": median_or_zero(
                t.durations("bodies.evaluate", "Ball/2/float", ops_only=False)),
            "kinematic.rhs_s": sum(t.durations("kinematic.rhs_kinematic", ops_only=False)),
            "kinematic.tensor_icosahedron_ms": median_or_zero(
                t.durations("kinematic.kinematic_tensor", ops_only=False), 1e3),
            "linalg.invert_ms": median_or_zero(
                t.durations("linalg.invert_scalar_matrix", ops_only=False), 1e3),
            "bodies.intersects_us": median_or_zero(t.durations("bodies.intersects"), 1e6),
            "bodies.intersects_calls": float(len(t.durations("bodies.intersects"))),
            "kinematic.mc_indeterminate": float(
                sum(reps["box_simplex"].indeterminate for _, reps in outputs)),
        }
        return out


def _pair_tag(args, _):
    """The motion_mc pair a ``mc_principal_kinematic`` call estimates."""
    return "_".join(type(body).__name__.lower() for body in args[:2])


WORKLOADS = {w.name: w for w in (ExactPairing, NormalCycle, MotionMC)}
