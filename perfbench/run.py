"""valcalc benchmark: one workload, one seed, one fresh interpreter.

    python3 perfbench/run.py --workload exact_pairing --seed 1 --seconds 40 --trace 0

Runs from the root of a source checkout and imports valcalc from ``src/``.
``--seconds`` fixes the length of the op list (see ``workloads.py``); the run
always executes the whole list, however long it takes. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. ``correct`` is false when an op raised
or a check failed; no op is expected to fail.

Times are the CPU time of the main thread, which runs all of the load,
normalized for the speed the host gives this process at the time (see
``speed.py``). On an unshared machine this thread's CPU time and wall time
agree; on a shared host, CPU time leaves out the time the host ran other
guests on this machine's CPUs (steal time, which Linux guests subtract from
task time), and the normalization takes out the swings of speed while this
process runs.
Wall-clock and raw CPU figures go beside them into the details file
(``perfbench/out/``, with per-op times, the probe's samples and the
environment); a traced run also writes its spans there.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOAD_NAMES = ("exact_pairing", "normal_cycle", "motion_mc")
# one thread of load: numpy's BLAS must not add threads of its own
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
def process_age():
    """Wall seconds since this interpreter started: Linux records the start in
    clock ticks since boot (``/proc/self/stat``, field 22)."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="stop after set-up and print its CPU time; an untraced run "
                        "starts such runs to take the median of several set-ups")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def environment():
    import numpy

    from valcalc.scalars import Rat

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
            "rational_backend": f"{Rat.__module__}.{Rat.__name__}"}


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "valcalc" / "__init__.py").is_file():
        print(f"error: no valcalc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.pop("VALCALC_QUAD_TOL", None)
    for var in BLAS_ENV:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))

    import speed

    probe = speed.SpeedProbe()
    probe.start()

    def clock():
        """The main thread's CPU time, less the speed probe's own."""
        return time.thread_time() - probe.cost

    start = clock()
    import valcalc.cli  # noqa: F401  (the whole library, as the CLI loads it)
    import_s = clock() - start

    import tracing
    import workloads

    tracer = tracing.Tracer(clock) if args.trace else None
    api = tracer.install() if tracer else tracing.plain_api()
    wl = workloads.WORKLOADS[args.workload](args.seed, args.seconds, api, tracer)
    wl.setup()

    # the set-up runs from the start of the process: interpreter start,
    # imports, input generation and warm-up
    setup_cpu_s, setup_norm_s, _ = probe.since((0.0, 0, 0.0))
    setup_wall_s = process_age()
    if args.setup_only:
        probe.stop()
        print(json.dumps({"setup_cpu_s": setup_cpu_s, "setup_norm_s": setup_norm_s}))
        return 0

    outputs, failed = [], 0
    op_cpu, op_norm, op_wall, op_samples = [], [], [], []
    samples0 = len(probe.samples)
    phase_start, phase_cpu0 = time.perf_counter(), time.thread_time()
    for i in range(wl.n_ops):
        if tracer:
            tracer.op = i
        mark, t = probe.mark(), time.perf_counter()
        try:
            outputs.append((i, wl.op(i)))
        except Exception:  # an op that raises is counted, and the run goes on
            failed += 1
            traceback.print_exc(file=sys.stderr)
        op_wall.append(time.perf_counter() - t)
        cpu, norm, k = probe.since(mark)
        op_cpu.append(cpu)
        op_norm.append(norm)
        op_samples.append(k)
    phase_s = time.perf_counter() - phase_start
    phase_cpu_s = time.thread_time() - phase_cpu0  # the probe's time included
    probe.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer:
        tracer.active = False
    problems = wl.check(outputs)
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    # one set-up is a second or so of work: take the median of several, each
    # in a fresh interpreter of its own, one after another
    setups = [(setup_cpu_s, setup_norm_s)]
    if not tracer:
        setups += [setup_in_child(args) for _ in range(wl.setup_runs - 1)]

    # timing figures cover only the ops that returned: an op that raises
    # early would otherwise make them look better
    n = len(outputs)
    if n == 0:
        print("error: every op failed; no timing figures", file=sys.stderr)
        return 1
    norm = [op_norm[i] for i, _ in outputs]
    cpu = [op_cpu[i] for i, _ in outputs]
    wall = [op_wall[i] for i, _ in outputs]
    e2e = {"setup_s": statistics.median(s for _, s in setups),
           "ops_per_norm_s": n / sum(norm), "op_p50_norm_ms": statistics.median(norm) * 1e3,
           "peak_rss_mb": peak_rss_mb}
    samples = probe.samples[samples0:]
    raw = {"setup_cpu_s": statistics.median(c for c, _ in setups),
           "setup_wall_s": setup_wall_s, "ops_per_s": n / sum(wall),
           "op_p50_ms": statistics.median(wall) * 1e3, "ops_per_cpu_s": n / sum(cpu),
           "op_cpu_p50_ms": statistics.median(cpu) * 1e3,
           "probe_ms": statistics.median(samples) * 1e3 if samples else None,
           "probe_share": probe.cost / max(time.thread_time(), 1e-9)}

    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "ops": wl.n_ops, "failed": failed,
              "op_cpu_s": op_cpu, "op_norm_s": op_norm, "op_wall_s": op_wall,
              "op_samples": op_samples, "setups": setups, "phase_s": phase_s,
              "phase_cpu_s": phase_cpu_s,
              "import_s": import_s, "end_to_end": e2e, "raw": raw, "problems": problems,
              "environment": environment()}
    if tracer:
        metrics = {"cli.import_s": import_s, "trace.ops_per_norm_s": e2e["ops_per_norm_s"]}
        metrics |= {f"{m}.self_s": s for m, s in tracer.self_seconds().items()}
        metrics |= wl.layer_metrics(outputs)
        units = metric_units("per_layer")
        unknown = sorted(set(metrics) - set(units))
        if unknown:
            raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
        # a layer the workload never calls reads 0
        result_metrics = {k: {"value": metrics.get(k, 0.0), "unit": units[k]}
                          for k in units}
    else:
        units = metric_units("end_to_end")
        result_metrics = {k: {"value": e2e[k], "unit": units[k]} for k in units}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    detail["metrics"] = result_metrics
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(detail, fh, indent=1)
    if tracer:
        tracer.dump(OUT / f"spans_{args.workload}_seed{args.seed}.json")

    print(f"{args.workload} seed {args.seed}: {wl.n_ops} ops, {failed} failed, "
          f"{len(problems)} check problems, timed phase {phase_s:.2f} s "
          f"(cpu {sum(op_cpu):.2f} s, normalized {sum(op_norm):.2f} s), "
          f"set-up {setup_wall_s:.2f} s (cpu {setup_cpu_s:.2f} s)")
    print(json.dumps({"correct": not problems and failed == 0,
                      "attempted": wl.n_ops, "failed": failed,
                      "metrics": result_metrics}))
    return 0


def setup_in_child(args):
    """(CPU, normalized) seconds of the same run's set-up in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                          check=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["setup_cpu_s"], out["setup_norm_s"]


def metric_units(section):
    """{name: unit} of one metric section of BENCHMARK.json, in its order."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[section]}


if __name__ == "__main__":
    sys.exit(main())
