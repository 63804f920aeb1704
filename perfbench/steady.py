"""Steadiness check: two sets of runs of the same code, compared metric by metric.

    python3 perfbench/steady.py

Each run is ``run.py`` in a fresh interpreter, one after another (never two
at once on a 2-CPU machine), at the ``run_seconds`` of BENCHMARK.json, on
every workload. Set 1 uses seeds 1..10, set 2 seeds 1001..1010. For every
end-to-end metric it reports, per set, the median and the spread (distance
between the first and third quartile as a share of the median), and how far
set 2's median moved against set 1's in the worse direction, each beside the
metric's bound in BENCHMARK.json. Beside the metrics it reports the same
spreads of the figures before normalization (raw CPU time and wall time,
from each run's details file), which show how much the machine's speed
moved, and records each run's wall and CPU time (the child's rusage) and the
timed phase's CPU share: a share well below 1 means the host ran other
guests on this machine's CPUs. One traced run per workload gives the tracing
overhead (traced against untraced ``ops_per_norm_s``). The summary goes to
standard output and ``perfbench/out/steady.json``.
"""

import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
RUNS = 10  # per set and workload
SEED_BASES = (0, 1000)  # one per set
# figures before normalization, from the details file: (name, better)
RAW = (("setup_cpu_s", "lower"), ("setup_wall_s", "lower"), ("ops_per_cpu_s", "higher"),
       ("ops_per_s", "higher"), ("op_cpu_p50_ms", "lower"), ("op_p50_ms", "lower"))


def child_cpu():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    cpu0, t0 = child_cpu(), time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall, cpu = time.perf_counter() - t0, child_cpu() - cpu0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(OUT / f"{workload}_seed{seed}_trace{trace}.json") as fh:
        detail = json.load(fh)
    return {"seed": seed, "wall_s": wall, "cpu_s": cpu,
            "phase_cpu_share": detail["phase_cpu_s"] / detail["phase_s"],
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "raw": detail["raw"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def compare(vals, better):
    """Medians and spreads of two sets, and the drift of the second median."""
    first, second = (statistics.median(v) for v in vals)
    sign = 1.0 if better == "lower" else -1.0
    return {"median": [first, second], "spread": [spread(v) for v in vals],
            "drift": sign * (second - first) / first}


def summarize(spec, sets):
    """Per workload and metric: medians, spreads and drift against the bound."""
    out = {}
    for workload in sets[0]:
        rows = {m["name"]: {"bound": m["bound"]} | compare(
                    [[r["metrics"][m["name"]] for r in s[workload]] for s in sets],
                    m["better"])
                for m in spec["end_to_end"]}
        raw = {name: compare([[r["raw"][name] for r in s[workload]] for s in sets], better)
               for name, better in RAW}
        runs = [r for s in sets for r in s[workload]]
        out[workload] = {
            "metrics": rows,
            "raw": raw,
            "failed_share": [sum(r["failed"] for r in s[workload])
                             / sum(r["attempted"] for r in s[workload]) for s in sets],
            "all_correct": all(r["correct"] for r in runs),
            "wall_s": statistics.median(r["wall_s"] for r in runs),
            "cpu_s": statistics.median(r["cpu_s"] for r in runs),
            "phase_cpu_share": min(r["phase_cpu_share"] for r in runs),
            "probe_share": statistics.median(r["raw"]["probe_share"] for r in runs),
        }
    return out


def main():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    OUT.mkdir(exist_ok=True)

    sets = []
    for k, base in enumerate(SEED_BASES):
        runs = {}
        for w in names:
            runs[w] = []
            for j in range(RUNS):
                r = run_once(w, base + j + 1, seconds, 0)
                runs[w].append(r)
                print(f"set {k + 1} {w} seed {r['seed']}: wall {r['wall_s']:.1f} s, "
                      f"cpu {r['cpu_s']:.1f} s, "
                      + ", ".join(f"{n} {v:.4g}" for n, v in r["metrics"].items()),
                      flush=True)
        sets.append(runs)
    summary = summarize(spec, sets)

    for w in names:
        traced = run_once(w, 1, seconds, 1)
        u_ops = summary[w]["metrics"]["ops_per_norm_s"]["median"][0]
        summary[w]["trace_overhead"] = u_ops / traced["metrics"]["trace.ops_per_norm_s"] - 1.0

    print(f"\n{'workload':14} {'metric':15} {'bound':>6} {'median 1':>11} {'spread 1':>9}"
          f" {'median 2':>11} {'spread 2':>9} {'drift':>7}")
    for w, s in summary.items():
        rows = list(s["metrics"].items()) + [(f"({k})", r) for k, r in s["raw"].items()]
        for name, row in rows:
            med, spr = row["median"], row["spread"]
            bound = f"{row['bound']:6.2f}" if "bound" in row else f"{'':6}"
            print(f"{w:14} {name:15} {bound} {med[0]:11.4g} {spr[0]:9.3f}"
                  f" {med[1]:11.4g} {spr[1]:9.3f} {row['drift']:7.3f}")
        print(f"{w:14} failed share {s['failed_share']}, all correct {s['all_correct']}, "
              f"median wall {s['wall_s']:.1f} s, cpu {s['cpu_s']:.1f} s, "
              f"lowest timed-phase cpu share {s['phase_cpu_share']:.3f}, "
              f"speed probe's share of cpu {s['probe_share']:.1%}, "
              f"tracing overhead {s['trace_overhead']:.1%}")
    with open(OUT / "steady.json", "w") as fh:
        json.dump({"seconds": seconds, "runs": RUNS, "summary": summary,
                   "sets": sets}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
