#!/usr/bin/env python3
"""Steadiness report for the SEMPLAR benchmark.

Two questions, two subcommands:

  repeat  Run each workload several times on each of two seeds (traced, so
          every per-layer counter is printed). Counters the program decides
          on its own clock must repeat exactly for one seed; they are
          checked for equality. Counters the host decides (wall and CPU
          time, context switches, timer re-arms of actors released at the
          same instant) are reported with their spread. The second seed
          shows the figures are not tuned to one seed.

  spread  Run each workload once on each of N seeds, untraced, and report
          for every end-to-end metric its median and the distance between
          its first and third quartile as a share of the median.

Run from the root of the repository:

  python3 perfbench/steady.py repeat --seconds 4 --repeats 3
  python3 perfbench/steady.py spread --seconds 20 --seeds 10

Each run goes through the `cargo run` command of BENCHMARK.json. Exit
status 1 means an exact counter drifted or a run reported incorrect
output.
"""

import argparse
import json
import statistics
import subprocess
import sys

COMMAND = [
    "cargo", "run", "--release", "--offline", "--quiet",
    "--manifest-path", "perfbench/Cargo.toml", "--",
]
WORKLOADS = ["overlap", "bulk", "swarm"]
SEED_PAIR = [1, 2]

# Figures the host decides: reported with their spread, never compared
# exactly. Everything else a run prints is decided on the virtual clock or
# counted by the program and must repeat exactly for one seed.
HOST_DECIDED = {
    "cpu_s",
    "setup_s",
    "peak_rss_mb",
    "runtime.wall_s",
    "runtime.clock_advances",
    "runtime.wall_us_per_advance",
    "runtime.ctx_switches_vol",
    "runtime.ctx_switches_invol",
    "runtime.sys_cpu_s",
    "runtime.user_cpu_s",
    "runtime.peak_live_actors",
    "runtime.timers_armed",
    "netsim.solver_ms",
    "netsim.solver_share",
    "core.backend_wall_us_per_call",
    "compress.mb_per_s",
    "host.slowdown",
    "trace.overhead_pct",
    "trace.wall_spread_pct",
}


def run(workload, seed, seconds, trace):
    argv = COMMAND + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    # A failed check exits 1 and still prints its result line.
    out = subprocess.run(argv, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    return result["correct"], {k: v["value"] for k, v in result["metrics"].items()}


def rel_iqr(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def repeat(args):
    bad = False
    for w in WORKLOADS:
        by_seed = {}
        for seed in SEED_PAIR:
            runs = []
            for _ in range(args.repeats):
                for trace in (0, 1):
                    correct, m = run(w, seed, args.seconds, trace)
                    bad |= not correct
                    runs.append(m)
            merged = [dict(runs[i], **runs[i + 1]) for i in range(0, len(runs), 2)]
            by_seed[seed] = merged
        print(f"== {w}: {args.repeats} runs on each of seeds {SEED_PAIR}")
        names = sorted(by_seed[SEED_PAIR[0]][0])
        drifted = []
        for name in names:
            if name in HOST_DECIDED:
                continue
            for seed, runs in by_seed.items():
                values = [r[name] for r in runs]
                if len(set(values)) > 1:
                    drifted.append((name, seed, values))
        exact = [n for n in names if n not in HOST_DECIDED]
        print(f"  exact counters: {len(exact) - len({d[0] for d in drifted})} of {len(exact)} repeat exactly")
        for name, seed, values in drifted:
            bad = True
            print(f"  DRIFT {name} seed {seed}: {values}")
        print("  host-decided figures (seed: min .. max, (max-min)/median):")
        for name in names:
            if name not in HOST_DECIDED:
                continue
            parts = []
            for seed, runs in by_seed.items():
                values = [r[name] for r in runs]
                med = statistics.median(values)
                span = (max(values) - min(values)) / med if med else 0.0
                parts.append(f"{seed}: {min(values):.6g} .. {max(values):.6g} ({span:.1%})")
            print(f"    {name:<30} " + "; ".join(parts))
        a, b = SEED_PAIR
        print(f"  seed {a} vs seed {b} (virtual end-to-end, relative difference):")
        for name in ["virtual_s", "goodput_mbps", "op_mean_ms", "op_p99_ms"]:
            va, vb = by_seed[a][0][name], by_seed[b][0][name]
            print(f"    {name:<14} {va:.6g} vs {vb:.6g} ({(vb - va) / va:+.2%})")
    return bad


def spread(args):
    bad = False
    for w in WORKLOADS:
        values = {}
        for seed in range(1, args.seeds + 1):
            correct, m = run(w, seed, args.seconds, 0)
            bad |= not correct
            for k, v in m.items():
                values.setdefault(k, []).append(v)
        print(f"== {w}: {args.seeds} seeds, untraced")
        for name, vs in values.items():
            med, rel = rel_iqr(vs)
            print(f"  {name:<14} median {med:<14.6g} IQR/median {rel:.2%}")
    return bad


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("mode", choices=["repeat", "spread"])
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--seeds", type=int, default=10)
    args = p.parse_args()
    bad = (repeat if args.mode == "repeat" else spread)(args)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
