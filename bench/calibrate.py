#!/usr/bin/env python3
"""Calibrates the certifier benchmark's regression bounds.

Run from the repository root:

    python3 bench/calibrate.py --sets 2 --seeds 1-10 --out bench/baseline.json

Each set runs `bash bench/run.sh --workload W --seed S --seconds N --trace 0`
once per seed and workload, seeds in the outer loop so slow drift of the
host hits every workload alike. For every end-to-end metric it reports
the median, the quartiles (statistics.quantiles(values, n=4)) and the
quartile spread as a share of the median, then checks them against the
bounds in BENCHMARK.json: each spread but setup_s's must stay below a
third of its bound, and each set's median may not be worse than the
first set's by more than the bound. It also summarises, per workload,
the ratio of the host speed under load to the speed in the idle windows
around the run (the speed probe's dependence on the server under test,
see bench/README.md), and how far each set's median ratio lies from the
first set's. With --trace-seed it also records
one traced run per workload as a per-layer reference. With --out, the
summary is written as JSON. With --check FILE, no runs are made: the
sets recorded in FILE are checked against the current bounds and FILE's
checks are rewritten.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


SPEED_LINE = re.compile(r"^info host speed idle before (\S+), under load (\S+), idle after (\S+):")


def run_once(workload, seed, seconds, trace):
    """Returns the run's host record, its result and its host speeds:
    (idle before, under load, idle after)."""
    cmd = ["bash", "bench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    host = next((json.loads(l[5:]) for l in lines if l.startswith("host ")), {})
    speeds = next((tuple(float(x) for x in m.groups()) for m in map(SPEED_LINE.match, lines) if m), None)
    return host, json.loads(lines[-1]), speeds


def speed_summary(runs):
    """Summarises (idle before, under load, idle after) speeds: the ratio
    of the loaded speed to the mean idle one, per run."""
    ratios = [loaded / ((before + after) / 2) for before, loaded, after in runs]
    out = summarise(ratios)
    out["runs"] = [list(r) for r in runs]
    return out


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else 0.0,
            "values": values}


def worse_by(first, later, better):
    """Share by which later is worse than first (negative: better)."""
    if first == 0:
        return 0.0
    change = (later - first) / first
    return change if better == "lower" else -change


def check(sets, workloads, metrics):
    """Checks each set's spreads and its median against the first set's."""
    ok, checks = True, {}
    for w in workloads:
        checks[w] = {}
        for m, d in metrics.items():
            spreads = [st[w][m]["spread"] for st in sets]
            drifts = [worse_by(sets[0][w][m]["median"], st[w][m]["median"], d["better"]) for st in sets[1:]]
            spread_ok = m == "setup_s" or max(spreads) < d["bound"] / 3
            drift_ok = all(x <= d["bound"] for x in drifts)
            ok = ok and spread_ok and drift_ok
            checks[w][m] = {"bound": d["bound"], "spreads": spreads, "worse_by": drifts,
                            "ok": spread_ok and drift_ok}
            print(f"{w:16s} {m:22s} bound {d['bound']:.3f} spreads "
                  + " ".join(f"{x:.4f}" for x in spreads) + " worse_by "
                  + " ".join(f"{x:+.4f}" for x in drifts) + ("" if spread_ok and drift_ok else "  FAIL"))
    return ok, checks


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--workloads", default=None, help="comma-separated; default: all in BENCHMARK.json")
    ap.add_argument("--trace-seed", type=int, default=None)
    ap.add_argument("--out", default=None)
    ap.add_argument("--check", default=None, metavar="FILE")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    if args.check:
        with open(args.check) as f:
            out = json.load(f)
        ok, out["checks"] = check(out["sets"], list(out["sets"][0]), metrics)
        with open(args.check, "w") as f:
            json.dump(out, f, indent=1, sort_keys=True)
            f.write("\n")
        return 0 if ok else 1

    host, sets, speed = None, [], []
    for s in range(args.sets):
        values = {w: {m: [] for m in metrics} for w in workloads}
        speeds = {w: [] for w in workloads}
        for seed in seeds:
            for w in workloads:
                host, res, sp = run_once(w, seed, seconds, 0)
                if not res["correct"] or res["failed"]:
                    raise SystemExit(f"{w} seed {seed}: incorrect result {res}")
                for m in metrics:
                    values[w][m].append(res["metrics"][m]["value"])
                speeds[w].append(sp)
                print(f"set {s + 1} seed {seed} {w}: " + " ".join(
                    f"{m}={res['metrics'][m]['value']:.6g}" for m in metrics)
                    + " speed idle/loaded/idle=" + "/".join(f"{x:.4g}" for x in sp), flush=True)
        sets.append({w: {m: summarise(v) for m, v in ms.items()} for w, ms in values.items()})
        speed.append({w: speed_summary(runs) for w, runs in speeds.items()})

    ok, checks = check(sets, workloads, metrics)
    for s, st in enumerate(speed):
        for w, sm in st.items():
            shift = sm["median"] / speed[0][w]["median"] - 1
            print(f"set {s + 1} {w:16s} host speed under load / idle: median {sm['median']:.4f} "
                  f"({shift:+.4f} against set 1) quartiles {sm['q1']:.4f}-{sm['q3']:.4f} "
                  f"range {min(sm['values']):.4f}-{max(sm['values']):.4f}")

    per_layer = {}
    if args.trace_seed is not None:
        for w in workloads:
            _, res, _ = run_once(w, args.trace_seed, seconds, 1)
            per_layer[w] = {k: v["value"] for k, v in res["metrics"].items()}

    if args.out:
        out = {"host": host, "seconds": seconds, "seeds": seeds, "sets": sets, "checks": checks,
               "host_speed_loaded_over_idle": speed}
        if per_layer:
            out["per_layer_seed"] = args.trace_seed
            out["per_layer"] = per_layer
        with open(args.out, "w") as f:
            json.dump(out, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
