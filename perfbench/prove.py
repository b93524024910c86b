#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each end-to-end
metric's median and quartile spread against its bound.

Run from the repository root:

    python3 perfbench/prove.py --workloads replay,serve --seeds 1-5
    python3 perfbench/prove.py --seeds 1-10 --record    # all workloads

--record also runs each workload's traced variant once and appends a
trajectory point (machine record, medians, quartiles, per-layer values
and tracing overhead) to perfbench/trajectory.json.
"""
import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cfg, workload, seed, trace):
    cmd = cfg["command"] + ["--workload", workload, "--seed", str(seed),
                            "--seconds", str(cfg["run_seconds"]), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if p.returncode != 0:
        sys.exit(f"{' '.join(cmd)}: exit {p.returncode}\n{p.stderr}")
    lines = p.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    machine = {}
    for l in lines:
        if l.startswith("machine "):
            machine = json.loads(l[len("machine "):])
    if not res["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect result\n{p.stdout}")
    return res, machine, p.stdout


def seeds_of(spec):
    out = []
    for part in spec.split(","):
        a, _, b = part.partition("-")
        out.extend(range(int(a), int(b or a) + 1))
    return out


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        cfg = json.load(f)
    bounds = {m["name"]: m["bound"] for m in cfg["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in cfg["workloads"]]
    seeds = seeds_of(args.seeds)
    point = {"workloads": {}, "per_layer": {}}
    ok = True
    machine = {}
    for w in workloads:
        values = {}
        units = {}
        for s in seeds:
            res, machine, _ = run(cfg, w, s, 0)
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
                units[k] = v["unit"]
            print(f"{w} seed {s}: " + " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()), flush=True)
        summary = {}
        for k, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            spread = (q3 - q1) / med if med else float("inf")
            limit = bounds[k] / 3
            flag = "ok" if spread < limit or k == "setup_s" else "WIDE"
            if flag != "ok":
                ok = False
            print(f"  {w:10s} {k:22s} median={med:.6g} {units[k]} q1={q1:.6g} q3={q3:.6g} "
                  f"spread={spread:.4f} (bound/3={limit:.4f}) {flag}", flush=True)
            summary[k] = {"median": med, "q1": q1, "q3": q3, "n": len(vs), "unit": units[k]}
        point["workloads"][w] = summary
        if args.record:
            res, _, out = run(cfg, w, seeds[0], 1)
            point["per_layer"][w] = {k: v["value"] for k, v in res["metrics"].items()}
            print(out, flush=True)
    if args.record:
        point.update({
            "date": datetime.date.today().isoformat(),
            "machine": dict(machine, cpu=cpu_model()),
            "run_seconds": cfg["run_seconds"],
            "seeds": seeds,
            "trace_seed": seeds[0],
        })
        path = os.path.join(HERE, "trajectory.json")
        doc = {"points": []}
        if os.path.exists(path):
            with open(path) as f:
                doc = json.load(f)
        doc["points"].append(point)
        with open(path, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
