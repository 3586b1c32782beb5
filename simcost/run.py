#!/usr/bin/env python3
"""Simulator-cost benchmark: host time per simulated request.

Builds the simcost binary (and the dcs library from ../src) in the
benchmark configuration, runs one workload, and prints its metrics. The
last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage (from the repository root):

    python3 simcost/run.py --workload swift_mix --seed 1 --seconds 30 \
        --trace 0

--trace 0 runs the workload as several instances, each in its own
process on its own seed drawn from --seed, and reports the end-to-end
metrics over the instances: times as medians scaled by a host-speed
probe, peak RSS as the mean. --trace 1 runs one traced instance and
reports the per-layer metrics. See README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "simcost")
BINARY = os.path.join(BUILD, "simcost")

# Host seconds one instance takes on the reference host (a shared
# 4-vCPU Intel Xeon VM). The instance count per run is --seconds
# divided by this, fixed so that the same --seed and --seconds always
# run the same inputs, however fast the host is.
NOMINAL_S = {"swift_mix": 4.8, "loadgen_100k": 9.5, "rack_ring": 3.3}

# The binary's host-speed probe takes this long on the reference host.
# Reported times are scaled by PROBE_REF_S / (the instance's probe
# time), i.e. given in seconds of the reference host; raw seconds are
# printed per instance.
PROBE_REF_S = 0.11

# On a slow host a run stops starting instances that would end past
# this multiple of --seconds, or past DEADLINE_S in all.
OVERRUN = 1.4
DEADLINE_S = 170.0

MASK64 = (1 << 64) - 1


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure and build the binary; False if either step fails."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j", jobs]]
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
        if r.returncode != 0:
            log("simcost: build step failed: " + " ".join(cmd))
            return False
    return os.path.exists(BINARY)


def instance_seeds(seed, n):
    """The run's own seed first, then splitmix64 draws from it."""
    seeds = [seed]
    state = seed & MASK64
    while len(seeds) < n:
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        seeds.append((z ^ (z >> 31)) >> 1)
    return seeds


def run_instance(workload, seed, trace, timeout):
    """One simcost process. Returns (result dict or None, nominal ops)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired as e:
        out = e.stdout.decode() if isinstance(e.stdout, bytes) else e.stdout
        log(f"simcost: {workload} seed={seed} timed out")
        return None, nominal(out or "")
    if p.stderr:
        sys.stdout.write(p.stderr)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines or not lines[-1].startswith("{"):
        log(f"simcost: {workload} seed={seed} exited {p.returncode}")
        return None, nominal(p.stdout)
    return json.loads(lines[-1]), nominal(p.stdout)


def nominal(stdout):
    for line in stdout.splitlines():
        if line.startswith("nominal_ops "):
            return int(line.split()[1])
    return 1


def end_to_end(workload, seed, seconds, t0):
    count = max(1, int(seconds // NOMINAL_S[workload]))
    rows, attempted, failed, correct = [], 0, 0, True
    last = 0.0
    for i, s in enumerate(instance_seeds(seed, count)):
        elapsed = time.monotonic() - t0
        if i > 0 and elapsed + last > OVERRUN * seconds:
            log(f"simcost: stopping after {i} of {count} instances "
                f"({elapsed:.0f}s)")
            break
        res, ops = run_instance(workload, s, False, DEADLINE_S - elapsed)
        last = time.monotonic() - t0 - elapsed
        if res is None:
            attempted += ops
            failed += ops
            correct = False
            continue
        attempted += res["attempted"]
        failed += res["failed"]
        if not res["ok"]:
            correct = False
            for p in res["problems"]:
                print(f"  problem: {p}")
        speed = PROBE_REF_S / res["probe_s"]
        rows.append({
            "setup_s": res["setup_s"] * speed,
            "wall_s": res["wall_s"] * speed,
            "sim_req_per_s": res["requests"] / (res["sim_s"] * speed),
            "peak_rss_mb": res["peak_rss_mb"],
        })
        print(f"instance {i} seed={s}: raw setup {res['setup_s']:.4f}s "
              f"wall {res['wall_s']:.3f}s "
              f"{res['requests'] / res['sim_s']:.2f} req/s; "
              f"probe {res['probe_s']:.4f}s; rss "
              f"{res['peak_rss_mb']:.1f}MB; ops {res['attempted']} "
              f"attempted, {res['failed']} failed")
        print(f"  fingerprint: {res['fingerprint']}")
    # Times take the median, robust to a stalled instance. Peak RSS
    # has no host noise, only seed-to-seed variation: the mean damps it.
    units = {"setup_s": ("s", statistics.median),
             "wall_s": ("s", statistics.median),
             "sim_req_per_s": ("1/s", statistics.median),
             "peak_rss_mb": ("MB", statistics.mean)}
    metrics = {}
    if rows:
        for name, (unit, stat) in units.items():
            metrics[name] = {"value": stat([r[name] for r in rows]),
                             "unit": unit}
    else:
        correct = False
    return correct, attempted, failed, metrics


def per_layer(workload, seed, t0):
    res, ops = run_instance(workload, seed, True,
                            DEADLINE_S - (time.monotonic() - t0))
    if res is None:
        return False, ops, ops, {}
    for p in res["problems"]:
        print(f"  problem: {p}")
    print(f"fingerprint: {res['fingerprint']}")
    return res["ok"], res["attempted"], res["failed"], res["per_layer"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(NOMINAL_S))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not 0 <= args.seed < 1 << 64:
        ap.error("--seed must fit in 64 unsigned bits")

    if not build():
        return 1
    t0 = time.monotonic()
    if args.trace:
        correct, attempted, failed, metrics = per_layer(
            args.workload, args.seed, t0)
    else:
        correct, attempted, failed, metrics = end_to_end(
            args.workload, args.seed, args.seconds, t0)
    print(json.dumps({"correct": bool(correct and failed == 0),
                      "attempted": max(1, int(attempted)),
                      "failed": int(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
