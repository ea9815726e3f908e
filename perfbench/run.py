#!/usr/bin/env python3
"""End-to-end benchmark of the slinfer simulator.

Builds perfbench/ (the simulator library from src/ plus the perfbench
driver) in Release mode under $CARGO_TARGET_DIR (default .bench_build),
then replays one workload serially, in one process:

    python3 perfbench/run.py --workload fleet640-slinfer --seed 5 \\
        --seconds 15 --trace 0

--trace 0 times untraced runs and reports the end-to-end metrics, with
host times in reference-host seconds (README.md explains the probe);
--trace 1 pairs untraced runs with traced ones (counters and phase
profiler on) and reports the per-layer metrics. Metric names, units and
directions come from BENCHMARK.json; README.md maps each layer metric to
the end-to-end metric it should move. The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics; a table of
every metric with its unit and sample count goes to stderr. The exit
code is nonzero when a check fails, a report digest mismatch included.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fleet640-slinfer", "fleet640-sllm", "azure64-overload-strc")
STRC_WORKLOAD = "azure64-overload-strc"
# Keeps a run, build check included, inside the 180 s a run may take.
RUN_TIMEOUT_S = 165


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure once, build incrementally; returns the build directory."""
    if not (ROOT / "src" / "harness" / "session.hh").is_file():
        raise SystemExit(f"perfbench: no simulator sources in {ROOT / 'src'}")
    bdir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    if not (bdir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(bdir), "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return bdir


def host_line(bdir):
    cache = (bdir / "CMakeCache.txt").read_text()
    fields = dict(line.split("=", 1) for line in cache.splitlines()
                  if line.startswith(("CMAKE_CXX_COMPILER:", "CMAKE_BUILD_TYPE:")))
    cxx = fields.get("CMAKE_CXX_COMPILER:FILEPATH", "c++")
    version = subprocess.run([cxx, "--version"], capture_output=True,
                             text=True).stdout.splitlines()[:1]
    return (f"host: nproc={os.cpu_count()} compiler={' '.join(version)} "
            f"build_type={fields.get('CMAKE_BUILD_TYPE:STRING', '?')}")


def median_run(runs):
    """The run at the lower median of wall run time, so its layer split
    adds up."""
    key = statistics.median_low([r["run_wall_s"] for r in runs])
    return next(r for r in runs if r["run_wall_s"] == key)


def by_seed(runs):
    """Runs grouped by experiment seed, in the order the seeds first ran."""
    groups = {}
    for r in runs:
        groups.setdefault(r["seed"], []).append(r)
    return list(groups.values())


def check(data, workload, pinned):
    """Returns (failed runs, list of problems)."""
    runs = data["runs"]
    plain = [r for r in runs if not r["traced"]]
    traced = [r for r in runs if r["traced"]]
    problems = []
    failed = 0
    for group in by_seed(runs):
        exp_seed = group[0]["seed"]
        want = pinned[workload][str(exp_seed)]
        log(f"experiment seed {exp_seed}: report digest (FNV-1a 64) "
            f"{group[0]['digest']}, pinned {want}")
        bad = sum(1 for r in group
                  if r.get("digest_uncounted", r["digest"]) != want)
        if bad:
            problems.append(f"{bad} of {len(group)} reports at experiment "
                            f"seed {exp_seed} differ from the pinned {want}")
        failed += bad
    if traced:
        first = traced[0]["counters"]
        for name in first:
            if any(r["counters"][name] != first[name] for r in traced):
                problems.append(f"counter {name} differs across traced runs")
        for r in traced:
            if sum(r["phases"].values()) > r["run_wall_s"]:
                problems.append("phase self-times exceed the traced wall "
                                "run time")
    for r in runs:
        if workload == STRC_WORKLOAD and r["replayed"] != r["total_requests"]:
            problems.append("stream feed replayed fewer arrivals than the "
                            "report counts")
    if "decode" in data:
        d = data["decode"]
        if d["records"] != d["passes"] * plain[0]["total_requests"]:
            problems.append("a .strc decode pass lost records")
    return failed, problems


def end_to_end(data, failed):
    """Host times are medians per experiment seed, averaged over the
    seeds a round replays; simulated results are averaged the same way
    (they repeat exactly per seed)."""
    runs = data["runs"]
    plain = [r for r in runs if not r["traced"]]
    groups = by_seed(plain)
    setups = [r["setup_s"] for r in plain] + data["setup_only_s"]
    setup = statistics.median(setups)
    run = statistics.fmean(statistics.median(r["run_s"] for r in g)
                           for g in groups)

    def sim(key):
        return statistics.fmean(g[0][key] for g in groups)

    return {
        "setup_s": (setup, len(setups)),
        "run_s": (run, len(plain)),
        "req_per_s": (plain[0]["total_requests"] / (setup + run), len(plain)),
        "peak_rss_mb": (data["peak_rss_bytes"] / 2**20, 1),
        "sim_slo_rate": (sim("slo_rate"), len(groups)),
        "sim_p95_ttft_s": (sim("p95_ttft"), len(groups)),
        "sim_gpu_nodes": (sim("avg_gpu_nodes"), len(groups)),
        "ok_frac": ((len(runs) - failed) / len(runs), len(runs)),
    }


def per_layer(data):
    runs = data["runs"]
    plain = [r for r in runs if not r["traced"]]
    traced = [r for r in runs if r["traced"]]
    rep = median_run(traced)
    n = len(traced)
    ph = rep["phases"]
    c = rep["counters"]
    decide = ph["controller_decide"]
    dispatch = ph["event_dispatch"]
    memory = ph["memory_op"]
    shadow = c["shadow_runs"]
    decode = data.get("decode")
    med = statistics.median
    return {
        "core.decide_s": (decide, 1),
        "core.shadow_runs": (shadow, n),
        "core.placement_probes": (c["placement_probes"], n),
        "core.index_walk_steps": (c["index_walk_steps"], n),
        "core.pending_wakeups": (c["pending_wakeups"], n),
        "core.us_per_shadow_run": (decide / shadow * 1e6 if shadow else 0.0, 1),
        "core.shadow_runs_per_completed": (shadow / rep["completed"], n),
        "sim.dispatch_s": (dispatch, 1),
        "sim.events_fired": (c["events_fired"], n),
        "sim.events_cancelled": (c["events_cancelled"], n),
        "sim.events_rebased": (c["events_rebased"], n),
        "sim.bucket_promotions": (c["bucket_promotions"], n),
        "sim.ns_per_event": (dispatch / c["events_fired"] * 1e9, 1),
        "core.memory_s": (memory, 1),
        "core.kv_resize_ops": (c["kv_resize_ops"], n),
        "core.kv_target_changes": (c["kv_target_changes"], n),
        "core.emergency_grows": (c["emergency_grows"], n),
        "harness.setup_s": (med([r["setup_s"] for r in traced]), n),
        "harness.run_s": (rep["run_wall_s"], 1),
        "harness.run_wall_s": (med([r["run_wall_s"] for r in plain]),
                               len(plain)),
        "harness.probe_ms": (med([r["probe_ms_p50"] for r in plain]),
                             len(plain)),
        "harness.finish_s": (med([r["finish_s"] for r in traced]), n),
        "harness.advance_ms_p50": (med([r["adv_ms_p50"] for r in traced]),
                                   n * rep["advances"]),
        "harness.advance_ms_p99": (med([r["adv_ms_p99"] for r in traced]),
                                   n * rep["advances"]),
        "stream.decode_rec_per_s": (decode["records"] / decode["seconds"]
                                    if decode else 0.0,
                                    decode["passes"] if decode else 0),
        "stream.pool_high_water": (rep["pool_high_water"], n),
        "stream.replayed": (rep["replayed"], n),
        "metrics.report_json_s": (med([r["json_s"] for r in plain]), len(plain)),
        "metrics.report_bytes": (plain[0]["report_bytes"], len(plain)),
        "obs.trace_overhead": (med([r["run_s"] for r in traced]) /
                               med([r["run_s"] for r in plain]), n),
        "obs.unattributed_s": (rep["run_wall_s"] - dispatch - decide - memory,
                               1),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be nonnegative")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pinned = json.loads((HERE / "digests.json").read_text())
    bdir = build()
    log(host_line(bdir))
    binary = str(bdir / "perfbench")
    cmd = [binary, "run", f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}"]
    strc = None
    if args.workload == STRC_WORKLOAD:
        # Generated before any timing starts; never checked in.
        strc = bdir / "overload.strc"
        pack = subprocess.run([binary, "pack", f"--out={strc}"],
                              stdout=subprocess.PIPE,
                              text=True, check=True, timeout=60)
        log("overload trace:", pack.stdout.strip())
        cmd.append(f"--strc={strc}")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    finally:
        if strc:
            strc.unlink(missing_ok=True)
    if proc.returncode != 0:
        # A crash loses every run of the process.
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    data = json.loads(proc.stdout)

    failed, problems = check(data, args.workload, pinned)
    if args.trace:
        values = per_layer(data)
        listed = spec["per_layer"]
    else:
        values = end_to_end(data, failed)
        listed = spec["end_to_end"]
    assert set(values) == {m["name"] for m in listed}, "metric list drift"

    metrics = {}
    for m in listed:
        value, count = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        log(f"{args.workload:22} {m['name']:32} {value:>16.6g} "
            f"{m['unit']:6} n={count}")
    for p in problems:
        log("CHECK FAILED:", p)
    print(json.dumps({"correct": not problems, "attempted": len(data["runs"]),
                      "failed": failed, "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
