#!/usr/bin/env python3
"""End-to-end monitor benchmark: trace bytes to window verdicts.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds e2ebench (a CMake package that compiles
../src) into .bench_build/, generates the seeded corpus, runs the workload in
a child process, checks every window verdict against the batch oracle, and
prints a report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs
the traced replay beside the real system and reports the per-layer metrics.
--smoke uses a tiny corpus (two short days, the lowest ladder rate) for the
benchmark's own tests. Exit status is 0 only when every check passed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
RUNS = os.path.join(ROOT, ".bench_build", "e2ebench-runs")
SPANS = os.path.join(ROOT, ".bench_build", "e2ebench-spans")

# Open-loop rates (flows/s) of daemon_unix_paced, ascending. The first is the
# reference rate at which ingest lag is reported; the rest are spaced ~10%
# apart around today's capacity so a 10-20% gain moves the sustained rate.
LADDER = [700e3, 770e3, 850e3, 935e3, 1030e3, 1130e3, 1240e3, 1360e3, 1500e3]
# A pass during which the hypervisor took more than this share of one vCPU
# (steal time summed over the machine's CPUs, per second of the pass) timed
# the host, not the program: it is left out of the end-to-end medians.
STEAL_LIMIT = 0.05

WORKLOADS = {
    # name: corpus format, TRADEPLOT_THREADS, exact (verdicts must equal the oracle)
    "campus_v3_serial": {"format": "--cbin", "threads": 1, "exact": True},
    "campus_csv_sharded_resume": {"format": "--csv", "threads": 4, "exact": False},
    "daemon_unix_paced": {"format": "--frames", "threads": 1, "exact": True},
}

# The metric names and units are BENCHMARK.json's; this file computes them.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _spec:
    _SPEC = json.load(_spec)
END_TO_END = [(m["name"], m["unit"]) for m in _SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in _SPEC["per_layer"]]
# Layer times that only some workloads exercise: printed in the report, not
# in the JSON line (a layer a workload bypasses would read 0 ms every run).
REPORT_ONLY_LAYERS = ["route", "merge", "checkpoint_save", "checkpoint_restore", "skip",
                      "frame_parse", "data_reduction", "theta_vol", "theta_churn", "theta_hm"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def median(values):
    return statistics.median(values) if values else 0.0


def pct(values, p):
    """Floor-rank percentile of a non-empty list (the rank the ladder's rule uses)."""
    v = sorted(values)
    return v[int(p * (len(v) - 1))]


def build():
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j4", "--target", "e2ebench"],
                   check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "e2ebench")


def generate(binary, workload, seed, smoke, corpus_dir):
    cmd = [binary, "gen", "--seed", str(seed), "--out", corpus_dir, WORKLOADS[workload]["format"]]
    if smoke:
        cmd.append("--smoke")
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=120)
    # Write the corpus back now, so its page writeback does not run during
    # the measured passes.
    os.sync()
    with open(os.path.join(corpus_dir, "shape.json")) as f:
        shape = json.load(f)
    with open(os.path.join(corpus_dir, "oracle.jsonl")) as f:
        oracle = [json.loads(line) for line in f]
    return shape, oracle


def run_workload(binary, workload, corpus_dir, work_dir, seconds, trace, smoke):
    cmd = [binary, "run", "--workload", workload, "--corpus", corpus_dir,
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if workload == "daemon_unix_paced":
        # The smoke corpus is a tenth of a day; scale the rates with it.
        ladder = [LADDER[0] / 10] if smoke else LADDER
        cmd += ["--ladder", ",".join(str(int(r)) for r in ladder)]
    env = dict(os.environ, TRADEPLOT_THREADS=str(WORKLOADS[workload]["threads"]))
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, cwd=work_dir, env=env,
                         timeout=170, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


class Checks:
    """Window-verdict checks against the oracle; every window is one attempt."""

    def __init__(self, oracle, exact):
        self.oracle = {o["window"]: o for o in oracle}
        self.exact = exact
        self.attempted = 0
        self.failed = 0
        self.windows_checked = 0
        self.mismatched = 0
        self.problems = []

    def windows(self, records, label):
        """`records` are oracle-shaped dicts; daemon log lines carry only the
        host count and the plotter set, so only those are compared there."""
        if sorted(r["window"] for r in records) != sorted(self.oracle):
            self.fail(f"{label}: windows {[r['window'] for r in records]} != oracle")
            return
        for r in records:
            self.attempted += 1
            self.windows_checked += 1
            o = self.oracle[r["window"]]
            if any(r[k] != o[k] for k in r if k != "plotters") or \
                    sorted(r["plotters"]) != sorted(o["plotters"]):
                self.mismatched += 1
                if self.exact:
                    self.failed += 1
                    self.problems.append(f"{label}: window {r['window']} differs from the oracle")

    def fail(self, why):
        self.attempted += 1
        self.failed += 1
        self.problems.append(why)


def record_of_log_line(line):
    v = json.loads(line)
    return {"window": v["window_index"], "input": v["hosts"], "plotters": v["plotters"]}


def check_verdicts(raw, checks):
    """Every window of every untraced pass against the oracle."""
    for i, p in enumerate(raw["passes"]):
        checks.windows([json.loads(r) for r in p["records"]], f"pass {i}")
    for i, p in enumerate(raw["closed"] + raw["ladder"]):
        if p["completed"]:
            checks.windows([record_of_log_line(l) for l in p["lines"]], f"daemon pass {i}")


def undisturbed(passes):
    """The passes the host left alone (all of them if it disturbed every one)."""
    return [p for p in passes if p["steal_s"] <= STEAL_LIMIT * p["total_s"]] or passes


def host_report(passes):
    """How much the host took from the measured passes: a slow run with a
    high steal share or a low CPU share was slowed by the machine."""
    return {
        "host.steal_share": (median([p["steal_s"] / p["total_s"] for p in passes]), "ratio"),
        "host.cpu_per_wall": (median([p["cpu_s"] / p["total_s"] for p in passes]), "ratio"),
        "passes_left_out": (len(passes) - len(undisturbed(passes)), "count"),
    }


def end_to_end(workload, raw):
    if workload == "daemon_unix_paced":
        # Closed-loop passes only: how many ladder rungs complete depends on
        # the daemon's speed, so they would change which samples count.
        measured = raw["closed"]
        passes = undisturbed(measured)
        flows = [p["rows_sent"] / p["wall_s"] for p in passes]
        # Set-up (start until ready) comes before any load, so every pass
        # gives a sample.
        setups = [p["setup_s"] for p in undisturbed(raw["closed"] + raw["ladder"])]
        setups += raw["setup_extra"]
    else:
        measured = raw["passes"]
        passes = undisturbed(measured)
        flows = [p["flows"] / p["wall_s"] for p in passes]
        setups = [p["setup_s"] for p in passes] + raw["setup_extra"]
    closes = [c for p in passes for c in p["close_ms"]]
    if not closes:
        raise RuntimeError("no window close was measured")
    metrics = {
        "flows_per_s": median(flows),
        "window_close_ms_p50": median(closes),
        "window_close_ms_max": median([max(p["close_ms"]) for p in passes if p["close_ms"]]),
        "setup_s": median(setups),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    report = {"passes": (len(passes), "count"), "window_closes": (len(closes), "count")}
    report.update(host_report(measured))
    return metrics, report


def daemon_report(raw, checks):
    """Open-loop figures of daemon_unix_paced: lag at the reference rate and
    the highest ladder rate that holds the latency limit without a growing
    backlog (the last frame's lag is the backlog left when sending stops)."""
    ladder = raw["ladder"]
    out = {}
    sustained = max([rung["rate"] for rung in ladder if rung["sustained"]], default=0.0)
    ref = ladder[0]
    if ref["completed"]:
        out["ingest_lag_ms_p50"] = (pct(ref["lag_ms"], 0.5), "ms")
        out["ingest_lag_ms_p99"] = (pct(ref["lag_ms"], 0.99), "ms")
        out["queue.wait_ms"] = (pct(ref["wait_ms"], 0.5), "ms")
    out["sustained_flows_per_s"] = (sustained, "1/s")
    out["reference_rate"] = (ref["rate"], "1/s")
    out["ladder_frames"] = (len(ref["lag_ms"]), "count")
    late = [x for rung in ladder for x in rung["late_ms"]]
    out["loadgen.late_ms_p99"] = (pct(late, 0.99), "ms")
    out["queue.depth_max_rows"] = (ref["depth_max_rows"], "count")
    # The generator, not the daemon, fell behind: the run measures nothing.
    if out["loadgen.late_ms_p99"][0] > 5.0:
        checks.fail(f"load generator ran {out['loadgen.late_ms_p99'][0]:.2f} ms late (p99)")
    for rung in ladder:
        lags = rung["lag_ms"]
        log(f"  rung {rung['rate']:>10.0f}/s sustained={rung['sustained']} "
            f"lag p50={pct(lags, 0.5) if lags else float('nan'):.1f} "
            f"p99={pct(lags, 0.99) if lags else float('nan'):.1f} "
            f"last={lags[-1] if lags else float('nan'):.1f} ms")
    return out


def per_layer(workload, raw, checks):
    replays = raw["replays"]
    reference = raw["closed"] if workload == "daemon_unix_paced" else raw["passes"]
    for i, (rep, ref) in enumerate(zip(replays, reference)):
        if rep["lines"] != ref["lines"]:
            checks.fail(f"traced replay {i}: verdict lines differ from the untraced run")
        else:
            checks.attempted += 1
    layer_names = sorted({n for r in replays for n in r["layers"]})

    def layer(name, i):  # (total ms, self ms) of one replay
        return replays[i]["layers"].get(name, [0.0, 0.0])

    metrics, report = {}, {}
    n = len(replays)
    walls = [r["total_s"] * 1e3 for r in replays]
    selfs = [sum(layer(name, i)[1] for name in layer_names) for i in range(n)]
    counts = [r["counts"] for r in replays]
    for name, unit in PER_LAYER:
        if name.endswith(".ms") and name != "other.ms":
            v = median([layer(name[:-3], i)[0] for i in range(n)])
        elif name == "decode.ns_per_row":
            v = median([layer("decode", i)[0] * 1e6 / max(1.0, c.get("decode.rows", 0)) for i, c in enumerate(counts)])
        elif name == "other.ms":
            v = median([w - s for w, s in zip(walls, selfs)])
        elif name == "coverage":
            v = median([s / w for w, s in zip(walls, selfs)])
        elif name == "tracing_overhead":
            # A daemon pass's total also holds the daemon's shutdown.
            untraced = [(p["setup_s"] + p["wall_s"] if "rate" in p else p["total_s"]) * 1e3
                        for p in reference[:n]]
            v = median(walls) / median(untraced)
        elif name == "route.balance":
            v = median([c.get(name, 1.0) for c in counts])
        elif name == "queue.depth_max_rows":
            v = raw["ladder"][0]["depth_max_rows"] if raw["ladder"] else 0
        else:
            v = median([c.get(name, 0.0) for c in counts])
        metrics[name] = v
    for name in REPORT_ONLY_LAYERS:
        if name in layer_names:
            report[name + ".ms"] = (median([layer(name, i)[0] for i in range(n)]), "ms")
    for name in ("clustering.pivot_build_ms", "clustering.bound_scan_ms",
                 "clustering.exact_eval_ms", "clustering.replay_ms"):
        # The merged (sharded) θ_hm path collects no phase timings.
        if any(c.get(name, 0.0) for c in counts):
            report[name] = (median([c.get(name, 0.0) for c in counts]), "ms")
    if workload == "daemon_unix_paced" and raw["ladder"]:
        ref = raw["ladder"][0]
        report["queue.wait_ms"] = (pct(ref["wait_ms"], 0.5), "ms") if ref["wait_ms"] else (0.0, "ms")
        report["loadgen.late_ms_p99"] = (pct(ref["late_ms"], 0.99), "ms")
    report["traced_passes"] = (n, "count")
    return metrics, report


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny corpus for the benchmark's own tests")
    args = ap.parse_args()

    binary = build()
    run_dir = os.path.join(RUNS, f"{args.workload}-{args.seed}-{os.getpid()}")
    corpus_dir = os.path.join(run_dir, "corpus")
    work_dir = os.path.join(run_dir, "work")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(corpus_dir)
    os.makedirs(work_dir)
    try:
        t0 = time.monotonic()
        shape, oracle = generate(binary, args.workload, args.seed, args.smoke, corpus_dir)
        log(f"corpus: seed {args.seed}, {shape['flows']} flows in {shape['windows']} windows "
            f"({time.monotonic() - t0:.1f} s to generate)")
        raw = run_workload(binary, args.workload, corpus_dir, work_dir, args.seconds,
                           args.trace == 1, args.smoke)
        if args.trace:
            os.makedirs(SPANS, exist_ok=True)
            spans = os.path.join(SPANS, f"{args.workload}-seed{args.seed}.jsonl")
            shutil.copy(os.path.join(work_dir, "spans.jsonl"), spans)
            log(f"spans of the last traced pass: {spans}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    checks = Checks(oracle, WORKLOADS[args.workload]["exact"])
    check_verdicts(raw, checks)
    if args.trace:
        metrics, report = per_layer(args.workload, raw, checks)
        units = dict(PER_LAYER)
    else:
        metrics, report = end_to_end(args.workload, raw)
        units = dict(END_TO_END)
        if args.workload == "daemon_unix_paced":
            report.update(daemon_report(raw, checks))
    # Correctness figures: printed for every workload, enforced by `correct`.
    all_passes = raw["passes"] + raw["closed"] + raw["ladder"]
    sent = sum(p.get("rows_sent", p.get("flows", 0)) for p in all_passes)
    lost = sum(p.get("shed", 0) + p.get("quarantined", 0) for p in all_passes)
    report["verdict_mismatch_frac"] = (checks.mismatched / max(1, checks.windows_checked), "ratio")
    report["rows_lost_frac"] = (lost / max(1, sent), "ratio")
    if lost:
        checks.fail(f"{lost} rows shed or quarantined")

    shape_line = ", ".join(f"day {d['window']}: {d['flows']} flows, {d['internal_hosts']} hosts, "
                           f"{d['reduced_hosts']} reduced, {d['theta_hm_input']} into theta_hm, "
                           f"{d['plotters']} plotters" for d in shape["days"])
    print(f"e2ebench {args.workload} seed={args.seed} trace={args.trace}: {shape_line}")
    for name, value in metrics.items():
        print(f"  {name:<28} {value:>16.6g} {units[name]}")
    for name, (value, unit) in report.items():
        print(f"  {name:<28} {value:>16.6g} {unit}  (report only)")
    for p in checks.problems:
        print(f"  FAIL: {p}")
    correct = checks.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, checks.attempted),
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
