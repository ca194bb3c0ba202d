#!/usr/bin/env python3
"""The detection benchmark: one command, three workloads, every metric by name.

Run from the root of a source checkout:

    python3 detbench/run.py --workload scale --seed 1 --seconds 40 --trace 0
    python3 detbench/run.py --smoke

It builds detbench/worker.exe with dune, then runs closed-loop jobs, one
job per fresh worker process, for --seconds.  With --trace 0 it prints the
end-to-end metrics, with --trace 1 the per-layer metrics of a separate
traced run.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See detbench/README.md.
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
WORKER = os.path.join(ROOT, "_build", "default", "detbench", "worker.exe")
EXPECTED = os.path.join(HERE, "expected.json")
WORKLOADS = ("scale", "tx-domains", "fuzz")
JOB_TIMEOUT_S = 120

E2E_UNITS = {
    "points_per_s": "1/s",
    "verdict_s.p50": "s",
    "verdict_s.tail": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

LAYER_UNITS = {
    "ctx.pre_exec_s": "s",
    "ctx.post_exec_s": "s",
    "ctx.events_per_s": "1/s",
    "snapshot.s": "s",
    "snapshot.us_per_point": "us",
    "image.peak_mb": "MiB",
    "pm.snapshot_bytes": "bytes",
    "detector.pre_replay_s": "s",
    "detector.post_replay_s": "s",
    "detector.post_ns_per_event": "ns",
    "detector.post_minor_words_per_event": "words",
    "detector.fork_rewind_s": "s",
    "shadow.page_bytes_peak": "bytes",
    "engine.detect_s": "s",
    "engine.overhead_s": "s",
    "engine.overhead_us_per_run": "us",
    "engine.fp_elided": "count",
    "engine.post_events_per_point": "events",
    "engine.timings.pre_exec_s": "s",
    "engine.timings.post_exec_s": "s",
    "engine.timings.pre_replay_s": "s",
    "engine.timings.post_replay_s": "s",
    "engine.timings.snapshotting_s": "s",
    "lint.adr_s": "s",
    "lint.eadr_s": "s",
    "lint.cxl_gpf_s": "s",
    "lint.record_s": "s",
    "lint.events_per_s": "1/s",
    "lint.minor_words_per_event": "words",
    "fuzz.gen_s": "s",
    "fuzz.oracle_s": "s",
    "obs.metrics_cost_frac": "ratio",
    "bench.trace_overhead_frac": "ratio",
    "bench.accounted_frac": "ratio",
    "gc.minor_words_per_point": "words",
    "gc.major_collections": "count",
    "gc.top_heap_mb": "MiB",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Build the worker from the checkout's sources; False if that is impossible."""
    if not (os.path.isfile(os.path.join(ROOT, "dune-project")) and os.path.isdir(os.path.join(ROOT, "lib"))):
        log(f"detbench: {ROOT} is not a source checkout (no dune-project or lib/)")
        return False
    rc = subprocess.call(
        # No shared dune cache: the build reads and writes only the checkout.
        ["dune", "build", "--root", ROOT, "--cache=disabled", "./detbench/worker.exe"],
        cwd=ROOT,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if rc != 0 or not os.path.isfile(WORKER):
        log(f"detbench: building the worker failed (exit {rc})")
        return False
    return True


def run_job(workload, seed, size, mode, plant=False):
    """One job in a fresh worker process.  setup_s runs from spawning the
    process until it reports ready; the job itself is timed inside."""
    cmd = [WORKER, "job", "--workload", workload, "--seed", str(seed), "--size", size,
           "--mode", mode, "--expected", EXPECTED]
    if plant:
        cmd.append("--plant-wrong")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        if ready.strip() != "ready":
            raise RuntimeError(f"worker did not get ready: {ready!r}")
        out, _ = proc.communicate("go\n", timeout=JOB_TIMEOUT_S)
        rc = proc.returncode
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if rc != 0:
        raise RuntimeError(f"worker exited with {rc}: {' '.join(cmd)}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = setup_s
    return result


def run_loop(workload, seed, size, seconds, modes):
    """Closed loop: one job at a time, cycling through [modes], until
    [seconds] have passed (at least one job of each mode)."""
    run_job(workload, seed, "tiny", modes[0])  # warm-up: binary and inputs in the page cache
    jobs = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(jobs) < len(modes):
        mode = modes[len(jobs) % len(modes)]
        job = run_job(workload, seed, size, mode)
        job["mode"] = mode
        jobs.append(job)
    return jobs


def tail(values):
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile); the maximum when there are ten samples or fewer."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def end_to_end(jobs):
    walls = [j["wall_s"] for j in jobs]
    tail_s, tail_pct = tail(walls)
    log(f"detbench: verdict_s.tail is p{tail_pct:.0f} of {len(walls)} jobs "
        f"({sum(w > tail_s for w in walls)} beyond it)")
    return {
        "points_per_s": sum(j["points"] for j in jobs) / sum(walls),
        "verdict_s.p50": statistics.median(walls),
        "verdict_s.tail": tail_s,
        "peak_rss_mb": statistics.median(j["rss_kb"] for j in jobs) / 1024.0,
        "setup_s": statistics.median(j["setup_s"] for j in jobs),
    }


def per_layer(jobs):
    def med(mode, f):
        return statistics.median(f(j) for j in jobs if j["mode"] == mode)

    def layer(mode, name):
        return med(mode, lambda j: j["layers"].get(name, 0.0))

    def ratio(mode, num, den):
        return med(mode, lambda j: j["layers"].get(num, 0.0) / max(j["layers"].get(den, 0.0), 1e-12))

    m = {}
    for name in ("ctx.pre_exec_s", "ctx.post_exec_s", "snapshot.s", "detector.pre_replay_s",
                 "detector.post_replay_s", "detector.fork_rewind_s", "shadow.page_bytes_peak",
                 "engine.fp_elided", "lint.adr_s", "lint.eadr_s", "lint.cxl_gpf_s", "lint.record_s",
                 "fuzz.gen_s", "fuzz.oracle_s", "pm.snapshot_bytes"):
        m[name] = layer("redrive", name)
    m["ctx.events_per_s"] = med("redrive", lambda j: j["layers"]["ctx.events"] / (
        j["layers"]["ctx.pre_exec_s"] + j["layers"]["ctx.post_exec_s"]))
    m["snapshot.us_per_point"] = med("redrive", lambda j: 1e6 * j["layers"]["snapshot.s"] / j["points"])
    m["image.peak_mb"] = layer("redrive", "image.peak_bytes") / 2**20
    m["detector.post_ns_per_event"] = 1e9 * ratio("redrive", "detector.post_replay_s", "detector.post_events")
    m["detector.post_minor_words_per_event"] = ratio("redrive", "detector.post_replay_s.words", "detector.post_events")
    lint_s = ("lint.adr_s", "lint.eadr_s", "lint.cxl_gpf_s")
    m["lint.events_per_s"] = med("redrive", lambda j: j["layers"]["lint.events"] / sum(j["layers"][k] for k in lint_s))
    m["lint.minor_words_per_event"] = med("redrive", lambda j: sum(
        j["layers"][k + ".words"] for k in lint_s) / j["layers"]["lint.events"])
    for name in ("engine.detect_s", "engine.timings.pre_exec_s", "engine.timings.post_exec_s",
                 "engine.timings.pre_replay_s", "engine.timings.post_replay_s",
                 "engine.timings.snapshotting_s"):
        m[name] = layer("engine", name)
    # Paired rounds: engine processes time Obs on, Obs off and the re-driven
    # layers back to back on the same cases (see worker.ml).
    pairs = [j["layers"] for j in jobs if j["mode"] == "engine"]
    on, off, layers = (sum(p[k] for p in pairs) for k in ("pairs.obs_on_s", "pairs.obs_off_s", "pairs.layers_s"))
    runs = med("engine", lambda j: j["runs"])
    m["engine.overhead_s"] = (on - layers) / len(pairs)
    m["engine.overhead_us_per_run"] = 1e6 * m["engine.overhead_s"] / runs
    m["engine.post_events_per_point"] = med("engine", lambda j: j["post_events"] / max(j["points"], 1))
    m["obs.metrics_cost_frac"] = on / off - 1.0
    m["bench.trace_overhead_frac"] = layer("redrive", "bench.trace_overhead_frac")
    m["bench.accounted_frac"] = med("redrive", lambda j: j["layers"]["bench.job_spans_s"] / j["wall_s"])
    m["gc.minor_words_per_point"] = med("engine", lambda j: j["layers"]["gc.minor_words"] / max(j["points"], 1))
    m["gc.major_collections"] = layer("engine", "gc.major_collections")
    m["gc.top_heap_mb"] = layer("engine", "gc.top_heap_bytes") / 2**20
    return m


def measure(workload, seed, seconds, trace, size="full"):
    """Run one workload; returns (result object, verdict list)."""
    modes = ["engine", "redrive"] if trace else ["plain"]
    jobs = run_loop(workload, seed, size, seconds, modes)
    values = per_layer(jobs) if trace else end_to_end(jobs)
    units = LAYER_UNITS if trace else E2E_UNITS
    # The same seed gives the same inputs, so every job, whatever its mode,
    # must reach the same verdicts.
    verdicts = jobs[0]["verdicts"]
    consistent = all(j["verdicts"] == verdicts for j in jobs)
    if not consistent:
        log("detbench: jobs of one run reached different verdicts")
    for j in jobs:
        for f in j["failures"][:3]:
            log(f"detbench: wrong verdict: {f}")
    attempted = sum(j["attempted"] for j in jobs)
    failed = sum(j["failed"] for j in jobs)
    result = {
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    return result, verdicts


def smoke():
    """Each workload at tiny size, untraced and traced: every metric present
    with its unit, identical verdicts, and a planted wrong expected answer
    detected.  The traced run aborts if the re-driven fingerprint differs."""
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    want_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    for w in WORKLOADS:
        plain, v_plain = measure(w, 1, 0.5, False, size="tiny")
        traced, v_traced = measure(w, 1, 0.5, True, size="tiny")
        for result, want in ((plain, want_e2e), (traced, want_layer)):
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{w}: metrics {sorted(got.items())} != {sorted(want.items())}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{w}: a tiny run failed: {result['failed']} of {result['attempted']}")
        if v_plain != v_traced:
            problems.append(f"{w}: traced and untraced verdicts differ")
        planted = run_job(w, 1, "tiny", "plain", plant=True)
        if not (planted["attempted"] > 0 and planted["failed"] == planted["attempted"]):
            problems.append(f"{w}: a planted wrong answer went unnoticed "
                            f"({planted['failed']} of {planted['attempted']} failed)")
        log(f"detbench smoke: {w} done")
    for p in problems:
        log(f"detbench smoke: FAIL {p}")
    print(json.dumps({"smoke": "fail" if problems else "ok", "problems": len(problems)}))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="run the benchmark's own tests")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")
    if not build():
        return 2
    if args.smoke:
        return smoke()
    result, _ = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
