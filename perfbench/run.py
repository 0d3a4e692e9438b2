#!/usr/bin/env python3
"""Simulator benchmark: build the workload runner, run repetitions, reduce.

Run from the repository root:

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 30 --trace 0

Builds perfbench/main.exe with dune, then runs repetitions of the workload
until --seconds of wall time have passed (at least three). Every
repetition is a fresh process: a fresh heap and an empty process-wide
signature cache. With --trace 0 it prints the end-to-end metrics: it
also runs set-up-only repetitions, so that setup_s is the median of many
set-ups spread over the run, times the reference computation of
calibrate.ml before and after every repetition, and reports each
repetition's host times at the reference speed (CAL_REF_S). With --trace 1 it alternates untraced and traced
repetitions and prints every per-layer metric of BENCHMARK.json. The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

Checks: every repetition's own output checks pass, the repetitions give
identical simulated digests, allocation per op and set-up allocation, a traced
repetition gives the untraced digest, and on the canonical seed the digest
equals the one recorded in perfbench/RESULTS.json.
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
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
TRACE_DIR = os.path.join(ROOT, "_perfbench")
RESULTS = os.path.join(HERE, "RESULTS.json")
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")

WORKLOADS = ["campaign", "churn", "transfer", "probe"]
CANONICAL_SEED = 1
MIN_REPS = 3
MAX_REPS = 60
# Share of the whole repetitions' time spent on set-up-only repetitions and
# calibrations.
AUX_SHARE = 0.2
MAX_SETUPS = 400
# Seconds the fixed reference computation (perfbench/calibrate.ml) takes on
# the reference host. Host times are reported at this speed.
CAL_REF_S = 0.05
REP_TIMEOUT_S = 120
BUILD_TIMEOUT_S = 850

SPAN_FIELDS = [("calls", "count"), ("self_s", "s"), ("p50_us", "us"), ("p99_us", "us"),
               ("words", "words")]


def counter_unit(name):
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("bytes_per_as"):
        return "B"
    return "count"


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    try:
        r = subprocess.run([dune, "build", "--root", ROOT, "./perfbench/main.exe"], cwd=ROOT,
                           stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                           timeout=BUILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(r.stderr.decode(errors="replace")[-4000:])
        fail("build failed")


def rep(workload, seed, traced, trace_out=None, setup_only=False):
    """One repetition in its own process; None when it crashed."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--trace", "1" if traced else "0"]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    if setup_only:
        cmd.append("--setup-only")
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           timeout=REP_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: repetition timed out", file=sys.stderr)
        return None
    lines = r.stdout.decode(errors="replace").strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stderr.decode(errors="replace")[-2000:])
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def calibrate():
    """Seconds of the reference computation, timed in its own process."""
    try:
        r = subprocess.run([EXE, "--calibrate"], cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, timeout=REP_TIMEOUT_S, check=False)
        return float(json.loads(r.stdout)["calibrate_s"]) if r.returncode == 0 else None
    except (subprocess.TimeoutExpired, ValueError, KeyError):
        return None


def median(xs):
    return statistics.median(xs) if xs else 0.0


def canonical_digest(workload):
    try:
        with open(RESULTS) as f:
            return json.load(f)["workloads"][workload]["canonical_digest"]
    except (OSError, ValueError, KeyError):
        return None


def manifest_metrics(traced_mode):
    """Metric names and units the result line must hold, from BENCHMARK.json."""
    try:
        with open(MANIFEST) as f:
            listed = json.load(f)["per_layer" if traced_mode else "end_to_end"]
        return {m["name"]: m["unit"] for m in listed}
    except (OSError, ValueError, KeyError, TypeError):
        fail("cannot read the metric list from BENCHMARK.json")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    traced_mode = args.trace == 1
    wanted = manifest_metrics(traced_mode)
    build()
    plain, traced, setups, cals, crashed = [], [], [], [], 0
    plain_wall = aux_wall = 0.0
    deadline = time.monotonic() + args.seconds
    trace_file = None
    if traced_mode:
        os.makedirs(TRACE_DIR, exist_ok=True)
        trace_file = os.path.join(TRACE_DIR, "trace-%s.tsv" % args.workload)

    def calibrated():
        """Time the reference computation once more; False when it crashed."""
        nonlocal aux_wall
        t = time.monotonic()
        c = calibrate()
        aux_wall += time.monotonic() - t
        if c is not None:
            cals.append(c)
        return c is not None

    # Untraced repetitions alternate with calibrations, so each one lies
    # between two; r["cal"] is the index of the one before it.
    if not traced_mode and not calibrated():
        crashed += 1
    while not crashed:
        prev = len(cals) - 1
        t = time.monotonic()
        r = rep(args.workload, args.seed, False)
        plain_wall += time.monotonic() - t
        if r is None or (not traced_mode and not calibrated()):
            crashed += 1
            break
        r["cal"] = prev
        plain.append(r)
        while (not traced_mode and len(setups) < MAX_SETUPS
               and aux_wall < AUX_SHARE * plain_wall and time.monotonic() < deadline):
            prev = len(cals) - 1
            t = time.monotonic()
            r = rep(args.workload, args.seed, False, setup_only=True)
            aux_wall += time.monotonic() - t
            if r is None or not calibrated():
                crashed += 1
                break
            r["cal"] = prev
            setups.append(r)
        if traced_mode:
            r = rep(args.workload, args.seed, True, trace_file if not traced else None)
            if r is None:
                crashed += 1
            else:
                traced.append(r)
        n = len(plain)
        if (n >= MIN_REPS and time.monotonic() >= deadline) or n >= MAX_REPS:
            break

    reps = plain + traced
    attempted = sum(r["ops"] for r in reps) + crashed
    failed = sum(r["failed"] for r in reps) + crashed
    problems = []
    if crashed:
        problems.append("%d repetition(s) crashed or timed out" % crashed)
    for r in reps:
        if r["raised"]:
            problems.append("repetition raised: " + r["raised"])
    if plain:
        ref = plain[0]
        if any(r["digest"] != ref["digest"] for r in reps):
            problems.append("digest differs between repetitions (traced ones included)")
            failed = attempted
        if any(r["measure_words"] != ref["measure_words"] or r["ops"] != ref["ops"] for r in plain):
            problems.append("alloc_words_per_op differs between repetitions")
        if any(r["setup_words"] != ref["setup_words"] for r in plain + setups):
            problems.append("set-up allocation differs between repetitions")
        want = canonical_digest(args.workload) if args.seed == CANONICAL_SEED else ref["digest"]
        if ref["digest"] != want:
            problems.append("canonical-seed digest %s != recorded %s" % (ref["digest"], want))
            failed = attempted
    failed = min(failed, attempted)
    if failed:
        problems.append("%d of %d ops failed" % (failed, attempted))

    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    raw = {}
    if not traced_mode and plain and cals:
        mb = 1024.0 * 1024.0

        def speed(r):
            # Host times at the reference speed: a repetition is scaled by
            # how much slower or faster than the reference the calibrations
            # either side of it ran. The host's speed moves within seconds,
            # so these track it closer than one median over the run.
            return CAL_REF_S / ((cals[r["cal"]] + cals[r["cal"] + 1]) / 2)

        raw = {"setup_s": median([r["setup_s"] for r in plain + setups]),
               "total_s": median([r["setup_s"] + r["measure_s"] for r in plain]),
               "ops_per_s": median([r["ops"] / r["measure_s"] for r in plain])}
        put("setup_s", median([r["setup_s"] * speed(r) for r in plain + setups]), "s")
        put("total_s", median([(r["setup_s"] + r["measure_s"]) * speed(r) for r in plain]), "s")
        put("ops_per_s", median([r["ops"] / r["measure_s"] / speed(r) for r in plain]), "1/s")
        put("alloc_words_per_op", plain[0]["measure_words"] / max(1, plain[0]["ops"]), "words")
        put("setup_alloc_mwords", median([r["setup_words"] for r in plain]) / 1e6, "Mwords")
        put("peak_heap_mb", median([r["top_heap_words"] * r["word_bytes"] / mb for r in plain]),
            "MB")
    elif traced_mode and traced and plain:
        for span in traced[0]["spans"]:
            for field, unit in SPAN_FIELDS:
                put("%s.%s" % (span, field), median([r["spans"][span][field] for r in traced]), unit)
        counters = traced[0]["counters"]
        for name, value in counters.items():
            put(name, value, counter_unit(name))
        plain_s = median([r["measure_s"] for r in plain])
        traced_s = median([r["measure_s"] for r in traced])
        put("netsim.events_per_s", counters["netsim.events"] / plain_s, "1/s")
        # Every per-layer metric prints on every workload. A layer the
        # workload does not drive reads 0: a span with no calls, a counter
        # with nothing counted, a ratio over an empty base.
        hops = counters["dataplane.router_hops"]
        probe_s = metrics["dataplane.scmp_probe.self_s"]["value"]
        put("dataplane.ns_per_hop", probe_s * 1e9 / hops if hops else 0.0, "ns")
        put("trace.overhead_ratio", traced_s / plain_s, "ratio")
        put("trace.unattributed_share",
            median([(r["measure_s"] - r["attributed_s"]) / r["measure_s"] for r in traced]),
            "ratio")

    for name, unit in wanted.items():
        if metrics.get(name, {}).get("unit") != unit:
            problems.append("metric %s in %s missing from the result" % (name, unit))
    for name in metrics:
        if name not in wanted:
            problems.append("metric %s is not listed in BENCHMARK.json" % name)

    if plain:
        ref = plain[0]
        print("workload %s seed %d: %d untraced + %d traced repetitions of %d %s, %d set-ups alone"
              % (args.workload, args.seed, len(plain), len(traced), ref["size"], ref["size_unit"],
                 len(setups)))
        print("input: " + ", ".join("%s=%s" % kv for kv in sorted(ref["input"].items())))
        print("digest %s" % ref["digest"])
    if raw:
        print("host: calibration median %.6g s over %d (reference %g s); as timed on this host: %s"
              % (median(cals), len(cals), CAL_REF_S,
                 ", ".join("%s %.6g" % kv for kv in sorted(raw.items()))))
    print("fail_ratio %.6g (%d of %d ops)" % (failed / max(1, attempted), failed, attempted))
    for p in problems:
        print("check failed: " + p)
    for name, m in metrics.items():
        print("%-40s %14.6g %s" % (name, m["value"], m["unit"]))
    if trace_file and traced:
        print("spans written to " + os.path.relpath(trace_file, ROOT))
    print(json.dumps({"correct": not problems and bool(plain), "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
