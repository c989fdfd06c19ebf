#!/usr/bin/env python3
"""The MPI-RICAL benchmark: one command that builds, makes the fixture, runs a
workload, checks its outputs and prints every metric by name with its unit.

    python3 benchmark/run.py --workload assist --seed 1 --seconds 15 --trace 0
    python3 benchmark/run.py sweep --runs 10 --first-seed 1 --out set.json
    python3 benchmark/run.py compare benchmark/results/baseline.json#first set.json
    python3 benchmark/run.py selftest

Run it from the root of the repository. Everything it builds and writes goes
under build/bench/ there. The metric names, units and bounds come from
BENCHMARK.json; benchmark/README.md explains each of them.

`compare` exits with 0 when every row is "better" or "no worse", 1 when any
row is "worse", 4 when none is worse but some workload is not comparable, and
3 when the rest hold but some row is "unresolved".
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join("build", "bench")  # relative: socket paths stay short
CMAKE_DIR = os.path.join(BUILD, "cmake")
FIXTURE = os.path.join(BUILD, "fixture")
RUNS = os.path.join(BUILD, "runs")
HARNESS = os.path.join(CMAKE_DIR, "mpirical_bench")
WORKLOADS = ["assist", "serve_saturate", "corpus_eval", "corpus_eval_sharded"]
# Layers whose self time each traced pass attributes (see the spans written
# by benchmark/harness/*_workloads.cpp).
TRACE_LAYERS = {
    "assist": ["core", "serve"],
    "serve_saturate": ["serve"],
    "corpus_eval": ["core", "nn", "metrics"],
    "corpus_eval_sharded": ["shard", "snapshot"],
}
RUN_LIMIT_S = 175  # a run must end within 180 s once built


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---- configuration ----------------------------------------------------------


def load_config():
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        return json.load(f)


def sut_env():
    """The environment every process under test gets: no inherited
    MPIRICAL_* knob, three pool workers (plus the calling or engine thread,
    four cores), the default decode wave, temporary files inside the
    checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("MPIRICAL_")}
    env["MPIRICAL_THREADS"] = "3"
    env["TMPDIR"] = os.path.join(ROOT, BUILD, "tmp")
    return env


# ---- build and fixture ------------------------------------------------------


def run_logged(cmd, timeout):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, timeout=timeout)
    if proc.returncode != 0:
        log(proc.stdout[-4000:])
        raise BenchError("command failed: " + " ".join(cmd))


def ensure_built():
    for needed in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise BenchError("not a full checkout: %s is missing" % needed)
    os.makedirs(os.path.join(ROOT, BUILD, "tmp"), exist_ok=True)
    with open(os.path.join(ROOT, BUILD, "lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(ROOT, CMAKE_DIR, "CMakeCache.txt")):
            cmd = ["cmake", "-S", "benchmark", "-B", CMAKE_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            log("[build] configuring")
            run_logged(cmd, 600)
        run_logged(["cmake", "--build", CMAKE_DIR, "--target", "mpirical_bench",
                    "-j", "4"], 800)
        # The fixture is trained by this build's library: retrain whenever
        # the harness binary changes.
        with open(os.path.join(ROOT, HARNESS), "rb") as f:
            stamp = hashlib.sha256(f.read()).hexdigest()
        stamp_path = os.path.join(ROOT, FIXTURE, "stamp")
        have = None
        if os.path.exists(stamp_path):
            with open(stamp_path) as f:
                have = f.read().strip()
        if have != stamp:
            log("[build] training the fixture (1 epoch)")
            os.makedirs(os.path.join(ROOT, FIXTURE), exist_ok=True)
            proc = subprocess.run([HARNESS, "fixture", FIXTURE], cwd=ROOT,
                                  env=sut_env(), timeout=600)
            if proc.returncode != 0:
                raise BenchError("fixture build failed")
            with open(stamp_path, "w") as f:
                f.write(stamp + "\n")


def harness(args, out_dir, deadline):
    """Runs the harness in its own process group, so a timeout can stop it
    together with any daemon or shard worker it started."""
    shutil.rmtree(os.path.join(ROOT, out_dir), ignore_errors=True)
    os.makedirs(os.path.join(ROOT, out_dir))
    cmd = [HARNESS] + args + ["--fixture", FIXTURE, "--out", out_dir]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=sut_env(),
                            stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError("timed out: " + " ".join(args))
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stragglers, if any
        except ProcessLookupError:
            pass
    if code != 0:
        raise BenchError("harness failed (exit %d): %s" % (code, " ".join(args)))
    with open(os.path.join(ROOT, out_dir, "result.json")) as f:
        return json.load(f)


def selftest_all():
    proc = subprocess.run([HARNESS, "selftest"], cwd=ROOT, env=sut_env(),
                          timeout=60)
    if proc.returncode != 0:
        raise BenchError("harness self-test failed")
    python_selftest()


# ---- statistics -------------------------------------------------------------


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (
        values[0], values[0], values[0])
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "values": values}


def spread(s):
    return (s["q3"] - s["q1"]) / abs(s["median"]) if s["median"] else math.inf


# ---- trace attribution ------------------------------------------------------


def self_times(spans):
    """Self time of every span: its duration minus the time its children
    cover. Where spans of different requests overlap, each instant is shared
    equally by the innermost spans running then, so the self times of a
    pass add up to exactly the time some span covers."""
    byid = {s["id"]: s for s in spans}
    events = []
    for s in spans:
        events.append((s["start_ns"], 1, s["id"]))
        events.append((s["end_ns"], 0, s["id"]))
    events.sort()  # at equal times, ends (0) before starts (1)
    active = set()
    open_children = defaultdict(int)
    out = defaultdict(float)
    prev = None
    for t, is_start, sid in events:
        if prev is not None and t > prev and active:
            leaves = [a for a in active if open_children[a] == 0]
            share = (t - prev) / 1e6 / len(leaves)
            for a in leaves:
                out[a] += share
        prev = t
        parent = byid[sid]["parent"]
        if is_start:
            active.add(sid)
            if parent in byid:
                open_children[parent] += 1
        else:
            active.discard(sid)
            if parent in byid:
                open_children[parent] -= 1
    return out


def attribute(spans, derived):
    """Per-layer self time (ms) of one pass, its wall time, and the part of
    the wall no layer covers. A derived child (a recorder phase known only as
    a total, run inside its parent on the parent's thread) moves its time
    from the parent's self time to its own layer."""
    selfs = self_times(spans)
    layers = defaultdict(float)
    for d in derived:
        moved = min(d["ms"], selfs[d["parent"]])
        selfs[d["parent"]] -= moved
        layers[d["layer"]] += moved
    wall = unattributed = 0.0
    for s in spans:
        if s["layer"] == "pass":
            wall += (s["end_ns"] - s["start_ns"]) / 1e6
            unattributed += selfs[s["id"]]
        else:
            layers[s["layer"]] += selfs[s["id"]]
    return dict(layers), wall, unattributed


def python_selftest():
    def expect(ok, what):
        if not ok:
            raise BenchError("self-test failed: " + what)

    s = summarize([float(v) for v in range(1, 11)])
    expect((s["q1"], s["median"], s["q3"]) == (2.75, 5.5, 8.25),
           "quartiles of 1..10")

    def sp(i, parent, layer, a, b):
        return {"id": i, "parent": parent, "layer": layer,
                "start_ns": a * 1000000, "end_ns": b * 1000000}

    # Nested, one request: pass [0,100] > x [10,60] > y [20,30]; y [70,90].
    nested = [sp(1, 0, "pass", 0, 100), sp(2, 1, "x", 10, 60),
              sp(3, 2, "y", 20, 30), sp(4, 1, "y", 70, 90)]
    layers, wall, rest = attribute(nested, [])
    expect(layers == {"x": 40.0, "y": 30.0} and wall == 100.0 and rest == 30.0,
           "nested self times")
    # Overlapping requests share the overlap: x [0,10] and y [5,15].
    layers, wall, rest = attribute(
        [sp(1, 0, "pass", 0, 20), sp(2, 1, "x", 0, 10), sp(3, 1, "y", 5, 15)],
        [])
    expect(layers == {"x": 7.5, "y": 7.5} and rest == 5.0, "shared overlap")
    # A derived child moves its total out of its parent.
    layers, wall, rest = attribute(
        [sp(1, 0, "pass", 0, 50), sp(2, 1, "core", 0, 40)],
        [{"parent": 2, "layer": "nn", "ms": 30.0}])
    expect(layers == {"core": 10.0, "nn": 30.0} and rest == 10.0,
           "derived child")
    expect(abs(sum(layers.values()) + rest - wall) < 1e-9, "reconciliation")

    # Verdicts, lower is better, bound 0.25.
    a = summarize([100.0 + i for i in range(10)])
    b = summarize([80.0 + i for i in range(10)])
    expect(verdict(a, b, "lower", 0.25)[0] == "better", "10/10 wins is better")
    eight = summarize([80.0 + i for i in range(8)] + [120.0, 130.0])
    expect(verdict(a, eight, "lower", 0.25)[0] == "no worse",
           "8/10 wins is not better")
    wide = summarize([60.0, 140.0] * 5)
    expect(verdict(a, wide, "lower", 0.25)[0] == "unresolved",
           "a spread over the bound is unresolved")
    slow = summarize([150.0 + i for i in range(10)])
    expect(verdict(wide, slow, "lower", 0.25)[0] == "worse",
           "all runs slower is worse even when spread")


# ---- one run ----------------------------------------------------------------


def git_rev():
    """HEAD of the repository the benchmark runs in, if it is one (and not a
    tree exported into some other repository's working copy)."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=10)
    except OSError:
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2:
        return None
    return lines[1] if os.path.realpath(lines[0]) == os.path.realpath(ROOT) else None


def source_digest():
    """sha256 over the sources the benchmark builds, which identifies a
    build where there is no git repository (an exported source tree)."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "bench", "benchmark"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if not f.endswith(".pyc"))
        for p in files:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def metric_line(name, value, unit):
    return "  %-48s %14.6g %s" % (name, value, unit)


def read_stats(path):
    """The daemon's recorder dump: its last JSON line."""
    if not os.path.exists(path):
        raise BenchError("the daemon wrote no recorder dump: " + path)
    with open(path) as f:
        lines = [l for l in f if l.strip()]
    return json.loads(lines[-1])


def serve_layers(workload, stats, out):
    ph = stats.get("phases", {})

    def total(path):
        return ph.get(path, {}).get("total_ms", 0.0)

    wait = ph.get("serve/queue_wait", {"count": 0, "total_ms": 0.0, "max_ms": 0.0})
    out[workload + ".serve.queue_wait_ms.mean"] = (
        wait["total_ms"] / wait["count"] if wait["count"] else 0.0)
    out[workload + ".serve.queue_wait_ms.max"] = wait["max_ms"]
    if workload == "serve_saturate":
        out["serve.wave_occupancy.max"] = stats.get("gauges", {}).get(
            "serve/wave_occupancy", {}).get("max", 0.0)
        out["serve.encode_ms.total"] = total("serve/encode")
        out["serve.decode_steps_ms.total"] = total("serve/decode_steps")
        out["serve.result_write_ms.total"] = total("serve/result_write")


def read_spans(path):
    spans, derived = [], []
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            (spans if rec["kind"] == "span" else derived).append(rec)
    return spans, derived


def traced_run(seed, deadline, errors):
    """Every workload once, untraced then traced (fixed short passes), then
    the layer probe. Returns the per-layer metrics and the run's totals."""
    layers = {}
    attempted = failed = 0
    report = []
    all_spans = []
    for w in WORKLOADS:
        base = os.path.join(RUNS, "trace-%s-%d" % (w, seed))
        plain = harness(["run", w, "--seed", str(seed), "--short"],
                        base + "-untraced", deadline)
        traced = harness(["run", w, "--seed", str(seed), "--short", "--traced"],
                         base, deadline)
        for res in (plain, traced):
            attempted += res["attempted"]
            failed += res["failed"]
            errors.extend(res["errors"])
        layers.update(traced["layers"])
        if w in ("assist", "serve_saturate"):
            serve_layers(w, read_stats(os.path.join(ROOT, base,
                                                    "daemon_stats.jsonl")),
                         layers)
        spans, derived = read_spans(os.path.join(ROOT, base, "spans.jsonl"))
        all_spans += [dict(s, workload=w) for s in spans + derived]
        by_layer, wall, rest = attribute(spans, derived)
        for layer in TRACE_LAYERS[w]:
            layers["%s.self_ms.%s" % (w, layer)] = by_layer.get(layer, 0.0)
        layer_sum = sum(by_layer.values())
        overhead = traced["unit_ms_mean"] - plain["unit_ms_mean"]
        layers[w + ".trace.layer_sum_ms"] = layer_sum
        layers[w + ".trace.wall_ms"] = wall
        layers[w + ".trace.unattributed_ms"] = rest
        layers[w + ".trace.overhead_ms"] = overhead
        report.append(
            "reconcile %-20s layers %10.1f ms + unattributed %8.1f ms = wall "
            "%10.1f ms (%s); tracing overhead %+.2f ms per unit (%+.1f%%)" % (
                w, layer_sum, rest, wall,
                ", ".join("%s %.1f" % kv for kv in sorted(by_layer.items())),
                overhead, 100.0 * overhead / plain["unit_ms_mean"]))
    probe = harness(["probe", "--seed", str(seed)],
                    os.path.join(RUNS, "trace-probe-%d" % seed), deadline)
    layers.update(probe["layers"])
    errors.extend(probe["errors"])
    with open(os.path.join(ROOT, RUNS, "trace.jsonl"), "w") as f:
        for s in all_spans:
            f.write(json.dumps(s) + "\n")
    log(probe["record"]["gemm_table"])
    return layers, attempted, failed, report


def run_once(args, config):
    deadline = time.monotonic() + RUN_LIMIT_S
    errors = []
    if args.trace:
        values, attempted, failed, report = traced_run(args.seed, deadline,
                                                       errors)
        declared = config["per_layer"]
        record = {}
    else:
        out_dir = os.path.join(RUNS, "%s-%d" % (args.workload, args.seed))
        res = harness(["run", args.workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds)], out_dir, deadline)
        values, attempted, failed = res["e2e"], res["attempted"], res["failed"]
        errors.extend(res["errors"])
        report = ["%s = %.6g" % kv for kv in sorted(res["layers"].items())]
        declared = config["end_to_end"]
        record = res["record"]
    record.update({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "git_rev": git_rev(), "source": source_digest()})

    metrics = {}
    for m in declared:
        v = values.get(m["name"])
        if v is None or not math.isfinite(v):
            errors.append("metric %s was not measured" % m["name"])
            continue
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    print("workload %s  seed %d  %s" % (
        args.workload, args.seed, "traced" if args.trace else
        "%g s" % args.seconds))
    for m in declared:
        if m["name"] in metrics:
            print(metric_line(m["name"], metrics[m["name"]]["value"], m["unit"]))
    for line in report:
        print("  " + line)
    print("failed/attempted %d/%d" % (failed, attempted))
    for e in errors:
        print("CHECK FAILED: " + e)
    print("record: " + json.dumps(record, sort_keys=True))
    result = {"correct": not errors and failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    summary_dir = os.path.join(ROOT, RUNS, "summaries")
    os.makedirs(summary_dir, exist_ok=True)
    with open(os.path.join(summary_dir, "%s-%d-%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump({"result": result, "record": record}, f)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


# ---- sweep and compare ------------------------------------------------------


def sweep(args, config):
    """Runs each workload --runs times in a row, each time with the next
    seed, and writes per (metric, workload): median, quartiles, count."""
    results = defaultdict(lambda: defaultdict(list))
    records = defaultdict(list)
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    for w in workloads:
        for r in range(args.runs):
            seed = args.first_seed + r
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", w,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", "0"]
            t0 = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            line = proc.stdout.strip().splitlines()[-1] if proc.stdout else "{}"
            res = json.loads(line) if line.startswith("{") else {}
            if proc.returncode != 0 or not res.get("correct"):
                raise BenchError("run failed: " + " ".join(cmd[2:]))
            with open(os.path.join(ROOT, RUNS, "summaries",
                                   "%s-%d-0.json" % (w, seed))) as f:
                records[w].append(json.load(f)["record"])
            for name, m in res["metrics"].items():
                results[w][name].append(m["value"])
            log("[sweep] %s seed %d: %.1f s" % (w, seed, time.monotonic() - t0))
    out = {"seconds": args.seconds, "first_seed": args.first_seed,
           "runs": args.runs, "results": {}, "records": records}
    for w in workloads:
        out["results"][w] = {n: summarize(v) for n, v in results[w].items()}
    print_set(out, config)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(out, f, indent=1, sort_keys=True)
    return 0


def print_set(s, config):
    print("%-20s %-18s %12s %12s %12s %3s %8s %6s" % (
        "workload", "metric", "median", "q1", "q3", "n", "spread", "bound"))
    for w, metrics in s["results"].items():
        for m in config["end_to_end"]:
            st = metrics.get(m["name"])
            if st is None:
                continue
            print("%-20s %-18s %12.6g %12.6g %12.6g %3d %7.2f%% %5.0f%%" % (
                w, m["name"], st["median"], st["q1"], st["q3"], st["n"],
                100 * spread(st), 100 * m["bound"]))


def load_set(spec):
    path, _, name = spec.partition("#")
    with open(path) as f:
        data = json.load(f)
    if "sets" in data:
        data = data["sets"][name or sorted(data["sets"])[0]]
    return data


# Record fields that must agree for two sets to be comparable: the fixture,
# the outputs it produces, and the machine and build configuration.
COMPARABLE = ["fixture_fnv", "quality_bits", "outputs_fnv", "nn_tokens",
              "nproc", "cpu", "mpirical_env", "wave", "cxx_flags", "seed",
              "seconds"]


def comparable(a, b, w):
    ra, rb = a["records"].get(w, []), b["records"].get(w, [])
    key = lambda r: r["seed"]
    ra, rb = sorted(ra, key=key), sorted(rb, key=key)
    if len(ra) != len(rb):
        return ["different number of runs"]
    diffs = set()
    for x, y in zip(ra, rb):
        for f in COMPARABLE:
            if x.get(f) != y.get(f):
                diffs.add(f)
    return sorted(diffs)


def verdict(sa, sb, better, bound):
    """Runs are paired by seed (both sets run the same seeds in order).
    "better" needs B to win at least 9 of 10 pairs, ties counting for
    neither, and B's median to beat A's by more than A's spread. A spread
    wider than the bound leaves a row "unresolved" unless every run of one
    set reads better than every run of the other."""
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (sb["median"] - sa["median"]) / abs(sa["median"])
    pairs = list(zip(sa["values"], sb["values"]))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    if 10 * wins >= 9 * len(pairs) and -change > spread(sa):
        return "better", change
    b_all_better = all(sign * (y - x) < 0
                       for x in sa["values"] for y in sb["values"])
    b_all_worse = all(sign * (y - x) > 0
                      for x in sa["values"] for y in sb["values"])
    if max(spread(sa), spread(sb)) > bound and not (b_all_better or
                                                    b_all_worse):
        return "unresolved", change
    if change > bound:
        return "worse", change
    return "no worse", change


def compare(args, config):
    a, b = load_set(args.a), load_set(args.b)
    print("%-20s %-18s %12s %8s %12s %8s %6s %8s  %s" % (
        "workload", "metric", "A median", "A IQR", "B median", "B IQR",
        "bound", "change", "verdict"))
    seen = set()
    for w in a["results"]:
        if w not in b["results"]:
            continue
        diffs = comparable(a, b, w)
        for m in config["end_to_end"]:
            sa, sb = a["results"][w].get(m["name"]), b["results"][w].get(m["name"])
            if sa is None or sb is None:
                continue
            v, change = verdict(sa, sb, m["better"], m["bound"])
            seen.add("not comparable" if diffs else v)
            if diffs:
                v = "not comparable (%s)" % ", ".join(diffs)
            print("%-20s %-18s %12.6g %7.2f%% %12.6g %7.2f%% %5.0f%% %+7.2f%%  %s" % (
                w, m["name"], sa["median"], 100 * spread(sa), sb["median"],
                100 * spread(sb), 100 * m["bound"], 100 * change, v))
    for v, code in (("worse", 1), ("not comparable", 4), ("unresolved", 3)):
        if v in seen:
            log("compare: some rows are %s (exit %d)" % (v, code))
            return code
    return 0


# ---- entry ------------------------------------------------------------------


def main():
    argv = sys.argv[1:]
    config = load_config()
    try:
        if argv[:1] == ["compare"]:
            p = argparse.ArgumentParser(prog="run.py compare")
            p.add_argument("a", help="set file, or file#name in baseline.json")
            p.add_argument("b")
            return compare(p.parse_args(argv[1:]), config)
        if argv[:1] == ["sweep"]:
            p = argparse.ArgumentParser(prog="run.py sweep")
            p.add_argument("--runs", type=int, default=10)
            p.add_argument("--first-seed", type=int, default=1)
            p.add_argument("--seconds", type=int, default=config["run_seconds"])
            p.add_argument("--workloads", default="")
            p.add_argument("--out", default="")
            args = p.parse_args(argv[1:])
            ensure_built()
            return sweep(args, config)
        if argv[:1] == ["selftest"]:
            ensure_built()
            selftest_all()
            print("self-test ok")
            return 0
        p = argparse.ArgumentParser(prog="run.py")
        p.add_argument("--workload", required=True,
                       choices=[w["name"] for w in config["workloads"]])
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--seconds", type=int, default=config["run_seconds"])
        p.add_argument("--trace", type=int, choices=[0, 1], default=0)
        args = p.parse_args(argv)
        if args.seed < 0:
            raise BenchError("--seed must be >= 0")
        ensure_built()
        selftest_all()
        return run_once(args, config)
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        log("benchmark error: %s" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
