#!/usr/bin/env python3
"""Benchmark driver for clustercast.

Builds the Go pass runner (perfbench/*.go) from the checkout's sources,
then runs one workload for about --seconds seconds as a series of passes,
each in a fresh child process, so that CPU time and peak memory come from
that child's rusage and no heap state carries between passes. Pass i runs
the workload's job at sub-seed i of --seed (pass 0 at --seed itself).

  --trace 0  untraced passes through the program's public entry points;
             prints the end-to-end metrics of BENCHMARK.json
  --trace 1  pairs of an untraced pass and a traced replay of the same job
             at the same seed; checks that the replay reproduces the pass's
             values exactly and prints the per-layer metrics

Every pass's outputs are checked: every figure point is present, the
traced scale replay verifies the paper's invariants, and at the default
seed 2003 the digests and stage results must equal perfbench/reference.json.
The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The exit code is 0 only when every check passed.

  python3 perfbench/run.py --workload scale --seed 2003 --seconds 30 --trace 0
  python3 perfbench/run.py --selftest     # the harness at tiny sizes
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench", "perfbench")
DEFAULT_SEED = 2003
# A run must end within 180 s; passes are cut off before that.
RUN_LIMIT_S = 170.0
# set-up is reported as the median of at least this many set-ups.
MIN_SETUPS = 5
MASK64 = (1 << 64) - 1


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load_reference():
    with open(os.path.join(BENCH, "reference.json")) as f:
        return json.load(f)


def build():
    """Builds the pass runner; the Go build cache stays in the checkout."""
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "GOFLAGS": "",
        "GOPROXY": "off",
        "GOENV": "off",
    })
    os.makedirs(os.path.dirname(BINARY), exist_ok=True)
    try:
        res = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=BENCH, env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=800)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: build failed: {e}")
        return False
    if res.returncode != 0:
        log("perfbench: build failed:\n" + res.stdout)
        return False
    return True


def subseed(seed, i):
    """Pass i's seed: --seed itself for pass 0, a splitmix64 mix after."""
    if i == 0:
        return seed
    z = (seed + i * 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


class Pass:
    """One child process: its timings, rusage and parsed result line."""

    def __init__(self, workload, seed, mode, tiny, deadline, spans=None):
        self.seed, self.mode = seed, mode
        self.out, self.error = None, None
        self.wall = self.setup = self.cpu = self.rss_mib = None
        cmd = [BINARY, "-workload", workload, "-seed", str(seed), "-mode", mode]
        if tiny:
            cmd.append("-tiny")
        if spans:
            cmd += ["-spans", spans]
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            self.error = "no time left in the run"
            return
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        killer = threading.Timer(remaining, proc.kill)
        killer.start()
        lines = []
        for line in proc.stdout:
            if line == "ready\n" and self.setup is None:
                self.setup = time.monotonic() - t0
            lines.append(line)
        proc.stdout.close()
        _, status, ru = os.wait4(proc.pid, 0)
        self.wall = time.monotonic() - t0
        killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.cpu = ru.ru_utime + ru.ru_stime
        self.rss_mib = ru.ru_maxrss / 1024.0
        if proc.returncode != 0:
            self.error = f"{mode} pass at seed {seed} exited with {proc.returncode}"
            return
        try:
            self.out = json.loads(lines[-1])
        except (IndexError, ValueError):
            self.error = f"{mode} pass at seed {seed} printed no result"
            return
        if self.setup is None:
            self.error = f"{mode} pass at seed {seed} never signalled the end of set-up"
        log(f"perfbench: {workload} {mode} seed={seed} wall={self.wall:.4f}s cpu={self.cpu:.4f}s "
            f"rss={self.rss_mib:.1f}MiB setup={self.setup or 0:.4f}s")


def reference_mismatches(out, expected):
    """Compares a default-seed pass with the recorded outputs."""
    bad = []
    for key, want in sorted(expected.get("digests", {}).items()):
        got = out.get("digests", {}).get(key)
        if got != want:
            bad.append(f"default seed: {key} digest {got} != recorded {want}")
    for key, want in sorted(expected.get("results", {}).items()):
        got = out.get("results", {}).get(key)
        if got != want:
            bad.append(f"default seed: {key} results {got} != recorded {want}")
    return bad


class Ledger:
    """Operations attempted and failed across a run's passes."""

    def __init__(self, workload, tiny, reference):
        self.attempted = self.failed = 0
        self.problems = []
        self.stamp = {}
        self.expected = reference[workload]["tiny" if tiny else "full"]

    def add(self, p):
        if p.out is None:
            self.attempted += 1
            self.failed += 1
            self.problems.append(p.error)
            return
        if not self.stamp:
            self.stamp = {"go": p.out["go_version"], "GOMAXPROCS": p.out["gomaxprocs"]}
        ops, fails = p.out["ops"], list(p.out["failures"])
        if p.error:
            fails.append(p.error)
        if p.seed == DEFAULT_SEED and p.mode == "run":
            fails += reference_mismatches(p.out, self.expected)
        self.attempted += max(ops, 1)
        self.failed += min(len(fails), max(ops, 1))
        self.problems += fails

    def mismatch(self, what):
        self.failed += 1
        self.problems.append(what)


def another(start, done, seconds):
    """Whether to start another pass: while --seconds last, and only if a
    pass of the mean length so far still ends well inside the run limit."""
    elapsed = time.monotonic() - start
    return elapsed < seconds and elapsed * (done + 1) / done < 0.8 * RUN_LIMIT_S


def untraced(args, ledger, deadline):
    """Passes until --seconds are used; returns the end-to-end metrics."""
    start = time.monotonic()
    passes = []
    while True:
        p = Pass(args.workload, subseed(args.seed, len(passes)), "run", args.tiny, deadline)
        ledger.add(p)
        passes.append(p)
        if p.out is None or not another(start, len(passes), args.seconds):
            break
    setups = [p.setup for p in passes if p.setup is not None]
    i = 0
    while len(setups) < MIN_SETUPS:
        s = Pass(args.workload, subseed(args.seed, i), "setup", args.tiny, deadline)
        if s.setup is None:
            ledger.add(s)
            break
        setups.append(s.setup)
        i += 1
    ok = [p for p in passes if p.out is not None]
    if not ok or not setups:
        return {}
    return {
        "wall_s": statistics.median(p.wall for p in ok),
        "cpu_s": statistics.median(p.cpu for p in ok),
        "peak_rss_mib": statistics.median(p.rss_mib for p in ok),
        "setup_s": statistics.median(setups),
    }


def traced(args, ledger, deadline, nproc):
    """Pairs of an untraced pass and a traced replay at the same seed;
    returns the per-layer metrics, averaged per pair."""
    start = time.monotonic()
    spans_dir = os.path.join(BUILD, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    pairs = []
    while True:
        seed = subseed(args.seed, len(pairs))
        run = Pass(args.workload, seed, "run", args.tiny, deadline)
        ledger.add(run)
        spans = os.path.join(spans_dir, f"{args.workload}.jsonl") if not pairs else None
        rep = Pass(args.workload, seed, "trace", args.tiny, deadline, spans=spans)
        ledger.add(rep)
        if run.out is None or rep.out is None:
            break
        for key in sorted(set(run.out["digests"]) | set(rep.out["digests"])):
            if run.out["digests"].get(key) != rep.out["digests"].get(key):
                ledger.mismatch(f"replay at seed {seed}: {key} differs from the untraced pass")
        if run.out.get("results") != rep.out.get("results"):
            ledger.mismatch(f"replay at seed {seed}: stage results differ from the untraced pass")
        pairs.append((run, rep))
        if not another(start, len(pairs), args.seconds):
            break
    if not pairs:
        return {}
    metrics = {}
    for name in pairs[0][1].out["layers"]:
        metrics[name] = statistics.fmean(rep.out["layers"][name] for _, rep in pairs)
    metrics["experiment.core_idle_s"] = statistics.fmean(nproc * run.wall - run.cpu for run, _ in pairs)
    metrics["trace.overhead_s"] = statistics.fmean(rep.wall - run.wall for run, rep in pairs)
    return metrics


def steal_s():
    """CPU time the hypervisor gave other guests, summed over all CPUs
    (/proc/stat); large values mean the machine's speed varied."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_workload(args, spec, reference):
    """Runs one workload; returns its ledger, metrics and environment."""
    deadline = time.monotonic() + RUN_LIMIT_S
    ledger = Ledger(args.workload, args.tiny, reference)
    n = nproc()
    steal0 = steal_s()
    if args.trace:
        values = traced(args, ledger, deadline, n)
        wanted = spec["per_layer"]
    else:
        values = untraced(args, ledger, deadline)
        wanted = spec["end_to_end"]
    env = {"nproc": n, "cpu": cpu_model(), "steal_s": round(steal_s() - steal0, 2), **ledger.stamp}
    metrics = {}
    for m in wanted:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        else:
            ledger.mismatch(f"metric {m['name']} was not measured")
    return ledger, metrics, env


def report(args, ledger, metrics, env):
    print("env: " + " ".join(f"{k}={v!r}" if " " in str(v) else f"{k}={v}" for k, v in sorted(env.items())))
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    ratio = ledger.failed / ledger.attempted if ledger.attempted else 1.0
    print(f"{args.workload} failed_ratio = {ratio:.6g} ({ledger.failed} of {ledger.attempted} operations)")
    for p in ledger.problems[:20]:
        print(f"FAILED: {p}")
    attempted = max(ledger.attempted, 1)
    correct = ledger.failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": min(ledger.failed, attempted), "metrics": metrics}))
    return correct


def selftest(spec):
    """Runs the harness at tiny sizes: every metric must print with its
    unit, and a corrupted recorded value must trip the default-seed check."""
    problems = []
    reference = load_reference()
    for w in spec["workloads"]:
        for trace in (0, 1):
            args = argparse.Namespace(workload=w["name"], seed=DEFAULT_SEED, seconds=1, trace=trace, tiny=True)
            ledger, metrics, _ = run_workload(args, spec, reference)
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            for m in wanted:
                got = metrics.get(m["name"])
                if got is None or got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
                    problems.append(f"{w['name']} trace={trace}: {m['name']} missing or without unit {m['unit']}")
            if ledger.failed:
                problems.append(f"{w['name']} trace={trace}: {ledger.problems[:3]}")
        # A corrupted recorded value must be caught.
        corrupt = json.loads(json.dumps(reference))
        exp = corrupt[w["name"]]["tiny"]
        key = sorted(exp["digests"])[0]
        exp["digests"][key] = "0" * 64
        args = argparse.Namespace(workload=w["name"], seed=DEFAULT_SEED, seconds=1, trace=0, tiny=True)
        ledger, _, _ = run_workload(args, spec, corrupt)
        if not any(key in p for p in ledger.problems):
            problems.append(f"{w['name']}: corrupted recorded digest {key} was not detected")
    for p in problems:
        print(f"selftest: FAILED: {p}")
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return not problems


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true", help="check the harness at tiny sizes")
    args = ap.parse_args()
    args.tiny = False
    args.seed &= MASK64

    spec = load_spec()
    if not build():
        return 2
    if args.selftest:
        return 0 if selftest(spec) else 1
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log(f"perfbench: --workload must be one of {', '.join(names)}")
        return 2
    ledger, metrics, env = run_workload(args, spec, load_reference())
    return 0 if report(args, ledger, metrics, env) else 1


if __name__ == "__main__":
    sys.exit(main())
