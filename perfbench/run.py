#!/usr/bin/env python3
"""One-command BD-HTM benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call builds the library and
the driver from source into .bench_build/ (or $CARGO_TARGET_DIR), with
perfbench/CMakeLists.txt and without touching the repository's own build
files. Each call then runs one workload for one seed, prints every metric
with its unit, keeps the full record (checks, fingerprint, provenance,
every round) under .bench_build/results/, and prints as the last line one
JSON object with the keys correct, attempted, failed and metrics.

--trace 0 runs ROUNDS rounds, each a separate driver process with its
own world and its own threads, over --seconds / ROUNDS each, and reports
each end-to-end metric of BENCHMARK.json as the median, or for the
metrics in BETTER_QUARTILE the better quartile, over the rounds, or for
timing metrics over the 200 ms slices of all rounds during which the
host left the VM alone (calm_slices); ok_frac counts every operation of
every round. Per-process
factors made single-process runs disagree far more than the rounds of
one run do. A driver that finds the simulated device's spin loop
miscalibrated exits before it builds anything, and the round starts
again in a fresh process.
A round that aborts (wedged, crashed, or a driver that overran or died
without a result) is kept: its operations count in attempted and its
unfinished ones as failed, rounds_ok_frac (rounds that completed over
rounds started) drops, and the record names the round and the cause and
holds its values, which enter the run's metrics only when no round
completed; the next round starts in a fresh process. If the run's time
budget runs low, the remaining rounds are not started and the record
says so. --trace 1 runs one traced round over the whole
window and reports the per-layer metrics. A wrong answer or a failed
check makes the command exit with status 1 after printing its result.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ROUNDS = 10
RUN_TIMEOUT_S = 170  # the caller allows 180 s; the driver's own deadlines
                     # end a stuck round well before this
ROUND_RESERVE_S = 45  # start no round with less budget left than this
# Workloads the driver knows that BENCHMARK.json leaves out because they
# hit a known program defect (perfbench/README.md, "Known program
# defects"); run by name, they report it as failed operations.
DEFECT_WORKLOADS = {"direct_skiplist_a"}
# A timing metric of a run comes from the 200 ms slices of all its
# completed rounds during which the host took at most CALM_STEAL of the
# VM's CPU time (steal), or from the MIN_CALM_SLICES least disturbed
# slices when fewer qualify. This host's steal comes in episodes of tens
# of seconds at 5-36% that halve throughput and multiply tail latency;
# over ten runs of shm_hash_b with such episodes in three, latency_p99_us
# spread 0.48 (quartile distance over median) taken over all rounds and
# 0.06 taken over the calm slices.
CALM_STEAL = 0.02
MIN_CALM_SLICES = 10
# Metrics reported as the better quartile rather than the median: tail
# latency only ever rises with host interference.
BETTER_QUARTILE = {"latency_p99_us"}
# A driver that exits with this status found the simulated device's spin
# loop miscalibrated and built nothing; the round gets a fresh process.
EXIT_MISCALIBRATED = 4
SPIN_ATTEMPTS = 5


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d) if not os.path.isabs(d) else d


def build(out):
    """Configure once, then let the build tool decide what is stale."""
    bdir = os.path.join(out, "perfbench")
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen,
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", bdir, "-j", "4"], check=True,
                   stdout=sys.stderr)
    return os.path.join(bdir, "bdhtm_perfbench")


def source_digest():
    """sha256 over the library and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for f in sorted(files):
                p = os.path.join(dirpath, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else None


def aborted_round(args, why):
    """The record of a round whose driver gave no result of its own."""
    print("perfbench: round aborted: " + why, file=sys.stderr)
    return {"workload": args.workload, "seed": args.seed,
            "trace": args.trace, "correct": True, "attempted": 0,
            "failed": 0, "aborted": why, "metrics": {}, "detail": {},
            "checks_failed": [], "fingerprint": None}


def run_driver(binary, args, out, rnd, window_ms, deadline):
    """One round in a fresh driver process. A process whose spin-loop
    calibration is off exits before it builds anything (EXIT_MISCALIBRATED)
    and the round starts again in another; the last attempt keeps
    whatever calibration it gets."""
    run_dir = os.path.join(out, "run-%s-%d-%d"
                           % (args.workload, os.getpid(), rnd))
    env = dict(os.environ)
    if args.trace:
        env["PERFBENCH_TRACE_DIR"] = os.path.join(out, "traces")
        os.makedirs(env["PERFBENCH_TRACE_DIR"], exist_ok=True)
    for attempt in range(SPIN_ATTEMPTS):
        os.makedirs(run_dir, exist_ok=True)
        last = attempt == SPIN_ATTEMPTS - 1
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--round", str(rnd), "--window-ms", str(window_ms),
               "--trace", str(args.trace), "--run-dir", run_dir,
               "--check-spin", "0" if last else "1"]
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env,
                                start_new_session=True, text=True)
        try:
            stdout, _ = proc.communicate(
                timeout=max(1.0, deadline - time.time()))
        except subprocess.TimeoutExpired:
            return aborted_round(args, "driver overran the run's time "
                                 "budget and was killed")
        finally:
            # Also reached when this process is terminated (on_term).
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
            # The shm rendezvous directories live here; remove them on
            # every outcome, wedged and failed runs included.
            shutil.rmtree(run_dir, ignore_errors=True)
        if proc.returncode != EXIT_MISCALIBRATED or last:
            break
    lines = [ln for ln in stdout.splitlines() if ln.startswith("{")]
    if proc.returncode != 0 or not lines:
        return aborted_round(args, "driver exited with status %d%s" % (
            proc.returncode, "" if lines else " and no result"))
    res = json.loads(lines[-1])
    res["detail"]["spin_attempts"] = attempt + 1
    return res


def calm_slices(rounds, name):
    """The values of metric `name` over the calm slices of `rounds`."""
    pool = sorted((st, v) for r in rounds
                  for st, v in zip(r.get("slices", {}).get("host_steal_frac", []),
                                   r.get("slices", {}).get(name, [])))
    calm = [v for st, v in pool if st <= CALM_STEAL]
    return calm if len(calm) >= MIN_CALM_SLICES else \
        [v for _, v in pool[:MIN_CALM_SLICES]]


def combine(results, wanted, trace):
    """One record for the run: per-round results kept, each wanted metric
    taken over the calm slices of the completed rounds (calm_slices) or,
    for metrics measured once per round, over those rounds; over the
    aborted rounds when none completed. The median, or the better quartile
    for BETTER_QUARTILE. Failures summed."""
    if len(results) == 1:
        res = dict(results[0])
    else:
        res = {"workload": results[0]["workload"],
               "seed": results[0]["seed"], "trace": trace, "metrics": {}}
        # An aborted round measured a window cut short (or its warm-up),
        # and recovered an unquiesced store: its figures are not of the
        # same kind as the others'.
        measured = [r for r in results if not r["aborted"]] or results
        for m in wanted:
            vals = calm_slices(measured, m["name"]) or \
                [r["metrics"][m["name"]]["value"] for r in measured
                 if m["name"] in r["metrics"]]
            if not vals:
                continue
            if m["name"] in BETTER_QUARTILE and len(vals) > 1:
                q = statistics.quantiles(vals, n=4, method="inclusive")
                v = q[2] if m["better"] == "higher" else q[0]
            else:
                v = statistics.median(vals)
            res["metrics"][m["name"]] = {"value": v, "unit": m["unit"]}
    res["fingerprint"] = next((r["fingerprint"] for r in results
                               if r["fingerprint"]), None)
    res["attempted"] = sum(r["attempted"] for r in results)
    res["failed"] = sum(r["failed"] for r in results)
    aborted = [(i, r["aborted"]) for i, r in enumerate(results)
               if r["aborted"]]
    if not trace:
        if res["attempted"] > 0:
            res["metrics"]["ok_frac"] = {
                "value": 1.0 - res["failed"] / res["attempted"],
                "unit": "frac"}
        # A wedged or crashed round shows here, not only in its few
        # unfinished operations.
        res["metrics"]["rounds_ok_frac"] = {
            "value": 1.0 - len(aborted) / len(results), "unit": "frac"}
    res["correct"] = all(r["correct"] for r in results)
    res["checks_failed"] = ["round %d: %s" % (i, c)
                            for i, r in enumerate(results)
                            for c in r["checks_failed"]]
    res["aborted_rounds"] = len(aborted)
    res["calm_slices"] = len(calm_slices(
        [r for r in results if not r["aborted"]], "throughput_ops_s"))
    res["aborted"] = "; ".join("round %d: %s" % a for a in aborted)
    res["rounds"] = results
    return res


def on_term(signum, _frame):
    """Unwind, so that run_driver stops its driver before exiting."""
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, on_term)
    signal.signal(signal.SIGINT, on_term)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("perfbench: library sources (src/) not found next "
                         "to perfbench/; run from a full checkout")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]] + \
            list(DEFECT_WORKLOADS):
        raise SystemExit("perfbench: unknown workload %r" % args.workload)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    out = build_dir()
    os.makedirs(out, exist_ok=True)
    binary = build(out)

    t0 = time.time()
    rounds = 1 if args.trace else ROUNDS
    window_ms = max(100, args.seconds * 1000 // rounds)
    results = []
    for rnd in range(rounds):
        left = RUN_TIMEOUT_S - (time.time() - t0)
        if rnd > 0 and left < ROUND_RESERVE_S:
            break
        results.append(run_driver(binary, args, out, rnd, window_ms,
                                  t0 + RUN_TIMEOUT_S))
    wall_s = time.time() - t0
    res = combine(results, wanted, args.trace)
    res["rounds_planned"] = rounds

    res["provenance"] = {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "command": sys.argv,
        "run_wall_s": wall_s,
        "started_unix_s": t0,
    }
    missing = [m["name"] for m in wanted if m["name"] not in res["metrics"]]
    if missing:
        res["checks_failed"].append("metrics not measured: " +
                                    ", ".join(missing))
        res["correct"] = False
    rdir = os.path.join(out, "results")
    os.makedirs(rdir, exist_ok=True)
    rpath = os.path.join(rdir, "%s-seed%d-trace%d.json"
                         % (args.workload, args.seed, args.trace))
    with open(rpath, "w") as f:
        json.dump(res, f, indent=1, sort_keys=True)

    print("workload %s seed %d trace %d: wall %.1f s, %d of %d rounds "
          "completed" % (args.workload, args.seed, args.trace, wall_s,
                         len(results) - res["aborted_rounds"], len(results)))
    if res["aborted"]:
        print("ABORTED: " + res["aborted"])
    fp = res["fingerprint"] or {}
    print("fingerprint: nproc=%s compiler=%s build=%s obs_noop=%s device_ns=%s"
          " git=%s src=%s" % (fp.get("nproc"), fp.get("compiler"),
                             fp.get("build_type"), fp.get("obs_noop"),
                             fp.get("device_ns"),
                             res["provenance"]["git_sha"],
                             res["provenance"]["source_sha256"][:16]))
    metrics = {}
    for m in wanted:
        v = res["metrics"].get(m["name"])
        if v is None or not isinstance(v["value"], (int, float)):
            continue
        metrics[m["name"]] = {"value": v["value"], "unit": v["unit"]}
        print("  %-40s %18.6f %s" % (m["name"], v["value"], v["unit"]))
    for c in res["checks_failed"]:
        print("  CHECK FAILED: " + c)
    print("full record: " + os.path.relpath(rpath, ROOT))
    print(json.dumps({"correct": bool(res["correct"]),
                      "attempted": int(res["attempted"]),
                      "failed": int(res["failed"]),
                      "metrics": metrics}))
    sys.stdout.flush()
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
