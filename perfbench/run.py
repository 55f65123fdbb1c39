#!/usr/bin/env python3
"""Build the benchmark from the source tree and run one workload (or all).

    python3 perfbench/run.py --workload ycsb --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  The script builds
perfbench/bench.exe with dune, runs it, and prints its per-metric report
followed, as the last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list.  A per-layer metric whose layer does not run
on the workload is printed as n/a in the report and carries the value 0 in
the JSON line.  With --trace 1 the script also prints which bypass
predictions in perfbench/predictions.json hold (a metric predicted to read
0 or n/a on a workload).  The exit code is non-zero when an output check
fails, when the build fails, or when the source tree is missing.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "_out")
WORKLOADS = ["ycsb", "ycsb-hot-planned", "tpcc", "tpcc-calvin"]
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune is not on PATH")


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("no source tree here (missing %s); run from a checkout" % need)
    # No shared cache: the build writes only inside the checkout.
    cmd = dune_command() + ["build", "--root", ROOT, "--cache=disabled",
                            "./perfbench/bench.exe"]
    # Build output goes to stderr so that stdout ends with the result line.
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail("build failed", 3)
    return os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")


def run_one(exe, workload, seed, seconds, trace, spec):
    os.makedirs(OUT, exist_ok=True)
    env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=OUT)
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", OUT]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("%s: no result within %d s" % (workload, RUN_TIMEOUT_S), 4)
    lines = out.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print(lines[-1])
        fail("%s: the benchmark printed no result (exit %d)"
             % (workload, proc.returncode), 5)
    correct = bool(result["correct"]) and proc.returncode == 0

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics, na = {}, []
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail("%s: metric %s missing from the benchmark's output"
                 % (workload, m["name"]), 6)
        if got["unit"] != m["unit"]:
            fail("%s: metric %s has unit %s, BENCHMARK.json says %s"
                 % (workload, m["name"], got["unit"], m["unit"]), 6)
        if got["value"] is None:
            na.append(m["name"])
        metrics[m["name"]] = {"value": 0 if got["value"] is None
                              else got["value"], "unit": m["unit"]}
    if na:
        print("n/a on %s (reported as 0 below): %s" % (workload, " ".join(na)))
    if trace:
        check_bypasses(workload, result["metrics"])
    return {"correct": correct, "attempted": int(result["attempted"]),
            "failed": int(result["failed"]), "metrics": metrics}


def check_bypasses(workload, metrics):
    """Print whether each predicted bypass holds on this workload."""
    with open(os.path.join(HERE, "predictions.json")) as f:
        table = json.load(f)["per_layer"]
    held, broken = 0, []
    for name, row in sorted(table.items()):
        want = row.get("bypass", {}).get(workload)
        if want is None:
            continue
        value = metrics[name]["value"]
        ok = value is None if want == "n/a" else value == 0
        if ok:
            held += 1
        else:
            broken.append("%s=%s (predicted %s)" % (name, value, want))
    print("bypass predictions on %s: %d hold, %d do not%s"
          % (workload, held, len(broken),
             "" if not broken else ": " + "; ".join(broken)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        fail("BENCHMARK.json not found at the checkout root")
    with open(spec_path) as f:
        spec = json.load(f)
    exe = build()
    print("host: cores=%s python=%s seed=%d"
          % (os.cpu_count(), sys.version.split()[0], args.seed))

    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        t0 = time.time()
        results[name] = run_one(exe, name, args.seed, args.seconds,
                                args.trace, spec)
        print("%s: correct=%s in %.1f s" % (name, results[name]["correct"],
                                            time.time() - t0))
        if len(names) > 1:
            print("result %s %s" % (name, json.dumps(results[name])))

    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s/%s" % (w, k): v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    sys.exit(0 if final["correct"] else 1)


if __name__ == "__main__":
    main()
