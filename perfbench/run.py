"""selzeta benchmark: time to a verified result, per workload and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-full --seed 0 --seconds 20 --trace 0

Each pass of a workload runs in a fresh interpreter (worker.py), one at a
time and on one CPU, with SELZETA_THREADS=1 and single-threaded BLAS.  Passes
repeat until --seconds have elapsed, on inputs drawn from --seed: the same
inputs in every pass, or on verify-full a cycle of INPUT_SETS inputs.  Times
are reported in reference seconds (calib.py): each time is divided by the
CPU's slowdown, which the reference kernels measure right before and after
it.  With --trace 0 the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with --trace 1 passes alternate untraced and traced on the
same inputs and it carries the per-layer metrics, the tracing overhead among
them.  The exit code is nonzero, with no result line, when the program cannot
be run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time

import calib

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
HARD_LIMIT_S = 170.0
# verify-full's cost depends on the seed: from one input to the next its
# sum-relation check takes 0.2 or 0.85 reference seconds and the whole pass
# 3.0 to 4.0.  Its passes therefore cycle through this many inputs drawn from
# --seed, and wall_s is their mean.  A traced run, whose passes come in
# pairs, covers the first TRACED_INPUT_SETS of them.
INPUT_SETS = {"verify-full": 8}
TRACED_INPUT_SETS = 3
SINGLE_THREAD = ("SELZETA_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in SINGLE_THREAD:
        env[var] = "1"
    return env


def run_child(argv, env, root, deadline):
    """Run one child in its own process group; kill the group at the deadline."""
    proc = subprocess.Popen(argv, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{argv[1:3]} did not finish before the run's time limit")
    return proc.returncode, out, err


def input_seed(seed, j):
    """Seed of the j-th input set of a run; the first is --seed itself."""
    return seed if j == 0 else random.Random(f"{seed}/{j}").getrandbits(32)


def run_pass(workload, seed, traced, env, root, deadline):
    spec = {"workload": workload, "seed": seed, "traced": traced}
    before = calib.reference_s()
    spec["t0"] = time.perf_counter()
    code, out, err = run_child([sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)], env, root, deadline)
    lines = [l for l in out.splitlines() if l.startswith("PERFBENCH_PASS ")]
    if code != 0 or not lines:
        raise BenchError(f"pass of {workload} exited with {code}:\n{err.strip()[-2000:]}")
    if err.strip():
        sys.stderr.write(err)
    p = json.loads(lines[-1][len("PERFBENCH_PASS "):])
    p["setup_ref_s"] = calib.mean_reference_s(before, p["setup_ref_s"])
    return p


def machine_info():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), model)
    except OSError:
        pass
    versions = {}
    for mod in ("numpy", "scipy", "mpmath"):
        try:
            versions[mod] = __import__(mod).__version__
        except ImportError:
            versions[mod] = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "python": platform.python_version(),
        **versions,
        "child_env": {var: "1" for var in SINGLE_THREAD},
        "parent_env": {var: os.environ.get(var) for var in SINGLE_THREAD},
    }


def probe_seconds(argv, env, root, deadline, reps=3):
    """Median wall time of a short child, and the median float it prints, if any."""
    walls, printed = [], []
    for _ in range(reps):
        t = time.perf_counter()
        code, out, err = run_child(argv, env, root, deadline)
        walls.append(time.perf_counter() - t)
        if code != 0:
            raise BenchError(f"probe {argv[1:]} failed: {err.strip()[-500:]}")
        if out.strip():
            printed.append(float(out.split()[-1]))
    return statistics.median(walls), (statistics.median(printed) if printed else None)


def scaled_ops(passes):
    """Each operation's median time over its repeats, in reference seconds.

    Every pass repeats the same operations in the same order.  A pass that
    crashed part-way is left out.
    """
    count = max(len(p["op_s"]) for p in passes)
    whole = [p for p in passes if len(p["op_s"]) == count]
    return [statistics.median(calib.in_reference_s(p["op_s"][i], p["ref_s"][i]) for p in whole) for i in range(count)]


def end_to_end(passes):
    inputs = sorted({p["input"] for p in passes})
    return {
        "setup_s": statistics.median(calib.in_reference_s(p["setup_s"], p["setup_ref_s"]) for p in passes),
        "wall_s": statistics.mean(sum(scaled_ops([p for p in passes if p["input"] == j])) for j in inputs),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(workload, plain, traced, probes):
    """Medians over the traced passes, which repeat one input (three on verify-full)."""
    import workloads

    out = {name: 0.0 for name, owner in workloads.ACCURACY_OWNER.items() if owner != workload}
    for key in {k for p in traced for k in p["layers"]}:
        out[key] = statistics.median(p["layers"].get(key, 0.0) for p in traced)
    for key in {k for p in plain + traced for k in p["accuracy"]}:
        out[key] = statistics.median(p["accuracy"].get(key, 0.0) for p in plain + traced)
    overhead = statistics.median(t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced))
    out["trace.overhead_s"] = overhead
    out["trace.overhead_share"] = overhead / statistics.median(p["wall_s"] for p in plain)
    out.update(probes)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json in {root}: {exc}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {args.workload!r}")
    if not os.path.isfile(os.path.join(root, "src", "selzeta", "__init__.py")):
        raise BenchError(f"no selzeta sources under {root}/src: run from the root of a checkout")
    env = child_env(root)
    print("machine: " + json.dumps(machine_info(), sort_keys=True))
    # every pass, and each CLI call it makes, runs on this one CPU, the CPU
    # whose speed the reference kernels track
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    sets = INPUT_SETS.get(args.workload, 1)
    if args.trace:
        sets = min(sets, TRACED_INPUT_SETS)
    least = max(MIN_TRACED_PAIRS, sets) if args.trace else max(MIN_PASSES, sets)
    plain, traced = [], []
    while True:
        j = len(plain) % sets
        for runs, trace in [(plain, False)] + [(traced, True)] * args.trace:
            runs.append(run_pass(args.workload, input_seed(args.seed, j), trace, env, root, deadline))
            runs[-1]["input"] = j
        if len(plain) >= least and len(plain) % sets == 0 and time.monotonic() - start >= args.seconds:
            break
    for p in plain + traced:
        slowdown = statistics.mean(calib.slowdown(r) for r in p["ref_s"]) if p["ref_s"] else float("nan")
        print(f"pass: setup {p['setup_s']:.3f} s, wall {p['wall_s']:.3f} s, CPU slowdown {slowdown:.2f}, {p['attempted']} checked, {p['failed']} failed")
        print("  op seconds: " + " ".join(f"{t:.4f}" for t in p["op_s"]))
        print("  op reference seconds: " + " ".join(f"{calib.in_reference_s(t, r):.4f}" for t, r in zip(p["op_s"], p["ref_s"])))

    gate_errors = [e for p in plain + traced for e in p["gate_errors"]]
    for j in range(sets):
        if len({p.get("digest") for p in plain + traced if p["input"] == j}) > 1:
            gate_errors.append("fixed-seed payload differs between two fresh processes")
    for e in gate_errors:
        print(f"gate: {e}")
    if plain[0]["accuracy"]:
        print("accuracy: " + json.dumps(plain[0]["accuracy"], sort_keys=True))

    if args.trace:
        probes = {
            "cli.interp_s": probe_seconds([sys.executable, "-c", "pass"], env, root, deadline)[0],
            "cli.import_s": probe_seconds(
                [sys.executable, "-c", "import time; t = time.perf_counter(); import selzeta; print(time.perf_counter() - t)"],
                env,
                root,
                deadline,
            )[1],
        }
        values = per_layer(args.workload, plain, traced, probes)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(plain)
        wanted = spec["end_to_end"]
    ops = sum(len(p["op_s"]) for p in plain)
    print(f"samples: {len(plain)} passes of {ops // len(plain)} timed operations on {sets} input set(s)" + (f", {len(traced)} traced passes" if traced else ""))
    print(f"median pass wall {statistics.median(p['wall_s'] for p in plain):.4f} s, fastest {min(p['wall_s'] for p in plain):.4f} s")
    missing = sorted({m["name"] for m in wanted} - set(values))
    if missing or not args.trace and len(values) != len(wanted):
        raise BenchError(f"metrics {missing} of BENCHMARK.json not measured; measured {sorted(values)}")
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted}
    for m in wanted:
        print(f"{m['name']:<34} {metrics[m['name']]['value']:.6g} {m['unit']}")
    result = {
        "correct": not gate_errors,
        "attempted": sum(p["attempted"] for p in plain + traced),
        "failed": sum(p["failed"] for p in plain + traced),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
