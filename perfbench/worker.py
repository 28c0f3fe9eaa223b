"""One pass of one workload, in a fresh interpreter started by run.py.

Usage: python3 perfbench/worker.py '<json spec>'

The spec names the workload, the pass seed, whether to trace, and the
perf_counter time at which run.py started this process, so that setup_s
covers interpreter start, imports and input generation.  The reference
kernels (calib.py) are imported and timed only after setup_s is taken;
their time is left out of the pass's wall_s.  The last stdout line is
`PERFBENCH_PASS <json>`.
"""

import json
import sys
import time


def main():
    spec = json.loads(sys.argv[1])
    import resource

    import workloads

    wl = workloads.WORKLOADS[spec["workload"]]
    state = wl.setup(spec["seed"])
    tracer = None
    if spec["traced"]:
        import spans

        # on cli-cold the spans run in each call's cli_shim.py; installing
        # them here too fails the pass early if a traced name is gone
        tracer = spans.install()
    setup_s = time.perf_counter() - spec["t0"]
    import calib

    setup_ref_s = calib.settled_reference_s()
    ops = workloads.Ops(calib.reference_s, calib.mean_reference_s)
    start = time.perf_counter()
    try:
        raw = wl.run(state, ops, spec["traced"])
        error = None
    except Exception as exc:  # the program crashed inside the timed section
        raw, error = None, exc
    wall_s = time.perf_counter() - start - ops.ref_total_s

    if error is None:
        out = wl.check(state, raw)
    else:
        print(f"pass crashed: {error!r}", file=sys.stderr)
        out = {"attempted": 1, "failed": 1, "gate_errors": [repr(error)], "accuracy": {}}
    who = resource.RUSAGE_CHILDREN if spec["workload"] == "cli-cold" else resource.RUSAGE_SELF
    out["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    out["op_s"] = ops.op_s
    out["ref_s"] = ops.ref_s
    out["setup_s"] = setup_s
    out["setup_ref_s"] = setup_ref_s
    out["wall_s"] = wall_s
    traces = out.pop("traces", [])
    if spec["traced"]:
        import spans

        raw_trace = spans.merge(t for t in traces if t is not None) if spec["workload"] == "cli-cold" else tracer.raw()
        out["layers"] = spans.layer_metrics(raw_trace, wall_s)
    print("PERFBENCH_PASS " + json.dumps(out, default=repr))


if __name__ == "__main__":
    main()
