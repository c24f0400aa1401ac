"""One benchmark process: set up a workload, then repeat it for a time budget.

Started by run.py, never by hand. Modes:
  setup  set up and exit (one set-up time sample)
  run    set up, then repeat the workload untraced for --seconds
  trace  as run, then repeat it again with every layer traced

The last stdout line is one JSON object. ``ready`` is the CLOCK_MONOTONIC
time at which set-up finished, so the parent can compute set-up time from
the moment it started this process.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

import calib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _import_package():
    sys.path.insert(0, str(SRC))
    import nfisac

    where = Path(nfisac.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"nfisac imported from {where}, not from {SRC}")
    # import every module now so the tracer can find all references to a layer
    import nfisac.cli  # noqa: F401
    import nfisac.experiments  # noqa: F401


def _repeat(workload, budget_s, max_reps=None, calibrate=False):
    """Repeat the workload until the next repetition would overrun budget_s.

    With ``calibrate``, the calibration kernel is sampled throughout (its
    time left out of every repetition and step), and ``rep_cal_s`` and
    ``step_cal_s`` give each repetition's and step's mean kernel time.
    """
    reps, spans, steps, failures = [], [], [], []
    attempted = failed = 0
    start = time.monotonic()
    if calibrate:
        calib.start(workload.calibration)
    while True:
        attempted += workload.ops
        t0 = calib.clock()
        try:
            out = workload.rep(steps)
        except Exception:  # a raising repetition fails all its operations
            failed += workload.ops
            failures.append(traceback.format_exc(limit=3))
            out = None
        t1 = calib.clock()
        reps.append(t1 - t0)
        spans.append((t0, t1))
        if out is not None:
            msgs = workload.check(out)
            failed += min(len(msgs), workload.ops)
            failures += msgs
        elapsed = time.monotonic() - start
        typical = sorted(reps)[len(reps) // 2]
        if elapsed + typical > budget_s or (max_reps and len(reps) >= max_reps):
            break
    result = {"rep_s": reps, "step_s": [t1 - t0 for t0, t1 in steps],
              "attempted": attempted, "failed": failed, "failures": failures[:20]}
    if calibrate:
        calib.stop()
        result["rep_cal_s"] = calib.means_between(spans, calib.REP_MARGIN_S).tolist()
        result["step_cal_s"] = calib.means_between(steps, calib.STEP_MARGIN_S).tolist()
    return result


def _trace_metrics(tracer, reps, untraced):
    from layers import COUNTERS, LAYERS, SETUP_LAYERS, layer_name

    n = len(reps)
    run_times, roots = tracer.layer_times("rep")
    setup_times, _ = tracer.layer_times("setup")
    metrics = {}
    for module, func in LAYERS:
        name = layer_name(module, func)
        if name in SETUP_LAYERS:
            calls, total, own = setup_times.get(name, (0, 0.0, 0.0))
            scale = 1
        else:
            calls, total, own = run_times.get(name, (0, 0.0, 0.0))
            scale = n
        metrics[f"{name}.calls"] = calls / scale
        metrics[f"{name}.total_s"] = total / scale
        metrics[f"{name}.self_s"] = own / scale
    for c in COUNTERS:
        metrics[c] = tracer.counts.get(c, 0) / n
    run_s = sum(reps) / n
    base = sum(untraced) / len(untraced)
    metrics["trace.run_s"] = run_s
    metrics["trace.untraced_run_s"] = base
    metrics["trace.unattributed_s"] = run_s - roots / n
    metrics["trace.overhead_frac"] = run_s / base - 1.0
    metrics["trace.spans_per_rep"] = sum(1 for s in tracer.spans if s[4] == "rep") / n
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--outdir", required=True)
    args = ap.parse_args(argv)

    _import_package()
    import envinfo
    from workloads import WORKLOADS

    tracer = None
    if args.mode == "trace":
        from layers import tracer_args
        from spans import Tracer

        tracer = Tracer(*tracer_args())
        tracer.tag = "setup"
        tracer.install()

    refs = json.loads((HERE / "refs.json").read_text(encoding="utf-8"))
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.outdir))
    try:
        workload = WORKLOADS[args.workload](ROOT / "configs", refs)
        workload.setup(args.seed, workdir)
        ready = time.monotonic()
        result = {"ready": ready}
        if args.mode == "run":
            result.update(_repeat(workload, args.seconds, calibrate=True))
        elif args.mode == "trace":
            reached = tracer.reached_through()
            tracer.uninstall()
            untraced = _repeat(workload, args.seconds / 2)
            tracer.tag = "rep"
            tracer.counts.clear()  # count the traced repetitions only
            origin = time.perf_counter()
            tracer.install()
            traced = _repeat(workload, args.seconds / 2, max_reps=3)
            tracer.uninstall()
            result.update(traced)
            result["attempted"] += untraced["attempted"]
            result["failed"] += untraced["failed"]
            result["failures"] = untraced["failures"] + traced["failures"]
            result["untraced_rep_s"] = untraced["rep_s"]
            result["metrics"] = _trace_metrics(tracer, traced["rep_s"], untraced["rep_s"])
            result["reached_through"] = reached
            spans = Path(args.outdir) / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write_spans(spans, origin)
            result["spans_file"] = str(spans.relative_to(ROOT))
        if args.mode != "setup":
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            result["env"] = envinfo.record()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
