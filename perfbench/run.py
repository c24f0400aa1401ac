"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload squint-focal --seed 1 --seconds 20 --trace 0

Run from the root of a checkout that holds ``src/nfisac`` and ``configs``.
With ``--trace 0`` it reports the end-to-end metrics, measured untraced,
with times in units of a calibration kernel timed during the same run
(``calib.py``); with ``--trace 1`` it reports the per-layer metrics from a
traced run, in wall seconds. The
last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it are a readable report. Full
results, the environment record and the trace spans go to
``.perfbench_out/``. Workloads, metrics and layers are described in
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("squint-focal", "music-trials", "trajectory-focus", "isac-loop")
SETUP_SAMPLES = 10  # set-up times per run: the measuring processes, then set-up-only ones
# Measuring processes per run. isac-loop's interpreter-bound steps run a few
# percent faster or slower from one process to the next, a spread the
# calibration cannot remove, so its run pools three shorter processes.
RUN_PROCESSES = {"isac-loop": 3}
# One BLAS thread: with two, eigh and matmul times vary by a third between
# repetitions on a shared 2-core machine, and collapse under contention.
MEASURE_THREADS = 1

sys.path.insert(0, str(HERE))
import numpy as np  # noqa: E402
from envinfo import nproc  # noqa: E402
from layers import per_layer_names  # noqa: E402


class BenchError(RuntimeError):
    pass


def deadline_s(seconds):
    """Wall-clock limit for all workers of one run.

    The workers measure for --seconds in total, and each makes at least one
    repetition; the margin leaves room for set-up samples, and for a slow
    program whose single repetitions overrun their share of the budget.
    """
    return 3.0 * seconds + 100.0


class Runner:
    def __init__(self, args, outdir):
        self.args = args
        self.outdir = outdir
        self.deadline = time.monotonic() + deadline_s(args.seconds)

    def worker(self, mode, seconds, blas_threads):
        """Run one worker process; returns (its result dict, start time)."""
        a = self.args
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads), PYTHONHASHSEED="0")
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", a.workload, "--seed", str(a.seed), "--seconds", repr(seconds),
            "--mode", mode, "--outdir", str(self.outdir),
        ]
        started = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{mode} worker overran the {deadline_s(a.seconds):.0f} s deadline")
        if proc.returncode != 0:
            raise BenchError(f"{mode} worker exited {proc.returncode}:\n{err.strip()[-2000:]}")
        lines = out.strip().splitlines()
        if not lines:
            raise BenchError(f"{mode} worker printed nothing:\n{err.strip()[-2000:]}")
        result = json.loads(lines[-1])
        result["setup_s"] = result["ready"] - started
        return result

    def setup_samples(self, blas_threads, count):
        return [self.worker("setup", 0.0, blas_threads)["setup_s"] for _ in range(count)]


def end_to_end(runner):
    a = runner.args
    n = RUN_PROCESSES.get(a.workload, 1)
    runs = [runner.worker("run", a.seconds / n, MEASURE_THREADS) for _ in range(n)]
    # set-up samples after the run, so they meet the CPU in its sustained state
    setups = runner.setup_samples(MEASURE_THREADS, SETUP_SAMPLES - n) + [r["setup_s"] for r in runs]
    setups.sort()

    def pooled(key):
        return np.concatenate([r[key] for r in runs])

    reps, cal, steps = pooled("rep_s"), pooled("rep_cal_s"), pooled("step_s")
    steps_cal = steps / pooled("step_cal_s")
    metrics = {
        "setup_s": (float(np.median(setups)), "s"),
        "run_cal": (float(np.median(reps / cal)), "cal"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in runs), "MB"),
        "step_p50_cal": (float(np.percentile(steps_cal, 50)), "cal"),
        "step_p90_cal": (float(np.percentile(steps_cal, 90)), "cal"),
    }
    res = {
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "failures": [f for r in runs for f in r["failures"]],
        "env": runs[0]["env"],
    }
    info = {
        "processes": n,
        "reps": len(reps),
        "steps": len(steps),
        "run_s": float(np.median(reps)),
        "step_p50_ms": 1e3 * float(np.percentile(steps, 50)),
        "step_p90_ms": 1e3 * float(np.percentile(steps, 90)),
        "cal_ms": 1e3 * float(np.mean(cal)),
        "rep_s": reps.tolist(),
        "setup_samples_s": setups,
        "failed_frac": res["failed"] / res["attempted"],
    }
    return res, metrics, info


def per_layer(runner):
    a = runner.args
    # two thirds of the budget for the untraced + traced passes, one third
    # for the reference run with one BLAS thread per core
    res = runner.worker("trace", 2.0 * a.seconds / 3.0, MEASURE_THREADS)
    ref = runner.worker("run", a.seconds / 3.0, nproc())
    values = dict(res["metrics"])
    values["ref.run_s_nproc_blas"] = float(np.median(ref["rep_s"]))
    metrics = {name: (values[name], unit) for name, unit in per_layer_names()}
    self_sum = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s") and not k.startswith("config."))
    info = {
        "traced_reps": len(res["rep_s"]),
        "steps_per_rep": len(res["step_s"]) / len(res["rep_s"]),
        "untraced_reps": len(res["untraced_rep_s"]),
        "self_s_sum_plus_unattributed": self_sum + values["trace.unattributed_s"],
        "spans_file": res["spans_file"],
        "reached_through": res["reached_through"],
        "ref_blas_threads": nproc(),
    }
    res["attempted"] += ref["attempted"]
    res["failed"] += ref["failed"]
    res["failures"] += ref["failures"]
    return res, metrics, info


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in ("src/nfisac/__init__.py", "configs") if not (ROOT / p).exists()]
    if missing:
        print(f"perfbench: {ROOT} is not a checkout of the package (missing {missing})", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be >= 1", file=sys.stderr)
        return 2

    outdir = ROOT / ".perfbench_out"
    outdir.mkdir(exist_ok=True)
    runner = Runner(args, outdir)
    try:
        res, metrics, info = (per_layer if args.trace else end_to_end)(runner)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3

    attempted, failed = int(res["attempted"]), int(res["failed"])
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(line, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, info=info, env=res["env"], failures=res["failures"])
    (outdir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {attempted}  failed {failed}")
    for key, value in info.items():
        if key not in ("reached_through", "rep_s"):
            print(f"  {key}: {value}")
    for msg in res["failures"]:
        print(f"  FAIL {msg}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:.6g} {unit}")
    print("env " + json.dumps(res["env"], sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
