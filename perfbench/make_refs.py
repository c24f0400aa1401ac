"""Regenerate refs.json: one repetition's outputs per workload per seed.

    python3 perfbench/make_refs.py

Seed 1 was used while building the benchmark; seed 7 is held out.

Run from the root of a checkout. Reference outputs pin the package's
behaviour at the commit they were made on; regenerate them only when a
change is meant to alter results, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REF_SEEDS = (1, 7)


def main():
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    scratch = ROOT / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    path = HERE / "refs.json"
    refs = {}
    for name in WORKLOADS:
        for seed in REF_SEEDS:
            workdir = Path(tempfile.mkdtemp(prefix="refs-", dir=scratch))
            try:
                workload = WORKLOADS[name](ROOT / "configs", {})
                workload.setup(seed, workdir)
                out = workload.rep([])
                fails = workload.invariants(out)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if fails:
                raise SystemExit(f"{name} seed {seed} fails its invariants: {fails}")
            refs.setdefault(name, {})[str(seed)] = out
            print(f"{name} seed {seed}: recorded", flush=True)
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
