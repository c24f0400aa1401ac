"""The benchmark in perfbench/ still runs against this checkout.

perfbench reaches into the package by name: its tracer looks up every traced
layer, and its workloads call the package's functions and compare their
outputs with stored references. A renamed or removed function, or an output
that moved, fails here rather than in a benchmark run.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
WORKLOAD_NAMES = ["squint-focal", "music-trials", "trajectory-focus", "isac-loop"]


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's layers, spans and workloads modules, imported as its
    worker imports them: as top-level modules of its directory."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import layers
        import spans
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return layers, spans, workloads


def test_tracer_finds_every_traced_layer(perfbench):
    layers, spans, workloads = perfbench
    assert sorted(workloads.WORKLOADS) == sorted(WORKLOAD_NAMES)
    tracer = spans.Tracer(*layers.tracer_args())
    tracer.install()
    try:
        reached = set(tracer.reached_through())
    finally:
        tracer.uninstall()
    assert {f"{module}.{func}" for module, func in layers.LAYERS} <= reached


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_rep_matches_its_references(perfbench, tmp_path, name):
    # seed 1 has stored outputs for every workload in refs.json
    _, _, workloads = perfbench
    refs = json.loads((PERFBENCH / "refs.json").read_text(encoding="utf-8"))
    assert "1" in refs[name]
    workload = workloads.WORKLOADS[name](ROOT / "configs", refs)
    workload.setup(1, tmp_path)
    steps = []
    out = workload.rep(steps)
    assert steps
    assert workload.check(out) == []
