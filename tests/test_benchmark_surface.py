"""The benchmark's use of the library, in the tier-1 suite.

perfbench/ imports names and reads attributes of patternlab that no other
code uses. Its own tests are not part of this suite, so this module runs
each benchmark workload's tiny pass in-process, untraced and then traced,
as perfbench/worker.py does. A renamed name or attribute then fails here.
Nothing is written under perfbench/: every pass works in a temporary
directory, and the benchmark's modules are imported without bytecode.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
WORKLOAD_NAMES = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _tree(path: Path) -> set:
    return {p.relative_to(path) for p in path.rglob("*")}


@pytest.fixture(scope="module")
def workloads():
    before = _tree(PERFBENCH)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PERFBENCH))
    try:
        module = importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = saved
    yield module
    assert _tree(PERFBENCH) == before


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_tiny_pass_runs_clean(workloads, tmp_path, name):
    workload = workloads.WORKLOADS[name]("tiny", 0, tmp_path)
    workload.warm_up()
    result = workload.run()
    assert result.attempted >= 1
    assert result.failures == []
    assert result.other_failures == []
    _, replay_failures, _ = workload.traced(result)
    assert replay_failures == []
