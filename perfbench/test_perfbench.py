"""The benchmark's own tests, at tiny sizes.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from coronagrid import MultigridSpec, graph, multigrid  # noqa: E402


def tiny_pass(workload, tmp_path, traced, seed=3):
    return workloads.run_pass(workload, seed, workloads.TINY[workload],
                              tmp_path / ("traced" if traced else "plain"), traced)


def bindings():
    """Every callable bound in a coronagrid module, plus the traced method."""
    out = {(name, key): value for name, mod in sys.modules.items()
           if name == "coronagrid" or name.startswith("coronagrid.")
           for key, value in vars(mod).items() if callable(value)}
    out[("CoronaSequence", "corona")] = graph.CoronaSequence.__dict__["corona"]
    return out


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_wrappers_removed_after_traced_pass(workload, tmp_path):
    before = bindings()
    tiny_pass(workload, tmp_path, traced=True)
    after = bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_passes_agree(workload, tmp_path):
    plain = tiny_pass(workload, tmp_path, traced=False)
    traced = tiny_pass(workload, tmp_path, traced=True)
    for key in ("digests", "work", "attempted", "failed"):
        assert traced[key] == plain[key], key
    assert plain["work"] > 0
    assert plain["failed"] == 0
    assert run.consistency_problems([dict(plain, traced=False),
                                     dict(traced, traced=True)]) == []


def test_singular_spec_is_counted_not_fatal(tmp_path, monkeypatch):
    singular = MultigridSpec.dfold(5, 0.0)
    monkeypatch.setitem(
        workloads.WORKLOADS, "pentagrid-converge",
        (lambda seed, sizes: (singular, graph.Patch(frozenset([multigrid.nearest_crossing(singular)]))),
         workloads.pentagrid_run))
    result = tiny_pass("pentagrid-converge", tmp_path, traced=True)
    assert result["attempted"] == 3
    assert result["failed"] == 3          # the refused growth and the two steps needing it
    grow = result["failures"][0]
    assert (grow["op"], grow["kind"]) == ("grow", "SingularMultigrid")
    assert grow["spec"].startswith("normals: [")
    assert result["layers"]["multigrid.singular_refusals"] == 1


def test_self_time_subtracts_children():
    ticks = iter(range(100))
    t = tracer.Tracer(clock=lambda: float(next(ticks)))
    leaf = t.leaf_wrapper("graph.neighbors", lambda: None)

    def outer():
        leaf()                                  # 1 tick of leaf time
        t.span("inner", lambda: None)           # 1 tick of child span
    t.span("outer", outer)
    assert t.duration("outer") == 5.0
    assert t.self_time("outer") == 3.0
    assert t.leaf_calls("graph.neighbors", ("outer",)) == 1
    assert t.leaf_busy("graph.neighbors") == 1.0


def test_disagreeing_passes_are_not_correct():
    base = {"traced": False, "digests": {"a": "1"}, "work": 5, "attempted": 2,
            "failed": 0, "failures": []}
    other = dict(base, digests={"a": "2"})
    failed_check = dict(base, failures=[{"op": "x", "kind": "CheckFailed", "message": "m"}])
    assert run.consistency_problems([base, base]) == []
    assert run.consistency_problems([base, other])
    assert run.consistency_problems([failed_check])


def test_run_counts_operations_of_one_pass(tmp_path, monkeypatch, capsys):
    failure = {"op": "d7.grow", "kind": "SingularMultigrid", "message": "m", "spec": "s"}
    one = {"traced": False, "digests": {"a": "1"}, "work": 5, "attempted": 3, "failed": 1,
           "failures": [failure], "setup_s": 0.1, "wall_s": 1.0, "peak_rss_mb": 20.0,
           "op_seconds": {}}
    monkeypatch.setattr(run, "OUT", tmp_path)
    for count in (3, 4):
        monkeypatch.setattr(run, "run_passes", lambda *args: [dict(one)] * count)
        assert run.main(["--workload", "mixed-grids", "--seed", "7", "--seconds", "1"]) == 0
        result = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert (result["correct"], result["attempted"], result["failed"]) == (True, 3, 1)


def test_benchmark_json_names_every_metric(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    layers = set(tiny_pass("mixed-grids", tmp_path, traced=True)["layers"])
    layers |= {"cli.import_s", "failed_ratio", "trace.overhead_ratio"}   # added per run
    assert {m["name"] for m in spec["per_layer"]} == layers
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mixed-grids", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
