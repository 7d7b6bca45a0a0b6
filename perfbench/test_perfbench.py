"""Smoke tests of the benchmark itself, at tiny input sizes.

    python3 -m pytest perfbench

They check the output schema against BENCHMARK.json, that tracing leaves the
outputs byte-identical, that reruns with one seed agree, and that the
benchmark refuses to run without the library's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from bench_workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    work = tmp_path_factory.mktemp("work")
    return {
        (name, trace): run.measure(name, seed=3, seconds=0, trace=trace, size="tiny", work=work)
        for name in WORKLOADS
        for trace in (0, 1)
    }


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_result_matches_spec(records, name):
    line = run.result_line(records[name, 0])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert {k: v["unit"] for k, v in line["metrics"].items()} == _declared("end_to_end")
    assert all(v["value"] > 0 for v in line["metrics"].values())
    json.dumps(line, allow_nan=False)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_result_matches_spec(records, name):
    record = records[name, 1]
    line = run.result_line(record)
    assert line["correct"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == _declared("per_layer")
    json.dumps(line, allow_nan=False)
    # an untraced and a traced iteration ran, and wrote the same bytes
    plain = [r for r in record["runs"] if not r["traced"]]
    traced = [r for r in record["runs"] if r["traced"]]
    assert plain and traced
    assert traced[0]["digests"] == plain[0]["digests"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_same_digests(records, name):
    assert records[name, 0]["digests"] == records[name, 1]["digests"]


def test_tracer_restores_the_library(records):
    import limitcone
    from limitcone import limits, projgeom

    assert limitcone.proj_distance is projgeom.proj_distance
    assert limits.proj_distance is projgeom.proj_distance
    assert not hasattr(projgeom.proj_distance, "__wrapped__")
    assert not hasattr(vars(projgeom.ProjectivePoint)["from_vector"].__func__, "__wrapped__")


def test_layer_metrics_are_observed(records):
    sl2 = records["sl2-group-limit-set", 1]["per_layer"]
    assert sl2["projgeom.proj_distance.calls"] > 0
    assert sl2["limits.estimate_limit_set.points_in"] >= sl2["limits.estimate_limit_set.points_kept"] > 0
    sl4 = records["sl4-forge-cone", 1]["per_layer"]
    assert sl4["projections.product_jordan.calls"] == 1000  # the forge report's words
    assert sl4["cones.cone_distance.calls"] > 0
    sl3 = records["sl3-sampled-certify", 1]["per_layer"]
    assert sl3["schottky.in_open_semigroup.calls"] == 2 * 4 * 2  # modes x elements x pairs
    assert sl3["proximality.analytic_contraction_bounds.calls"] > 0


def test_refuses_without_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sl2-group-limit-set",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
