"""Tests of the benchmark itself, at the smallest size (one round):

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys

import pytest

from paths import BENCH, REFERENCE, ROOT, use_source_tree

use_source_tree()
import run  # noqa: E402
import workloads  # noqa: E402
from rm2cover import affine  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(capsys, workload: str = "equiv", seed: int = 3, trace: int = 0):
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)])
    out = capsys.readouterr().out
    return code, out, json.loads(out.splitlines()[-1])


def test_spec_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_reference_covers_every_input_key():
    reference = json.loads(REFERENCE.read_text())
    for name, w in workloads.WORKLOADS.items():
        assert set(reference[name]) == {workloads.key_text(k) for k in w.keys()}


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_end_to_end_metric_is_printed_with_its_unit(capsys, workload):
    code, out, result = bench(capsys, workload=workload)
    assert code == 0 and result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name in ("setup_s", "work_per_s", "op_p50_s", "op_tail_s", "peak_rss_mb", "error_rate"):
        assert any(line.startswith(name) for line in out.splitlines()), name


def test_tampered_reference_fails(capsys, monkeypatch, tmp_path):
    reference = json.loads(REFERENCE.read_text())
    reference["equiv"] = {key: "0" * 16 for key in reference["equiv"]}
    tampered = tmp_path / "reference.json"
    tampered.write_text(json.dumps(reference))
    monkeypatch.setattr(run, "REFERENCE", tampered)
    code, _, result = bench(capsys)
    assert code == 1 and not result["correct"] and result["failed"] == result["attempted"]


def test_tampered_output_fails(capsys, monkeypatch):
    search = affine.equivalence_search

    def wrong(f1, f2, **kwargs):
        result = search(f1, f2, **kwargs)
        flipped = affine.NOT_FOUND if result.status == affine.FOUND else affine.FOUND
        return affine.EquivalenceResult(flipped, result.witness, result.nodes, result.reason)

    monkeypatch.setattr(affine, "equivalence_search", wrong)
    code, _, result = bench(capsys)
    assert code == 1 and result["failed"] == result["attempted"] > 0


def test_raising_operation_fails(capsys, monkeypatch):
    def boom(f1, f2, **kwargs):
        raise RuntimeError("filter contradiction")

    monkeypatch.setattr(affine, "equivalence_search", boom)
    code, _, result = bench(capsys)
    assert code == 1 and result["failed"] == result["attempted"] > 0


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_seed_changes_the_inputs_deterministically(workload):
    w = workloads.WORKLOADS[workload]

    def plan(seed):
        rounds = w.rounds(seed)
        return [next(rounds) for _ in range(3)]

    assert plan(5) == plan(5)
    assert plan(5) != plan(6)
    key = plan(5)[0][0]
    assert workloads.digest(repr(w.make_input(key))) == workloads.digest(repr(w.make_input(key)))


def test_traced_search_reports_every_per_layer_metric(capsys):
    code, out, result = bench(capsys, workload="search", trace=1)
    assert code == 0 and result["correct"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["trace.ops"] >= 1 and metrics["search.candidates"] == workloads.Search.budget
    # the threads=2 record stream matched the one-thread stream, or the run would have failed
    assert metrics["search.threads2_speedup"] > 0
    assert metrics["search.orbit_member_share"] == 1.0
    assert 0.9 < metrics["trace.layer_share"] <= 1.0


def test_fails_without_the_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, "perfbench/run.py", "--workload", "equiv", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and not done.stdout.strip()
