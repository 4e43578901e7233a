"""Smoke tests for hcppbench (outside the tier-1 suite).

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/hcppbench

Each workload runs for about 2 s per mode, so the whole file takes a
few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PLAN = json.loads((HERE / "plan.json").read_text())
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "hcppbench" / "run.py"),
         *args], cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "1", "--seconds", "2",
                "--trace", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in expected)
    for metric in expected:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], float)
    if trace == "0":
        assert all(result["metrics"][m["name"]]["value"] > 0
                   for m in expected)
        assert "ops_attempted = " in proc.stdout


def test_plan_covers_the_spec():
    assert list(PLAN["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    names = set(PLAN["workloads"])
    assert sorted(PLAN["per_layer"]) == sorted(m["name"]
                                               for m in SPEC["per_layer"])
    for metric, entry in PLAN["per_layer"].items():
        assert set(entry["moves"]) <= end_to_end, metric
        assert set(entry["on"]) | set(entry["flat_on"]) <= names, metric
        assert entry["moves"] or entry["note"], metric


def test_lost_acknowledged_upload_fails_the_run(monkeypatch, capsys):
    import run
    import workloads

    ingest = workloads.WORKLOAD_FUNCTIONS["ingest"]

    def ingest_then_lose_one(dep, ctx, seconds):
        measured = ingest(dep, ctx, seconds)
        check = measured.final_check

        def final_check(d, c):
            lines = check(d, c)
            # An "acknowledged" collection id the server never stored:
            # what a lost journal entry looks like after a restart.
            lost = bytes(b ^ 0xFF for b in d.home_cid)
            workloads.verify_collections(d, c, d.patient, [(lost, d.home)])
            return lines

        measured.final_check = final_check
        return measured

    monkeypatch.setitem(workloads.WORKLOAD_FUNCTIONS, "ingest",
                        ingest_then_lose_one)
    code = run.main(["--workload", "ingest", "--seed", "1", "--seconds",
                     "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] == 1


def test_children_get_the_trace_dir(monkeypatch, tmp_path):
    import run

    commands = []

    def no_child(command, **_kwargs):
        commands.append(command)
        return subprocess.CompletedProcess(command, 1, "", "")

    monkeypatch.setattr(run.subprocess, "run", no_child)
    assert run.main(["--trace", "1", "--trace-dir", str(tmp_path)]) == 1
    assert commands[0][-2:] == ["--trace-dir", str(tmp_path)]


def test_wrong_plaintext_counts_as_failure(tmp_path):
    import workloads

    tally = workloads.Tally()
    ctx = workloads.Context(tally)
    dep = workloads.Deployment(1, tmp_path / "data", trace=False)
    try:
        dep.start(workloads.generated(1, "home", workloads.HOME_FILES))
        keyword = sorted(dep.home.index.keywords())[0]
        expected = workloads.expected_files([dep.home], keyword)
        assert expected, "the home collection must match its own keyword"
        wrong = [expected[0][:-1] + bytes([expected[0][-1] ^ 1])] \
            + expected[1:]

        def retrieve():
            return workloads.retrieval.common_case_retrieval(
                dep.patient, dep.sserver, dep.transport, [keyword])

        assert ctx.run("retrieve", "patient", retrieve,
                       lambda r: workloads.same_files(r.files, expected))
        assert not ctx.run("retrieve", "patient", retrieve,
                           lambda r: workloads.same_files(r.files, wrong))
    finally:
        dep.stop()
    assert (tally.attempted, tally.failed, tally.wrong) == (2, 1, 1)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "ingest", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
