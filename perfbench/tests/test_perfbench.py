"""Self-tests of the benchmark (kept out of the main suite).

    python3 -m pytest perfbench/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import answers  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    return proc, json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc, result = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }


def _job(workload):
    job = run.make_job(workload, 5)
    if workload == "family_sweep":
        job = {**job, "specs": job["specs"][:120], "warmup": job["warmup"][:4]}
    return job


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_and_untraced_runs_give_identical_outputs_and_counts(workload):
    job = _job(workload)
    plain = run.run_worker(job)
    traced = [run.run_worker({**job, "trace": True}) for _ in range(2)]
    for r in (plain, *traced):
        assert r["failed"] == 0, r["errors"]
        assert r["outputs_sha256"] == plain["outputs_sha256"]
        assert r["attempted"] == plain["attempted"]
    calls = [{q: s["calls"] for q, s in r["trace"]["layers"].items()} for r in traced]
    assert calls[0] == calls[1]
    assert calls[0]["cli.main"] or workload == "family_sweep"


def test_known_answers_need_no_plumbook_and_match_the_acceptance_family():
    code = "import sys, answers; print(any(m.startswith('plumbook') for m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=BENCH)
    assert out.stdout.strip() == "False"
    assert len(answers.family_specs()) == 2680
    assert sorted(answers.seeded_family(7)) == sorted(answers.family_specs())


def test_known_answers_reject_wrong_verdicts_and_bytes():
    assert answers.check_family((-3, 3, 1), 1, "NonzeroTight", False) == []
    assert answers.check_family((-3, 3, 1), 1, "Unknown", False)
    assert answers.check_family((-3, 3, 1), 1, "NonzeroTight", True)
    good = run.run_worker({"kind": "chain", "spec": [-3, 5, 1]})
    assert good["failed"] == 0
    report = {"kind": "report", "version": 1, "payload": {
        "chi": [-1 - i for i in range(21)],
        "steps": [{"contact": "NonzeroTight"}] * 21,
    }}
    # right chi and verdicts, but not the pinned bytes
    assert answers.check_chain((-3, 5, 1), json.dumps([report])) == [
        "stabilize pretzel(-3,5,1): stdout differs from the pinned bytes"
    ]
    assert answers.check_hopf(4, False, "{}", "not json")


def test_exits_nonzero_without_a_result_when_sources_are_missing(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hopf_star", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
