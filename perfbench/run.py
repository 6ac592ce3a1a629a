"""plumbook benchmark: one command, three closed-loop single-client workloads.

    python3 perfbench/run.py --workload family_sweep --seed 1 --seconds 35 --trace 0

Workloads (see README.md in this directory for why each was chosen):

* family_sweep     the 2680 pretzel specs of acceptance test 2, in a seeded
                   order, decided in one warm worker process;
* stabilize_chain  ``plumbook build pretzel SPEC | plumbook stabilize --count
                   20`` for a seeded family member, one fresh worker per sample;
* hopf_star        ``plumbook build star 2,...,2 [--mirror] | plumbook check``
                   for k = 4..8 in seeded order, one fresh worker per pass.

Worker processes run one after another; nothing runs in parallel.  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of the outside-in tracer,
measured in their own processes and alternated with untraced processes doing
the same work, whose difference is the tracing overhead.  Every answer is
checked against ``answers``; the command exits 1 when one is wrong and 2
when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import answers
from tracer import LAYER_FUNCTIONS
from worker import reference_s

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SPANS_DIR = ROOT / ".perfbench"
WORKLOADS = ("family_sweep", "stabilize_chain", "hopf_star")
SETUP_REPS = 15
# Time of worker.reference_s on an uncontended 2.1 GHz Xeon vCPU under
# Python 3.11.  End-to-end times are scaled by REFERENCE_S over the run's
# median reference time, so they read as times at that speed and a shared
# host running slower or faster during a run cancels out.
REFERENCE_S = 0.0065
WORKER_TIMEOUT_S = 150

# The workload-specific name each generic end-to-end metric stands for.
ALIASES = {
    "family_sweep": {
        "ops_per_s": "sweep.verdicts_per_s",
        "op_p50_ms": "sweep.verdict_p50_ms",
    },
    "stabilize_chain": {"decide_ms": "chain.run_s (stabilize --count 20)"},
    "hopf_star": {"build_ms": "hopf.build_s", "decide_ms": "hopf.check_s"},
}

# Layer functions reported with total time instead of self time.
TOTAL_TIME = ("openbook.veering_report", "openbook.contact_verdict", "openbook.positive_stabilization")

# Which end-to-end metric, on which workload, each per-layer metric should move.
LAYER_TARGETS = {
    "surface.validate": "ops_per_s on family_sweep, decide_ms on stabilize_chain",
    "arcs.reduce": "ops_per_s on family_sweep",
    "arcs.minimal_position": "decide_ms on stabilize_chain and hopf_star",
    "arcs.is_embedded": "build_ms and decide_ms on hopf_star",
    "arcs.twist_about_band": "build_ms and decide_ms on hopf_star",
    "arcs.first_divergence": "decide_ms on hopf_star, op_p50_ms on family_sweep",
    "openbook.validate_pob": "op_p50_ms on all three workloads",
    "openbook.veering_report": "decide_ms on stabilize_chain",
    "openbook.contact_verdict": "decide_ms on stabilize_chain",
    "openbook.positive_stabilization": "decide_ms on stabilize_chain",
    "plumbing": "ops_per_s on family_sweep, build_ms on hopf_star",
    "documents": "decide_ms on stabilize_chain and hopf_star",
    "cli.main": "decide_ms on stabilize_chain",
    "workload": "a property of the inputs, not a cost",
    "trace": "the cost of tracing itself",
}


class BenchError(Exception):
    """The benchmark could not run (as opposed to a wrong answer)."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(job: dict) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER)],
            input=json.dumps(job),
            capture_output=True,
            text=True,
            cwd=ROOT,
            env=_env(),
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{job['kind']} worker ran past {WORKER_TIMEOUT_S} s") from e
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{job['kind']} worker failed:\n{proc.stderr.strip()[-3000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def measure_setup() -> tuple[float, list[float]]:
    """Median wall time of a fresh interpreter importing plumbook.cli, and
    reference times taken between the imports."""
    times = []
    refs = []
    for _ in range(SETUP_REPS):
        refs += [reference_s() for _ in range(3)]
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", "import plumbook.cli"],
            capture_output=True, text=True, cwd=ROOT, env=_env(), timeout=60,
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"cannot import plumbook.cli:\n{proc.stderr.strip()[-3000:]}")
    return statistics.median(times), refs


def make_job(workload: str, seed: int) -> dict:
    """The generated inputs of one unit of work; only these reach plumbook."""
    if workload == "family_sweep":
        order = answers.seeded_family(seed)
        # every presentation (one per tail length) plus a slice of the order
        firsts = list({len(s): s for s in reversed(order)}.values())
        return {"kind": "sweep", "specs": order, "warmup": firsts + order[:200], "seconds": None}
    if workload == "stabilize_chain":
        return {"kind": "chain", "spec": answers.seeded_family(seed)[0]}
    return {"kind": "hopf", "items": answers.hopf_items(seed)}


def untraced_runs(workload: str, seed: int, seconds: int) -> list[dict]:
    job = make_job(workload, seed)
    if workload == "family_sweep":
        return [run_worker({**job, "seconds": seconds})]
    results: list[dict] = []
    deadline = time.perf_counter() + seconds
    while not results or time.perf_counter() < deadline:
        results.append(run_worker(job))
    return results


def _ms(xs: list[float]) -> float:
    return statistics.median(xs) * 1000


def _tail(xs: list[float]):
    """The highest of p99 and p90 with at least ten samples beyond it."""
    for pct in (99, 90):
        if len(xs) * (100 - pct) / 100 >= 10:
            return pct, statistics.quantiles(xs, n=100)[pct - 1] * 1000
    return None


def end_to_end(results: list[dict], setup: tuple[float, list[float]]) -> tuple[dict, list[str]]:
    build = [x for r in results for x in r["build_s"]]
    decide = [x for r in results for x in r["decide_s"]]
    ops = [b + d for b, d in zip(build, decide)]
    if not ops:
        raise BenchError("no operation completed")
    setup_s, setup_refs = setup
    setup_scale = REFERENCE_S / statistics.median(setup_refs)
    refs = [x for r in results for x in r["reference_s"]]
    scale = REFERENCE_S / statistics.median(refs)
    # a rate is a mean, so it is scaled by the mean reference time
    rate_scale = REFERENCE_S / statistics.fmean(refs)
    metrics = {
        "setup_s": (setup_s * setup_scale, "s"),
        "ops_per_s": (len(ops) / sum(ops) / rate_scale, "1/s"),
        "op_p50_ms": (_ms(ops) * scale, "ms"),
        "build_ms": (_ms(build) * scale, "ms"),
        "decide_ms": (_ms(decide) * scale, "ms"),
        "peak_rss_mb": (statistics.median(r["maxrss_kb"] for r in results) / 1024, "MB"),
    }
    notes = [
        f"samples: {len(ops)} operations in {len(results)} worker process(es)",
        f"host speed scale {scale:.4f} (setup {setup_scale:.4f}); unscaled: setup_s {setup_s:.4f}, "
        f"op_p50_ms {_ms(ops):.4f}, build_ms {_ms(build):.4f}, decide_ms {_ms(decide):.4f}",
    ]
    tail = _tail(ops)
    if tail:
        notes.append(f"op_p{tail[0]}_ms {tail[1] * scale:.4f} ms scaled ({len(ops)} samples)")
    return metrics, notes


def per_layer(workload: str, seed: int, seconds: int) -> tuple[dict, list[dict]]:
    """Alternate untraced and traced workers on one fixed unit of work."""
    job = make_job(workload, seed)
    SPANS_DIR.mkdir(exist_ok=True)
    spans_out = str(SPANS_DIR / f"spans-{workload}.json")
    plain: list[dict] = []
    traced: list[dict] = []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        pair = [(plain, job), (traced, {**job, "trace": True, "spans_out": spans_out if not traced else None})]
        if len(traced) % 2:
            pair.reverse()
        for sink, j in pair:
            sink.append(run_worker(j))
    summaries = [r["trace"] for r in traced]
    counts = [{q: s["layers"][q]["calls"] for q in LAYER_FUNCTIONS} for s in summaries]
    if any(c != counts[0] for c in counts):
        raise BenchError("traced workers doing the same work made different call counts")
    first = summaries[0]
    layers = {q: first["layers"][q] for q in LAYER_FUNCTIONS}
    for q in LAYER_FUNCTIONS:
        for key in ("self_s", "total_s"):
            layers[q][key] = statistics.median(s["layers"][q][key] for s in summaries)

    def share(num, den):
        return num / den if den else 0.0

    metrics = {}
    for q in LAYER_FUNCTIONS:
        metrics[f"{q}.calls"] = (layers[q]["calls"], "count")
        key = "total_s" if q in TOTAL_TIME else "self_s"
        metrics[f"{q}.{key}"] = (layers[q][key], "s")
        if q == "surface.validate":
            metrics["surface.validate.per_presentation"] = (
                share(layers[q]["calls"], first["distinct_presentations"]), "ratio")
        elif q == "arcs.reduce":
            metrics["arcs.reduce.changed_ratio"] = (share(first["reduce_changed"], layers[q]["calls"]), "ratio")
        elif q == "openbook.validate_pob":
            metrics["openbook.validate_pob.per_book"] = (
                share(layers[q]["calls"], first["books_validated"]), "ratio")
    metrics["documents.bytes_in"] = (first["bytes_in"], "bytes")
    metrics["documents.bytes_out"] = (first["bytes_out"], "bytes")
    metrics["workload.longest_word"] = (first["longest_word"], "letters")
    metrics["workload.long_word_share"] = (share(first["long_word_queries"], first["word_queries"]), "ratio")
    metrics["workload.distinct_presentations"] = (first["distinct_presentations"], "count")
    metrics["workload.distinct_books"] = (first["distinct_books_decided"], "count")
    wall = lambda r: sum(r["build_s"]) + sum(r["decide_s"])  # noqa: E731
    untraced_s = statistics.median(wall(r) for r in plain)
    traced_s = statistics.median(wall(r) for r in traced)
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.traced_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return metrics, plain + traced


def _target(name: str) -> str:
    for prefix in sorted(LAYER_TARGETS, key=len, reverse=True):
        if name.startswith(prefix):
            return LAYER_TARGETS[prefix]
    return ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "plumbook" / "cli.py").is_file():
        sys.stderr.write(f"error: no plumbook sources under {ROOT / 'src'}\n")
        return 2
    try:
        if args.trace:
            metrics, results = per_layer(args.workload, args.seed, args.seconds)
            notes = [f"spans: {SPANS_DIR.name}/spans-{args.workload}.json"]
        else:
            setup = measure_setup()
            results = untraced_runs(args.workload, args.seed, args.seconds)
            metrics, notes = end_to_end(results, setup)
    except BenchError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    aliases = ALIASES[args.workload]
    for name, (value, unit) in metrics.items():
        extra = aliases.get(name, "") if not args.trace else f"-> {_target(name)}"
        print(f"  {name:40s} {value!r:>24} {unit:8s} {extra}")
    for line in notes:
        print(f"  {line}")
    print(f"  wrong_share {failed / attempted!r} ({failed} of {attempted} operations)")
    for r in results:
        for err in r["errors"]:
            print(f"  wrong: {err}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
