"""One unit of benchmark work in a fresh interpreter.

Reads a job (JSON) on stdin, runs it against plumbook (imported from
``PYTHONPATH=src``), checks every answer against ``answers``, and prints one
JSON result line.  Timers start after import.  CLI calls go through
``plumbook.cli.main`` with stdin and stdout swapped for in-memory text, so
``build | check`` and ``build | stabilize`` run exactly as in a shell pipe.

Jobs:

* ``sweep``: warm up on ``warmup``, then build and decide every spec of
  ``specs`` in order, pass after pass until ``seconds`` are up (one pass
  when ``seconds`` is null);
* ``chain``: ``build pretzel SPEC`` then ``stabilize - --count 20``;
* ``hopf``: for each (k, mirror) in ``items``, ``build star 2,...,2
  [--mirror]`` then ``check -``; one pass is one operation.

With ``trace`` set, the outside-in tracer wraps the timed work only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from array import array
from fractions import Fraction

import answers
from tracer import Tracer


def reference_s() -> float:
    """Wall time of a fixed pure-Python task (tuple hashing, dict updates,
    rational arithmetic: the kind of work plumbook does), taken between
    operations as a yardstick of how fast the shared host runs right now."""
    t0 = time.perf_counter()
    seen: dict = {}
    acc = Fraction(0)
    for j in range(1500):
        key = (("B", j % 97), ("G", j % 13), j % 5)
        seen[key] = seen.get(key, 0) + 1
        acc += Fraction(j % 7 + 1, j % 11 + 1)
    return time.perf_counter() - t0


def _cli(argv: list[str], stdin: str = "") -> str:
    import plumbook.cli

    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = plumbook.cli.main(argv)
    finally:
        sys.stdin = saved
    if code != 0:
        raise RuntimeError(f"plumbook {' '.join(argv)} exited with {code}")
    return out.getvalue()


class Run:
    """Per-operation timings, outcomes and output digests of one job."""

    def __init__(self):
        # compact, so a longer run does not inflate the worker's peak RSS
        self.build_s = array("d")
        self.decide_s = array("d")
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.outputs = hashlib.sha256()
        self.reference_s = array("d")

    def record(self, build_s: float, decide_s: float, problems: list[str]) -> None:
        self.attempted += 1
        self.build_s.append(build_s)
        self.decide_s.append(decide_s)
        self.fail(problems)

    def fail(self, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            self.errors.extend(problems[: max(0, 20 - len(self.errors))])


def _sweep_op(coeffs, run: Run | None) -> None:
    from plumbook import openbook, plumbing

    try:
        t0 = time.perf_counter()
        star = plumbing.pretzel_decompose(plumbing.PretzelSpec(tuple(coeffs)))
        _ss, system, pob = plumbing.associated_pob(star)
        t1 = time.perf_counter()
        verdict = openbook.contact_verdict(pob)
        t2 = time.perf_counter()
        outcome = (len(system.pairs), verdict.status.value, plumbing.is_strongly_quasipositive(star))
    except Exception as e:  # a raising operation is a wrong answer, not a crash
        if run is not None:
            run.attempted += 1
            run.fail([f"pretzel({answers.spec_text(coeffs)}): {type(e).__name__}: {e}"])
        return
    if run is not None:
        run.record(t1 - t0, t2 - t1, answers.check_family(coeffs, *outcome))
        run.outputs.update(f"{coeffs} {outcome}\n".encode())


def _chain_op(coeffs, run: Run) -> None:
    try:
        t0 = time.perf_counter()
        built = _cli(["build", "pretzel", answers.spec_text(coeffs)])
        t1 = time.perf_counter()
        stabilized = _cli(["stabilize", "-", "--count", str(answers.CHAIN_COUNT)], built)
        t2 = time.perf_counter()
    except Exception as e:
        run.attempted += 1
        run.fail([f"stabilize pretzel({answers.spec_text(coeffs)}): {type(e).__name__}: {e}"])
        return
    run.record(t1 - t0, t2 - t1, answers.check_chain(coeffs, stabilized))
    run.outputs.update(built.encode() + stabilized.encode())


def _hopf_op(items, run: Run) -> None:
    build_s = decide_s = 0.0
    problems: list[str] = []
    try:
        for k, mirror in items:
            argv = ["build", "star", ",".join(["2"] * k)] + (["--mirror"] if mirror else [])
            t0 = time.perf_counter()
            built = _cli(argv)
            t1 = time.perf_counter()
            checked = _cli(["check", "-"], built)
            t2 = time.perf_counter()
            build_s += t1 - t0
            decide_s += t2 - t1
            problems += answers.check_hopf(k, mirror, built, checked)
            run.outputs.update(built.encode() + checked.encode())
    except Exception as e:
        run.attempted += 1
        run.fail([f"star pass: {type(e).__name__}: {e}"])
        return
    run.record(build_s, decide_s, problems)


def execute(job: dict) -> dict:
    import plumbook.cli  # noqa: F401  (loads every layer before timing)

    run = Run()
    kind = job["kind"]
    if kind == "sweep":
        for coeffs in job["warmup"]:
            _sweep_op(coeffs, None)
    tracer = Tracer() if job.get("trace") else None
    if tracer is not None:
        tracer.install()
    try:
        if kind == "sweep":
            deadline = None if job["seconds"] is None else time.perf_counter() + job["seconds"]
            while True:
                for i, coeffs in enumerate(job["specs"]):
                    if i % 128 == 0:
                        run.reference_s.append(reference_s())
                    _sweep_op(coeffs, run)
                if deadline is None or time.perf_counter() >= deadline:
                    break
        elif kind in ("chain", "hopf"):
            run.reference_s.extend(reference_s() for _ in range(3))
            if kind == "chain":
                _chain_op(job["spec"], run)
            else:
                _hopf_op(job["items"], run)
            run.reference_s.extend(reference_s() for _ in range(3))
        else:
            raise ValueError(f"unknown job kind {kind!r}")
    finally:
        if tracer is not None:
            tracer.uninstall()
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "build_s": list(run.build_s),
        "decide_s": list(run.decide_s),
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": run.errors,
        "outputs_sha256": run.outputs.hexdigest(),
        "maxrss_kb": maxrss_kb,
        "reference_s": list(run.reference_s),
        "trace": None,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        if job.get("spans_out"):
            tracer.write_spans(job["spans_out"])
    return result


if __name__ == "__main__":
    print(json.dumps(execute(json.loads(sys.stdin.read()))))
