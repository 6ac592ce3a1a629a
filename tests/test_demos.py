"""The demos run as scripts and print what they always printed."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, digest",
    [
        (
            "stabilization_tour.py",
            "c3c3adbc7e4ee03d79fcd3af4d88e4879af893da13a74b67c8d9423e2307bf0d",
        ),
        (
            "stevedore_walkthrough.py",
            "e8371f08e4257ff5fb5e1bceef7ca174c23190fd0a0072860757522bf0121cf6",
        ),
    ],
)
def test_demo_stdout_is_pinned(script, digest):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        capture_output=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    ).stdout
    assert hashlib.sha256(out).hexdigest() == digest
