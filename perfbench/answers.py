"""Inputs and known answers for the benchmark, written without plumbook.

Nothing here imports the package under test: the expected verdicts follow
from rules stated in the package's documentation and acceptance tests, and
the pinned digests are the stdout bytes the CLI printed at the commit that
introduced the benchmark.  Every check returns a list of problems; an empty
list means the answer is right.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random

# Middle coefficients of acceptance test 2: odd values in [-9, 9] without
# -3, -1 and 1, so no band is flat and no non-leading band is a Hopf band.
FAMILY_TAIL_VALUES = (-9, -7, -5, 3, 5, 7, 9)
CHAIN_COUNT = 20
HOPF_KS = (4, 5, 6, 7, 8)

# sha256 of `plumbook stabilize FILE --count 20` stdout, keyed by the number
# of bands of the pretzel member.  The stabilized book does not carry the
# star, and every member with k bands has the same book, so k fixes the bytes.
CHAIN_DIGESTS = {
    2: "2cc2969ae54b811404e5edf23a4ddebb2812ff86512ec230e558a0962ff206f0",
    3: "433d15d74211e32aa2f10033322a842c3f88c03d3fb9a9a82334e8f932d27887",
    4: "8a33ec84004c24937231d50a986f7bf028788b635ede6a0121ef1645acf08e98",
    5: "f18786233313bd0c21519a515be7ad506e3e6f18a7a5e0edd614eddce4ac9925",
}

# sha256 of `plumbook check` stdout on `plumbook build star 2,...,2 [--mirror]`,
# keyed by (k, mirror).
HOPF_CHECK_DIGESTS = {
    (4, False): "719e47148c26b3c697fda027c4bb9957618f7bdc582bc31b9aa5feb73825a57b",
    (4, True): "84e8ed82fc624c79382ce009d9509d0a7e84e107d277e7e65437fd571f6c67d7",
    (5, False): "ad70323508f77e3eeeea0dc9f2a8eecb9a4b5651e2e1f9a388cd61de20c8465e",
    (5, True): "2ff103e02e12b6bf2620590fe7ea9637b79f9ce184eb8cad5fbd38b32080adb3",
    (6, False): "f6823c0596764ee81c8bc94f86d128d0dc92e701c3dc9e2d1363f1402aad322c",
    (6, True): "e669b271e56467c48631af3843a0cd8d98d2da7b13fa54519b47ee5ccae395ea",
    (7, False): "9985b05e9a4875b5c3810fb98c2624f85702cb9b9f656be7a1a5c057a86e4d8b",
    (7, True): "830f268bbdb104da9801ce6b65690a56cdbed02d23bd3c7505d489a36c81ed00",
    (8, False): "0d8b41cbcf255f1216fb2ea716ed2321739a5e9356c790cd8c65cffbcaa6d0de",
    (8, True): "a804b1a7a7d28a21f1c261b15ab9246ec1a04c79e6b5c11a8a172e77b9d0a413",
}


def family_specs() -> list[tuple[int, ...]]:
    """The 2680 pretzel specs (-3, *tail, 1) of acceptance test 2."""
    return [
        (-3, *tail, 1)
        for length in range(1, 5)
        for tail in itertools.product(FAMILY_TAIL_VALUES, repeat=length)
        if any(n >= 3 for n in tail)
    ]


def seeded_family(seed: int) -> list[tuple[int, ...]]:
    specs = family_specs()
    random.Random(seed).shuffle(specs)
    return specs


def hopf_items(seed: int) -> list[tuple[int, bool]]:
    """One pass of the Hopf-star workload: every k, plain and mirrored."""
    items = [(k, mirror) for k in HOPF_KS for mirror in (False, True)]
    random.Random(seed).shuffle(items)
    return items


def spec_text(coeffs) -> str:
    return ",".join(str(c) for c in coeffs)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_family(coeffs, product_disks: int, status: str, sqp: bool) -> list[str]:
    """Every family member has one product disk (its leading Hopf band), is
    NonzeroTight, and is not strongly quasipositive (it has a negative band)."""
    problems = []
    if product_disks != 1:
        problems.append(f"{product_disks} product disks, expected 1")
    if status != "NonzeroTight":
        problems.append(f"verdict {status}, expected NonzeroTight")
    if sqp:
        problems.append("reported SQP, expected not SQP")
    return [f"pretzel({spec_text(coeffs)}): {p}" for p in problems]


def _payloads(stdout: str) -> dict:
    data = json.loads(stdout)
    if isinstance(data, dict):
        data = [data]
    return {d["kind"]: d["payload"] for d in data}


def check_chain(coeffs, stdout: str) -> list[str]:
    """Each stabilization lowers chi by one and keeps the seed book's verdict,
    NonzeroTight for every family member; the bytes match the pinned digest."""
    k = len(coeffs) - 1
    want_chi = [1 - k - i for i in range(CHAIN_COUNT + 1)]
    problems = []
    try:
        report = _payloads(stdout)["report"]
        chi = report["chi"]
        verdicts = [s["contact"] for s in report["steps"]]
    except (ValueError, KeyError, TypeError) as e:
        return [f"stabilize pretzel({spec_text(coeffs)}): unreadable output ({e})"]
    if chi != want_chi:
        problems.append(f"chi {chi}, expected {want_chi}")
    if verdicts != ["NonzeroTight"] * (CHAIN_COUNT + 1):
        problems.append(f"verdicts {verdicts}, expected NonzeroTight throughout")
    if digest(stdout) != CHAIN_DIGESTS.get(k):
        problems.append("stdout differs from the pinned bytes")
    return [f"stabilize pretzel({spec_text(coeffs)}): {p}" for p in problems]


def check_hopf(k: int, mirror: bool, built: str, checked: str) -> list[str]:
    """Positive Hopf stars are SQP, veer Right on every arc, are NonzeroTight
    with a zero diagonal; mirrored ones (a negative stabilization) are
    OvertwistedWitness at arc 0 and not SQP.  Either way every band is a Hopf
    band and carries one product disk."""
    name = f"star {'mirrored ' if mirror else ''}k={k}"
    problems = []
    try:
        arcs = len(_payloads(built)["pob"]["basis"])
        checks = _payloads(checked)["report"]["checks"]
        contact = checks["contact"]
        rv, sqp = checks["rv"], checks["sqp"]["value"]
    except (ValueError, KeyError, TypeError) as e:
        return [f"{name}: unreadable output ({e})"]
    if arcs != k:
        problems.append(f"{arcs} product disks, expected {k}")
    if mirror:
        if contact["status"] != "OvertwistedWitness" or contact["witness_index"] != 0:
            problems.append(f"verdict {contact['status']} at {contact['witness_index']}, "
                            "expected OvertwistedWitness at 0")
        if sqp is not False:
            problems.append(f"sqp {sqp}, expected False")
    else:
        matrix = contact["matrix"] or []
        if contact["status"] != "NonzeroTight":
            problems.append(f"verdict {contact['status']}, expected NonzeroTight")
        if rv != ["Right"] * k:
            problems.append(f"veering {rv}, expected Right on all {k} arcs")
        if len(matrix) != k or any(matrix[i][i] for i in range(k)):
            problems.append(f"matrix {matrix}, expected a zero diagonal of size {k}")
        if sqp is not True:
            problems.append(f"sqp {sqp}, expected True")
    if digest(checked) != HOPF_CHECK_DIGESTS.get((k, mirror)):
        problems.append("check stdout differs from the pinned bytes")
    return [f"{name}: {p}" for p in problems]
