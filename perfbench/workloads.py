"""The benchmark's workloads, their ops and how an op's outcome is recorded.

An op is one user-visible action: one catalog ``build`` plus ``run_suite``,
or one CLI command run in a fresh interpreter.  Each op's outcome is
compared with ``golden.json``; it leaves out elapsed times, seeds and the
seed-dependent witnesses of an ``iso`` run, so it does not depend on the seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

# in-process workloads: (case, n, deep) suites
SUITES = {
    "catalog-deep": [
        ("c", None, True),
        ("h", None, True),
        ("d-odd", 5, True),
        ("g", 3, True),
        ("b", 3, True),
    ],
    "param-sweep": [
        ("g", 5, False),
        ("d-odd", 9, False),
    ],
}
WORKLOADS = (*SUITES, "cli-session")


def suite_op_name(case: str, n: int | None, deep: bool) -> str:
    return case + (f"-n{n}" if n is not None else "") + ("-deep" if deep else "")


def suite_outcome(report) -> dict:
    """Check names and verdicts, plus the coker-oracle series (whose verdict
    ``run_suite`` always records as passed)."""
    return {
        "checks": [[c.name, c.ok] for c in report.checks],
        "coker": {c.name: c.detail for c in report.checks if c.name.startswith("coker-oracle:")},
    }


def cli_ops(seed: int) -> list[tuple[str, list[str]]]:
    """The cli-session commands, in order; later ones read earlier outputs."""
    opts = ["--format", "json", "--seed", str(seed)]
    g, d = "g-n4-j1.json", "d-odd-n7-j1.json"
    ops = [
        ("export-g4", ["catalog", "export", "g", "--n", "4", "--out", ".", "--seed", str(seed)]),
        ("export-d7", ["catalog", "export", "d-odd", "--n", "7", "--out", ".", "--seed", str(seed)]),
        ("verify-g4", ["verify", g, *opts]),
        ("verify-d7", ["verify", d, *opts]),
    ]
    for name, source, out in (
        ("C", g, "C.json"),
        ("Res", g, "Res.json"),
        ("T", g, "T.json"),
        ("H", g, "H.json"),
        ("B", g, "B.json"),
        ("A", "B.json", "A.json"),
        ("delta-sigma", "B.json", "DS.json"),
        ("reduce", g, "reduce.json"),
    ):
        ops.append((f"functor-{name}", ["functor", name, "--input", source, "--output", out, *opts]))
    ops += [
        ("verify-C", ["verify", "C.json", *opts]),
        ("verify-H", ["verify", "H.json", *opts]),
        ("iso-g4-j1-j2", ["iso", g, "g-n4-j2.json", *opts]),
        ("iso-g4-j1-AB", ["iso", g, "A.json", *opts]),
        ("iso-d7-j1-j2", ["iso", d, "d-odd-n7-j2.json", *opts]),
        ("verify-broken", ["verify", "broken.json", *opts]),
    ]
    return ops


def write_broken(workdir: str, seed: int) -> None:
    """Copy one exported factorization to broken.json with one nonzero entry
    negated, both chosen from the seed; identity (1) or (2) must then fail."""
    rng = random.Random(seed)
    exported = sorted(
        name for name in os.listdir(workdir) if name.startswith(("g-n4-", "d-odd-n7-"))
    )
    with open(os.path.join(workdir, rng.choice(exported)), encoding="utf-8") as handle:
        obj = json.load(handle)
    cells = [
        (mat, i, j)
        for mat in ("phi", "psi")
        for i, row in enumerate(obj[mat]["entries"])
        for j, entry in enumerate(row)
        if entry != "0"
    ]
    mat, i, j = rng.choice(cells)
    obj[mat]["entries"][i][j] = f"-({obj[mat]['entries'][i][j]})"
    with open(os.path.join(workdir, "broken.json"), "w", encoding="utf-8") as handle:
        json.dump(obj, handle, indent=1, sort_keys=True)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_digest(stdout: str) -> str:
    """SHA-256 of a CLI report without its elapsed time, seed and iso witnesses."""
    try:
        obj = json.loads(stdout)
    except json.JSONDecodeError:
        return _sha256(stdout.encode())
    obj.pop("elapsed", None)
    obj.pop("seed", None)
    for key in ("alpha", "beta"):
        obj.get("artifacts", {}).pop(key, None)
    return _sha256(json.dumps(obj, sort_keys=True).encode())


def cli_outcome(name: str, code: int, stdout: str, workdir: str, emitted: list[str]) -> dict:
    if name == "verify-broken":
        failed = {c["name"] for c in json.loads(stdout)["checks"] if not c["ok"]}
        return {"exit": code, "identity_failed": bool(failed & {"identity-1", "identity-2"})}
    files = {}
    for file in emitted:
        with open(os.path.join(workdir, file), "rb") as handle:
            files[file] = _sha256(handle.read())
    return {"exit": code, "report": report_digest(stdout), "files": files}
