"""Command line interface: verify, catalog, functor, iso.

Exit codes: 0 pass, 1 verification failure, 2 input error (a malformed
option, an unwritable output and an exhausted rewrite budget included), 3
probabilistic negative; ``main`` alone maps typed errors to 1 and 2.  All
randomized procedures take an explicit seed (flag --seed, falling back to the
TMFKIT_SEED environment variable, then 0), so reports are reproducible.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field

from . import catalog as cat
from . import cover as cov
from . import tmf as tm
from .gradedmod import FreeModule
from .ncalgebra import (
    RewriteLimitExceeded,
    algebra_from_json,
    algebra_to_json,
    format_poly,
    parse_poly,
)
from .tmf import NormalContext, TMF, matrix_from_json, matrix_to_json, verify

CONVENTION = (
    "row-index-equals-source; composite of (phi then psi) is PHI*PSI with "
    "left-to-right entry products; tw raises generator degrees by deg f"
)


class InputError(ValueError):
    """Unreadable or malformed input file, or an unwritable output (exit code 2)."""


class InputFailsVerification(ValueError):
    """A functor's input factorization does not verify (exit code 1)."""


@dataclass
class Report:
    """Serializable check report: deterministic for a fixed seed."""

    command: str
    status: str
    seed: int
    elapsed: float
    checks: list[dict] = field(default_factory=list)
    artifacts: dict = field(default_factory=dict)
    convention: str = CONVENTION

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "status": self.status,
            "seed": self.seed,
            "elapsed": round(self.elapsed, 6),
            "convention": self.convention,
            "checks": self.checks,
            "artifacts": self.artifacts,
        }

    def render_text(self) -> str:
        lines = [f"[{self.status}] {self.command} (seed={self.seed})"]
        for check in self.checks:
            mark = "PASS" if check["ok"] else "FAIL"
            detail = f" -- {check['detail']}" if check.get("detail") else ""
            lines.append(f"  {mark} {check['name']}{detail}")
        for key, value in self.artifacts.items():
            if isinstance(value, str):
                lines.append(f"  {key}: {value}")
        return "\n".join(lines)


def _print(text: str) -> None:
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early; point it at devnull so the flush at
        # exit stays quiet, and let the exit code carry the verdict
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def emit(report: Report, fmt: str) -> None:
    if fmt == "json":
        _print(json.dumps(report.to_json(), indent=2))
    else:
        _print(report.render_text())


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


# what reading a malformed file into values raises (parse errors are ValueErrors)
_MALFORMED = (KeyError, ValueError, ZeroDivisionError, TypeError)


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _context_from_json(obj: dict, base_dir: str) -> NormalContext:
    algebra_ref = obj["algebra"]
    if isinstance(algebra_ref, str):
        algebra_obj = _load_json(os.path.join(base_dir, algebra_ref))
    else:
        algebra_obj = algebra_ref
    try:
        algebra, autos = algebra_from_json(algebra_obj)
        f = parse_poly(obj["f"], algebra)
        sigma = autos[obj.get("sigma", "sigma")]
        tau = autos[obj["tau"]] if "tau" in obj else None
        return NormalContext(algebra, f, sigma, tau)
    except _MALFORMED as exc:
        raise InputError(f"bad context: {exc}") from exc


def load_tmf(path: str) -> TMF:
    obj = _load_json(path)
    try:
        ctx = _context_from_json(obj["context"], os.path.dirname(path))
        phi = matrix_from_json(obj["phi"], ctx.algebra)
        psi = matrix_from_json(obj["psi"], ctx.algebra)
    except _MALFORMED as exc:
        raise InputError(f"bad factorization file {path}: {exc}") from exc
    return TMF(ctx, phi, psi, strict=False)


def _write_json(obj: dict, path: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(obj, handle, indent=1, sort_keys=True)
            handle.write("\n")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _algebra_json(ctx: NormalContext) -> dict:
    """The algebra of a context, with its sigma and tau (when there is one)."""
    autos = {"sigma": ctx.sigma}
    if ctx.tau is not None:
        autos["tau"] = ctx.tau
    return algebra_to_json(ctx.algebra, autos)


def dump_tmf(t: TMF, path: str) -> None:
    _write_json(tm.tmf_to_json(t, _algebra_json(t.context)), path)


def module_to_json(m: cov.EquivariantModule) -> dict:
    ctx = m.cover.base
    return {
        "context": tm.context_to_json(ctx, _algebra_json(ctx)),
        "module": {
            "shifts": list(m.module.shifts),
            "theta": list(m.theta),
            "z_action": matrix_to_json(m.z_action),
        },
    }


def load_module(path: str) -> cov.EquivariantModule:
    obj = _load_json(path)
    try:
        ctx = _context_from_json(obj["context"], os.path.dirname(path))
        cover = cov.make_cover(ctx)
        data = obj["module"]
        module = FreeModule(ctx.algebra, tuple(int(x) for x in data["shifts"]))
        z_action = matrix_from_json(data["z_action"], ctx.algebra)
        return cov.EquivariantModule(
            cover, module, z_action, tuple(int(x) for x in data["theta"])
        )
    except _MALFORMED as exc:
        raise InputError(f"bad module file {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _verify_report_checks(report: tm.VerifyReport) -> list[dict]:
    return [
        {"name": name, "ok": ok, "detail": detail}
        for name, ok, detail in report.checks
    ]


def _residual_artifacts(report: tm.VerifyReport) -> dict:
    artifacts = {}
    for key, mat in (("residual_one", report.residual_one), ("residual_two", report.residual_two)):
        if mat is not None and not mat.is_zero():
            artifacts[key] = [[format_poly(e) for e in row] for row in mat.entries]
    return artifacts


def cmd_verify(args) -> int:
    start = time.perf_counter()
    t = load_tmf(args.path)
    report = verify(t)
    out = Report(
        command=f"verify {args.path}",
        status="pass" if report.ok else "fail",
        seed=args.seed,
        elapsed=time.perf_counter() - start,
        checks=_verify_report_checks(report),
        artifacts=_residual_artifacts(report),
    )
    emit(out, args.format)
    return 0 if report.ok else 1


def cmd_catalog(args) -> int:
    start = time.perf_counter()
    if args.action == "list":
        _print("\n".join(f"{case:16s} {desc}" for case, desc in cat.parameter_ranges().items()))
        return 0
    if args.case is None:
        raise InputError("catalog verify/export needs a case")
    entry = cat.build(args.case, args.n)
    if args.action == "verify":
        suite = cat.run_suite(
            entry,
            seed=args.seed,
            trials=args.trials,
            deep=args.deep,
            max_degree=args.max_degree,
        )
        out = Report(
            command=f"catalog verify {args.case}"
            + (f" --n {args.n}" if args.n else ""),
            status="pass" if suite.ok else "fail",
            seed=args.seed,
            elapsed=time.perf_counter() - start,
            checks=[
                {"name": c.name, "ok": c.ok, "detail": c.detail}
                for c in suite.checks
            ],
            artifacts={"notes": "; ".join(suite.notes)} if suite.notes else {},
        )
        emit(out, args.format)
        return 0 if suite.ok else 1
    labels = entry.labels()
    if args.j is not None:
        labels = [f"j={args.j}"]
    if args.label is not None:
        labels = [args.label]
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot create {args.out}: {exc}") from exc
    written = []
    for label in labels:
        if label not in entry.families:
            raise InputError(f"no family {label!r}")
        stem = f"{args.case}" + (f"-n{args.n}" if args.n else "")
        path = os.path.join(args.out, f"{stem}-{label.replace('=', '')}.json")
        dump_tmf(entry.factorization(label), path)
        written.append(path)
    _print("\n".join(written))
    return 0


def _verified_tmf(path: str) -> TMF:
    t = load_tmf(path)
    if not verify(t).ok:
        raise InputFailsVerification("input factorization does not verify")
    return t


def _tmf_output(functor):
    """Step for a functor whose output is a factorization: functor(input)
    gives (output, artifacts); the step dumps, verifies and reports it."""

    def step(x, path: str) -> tuple[bool, list[dict], dict]:
        out_t, artifacts = functor(x)
        dump_tmf(out_t, path)
        report = verify(out_t)
        checks = _verify_report_checks(report)
        return report.ok, checks, artifacts | _residual_artifacts(report)

    return step


def _reduce(t: TMF) -> tuple[TMF, dict]:
    result = tm.reduce(t)
    summands = f"unit-first={result.unit_first}, f-first={result.f_first}"
    return result.reduced, {"trivial_summands": summands}


def _functor_B(t: TMF, path: str) -> tuple[bool, list[dict], dict]:
    _write_json(module_to_json(cov.functor_B(cov.make_cover(t.context), t)), path)
    return True, [{"name": "z-squared-is-minus-f", "ok": True, "detail": ""}], {}


def _functor_split(t: TMF, path: str) -> tuple[bool, list[dict], dict]:
    t1, t2 = cov.symmetric_split(cov.make_cover(t.context), t)
    algebra = _algebra_json(t1.context)
    pair = {"first": tm.tmf_to_json(t1, algebra), "second": tm.tmf_to_json(t2, algebra)}
    _write_json(pair, path)
    ok = verify(t1).ok and verify(t2).ok
    return ok, [{"name": "summands-verify", "ok": ok, "detail": ""}], {}


# name -> (reader of --input, step that writes --output and returns the
# verdict, the checks and the artifacts of the report)
FUNCTORS = {
    "C": (_verified_tmf, _tmf_output(
        lambda t: (cov.functor_C(cov.make_cover(t.context), t), {}))),
    "Res": (_verified_tmf, _tmf_output(
        lambda t: (cov.restrict_tmf(t, cov.truncate_context(t.context)), {}))),
    "H": (_verified_tmf, _tmf_output(
        lambda t: (cov.functor_H(cov.second_cover(t.context), t), {}))),
    "T": (_verified_tmf, _tmf_output(lambda t: (tm.T_functor(t), {}))),
    "tw": (_verified_tmf, _tmf_output(lambda t: (tm.tw_functor(t), {}))),
    "B": (_verified_tmf, _functor_B),
    "A": (load_module, _tmf_output(lambda m: (cov.functor_A(m.cover, m), {}))),
    "delta-sigma": (load_module, _tmf_output(lambda m: (cov.delta_sigma(m.cover, m), {}))),
    "reduce": (_verified_tmf, _tmf_output(_reduce)),
    "split": (_verified_tmf, _functor_split),
}


def cmd_functor(args) -> int:
    start = time.perf_counter()
    read, step = FUNCTORS[args.name]
    ok, checks, artifacts = step(read(args.input), args.output)
    out = Report(
        command=f"functor {args.name}",
        status="pass" if ok else "fail",
        seed=args.seed,
        elapsed=time.perf_counter() - start,
        checks=checks,
        artifacts=artifacts,
    )
    emit(out, args.format)
    return 0 if ok else 1


def cmd_iso(args) -> int:
    start = time.perf_counter()
    t1 = load_tmf(args.path1)
    t2 = load_tmf(args.path2)
    if t1.context != t2.context:
        raise InputError("factorizations live in different contexts")
    verdict = tm.probably_isomorphic_tmf(t1, t2, trials=args.trials, seed=args.seed)
    artifacts = {}
    if verdict.isomorphic:
        artifacts["alpha"] = [
            [format_poly(e) for e in row] for row in verdict.alpha.entries
        ]
        artifacts["beta"] = [
            [format_poly(e) for e in row] for row in verdict.beta.entries
        ]
    out = Report(
        command=f"iso {args.path1} {args.path2}",
        status="iso" if verdict.isomorphic else "probably-not",
        seed=args.seed,
        elapsed=time.perf_counter() - start,
        checks=[
            {
                "name": "isomorphic",
                "ok": verdict.isomorphic,
                "detail": f"failures={verdict.failures} trials={args.trials}",
            }
        ],
        artifacts=artifacts,
    )
    emit(out, args.format)
    return 0 if verdict.isomorphic else 3


def default_seed() -> int:
    try:
        return int(os.environ.get("TMFKIT_SEED", "0"))
    except ValueError:
        return 0


def _at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _add_global_options(parser: argparse.ArgumentParser, top: bool) -> None:
    # options are accepted both before and after the subcommand; the
    # subparser copies use SUPPRESS so they never clobber earlier values
    suppress = argparse.SUPPRESS
    parser.add_argument(
        "--seed", type=int, default=default_seed() if top else suppress
    )
    parser.add_argument("--trials", type=_at_least(1), default=32 if top else suppress)
    parser.add_argument(
        "--max-degree", type=_at_least(0), default=None if top else suppress
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text" if top else suppress,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tmfkit",
        description="exact engine for twisted matrix factorizations",
    )
    _add_global_options(parser, top=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="verify a factorization file")
    p_verify.add_argument("path")
    _add_global_options(p_verify, top=False)

    p_cat = sub.add_parser("catalog", help="catalog operations")
    p_cat.add_argument("action", choices=("list", "verify", "export"))
    p_cat.add_argument("case", nargs="?")
    p_cat.add_argument("--n", type=int, default=None)
    p_cat.add_argument("--j", type=int, default=None)
    p_cat.add_argument("--label", default=None)
    p_cat.add_argument("--out", default=".")
    p_cat.add_argument("--deep", action="store_true")
    _add_global_options(p_cat, top=False)

    p_fun = sub.add_parser("functor", help="apply a functor to a file")
    p_fun.add_argument("name", choices=FUNCTORS)
    p_fun.add_argument("--input", required=True)
    p_fun.add_argument("--output", required=True)
    _add_global_options(p_fun, top=False)

    p_iso = sub.add_parser("iso", help="probabilistic isomorphism test")
    p_iso.add_argument("path1")
    p_iso.add_argument("path2")
    _add_global_options(p_iso, top=False)

    return parser


# typed error -> (exit code, stderr prefix)
EXITS = (
    ((InputError, cat.BadParams, RewriteLimitExceeded), 2, "input error"),
    ((cat.VerificationFailure,), 1, "verification failure while building"),
    ((InputFailsVerification, cov.HypothesisViolation, cov.InvariantViolation,
      tm.NotSymmetricForm, tm.NoSquareRootContext), 1, "verification failure"),
)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    commands = {
        "verify": cmd_verify,
        "catalog": cmd_catalog,
        "functor": cmd_functor,
        "iso": cmd_iso,
    }
    try:
        return commands[args.command](args)
    except tuple(t for types, _, _ in EXITS for t in types) as exc:
        code, prefix = next((c, p) for types, c, p in EXITS if isinstance(exc, types))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
