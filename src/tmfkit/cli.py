"""Command line interface: verify, catalog, functor, iso.

Exit codes: 0 pass, 1 verification failure, 2 input error (an exhausted
rewrite budget included), 3 probabilistic negative.  All randomized
procedures take an explicit seed (flag --seed, falling back to the
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
    GradedAutomorphism,
    PolyParseError,
    RewriteLimitExceeded,
    algebra_from_json,
    algebra_to_json,
    format_poly,
    parse_poly,
)
from .scalars import ScalarParseError
from .tmf import NormalContext, TMF, matrix_from_json, matrix_to_json, verify

CONVENTION = (
    "row-index-equals-source; composite of (phi then psi) is PHI*PSI with "
    "left-to-right entry products; tw raises generator degrees by deg f"
)


class InputError(ValueError):
    """Unreadable or malformed input file (exit code 2)."""


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

    @staticmethod
    def from_json(obj: dict) -> "Report":
        return Report(
            command=obj["command"],
            status=obj["status"],
            seed=obj["seed"],
            elapsed=obj["elapsed"],
            checks=obj["checks"],
            artifacts=obj["artifacts"],
            convention=obj["convention"],
        )

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


def emit(report: Report, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.render_text())


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _context_from_json(obj: dict, base_dir: str) -> tuple[NormalContext, dict]:
    algebra_ref = obj["algebra"]
    if isinstance(algebra_ref, str):
        algebra_obj = _load_json(os.path.join(base_dir, algebra_ref))
    else:
        algebra_obj = algebra_ref
    try:
        algebra, autos = algebra_from_json(algebra_obj)
        f = parse_poly(obj["f"], algebra)
        sigma = autos[obj.get("sigma", "sigma")]
        tau = autos.get(obj.get("tau")) if obj.get("tau") else None
        ctx = NormalContext(algebra, f, sigma, tau)
    except (KeyError, ValueError, ZeroDivisionError, TypeError) as exc:
        raise InputError(f"bad context: {exc}") from exc
    return ctx, algebra_obj


def load_tmf(path: str) -> tuple[TMF, dict]:
    obj = _load_json(path)
    try:
        ctx, algebra_obj = _context_from_json(obj["context"], os.path.dirname(path))
        phi = matrix_from_json(obj["phi"], ctx.algebra)
        psi = matrix_from_json(obj["psi"], ctx.algebra)
    except (
        KeyError,
        ScalarParseError,
        PolyParseError,
        ValueError,
        ZeroDivisionError,
        TypeError,
    ) as exc:
        raise InputError(f"bad factorization file {path}: {exc}") from exc
    return TMF(ctx, phi, psi, strict=False), obj


def dump_tmf(
    t: TMF,
    path: str,
    sigma: GradedAutomorphism,
    tau: GradedAutomorphism | None,
) -> None:
    autos = {"sigma": sigma}
    if tau is not None:
        autos["tau"] = tau
    obj = tm.tmf_to_json(
        t,
        algebra_to_json(t.context.algebra, autos),
        "sigma",
        "tau" if tau is not None else None,
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle, indent=1, sort_keys=True)
        handle.write("\n")


def module_to_json(m: cov.EquivariantModule, ctx: NormalContext) -> dict:
    autos = {"sigma": ctx.sigma, "tau": ctx.tau}
    return {
        "context": {
            "algebra": algebra_to_json(ctx.algebra, autos),
            "f": format_poly(ctx.f),
            "sigma": "sigma",
            "tau": "tau",
        },
        "module": {
            "shifts": list(m.module.shifts),
            "theta": list(m.theta),
            "z_action": matrix_to_json(m.z_action),
        },
    }


def load_module(path: str) -> tuple[cov.EquivariantModule, cov.CoverContext]:
    obj = _load_json(path)
    try:
        ctx, _ = _context_from_json(obj["context"], os.path.dirname(path))
        cover = cov.make_cover(ctx)
        data = obj["module"]
        module = FreeModule(ctx.algebra, tuple(int(x) for x in data["shifts"]))
        z_action = matrix_from_json(data["z_action"], ctx.algebra)
        m = cov.EquivariantModule(
            cover, module, z_action, tuple(int(x) for x in data["theta"])
        )
    except (KeyError, ValueError, ZeroDivisionError, TypeError) as exc:
        raise InputError(f"bad module file {path}: {exc}") from exc
    return m, cover


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
    try:
        t, _ = load_tmf(args.path)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
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
        for case, desc in cat.parameter_ranges().items():
            print(f"{case:16s} {desc}")
        return 0
    if args.case is None:
        print("input error: catalog verify/export needs a case", file=sys.stderr)
        return 2
    try:
        entry = cat.build(args.case, args.n)
    except cat.BadParams as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except cat.VerificationFailure as exc:
        print(f"verification failure while building: {exc}", file=sys.stderr)
        return 1
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
    if args.action == "export":
        labels = entry.labels()
        if args.j is not None:
            labels = [f"j={args.j}"]
        if args.label is not None:
            labels = [args.label]
        os.makedirs(args.out, exist_ok=True)
        written = []
        for label in labels:
            if label not in entry.families:
                print(f"input error: no family {label!r}", file=sys.stderr)
                return 2
            stem = f"{args.case}" + (f"-n{args.n}" if args.n else "")
            safe = label.replace("=", "")
            path = os.path.join(args.out, f"{stem}-{safe}.json")
            dump_tmf(
                entry.factorization(label), path, entry.context.sigma, entry.context.tau
            )
            written.append(path)
        for path in written:
            print(path)
        return 0
    print(f"input error: unknown catalog action {args.action}", file=sys.stderr)
    return 2


FUNCTORS = ("C", "Res", "H", "T", "tw", "B", "A", "delta-sigma", "reduce", "split")


def cmd_functor(args) -> int:
    start = time.perf_counter()
    name = args.name
    try:
        if name in ("A", "delta-sigma"):
            m, cover = load_module(args.input)
            if name == "A":
                out_t = cov.functor_A(cover, m)
                out_ctx = cover.base
            else:
                out_t = cov.delta_sigma(cover, m)
                out_ctx = cover.context
            dump_tmf(out_t, args.output, out_ctx.sigma, out_ctx.tau)
            report = verify(out_t)
            status = "pass" if report.ok else "fail"
            emit(
                Report(
                    command=f"functor {name}",
                    status=status,
                    seed=args.seed,
                    elapsed=time.perf_counter() - start,
                    checks=_verify_report_checks(report),
                ),
                args.format,
            )
            return 0 if report.ok else 1
        t, _ = load_tmf(args.input)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (cov.HypothesisViolation, cov.InvariantViolation, tm.NotSymmetricForm) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1

    in_report = verify(t)
    if not in_report.ok:
        print("verification failure: input factorization does not verify", file=sys.stderr)
        return 1
    try:
        checks: list[dict] = []
        artifacts: dict = {}
        if name == "C":
            cover = cov.make_cover(t.context)
            out_t = cov.functor_C(cover, t)
            dump_tmf(out_t, args.output, cover.sigma, cover.tau)
        elif name == "Res":
            base = cov.truncate_context(t.context)
            out_t = cov.restrict_tmf(t, base)
            dump_tmf(out_t, args.output, base.sigma, base.tau)
        elif name == "H":
            sc = cov.second_cover(t.context)
            out_t = cov.functor_H(sc, t)
            dump_tmf(out_t, args.output, sc.sigma_uv, sc.tau_uv)
        elif name == "T":
            out_t = tm.T_functor(t)
            dump_tmf(out_t, args.output, t.context.sigma, t.context.tau)
        elif name == "tw":
            out_t = tm.tw_functor(t)
            dump_tmf(out_t, args.output, t.context.sigma, t.context.tau)
        elif name == "B":
            cover = cov.make_cover(t.context)
            m = cov.functor_B(cover, t)
            with open(args.output, "w", encoding="utf-8") as handle:
                json.dump(module_to_json(m, t.context), handle, indent=1, sort_keys=True)
                handle.write("\n")
            emit(
                Report(
                    command="functor B",
                    status="pass",
                    seed=args.seed,
                    elapsed=time.perf_counter() - start,
                    checks=[{"name": "z-squared-is-minus-f", "ok": True, "detail": ""}],
                ),
                args.format,
            )
            return 0
        elif name == "reduce":
            result = tm.reduce(t)
            out_t = result.reduced
            dump_tmf(out_t, args.output, t.context.sigma, t.context.tau)
            artifacts["trivial_summands"] = (
                f"unit-first={result.unit_first}, f-first={result.f_first}"
            )
        elif name == "split":
            cover = cov.make_cover(t.context)
            t1, t2 = cov.symmetric_split(cover, t)
            obj = {
                "first": tm.tmf_to_json(
                    t1,
                    algebra_to_json(
                        cover.algebra, {"sigma": cover.sigma, "tau": cover.tau}
                    ),
                ),
                "second": tm.tmf_to_json(
                    t2,
                    algebra_to_json(
                        cover.algebra, {"sigma": cover.sigma, "tau": cover.tau}
                    ),
                ),
            }
            with open(args.output, "w", encoding="utf-8") as handle:
                json.dump(obj, handle, indent=1, sort_keys=True)
                handle.write("\n")
            ok = verify(t1).ok and verify(t2).ok
            emit(
                Report(
                    command="functor split",
                    status="pass" if ok else "fail",
                    seed=args.seed,
                    elapsed=time.perf_counter() - start,
                    checks=[{"name": "summands-verify", "ok": ok, "detail": ""}],
                ),
                args.format,
            )
            return 0 if ok else 1
        else:
            print(f"input error: unknown functor {name!r}", file=sys.stderr)
            return 2
    except (cov.HypothesisViolation, cov.InvariantViolation, tm.NotSymmetricForm,
            tm.NoSquareRootContext) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    report = verify(out_t)
    out = Report(
        command=f"functor {name}",
        status="pass" if report.ok else "fail",
        seed=args.seed,
        elapsed=time.perf_counter() - start,
        checks=_verify_report_checks(report),
        artifacts=artifacts | _residual_artifacts(report),
    )
    emit(out, args.format)
    return 0 if report.ok else 1


def cmd_iso(args) -> int:
    start = time.perf_counter()
    try:
        t1, _ = load_tmf(args.path1)
        t2, _ = load_tmf(args.path2)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    if t1.context.algebra != t2.context.algebra or t1.context.f != t2.context.f:
        print("input error: factorizations live in different contexts", file=sys.stderr)
        return 2
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


def _add_global_options(parser: argparse.ArgumentParser, top: bool) -> None:
    # options are accepted both before and after the subcommand; the
    # subparser copies use SUPPRESS so they never clobber earlier values
    suppress = argparse.SUPPRESS
    parser.add_argument(
        "--seed", type=int, default=default_seed() if top else suppress
    )
    parser.add_argument("--trials", type=int, default=32 if top else suppress)
    parser.add_argument(
        "--max-degree", type=int, default=None if top else suppress
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
    except RewriteLimitExceeded as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
