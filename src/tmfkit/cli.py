"""Command line interface: verify, catalog, functor, iso.

Exit codes: 0 pass, 1 verification failure, 2 input error (a malformed
option or TMFKIT_SEED, an option over MAX_DEGREE_WINDOW, MAX_TRIALS or
MAX_CATALOG_N, a matrix over MAX_MATRIX_RANK, an unwritable output and an
exhausted rewrite budget included), 3 probabilistic negative; ``main``
alone maps typed errors to 1 and 2.  All randomized procedures take an
explicit seed (flag --seed, falling back to the TMFKIT_SEED environment
variable, an integer, then 0), so reports are reproducible.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections.abc import Sequence

from . import catalog as cat
from . import cover as cov
from . import tmf as tm
from .gradedmod import FreeModule, GradedMatrix
from .ncalgebra import (
    GradedAlgebra,
    GradedAutomorphism,
    RewriteLimitExceeded,
    format_poly,
    parse_poly,
)
from .scalars import format_scalar, parse_scalar
from .tmf import NormalContext, TMF, verify

CONVENTION = (
    "row-index-equals-source; composite of (phi then psi) is PHI*PSI with "
    "left-to-right entry products; tw raises generator degrees by deg f"
)

# Largest --max-degree window: the (h) suite takes about 20 s at 20, and its
# cost grows faster than the fourth power of the window.
MAX_DEGREE_WINDOW = 20

# Largest catalog --n: `catalog verify g --n 128` takes about 6 s and the
# (g) presentations grow with n until a far larger n ends in deep recursion.
MAX_CATALOG_N = 128

# Largest --trials: iso runs every trial on a non-isomorphic pair whose Hom
# space is nonzero.
MAX_TRIALS = 1024

# Largest source or target rank of a matrix read from a file: exact
# elimination on a dense matrix grows much faster than its rank.
MAX_MATRIX_RANK = 64


class InputError(ValueError):
    """Unreadable or malformed input file, or an unwritable output (exit code 2)."""


class InputFailsVerification(ValueError):
    """A functor's input factorization does not verify (exit code 1)."""


def _print(text: str) -> None:
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early; point it at devnull so the flush at
        # exit stays quiet, and let the exit code carry the verdict
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _report(args, start: float, command: str, ok: bool, checks: Sequence[tm.Check],
            artifacts: dict, statuses=("pass", "fail"), fail_code: int = 1) -> int:
    """Print a command's report, timed from start, as JSON or as text lines
    (deterministic for a fixed seed but for the elapsed time); return its
    exit code, 0 when ok and fail_code otherwise."""
    status = statuses[0] if ok else statuses[1]
    if args.format == "json":
        _print(json.dumps({
            "command": command,
            "status": status,
            "seed": args.seed,
            "elapsed": round(time.perf_counter() - start, 6),
            "convention": CONVENTION,
            "checks": [check._asdict() for check in checks],
            "artifacts": artifacts,
        }, indent=2))
    else:
        lines = [f"[{status}] {command} (seed={args.seed})"]
        for check in checks:
            detail = f" -- {check.detail}" if check.detail else ""
            lines.append(f"  {'PASS' if check.ok else 'FAIL'} {check.name}{detail}")
        lines += [f"  {k}: {v}" for k, v in artifacts.items() if isinstance(v, str)]
        _print("\n".join(lines))
    return 0 if ok else fail_code


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


# what reading a malformed file into values raises (parse errors are ValueErrors)
_MALFORMED = (KeyError, ValueError, ZeroDivisionError, TypeError)


def json_int(value, what: str) -> int:
    """An integer field of a JSON file; a float or a bool is refused, not
    truncated."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _write_json(obj: dict, path: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(obj, handle, indent=1, sort_keys=True)
            handle.write("\n")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _literals(mat: GradedMatrix) -> list[list[str]]:
    return [[format_poly(e) for e in row] for row in mat.entries]


def context_to_json(ctx: NormalContext) -> dict:
    """The context block: the algebra inline with the automorphisms "sigma"
    and "tau" (when there is a tau), and f."""
    A = ctx.algebra
    rules = [
        {"lhs": [b, a], "rhs": [{"coeff": format_scalar(c), "monomial": list(e)} for c, e in rhs]}
        for (b, a), rhs in sorted(A.rules.items())
    ]
    algebra = {
        "generators": [{"name": n, "degree": d} for n, d in zip(A.names, A.degrees)],
        "rules": rules,
        "automorphisms": {
            name: dict(zip(A.names, map(format_poly, auto.images)))
            for name, auto in (("sigma", ctx.sigma), ("tau", ctx.tau)) if auto is not None
        },
    }
    obj = {"algebra": algebra, "f": format_poly(ctx.f), "sigma": "sigma"}
    if ctx.tau is not None:
        obj["tau"] = "tau"
    return obj


def context_from_json(obj: dict, base_dir: str) -> NormalContext:
    """The context block; an algebra given as a string names a file relative
    to base_dir."""
    algebra_obj = obj["algebra"]
    if isinstance(algebra_obj, str):
        algebra_obj = _load_json(os.path.join(base_dir, algebra_obj))
    try:
        gens = [(g["name"], json_int(g["degree"], "generator degree"))
                for g in algebra_obj["generators"]]
        rules = {}
        for rule in algebra_obj["rules"]:
            b, a = (json_int(x, "rule lhs index") for x in rule["lhs"])
            rules[(b, a)] = [
                (parse_scalar(term["coeff"]),
                 tuple(json_int(x, "rule monomial exponent") for x in term["monomial"]))
                for term in rule["rhs"]
            ]
        A = GradedAlgebra(gens, rules)
        autos = {
            name: GradedAutomorphism(A, [parse_poly(images[g], A) for g in A.names])
            for name, images in algebra_obj.get("automorphisms", {}).items()
        }
        f = parse_poly(obj["f"], A)
        sigma = autos[obj.get("sigma", "sigma")]
        tau = autos[obj["tau"]] if "tau" in obj else None
        return NormalContext(A, f, sigma, tau)
    except _MALFORMED as exc:
        raise InputError(f"bad context: {exc}") from exc


def matrix_to_json(mat: GradedMatrix) -> dict:
    return {
        "source": list(mat.source.shifts),
        "target": list(mat.target.shifts),
        "entries": _literals(mat),
    }


def matrix_from_json(obj: dict, A: GradedAlgebra) -> GradedMatrix:
    source = FreeModule(A, tuple(json_int(x, "source shift") for x in obj["source"]))
    target = FreeModule(A, tuple(json_int(x, "target shift") for x in obj["target"]))
    for module in (source, target):
        if module.rank > MAX_MATRIX_RANK:
            raise InputError(f"rank {module.rank} exceeds MAX_MATRIX_RANK = {MAX_MATRIX_RANK}")
    entries = [[parse_poly(text, A) for text in row] for row in obj["entries"]]
    return GradedMatrix(source, target, entries, check=False)


def tmf_to_json(t: TMF) -> dict:
    return {
        "context": context_to_json(t.context),
        "phi": matrix_to_json(t.phi),
        "psi": matrix_to_json(t.psi),
    }


def load_tmf(path: str) -> TMF:
    obj = _load_json(path)
    try:
        ctx = context_from_json(obj["context"], os.path.dirname(path))
        phi = matrix_from_json(obj["phi"], ctx.algebra)
        psi = matrix_from_json(obj["psi"], ctx.algebra)
    except _MALFORMED as exc:
        raise InputError(f"bad factorization file {path}: {exc}") from exc
    return TMF(ctx, phi, psi, strict=False)


def dump_tmf(t: TMF, path: str) -> None:
    _write_json(tmf_to_json(t), path)


def module_to_json(m: cov.EquivariantModule) -> dict:
    return {
        "context": context_to_json(m.cover.base),
        "module": {
            "shifts": list(m.module.shifts),
            "theta": list(m.theta),
            "z_action": matrix_to_json(m.z_action),
        },
    }


def load_module(path: str) -> cov.EquivariantModule:
    obj = _load_json(path)
    try:
        ctx = context_from_json(obj["context"], os.path.dirname(path))
        cover = cov.make_cover(ctx)
        data = obj["module"]
        shifts = tuple(json_int(x, "module shift") for x in data["shifts"])
        theta = tuple(json_int(x, "theta entry") for x in data["theta"])
        z_action = matrix_from_json(data["z_action"], ctx.algebra)
        return cov.EquivariantModule(cover, FreeModule(ctx.algebra, shifts), z_action, theta)
    except _MALFORMED as exc:
        raise InputError(f"bad module file {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _residual_artifacts(report: tm.VerifyReport) -> dict:
    artifacts = {}
    for key, mat in (("residual_one", report.residual_one), ("residual_two", report.residual_two)):
        if mat is not None and not mat.is_zero():
            artifacts[key] = _literals(mat)
    return artifacts


def cmd_verify(args) -> int:
    start = time.perf_counter()
    report = verify(load_tmf(args.path))
    return _report(args, start, f"verify {args.path}", report.ok, report.checks,
                   _residual_artifacts(report))


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
        command = f"catalog verify {args.case}" + (f" --n {args.n}" if args.n else "")
        notes = {"notes": "; ".join(suite.notes)} if suite.notes else {}
        return _report(args, start, command, suite.ok, suite.checks, notes)
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

    def step(x, path: str) -> tuple[bool, Sequence[tm.Check], dict]:
        out_t, artifacts = functor(x)
        dump_tmf(out_t, path)
        report = verify(out_t)
        return report.ok, report.checks, artifacts | _residual_artifacts(report)

    return step


def _reduce(t: TMF) -> tuple[TMF, dict]:
    result = tm.reduce(t)
    summands = f"unit-first={result.unit_first}, f-first={result.f_first}"
    return result.reduced, {"trivial_summands": summands}


def _functor_B(t: TMF, path: str) -> tuple[bool, Sequence[tm.Check], dict]:
    _write_json(module_to_json(cov.functor_B(cov.make_cover(t.context), t)), path)
    return True, [tm.Check("z-squared-is-minus-f", True)], {}


def _functor_split(t: TMF, path: str) -> tuple[bool, Sequence[tm.Check], dict]:
    t1, t2 = cov.symmetric_split(cov.make_cover(t.context), t)
    _write_json({"first": tmf_to_json(t1), "second": tmf_to_json(t2)}, path)
    ok = verify(t1).ok and verify(t2).ok
    return ok, [tm.Check("summands-verify", ok)], {}


# name -> (reader of --input, step that writes --output and returns the
# verdict, the checks and the artifacts of the report)
FUNCTORS = {
    "C": (_verified_tmf, _tmf_output(
        lambda t: (cov.functor_C(cov.make_cover(t.context), t), {}))),
    "Res": (_verified_tmf, _tmf_output(
        lambda t: (cov.restrict_tmf(t, cov.truncate_context(t.context)), {}))),
    "H": (_verified_tmf, _tmf_output(
        lambda t: (cov.functor_H(cov.make_cover(t.context, ("u", "v")), t), {}))),
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
    return _report(args, start, f"functor {args.name}", ok, checks, artifacts)


def cmd_iso(args) -> int:
    start = time.perf_counter()
    t1 = load_tmf(args.path1)
    t2 = load_tmf(args.path2)
    verdict = tm.probably_isomorphic_tmf(t1, t2, trials=args.trials, seed=args.seed)
    ok = verdict.isomorphic
    artifacts = {"alpha": _literals(verdict.alpha), "beta": _literals(verdict.beta)} if ok else {}
    check = tm.Check("isomorphic", ok, f"failures={verdict.failures} trials={args.trials}")
    return _report(args, start, f"iso {args.path1} {args.path2}", ok, [check], artifacts,
                   ("iso", "probably-not"), 3)


def default_seed() -> int:
    text = os.environ.get("TMFKIT_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise InputError(f"TMFKIT_SEED must be an integer, got {text!r}") from None


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
    ((InputError, cat.BadParams, RewriteLimitExceeded, tm.ContextMismatch), 2, "input error"),
    ((cat.VerificationFailure,), 1, "verification failure while building"),
    ((InputFailsVerification, cov.HypothesisViolation, cov.InvariantViolation,
      tm.NotSymmetricForm, tm.NoSquareRootContext), 1, "verification failure"),
)


def _check_limits(args) -> None:
    if args.trials > MAX_TRIALS:
        raise InputError(f"--trials {args.trials} exceeds MAX_TRIALS = {MAX_TRIALS}")
    if args.max_degree is not None and args.max_degree > MAX_DEGREE_WINDOW:
        raise InputError(
            f"--max-degree {args.max_degree} exceeds MAX_DEGREE_WINDOW = {MAX_DEGREE_WINDOW}"
        )
    n = getattr(args, "n", None)
    if n is not None and n > MAX_CATALOG_N:
        raise InputError(f"--n {n} exceeds MAX_CATALOG_N = {MAX_CATALOG_N}")


def main(argv: list[str] | None = None) -> int:
    commands = {
        "verify": cmd_verify,
        "catalog": cmd_catalog,
        "functor": cmd_functor,
        "iso": cmd_iso,
    }
    try:
        # the parser's --seed default reads TMFKIT_SEED, so it is built here
        args = build_parser().parse_args(argv)
        _check_limits(args)
        return commands[args.command](args)
    except tuple(t for types, _, _ in EXITS for t in types) as exc:
        code, prefix = next((c, p) for types, c, p in EXITS if isinstance(exc, types))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
