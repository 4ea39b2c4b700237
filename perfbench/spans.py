"""Span tracer for the benchmark's traced runs.

The tracer wraps the public functions of each tmfkit module from outside the
library: every module-level binding of a target function is replaced (so an
alias such as ``catalog.k_rank`` or ``catalog.verify`` is traced too), and
methods are replaced on their class.  Each call becomes one span with a name,
start, end, parent span and op id.  Spans are kept in flat arrays in memory
and written out once, when the traced process ends.

Self time is a span's duration minus the time of its child spans; total time
is inclusive and counted once for recursive calls.  Work counts (term pairs,
matrix cells, ...) are exact and are computed outside the spans.
"""

from __future__ import annotations

import functools
import re
import sys
import time
from array import array

# (span name, module, attribute) for module-level functions
FUNCTIONS = [
    ("scalars.parse", "scalars", "parse_scalar"),
    ("scalars.format", "scalars", "format_scalar"),
    ("ncalgebra.normalizing_automorphism", "ncalgebra", "normalizing_automorphism"),
    ("ncalgebra.parse_poly", "ncalgebra", "parse_poly"),
    ("ncalgebra.format_poly", "ncalgebra", "format_poly"),
    ("linalg.rref", "linalg", "rref"),
    ("linalg.rank", "linalg", "rank"),
    ("gradedmod.compose", "gradedmod", "compose"),
    ("gradedmod.is_invertible", "gradedmod", "is_invertible"),
    ("gradedmod.solve_intertwiners", "gradedmod", "solve_intertwiners"),
    ("tmf.verify", "tmf", "verify"),
    ("tmf.coker_hilbert", "tmf", "coker_hilbert"),
    ("tmf.reduce", "tmf", "reduce"),
    ("cover.make_cover", "cover", "make_cover"),
    ("cover.second_cover", "cover", "second_cover"),
    ("cover.functor_C", "cover", "functor_C"),
    ("cover.functor_H", "cover", "functor_H"),
    ("cover.check_lemma_5_13", "cover", "check_lemma_5_13"),
    ("catalog.build", "catalog", "build"),
    ("catalog.zhang_crosscheck", "catalog", "zhang_crosscheck"),
    ("cli.load_tmf", "cli", "load_tmf"),
    ("cli.dump_tmf", "cli", "dump_tmf"),
]

# (span name, module, class, method)
METHODS = [
    ("scalars.mul", "scalars", "Scalar", "__mul__"),
    ("scalars.addsub", "scalars", "Scalar", "__add__"),
    ("scalars.addsub", "scalars", "Scalar", "__sub__"),
    ("scalars.div", "scalars", "Scalar", "__truediv__"),
    ("ncalgebra.mul", "ncalgebra", "NCPoly", "__mul__"),
    ("ncalgebra.algebra_init", "ncalgebra", "GradedAlgebra", "__init__"),
    ("ncalgebra.auto_apply", "ncalgebra", "GradedAutomorphism", "__call__"),
    ("ncalgebra.check_well_defined", "ncalgebra", "GradedAutomorphism", "check_well_defined"),
    ("ncalgebra.check_well_defined", "ncalgebra", "AlgebraMorphism", "check_well_defined"),
]

# every CENSUS_EVERY-th Scalar * / + / - call has its operands classified
CENSUS_EVERY = 53
_T_EXP = re.compile(r"t(?:\^(\d+))?")


def _ncpoly_pairs(work, args, result):
    other = args[1]
    terms = getattr(other, "terms", None)
    work["ncalgebra.mul.term_pairs"] += len(args[0].terms) * (len(terms) if terms is not None else 1)


def _rref_cells(work, args, result):
    rows = args[0]
    work["linalg.rref.cells"] += len(rows) * (len(rows[0]) if rows else 0)


def _compose_products(work, args, result):
    first, second = args[0], args[1]
    work["gradedmod.compose.entry_products"] += (
        first.source.rank * first.target.rank * second.target.rank
    )


def _verify_failed(work, args, result):
    if not result.ok:
        work["tmf.verify.failed"] += 1


WORK = (
    "ncalgebra.mul.term_pairs",
    "linalg.rref.cells",
    "gradedmod.compose.entry_products",
    "tmf.verify.failed",
)
COUNTERS = {
    "ncalgebra.mul": _ncpoly_pairs,
    "linalg.rref": _rref_cells,
    "gradedmod.compose": _compose_products,
    "tmf.verify": _verify_failed,
}


def _split_fraction(text: str) -> tuple[str, str]:
    """Numerator and denominator of a printed scalar, ``(N)/(D)`` or ``N``."""
    if not text.startswith("("):
        return text, "1"
    depth = 0
    for pos, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if depth == 0:
            break
    if text[pos + 1 : pos + 3] != "/(":
        return text, "1"
    return text[1:pos], text[pos + 3 : -1]


def _term_exponents(poly: str) -> list[int]:
    terms = poly.replace(" - ", " + ").split(" + ")
    exps = []
    for term in terms:
        m = _T_EXP.search(term)
        exps.append(0 if m is None else int(m.group(1) or 1))
    return exps


def classify_scalar(text: str) -> tuple[str, int]:
    """Class of a printed scalar (monomial c*t^k, polynomial or general
    fraction) and the largest absolute t-exponent it carries."""
    num, den = _split_fraction(text)
    num_exps, den_exps = _term_exponents(num), _term_exponents(den)
    if len(den_exps) > 1:
        return "general", max(map(abs, num_exps + den_exps))
    exps = [e - den_exps[0] for e in num_exps]
    return ("polynomial" if len(exps) > 1 else "monomial"), max(map(abs, exps))


class Tracer:
    """In-memory spans plus per-name aggregates for one traced process."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.open: list[int] = []
        self.work = dict.fromkeys(WORK, 0)
        self.census = {"monomial": 0, "polynomial": 0, "general": 0, "max_abs_exp": 0}
        self.op = 0
        self.stack: list[list] = []  # [span id, child seconds]
        self.sp_name = array("i")
        self.sp_parent = array("i")
        self.sp_op = array("i")
        self.sp_start = array("d")
        self.sp_end = array("d")

    def name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
            self.open.append(0)
        return self.names.index(name)

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a finished top-level span measured by the caller."""
        k = self.name_index(name)
        self.sp_name.append(k)
        self.sp_parent.append(-1)
        self.sp_op.append(self.op)
        self.sp_start.append(start)
        self.sp_end.append(end)
        self.calls[k] += 1
        self.self_s[k] += end - start
        self.total_s[k] += end - start

    def wrap(self, name: str, fn, count=None, sample=None):
        k = self.name_index(name)
        clock, stack = self.clock, self.stack
        calls, self_s, total_s, opened = self.calls, self.self_s, self.total_s, self.open
        sp_name, sp_parent, sp_op = self.sp_name, self.sp_parent, self.sp_op
        sp_start, sp_end = self.sp_start, self.sp_end
        work = self.work

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if sample is not None:
                c0 = clock()
                sample(args)
                if parent is not None:
                    parent[1] += clock() - c0
            sid = len(sp_name)
            sp_name.append(k)
            sp_parent.append(parent[0] if parent is not None else -1)
            sp_op.append(self.op)
            sp_start.append(0.0)
            sp_end.append(0.0)
            frame = [sid, 0.0]
            stack.append(frame)
            opened[k] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                opened[k] -= 1
                dur = end - start
                calls[k] += 1
                self_s[k] += dur - frame[1]
                if not opened[k]:
                    total_s[k] += dur
                if parent is not None:
                    parent[1] += dur
                sp_start[sid] = start
                sp_end[sid] = end
            if count is not None:
                count(work, args, result)
            return result

        return traced

    def census_sampler(self, format_scalar):
        """Classify both operands of every CENSUS_EVERY-th sampled call."""
        seen = [0]
        census = self.census

        def sample(args):
            seen[0] += 1
            if seen[0] % CENSUS_EVERY:
                return
            for operand in args:
                kind, exp = classify_scalar(format_scalar(operand))
                census[kind] += 1
                if exp > census["max_abs_exp"]:
                    census["max_abs_exp"] = exp

        return sample

    def root_seconds(self) -> float:
        return sum(
            self.sp_end[i] - self.sp_start[i]
            for i in range(len(self.sp_name))
            if self.sp_parent[i] < 0
        )

    def summary(self) -> dict:
        return {
            "calls": dict(zip(self.names, self.calls)),
            "self_s": dict(zip(self.names, self.self_s)),
            "total_s": dict(zip(self.names, self.total_s)),
            "work": dict(self.work),
            "census": dict(self.census),
            "spans": len(self.sp_name),
            "root_s": self.root_seconds(),
        }

    def write_spans(self, path: str) -> None:
        """One line per span: id, parent id, op, name, start, end."""
        names = self.names
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span\tparent\top\tname\tstart\tend\n")
            for i in range(len(self.sp_name)):
                handle.write(
                    f"{i}\t{self.sp_parent[i]}\t{self.sp_op[i]}\t{names[self.sp_name[i]]}"
                    f"\t{self.sp_start[i]:.9f}\t{self.sp_end[i]:.9f}\n"
                )


def install(tracer: Tracer) -> None:
    """Wrap every target in every loaded tmfkit module that binds it."""
    import tmfkit.catalog  # noqa: F401 - load every layer before patching
    import tmfkit.cli  # noqa: F401

    modules = [m for key, m in sorted(sys.modules.items()) if key.startswith("tmfkit")]
    scalars = sys.modules["tmfkit.scalars"]
    sampler = tracer.census_sampler(scalars.format_scalar)
    for name, mod, attr in FUNCTIONS:
        original = getattr(sys.modules[f"tmfkit.{mod}"], attr)
        wrapped = tracer.wrap(name, original, count=COUNTERS.get(name))
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
    for name, mod, cls_name, meth in METHODS:
        cls = getattr(sys.modules[f"tmfkit.{mod}"], cls_name)
        sample = sampler if name in ("scalars.mul", "scalars.addsub") else None
        setattr(cls, meth, tracer.wrap(name, vars(cls)[meth], COUNTERS.get(name), sample))
