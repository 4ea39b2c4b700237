"""Finitely presented connected graded algebras with PBW rewriting.

An algebra is given by an ordered list of generators with positive degrees
and, for every out-of-order generator pair (b, a) with b after a, a single
rewrite rule x_b*x_a -> sum of normal-ordered monomials of the same degree.
Normal-ordered monomials (exponent vectors) form the PBW basis; rewriting a
word to its normal form defines the multiplication.

One product cache per algebra holds x^e1 * x^e2: a generator step is the
product with the one-letter monomial units[g] and applies at most one pair
rule.  Each product owns a budget of REWRITE_FUEL steps.  The diamond test on
all generator triples runs at construction time; its failure is an error.
"""

from __future__ import annotations

from . import linalg
from .scalars import (
    MINUS_ONE,
    ONE,
    ZERO,
    Scalar,
    ScalarParseError,
    _LiteralParser,
    _power,
    _scalar_atom,
    format_scalar,
)

Exps = tuple  # tuple[int, ...], one exponent per generator

REWRITE_FUEL = 5_000_000


class AlgebraMismatch(ValueError):
    """Operands live over different algebra presentations."""


class IllDefined(ValueError):
    """A map does not send every defining rule to zero."""


class NotLinear(ValueError):
    """Generator images are not scalar-linear in generators."""


class Singular(ValueError):
    """Linear coefficient matrix is not invertible."""


class NotNormal(ValueError):
    """No normalizing automorphism exists (linear system inconsistent)."""


class Ambiguous(ValueError):
    """Normalizing data is not unique on the checked window (f not regular)."""


class ConfluenceFailure(ValueError):
    """The diamond test failed for a generator triple."""


class RewriteLimitExceeded(RuntimeError):
    """Rewriting exceeded its operation budget or Python's recursion depth;
    the message names the algebra and the word being rewritten."""


class PolyParseError(ValueError):
    """Malformed polynomial literal."""


class GradedAlgebra:
    """Presentation with PBW pair rules; frozen after construction."""

    def __init__(
        self,
        generators: list[tuple[str, int]],
        rules: dict[tuple[int, int], list[tuple[Scalar, Exps]]],
    ) -> None:
        names = [g[0] for g in generators]
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names")
        degrees = [g[1] for g in generators]
        if any(d <= 0 for d in degrees):
            raise ValueError("generator degrees must be positive")
        self.names = tuple(names)
        self.degrees = tuple(degrees)
        self.ngens = len(names)
        normalized: dict[tuple[int, int], tuple[tuple[Scalar, Exps], ...]] = {}
        # each rule as its summed terms, whatever their order: equality and
        # the diamond test read these
        self._rule_sums: dict[tuple[int, int], dict] = {}
        for b in range(self.ngens):
            for a in range(b):
                if (b, a) not in rules:
                    raise ValueError(f"missing rule for pair ({names[b]}, {names[a]})")
        for (b, a), rhs in rules.items():
            if not (0 <= a < b < self.ngens):
                raise ValueError(f"rule pair {(b, a)} is not an out-of-order pair")
            target_deg = degrees[b] + degrees[a]
            cleaned, sums = [], {}
            for coeff, exps in rhs:
                if coeff.is_zero():
                    continue
                exps = tuple(exps)
                if len(exps) != self.ngens or any(e < 0 for e in exps):
                    raise ValueError(f"bad monomial {exps} in rule ({b},{a})")
                if self._exps_degree_raw(exps) != target_deg:
                    raise ValueError(
                        f"rule ({names[b]},{names[a]}) is not degree-homogeneous"
                    )
                cleaned.append((coeff, exps))
                _acc_into(sums, {exps: coeff}, ONE)
            normalized[(b, a)] = tuple(cleaned)
            self._rule_sums[(b, a)] = sums
        self.rules = normalized
        self.units = tuple(
            tuple(int(h == g) for h in range(self.ngens)) for g in range(self.ngens)
        )
        self._mono_mul_cache: dict = {}
        self._basis_cache: dict[int, tuple[Exps, ...]] = {}
        self._degree_cache: dict[Exps, int] = {}
        self.check_diamond()

    def _exps_degree_raw(self, exps: Exps) -> int:
        return sum(e * d for e, d in zip(exps, self.degrees))

    # -- presentation-level helpers -----------------------------------------

    def gen_index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"no generator named {name!r}") from None

    def zero(self) -> NCPoly:
        return NCPoly(self, {})

    def one(self) -> NCPoly:
        return NCPoly(self, {(0,) * self.ngens: ONE})

    def gen(self, g: int | str) -> NCPoly:
        if isinstance(g, str):
            g = self.gen_index(g)
        return NCPoly(self, {self.units[g]: ONE})

    def monomial(self, exps: Exps, coeff: Scalar = ONE) -> NCPoly:
        return NCPoly(self, {tuple(exps): coeff} if not coeff.is_zero() else {})

    def scalar(self, c: Scalar) -> NCPoly:
        return self.monomial((0,) * self.ngens, c)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, GradedAlgebra):
            return NotImplemented
        return (
            self.names == other.names
            and self.degrees == other.degrees
            and self._rule_sums == other._rule_sums
        )

    def __hash__(self) -> int:
        return hash((self.names, self.degrees))

    def __repr__(self) -> str:
        gens = ", ".join(f"{n}:{d}" for n, d in zip(self.names, self.degrees))
        return f"GradedAlgebra({gens})"

    # -- rewriting -----------------------------------------------------------

    def _mono_times_mono(self, e1: Exps, e2: Exps, fuel: list[int]) -> dict:
        """Normal form of x^e1 * x^e2 as terms, cached per pair.  A one-letter
        e2 = units[g] is one step: it applies at most one pair rule and, when
        not cached, costs one unit of fuel.  A longer e2 is multiplied on one
        generator at a time."""
        key = (e1, e2)
        hit = self._mono_mul_cache.get(key)
        if hit is not None:
            return hit
        if sum(e2) == 1:
            fuel[0] -= 1
            if fuel[0] <= 0:
                raise RewriteLimitExceeded("operation budget exhausted")
            g = e2.index(1)
            last = next((j for j in range(self.ngens - 1, g, -1) if e1[j]), None)
            if last is None:
                result = {tuple(x + y for x, y in zip(e1, e2)): ONE}
            else:
                head = e1[:last] + (e1[last] - 1,) + e1[last + 1 :]
                result = {}
                for coeff, target in self.rules[(last, g)]:
                    _acc_into(result, self._mono_times_mono(head, target, fuel), coeff)
        else:
            result = {e1: ONE}
            for g, k in enumerate(e2):
                for _ in range(k):
                    nxt: dict = {}
                    for e, c in result.items():
                        _acc_into(nxt, self._mono_times_mono(e, self.units[g], fuel), c)
                    result = nxt
        self._mono_mul_cache[key] = result
        return result

    # The rewriting entry points below (_mul_into and normal_form) turn an
    # exhausted budget, or a word deep enough to exhaust Python's recursion
    # depth in the method above, into one RewriteLimitExceeded naming the
    # algebra and the word.
    def _rewrite_failure(self, word: str, exc: Exception) -> RewriteLimitExceeded:
        reason = "recursion depth exhausted" if isinstance(exc, RecursionError) else exc
        return RewriteLimitExceeded(f"rewriting {word} in {self!r}: {reason}")

    def _mul_into(self, out: dict, terms_a: dict, terms_b: dict) -> None:
        """Accumulate the product of two term dicts into out, which never
        holds a zero coefficient; the product owns a budget of REWRITE_FUEL
        rewrite steps."""
        fuel = [REWRITE_FUEL]
        for e1, c1 in terms_a.items():
            for e2, c2 in terms_b.items():
                try:
                    part = self._mono_times_mono(e1, e2, fuel)
                except (RewriteLimitExceeded, RecursionError) as exc:
                    word = " * ".join(_format_monomial(self, e) or "1" for e in (e1, e2))
                    raise self._rewrite_failure(word, exc) from None
                _acc_into(out, part, c1 * c2)

    def slice_matrix(self, columns: list[list[tuple]]) -> list[dict[int, Scalar]]:
        """Matrix of a k-linear map on a graded slice, one column per image,
        as sparse rows ``{column: nonzero Scalar}``.

        Each column is a list of (key, terms_a, terms_b) products; row
        (key, exps) holds the coefficient of exps in the sum of the column's
        products under key.  Rows come in first-seen order.
        """
        rows: dict = {}
        for j, products in enumerate(columns):
            parts: dict = {}
            for key, terms_a, terms_b in products:
                if terms_a and terms_b:
                    self._mul_into(parts.setdefault(key, {}), terms_a, terms_b)
            for key, part in parts.items():
                for e, c in part.items():
                    rows.setdefault((key, e), {})[j] = c
        return list(rows.values())

    def normal_form(self, word: list[int] | tuple[int, ...]) -> NCPoly:
        """Normal form of a word of generator indices as an element."""
        fuel = [REWRITE_FUEL]
        current = {(0,) * self.ngens: ONE}
        for g in word:
            if not (0 <= g < self.ngens):
                raise ValueError(f"bad generator index {g}")
        try:
            for g in word:
                nxt: dict = {}
                for e, c in current.items():
                    _acc_into(nxt, self._mono_times_mono(e, self.units[g], fuel), c)
                current = nxt
        except (RewriteLimitExceeded, RecursionError) as exc:
            text = "*".join(self.names[g] for g in word)
            raise self._rewrite_failure(text, exc) from None
        return _wrap(self, current)

    def check_diamond(self) -> None:
        """Local confluence: (x_c x_b) x_a = x_c (x_b x_a) on every triple,
        each side one product of a rule's right side and a generator."""
        rhs = self._rule_sums
        for c in range(self.ngens):
            for b in range(c):
                for a in range(b):
                    left: dict = {}
                    right: dict = {}
                    self._mul_into(left, rhs[(c, b)], {self.units[a]: ONE})
                    self._mul_into(right, {self.units[c]: ONE}, rhs[(b, a)])
                    if left != right:
                        raise ConfluenceFailure(
                            f"diamond fails on ({self.names[c]}, {self.names[b]}, "
                            f"{self.names[a]})"
                        )

    # -- graded pieces --------------------------------------------------------

    def exps_degree(self, exps: Exps) -> int:
        """Degree of a PBW monomial, computed once per algebra."""
        degree = self._degree_cache.get(exps)
        if degree is None:
            degree = self._degree_cache[exps] = self._exps_degree_raw(exps)
        return degree

    def monomials_of_degree(self, degree: int) -> tuple[Exps, ...]:
        """All PBW monomials of the given total degree, lexicographic order."""
        if degree < 0:
            return ()
        hit = self._basis_cache.get(degree)
        if hit is not None:
            return hit
        # extend every prefix by each exponent of the next generator in
        # ascending order, which keeps the prefixes in lexicographic order
        partial: list[tuple[Exps, int]] = [((), degree)]
        for d in self.degrees:
            partial = [
                (prefix + (e,), remaining - e * d)
                for prefix, remaining in partial
                for e in range(remaining // d + 1)
            ]
        result = tuple(prefix for prefix, remaining in partial if remaining == 0)
        self._basis_cache[degree] = result
        return result


def _acc_into(acc: dict, part: dict, coeff: Scalar) -> None:
    """acc += coeff * part; a coefficient that cancels is removed."""
    for e, c in part.items():
        prod = c if coeff is ONE else coeff if c is ONE else coeff * c
        prev = acc.get(e)
        new = prod if prev is None else prev + prod
        if new.is_zero():
            acc.pop(e, None)
        else:
            acc[e] = new


def hilbert_series(algebra: GradedAlgebra, max_degree: int) -> list[int]:
    """Graded dimensions in degrees 0..max_degree (PBW monomial counts)."""
    dims = [0] * (max_degree + 1)
    dims[0] = 1
    for d in algebra.degrees:
        for e in range(d, max_degree + 1):
            dims[e] += dims[e - d]
    return dims


class NCPoly:
    """Element of a GradedAlgebra in the PBW basis; immutable by discipline."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: GradedAlgebra, terms: dict) -> None:
        self.algebra = algebra
        self.terms = {e: c for e, c in terms.items() if not c.is_zero()}

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int | None:
        """Degree of a homogeneous element; None for 0; raises if mixed."""
        degs = {self.algebra.exps_degree(e) for e in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError("element is not homogeneous")
        return degs.pop()

    def constant_term(self) -> Scalar:
        return self.terms.get((0,) * self.algebra.ngens, ZERO)

    def _operand(self, other: NCPoly) -> dict | None:
        """other's terms; None for a foreign operand, so NotImplemented."""
        try:
            terms = other.terms
        except AttributeError:
            return None
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise AlgebraMismatch("operands live over different algebras")
        return terms

    def __add__(self, other: NCPoly) -> NCPoly:
        terms = self._operand(other)
        if terms is None:
            return NotImplemented
        out = dict(self.terms)
        _acc_into(out, terms, ONE)
        return _wrap(self.algebra, out)

    def __sub__(self, other: NCPoly) -> NCPoly:
        terms = self._operand(other)
        if terms is None:
            return NotImplemented
        out = dict(self.terms)
        _acc_into(out, terms, MINUS_ONE)
        return _wrap(self.algebra, out)

    def __neg__(self) -> NCPoly:
        return _wrap(self.algebra, {e: -c for e, c in self.terms.items()})

    def scale(self, c: Scalar) -> NCPoly:
        if c.is_zero():
            return self.algebra.zero()
        return _wrap(self.algebra, {e: c * x for e, x in self.terms.items()})

    def __mul__(self, other: NCPoly | Scalar) -> NCPoly:
        if isinstance(other, Scalar):
            return self.scale(other)
        terms = self._operand(other)
        if terms is None:
            return NotImplemented
        out: dict = {}
        self.algebra._mul_into(out, self.terms, terms)
        return _wrap(self.algebra, out)

    def __pow__(self, k: int) -> NCPoly:
        """self^k for k >= 0 (0^0 = 1): a scalar power in the scalar field,
        any other by repeated squaring."""
        if k < 0:
            raise ValueError("negative powers are not defined in the algebra")
        if not any(any(e) for e in self.terms):
            return self.algebra.scalar(self.constant_term() ** k)
        return _power(self, k, self.algebra.one())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self.algebra == other.algebra and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.algebra, tuple(sorted(self.terms.items(), key=lambda kv: kv[0]))))

    def __repr__(self) -> str:
        return f"NCPoly({format_poly(self)})"

    def __str__(self) -> str:
        return format_poly(self)

    def lift(self, super_algebra: GradedAlgebra) -> NCPoly:
        """Extension of scalars along a presentation that appends generators."""
        pad = super_algebra.ngens - self.algebra.ngens
        if pad < 0 or super_algebra.names[: self.algebra.ngens] != self.algebra.names:
            raise AlgebraMismatch("target does not extend this presentation")
        return NCPoly(
            super_algebra, {e + (0,) * pad: c for e, c in self.terms.items()}
        )

    def restrict(self, sub_algebra: GradedAlgebra) -> NCPoly:
        """Set appended generators to zero and land in the base presentation."""
        cut = sub_algebra.ngens
        if cut > self.algebra.ngens or self.algebra.names[:cut] != sub_algebra.names:
            raise AlgebraMismatch("base does not truncate this presentation")
        out: dict = {}
        for e, c in self.terms.items():
            if any(e[cut:]):
                continue
            _acc_into(out, {e[:cut]: ONE}, c)
        return NCPoly(sub_algebra, out)


def _wrap(algebra: GradedAlgebra, terms: dict) -> NCPoly:
    """An NCPoly over terms that hold no zero coefficient, taken as they are."""
    p = object.__new__(NCPoly)
    p.algebra = algebra
    p.terms = terms
    return p


class AlgebraMorphism:
    """Graded homomorphism between presentations, given by generator images.

    Well-definedness (every rule maps to zero) is checked at construction
    unless the caller opts out.
    """

    __slots__ = ("source", "target", "images", "_mono_cache")

    def __init__(
        self,
        source: GradedAlgebra,
        target: GradedAlgebra,
        images: list[NCPoly],
        check: bool = True,
    ) -> None:
        if len(images) != source.ngens:
            raise ValueError("one image per generator required")
        for g, img in enumerate(images):
            if img.algebra != target:
                raise AlgebraMismatch("image lives over a different algebra")
            if not img.is_zero() and img.degree() != source.degrees[g]:
                raise IllDefined(
                    f"image of {source.names[g]} is not homogeneous of its degree"
                )
        self.source = source
        self.target = target
        self.images = tuple(images)
        self._mono_cache: dict = {}
        if check:
            self.check_well_defined()

    def check_well_defined(self, first: int = 0) -> None:
        """IllDefined unless every rule (b, a) with b >= first maps to zero."""
        for (b, a), rhs in self.source.rules.items():
            if b < first:
                continue
            lhs = self.images[b] * self.images[a]
            for coeff, exps in rhs:
                lhs = lhs - self._apply_monomial(exps).scale(coeff)
            if not lhs.is_zero():
                raise IllDefined(
                    f"rule ({self.source.names[b]}, {self.source.names[a]}) "
                    "does not map to zero"
                )

    def _apply_monomial(self, exps: Exps) -> NCPoly:
        """Image of a monomial: peel generators off its end down to a cached
        prefix (or 1), then multiply their images back on, caching each
        prefix; a loop, so a long monomial needs no deep recursion."""
        cache = self._mono_cache
        peeled = []
        while exps not in cache:
            if not any(exps):
                cache[exps] = self.target.one()
                break
            last = max(g for g in range(self.source.ngens) if exps[g])
            peeled.append((exps, last))
            head = list(exps)
            head[last] -= 1
            exps = tuple(head)
        result = cache[exps]
        for exps, last in reversed(peeled):
            result = result * self.images[last]
            cache[exps] = result
        return result

    def __call__(self, p: NCPoly) -> NCPoly:
        if p.algebra != self.source:
            raise AlgebraMismatch("element lives over a different algebra")
        out: dict = {}
        for e, c in p.terms.items():
            _acc_into(out, self._apply_monomial(e).terms, c)
        return _wrap(self.target, out)


class GradedAutomorphism(AlgebraMorphism):
    """Degree-0 algebra endomorphism: the source = target AlgebraMorphism.

    Inversion is supported for generator-linear images only.
    """

    __slots__ = ("_inverse",)

    def __init__(
        self,
        algebra: GradedAlgebra,
        images: list[NCPoly],
        check: bool = True,
    ) -> None:
        self._inverse: GradedAutomorphism | None = None
        super().__init__(algebra, algebra, images, check)

    # The benchmark's span tracer (perfbench/spans.py) wraps these two
    # through vars(GradedAutomorphism), so they are bound here by name.
    __call__ = AlgebraMorphism.__call__
    check_well_defined = AlgebraMorphism.check_well_defined

    @property
    def algebra(self) -> GradedAlgebra:
        return self.source

    @staticmethod
    def identity(algebra: GradedAlgebra) -> GradedAutomorphism:
        return GradedAutomorphism(
            algebra, [algebra.gen(g) for g in range(algebra.ngens)], check=False
        )

    def is_identity(self) -> bool:
        return all(
            self.images[g] == self.algebra.gen(g) for g in range(self.algebra.ngens)
        )

    def linear_matrix(self) -> list[dict[int, Scalar]]:
        """Coefficient matrix M with image(x_g) = sum_h M[g][h] x_h, as sparse
        rows."""
        mat: list[dict[int, Scalar]] = [{} for _ in self.images]
        for g, img in enumerate(self.images):
            for e, c in img.terms.items():
                if sum(e) != 1:
                    raise NotLinear(
                        f"image of {self.algebra.names[g]} is not generator-linear"
                    )
                mat[g][e.index(1)] = c
        return mat

    def inverse(self) -> GradedAutomorphism:
        if self._inverse is not None:
            return self._inverse
        inv = linalg.invert(self.linear_matrix())
        if inv is None:
            raise Singular("generator coefficient matrix is singular")
        units = self.algebra.units
        # terms in generator order: an Ore cover stores its rules, and writes
        # them to JSON, in the term order of these images
        images = [NCPoly(self.algebra, {units[h]: row[h] for h in sorted(row)}) for row in inv]
        result = GradedAutomorphism(self.algebra, images, check=False)
        for g in range(self.algebra.ngens):
            if result(self.images[g]) != self.algebra.gen(g) or self(
                result.images[g]
            ) != self.algebra.gen(g):
                raise Singular("inverse verification failed")
        self._inverse = result
        return result

    def compose(self, other: GradedAutomorphism) -> GradedAutomorphism:
        """self after other: x -> self(other(x))."""
        if other.algebra != self.algebra:
            raise AlgebraMismatch("automorphisms over different algebras")
        return GradedAutomorphism(
            self.algebra, [self(img) for img in other.images], check=False
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedAutomorphism):
            return NotImplemented
        return self.algebra == other.algebra and self.images == other.images

    def __hash__(self) -> int:
        return hash((self.algebra, self.images))

    def __repr__(self) -> str:
        body = ", ".join(
            f"{n} -> {format_poly(img)}" for n, img in zip(self.algebra.names, self.images)
        )
        return f"GradedAutomorphism({body})"


def ore_extension(
    algebra: GradedAlgebra,
    names: tuple[str, ...],
    degree: int,
    tau: GradedAutomorphism,
) -> GradedAlgebra:
    """Append generators z, ..., w of one degree, with z*x_a -> tau(x_a)*z,
    and commuting with one another, in the order of names.

    tau is well defined, as every GradedAutomorphism is; the diamond test is
    re-run on the extension.
    """
    if tau.algebra != algebra:
        raise AlgebraMismatch("tau lives over a different algebra")
    gens = list(zip(algebra.names, algebra.degrees)) + [(name, degree) for name in names]
    n, k = algebra.ngens, len(names)
    rules = {ba: [(c, e + (0,) * k) for c, e in rhs] for ba, rhs in algebra.rules.items()}
    for z in range(k):
        mark = tuple(int(j == z) for j in range(k))
        for a in range(n):
            rules[(n + z, a)] = [(c, e + mark) for e, c in tau.images[a].terms.items()]
        for a in range(z):
            rules[(n + z, n + a)] = [(ONE, (0,) * n + tuple(int(j in (a, z)) for j in range(k)))]
    return GradedAlgebra(gens, rules)


def extend_automorphism(
    auto: GradedAutomorphism,
    extended: GradedAlgebra,
    last_images: list[NCPoly],
) -> GradedAutomorphism:
    """Extend an automorphism of the base to an Ore extension.  When
    `extended` keeps the base rules as they are, only the rules it adds are
    checked: a lifted base rule maps to the lift of its residual under
    `auto`, which is zero because every GradedAutomorphism is well defined."""
    base = auto.algebra
    images = [img.lift(extended) for img in auto.images] + list(last_images)
    pad = (0,) * (extended.ngens - base.ngens)
    keeps = all(
        extended.rules[ba] == tuple((c, e + pad) for c, e in r) for ba, r in base.rules.items()
    )
    result = GradedAutomorphism(extended, images, check=False)
    result.check_well_defined(base.ngens if keeps else 0)
    return result


def normalizing_automorphism(f: NCPoly) -> GradedAutomorphism:
    """Solve a*f = f*sigma(a) for every generator a, with one rref per degree
    e of [f*m for m in A_e | a*f for each generator a of degree e].  The
    first generator that fails is named: NotNormal when its column is a
    pivot (a*f is no right f-multiple; the earlier ones passed, so this is
    exact), Ambiguous when the f*m columns are dependent (f is not regular)."""
    algebra = f.algebra
    if f.is_zero():
        raise NotNormal("zero element has no normalizing automorphism")
    f.degree()  # raises ValueError when f is not homogeneous
    solved: dict[int, tuple] = {}
    images: list[NCPoly] = []
    for g, degree in enumerate(algebra.degrees):
        if degree not in solved:
            gens = [h for h, e in enumerate(algebra.degrees) if e == degree]
            basis = algebra.monomials_of_degree(degree)
            columns = [[(0, f.terms, {m: ONE})] for m in basis]
            columns += [[(0, {algebra.units[h]: ONE}, f.terms)] for h in gens]
            solved[degree] = (gens, basis, linalg.rref(algebra.slice_matrix(columns)))
        gens, basis, echelon = solved[degree]
        n = len(basis)
        col = n + gens.index(g)
        pivots = [pc for pc, _ in echelon]
        if col in pivots:
            raise NotNormal(
                f"{algebra.names[g]}*f is not a right f-multiple: f is not normal"
            )
        if sum(pc < n for pc in pivots) < n:
            raise Ambiguous(
                f"normalizing image of {algebra.names[g]} is not unique "
                "(f is not regular on this window)"
            )
        # the f*m columns are the pivots 0..n-1, so row r solves for basis[r]
        image = {m: row[col] for m, (_, row) in zip(basis, echelon) if col in row}
        images.append(NCPoly(algebra, image))
    return GradedAutomorphism(algebra, images)


def left_ranks(f: NCPoly, max_degree: int) -> list[int]:
    """Rank of m -> f*m on each A_e, e <= max_degree; f is regular on the
    window when every rank is dim A_e."""
    algebra = f.algebra
    ranks = []
    for e in range(max_degree + 1):
        columns = [[(0, f.terms, {m: ONE})] for m in algebra.monomials_of_degree(e)]
        ranks.append(linalg.rank(algebra.slice_matrix(columns)))
    return ranks


# ---------------------------------------------------------------------------
# Zhang twist by a diagonal twisting system xi_n = phi^n
# ---------------------------------------------------------------------------


class ZhangTwist:
    """Left Zhang twist A^xi for a diagonal phi, with entry transport.

    Products in the twist are c1 * c2 = xi_h(c1) c2 for c2 of degree h.  The
    twisted presentation reuses the generator names and degrees; only the
    rule coefficients change.  to_base converts an element through the
    shared underlying vector space, xi_power applies phi^h.
    """

    __slots__ = ("base", "phi", "eigenvalues", "twisted")

    def __init__(self, base: GradedAlgebra, phi: GradedAutomorphism) -> None:
        if phi.algebra != base:
            raise AlgebraMismatch("phi lives over a different algebra")
        eigen: list[Scalar] = []
        for g, img in enumerate(phi.images):
            unit = base.units[g]
            if set(img.terms) != {unit}:
                raise NotLinear("zhang transport implemented for diagonal phi only")
            eigen.append(img.terms[unit])
        self.base = base
        self.phi = phi
        self.eigenvalues = tuple(eigen)
        self.twisted = self._build_twisted()

    def _star_factor(self, exps: Exps) -> Scalar:
        """Scalar s with (star monomial exps) = s * (base monomial exps): the
        k-th x_g from the right meets xi_h, h = S_g + k*d_g with S_g the degree
        of the letters after g, so x_g^e gives lambda_g^(e*S_g + d_g*e(e-1)/2)."""
        factor = ONE
        suffix_degree = 0
        for g in range(self.base.ngens - 1, -1, -1):
            e, d = exps[g], self.base.degrees[g]
            if e:
                factor = factor * self.eigenvalues[g] ** (e * suffix_degree + d * e * (e - 1) // 2)
            suffix_degree += e * d
        return factor

    def _build_twisted(self) -> GradedAlgebra:
        base = self.base
        rules: dict[tuple[int, int], list[tuple[Scalar, Exps]]] = {}
        for (b, a), _ in base.rules.items():
            # x_b * x_a in the twist = xi_{deg a}(x_b) x_a in the base
            coeff = self.eigenvalues[b] ** base.degrees[a]
            product = (base.gen(b) * base.gen(a)).terms
            rules[(b, a)] = [(coeff * c / self._star_factor(e), e) for e, c in product.items()]
        return GradedAlgebra(list(zip(base.names, base.degrees)), rules)

    def to_base(self, p: NCPoly) -> NCPoly:
        """Reinterpret an element of the twist as the same vector in the base."""
        if p.algebra != self.twisted:
            raise AlgebraMismatch("element does not live over the twisted algebra")
        return NCPoly(
            self.base, {e: c * self._star_factor(e) for e, c in p.terms.items()}
        )

    def xi_power(self, p: NCPoly, h: int) -> NCPoly:
        """Apply xi_h = phi^h to a base element (diagonal, so exact for any h)."""
        out: dict = {}
        for e, c in p.terms.items():
            factor = ONE
            for g, k in enumerate(e):
                if k:
                    factor = factor * self.eigenvalues[g] ** (h * k)
            out[e] = c * factor
        return NCPoly(self.base, out)

    def twisting_constant(self, f: NCPoly) -> Scalar:
        """Scalar c with phi(f) = c^{-1} f; raises when f is not an eigenvector."""
        image = self.xi_power(f, 1)
        candidate: Scalar | None = None
        for e, c in f.terms.items():
            ratio = image.terms.get(e, ZERO) / c
            if candidate is None:
                candidate = ratio
            elif candidate != ratio:
                raise ValueError("f is not a phi-eigenvector")
        if candidate is None or candidate.is_zero():
            raise ValueError("f is zero or not a phi-eigenvector")
        return candidate.inverse()


# ---------------------------------------------------------------------------
# polynomial literals
# ---------------------------------------------------------------------------


def parse_poly(text: str, algebra: GradedAlgebra) -> NCPoly:
    """Parse a polynomial literal: the scalar literal grammar with generator
    names as further atoms.  'i' is always the scalar; 't' is the scalar
    unless the algebra has a generator named t.  '/' and negative powers
    need scalar operands."""

    def atom(tok) -> NCPoly:
        if tok.kind == "name" and tok.value != "i" and tok.value in algebra.names:
            return algebra.gen(tok.value)
        return algebra.scalar(_scalar_atom(tok))

    def as_scalar(p: NCPoly) -> Scalar | None:
        const = p.constant_term()
        return const if p == algebra.scalar(const) else None

    try:
        return _LiteralParser(text, atom, as_scalar, algebra.one()).parse()
    except (ScalarParseError, ZeroDivisionError) as exc:
        raise PolyParseError(str(exc)) from exc


def _format_monomial(algebra: GradedAlgebra, exps: Exps) -> str:
    parts = []
    for g, e in enumerate(exps):
        if e == 1:
            parts.append(algebra.names[g])
        elif e > 1:
            parts.append(f"{algebra.names[g]}^{e}")
    return "*".join(parts)


def _coeff_times(c: Scalar, mono: str) -> str:
    """Render c*mono, pulling a leading minus out of simple coefficients."""
    s = format_scalar(c)
    neg = s.startswith("-")
    body = s[1:] if neg else s
    plain = body.replace("/", "").replace("^", "").replace("*", "")
    if plain.isalnum() and not any(ch in body for ch in "+-() "):
        out = f"{body}*{mono}"
        return f"-{out}" if neg else out
    return f"({s})*{mono}"


def format_poly(p: NCPoly) -> str:
    if p.is_zero():
        return "0"
    algebra = p.algebra
    items = sorted(
        p.terms.items(), key=lambda kv: (algebra.exps_degree(kv[0]), kv[0])
    )
    parts: list[str] = []
    for exps, c in items:
        mono = _format_monomial(algebra, exps)
        if not mono:
            term = format_scalar(c)
            if parts and not term.startswith("-") and ("+" in term or "-" in term[1:]):
                term = f"({term})"
        elif c == ONE:
            term = mono
        elif c == -ONE:
            term = f"-{mono}"
        else:
            term = _coeff_times(c, mono)
        if not parts:
            parts.append(term)
        elif term.startswith("-"):
            parts.append(f" - {term[1:]}")
        else:
            parts.append(f" + {term}")
    return "".join(parts)

