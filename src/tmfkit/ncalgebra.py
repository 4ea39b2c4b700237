"""Finitely presented connected graded algebras with PBW rewriting.

An algebra is given by an ordered list of generators with positive degrees
and, for every out-of-order generator pair (b, a) with b after a, a single
rewrite rule x_b*x_a -> sum of normal-ordered monomials of the same degree.
Normal-ordered monomials (exponent vectors) form the PBW basis; rewriting a
word to its normal form defines the multiplication.

The diamond test on all generator triples is run at construction time and
its failure is a hard error.  Termination is certified per rule (targets are
normal ordered) and enforced globally by an operation budget.
"""

from __future__ import annotations

from . import linalg
from .scalars import (
    ONE,
    ZERO,
    Scalar,
    ScalarParseError,
    _LiteralParser,
    _scalar_atom,
    format_scalar,
    parse_scalar,
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
    """Rewriting exceeded its operation budget (nonterminating presentation?)."""


class PolyParseError(ValueError):
    """Malformed polynomial literal."""


class GradedAlgebra:
    """Presentation with PBW pair rules; frozen after construction."""

    def __init__(
        self,
        generators: list[tuple[str, int]],
        rules: dict[tuple[int, int], list[tuple[Scalar, Exps]]],
        check_confluence: bool = True,
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
        for b in range(self.ngens):
            for a in range(b):
                if (b, a) not in rules:
                    raise ValueError(f"missing rule for pair ({names[b]}, {names[a]})")
        for (b, a), rhs in rules.items():
            if not (0 <= a < b < self.ngens):
                raise ValueError(f"rule pair {(b, a)} is not an out-of-order pair")
            target_deg = degrees[b] + degrees[a]
            cleaned = []
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
            normalized[(b, a)] = tuple(cleaned)
        self.rules = normalized
        self._gen_mul_cache: dict = {}
        self._mono_mul_cache: dict = {}
        self._basis_cache: dict[int, tuple[Exps, ...]] = {}
        if check_confluence:
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
        exps = [0] * self.ngens
        exps[g] = 1
        return NCPoly(self, {tuple(exps): ONE})

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
            and self.rules == other.rules
        )

    def __hash__(self) -> int:
        return hash((self.names, self.degrees))

    def __repr__(self) -> str:
        gens = ", ".join(f"{n}:{d}" for n, d in zip(self.names, self.degrees))
        return f"GradedAlgebra({gens})"

    # -- rewriting -----------------------------------------------------------

    def _exps_word(self, exps: Exps) -> tuple[int, ...]:
        word: list[int] = []
        for g, e in enumerate(exps):
            word.extend([g] * e)
        return tuple(word)

    def _mono_times_gen(self, exps: Exps, g: int, fuel: list[int]) -> dict:
        key = (exps, g)
        hit = self._gen_mul_cache.get(key)
        if hit is not None:
            return hit
        fuel[0] -= 1
        if fuel[0] <= 0:
            raise RewriteLimitExceeded("rewriting operation budget exhausted")
        last = None
        for j in range(self.ngens - 1, -1, -1):
            if exps[j]:
                last = j
                break
        if last is None or last <= g:
            out_exps = list(exps)
            out_exps[g] += 1
            result = {tuple(out_exps): ONE}
        else:
            head = list(exps)
            head[last] -= 1
            head_t = tuple(head)
            result = {}
            for coeff, target in self.rules[(last, g)]:
                _acc_into(result, self._mono_times_mono(head_t, target, fuel), coeff)
        self._gen_mul_cache[key] = result
        return result

    def _mono_times_mono(self, e1: Exps, e2: Exps, fuel: list[int]) -> dict:
        key = (e1, e2)
        hit = self._mono_mul_cache.get(key)
        if hit is not None:
            return hit
        current = {e1: ONE}
        for g in self._exps_word(e2):
            nxt: dict = {}
            for e, c in current.items():
                _acc_into(nxt, self._mono_times_gen(e, g, fuel), c)
            current = nxt
        self._mono_mul_cache[key] = current
        return current

    def normal_form(self, word: list[int] | tuple[int, ...]) -> NCPoly:
        """Normal form of a word of generator indices as an element."""
        fuel = [REWRITE_FUEL]
        current = {(0,) * self.ngens: ONE}
        for g in word:
            if not (0 <= g < self.ngens):
                raise ValueError(f"bad generator index {g}")
            nxt: dict = {}
            for e, c in current.items():
                _acc_into(nxt, self._mono_times_gen(e, g, fuel), c)
            current = nxt
        return NCPoly(self, current)

    def check_diamond(self) -> None:
        """Local confluence: both first steps on x_c x_b x_a agree."""
        for c in range(self.ngens):
            for b in range(c):
                for a in range(b):
                    fuel = [REWRITE_FUEL]
                    left: dict = {}
                    for coeff, target in self.rules[(c, b)]:
                        part = self._mono_times_mono(target, self._unit(a), fuel)
                        _acc_into(left, part, coeff)
                    right: dict = {}
                    unit_c = self._unit(c)
                    for coeff, target in self.rules[(b, a)]:
                        part = self._mono_times_mono(unit_c, target, fuel)
                        _acc_into(right, part, coeff)
                    if left != right:
                        raise ConfluenceFailure(
                            f"diamond fails on ({self.names[c]}, {self.names[b]}, "
                            f"{self.names[a]})"
                        )

    def _unit(self, g: int) -> Exps:
        exps = [0] * self.ngens
        exps[g] = 1
        return tuple(exps)

    # -- graded pieces --------------------------------------------------------

    def exps_degree(self, exps: Exps) -> int:
        return self._exps_degree_raw(exps)

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
    for e, c in part.items():
        prod = coeff * c
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

    def is_homogeneous(self) -> bool:
        return len({self.algebra.exps_degree(e) for e in self.terms}) <= 1

    def coefficient(self, exps: Exps) -> Scalar:
        return self.terms.get(tuple(exps), ZERO)

    def constant_term(self) -> Scalar:
        return self.terms.get((0,) * self.algebra.ngens, ZERO)

    def _check_same(self, other: NCPoly) -> None:
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise AlgebraMismatch("operands live over different algebras")

    def __add__(self, other: NCPoly) -> NCPoly:
        self._check_same(other)
        out = dict(self.terms)
        _acc_into(out, other.terms, ONE)
        return NCPoly(self.algebra, out)

    def __sub__(self, other: NCPoly) -> NCPoly:
        self._check_same(other)
        out = dict(self.terms)
        _acc_into(out, other.terms, -ONE)
        return NCPoly(self.algebra, out)

    def __neg__(self) -> NCPoly:
        return NCPoly(self.algebra, {e: -c for e, c in self.terms.items()})

    def scale(self, c: Scalar) -> NCPoly:
        if c.is_zero():
            return self.algebra.zero()
        return NCPoly(self.algebra, {e: c * x for e, x in self.terms.items()})

    def __mul__(self, other: NCPoly | Scalar) -> NCPoly:
        if isinstance(other, Scalar):
            return self.scale(other)
        self._check_same(other)
        fuel = [REWRITE_FUEL]
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                part = self.algebra._mono_times_mono(e1, e2, fuel)
                _acc_into(out, part, c1 * c2)
        return NCPoly(self.algebra, out)

    def __rmul__(self, other: Scalar) -> NCPoly:
        if isinstance(other, Scalar):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, k: int) -> NCPoly:
        if k < 0:
            raise ValueError("negative powers are not defined in the algebra")
        acc = self.algebra.one()
        for _ in range(k):
            acc = acc * self
        return acc

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

    def check_well_defined(self) -> None:
        for (b, a), rhs in self.source.rules.items():
            lhs = self.images[b] * self.images[a]
            for coeff, exps in rhs:
                lhs = lhs - self._apply_monomial(exps).scale(coeff)
            if not lhs.is_zero():
                raise IllDefined(
                    f"rule ({self.source.names[b]}, {self.source.names[a]}) "
                    "does not map to zero"
                )

    def _apply_monomial(self, exps: Exps) -> NCPoly:
        hit = self._mono_cache.get(exps)
        if hit is not None:
            return hit
        if not any(exps):
            result = self.target.one()
        else:
            last = max(g for g in range(self.source.ngens) if exps[g])
            head = list(exps)
            head[last] -= 1
            result = self._apply_monomial(tuple(head)) * self.images[last]
        self._mono_cache[exps] = result
        return result

    def __call__(self, p: NCPoly) -> NCPoly:
        if p.algebra != self.source:
            raise AlgebraMismatch("element lives over a different algebra")
        out: dict = {}
        for e, c in p.terms.items():
            _acc_into(out, self._apply_monomial(e).terms, c)
        return NCPoly(self.target, out)


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

    def fixes(self, p: NCPoly) -> bool:
        return self(p) == p

    def linear_matrix(self) -> list[list[Scalar]]:
        """Coefficient matrix M with image(x_g) = sum_h M[g][h] x_h."""
        n = self.algebra.ngens
        mat = [[ZERO] * n for _ in range(n)]
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
        units = [self.algebra._unit(h) for h in range(self.algebra.ngens)]
        images = [NCPoly(self.algebra, dict(zip(units, row))) for row in inv]
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


class SkewDerivation:
    """tau-derivation: d(xy) = d(x) y + tau(x) d(y), given on generators."""

    __slots__ = ("algebra", "tau", "images", "shift")

    def __init__(
        self,
        algebra: GradedAlgebra,
        tau: GradedAutomorphism,
        images: list[NCPoly],
        shift: int,
        check: bool = True,
    ) -> None:
        if tau.algebra != algebra:
            raise AlgebraMismatch("companion automorphism over a different algebra")
        if len(images) != algebra.ngens:
            raise ValueError("one image per generator required")
        for g, img in enumerate(images):
            if not img.is_zero() and img.degree() != algebra.degrees[g] + shift:
                raise IllDefined(
                    f"derivation image of {algebra.names[g]} has the wrong degree"
                )
        self.algebra = algebra
        self.tau = tau
        self.images = tuple(images)
        self.shift = shift
        if check:
            self.check_leibniz()

    def _apply_monomial(self, exps: Exps) -> NCPoly:
        if not any(exps):
            return self.algebra.zero()
        first = min(g for g in range(self.algebra.ngens) if exps[g])
        tail = list(exps)
        tail[first] -= 1
        tail_t = tuple(tail)
        head_poly = self.algebra.gen(first)
        rest = self.algebra.monomial(tail_t)
        return self.images[first] * rest + self.tau(head_poly) * self._apply_monomial(
            tail_t
        )

    def __call__(self, p: NCPoly) -> NCPoly:
        out: dict = {}
        for e, c in p.terms.items():
            _acc_into(out, self._apply_monomial(e).terms, c)
        return NCPoly(self.algebra, out)

    def check_leibniz(self) -> None:
        for (b, a), rhs in self.algebra.rules.items():
            xb, xa = self.algebra.gen(b), self.algebra.gen(a)
            lhs = self.images[b] * xa + self.tau(xb) * self.images[a]
            for coeff, exps in rhs:
                lhs = lhs - self._apply_monomial(exps).scale(coeff)
            if not lhs.is_zero():
                raise IllDefined(
                    f"Leibniz identity fails on rule "
                    f"({self.algebra.names[b]}, {self.algebra.names[a]})"
                )


def ore_extension(
    algebra: GradedAlgebra,
    name: str,
    degree: int,
    tau: GradedAutomorphism,
    delta: SkewDerivation | None = None,
) -> GradedAlgebra:
    """Append a generator z with z*x_a -> tau(x_a)*z + delta(x_a).

    The new generator is ordered last.  tau must be well defined and delta,
    when present, must satisfy its Leibniz identity; the diamond test is
    re-run on the extension.
    """
    if tau.algebra != algebra:
        raise AlgebraMismatch("tau lives over a different algebra")
    tau.check_well_defined()
    if delta is not None:
        if delta.algebra != algebra or delta.tau != tau:
            raise AlgebraMismatch("delta does not match the extension data")
        if delta.shift != degree:
            raise IllDefined("delta degree must equal the new generator degree")
        delta.check_leibniz()
    gens = list(zip(algebra.names, algebra.degrees)) + [(name, degree)]
    z = algebra.ngens
    rules: dict[tuple[int, int], list[tuple[Scalar, Exps]]] = {}
    for (b, a), rhs in algebra.rules.items():
        rules[(b, a)] = [(c, e + (0,)) for c, e in rhs]
    for a in range(algebra.ngens):
        rhs_new: list[tuple[Scalar, Exps]] = []
        for e, c in tau.images[a].terms.items():
            rhs_new.append((c, e + (1,)))
        if delta is not None:
            for e, c in delta.images[a].terms.items():
                rhs_new.append((c, e + (0,)))
        rules[(z, a)] = rhs_new
    return GradedAlgebra(gens, rules)


def extend_automorphism(
    auto: GradedAutomorphism,
    extended: GradedAlgebra,
    last_images: list[NCPoly],
    check: bool = True,
) -> GradedAutomorphism:
    """Extend an automorphism of the base to an Ore extension."""
    images = [img.lift(extended) for img in auto.images] + list(last_images)
    return GradedAutomorphism(extended, images, check=check)


def normalizing_automorphism(f: NCPoly) -> GradedAutomorphism:
    """Solve a*f = f*sigma(a) for every generator a.

    Raises NotNormal when the system is inconsistent and Ambiguous when the
    solution is not unique (left multiplication by f fails to be injective
    on the relevant degree window, flagging non-regularity).
    """
    algebra = f.algebra
    if f.is_zero():
        raise NotNormal("zero element has no normalizing automorphism")
    f.degree()  # raises ValueError when f is not homogeneous
    images: list[NCPoly] = []
    for g in range(algebra.ngens):
        basis = algebra.monomials_of_degree(algebra.degrees[g])
        n = len(basis)
        # augmented system [f*m for m in basis | a_g*f]
        columns = [(f * algebra.monomial(m)).terms for m in basis]
        columns.append((algebra.gen(g) * f).terms)
        echelon, pivots = linalg.rref(linalg.coefficient_matrix(columns))
        if n in pivots:
            raise NotNormal(
                f"{algebra.names[g]}*f is not a right f-multiple: f is not normal"
            )
        if len(pivots) < n:
            raise Ambiguous(
                f"normalizing image of {algebra.names[g]} is not unique "
                "(f is not regular on this window)"
            )
        solution = {basis[pc]: echelon[r][n] for r, pc in enumerate(pivots)}
        images.append(NCPoly(algebra, solution))
    return GradedAutomorphism(algebra, images)


def check_regular(f: NCPoly, max_degree: int | None = None) -> bool:
    """Heuristic regularity: left multiplication by f injective up to 2*deg f."""
    algebra = f.algebra
    d = f.degree()
    if d is None:
        return False
    bound = 2 * d if max_degree is None else max_degree
    for e in range(bound + 1):
        basis = algebra.monomials_of_degree(e)
        columns = [(f * algebra.monomial(m)).terms for m in basis]
        if linalg.rank(linalg.coefficient_matrix(columns)) < len(basis):
            return False
    return True


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
            unit = base._unit(g)
            if set(img.terms) != {unit}:
                raise NotLinear("zhang transport implemented for diagonal phi only")
            eigen.append(img.terms[unit])
        self.base = base
        self.phi = phi
        self.eigenvalues = tuple(eigen)
        self.twisted = self._build_twisted()

    def _star_factor(self, exps: Exps) -> Scalar:
        """Scalar s with (star monomial exps) = s * (base monomial exps)."""
        factor = ONE
        suffix_degree = 0
        for g in range(self.base.ngens - 1, -1, -1):
            for _ in range(exps[g]):
                factor = factor * self.eigenvalues[g] ** suffix_degree
                suffix_degree += self.base.degrees[g]
        return factor

    def _build_twisted(self) -> GradedAlgebra:
        base = self.base
        rules: dict[tuple[int, int], list[tuple[Scalar, Exps]]] = {}
        for (b, a), _ in base.rules.items():
            # x_b * x_a in the twist = xi_{deg a}(x_b) x_a in the base
            coeff = self.eigenvalues[b] ** base.degrees[a]
            product = base.gen(b) * base.gen(a)
            rhs: list[tuple[Scalar, Exps]] = []
            for e, c in product.terms.items():
                rhs.append((coeff * c / self._star_factor(e), e))
            rules[(b, a)] = rhs
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


# ---------------------------------------------------------------------------
# JSON form of a presentation (External Interfaces)
# ---------------------------------------------------------------------------


def algebra_to_json(
    algebra: GradedAlgebra,
    automorphisms: dict[str, GradedAutomorphism] | None = None,
) -> dict:
    rules_json = []
    for (b, a), rhs in sorted(algebra.rules.items()):
        rules_json.append(
            {
                "lhs": [b, a],
                "rhs": [
                    {"coeff": format_scalar(c), "monomial": list(e)} for c, e in rhs
                ],
            }
        )
    obj = {
        "generators": [
            {"name": n, "degree": d} for n, d in zip(algebra.names, algebra.degrees)
        ],
        "rules": rules_json,
    }
    if automorphisms:
        obj["automorphisms"] = {
            name: {
                algebra.names[g]: format_poly(auto.images[g])
                for g in range(algebra.ngens)
            }
            for name, auto in automorphisms.items()
        }
    return obj


def algebra_from_json(obj: dict) -> tuple[GradedAlgebra, dict[str, GradedAutomorphism]]:
    gens = [(g["name"], int(g["degree"])) for g in obj["generators"]]
    rules: dict[tuple[int, int], list[tuple[Scalar, Exps]]] = {}
    for rule in obj["rules"]:
        b, a = rule["lhs"]
        rhs = [
            (parse_scalar(term["coeff"]), tuple(term["monomial"]))
            for term in rule["rhs"]
        ]
        rules[(int(b), int(a))] = rhs
    algebra = GradedAlgebra(gens, rules)
    autos: dict[str, GradedAutomorphism] = {}
    for name, images in obj.get("automorphisms", {}).items():
        autos[name] = GradedAutomorphism(
            algebra,
            [parse_poly(images[gname], algebra) for gname in algebra.names],
        )
    return algebra, autos
