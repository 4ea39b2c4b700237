import operator
import random
import time

import pytest

from tmfkit import linalg
from tmfkit import ncalgebra as nca
from tmfkit.catalog import build
from tmfkit.cli import context_from_json, context_to_json
from tmfkit.cover import make_cover
from tmfkit.ncalgebra import (
    Ambiguous,
    AlgebraMorphism,
    ConfluenceFailure,
    GradedAlgebra,
    GradedAutomorphism,
    IllDefined,
    NotNormal,
    PolyParseError,
    RewriteLimitExceeded,
    format_poly,
    hilbert_series,
    left_ranks,
    normalizing_automorphism,
    ore_extension,
    parse_poly,
)
from tmfkit.scalars import (
    I,
    MAX_DENSE_POWER,
    MAX_POLY_POWER,
    ONE,
    T,
    ZERO,
    Scalar,
    parse_scalar,
)
from tmfkit.tmf import NormalContext

from test_linalg import dense

S = parse_scalar


def skew_three_gens(q12, q13, q23, degrees):
    """k<a1,a2,a3> with a_j a_i = q_ij a_i a_j for i<j."""
    return GradedAlgebra(
        [("a1", degrees[0]), ("a2", degrees[1]), ("a3", degrees[2])],
        {
            (1, 0): [(q12, (1, 1, 0))],
            (2, 0): [(q13, (1, 0, 1))],
            (2, 1): [(q23, (0, 1, 1))],
        },
    )


def case_g_algebra(n):
    q = Scalar.t_power(2)
    return skew_three_gens(q ** n, q ** (n * n), q ** n, (n, 2, n))


def case_h_algebra():
    # a2a1 = a1a2 + 2a1^2, a3a1 = a1a3 + 4a1a2 + 6a1^2, a3a2 = a2a3 + 2a2^2
    two, four, six = Scalar.from_int(2), Scalar.from_int(4), Scalar.from_int(6)
    return GradedAlgebra(
        [("a1", 1), ("a2", 1), ("a3", 1)],
        {
            (1, 0): [(ONE, (1, 1, 0)), (two, (2, 0, 0))],
            (2, 0): [(ONE, (1, 0, 1)), (four, (1, 1, 0)), (six, (2, 0, 0))],
            (2, 1): [(ONE, (0, 1, 1)), (two, (0, 2, 0))],
        },
    )


def case_c_algebra():
    # down-up presentation with b = a2*a1 adjoined: a1 < b < a2
    return GradedAlgebra(
        [("a1", 1), ("b", 4), ("a2", 3)],
        {
            (1, 0): [(ONE, (2, 0, 1))],   # b*a1 -> a1^2*a2
            (2, 0): [(ONE, (0, 1, 0))],   # a2*a1 -> b
            (2, 1): [(ONE, (1, 0, 2))],   # a2*b -> a1*a2^2
        },
    )


def commutative(gens):
    rules = {}
    n = len(gens)
    for b in range(n):
        for a in range(b):
            exps = [0] * n
            exps[a] += 1
            exps[b] += 1
            rules[(b, a)] = [(ONE, tuple(exps))]
    return GradedAlgebra(gens, rules)


def test_normal_form_case_g():
    A = case_g_algebra(2)
    # a2*a1 -> q^n a1 a2 = t^4 a1 a2
    nf = A.normal_form([1, 0])
    assert nf == A.monomial((1, 1, 0), S("t^4"))


def test_normal_form_case_h():
    A = case_h_algebra()
    nf = A.normal_form([2, 0])
    expected = parse_poly("a1*a3 + 4*a1*a2 + 6*a1^2", A)
    assert nf == expected
    # already-normal word is a fixed point
    assert A.normal_form([0, 1]) == A.monomial((1, 1, 0))


def test_normal_form_idempotent_degree_preserving():
    A = case_h_algebra()
    p = A.normal_form([2, 1, 0, 2])
    assert p.degree() == 4  # raises when p is not homogeneous
    rebuilt = A.zero()
    for e, c in p.terms.items():
        word = [g for g, k in enumerate(e) for _ in range(k)]
        rebuilt = rebuilt + A.normal_form(word).scale(c)
    assert rebuilt == p


def test_multiply_case_h_by_hand():
    A = case_h_algebra()
    a1, a2 = A.gen("a1"), A.gen("a2")
    lhs = a2 * (a1 * a2)
    assert lhs == parse_poly("a1*a2^2 + 2*a1^2*a2", A)
    assert A.one() * lhs == lhs


def test_case_g_f_commutes_with_a2():
    A = case_g_algebra(2)
    f = parse_poly("a1*a3 - t^-2 * a2^2", A)
    a2 = A.gen("a2")
    assert f * a2 == a2 * f


def test_multiply_associative_randomized():
    rng = random.Random(11)
    for A in [case_g_algebra(2), case_h_algebra(), case_c_algebra()]:
        gens = [A.gen(g) for g in range(A.ngens)]
        for _ in range(30):
            def rand_poly():
                p = A.zero()
                for _ in range(rng.randint(1, 2)):
                    word = [rng.randrange(A.ngens) for _ in range(rng.randint(0, 3))]
                    p = p + A.normal_form(word).scale(Scalar.from_int(rng.randint(-3, 3)))
                return p

            p, q, r = rand_poly(), rand_poly(), rand_poly()
            assert (p * q) * r == p * (q * r)


def test_confluence_failure_detected():
    # a2a1 -> 0 but a3a2 -> a2a3 + a1^2: the triple a3a2a1 resolves to
    # a1^3 one way and 0 the other
    bad_rules = {
        (1, 0): [],
        (2, 0): [(ONE, (1, 0, 1))],
        (2, 1): [(ONE, (0, 1, 1)), (ONE, (2, 0, 0))],
    }
    with pytest.raises(ConfluenceFailure):
        GradedAlgebra([("a1", 1), ("a2", 1), ("a3", 1)], bad_rules)


def test_diamond_sums_the_repeated_terms_of_a_rule():
    # (h) with 2*a2^2 in a3*a2 written as a2^2 + a2^2 is the same algebra;
    # with the second a2^2 written as -a2^2 it fails the diamond test
    A = case_h_algebra()
    for sign, confluent in ((ONE, True), (-ONE, False)):
        rules = dict(A.rules)
        rules[(2, 1)] = [(ONE, (0, 1, 1)), (ONE, (0, 2, 0)), (sign, (0, 2, 0))]
        if confluent:
            B = GradedAlgebra(list(zip(A.names, A.degrees)), rules)
            assert B.normal_form([2, 1]).terms == A.normal_form([2, 1]).terms
        else:
            with pytest.raises(ConfluenceFailure):
                GradedAlgebra(list(zip(A.names, A.degrees)), rules)


def test_algebra_equality_reads_each_rule_as_its_summed_terms():
    # stored rules keep their written order; equality does not read it
    A = build("h").algebra
    gens = list(zip(A.names, A.degrees))
    reversed_rules = dict(A.rules)
    reversed_rules[(2, 1)] = list(reversed(A.rules[(2, 1)]))
    B = GradedAlgebra(gens, reversed_rules)
    assert B.rules[(2, 1)] != A.rules[(2, 1)]
    assert B == A and hash(B) == hash(A)
    assert A.gen(0) + B.gen(0) == A.gen(0).scale(S("2"))
    # a2^2 + a2^2 is 2*a2^2, and a2^2 + 2*a2^2 - a2^2 is too
    for terms in (
        [(ONE, (0, 1, 1)), (ONE, (0, 2, 0)), (ONE, (0, 2, 0))],
        [(ONE, (0, 1, 1)), (ONE, (0, 2, 0)), (S("2"), (0, 2, 0)), (-ONE, (0, 2, 0))],
    ):
        rules = dict(A.rules)
        rules[(2, 1)] = terms
        assert GradedAlgebra(gens, rules) == A
    # other rules on the same generators: another algebra, with the same hash
    C = commutative(gens)
    assert C != A and hash(C) == hash(A)


def test_case_c_diamond_and_hilbert():
    A = case_c_algebra()
    # 1/((1-s)(1-s^3)(1-s^4)) prefix
    hs = hilbert_series(A, 8)
    assert hs == [1, 1, 1, 2, 3, 3, 4, 5, 6]
    # a1^2 is central
    a1sq = A.gen("a1") * A.gen("a1")
    for g in range(A.ngens):
        assert a1sq * A.gen(g) == A.gen(g) * a1sq


def test_hilbert_series_examples():
    assert hilbert_series(commutative([("a", 1)]), 3) == [1, 1, 1, 1]
    assert hilbert_series(case_g_algebra(2), 4) == [1, 0, 3, 0, 6]
    assert hilbert_series(case_h_algebra(), 2) == [1, 3, 6]


def test_hilbert_matches_monomial_enumeration():
    A = case_g_algebra(3)
    hs = hilbert_series(A, 10)
    for e in range(11):
        assert hs[e] == len(A.monomials_of_degree(e))


def test_automorphism_case_h_tau():
    A = case_h_algebra()
    tau = GradedAutomorphism(
        A,
        [
            parse_poly("a1", A),
            parse_poly("a1 + a2", A),
            parse_poly("2*a1 + 2*a2 + a3", A),
        ],
    )
    f = parse_poly("a2^2 - a1*a2 - a1*a3", A)
    assert tau(f) == f
    inv = tau.inverse()
    assert inv(A.gen("a2")) == parse_poly("a2 - a1", A)
    assert inv(tau(A.gen("a3"))) == A.gen("a3")


def test_automorphism_identity_and_illdefined():
    A = case_h_algebra()
    ident = GradedAutomorphism.identity(A)
    p = parse_poly("a1*a3 - 2*a2^2", A)
    assert ident(p) == p
    with pytest.raises(IllDefined):
        GradedAutomorphism(
            A, [A.gen("a2"), A.gen("a2"), A.gen("a3")]
        )  # breaks the a2a1 rule


def case_h_tau(A):
    return GradedAutomorphism(
        A,
        [
            parse_poly("a1", A),
            parse_poly("a1 + a2", A),
            parse_poly("2*a1 + 2*a2 + a3", A),
        ],
    )


def random_element(A, rng, max_degree=3):
    p = A.zero()
    for _ in range(rng.randint(1, 6)):
        exps = rng.choice(A.monomials_of_degree(rng.randint(0, max_degree)))
        c = Scalar.from_int(rng.randint(-5, 5)) * Scalar.t_power(rng.randint(-2, 2))
        p = p + A.monomial(exps, c)
    return p


def test_automorphism_is_the_endomorphism_case_of_algebra_morphism():
    A = case_h_algebra()
    tau = case_h_tau(A)
    assert isinstance(tau, AlgebraMorphism)
    assert tau.source is A and tau.target is A and tau.algebra is A


def test_automorphism_agrees_with_algebra_morphism_on_random_elements():
    A = case_h_algebra()
    tau = case_h_tau(A)
    mor = AlgebraMorphism(A, A, list(tau.images))
    rng = random.Random(5)
    for _ in range(20):
        p = random_element(A, rng)
        assert tau(p) == mor(p)
        assert tau.inverse()(tau(p)) == p


def test_algebra_morphism_between_presentations():
    A = case_h_algebra()
    B = commutative([("x", 1), ("y", 1)])
    x, y = B.gen("x"), B.gen("y")
    # a2*a1 -> a1*a2 + 2*a1^2 becomes 0 = 2*x^2 under a1, a2 -> x
    with pytest.raises(IllDefined):
        AlgebraMorphism(A, B, [x, x, y])
    # a1, a2 -> 0 sends every rule to zero
    mor = AlgebraMorphism(A, B, [B.zero(), B.zero(), y])
    image = mor(parse_poly("a3^2 + a1*a3 - 3*a2", A))
    assert image == y * y and image.algebra is B


def test_normalizing_automorphism_case_h():
    A = case_h_algebra()
    f = parse_poly("a2^2 - a1*a2 - a1*a3", A)
    sigma = normalizing_automorphism(f)
    assert sigma(A.gen("a1")) == A.gen("a1")
    assert sigma(A.gen("a2")) == parse_poly("a2 + 2*a1", A)
    assert sigma(A.gen("a3")) == parse_poly("a3 + 4*a2 + 6*a1", A)
    # a*f = f*sigma(a) verbatim
    for g in range(A.ngens):
        assert A.gen(g) * f == f * sigma(A.gen(g))


def test_normalizing_automorphism_case_g():
    n = 3
    A = case_g_algebra(n)
    q = Scalar.t_power(2)
    delta = -(n * (n - 1) // 2)
    f = A.monomial((1, 0, 1)) - A.monomial((0, n, 0), q ** delta)
    sigma = normalizing_automorphism(f)
    assert sigma(A.gen("a1")) == A.gen("a1").scale(q ** (-n * n))
    assert sigma(A.gen("a2")) == A.gen("a2")
    assert sigma(A.gen("a3")) == A.gen("a3").scale(q ** (n * n))


def test_normalizing_output_fixes_f():
    # sigma(f) = f is forced by f*f = f*sigma(f) and regularity
    A = case_h_algebra()
    f = parse_poly("a2^2 - a1*a2 - a1*a3", A)
    assert normalizing_automorphism(f)(f) == f
    B = case_g_algebra(3)
    q = Scalar.t_power(2)
    g = B.monomial((1, 0, 1)) - B.monomial((0, 3, 0), q ** -3)
    assert normalizing_automorphism(g)(g) == g


def test_normalizing_central_case_c():
    A = case_c_algebra()
    f = parse_poly("a2^2 - a1^6", A)
    sigma = normalizing_automorphism(f)
    assert sigma.is_identity()


def test_normalizing_errors():
    A = case_h_algebra()
    # a1*a2 is not a right a2-multiple, so a2 is not normal in case (h)
    with pytest.raises(NotNormal):
        normalizing_automorphism(A.gen("a2"))
    with pytest.raises(NotNormal):
        normalizing_automorphism(A.zero())


def normalizing_reference(f):
    """The per-generator solve: one rref of [f*m for m in A_deg | a*f] for
    each generator a in turn, kept as the reference for the per-degree one."""
    algebra = f.algebra
    if f.is_zero():
        raise NotNormal("zero element has no normalizing automorphism")
    f.degree()
    images = []
    for g in range(algebra.ngens):
        basis = algebra.monomials_of_degree(algebra.degrees[g])
        n = len(basis)
        columns = [[(0, f.terms, {m: ONE})] for m in basis]
        columns.append([(0, {algebra.units[g]: ONE}, f.terms)])
        echelon = linalg.rref(algebra.slice_matrix(columns))
        pivots = [pc for pc, _ in echelon]
        if n in pivots:
            raise NotNormal(
                f"{algebra.names[g]}*f is not a right f-multiple: f is not normal"
            )
        if len(pivots) < n:
            raise Ambiguous(
                f"normalizing image of {algebra.names[g]} is not unique "
                "(f is not regular on this window)"
            )
        images.append(nca.NCPoly(algebra, {basis[pc]: row.get(n, ZERO) for pc, row in echelon}))
    return GradedAutomorphism(algebra, images)


def outcome(solve, f):
    try:
        return solve(f)
    except (NotNormal, Ambiguous) as exc:
        return type(exc), str(exc)


def yxz_algebra():
    """k<y,x,z>: y, x commute with each other and z commutes with y, but
    z*x = 0.  Left multiplication by z kills x, and x*z is not a right
    z-multiple, while y*z = z*y is."""
    return GradedAlgebra(
        [("y", 1), ("x", 1), ("z", 1)],
        {(1, 0): [(ONE, (1, 1, 0))], (2, 0): [(ONE, (1, 0, 1))], (2, 1): []},
    )


def xyz_algebra():
    """k<x,y,z>: x commutes with y and z, and z*y = -y*z.  For f = x + z,
    x*f = f*x and z*f = f*z, but y*f is not a right f-multiple."""
    return GradedAlgebra(
        [("x", 1), ("y", 1), ("z", 1)],
        {(1, 0): [(ONE, (1, 1, 0))], (2, 0): [(ONE, (1, 0, 1))], (2, 1): [(-ONE, (0, 1, 1))]},
    )


def test_per_degree_normalizing_solve_matches_the_per_generator_one():
    from tmfkit.cover import second_cover

    algebras = []
    for case, n in [("b", 3), ("c", None), ("d-odd", 5), ("d-even", 4), ("e", 2),
                    ("g", 3), ("h", None), ("commutative-A1", None)]:
        ctx = build(case, n).context
        sc = second_cover(ctx)
        for c in (ctx, sc.first, make_cover(sc.first, ("w",)), sc.uv):
            algebras.append((c.algebra, c.f))
    yx = GradedAlgebra([("x", 1), ("y", 1)], {(1, 0): []})
    xyz = xyz_algebra()
    algebras += [(yx, yx.gen("y") ** 2), (yxz_algebra(), yxz_algebra().gen("z")),
                 (xyz, xyz.gen("x") + xyz.gen("z"))]
    kinds = set()
    for A, f in algebras:
        for g in [f, A.zero()] + [A.gen(k) for k in range(A.ngens)]:
            expected = outcome(normalizing_reference, g)
            assert outcome(normalizing_automorphism, g) == expected, (A.names, str(g))
            kinds.add(expected[0] if isinstance(expected, tuple) else "ok")
    assert kinds == {"ok", NotNormal, Ambiguous}


def test_not_normal_names_the_later_generator_of_a_shared_degree():
    A = xyz_algebra()
    f = A.gen("x") + A.gen("z")
    with pytest.raises(NotNormal, match=r"^y\*f is not a right f-multiple"):
        normalizing_automorphism(f)
    # z*x = 0 kills x: y passes the solve and is the first not unique
    B = yxz_algebra()
    with pytest.raises(Ambiguous, match="normalizing image of y is not unique"):
        normalizing_automorphism(B.gen("z"))


def test_normalizing_automorphism_runs_one_rref_per_generator_degree(monkeypatch):
    from tmfkit.cover import second_cover

    calls = []
    rref = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda rows: calls.append(1) or rref(rows))
    for case, n in [("h", None), ("g", 3), ("c", None)]:
        cover = make_cover(second_cover(build(case, n).context).first, ("w",))
        calls.clear()
        normalizing_automorphism(cover.f)
        assert len(calls) == len(set(cover.algebra.degrees)) < cover.algebra.ngens


def test_extension_checks_the_rules_it_adds():
    # z*a -> -a*z over k[a]; z -> z + a breaks the new rule: (z + a)*a
    # - (-a)*(z + a) = 2*a^2
    A = commutative([("a", 1)])
    a = A.gen("a")
    E = ore_extension(A, ("z",), 1, GradedAutomorphism(A, [-a]))
    ident = GradedAutomorphism.identity(A)
    with pytest.raises(IllDefined, match=r"rule \(z, a\)"):
        nca.extend_automorphism(ident, E, [E.gen("z") + E.gen("a")])
    assert nca.extend_automorphism(ident, E, [-E.gen("z")])(E.gen("z")) == -E.gen("z")


def test_extension_with_other_base_rules_gets_the_full_check(monkeypatch):
    # x, y -> x, y + x is well defined on k[x, y], but not on the skew
    # plane y*x = -x*y, whose base rule the extension changed
    base = commutative([("x", 1), ("y", 1)])
    auto = GradedAutomorphism(base, [base.gen("x"), base.gen("y") + base.gen("x")])
    skew = GradedAlgebra(
        [("x", 1), ("y", 1), ("z", 1)],
        {(1, 0): [(-ONE, (1, 1, 0))], (2, 0): [(ONE, (1, 0, 1))], (2, 1): [(ONE, (0, 1, 1))]},
    )
    with pytest.raises(IllDefined, match=r"rule \(y, x\)"):
        nca.extend_automorphism(auto, skew, [skew.gen("z")])
    firsts = []
    check = GradedAutomorphism.check_well_defined
    monkeypatch.setattr(
        GradedAutomorphism, "check_well_defined",
        lambda self, first=0: firsts.append(first) or check(self, first),
    )
    lifted = ore_extension(base, ("z",), 1, GradedAutomorphism.identity(base))
    firsts.clear()
    nca.extend_automorphism(auto, lifted, [lifted.gen("z")])
    assert firsts == [2]


def test_poly_foreign_operands_raise_type_error():
    A = case_h_algebra()
    a1 = A.gen("a1")
    for other in (1, ONE, None):
        for op in (operator.add, operator.sub):
            with pytest.raises(TypeError):
                op(a1, other)
    with pytest.raises(TypeError):
        a1 * 2
    with pytest.raises(TypeError):
        ONE * a1
    # a Scalar on the right scales
    assert a1 * S("3") == a1.scale(S("3"))


def test_left_ranks_see_a_zero_divisor():
    # k<x,y>/(yx): y*x = 0, so left multiplication by y kills x in degree 1
    A = GradedAlgebra([("x", 1), ("y", 1)], {(1, 0): []})
    x, y = A.gen("x"), A.gen("y")
    dims = [len(A.monomials_of_degree(e)) for e in range(4)]
    # full rank in degree 0, one short of dim A_1 = 2 in degree 1
    assert dims[:2] == [1, 2] and left_ranks(y, 1) == [1, 1]
    assert left_ranks(x, 3) == dims
    assert left_ranks(A.zero(), 3) == [0, 0, 0, 0]


def test_ore_extension_commutative():
    A = commutative([("a", 1)])
    E = ore_extension(A, ("z",), 1, GradedAutomorphism.identity(A))
    assert E.names == ("a", "z")
    assert E.normal_form([1, 0]) == E.monomial((1, 1))
    assert hilbert_series(E, 3) == [1, 2, 3, 4]


def iterated_ore_extension(A, names, degree, tau):
    """The reference: adjoin one name at a time with the inverse of tau,
    extended to fix the variables adjoined before it."""
    extended = A
    for name in names:
        extended = ore_extension(extended, (name,), degree, tau.inverse())
        tau = nca.extend_automorphism(tau, extended, [extended.gen(name)])
    return extended


def test_ore_extension_of_two_names_is_the_iterated_one():
    # on every catalog algebra
    from test_acceptance import CATALOG_CASES

    for case, n in CATALOG_CASES + [("d-even", 4), ("e", 2)]:
        ctx = build(case, n).context
        E = ore_extension(ctx.algebra, ("u", "v"), ctx.d // 2, ctx.tau.inverse())
        R = iterated_ore_extension(ctx.algebra, ("u", "v"), ctx.d // 2, ctx.tau)
        # stored rules are tuples of terms, so this compares their order too
        assert (E.names, E.degrees, E.rules) == (R.names, R.degrees, R.rules), (case, n)


def test_ore_extension_case_g_cover_rule():
    # double cover rule is z*a1 -> p^{-1} a1 z for tau(a1) = p a1
    n = 2
    A = case_g_algebra(n)
    p = Scalar.t_power(-n * n)
    tau = GradedAutomorphism(
        A, [A.gen("a1").scale(p), A.gen("a2"), A.gen("a3").scale(p.inverse())]
    )
    E = ore_extension(A, ("z",), n, tau.inverse())
    assert E.normal_form([3, 0]) == E.monomial((1, 0, 0, 1), p.inverse())
    # f + z^2 is normal with sigma extended by z -> z
    q = Scalar.t_power(2)
    f = E.monomial((1, 0, 1, 0)) - E.monomial((0, n, 0, 0), q ** (-(n * (n - 1) // 2)))
    fz = f + E.monomial((0, 0, 0, 2))
    sigma_e = normalizing_automorphism(fz)
    assert sigma_e(E.gen("z")) == E.gen("z")
    assert sigma_e(E.gen("a1")) == E.gen("a1").scale(q ** (-n * n))


def test_zhang_twist_case_g():
    n = 2
    A = case_g_algebra(n)
    q = Scalar.t_power(2)
    phi = GradedAutomorphism(
        A,
        [A.gen("a1"), A.gen("a2").scale(q ** -1), A.gen("a3").scale(q ** -n)],
    )
    tw = nca.ZhangTwist(A, phi)
    twisted = tw.twisted
    # the twist is the commutative polynomial ring
    for (b, a), rhs in twisted.rules.items():
        assert len(rhs) == 1
        coeff, exps = rhs[0]
        assert coeff == ONE
    # y^j = q^{-j(j-1)} a2^j
    for j in range(1, 4):
        star = twisted.monomial((0, j, 0))
        base = tw.to_base(star)
        assert base == A.monomial((0, j, 0), q ** (-j * (j - 1)))
    # f is a phi-eigenvector with constant c = q^n
    f = A.monomial((1, 0, 1)) - A.monomial((0, n, 0), q ** (-(n * (n - 1) // 2)))
    assert tw.twisting_constant(f) == q ** n
    # twisting preserves graded dimension
    assert hilbert_series(twisted, 8) == hilbert_series(A, 8)


def star_factor_reference(tw, exps):
    """The per-letter product: from the right, each letter x_g of the
    monomial times lambda_g to the degree of the letters after it."""
    factor = ONE
    suffix_degree = 0
    for g in range(tw.base.ngens - 1, -1, -1):
        for _ in range(exps[g]):
            factor = factor * tw.eigenvalues[g] ** suffix_degree
            suffix_degree += tw.base.degrees[g]
    return factor


@pytest.mark.parametrize("case, q", [("g", Scalar.t_power(2)), ("b", -ONE)])
def test_zhang_star_factor_is_the_per_letter_product(case, q):
    # the twist of the (g) and (b) cross-check, n = 3
    n = 3
    A = build(case, n).algebra
    phi = GradedAutomorphism(A, [A.gen(0), A.gen(1).scale(q ** -1), A.gen(2).scale(q ** -n)])
    tw = nca.ZhangTwist(A, phi)
    monomials = [m for degree in range(9) for m in A.monomials_of_degree(degree)]
    factors = [tw._star_factor(m) for m in monomials]
    assert factors == [star_factor_reference(tw, m) for m in monomials]
    assert len(set(factors)) > 1


def test_zhang_identity_twist():
    A = case_g_algebra(2)
    tw = nca.ZhangTwist(A, GradedAutomorphism.identity(A))
    twisted = tw.twisted
    assert twisted == A
    p = parse_poly("a1*a3 - 2*a2^2", A)
    assert tw.to_base(nca.NCPoly(twisted, p.terms)) == p
    assert hilbert_series(twisted, 6) == hilbert_series(A, 6)


def test_poly_parse_format_roundtrip():
    A = case_h_algebra()
    texts = [
        "0",
        "a1",
        "a2^2 - a1*a2 - a1*a3",
        "(1/2)*a1^2 + i*a2*a3",
        "-a3 + 4",
        "(t^2 - 1)*a1",
    ]
    for text in texts:
        p = parse_poly(text, A)
        assert parse_poly(format_poly(p), A) == p


def test_scalar_poly_literals_match_parse_scalar():
    A = case_h_algebra()
    texts = [
        "0",
        "-3/4",
        "(1+i)*(1-i)",
        "t^-2*(t+1)",
        "(t^2 - 1)/(t - 1)",
        "2/(3*i)",
        "-(-t)^-2",
        "i^-3 + t^0",
    ]
    for text in texts:
        assert parse_poly(text, A) == A.scalar(parse_scalar(text))


def test_poly_literal_edge_values():
    A = case_h_algebra()
    a1 = A.gen("a1")
    assert parse_poly("a1^-0", A) == A.one()
    assert parse_poly("(t+1)^-2*a1", A) == a1.scale(S("1/(t^2 + 2*t + 1)"))
    assert parse_poly("a1/(2*i)", A) == a1.scale(S("(-1/2)*i"))
    assert parse_poly("-(-t)^-2", A) == A.scalar(-Scalar.t_power(-2))


def test_poly_literal_powers():
    A = case_g_algebra(3)
    a1, a2 = A.gen("a1"), A.gen("a2")
    start = time.perf_counter()
    p = parse_poly("t^1000000*a1", A)
    assert time.perf_counter() - start < 0.5
    assert p == A.scalar(T**1000000) * a1
    assert parse_poly("(2*t - i)^3", A) == A.scalar(parse_scalar("(2*t - i)^3"))
    assert parse_poly("(a1 + 0)^0", A) == A.one()
    assert parse_poly("(a1 - a1)^0", A) == A.one()
    # repeated squaring agrees with repeated multiplication
    p = a1 + a2.scale(S("t")) + A.one()
    naive = A.one()
    for k in range(8):
        assert p**k == naive
        naive = naive * p
    # and so does Scalar's, on a multi-term scalar and its inverse
    s = S("(t+1)/(t-2)")
    for k in range(-5, 21):
        naive = ONE
        for _ in range(abs(k)):
            naive = naive * s
        assert s**k == (naive if k >= 0 else naive.inverse())
    with pytest.raises(PolyParseError, match="multi-term"):
        parse_poly("(t+1)^300*a1", A)


def test_multi_term_poly_literal_powers_are_capped():
    A = case_h_algebra()
    cap = MAX_POLY_POWER
    assert cap == 7
    base = parse_poly("a1 + a2 + a3", A)
    assert parse_poly(f"(a1 + a2 + a3)^{cap}", A) == base**cap
    for text in (f"(a1 + a2 + a3)^{cap + 1}", "(a1 + a2 + a3)^16", "2*(a1 - t*a2)^24"):
        with pytest.raises(PolyParseError, match=f"multi-term polynomial exceeds {cap}"):
            parse_poly(text, A)
    # single-term bases, and bases that cancel to one term, stay exempt
    assert parse_poly("a2^5", A) == A.monomial((0, 5, 0))
    assert parse_poly("(2*a2)^40", A) == A.monomial((0, 40, 0), Scalar.from_int(2) ** 40)
    assert parse_poly("(a1 - a1 + a2)^12", A) == A.monomial((0, 12, 0))


def test_single_term_powers_with_dense_coefficients_are_capped():
    # a single term is as dense as its coefficient: ((t+1)*a1)^k costs what
    # (t+1)^k does, so the scalar limit applies to it
    A = case_h_algebra()
    cap = MAX_DENSE_POWER
    assert parse_poly(f"((t+1)*a1)^{cap}", A) == A.monomial((cap, 0, 0), S("t+1") ** cap)
    for text in (f"((t+1)*a1)^{cap + 1}", "((t+1)*a1)^600", "(a1 - a1 + a2/(1-t))^2000"):
        with pytest.raises(PolyParseError, match=f"multi-term coefficient exceeds {cap}"):
            parse_poly(text, A)
    # single-term coefficients stay exempt, however large the exponent
    start = time.perf_counter()
    assert parse_poly("a2^5", A) == A.monomial((0, 5, 0))
    assert parse_poly("t^1000000*a1", A) == A.monomial((1, 0, 0), Scalar.t_power(1000000))
    assert parse_poly("(2*t*a1)^1000", A) == A.monomial(
        (1000, 0, 0), Scalar.from_int(2) ** 1000 * Scalar.t_power(1000)
    )
    assert time.perf_counter() - start < 0.5


def test_deep_rewrites_raise_rewrite_limit_exceeded():
    # (h) has no q-rule, so rewriting a3^1000 * a1^1000 recurses once per
    # exponent, past Python's recursion depth: a typed error naming the
    # algebra and the word
    A = case_h_algebra()
    with pytest.raises(RewriteLimitExceeded) as info:
        parse_poly("a3^1000*a1^1000", A)
    message = str(info.value)
    assert "a3^1000 * a1^1000" in message and repr(A) in message
    assert "recursion depth exhausted" in message
    with pytest.raises(RewriteLimitExceeded, match=r"a3\*a3\*a1"):
        A.normal_form([2] * 700 + [0] * 700)
    # the algebra still works, and its caches stay sound
    a1, a3 = A.gen("a1"), A.gen("a3")
    assert a3**3 * a1**2 == A.normal_form([2, 2, 2, 0, 0])


def test_q_rules_multiply_a_deep_product_in_one_step(monkeypatch):
    # every rule of (g) is a q-rule, so a3^1000 * a1^1000 is one step: a
    # budget of 2 covers it, and a3 passes a1 a million times at q = t^18
    A = case_g_algebra(3)
    monkeypatch.setattr("tmfkit.ncalgebra.REWRITE_FUEL", 2)
    assert parse_poly("a3^1000*a1^1000", A) == A.monomial(
        (1000, 0, 1000), Scalar.t_power(18_000_000)
    )


def word_normal_form(A, word):
    """Reference normal form of a word of generator indices, with no cache
    and no closed form: rewrite the leftmost out-of-order adjacent pair of
    some word by its pair rule until every word is ordered."""
    pending, done = {tuple(word): ONE}, {}
    while pending:
        w, c = pending.popitem()
        i = next((i for i in range(len(w) - 1) if w[i] > w[i + 1]), None)
        if i is None:
            add_term(done, tuple(w.count(g) for g in range(A.ngens)), c)
            continue
        for coeff, exps in A.rules[(w[i], w[i + 1])]:
            letters = tuple(g for g, e in enumerate(exps) for _ in range(e))
            add_term(pending, w[:i] + letters + w[i + 2 :], c * coeff)
    return done


def add_term(acc, key, c):
    total = acc.pop(key, ZERO) + c
    if not total.is_zero():
        acc[key] = total


def power_presentations():
    """Skew presentations with every q = 2 and with every q = t + 1: neither
    is a unit of Z[i] times a power of t, so both stay on the rule path."""
    return [skew_three_gens(q, q, q, (1, 1, 1)) for q in (S("2"), S("t + 1"))]


def oracle_algebras():
    for case, n in (("b", 3), ("c", None), ("d-odd", 3), ("d-even", 2), ("e", 1),
                    ("g", 2), ("h", None), ("commutative-A1", None)):
        ctx = build(case, n).context
        yield case, ctx.algebra
        yield case + " z", make_cover(ctx).algebra
        yield case + " u, v", make_cover(ctx, ("u", "v")).algebra
    for A in power_presentations():
        yield "power", A


def random_monomial(A, rng, letters):
    exps = [0] * A.ngens
    for _ in range(rng.randint(0, letters)):
        exps[rng.randrange(A.ngens)] += 1
    return tuple(exps)


def test_products_match_the_word_rewriting_oracle():
    # seeded random monomial pairs on every catalog algebra, its z and u, v
    # covers and the two power presentations; the covers of (c) and (h),
    # and all of (d-odd), mix q-rules with other rules
    rng = random.Random(20261021)
    for name, A in oracle_algebras():
        for _ in range(24):
            e1, e2 = random_monomial(A, rng, 4), random_monomial(A, rng, 4)
            word = [g for e in (e1, e2) for g, k in enumerate(e) for _ in range(k)]
            assert (A.monomial(e1) * A.monomial(e2)).terms == word_normal_form(A, word), (
                name, A, e1, e2
            )


def test_only_unit_times_t_power_coefficients_are_q_rules(monkeypatch):
    # a q-rule multiplies a3^2 * a1^2 in one step, within a budget of 2; the
    # rule path needs more.  A rule written as 2*a1*a3 - a1*a3 is q = 1.
    q_one = GradedAlgebra(
        [("a1", 1), ("a2", 1), ("a3", 1)],
        {(1, 0): [(ONE, (1, 1, 0))],
         (2, 0): [(S("2"), (1, 0, 1)), (S("-1"), (1, 0, 1))],
         (2, 1): [(ONE, (0, 1, 1))]},
    )
    i_t3 = skew_three_gens(S("i*t^3"), S("-t^-2"), S("-i"), (1, 1, 1))
    powers = power_presentations()
    monkeypatch.setattr("tmfkit.ncalgebra.REWRITE_FUEL", 2)
    product = parse_poly("a3^2", q_one) * parse_poly("a1^2", q_one)
    assert product == q_one.monomial((2, 0, 2))
    # a3 passes a1 four times at q = -t^-2
    product = parse_poly("a3^2", i_t3) * parse_poly("a1^2", i_t3)
    assert product == i_t3.monomial((2, 0, 2), S("t^-8"))
    for A in powers:
        a3_2, a1_2 = parse_poly("a3^2", A), parse_poly("a1^2", A)
        with pytest.raises(RewriteLimitExceeded, match="budget"):
            a3_2 * a1_2


def test_rule_path_powers_stay_bounded():
    # on the rule path a3^1000 * a1^1000 exhausts the recursion depth long
    # before any coefficient reaches q^(10^6)
    for A in power_presentations():
        start = time.perf_counter()
        with pytest.raises(RewriteLimitExceeded, match="recursion depth exhausted"):
            parse_poly("a3^1000*a1^1000", A)
        assert time.perf_counter() - start < 1.0


def test_exhausted_budget_names_the_word(monkeypatch):
    A = case_h_algebra()
    monkeypatch.setattr("tmfkit.ncalgebra.REWRITE_FUEL", 3)
    with pytest.raises(RewriteLimitExceeded, match=r"rewriting a3\^3 \* a1\^2 in GradedAlgebra\(a1:1"):
        parse_poly("a3^3", A) * parse_poly("a1^2", A)
    with pytest.raises(RewriteLimitExceeded, match="operation budget exhausted"):
        A.normal_form([2, 2, 2, 0, 0])


def test_exhausted_diamond_budget_names_the_product(monkeypatch):
    # each side of a diamond is one product with its own budget: the first,
    # (a3*a2)*a1, rewrites a2*a3 * a1 first
    monkeypatch.setattr("tmfkit.ncalgebra.REWRITE_FUEL", 1)
    with pytest.raises(RewriteLimitExceeded, match=r"rewriting a2\*a3 \* a1 in GradedAlgebra\("):
        case_h_algebra()


def first_seen_matrix(images):
    """Reference for slice_matrix: one column per {(key, exps): Scalar}
    image, one row per coordinate in first-seen order."""
    index = {}
    for image in images:
        for row in image:
            index.setdefault(row, len(index))
    rows = [[ZERO] * len(images) for _ in index]
    for j, image in enumerate(images):
        for row, c in image.items():
            rows[index[row]][j] = c
    return rows


def test_slice_matrix_columns_are_ncpoly_products():
    # left, right and signed products of f with seeded monomials, on every
    # catalog algebra and its f + z^2 cover
    rng = random.Random(20261018)
    cases = [("b", 2), ("c", None), ("d-odd", 3), ("d-even", 4), ("e", 2), ("g", 2),
             ("h", None), ("commutative-A1", None)]
    for case, n in cases:
        ctx = build(case, n).context
        cover = make_cover(ctx)
        for A, f in ((ctx.algebra, ctx.f), (cover.algebra, cover.f)):
            pool = [m for e in range(5) for m in A.monomials_of_degree(e)]
            columns, images = [], []
            for m in rng.sample(pool, min(6, len(pool))):
                c = Scalar.from_int(rng.randint(1, 5)) * Scalar.t_power(rng.randint(-2, 2))
                mono = A.monomial(m, c)
                columns.append(
                    [("left", {m: c}, f.terms), ("right", f.terms, {m: c}),
                     ("signed", f.terms, {m: -c})]
                )
                products = {"left": mono * f, "right": f * mono, "signed": f * -mono}
                images.append(
                    {(key, e): x for key, p in products.items() for e, x in p.terms.items()}
                )
            rows = dense(A.slice_matrix(columns), len(columns))
            assert rows == first_seen_matrix(images), (case, n, A)


def test_slice_matrix_keeps_the_rewrite_budget_per_product(monkeypatch):
    # as for compose: on a fresh algebra a3^3 * a1^2 takes 57 rewrite steps
    # and then a3^2*a2 * a2*a1 takes 10; a budget of 58 covers each, not
    # their sum, though both products fill one column
    def run(budget):
        A = case_h_algebra()
        a3_3, a3_2a2, a1_2, a2a1 = (
            parse_poly(text, A).terms for text in ("a3^3", "a3^2*a2", "a1^2", "a2*a1")
        )
        monkeypatch.setattr("tmfkit.ncalgebra.REWRITE_FUEL", budget)
        return A.slice_matrix([[(0, a3_3, a1_2), (1, a3_2a2, a2a1)]])

    assert run(58)
    with pytest.raises(RewriteLimitExceeded, match=r"a3\^3 \* a1\^2"):
        run(57)


def test_automorphism_of_a_long_monomial_needs_no_deep_recursion():
    A = case_g_algebra(3)
    sigma = GradedAutomorphism(A, [A.gen("a1").scale(T), A.gen("a2"), A.gen("a3")])
    image = sigma(A.monomial((3000, 0, 0)))
    assert image == A.monomial((3000, 0, 0), T**3000)


def test_poly_literal_errors():
    A = case_h_algebra()
    for text in ("a1/a2", "a1^-1", "(a1", "x", "1/0"):
        with pytest.raises(PolyParseError):
            parse_poly(text, A)


def test_poly_literal_t_is_a_generator_only_when_named():
    B = GradedAlgebra([("t", 1), ("i", 1)], {(1, 0): [(ONE, (1, 1))]})
    assert parse_poly("t", B) == B.gen("t")
    assert parse_poly("i", B) == B.scalar(I)
    A = case_h_algebra()
    assert parse_poly("t*a1", A) == A.gen("a1").scale(Scalar.t_power(1))


def test_algebra_json_roundtrip():
    A = case_h_algebra()
    tau = GradedAutomorphism(
        A,
        [
            parse_poly("a1", A),
            parse_poly("a1 + a2", A),
            parse_poly("2*a1 + 2*a2 + a3", A),
        ],
    )
    # the algebra block of a file sits in a context block, with sigma and tau
    f = parse_poly("a2^2 - a1*a2 - a1*a3", A)
    back = context_from_json(context_to_json(NormalContext(A, f, tau.compose(tau), tau)), ".")
    assert back.algebra == A
    assert back.tau == tau


def test_lift_restrict():
    A = case_g_algebra(2)
    tau = GradedAutomorphism.identity(A)
    E = ore_extension(A, ("z",), 2, tau)
    p = parse_poly("a1*a3 - 2*a2^2", A)
    lifted = p.lift(E)
    assert lifted.restrict(A) == p
    z = E.gen("z")
    assert (lifted + z * z).restrict(A) == p
