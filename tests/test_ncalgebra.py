import random

import pytest

from tmfkit import ncalgebra as nca
from tmfkit.ncalgebra import (
    AlgebraMorphism,
    ConfluenceFailure,
    GradedAlgebra,
    GradedAutomorphism,
    IllDefined,
    NotNormal,
    PolyParseError,
    SkewDerivation,
    algebra_from_json,
    algebra_to_json,
    format_poly,
    hilbert_series,
    normalizing_automorphism,
    ore_extension,
    parse_poly,
)
from tmfkit.scalars import I, MINUS_ONE, ONE, Scalar, parse_scalar

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
    assert p.is_homogeneous() and p.degree() == 4
    rebuilt = A.zero()
    for e, c in p.terms.items():
        rebuilt = rebuilt + A.normal_form(A._exps_word(e)).scale(c)
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


def test_ore_extension_commutative():
    A = commutative([("a", 1)])
    E = ore_extension(A, "z", 1, GradedAutomorphism.identity(A))
    assert E.names == ("a", "z")
    assert E.normal_form([1, 0]) == E.monomial((1, 1))
    assert hilbert_series(E, 3) == [1, 2, 3, 4]


def test_ore_extension_case_d():
    # k[a1,a2] extended by a3 with tau(a1) = -a1, delta(a1) = 4(-1)^((n+1)/2) a2^((n+1)/2)
    n = 3
    A = commutative([("a1", n), ("a2", 4)])
    tau = GradedAutomorphism(A, [A.gen("a1").scale(MINUS_ONE), A.gen("a2")])
    sign = Scalar.from_int((-1) ** ((n + 1) // 2))
    delta = SkewDerivation(
        A,
        tau,
        [A.monomial((0, (n + 1) // 2), sign * Scalar.from_int(4)), A.zero()],
        shift=n + 2,
    )
    C = ore_extension(A, "a3", n + 2, tau, delta)
    # a3*a1 = -a1*a3 + 4(-1)^2 a2^2
    nf = C.normal_form([2, 0])
    assert nf == parse_poly("-a1*a3 + 4*a2^2", C)
    assert C.normal_form([2, 1]) == C.monomial((0, 1, 1))
    # f = a3^2 + a2*a1^2 is central
    f = parse_poly("a3^2 + a2*a1^2", C)
    assert normalizing_automorphism(f).is_identity()


def test_ore_extension_case_g_cover_rule():
    # double cover rule is z*a1 -> p^{-1} a1 z for tau(a1) = p a1
    n = 2
    A = case_g_algebra(n)
    p = Scalar.t_power(-n * n)
    tau = GradedAutomorphism(
        A, [A.gen("a1").scale(p), A.gen("a2"), A.gen("a3").scale(p.inverse())]
    )
    E = ore_extension(A, "z", n, tau.inverse())
    assert E.normal_form([3, 0]) == E.monomial((1, 0, 0, 1), p.inverse())
    # f + z^2 is normal with sigma extended by z -> z
    q = Scalar.t_power(2)
    f = E.monomial((1, 0, 1, 0)) - E.monomial((0, n, 0, 0), q ** (-(n * (n - 1) // 2)))
    fz = f + E.monomial((0, 0, 0, 2))
    sigma_e = normalizing_automorphism(fz)
    assert sigma_e(E.gen("z")) == E.gen("z")
    assert sigma_e(E.gen("a1")) == E.gen("a1").scale(q ** (-n * n))


def test_skew_derivation_is_additive():
    A = commutative([("a1", 3), ("a2", 4)])
    tau = GradedAutomorphism(A, [A.gen("a1").scale(MINUS_ONE), A.gen("a2")])
    delta = SkewDerivation(
        A, tau, [A.monomial((0, 2), Scalar.from_int(4)), A.zero()], shift=5
    )
    m1, m2, m3 = A.monomial((3, 0)), A.monomial((1, 1)), A.monomial((5, 1))
    c = Scalar.t_power(3) * Scalar.from_int(-2)
    total = m1 + m2.scale(c) + m3
    assert delta(total) == delta(m1) + delta(m2).scale(c) + delta(m3)
    assert not delta(total).is_zero()


def test_skew_derivation_leibniz_violation():
    A = commutative([("a1", 1), ("a2", 1)])
    tau = GradedAutomorphism(A, [A.gen("a1").scale(MINUS_ONE), A.gen("a2")])
    # delta(a1) = a1^2 is incompatible with commutativity unless delta(a2) balances
    with pytest.raises(IllDefined):
        SkewDerivation(A, tau, [A.monomial((2, 0)), A.monomial((1, 1))], shift=1)


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
    obj = algebra_to_json(A, {"tau": tau})
    B, autos = algebra_from_json(obj)
    assert B == A
    assert autos["tau"] == tau


def test_lift_restrict():
    A = case_g_algebra(2)
    tau = GradedAutomorphism.identity(A)
    E = ore_extension(A, "z", 2, tau)
    p = parse_poly("a1*a3 - 2*a2^2", A)
    lifted = p.lift(E)
    assert lifted.restrict(A) == p
    z = E.gen("z")
    assert (lifted + z * z).restrict(A) == p
