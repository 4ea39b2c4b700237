import gc

import pytest

from tmfkit import tmf as tm
from tmfkit.catalog import (
    BadParams,
    build,
    case_d_sign_check,
    run_suite,
    zhang_crosscheck,
)
from tmfkit.ncalgebra import format_poly, normalizing_automorphism, parse_poly
from tmfkit.scalars import Scalar
from tmfkit.tmf import verify


def test_build_h_sigma():
    entry = build("h")
    A = entry.algebra
    sigma = entry.context.sigma
    assert sigma(A.gen("a3")) == parse_poly("a3 + 4*a2 + 6*a1", A)
    assert sigma(A.gen("a2")) == parse_poly("a2 + 2*a1", A)
    assert entry.swaps["rank2"] is True  # printed (h) orientation is swapped


def test_build_g_constants():
    entry = build("g", 2)
    # q = t^2, p = t^-4, delta = -1
    q = Scalar.t_power(2)
    assert entry.context.tau(entry.algebra.gen("a1")) == entry.algebra.gen(
        "a1"
    ).scale(Scalar.t_power(-4))
    f = entry.context.f
    assert f == entry.algebra.monomial((1, 0, 1)) - entry.algebra.monomial(
        (0, 2, 0), q ** -1
    )
    assert entry.swaps["j=1"] is False  # (g) verifies as printed


def test_build_bad_params():
    with pytest.raises(BadParams):
        build("d-odd", 2)
    with pytest.raises(BadParams):
        build("g", 1)
    with pytest.raises(BadParams):
        build("nope")
    with pytest.raises(BadParams):
        build("g")
    for case in ("c", "h", "commutative-A1"):
        with pytest.raises(BadParams, match=rf"case \({case}\) takes no n"):
            build(case, 4)
    assert build("d", 3).case == "d-odd" and build("d", 4).case == "d-even"


def test_all_cases_theorem_6_1():
    entries = [
        build("b", 2),
        build("b", 3),
        build("c"),
        build("d-odd", 3),
        build("d-even", 2),
        build("e", 2),
        build("g", 2),
        build("h"),
        build("commutative-A1"),
    ]
    for entry in entries:
        ctx = entry.context
        assert normalizing_automorphism(ctx.f) == ctx.sigma
        assert ctx.tau.compose(ctx.tau) == ctx.sigma
        assert ctx.tau(ctx.f) == ctx.f
        for label in entry.labels():
            assert verify(entry.factorization(label)).ok, (entry.case, label)


def test_case_b_tau_uses_i():
    entry = build("b", 3)
    A = entry.algebra
    tau_a1 = entry.context.tau(A.gen("a1"))
    # p^2 = (-1)^{-9} = -1, so p = i
    coeff = tau_a1.terms[(1, 0, 0)]
    assert coeff * coeff == Scalar.from_int(-1)


def test_case_g_normality_identities_verbatim():
    q = Scalar.t_power(2)
    for n in (2, 3, 4):
        entry = build("g", n)
        A, f = entry.algebra, entry.context.f
        a1, a2, a3 = A.gen(0), A.gen(1), A.gen(2)
        assert a1 * f == (f * a1).scale(q ** (-n * n))
        assert a2 * f == f * a2
        assert a3 * f == (f * a3).scale(q ** (n * n))


def test_d_sign_erratum_n3():
    finding = case_d_sign_check(build("d-odd", 3), 1)
    assert finding.dichotomy
    assert finding.printed_residual_13 == "8*a2^3"


def test_d_sign_erratum_n5_n7():
    for n in (5, 7):
        entry = build("d-odd", n)
        finding = case_d_sign_check(entry, 1)
        assert finding.dichotomy
        # residual is 8*(-1)^s a2^{(n+3)/2}
        s = (n + 1) // 2
        A = entry.algebra
        expected = A.monomial((0, (n + 3) // 2, 0), Scalar.from_int(8 * (-1) ** s))
        assert parse_poly(finding.printed_residual_13, A) == expected


def test_catalog_families_reduced_and_simple():
    for entry in [build("c"), build("g", 3), build("h"), build("d-odd", 3)]:
        for label in entry.labels():
            t = entry.factorization(label)
            assert tm.is_reduced(t)
            assert tm.endomorphism_dimension(t) == 1


def test_run_suite_g2():
    entry = build("g", 2)
    report = run_suite(entry, seed=1, trials=8)
    assert report.ok, [c.name for c in report.checks if not c.ok]
    obj = report.to_json()
    assert obj["ok"] is True
    assert any(c["name"] == "sigma-matches-normalizing" for c in obj["checks"])


def test_run_suite_h_and_c():
    for case in ("h", "c"):
        entry = build(case)
        report = run_suite(entry, seed=2, trials=8)
        assert report.ok, [c.name for c in report.checks if not c.ok]
        endo = [c for c in report.checks if c.name.startswith("endo-dim-1")]
        assert endo and all(c.ok for c in endo)


def test_run_suite_records_a_coker_oracle_failure(monkeypatch):
    def disagree(t, max_degree):
        raise tm.OracleMismatch("cokernel series disagree: [1] vs [2]")

    monkeypatch.setattr(tm, "coker_hilbert", disagree)
    report = run_suite(build("c"), seed=2, trials=8)
    assert report.ok is False
    failed = [c for c in report.checks if not c.ok]
    assert failed and all(c.name.startswith("coker-oracle:") for c in failed)
    assert all(c.detail == "cokernel series disagree: [1] vs [2]" for c in failed)


def test_run_suite_records_reduce_and_endomorphism_failures(monkeypatch):
    names = [c.name for c in run_suite(build("c"), seed=2, trials=8).checks]

    def broken_reduce(t):
        raise tm.OracleMismatch("reduce: a clearing matrix is not invertible")

    def broken_dimension(t):
        raise tm.MultiEigenvalue("scalar part has several eigenvalues")

    monkeypatch.setattr(tm, "reduce", broken_reduce)
    monkeypatch.setattr(tm, "endomorphism_dimension", broken_dimension)
    report = run_suite(build("c"), seed=2, trials=8)
    assert [c.name for c in report.checks] == names
    assert report.ok is False
    expected = {
        "reduced": "reduce: a clearing matrix is not invertible",
        "endo-dim-1": "scalar part has several eigenvalues",
    }
    failed = [c for c in report.checks if not c.ok]
    assert {c.name.split(":")[0] for c in failed} == set(expected)
    assert all(c.detail == expected[c.name.split(":")[0]] for c in failed)


def test_run_suite_records_failed_functor_outputs(monkeypatch):
    from tmfkit import catalog, cover

    names = [c.name for c in run_suite(build("c"), seed=2, trials=8, deep=True).checks]

    def broken(*args):
        raise cover.InvariantViolation("functor output failed verification: identity-1")

    for module in (catalog, cover):
        monkeypatch.setattr(module, "functor_C", broken)
        monkeypatch.setattr(module, "functor_H", broken)
    report = run_suite(build("c"), seed=2, trials=8, deep=True)
    assert [c.name for c in report.checks] == names
    failed = [c for c in report.checks if not c.ok]
    families = ("functor-C-verifies", "lemma-5-5", "functor-H-verifies", "lemma-5-13")
    assert {c.name.split(":")[0] for c in failed} == set(families)
    assert all(c.detail.endswith("identity-1") for c in failed)


def counting(monkeypatch, name, modules):
    """Replace every binding of the function name in modules by a wrapper
    that records the arguments of each call; returns the list of calls."""
    calls = []
    original = getattr(modules[0], name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    for module in modules:
        monkeypatch.setattr(module, name, wrapper)
    return calls


def test_run_suite_builds_each_functor_output_once(monkeypatch):
    from tmfkit import catalog, cover

    entry = build("g", 3)
    families = [entry.factorization(label) for label in entry.labels()]
    c_calls = counting(monkeypatch, "functor_C", [cover, catalog])
    h_calls = counting(monkeypatch, "functor_H", [cover, catalog])
    builds = counting(monkeypatch, "build", [catalog])
    assert run_suite(entry, seed=0, trials=8, deep=True).ok
    for t in families:
        assert sum(args[1] is t for args in c_calls) == 1
        assert sum(args[1] is t for args in h_calls) == 1
    # the rest: C2 once per family (Lemma 5.13) and H once per Zhang family
    assert len(c_calls) == 2 * len(families)
    assert len(h_calls) == 2 * len(families)
    assert builds == []


def test_zhang_crosscheck_builds_one_second_cover(monkeypatch):
    from tmfkit import catalog, cover

    calls = counting(monkeypatch, "second_cover", [cover, catalog])
    results = zhang_crosscheck(build("g", 3), trials=8, seed=0)
    assert len(results) == 2 and all(r.ok for r in results)
    assert len(calls) == 1


def test_deep_suite_leaves_no_cyclic_garbage(monkeypatch):
    from tmfkit import catalog, cover

    def broken(*args):
        raise cover.InvariantViolation("functor output failed verification")

    gc.collect()
    gc.disable()
    try:
        assert run_suite(build("c"), seed=0, trials=8, deep=True).ok
        assert gc.collect() == 0
        # also when functor outputs fail and their lemma checks record it
        for module in (catalog, cover):
            monkeypatch.setattr(module, "functor_C", broken)
            monkeypatch.setattr(module, "functor_H", broken)
        assert not run_suite(build("c"), seed=0, trials=8, deep=True).ok
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_g_f_alias_is_unit_multiple():
    entry = build("g", 3)
    q = Scalar.t_power(2)
    binom = 3
    alias = entry.f_aliases["table1"]
    assert alias == entry.context.f.scale(-(q ** binom))


def test_run_suite_d3_emits_erratum():
    entry = build("d-odd", 3)
    report = run_suite(entry, seed=1, trials=8)
    assert report.ok
    erratum = [c for c in report.checks if c.name.startswith("erratum-d-sign")]
    assert erratum and all(c.ok for c in erratum)
    assert "8*a2^3" in erratum[0].detail


def test_zhang_crosscheck_g2():
    entry = build("g", 2)
    results = zhang_crosscheck(entry, trials=8, seed=0)
    assert len(results) == 1
    assert results[0].ok
    assert results[0].exact_match  # transported matrices equal the printed ones


def test_zhang_crosscheck_g3():
    entry = build("g", 3)
    results = zhang_crosscheck(entry, trials=8, seed=0)
    assert all(r.ok for r in results)
    assert all(r.exact_match for r in results)


def test_printed_shift_vectors():
    # case (c): F = C[-4] + C[-3], G = C[-1] + C
    t = build("c").factorization("rank2")
    assert t.phi.source.shifts == (4, 3)
    assert t.phi.target.shifts == (1, 0)
    # case (g): F_j = C[-n-j] + C[-2n+j], G_j = C[-n+j] + C[-j]
    t = build("g", 3).factorization("j=2")
    assert t.phi.source.shifts == (5, 4)
    assert t.phi.target.shifts == (1, 2)


def test_lambda_compatibility_all_catalog():
    # lambda_f . tw(phi) = phi . lambda_f on every stored matrix
    from tmfkit import gradedmod as gm
    from tmfkit.tmf import lambda_matrix

    for entry in [build("c"), build("g", 2), build("h"), build("d-odd", 3)]:
        ctx = entry.context
        for label in entry.labels():
            t = entry.factorization(label)
            for mat in (t.phi, t.psi):
                lam_tgt = lambda_matrix(ctx, mat.target)
                lam_src = lambda_matrix(ctx, mat.source)
                assert gm.compose(
                    gm.twist_matrix(mat, ctx.sigma, ctx.d), lam_tgt
                ) == gm.compose(lam_src, mat)


def test_commutative_a1_entry():
    entry = build("commutative-A1")
    t = entry.factorization("rank1")
    assert verify(t).ok
    assert format_poly(entry.context.f) == "x*y"
