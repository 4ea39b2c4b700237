import gc

import pytest

from tmfkit import gradedmod as gm
from tmfkit import linalg
from tmfkit import tmf as tm
from tmfkit.catalog import (
    BadParams,
    CatalogEntry,
    build,
    case_d_sign_check,
    run_suite,
    zhang_crosscheck,
)
from tmfkit.ncalgebra import (
    GradedAlgebra,
    GradedAutomorphism,
    format_poly,
    normalizing_automorphism,
    parse_poly,
)
from tmfkit.scalars import ONE, Scalar
from tmfkit.tmf import verify

from test_suite_outputs import pinned_checks


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
    entry = build("d-odd", 3)
    A = entry.algebra
    # a3*a1 = -a1*a3 + 4(-1)^2 a2^2, a3*a2 = a2*a3, and f = a3^2 + a2*a1^2 is central
    assert A.normal_form([2, 0]) == parse_poly("-a1*a3 + 4*a2^2", A)
    assert A.normal_form([2, 1]) == A.monomial((0, 1, 1))
    assert normalizing_automorphism(parse_poly("a3^2 + a2*a1^2", A)).is_identity()
    finding = case_d_sign_check(entry, 1)
    assert finding.dichotomy
    assert finding.printed_residual_13 == "8*a2^3"


def test_d_sign_check_verifies_each_sign_once(monkeypatch):
    entry = build("d-odd", 9)
    verified = counting(monkeypatch, "_verify", [tm])
    for j in range(1, 5):
        verified.clear()
        assert case_d_sign_check(entry, j).dichotomy
        # the printed sign; the corrected one is the family build verified
        assert len(verified) == 1


def test_verify_twists_by_the_identity_without_applying_it(monkeypatch):
    entry = build("d-odd", 5)
    calls = []
    apply = GradedAutomorphism.__call__
    monkeypatch.setattr(
        GradedAutomorphism, "__call__", lambda auto, p: calls.append(p) or apply(auto, p)
    )
    for t in entry.families.values():
        # a fresh factorization, so verify runs instead of answering from t
        assert verify(tm.TMF(t.context, t.phi, t.psi)).ok
    assert calls == []


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
    assert report.ok is True
    assert any(c.name == "sigma-matches-normalizing" for c in report.checks)


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
    # the quotient oracle reads the left-multiplication ranks, not coker_hilbert
    failed = [c for c in report.checks if not c.ok]
    assert [c.name for c in failed] == ["coker-oracle:rank2"]
    assert failed[0].detail == "cokernel series disagree: [1] vs [2]"


def test_one_rank_shortfall_fails_regularity_and_the_oracle_below_D_minus_d(monkeypatch):
    from tmfkit import catalog

    # (c): the quotient oracle needs f regular through D - d = 6, the
    # cokernel series of rank2 through D - min(F shifts) = 9
    entry = build("c")
    d, D = entry.context.d, 2 * entry.context.d
    assert (d, D, entry.factorization("rank2").phi.source.shifts) == (6, 12, (4, 3))
    ranks = catalog.left_ranks(entry.context.f, D)
    dims = [len(entry.algebra.monomials_of_degree(e)) for e in range(D + 1)]
    assert ranks == dims
    names = [c.name for c in run_suite(entry, seed=2, trials=8).checks]
    for k in range(D + 1):
        short = ranks[:k] + [ranks[k] - 1] + ranks[k + 1 :]
        monkeypatch.setattr(catalog, "left_ranks", lambda f, max_degree: short)
        report = run_suite(entry, seed=2, trials=8)
        assert [c.name for c in report.checks] == names
        failed = {c.name: c.detail for c in report.checks if not c.ok}
        window = f"dim f*A_{k} = {dims[k] - 1} < dim A_{k} = {dims[k]}"
        coker = f"f is not regular in degree {k} <= D - min(F shifts) = 9"
        if k <= 6:
            oracles = ["hilbert-quotient-oracle", "coker-oracle:rank2"]
            assert list(failed) == ["f-regular-window", *oracles]
            assert failed["hilbert-quotient-oracle"].startswith("cokernel series disagree: ")
        elif k <= 9:
            assert list(failed) == ["f-regular-window", "coker-oracle:rank2"]
        else:
            assert list(failed) == ["f-regular-window"]
        assert failed["f-regular-window"] == window
        assert failed.get("coker-oracle:rank2", coker) == coker


def test_a_negative_F_shift_fails_the_coker_oracle_alone():
    # rank2 shifted by 4 has F = (0, -1): its series would need f regular in
    # degree D + 1, outside the rank pass
    entry = build("c")
    shifted = CatalogEntry.new("c", None, entry.context)
    shifted.families["rank2[4]"] = tm.shift_tmf(entry.factorization("rank2"), 4)
    assert shifted.factorization("rank2[4]").phi.source.shifts == (0, -1)
    report = run_suite(shifted, seed=2, trials=8)
    failed = {c.name: c.detail for c in report.checks if not c.ok}
    assert failed == {
        "coker-oracle:rank2[4]": "F has the negative shift -1: the series needs degree 13 > D"
    }


def test_run_suite_makes_one_rank_pass_and_no_trivial_factorization(monkeypatch):
    from tmfkit import catalog

    entry = build("g", 3)
    rank_passes = counting(monkeypatch, "left_ranks", [catalog])
    cokernels = counting(monkeypatch, "coker_hilbert", [tm])
    trivials = counting(monkeypatch, "trivial", [tm])
    # each slice matrix and rank asked for, and whether a coker_hilbert call
    # was running: the cokernel series comes from the shifts alone
    running = [False]
    asked = []
    coker_hilbert = tm.coker_hilbert

    def cokernel(*args):
        running[0] = True
        try:
            return coker_hilbert(*args)
        finally:
            running[0] = False

    def asking(name, original):
        def wrapper(*args):
            asked.append((name, running[0]))
            return original(*args)

        return wrapper

    monkeypatch.setattr(tm, "coker_hilbert", cokernel)
    for owner, name in ((GradedAlgebra, "slice_matrix"), (linalg, "rank")):
        monkeypatch.setattr(owner, name, asking(name, getattr(owner, name)))
    assert run_suite(entry, seed=0, trials=8, deep=True).ok
    assert [D for _, D in rank_passes] == [2 * entry.context.d]
    assert [args[0] for args in cokernels] == [entry.factorization(la) for la in entry.labels()]
    assert trivials == []
    assert {name for name, _ in asked} == {"slice_matrix", "rank"}
    assert [name for name, inside in asked if inside] == []


def _identity_context(entry):
    """The entry's algebra and f with sigma = tau = id, unchecked."""
    identity = GradedAutomorphism.identity(entry.algebra)
    return tm.NormalContext(entry.algebra, entry.context.f, identity, identity, check=False)


def _entry_over_identity(case, n=None):
    """An entry whose context has sigma = tau = id (unchecked) but which
    holds the catalog's families, built over the true context."""
    entry = build(case, n)
    broken = CatalogEntry.new(case, n, _identity_context(entry))
    broken.families.update(entry.families)
    return broken


def test_run_suite_reports_a_cover_that_fails_to_build():
    # sigma = id is not the normalizing automorphism of (h), so the cover's
    # check of its base context raises; the suite records it and goes on
    broken = _entry_over_identity("h")
    for deep in (False, True):
        report = run_suite(broken, seed=2, trials=8, deep=deep)
        checks = {c.name: c for c in report.checks}
        assert not checks["normality:a2"].ok and not checks["cover-normality"].ok
        text = checks["cover-normality"].detail
        assert text == "sigma is not the normalizing automorphism at a2"
        dependent = ["functor-C-verifies:rank2", "lemma-5-5:rank2"]
        if deep:
            dependent += ["functor-H-verifies:rank2", "lemma-5-13:rank2"]
        assert [checks[name].detail for name in dependent] == [text] * len(dependent)


def test_run_suite_fails_a_family_over_another_context():
    checks = {c.name: c for c in run_suite(_entry_over_identity("h"), seed=2, trials=8).checks}
    assert not checks["verify:rank2"].ok
    assert checks["verify:rank2"].detail == "family context differs from the entry's context"
    # the catalog entry itself still verifies its family
    assert {c.name: c for c in run_suite(build("h"), seed=2, trials=8).checks}["verify:rank2"].ok


def test_run_suite_records_a_zhang_crosscheck_over_another_context():
    # the transports land in the entry's identity context, the printed
    # families live in the true one: no transport verifies there, so every
    # Zhang check fails, none aborts, and no witness is searched for
    names = [c.name for c in run_suite(build("g", 3), seed=0, trials=8, deep=True).checks]
    report = run_suite(_entry_over_identity("g", 3), seed=0, trials=8, deep=True)
    assert [c.name for c in report.checks] == names
    checks = {c.name: c for c in report.checks}
    for name in ("zhang-crosscheck:j=1", "zhang-crosscheck:j=2"):
        assert not checks[name].ok
        assert checks[name].detail == "transport does not verify; exact=True"


def test_run_suite_records_a_non_isomorphism_check_across_contexts():
    names = [c.name for c in run_suite(build("g", 3), seed=0, trials=8).checks]
    entry = build("g", 3)
    t = entry.factorization("j=2")
    entry.families["j=2"] = tm.TMF(_identity_context(entry), t.phi, t.psi)
    report = run_suite(entry, seed=0, trials=8)
    assert [c.name for c in report.checks] == names
    checks = {c.name: c for c in report.checks}
    pair = checks["non-isomorphic:j=1|j=2"]
    assert not pair.ok and pair.detail == "factorizations live in different contexts"
    assert checks["verify:j=1"].ok and not checks["verify:j=2"].ok


def _entry_over_tau(tau_of):
    """(g) n=3 over an unchecked context whose tau is tau_of(true context),
    holding the catalog's families moved onto that context."""
    entry = build("g", 3)
    ctx = entry.context
    bad = tm.NormalContext(ctx.algebra, ctx.f, ctx.sigma, tau_of(ctx), check=False)
    mutant = CatalogEntry.new("g", 3, bad)
    for label, t in entry.families.items():
        mutant.families[label] = tm.map_tmf(t, lambda x: x, bad)
    return mutant


def _negating_tau(ctx):
    """(p*a1, -a2, p^-1*a3) with p = t^-9: it squares to sigma, but it
    negates the a2^3 term of f."""
    A, p = ctx.algebra, Scalar.t_power(-9)
    images = [A.gen("a1").scale(p), -A.gen("a2"), A.gen("a3").scale(p.inverse())]
    return GradedAutomorphism(A, images)


@pytest.mark.parametrize(
    "tau_of, failed_tau_check, detail, reason",
    [
        (
            lambda ctx: ctx.sigma, "tau-squared-is-sigma",
            "tau(tau(a1)) = ((1)/(t^36))*a1, sigma(a1) = ((1)/(t^18))*a1", "tau*tau != sigma",
        ),
        (
            _negating_tau, "tau-fixes-f",
            "tau(f) - f has the term ((2)/(t^6))*a2^3", "tau does not fix f",
        ),
    ],
    ids=["tau-is-sigma", "tau-moves-f"],
)
def test_run_suite_fails_a_wrong_tau(tau_of, failed_tau_check, detail, reason):
    # the failed tau check names the first generator, or the first term,
    # where the two sides differ
    report = run_suite(_entry_over_tau(tau_of), seed=0)
    assert [c.name for c in report.checks] == [c[0] for c in pinned_checks("g", 3, False)]
    cover_checks = ["cover-normality"] + [
        f"{check}:{label}" for label in ("j=1", "j=2")
        for check in ("functor-C-verifies", "lemma-5-5")
    ]
    expected = {failed_tau_check: detail, **{name: reason for name in cover_checks}}
    assert {c.name: c.detail for c in report.checks if not c.ok} == expected


def test_run_suite_records_a_failed_normalizing_automorphism():
    # over k<x,y>/(yx), f = y^2 is not normal, so normalizing_automorphism
    # raises NotNormal; the suite records it and runs on to the cover
    A = GradedAlgebra([("x", 1), ("y", 1)], {(1, 0): []})
    y = A.gen("y")
    identity = GradedAutomorphism.identity(A)
    ctx = tm.NormalContext(A, y * y, identity, identity, check=False)
    report = run_suite(CatalogEntry.new("yx", None, ctx), seed=2, trials=8)
    checks = {c.name: c for c in report.checks}
    sigma = checks["sigma-matches-normalizing"]
    assert not sigma.ok and sigma.detail == "x*f is not a right f-multiple: f is not normal"
    assert report.checks[-1].name == "cover-normality" and not report.checks[-1].ok


def test_run_suite_records_reduce_and_endomorphism_failures(monkeypatch):
    names = [c.name for c in run_suite(build("c"), seed=2, trials=8).checks]

    def broken_is_reduced(t):
        raise tm.OracleMismatch("reduce broke the factorization identities")

    def broken_dimension(t):
        raise tm.MultiEigenvalue("scalar part has several eigenvalues")

    monkeypatch.setattr(tm, "is_reduced", broken_is_reduced)
    monkeypatch.setattr(tm, "endomorphism_dimension", broken_dimension)
    report = run_suite(build("c"), seed=2, trials=8)
    assert [c.name for c in report.checks] == names
    assert report.ok is False
    expected = {
        "reduced": "reduce broke the factorization identities",
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
    that records the positional arguments of each call; returns the list of
    calls."""
    calls = []
    original = getattr(modules[0], name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, wrapper)
    return calls


def test_run_suite_builds_each_functor_output_once(monkeypatch):
    from tmfkit import catalog, cover

    entry = build("g", 3)
    families = [entry.factorization(label) for label in entry.labels()]
    c_calls = counting(monkeypatch, "functor_C", [cover, catalog])
    h_calls = counting(monkeypatch, "functor_H", [cover, catalog])
    blocks = counting(monkeypatch, "_cover_blocks", [cover])
    builds = counting(monkeypatch, "build", [catalog])
    assert run_suite(entry, seed=0, trials=8, deep=True).ok
    for t in families:
        assert sum(args[1] is t for args in c_calls) == 1
        assert sum(args[1] is t for args in h_calls) == 1
    # the rest: H once per Zhang family, and C2 once per family, built
    # unchecked by Lemma 5.13
    assert len(c_calls) == len(families)
    assert len(h_calls) == 2 * len(families)
    assert len(blocks) == len(c_calls) + len(h_calls) + len(families)
    assert builds == []


def test_zhang_crosscheck_builds_one_uv_cover(monkeypatch):
    from tmfkit import catalog, cover

    entry = build("g", 3)
    covers = counting(monkeypatch, "make_cover", [cover, catalog])
    second_covers = counting(monkeypatch, "second_cover", [cover, catalog])
    results = zhang_crosscheck(entry, trials=8, seed=0)
    assert len(results) == 2 and all(r.ok for r in results)
    assert [names for _, names in covers] == [("u", "v")]
    assert second_covers == []


def test_deep_g_suite_adds_monomials_without_the_polynomial_path(monkeypatch):
    # every scalar sum of the deep (g) suite adds two c*t^k of the same k, so
    # a lost monomial lane shows here as calls to the sparse polynomial sum
    from tmfkit import scalars

    adds = counting(monkeypatch, "_add", [scalars])
    sparse_adds = counting(monkeypatch, "_sadd", [scalars])
    assert run_suite(build("g", 3), seed=0, trials=8, deep=True).ok
    assert len(adds) > 100 and sparse_adds == []


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
    assert [r.name for r in results] == ["zhang-crosscheck:j=1"]
    assert results[0].ok
    assert results[0].detail == "exact=True"  # transported matrices equal the printed ones


def test_zhang_crosscheck_g3():
    entry = build("g", 3)
    results = zhang_crosscheck(entry, trials=8, seed=0)
    assert all(r.ok for r in results)
    assert all(r.detail == "exact=True" for r in results)


def test_zhang_crosscheck_takes_the_identity_as_witness_when_the_transport_is_exact(
    monkeypatch,
):
    from tmfkit import catalog

    entries = [build(case, n) for case in ("g", "b") for n in (2, 3, 5)]
    verifies = counting(monkeypatch, "verify", [catalog])
    searches = counting(monkeypatch, "probably_isomorphic_tmf", [tm])
    for entry in entries:
        checks = zhang_crosscheck(entry, trials=8, seed=0)
        assert [c.name for c in checks] == [f"zhang-crosscheck:{la}" for la in entry.labels()]
        assert all(c.ok and c.detail == "exact=True" for c in checks)
    assert verifies == [] and searches == []


def test_zhang_crosscheck_finds_a_witness_for_a_conjugate_family(monkeypatch):
    entry = build("g", 3)
    t = entry.factorization("j=1")
    two = Scalar.from_int(2)
    alpha = gm.block_scalar_matrix(t.phi.source, [1, 1], [{0: two}, {1: ONE}])
    beta = gm.block_scalar_matrix(t.phi.target, [1, 1], [{0: ONE}, {1: two}])
    entry.families["j=1"] = tm.conjugate(t, alpha, beta)
    assert entry.factorization("j=1") != t
    searches = counting(monkeypatch, "probably_isomorphic_tmf", [tm])
    checks = zhang_crosscheck(entry, trials=8, seed=0)
    assert [(c.ok, c.detail) for c in checks] == [(True, "exact=False"), (True, "exact=True")]
    assert [args[1] for args in searches] == [entry.factorization("j=1")]


def test_zhang_crosscheck_fails_a_transport_that_does_not_verify(monkeypatch):
    from tmfkit import catalog

    transport = catalog.zhang_untransport_tmf

    def broken(tw, t_xi, target_ctx):
        # zero phi's (1,2) entry: the identities fail and no isomorphism exists
        t = transport(tw, t_xi, target_ctx)
        rows = [list(row) for row in t.phi.entries]
        rows[0][1] = t.context.algebra.zero()
        return tm.TMF(t.context, gm.GradedMatrix(t.phi.source, t.phi.target, rows), t.psi)

    monkeypatch.setattr(catalog, "zhang_untransport_tmf", broken)
    searches = counting(monkeypatch, "probably_isomorphic_tmf", [tm])
    checks = zhang_crosscheck(build("g", 3), trials=8, seed=0)
    expected = "transport does not verify; exact=False"
    assert [(c.ok, c.detail) for c in checks] == [(False, expected)] * 2
    # no witness is searched for on a transport that does not verify
    assert searches == []


def test_run_suite_fails_only_the_zhang_checks_on_a_psi_doubling_transport(monkeypatch):
    # doubling psi keeps phi, so a phi-side witness exists, but psi*phi = 2f:
    # the transport does not verify, and no search runs to trip on the
    # psi-side identity; every other check reads as pinned
    from tmfkit import catalog

    transport = catalog.zhang_untransport_tmf

    def doubled(tw, t_xi, target_ctx):
        t = transport(tw, t_xi, target_ctx)
        return tm.TMF(t.context, t.phi, t.psi.scale(Scalar.from_int(2)))

    monkeypatch.setattr(catalog, "zhang_untransport_tmf", doubled)
    report = run_suite(build("g", 3), seed=0, deep=True)
    expected = [
        [name, False, "transport does not verify; exact=False"]
        if name.startswith("zhang-crosscheck:") else [name, ok, detail]
        for name, ok, detail in pinned_checks("g", 3, True)
    ]
    assert sum(name.startswith("zhang-crosscheck:") for name, _, _ in expected) == 2
    assert [list(c) for c in report.checks] == expected


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


def test_exps_degree_memo_matches_the_raw_degree():
    from tmfkit.cover import make_cover, second_cover

    cases = [
        ("b", 3), ("c", None), ("d-odd", 5), ("d-even", 4), ("e", 2), ("g", 3),
        ("h", None), ("commutative-A1", None),
    ]
    for case, n in cases:
        sc = second_cover(build(case, n).context)
        zw = make_cover(sc.first, ("w",))
        for A in (sc.base.algebra, sc.first.algebra, zw.algebra, sc.uv.algebra):
            for degree in range(13):
                for exps in A.monomials_of_degree(degree):
                    # the first call fills the memo, the second reads it
                    assert A.exps_degree(exps) == A._exps_degree_raw(exps) == degree
                    assert A.exps_degree(exps) == degree
