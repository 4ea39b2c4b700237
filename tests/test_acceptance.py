"""Acceptance suite: one test per criterion, one printed line per criterion.

Criterion lines are written straight to the terminal (bypassing capture) so
a plain pytest run shows them; every check is exact unless the criterion
itself is a seeded probabilistic negative.
"""

import random
import time
from functools import lru_cache

from tmfkit import gradedmod as gm
from tmfkit.catalog import build, case_d_sign_check, run_suite, zhang_crosscheck
from tmfkit.cover import (
    check_lemma_5_13,
    check_lemma_5_5,
    functor_B,
    functor_A,
    functor_C,
    functor_H,
    make_cover,
    second_cover,
)
from tmfkit.gradedmod import FreeModule
from tmfkit.ncalgebra import hilbert_series, parse_poly
from tmfkit.scalars import Scalar
from tmfkit.tmf import (
    T_functor,
    coker_hilbert,
    direct_sum_tmf,
    endomorphism_dimension,
    probably_isomorphic_tmf,
    reduce,
    shift_tmf,
    trivial,
    tw_functor,
    verify,
)
from tmfkit import linalg

SEED = 20260810

CATALOG_CASES = [
    ("c", None),
    ("d-odd", 3),
    ("d-odd", 5),
    ("g", 2),
    ("g", 3),
    ("g", 4),
    ("b", 2),
    ("b", 3),
    ("h", None),
    ("commutative-A1", None),
]


def note(line: str) -> None:
    from conftest import record_acceptance

    record_acceptance(line)
    print(line, flush=True)


@lru_cache(maxsize=None)
def entry_for(case, n):
    return build(case, n)


@lru_cache(maxsize=None)
def cover_for(case, n):
    return make_cover(entry_for(case, n).context)


def all_catalog_tmfs():
    out = []
    for case, n in CATALOG_CASES:
        entry = entry_for(case, n)
        for label in entry.labels():
            out.append((case, n, label, entry.factorization(label)))
    return out


def test_criterion_01_theorem_6_6_exact():
    """Both identities hold with zero residual; each case suite < 5 s."""
    timings = []
    for case, n in [
        ("c", None),
        ("d-odd", 3),
        ("d-odd", 5),
        ("g", 2),
        ("g", 3),
        ("g", 4),
        ("b", 2),
        ("b", 3),
        ("h", None),
    ]:
        start = time.perf_counter()
        entry = build(case, n)
        for label in entry.labels():
            report = verify(entry.factorization(label))
            assert report.ok, (case, n, label, report.failed())
            assert report.residual_one.is_zero()
            assert report.residual_two.is_zero()
        elapsed = time.perf_counter() - start
        timings.append((case, n, elapsed))
        assert elapsed < 5.0, f"suite for ({case}, n={n}) took {elapsed:.2f}s"
    worst = max(t for _, _, t in timings)
    note(
        f"ACCEPTANCE 01 PASS: Theorem 6.6 matrices verify exactly for "
        f"(c), (d) n=3,5, (g) n=2,3,4, (b) n=2,3, (h); slowest suite "
        f"{worst:.2f}s < 5s"
    )


def test_criterion_02_theorem_6_1_mechanized():
    """tau well-defined, tau^2 = sigma, tau(f) = f, sigma = normalizing."""
    from tmfkit.ncalgebra import normalizing_automorphism

    cases = CATALOG_CASES + [("d-even", 2), ("d-even", 4), ("e", 2)]
    for case, n in cases:
        entry = entry_for(case, n) if (case, n) in CATALOG_CASES else build(case, n)
        ctx = entry.context
        ctx.tau.check_well_defined()
        assert ctx.tau.compose(ctx.tau) == ctx.sigma, (case, n)
        assert ctx.tau(ctx.f) == ctx.f, (case, n)
        assert normalizing_automorphism(ctx.f) == ctx.sigma, (case, n)
    # verbatim (g) identities for n = 2, 3, 4
    q = Scalar.t_power(2)
    for n in (2, 3, 4):
        A = entry_for("g", n).algebra
        f = entry_for("g", n).context.f
        assert A.gen(0) * f == (f * A.gen(0)).scale(q ** (-n * n))
        assert A.gen(1) * f == f * A.gen(1)
        assert A.gen(2) * f == (f * A.gen(2)).scale(q ** (n * n))
    # verbatim (h) identities
    A = entry_for("h", None).algebra
    f = entry_for("h", None).context.f
    assert A.gen(0) * f == f * A.gen(0)
    assert A.gen(1) * f == f * parse_poly("a2 + 2*a1", A)
    assert A.gen(2) * f == f * parse_poly("a3 + 4*a2 + 6*a1", A)
    note(
        "ACCEPTANCE 02 PASS: Theorem 6.1 data mechanized for every case "
        "(tau well-defined, tau^2 = sigma, tau(f) = f, sigma from normality)"
    )


def test_criterion_03_case_d_sign_erratum():
    """Printed sign fails (residual 8 a2^3 at (1,3) for n=3); flipped passes."""
    finding3 = case_d_sign_check(entry_for("d-odd", 3), 1)
    assert not finding3.printed_ok
    assert finding3.flipped_ok
    assert finding3.printed_residual_13 == "8*a2^3"
    for n in (5, 7):
        for j in range(1, (n + 1) // 2):
            finding = case_d_sign_check(entry_for("d-odd", n), j)
            assert finding.dichotomy, (n, j)
    # the suite records the finding as an erratum note
    report = run_suite(entry_for("d-odd", 3), seed=SEED, trials=8)
    erratum = [c for c in report.checks if c.name.startswith("erratum-d-sign")]
    assert erratum and all(c.ok for c in erratum)
    note(
        "ACCEPTANCE 03 PASS: case (d) sign dichotomy reproduced for n=3,5,7 "
        "(printed (-1)^s fails with residual 8*a2^3 at (1,3) for n=3; "
        "opposite sign verifies); erratum note emitted"
    )


def test_criterion_04_functor_C_discharge():
    """verify(C(t)) passes against f + z^2 for every catalog t."""
    count = 0
    for case, n, label, t in all_catalog_tmfs():
        cover = cover_for(case, n)
        out = functor_C(cover, t)
        report = verify(out)
        assert report.ok, (case, n, label)
        count += 1
    note(
        f"ACCEPTANCE 04 PASS: functor C output verifies against f + z^2 on "
        f"all {count} catalog factorizations"
    )


def test_criterion_05_lemma_5_5_exact():
    """Res(C(t)) equals blockdiag(tau-twist T(t), tau-twist t) entrywise."""
    count = 0
    for case, n, label, t in all_catalog_tmfs():
        cover = cover_for(case, n)
        assert check_lemma_5_5(cover, t, functor_C(cover, t)), (case, n, label)
        count += 1
    note(
        f"ACCEPTANCE 05 PASS: Lemma 5.5(1) holds entrywise (documented "
        f"summand order) on all {count} catalog factorizations"
    )


def test_criterion_06_lemma_5_13():
    """Conjugation by the printed 4x4 matrix gives exactly H(t) + T H(t);
    killing u, v from H(t) gives tw(t + T t) blockwise."""
    targets = [
        entry_for("c", None).factorization("rank2"),
        entry_for("g", 2).factorization("j=1"),
    ]
    for t in targets:
        sc = second_cover(t.context)
        report = check_lemma_5_13(sc, t, functor_C(sc.first, t), functor_H(sc, t))
        assert report.conjugation_exact
        assert report.restriction_exact
    note(
        "ACCEPTANCE 06 PASS: Lemma 5.13 conjugation by the printed matrix "
        "(entries 1, -1, +-i) yields H + TH exactly for case (c) and "
        "(g) n=2 j=1; Res1 Res2 H = tw(id + T) blockwise"
    )


def test_criterion_07_theorem_4_9_round_trip():
    """A(B(t)) recovers t; B-output satisfies z^2 = -f exactly."""
    count = 0
    for case, n, label, t in all_catalog_tmfs():
        cover = cover_for(case, n)
        m = functor_B(cover, t)
        square = gm.compose(
            gm.twist_matrix(m.z_action, cover.base.tau, cover.ell), m.z_action
        )
        assert square == gm.left_multiplication(
            m.module, -t.context.f, t.context.d
        ), (case, n, label)
        back = functor_A(cover, m)
        assert back.phi == t.phi and back.psi == t.psi, (case, n, label)
        count += 1
    note(
        f"ACCEPTANCE 07 PASS: A(B(t)) = t (identity permutation witness) and "
        f"z^2 = -f exactly on all {count} catalog factorizations"
    )


def test_criterion_08_noniso_and_endomorphisms():
    """(g) n=3: j=1 vs j=2 ProbablyNot over 32 seeded trials; endo dim 1."""
    entry = entry_for("g", 3)
    verdict = probably_isomorphic_tmf(
        entry.factorization("j=1"), entry.factorization("j=2"), trials=32, seed=SEED
    )
    assert not verdict.isomorphic
    dims = []
    for case, n, label, t in all_catalog_tmfs():
        dim = endomorphism_dimension(t)
        assert dim == 1, (case, n, label, dim)
        dims.append(dim)
    note(
        f"ACCEPTANCE 08 PASS: (g) n=3 j=1 vs j=2 ProbablyNot over 32 seeded "
        f"trials; endomorphism space has dimension 1 over k for all "
        f"{len(dims)} family members"
    )


def test_criterion_09_hilbert_series_oracle():
    """Both cokernel computations agree up to 2d; (g) n=2 prefixes match."""
    for case, n, label, t in all_catalog_tmfs():
        coker_hilbert(t, 2 * t.context.d)  # raises OracleMismatch on failure
    A = entry_for("g", 2).algebra
    hs = hilbert_series(A, 8)
    assert hs[:5] == [1, 0, 3, 0, 6]
    for e in range(9):
        assert hs[e] == len(A.monomials_of_degree(e))
    # HS(B) = (1 - s^4) HS(C): brute-force quotient dimensions
    f = entry_for("g", 2).context.f
    for e in range(9):
        cols = []
        coords = {}
        for m in A.monomials_of_degree(e - 4):
            col = f * A.monomial(m)
            for exps in col.terms:
                coords.setdefault(exps, len(coords))
            cols.append(col)
        rows = [[Scalar.from_int(0)] * len(cols) for _ in coords]
        for jc, col in enumerate(cols):
            for exps, c in col.terms.items():
                rows[coords[exps]][jc] = c
        image = linalg.rank(rows) if cols else 0
        assert len(A.monomials_of_degree(e)) - image == hs[e] - (
            hs[e - 4] if e >= 4 else 0
        )
    note(
        "ACCEPTANCE 09 PASS: cokernel Hilbert series agree (difference vs "
        "brute force) to degree 2d on all catalog factorizations; (g) n=2 "
        "HS(C) prefix [1,0,3,0,6] and HS(B) = (1-s^4) HS(C) match counts"
    )


def test_criterion_10_rewriting_soundness():
    """Diamond passes on catalog algebras and their covers; associativity
    on 100 seeded random triples per algebra."""
    rng = random.Random(SEED)
    algebras = []
    for case, n in CATALOG_CASES:
        ctx = entry_for(case, n).context
        algebras.append(ctx.algebra)
        sc = second_cover(ctx)
        algebras.append(sc.first.algebra)
        algebras.append(sc.second.algebra)
        algebras.append(sc.uv.algebra)
    for A in algebras:
        A.check_diamond()
    for A in algebras:
        gens = list(range(A.ngens))
        for _ in range(100):
            def rand_poly():
                p = A.zero()
                for _ in range(rng.randint(1, 2)):
                    word = [rng.choice(gens) for _ in range(rng.randint(0, 2))]
                    p = p + A.normal_form(word).scale(
                        Scalar.from_int(rng.randint(-3, 3))
                    )
                return p

            x, y, z = rand_poly(), rand_poly(), rand_poly()
            assert (x * y) * z == x * (y * z)
    note(
        f"ACCEPTANCE 10 PASS: confluence diamond passes on {len(algebras)} "
        f"algebras (catalog + single and double Ore covers); multiplication "
        f"associative on 100 seeded random triples per algebra"
    )


def test_criterion_11_functor_algebra():
    """T^2 = id byte-exact; verify preserved under sum/shift/tw/T on 100
    seeded random sums with trivials; reduce removes exactly the injected
    trivial summands."""
    pool = [
        entry_for("c", None).factorization("rank2"),
        entry_for("h", None).factorization("rank2"),
        entry_for("g", 2).factorization("j=1"),
        entry_for("d-odd", 3).factorization("rank2"),
    ]
    for t in pool:
        assert T_functor(T_functor(t)) == t
    rng = random.Random(SEED + 1)
    for trial in range(100):
        t = pool[rng.randrange(len(pool))]
        ctx = t.context
        s = t
        inj_unit = 0
        inj_f = 0
        for _ in range(rng.randint(0, 2)):
            shifts = tuple(rng.randint(0, 6) for _ in range(rng.randint(1, 2)))
            s = direct_sum_tmf(
                s, trivial(ctx, FreeModule(ctx.algebra, shifts), "unit-first")
            )
            inj_unit += len(shifts)
        for _ in range(rng.randint(0, 1)):
            shifts = (rng.randint(0, 6),)
            s = direct_sum_tmf(
                s, trivial(ctx, FreeModule(ctx.algebra, shifts), "f-first")
            )
            inj_f += 1
        assert verify(s).ok
        op = trial % 4
        if op == 0:
            assert verify(shift_tmf(s, rng.randint(-3, 3))).ok
        elif op == 1:
            assert verify(tw_functor(s)).ok
        elif op == 2:
            assert verify(T_functor(s)).ok
        else:
            assert verify(direct_sum_tmf(s, t)).ok
        result = reduce(s)
        # a rank-r trivial splits into r rank-one summands
        assert result.unit_first == inj_unit
        assert result.f_first == inj_f
        assert result.reduced == t
    note(
        "ACCEPTANCE 11 PASS: T^2 = id byte-exact; verify preserved under "
        "direct sum, shift, tw, T on 100 seeded random trivial-padded sums; "
        "reduce removes exactly the injected trivial summands"
    )


def test_criterion_12_zhang_crosscheck():
    """Transported commutative factorizations match Theorem 6.6 (g)."""
    for n in (2, 3):
        entry = entry_for("g", n)
        results = zhang_crosscheck(entry, trials=32, seed=SEED)
        assert len(results) == n - 1
        for res in results:
            assert res.transported_verifies
            assert res.isomorphic  # Iso witness found
            assert res.exact_match  # in fact the printed matrices on the nose
    note(
        "ACCEPTANCE 12 PASS: Zhang transport reproduces Theorem 6.6 (g) "
        "families for n=2,3 (exact matrices; Iso witnesses found)"
    )
