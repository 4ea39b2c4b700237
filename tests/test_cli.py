import json
import os
import subprocess
import sys

import pytest

from tmfkit.cli import main

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run(argv, capsys=None):
    code = main(argv)
    return code


def test_catalog_list(capsys):
    assert main(["catalog", "list"]) == 0
    out = capsys.readouterr().out
    assert "d-odd" in out and "commutative-A1" in out


def test_export_verify_roundtrip(tmp_path, capsys):
    code = main(["catalog", "export", "c", "--out", str(tmp_path)])
    assert code == 0
    path = capsys.readouterr().out.strip().splitlines()[-1]
    assert os.path.exists(path)
    assert main(["verify", path]) == 0
    # emitted JSON re-parses to an equal in-memory value
    with open(path) as handle:
        obj = json.load(handle)
    from tmfkit.cli import load_tmf
    from tmfkit.catalog import build

    t = load_tmf(path)
    entry = build("c")
    printed = entry.factorization("rank2")
    assert t.phi.entries == printed.phi.entries
    assert t.psi.entries == printed.psi.entries
    assert t.context.f == printed.context.f


def test_verify_sign_flip_exits_1(tmp_path, capsys):
    main(["catalog", "export", "c", "--out", str(tmp_path)])
    path = capsys.readouterr().out.strip().splitlines()[-1]
    with open(path) as handle:
        obj = json.load(handle)
    entry = obj["phi"]["entries"][0][1]
    obj["phi"]["entries"][0][1] = f"-({entry})"
    bad = tmp_path / "flipped.json"
    bad.write_text(json.dumps(obj))
    code = main(["--format", "json", "verify", str(bad)])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "fail"
    # nonzero residual recorded at the flipped position
    assert report["artifacts"]["residual_one"][0][1] != "0"


def test_verify_malformed_scalar_exits_2(tmp_path, capsys):
    main(["catalog", "export", "c", "--out", str(tmp_path)])
    path = capsys.readouterr().out.strip().splitlines()[-1]
    with open(path) as handle:
        obj = json.load(handle)
    obj["phi"]["entries"][0][0] = "a2 + ** t"
    bad = tmp_path / "malformed.json"
    bad.write_text(json.dumps(obj))
    assert main(["verify", str(bad)]) == 2
    assert main(["verify", str(tmp_path / "missing.json")]) == 2


def test_verify_dense_literal_power_exits_2(tmp_path, capsys):
    main(["catalog", "export", "c", "--out", str(tmp_path)])
    path = capsys.readouterr().out.strip().splitlines()[-1]
    with open(path) as handle:
        obj = json.load(handle)
    obj["phi"]["entries"][0][0] = "(t+1)^3000*a2"
    bad = tmp_path / "dense.json"
    bad.write_text(json.dumps(obj))
    assert main(["verify", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "exceeds 256" in err


def test_verify_dense_coefficient_power_exits_2(tmp_path, capsys):
    main(["catalog", "export", "c", "--out", str(tmp_path)])
    path = capsys.readouterr().out.strip().splitlines()[-1]
    with open(path) as handle:
        obj = json.load(handle)
    obj["phi"]["entries"][0][0] = "((t+1)*a2)^2000"
    bad = tmp_path / "dense.json"
    bad.write_text(json.dumps(obj))
    assert main(["verify", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:")
    assert "power 2000 of a multi-term coefficient exceeds 256" in err


def test_verify_deeply_nested_literal_exits_2_without_traceback(tmp_path, capsys):
    # 5,000 nested parentheses would exhaust Python's recursion depth
    main(["catalog", "export", "c", "--out", str(tmp_path)])
    path = capsys.readouterr().out.strip().splitlines()[-1]
    with open(path) as handle:
        obj = json.load(handle)
    obj["phi"]["entries"][0][0] = "(" * 5000 + "a2" + ")" * 5000
    deep = tmp_path / "nested.json"
    deep.write_text(json.dumps(obj))
    proc = subprocess.run(
        [sys.executable, "-m", "tmfkit.cli", "verify", str(deep)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("input error:")
    assert "parentheses nested deeper than 64" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_verify_deeply_nested_json_exits_2_without_traceback(tmp_path):
    # json.load recurses once per nested array
    deep = tmp_path / "nested.json"
    deep.write_text("[" * 100_000)
    proc = subprocess.run(
        [sys.executable, "-m", "tmfkit.cli", "verify", str(deep)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("input error:")
    assert "Traceback" not in proc.stderr


def _half_shifts(obj):
    for key in ("phi", "psi"):
        for side in ("source", "target"):
            obj[key][side] = [x + 0.5 for x in obj[key][side]]


def _bool_shift(obj):
    assert obj["phi"]["target"][0] == 1
    obj["phi"]["target"][0] = True


def _float_degree(obj):
    gens = obj["context"]["algebra"]["generators"]
    assert gens[1] == {"degree": 4, "name": "b"}
    gens[1]["degree"] = 4.5


@pytest.mark.parametrize(
    "edit, message",
    [
        (_half_shifts, "source shift must be an integer, got 4.5"),
        (_bool_shift, "target shift must be an integer, got True"),
        (_float_degree, "generator degree must be an integer, got 4.5"),
    ],
)
def test_verify_non_integer_field_exits_2(tmp_path, capsys, edit, message):
    # int() would truncate these to the exported values and verify [pass]
    main(["catalog", "export", "c", "--out", str(tmp_path)])
    path = capsys.readouterr().out.strip().splitlines()[-1]
    with open(path) as handle:
        obj = json.load(handle)
    edit(obj)
    bad = tmp_path / "non_integer.json"
    bad.write_text(json.dumps(obj))
    assert main(["verify", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and message in err


def exported_c_with_context(tmp_path, capsys, edit):
    """Export case (c) and write a copy whose context went through edit."""
    main(["catalog", "export", "c", "--out", str(tmp_path)])
    path = capsys.readouterr().out.strip().splitlines()[-1]
    with open(path) as handle:
        obj = json.load(handle)
    edit(obj["context"])
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(obj))
    return path, str(edited)


@pytest.mark.parametrize("name", ["nope", ""])
def test_context_naming_a_missing_tau_exits_2(tmp_path, capsys, name):
    _, bad = exported_c_with_context(
        tmp_path, capsys, lambda ctx: ctx.update(tau=name)
    )
    assert main(["verify", bad]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and err.endswith(f"bad context: {name!r}\n")


def test_iso_of_files_differing_in_tau_exits_2(tmp_path, capsys):
    path, no_tau = exported_c_with_context(
        tmp_path, capsys, lambda ctx: ctx.pop("tau")
    )
    assert main(["iso", path, no_tau]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: factorizations live in different contexts\n"


def test_functor_tw_writes_a_context_without_tau(tmp_path, capsys):
    from tmfkit import tmf as tm
    from tmfkit.cli import load_tmf

    _, no_tau = exported_c_with_context(tmp_path, capsys, lambda ctx: ctx.pop("tau"))
    out = tmp_path / "tw.json"
    assert main(["functor", "tw", "--input", no_tau, "--output", str(out)]) == 0
    assert main(["verify", str(out)]) == 0
    capsys.readouterr()
    context = json.loads(out.read_text())["context"]
    assert "tau" not in context
    assert list(context["algebra"]["automorphisms"]) == ["sigma"]
    assert load_tmf(str(out)) == tm.tw_functor(load_tmf(no_tau))


def test_catalog_verify_g3(capsys):
    code = main(["--trials", "8", "--seed", "7", "catalog", "verify", "g", "--n", "3"])
    assert code == 0


def test_catalog_verify_d3_reports_erratum(capsys):
    code = main(
        ["--format", "json", "--trials", "8", "catalog", "verify", "d", "--n", "3"]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    names = [c["name"] for c in report["checks"]]
    assert any(name.startswith("erratum-d-sign") for name in names)


def test_catalog_bad_params_exit_2(capsys):
    assert main(["catalog", "verify", "g"]) == 2
    assert main(["catalog", "verify", "d-odd", "--n", "4"]) == 2
    capsys.readouterr()
    assert main(["catalog", "verify", "c", "--n", "4"]) == 2
    assert capsys.readouterr().err == "input error: case (c) takes no n\n"


CATALOG_LIST = """\
b                n >= 2 (q = -1); families j = 1..n-1
c                no parameters; one rank-2 family
d-odd            odd n >= 3; rank-2 plus rank-4 families j = 1..(n-1)/2
d-even           even n >= 2; no stored families
e                n >= 1; no stored families
g                n >= 2 (q = t^2); families j = 1..n-1
h                no parameters; one rank-2 family
commutative-A1   no parameters; classical rank-1 pair
"""


def test_catalog_list_output(capsys):
    assert main(["catalog", "list"]) == 0
    assert capsys.readouterr() == (CATALOG_LIST, "")


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "case (d) needs n"),
        (["--n", "1"], "case (d-odd) needs odd n >= 3"),
        (["--n", "0"], "case (d-even) needs even n >= 2"),
    ],
)
def test_catalog_d_alias_errors(capsys, argv, message):
    # "d" is no listed case: it picks (d-odd) or (d-even) by the parity of n
    assert main(["catalog", "verify", "d", *argv]) == 2
    assert capsys.readouterr() == ("", f"input error: {message}\n")


def test_catalog_unknown_case_lists_the_cases(capsys):
    assert main(["catalog", "verify", "nope"]) == 2
    assert capsys.readouterr().err == (
        "input error: unknown case 'nope'; "
        "valid: b, c, d-odd, d-even, e, g, h, commutative-A1\n"
    )


def test_max_degree_window_at_and_over_the_cap(capsys):
    from tmfkit.cli import MAX_DEGREE_WINDOW

    window = str(MAX_DEGREE_WINDOW)
    assert main(["--trials", "8", "catalog", "verify", "c", "--max-degree", window]) == 0
    capsys.readouterr()
    over = str(MAX_DEGREE_WINDOW + 1)
    assert main(["catalog", "verify", "c", "--max-degree", over]) == 2
    assert capsys.readouterr().err == (
        f"input error: --max-degree {over} exceeds MAX_DEGREE_WINDOW = {window}\n"
    )


def test_trials_at_and_over_the_cap(tmp_path, capsys):
    from tmfkit.cli import MAX_TRIALS

    main(["catalog", "export", "g", "--n", "3", "--out", str(tmp_path)])
    j1, j2 = capsys.readouterr().out.strip().splitlines()[:2]
    assert main(["--trials", str(MAX_TRIALS), "iso", j1, j1]) == 0
    capsys.readouterr()
    over = str(MAX_TRIALS + 1)
    assert main(["iso", j1, j2, "--trials", over]) == 2
    assert capsys.readouterr().err == (
        f"input error: --trials {over} exceeds MAX_TRIALS = {MAX_TRIALS}\n"
    )


def test_catalog_n_at_and_over_the_cap(tmp_path, capsys):
    from tmfkit.cli import MAX_CATALOG_N

    cap = str(MAX_CATALOG_N)
    assert main(["catalog", "export", "g", "--n", cap, "--j", "1", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.strip().endswith(f"g-n{cap}-j1.json")
    # 600 used to end only through a RecursionError
    for over in (str(MAX_CATALOG_N + 1), "600"):
        assert main(["catalog", "verify", "g", "--n", over]) == 2
        assert capsys.readouterr().err == (
            f"input error: --n {over} exceeds MAX_CATALOG_N = {cap}\n"
        )


def test_matrix_rank_at_and_over_the_cap(tmp_path, capsys):
    from tmfkit.catalog import build
    from tmfkit.cli import MAX_MATRIX_RANK, matrix_from_json

    def square(rank):
        return {"source": [0] * rank, "target": [0] * rank,
                "entries": [["0"] * rank for _ in range(rank)]}

    A = build("c").algebra
    assert matrix_from_json(square(MAX_MATRIX_RANK), A).source.rank == MAX_MATRIX_RANK
    main(["catalog", "export", "c", "--out", str(tmp_path)])
    path = capsys.readouterr().out.strip().splitlines()[-1]
    with open(path) as handle:
        obj = json.load(handle)
    over = MAX_MATRIX_RANK + 1
    obj["phi"] = square(over)
    big = tmp_path / "big.json"
    big.write_text(json.dumps(obj))
    assert main(["verify", str(big)]) == 2
    assert capsys.readouterr().err == (
        f"input error: bad factorization file {big}: rank {over} "
        f"exceeds MAX_MATRIX_RANK = {MAX_MATRIX_RANK}\n"
    )


def test_a_file_whose_sigma_does_not_invert_exits_2(tmp_path, capsys):
    # verify twists by sigma, and functor C also inverts tau: both used to
    # end in a Singular traceback
    from tmfkit.cli import dump_tmf
    from tmfkit.gradedmod import FreeModule
    from tmfkit.tmf import trivial
    from test_cover import singular_sigma_context

    ctx = singular_sigma_context(check=False)
    path = str(tmp_path / "singular.json")
    dump_tmf(trivial(ctx, FreeModule(ctx.algebra, (0,))), path)
    out = str(tmp_path / "c.json")
    for argv in (["verify", path], ["functor", "C", "--input", path, "--output", out]):
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"input error: bad factorization file {path}: "
            "bad context: generator coefficient matrix is singular\n"
        )


def test_functor_T_twice_is_identity_bytewise(tmp_path, capsys):
    main(["catalog", "export", "h", "--out", str(tmp_path)])
    path = capsys.readouterr().out.strip().splitlines()[-1]
    once = str(tmp_path / "T1.json")
    twice = str(tmp_path / "T2.json")
    assert main(["functor", "T", "--input", path, "--output", once]) == 0
    capsys.readouterr()
    assert main(["functor", "T", "--input", once, "--output", twice]) == 0
    capsys.readouterr()
    # canonical serialization makes the double image byte-identical with a
    # re-serialization of the input
    rewritten = str(tmp_path / "rewritten.json")
    from tmfkit.cli import dump_tmf, load_tmf

    t = load_tmf(path)
    dump_tmf(t, rewritten)
    assert open(twice).read() == open(rewritten).read()


def test_functor_C_then_verify(tmp_path, capsys):
    main(["catalog", "export", "c", "--out", str(tmp_path)])
    path = capsys.readouterr().out.strip().splitlines()[-1]
    out = str(tmp_path / "cover.json")
    assert main(["functor", "C", "--input", path, "--output", out]) == 0
    capsys.readouterr()
    assert main(["verify", out]) == 0


def test_functor_res_after_C(tmp_path, capsys):
    main(["catalog", "export", "c", "--out", str(tmp_path)])
    path = capsys.readouterr().out.strip().splitlines()[-1]
    cov_path = str(tmp_path / "cover.json")
    main(["functor", "C", "--input", path, "--output", cov_path])
    capsys.readouterr()
    res_path = str(tmp_path / "res.json")
    assert main(["functor", "Res", "--input", cov_path, "--output", res_path]) == 0
    capsys.readouterr()
    assert main(["verify", res_path]) == 0


def test_functor_B_then_A_roundtrip(tmp_path, capsys):
    main(["catalog", "export", "c", "--out", str(tmp_path)])
    path = capsys.readouterr().out.strip().splitlines()[-1]
    mod_path = str(tmp_path / "module.json")
    assert main(["functor", "B", "--input", path, "--output", mod_path]) == 0
    capsys.readouterr()
    back_path = str(tmp_path / "back.json")
    assert main(["functor", "A", "--input", mod_path, "--output", back_path]) == 0
    capsys.readouterr()
    from tmfkit.cli import load_tmf

    t0 = load_tmf(path)
    t1 = load_tmf(back_path)
    assert t0.phi.entries == t1.phi.entries
    assert t0.psi.entries == t1.psi.entries


def test_functor_delta_sigma(tmp_path, capsys):
    main(["catalog", "export", "c", "--out", str(tmp_path)])
    path = capsys.readouterr().out.strip().splitlines()[-1]
    mod_path = str(tmp_path / "module.json")
    main(["functor", "B", "--input", path, "--output", mod_path])
    capsys.readouterr()
    ds_path = str(tmp_path / "ds.json")
    assert main(["functor", "delta-sigma", "--input", mod_path, "--output", ds_path]) == 0
    capsys.readouterr()
    assert main(["verify", ds_path]) == 0


def test_functor_reduce_counts(tmp_path, capsys):
    main(["catalog", "export", "commutative-A1", "--out", str(tmp_path)])
    path = capsys.readouterr().out.strip().splitlines()[-1]
    out = str(tmp_path / "reduced.json")
    code = main(["--format", "json", "functor", "reduce", "--input", path, "--output", out])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert "trivial_summands" in report["artifacts"]


def test_iso_command(tmp_path, capsys):
    main(["catalog", "export", "g", "--n", "3", "--out", str(tmp_path)])
    paths = capsys.readouterr().out.strip().splitlines()
    j1, j2 = paths[0], paths[1]
    assert main(["--trials", "4", "iso", j1, j1]) == 0
    capsys.readouterr()
    assert main(["--trials", "8", "--seed", "3", "iso", j1, j2]) == 3
    capsys.readouterr()
    assert main(["iso", j1, str(tmp_path / "nope.json")]) == 2


def test_iso_against_shift_is_probably_not(tmp_path, capsys):
    main(["catalog", "export", "c", "--out", str(tmp_path)])
    path = capsys.readouterr().out.strip().splitlines()[-1]
    from tmfkit.cli import dump_tmf, load_tmf
    from tmfkit.tmf import shift_tmf

    t = load_tmf(path)
    shifted = str(tmp_path / "shifted.json")
    dump_tmf(shift_tmf(t, 1), shifted)
    assert main(["--trials", "4", "iso", path, shifted]) == 3


def test_iso_of_a_sampled_negative_reports_every_failed_trial(tmp_path, capsys):
    from tmfkit.cli import dump_tmf
    from test_tmf import a1_sums

    paths = [str(tmp_path / f"sum{k}.json") for k in (1, 2)]
    for t, path in zip(a1_sums(), paths):
        dump_tmf(t, path)
    assert main(["--trials", "8", "--seed", "0", "iso", *paths]) == 3
    assert "FAIL isomorphic -- failures=8 trials=8" in capsys.readouterr().out


def test_algebra_path_reference(tmp_path, capsys):
    main(["catalog", "export", "c", "--out", str(tmp_path)])
    path = capsys.readouterr().out.strip().splitlines()[-1]
    with open(path) as handle:
        obj = json.load(handle)
    algebra_obj = obj["context"]["algebra"]
    (tmp_path / "algebra.json").write_text(json.dumps(algebra_obj))
    obj["context"]["algebra"] = "algebra.json"
    ref = tmp_path / "with-ref.json"
    ref.write_text(json.dumps(obj))
    assert main(["verify", str(ref)]) == 0


def test_seed_env_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TMFKIT_SEED", "99")
    from tmfkit.cli import build_parser

    args = build_parser().parse_args(["catalog", "list"])
    assert args.seed == 99


@pytest.mark.parametrize("value", ["abc", "", "1.5"])
def test_malformed_seed_env_exits_2(value, capsys, monkeypatch):
    monkeypatch.setenv("TMFKIT_SEED", value)
    assert main(["catalog", "list"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: TMFKIT_SEED must be an integer, got {value!r}\n"


def test_functor_res_off_a_cover_exits_1(tmp_path, capsys):
    # the (h) file does not live over a cover, so truncating its context
    # breaks sigma: a verification failure, not a traceback
    main(["catalog", "export", "h", "--out", str(tmp_path)])
    path = capsys.readouterr().out.strip().splitlines()[-1]
    out = str(tmp_path / "res.json")
    assert main(["functor", "Res", "--input", path, "--output", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("verification failure:")
    assert "Traceback" not in err
    assert not os.path.exists(out)


def test_exhausted_rewrite_budget_exits_2(tmp_path, capsys, monkeypatch):
    main(["catalog", "export", "c", "--out", str(tmp_path)])
    path = capsys.readouterr().out.strip().splitlines()[-1]
    monkeypatch.setattr("tmfkit.ncalgebra.REWRITE_FUEL", 3)
    assert main(["verify", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "budget" in err


def test_verify_deep_rewrite_exits_2_without_traceback(tmp_path, capsys):
    # rewriting a3^1000*a1^1000 would exhaust Python's recursion depth
    main(["catalog", "export", "g", "--n", "3", "--out", str(tmp_path)])
    path = capsys.readouterr().out.strip().splitlines()[0]
    with open(path) as handle:
        obj = json.load(handle)
    obj["phi"]["entries"][0][0] = "a3^1000*a1^1000"
    deep = tmp_path / "deep.json"
    deep.write_text(json.dumps(obj))
    proc = subprocess.run(
        [sys.executable, "-m", "tmfkit.cli", "verify", str(deep)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("input error: rewriting a3^1000 * a1^1000 in GradedAlgebra(")
    assert "recursion depth exhausted" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_verify_multi_term_poly_power_exits_2(tmp_path, capsys):
    main(["catalog", "export", "h", "--out", str(tmp_path)])
    path = capsys.readouterr().out.strip().splitlines()[-1]
    with open(path) as handle:
        obj = json.load(handle)
    obj["phi"]["entries"][0][0] = "(a1 + a2 + a3)^16"
    bad = tmp_path / "power.json"
    bad.write_text(json.dumps(obj))
    assert main(["verify", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:")
    assert "power 16 of a multi-term polynomial exceeds 7" in err


def test_functor_h_of_an_h_output_exits_1(tmp_path, capsys):
    # the output of H lives over k[...][u][v], so a second H would reuse the
    # names u and v: a verification failure, not a traceback
    main(["catalog", "export", "h", "--out", str(tmp_path)])
    path = capsys.readouterr().out.strip().splitlines()[-1]
    once = str(tmp_path / "h1.json")
    twice = str(tmp_path / "h2.json")
    assert main(["functor", "H", "--input", path, "--output", once]) == 0
    capsys.readouterr()
    assert main(["functor", "H", "--input", once, "--output", twice]) == 1
    err = capsys.readouterr().err
    assert err.startswith("verification failure:") and "'u' already used" in err
    assert "Traceback" not in err
    assert not os.path.exists(twice)


def test_deep_verify_passes_under_python_O():
    # every library check raises a typed error, so none vanishes under -O
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "tmfkit.cli", "catalog", "verify", "c",
         "--deep", "--format", "json"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    checks = json.loads(proc.stdout)["checks"]
    assert checks and all(c["ok"] for c in checks)


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_closed_stdout_keeps_the_verdict_quietly(fmt):
    # stdout is a pipe whose reader is gone before the report is printed
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "tmfkit.cli", "catalog", "verify", "c", "--format", fmt],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": SRC},
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


@pytest.mark.parametrize(
    "option, message",
    [
        (["--max-degree", "-1"], "--max-degree: must be at least 0"),
        (["--trials", "-3"], "--trials: must be at least 1"),
    ],
)
def test_malformed_option_exits_2(option, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["catalog", "verify", "c", *option])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_unwritable_output_exits_2(tmp_path, capsys):
    main(["catalog", "export", "c", "--out", str(tmp_path)])
    path = capsys.readouterr().out.strip().splitlines()[-1]
    out = str(tmp_path / "missing-dir" / "x.json")
    assert main(["functor", "T", "--input", path, "--output", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: cannot write {out}:")


def test_export_into_a_file_exits_2(tmp_path, capsys):
    existing = tmp_path / "taken"
    existing.write_text("")
    assert main(["catalog", "export", "c", "--out", str(existing)]) == 2
    assert capsys.readouterr().err.startswith(f"input error: cannot create {existing}:")


def test_functor_tw_matches_the_library(tmp_path, capsys):
    from tmfkit import tmf as tm
    from tmfkit.cli import load_tmf

    main(["catalog", "export", "h", "--out", str(tmp_path)])
    path = capsys.readouterr().out.strip().splitlines()[-1]
    out = str(tmp_path / "tw.json")
    assert main(["functor", "tw", "--input", path, "--output", out]) == 0
    capsys.readouterr()
    assert main(["verify", out]) == 0
    t = load_tmf(path)
    twisted = load_tmf(out)
    assert twisted == tm.tw_functor(t)


def test_functor_split_of_a_root_form_file(tmp_path, capsys):
    main(["catalog", "export", "d-odd", "--n", "3", "--j", "1", "--out", str(tmp_path)])
    path = capsys.readouterr().out.strip().splitlines()[-1]
    out = tmp_path / "split.json"
    assert main(["functor", "split", "--input", path, "--output", str(out)]) == 0
    capsys.readouterr()
    pair = json.loads(out.read_text())
    for key in ("first", "second"):
        summand = tmp_path / f"{key}.json"
        summand.write_text(json.dumps(pair[key]))
        assert main(["verify", str(summand)]) == 0


def test_cold_start_imports_no_unused_stdlib():
    # every CLI command starts a fresh interpreter, so the import of
    # tmfkit.cli is paid per command; -S keeps site's own imports out
    heavy = ("dataclasses", "fractions", "decimal", "inspect")
    code = f"import sys, tmfkit.cli; print([m for m in {heavy!r} if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
