import json
import os

from tmfkit.cli import Report, main


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

    t, _ = load_tmf(path)
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

    t, _ = load_tmf(path)
    dump_tmf(t, rewritten, t.context.sigma, t.context.tau)
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

    t0, _ = load_tmf(path)
    t1, _ = load_tmf(back_path)
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

    t, _ = load_tmf(path)
    shifted = str(tmp_path / "shifted.json")
    dump_tmf(shift_tmf(t, 1), shifted, t.context.sigma, t.context.tau)
    assert main(["--trials", "4", "iso", path, shifted]) == 3


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


def test_report_json_roundtrip():
    report = Report(
        command="verify x", status="pass", seed=3, elapsed=0.5,
        checks=[{"name": "identity-1", "ok": True, "detail": ""}],
        artifacts={"note": "hi"},
    )
    again = Report.from_json(json.loads(json.dumps(report.to_json())))
    assert again.to_json() == report.to_json()


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
