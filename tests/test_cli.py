import json

import pytest

from cliffspin import Multivector, Signature, geometric_product, to_json_dict
from cliffspin.cli import build_parser, main

SIG13 = Signature(1, 3)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_spacetime(capsys):
    code, out, _ = run(capsys, "classify", "--p", "1", "--q", "3")
    assert code == 0
    assert out.strip() == "Cl(1,3) ≅ H(2)"


def test_classify_ascii_and_sum(capsys):
    code, out, _ = run(capsys, "classify", "--p", "1", "--q", "0", "--ascii")
    assert code == 0
    assert out.strip() == "Cl(1,0) ~= R(1) (+) R(1)"


def test_idempotent_output(capsys):
    code, out, _ = run(capsys, "idempotent", "--p", "1", "--q", "3", "--ascii")
    assert code == 0
    assert "idempotent: 0.5 + 0.5 e1" in out
    assert "division ring: H" in out
    assert "ideal real dimension: 8" in out
    assert "ideal dimension over K: 2" in out


def test_idempotent_notes_an_algebra_that_splits(capsys):
    code, out, _ = run(capsys, "idempotent", "--p", "2", "--q", "1")
    assert code == 0
    assert out.endswith("\nnote: algebra splits as a direct sum; idempotent lives in one summand\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["idempotent", "--p", "1", "--q", "3"],
        ["decompose", "--in", "x.json"],
        ["eval", "--sig", "1,3", "e1"],
    ],
)
def test_noop_ascii_flag_is_accepted_but_hidden(capsys, argv):
    assert build_parser().parse_args([*argv, "--ascii"]).ascii
    with pytest.raises(SystemExit):
        main([argv[0], "--help"])
    assert "--ascii" not in capsys.readouterr().out


def test_classify_ascii_flag_is_listed(capsys):
    with pytest.raises(SystemExit):
        main(["classify", "--help"])
    assert "--ascii" in capsys.readouterr().out


def test_fierz_smoke(capsys):
    code, out, _ = run(capsys, "fierz", "--trials", "25", "--seed", "0")
    assert code == 0
    assert "ok" in out and "FAIL" not in out
    assert out.count("  ok\n") == 16


def test_planewave_csv_and_covariants(capsys):
    code, out, _ = run(
        capsys,
        "planewave",
        "--mass", "1.0",
        "--px", "0.3",
        "--py", "-0.2",
        "--pz", "0.1",
        "--points", "5",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,x,y,z,dhe_res,asf_res,matrix_res"
    assert len(lines) >= 7
    payload = json.loads(lines[-1])
    assert abs(payload["sigma"] - 1.0) < 1e-9
    assert abs(payload["omega"]) < 1e-9
    assert payload["J"]["signature"] == [1, 3]


def test_planewave_negative_energy(capsys):
    code, out, _ = run(capsys, "planewave", "--mass", "1.5", "--sign", "-1", "--points", "3")
    assert code == 0


def test_planewave_with_potential(capsys):
    code, _, _ = run(
        capsys,
        "planewave",
        "--mass", "1.0",
        "--px", "0.2",
        "--charge", "0.5",
        "--at", "0.1",
        "--az", "-0.2",
        "--points", "3",
    )
    assert code == 0


def test_verify_rep(capsys):
    code, out, _ = run(capsys, "verify-rep", "--trials", "20")
    assert code == 0
    assert "homomorphism residual" in out


def test_decompose_file(capsys, tmp_path):
    psi = 2.0 * Multivector.scalar(SIG13, 1.0)
    path = tmp_path / "spinor.json"
    path.write_text(json.dumps({"psi": to_json_dict(psi)}))
    code, out, _ = run(capsys, "decompose", "--in", str(path), "--ascii")
    assert code == 0
    assert "rho: 4.0" in out
    assert "beta: 0.0" in out


def test_decompose_file_with_rotor(capsys, tmp_path):
    from cliffspin import exp_bivector

    rot = exp_bivector(
        0.2 * geometric_product(
            Multivector.generator(SIG13, 2), Multivector.generator(SIG13, 3)
        )
    )
    psi = Multivector.scalar(SIG13, 1.0)
    path = tmp_path / "spinor.json"
    path.write_text(json.dumps({"psi": to_json_dict(psi), "rotor": to_json_dict(rot)}))
    code, out, _ = run(capsys, "decompose", "--in", str(path))
    assert code == 0
    assert "rho: 1.0" in out


def test_eval_basic(capsys):
    code, out, _ = run(capsys, "eval", "--sig", "1,3", "e1*e1")
    assert code == 0
    assert out.strip() == "1"


def test_eval_json(capsys):
    code, out, _ = run(capsys, "eval", "--sig", "1,3", "--json", "2*e1^e3")
    assert code == 0
    payload = json.loads(out)
    assert payload["signature"] == [1, 3]
    assert payload["terms"] == [{"blades": [1, 3], "re": 2.0, "im": 0.0}]


def test_eval_bad_signature(capsys):
    assert_domain_error(*run(capsys, "eval", "--sig", "nope", "e1"), "bad signature")
    assert_domain_error(*run(capsys, "eval", "--sig", "1,20", "e1"), "exceeds cap 12")


def test_eval_negative_signature_is_domain_error(capsys):
    for argv in (["--sig", "-1,3", "e1"], ["e1", "--sig", "-1,3"], ["--sig", "1,-3", "e1"]):
        assert_domain_error(
            *run(capsys, "eval", *argv), "error: signature counts must be non-negative"
        )


def test_eval_bad_expression(capsys):
    code, _, err = run(capsys, "eval", "--sig", "1,3", "e1 +")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("expr", ["-e1", "-2*e1", "-e1^e2"])
def test_eval_expression_with_leading_minus(capsys, expr):
    dashed = run(capsys, "eval", "--sig", "1,3", "--", expr)
    assert run(capsys, "eval", "--sig", "1,3", expr) == dashed
    assert run(capsys, "eval", "--sig", "1,3", expr, "--json")[1] == run(
        capsys, "eval", "--sig", "1,3", "--json", "--", expr
    )[1]
    assert dashed[0] == 0 and dashed[1].strip()


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--sig", "1,3", "--bogus"],
        ["eval", "--sig", "1,3", "e1", "--bogus"],
        ["eval", "--sig", "1,3", "-e1", "-e2"],
        ["eval", "--sig", "1,3"],
        ["classify", "--p", "1", "--q", "3", "-e1"],
    ],
)
def test_eval_unknown_option_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2


def test_version(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0


def assert_domain_error(code, out, err, needle):
    # Exit 2 with one "error: ..." line and no traceback; exit 1 is kept for
    # a residual above tolerance.
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert needle in err
    assert "Traceback" not in err


def test_eval_non_invertible_is_domain_error(capsys):
    assert_domain_error(*run(capsys, "eval", "--sig", "1,3", "inv(1+e1)"), "singular")


def test_eval_grade_out_of_range_is_domain_error(capsys):
    assert_domain_error(*run(capsys, "eval", "--sig", "1,3", "grade9(e1)"), "grade 9")


def test_eval_deep_nesting_is_domain_error(capsys):
    expr = "(" * 2000 + "e1" + ")" * 2000
    assert_domain_error(*run(capsys, "eval", "--sig", "1,3", expr), "nested deeper")


def test_eval_long_operator_chain_is_domain_error(capsys):
    expr = "+".join(["e1"] * 2000)
    assert_domain_error(*run(capsys, "eval", "--sig", "1,3", expr), "nested deeper")


def test_decompose_missing_file_is_domain_error(capsys, tmp_path):
    missing = tmp_path / "no-such-file.json"
    assert_domain_error(*run(capsys, "decompose", "--in", str(missing)), "No such file")


@pytest.mark.parametrize(
    "text",
    ['{"psi": 3', "[1]", '{"x": 1}', '{"psi": {"signature": [1, 3]}}'],
)
def test_decompose_malformed_file_is_domain_error(capsys, tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert_domain_error(*run(capsys, "decompose", "--in", str(path)), "")


@pytest.mark.parametrize("idx", [0, 10**8])
def test_decompose_blade_index_out_of_range_is_domain_error(capsys, tmp_path, idx):
    psi = {"signature": [1, 3], "terms": [{"blades": [idx], "re": 1.0, "im": 0.0}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"psi": psi}))
    needle = f"error: generator e{idx} out of range for n=4\n"
    assert_domain_error(*run(capsys, "decompose", "--in", str(path)), needle)


COMPLEX_PSI = {"signature": [1, 3], "terms": [{"blades": [], "re": 0.0, "im": 1.0}]}
COMPLEX_ROTOR = {"signature": [1, 3], "terms": [{"blades": [1, 2, 3, 4], "re": 0.0, "im": 1.0}]}


@pytest.mark.parametrize(
    "data,needle",
    [
        ({"psi": COMPLEX_PSI}, "error: representative must be real\n"),
        ({"psi": to_json_dict(Multivector.scalar(SIG13, 1.0)), "rotor": COMPLEX_ROTOR}, "error: rotor must be real\n"),
    ],
    ids=["psi", "rotor"],
)
def test_decompose_complex_spinor_is_domain_error(capsys, tmp_path, data, needle):
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(data))
    assert_domain_error(*run(capsys, "decompose", "--in", str(path)), needle)
