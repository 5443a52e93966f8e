"""Command-line behavior: exit codes, clean JSON on stdout, human
summary on stderr, determinism of the serialized reports."""

import json

import pytest

from conngerm.cli import main
from conngerm.scenarios import bundled_dir


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_all_bundled(capsys):
    code, out, err = run_cli(capsys, "run-all")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert len(doc["scenarios"]) == 12
    assert "12/12 scenarios passed" in err


def test_run_all_stdout_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "run-all")
    _, out2, _ = run_cli(capsys, "run-all")
    assert out1 == out2


def test_run_single_scenario(capsys):
    path = str(bundled_dir() / "diffop_basics.json")
    code, out, err = run_cli(capsys, "run", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["scenario"] == "diffop_basics"
    assert all(c["pass"] for c in doc["checks"])
    assert "diffop_basics" in err


def test_exit_one_on_mismatch(tmp_path, capsys):
    f = tmp_path / "mm.json"
    f.write_text(json.dumps({
        "version": 1, "name": "mm", "kind": "kuranishi",
        "checks": [{"op": "count_points", "args": {"prime": 2},
                    "expect": {"count": 99}}],
    }))
    code, out, err = run_cli(capsys, "run", str(f))
    assert code == 1
    assert json.loads(out)["pass"] is False
    assert "mismatch" in err


def test_exit_two_on_malformed(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text('{"version": 1,,}')
    code, out, err = run_cli(capsys, "run", str(f))
    assert code == 2
    assert "error" in err
    assert "line" in err  # parse position is reported


def test_exit_two_on_missing_file(capsys):
    code, _, err = run_cli(capsys, "run", "/nonexistent/path.json")
    assert code == 2


def test_run_all_empty_dir(tmp_path, capsys):
    code, out, err = run_cli(capsys, "run-all", str(tmp_path))
    assert code == 0
    assert "warning" in err
    assert json.loads(out)["scenarios"] == []


def test_diffop_normalize(capsys):
    code, out, _ = run_cli(capsys, "diffop", "normalize", "d*z")
    assert code == 0
    doc = json.loads(out)
    assert doc["checks"][0]["computed"]["normal_form"] == "z*d + 1"


def test_diffop_member(capsys):
    code, out, _ = run_cli(
        capsys, "diffop", "member", "z^4*d^2 + 2*z^3*d", "--pole-mult", "2"
    )
    assert code == 0
    computed = json.loads(out)["checks"][0]["computed"]
    assert computed["member"] is True
    assert computed["certificate"] == "(z^2*d)^2"
    code2, out2, _ = run_cli(capsys, "diffop", "member", "z*d", "--logarithmic")
    assert code2 == 0
    assert json.loads(out2)["checks"][0]["computed"]["member"] is True


def test_diffop_parse_error_is_input_error(capsys):
    code, _, err = run_cli(capsys, "diffop", "normalize", "z^")
    assert code == 2
    assert "error" in err


def test_kuranishi_commands(capsys):
    code, out, _ = run_cli(capsys, "kuranishi", "count", "--prime", "3")
    assert code == 0
    assert json.loads(out)["checks"][0]["computed"]["count"] == 105

    code, out, _ = run_cli(capsys, "kuranishi", "ob2")
    assert code == 0
    computed = json.loads(out)["checks"][0]["computed"]
    assert computed["involves_trace_vars"] is False
    assert computed["q"][0] == "x12*y21 - x21*y12"

    code, out, _ = run_cli(capsys, "kuranishi", "ob2", "--coords", "x12=1,y21=1")
    assert code == 0
    assert json.loads(out)["checks"][0]["computed"]["q"] == [1, 0, 0]

    code, out, _ = run_cli(capsys, "kuranishi", "segre")
    assert code == 0
    assert json.loads(out)["checks"][0]["computed"]["on_locus"] is True

    code, out, _ = run_cli(
        capsys, "kuranishi", "segre", "--xi", "1", "2", "4", "--lam", "3", "5"
    )
    assert code == 0
    assert json.loads(out)["checks"][0]["computed"]["q_values"] == [0, 0, 0]


def test_kuranishi_count_needs_prime(capsys):
    code, _, err = run_cli(capsys, "kuranishi", "count")
    assert code == 2


def test_git_commands(capsys):
    code, out, _ = run_cli(capsys, "git", "psi", "--coords", "x=1,y=1")
    assert code == 0
    computed = json.loads(out)["checks"][0]["computed"]
    assert computed["on_cone"] is True and computed["z"] == 2

    code, out, _ = run_cli(capsys, "git", "orbits", "--z1", "2", "--z2", "8")
    assert code == 0
    computed = json.loads(out)["checks"][0]["computed"]
    assert computed["count"] == 2 and computed["z_values"] == [4, -4]

    code, out, _ = run_cli(capsys, "git", "fiber")
    assert code == 0
    assert json.loads(out)["checks"][0]["computed"]["multiplicity"] == 2


def test_deform_command(capsys):
    code, out, _ = run_cli(
        capsys, "deform", "--order", "2", "--g2", "20", "--g3", "28"
    )
    assert code == 0
    computed = json.loads(out)["checks"][0]["computed"]
    assert computed["ok"] is True and computed["ztrunc"] == 6


def test_scenario_kind_commands(capsys):
    stab = str(bundled_dir() / "stability_chain.json")
    code, out, _ = run_cli(capsys, "stability", "--scenario", stab)
    assert code == 0
    coh = str(bundled_dir() / "most_degenerate.json")
    code, out, _ = run_cli(capsys, "cohomology", "--scenario", coh)
    assert code == 0
    # kind mismatch is an input error
    code, _, err = run_cli(capsys, "cohomology", "--scenario", stab)
    assert code == 2
    assert "kind" in err


def test_stdout_carries_only_json(capsys):
    _, out, _ = run_cli(capsys, "git", "fiber")
    json.loads(out)  # raises if anything but the report landed on stdout


def test_argparse_rejects_unknown_command():
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 2


def test_deeply_nested_operator_is_an_input_error(capsys):
    expr = "(" * 3000 + "d" + ")" * 3000
    code, out, err = run_cli(capsys, "diffop", "normalize", expr)
    assert code == 2 and out == ""
    assert "nested too deeply" in err and "Traceback" not in err


def test_diffop_expression_may_start_with_a_minus_sign(capsys):
    cases = (
        (("normalize", "-z*d"), ("normalize", "--", "-z*d")),
        (("member", "-z*d", "--pole-mult", "1"),
         ("member", "--pole-mult", "1", "--", "-z*d")),
        (("member", "--pole-mult", "2", "-(z^2*d)^2"),
         ("member", "--pole-mult", "2", "--", "-(z^2*d)^2")),
        (("member", "-z*d", "--logarithmic"),
         ("member", "--logarithmic", "--", "-z*d")),
    )
    for plain, dashed in cases:
        code, out, _ = run_cli(capsys, "diffop", *plain)
        assert (code, out) == run_cli(capsys, "diffop", *dashed)[:2], plain
        assert code == 0
    doc = json.loads(run_cli(capsys, "diffop", "normalize", "-z*d")[1])
    assert doc["checks"][0]["computed"]["normal_form"] == "-z*d"
    with pytest.raises(SystemExit) as e:
        main(["diffop", "normalize", "-z*d", "-h"])
    assert e.value.code == 0
    assert "--pole-mult" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["1e5000", "1.5", "1_0", "0x10", "1/-2", "٣"])
def test_rational_flags_take_only_integers_and_p_over_q(capsys, value):
    with pytest.raises(SystemExit) as e:
        main(["git", "psi", "--coords", f"x={value}"])
    err = capsys.readouterr().err
    assert e.value.code == 2
    assert "bad rational" in err and "Traceback" not in err


INTEGER_FLAGS = {
    "--prime": ["kuranishi", "count", "--prime"],
    "--order": ["deform", "--order"],
    "--ztrunc": ["deform", "--order", "2", "--ztrunc"],
    "--pole-mult": ["diffop", "member", "z*d", "--pole-mult"],
}


@pytest.mark.parametrize("value", ["٣", "1_3", " 3", "1/2", "1e3"])
@pytest.mark.parametrize("flag", sorted(INTEGER_FLAGS))
def test_integer_flags_take_only_ascii_digits(capsys, flag, value):
    with pytest.raises(SystemExit) as e:
        main(INTEGER_FLAGS[flag] + [value])
    err = capsys.readouterr().err
    assert e.value.code == 2
    assert f"argument {flag}: bad integer" in err and "Traceback" not in err


@pytest.mark.parametrize("value", ["abc", "100", "٣٠٠٠", "1_000", " 3000"])
def test_count_reads_no_environment_variable(capsys, monkeypatch, value):
    # the point count's only budget is the fixed cap on the prime
    monkeypatch.setenv("CONNGERM_ENUM_BUDGET", value)
    code, out, _ = run_cli(capsys, "kuranishi", "count", "--prime", "5")
    assert code == 0 and json.loads(out)["checks"][0]["computed"]["count"] == 745


def test_integer_flags_keep_signs(capsys):
    code, out, _ = run_cli(capsys, "kuranishi", "count", "--prime", "+5")
    assert code == 0 and json.loads(out)["checks"][0]["args"] == {"prime": 5}
    code, _, err = run_cli(capsys, "diffop", "member", "z*d", "--pole-mult", "-1")
    assert code == 2 and "pole multiplicity >= 1" in err


def test_rational_flags_keep_signs_and_fractions(capsys):
    code, out, _ = run_cli(capsys, "git", "orbits", "--z1=-3/6", "--z2=+2")
    assert code == 0
    assert json.loads(out)["checks"][0]["args"] == {"z1": "-1/2", "z2": 2}
