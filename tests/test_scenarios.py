import json
from fractions import Fraction

import pytest

from conngerm.cli import main
from conngerm.kuranishi import MatPair
from conngerm.poly import MPoly
from conngerm.scenarios import (
    Check,
    Scenario,
    ScenarioError,
    bundled_dir,
    canonical,
    load_scenario,
    parse_json_exact,
    report_from_json,
    run_all,
    run_scenario,
    run_scenario_obj,
    scenario_from_obj,
)

GOOD = {
    "version": 1,
    "name": "demo",
    "kind": "kuranishi",
    "checks": [
        {"op": "count_points", "args": {"prime": 3}, "expect": {"count": 105}}
    ],
}


def test_floats_rejected():
    with pytest.raises(ScenarioError):
        parse_json_exact('{"x": 1.5}')
    with pytest.raises(ScenarioError):
        parse_json_exact('{"x": NaN}')
    with pytest.raises(ScenarioError):
        parse_json_exact('{"x": 1e3}')


def test_parse_error_carries_position():
    with pytest.raises(ScenarioError) as err:
        parse_json_exact('{"x": ')
    assert "line 1" in str(err.value)


def test_schema_validation():
    with pytest.raises(ScenarioError):
        scenario_from_obj({**GOOD, "kind": "astrology"})
    with pytest.raises(ScenarioError):
        scenario_from_obj({**GOOD, "name": ""})
    with pytest.raises(ScenarioError):
        scenario_from_obj({**GOOD, "checks": []})
    with pytest.raises(ScenarioError):
        scenario_from_obj({**GOOD, "version": 2})
    with pytest.raises(ScenarioError):
        scenario_from_obj({**GOOD, "surprise": 1})
    bad_check = {**GOOD, "checks": [{"op": "no_such_op", "args": {}}]}
    with pytest.raises(ScenarioError):
        scenario_from_obj(bad_check)


def test_rationals_in_args():
    scenario = scenario_from_obj(
        {
            "version": 1,
            "name": "rat",
            "kind": "git",
            "checks": [{"op": "orbits", "args": {"z1": "1/2", "z2": 2}}],
        }
    )
    report = run_scenario_obj(scenario)
    assert report.passed
    assert report.checks[0].computed["count"] == 2
    bad = scenario_from_obj(
        {
            "version": 1,
            "name": "rat",
            "kind": "git",
            "checks": [{"op": "orbits", "args": {"z1": "1/0", "z2": 2}}],
        }
    )
    with pytest.raises(ScenarioError):
        run_scenario_obj(bad)


def test_qualified_and_cross_kind_ops():
    scenario = scenario_from_obj(
        {
            "version": 1,
            "name": "cross",
            "kind": "cohomology",
            "checks": [
                {"op": "kuranishi.relation_certificate", "args": {}},
                {"op": "fiber", "args": {}},
            ],
        }
    )
    report = run_scenario_obj(scenario)
    assert report.passed
    with pytest.raises(ScenarioError):
        scenario_from_obj(
            {
                "version": 1,
                "name": "x",
                "kind": "cohomology",
                "checks": [{"op": "kuranishi.psi2", "args": {}}],
            }
        )


def test_precondition_failures_are_input_errors():
    scenario = scenario_from_obj(
        {
            "version": 1,
            "name": "big",
            "kind": "kuranishi",
            "checks": [{"op": "count_points", "args": {"prime": 17}}],
        }
    )
    with pytest.raises(ScenarioError):
        run_scenario_obj(scenario)
    with pytest.raises(ScenarioError):
        run_scenario_obj(
            scenario_from_obj(
                {
                    "version": 1,
                    "name": "neg",
                    "kind": "cohomology",
                    "checks": [
                        {"op": "rr_line", "args": {"degree": 0, "trivial": 3}}
                    ],
                }
            )
        )


def test_expect_subset_and_mismatch_paths():
    ok = run_scenario_obj(scenario_from_obj(GOOD))
    assert ok.passed and ok.checks[0].computed["closed_form"] == 105
    bad = {**GOOD, "checks": [
        {"op": "count_points", "args": {"prime": 3}, "expect": {"count": 1}}
    ]}
    report = run_scenario_obj(scenario_from_obj(bad))
    assert not report.passed
    assert "expected 1, got 105" in report.checks[0].mismatches[0]
    absent = {**GOOD, "checks": [
        {"op": "count_points", "args": {"prime": 3}, "expect": {"nope": 1}}
    ]}
    report2 = run_scenario_obj(scenario_from_obj(absent))
    assert not report2.passed
    assert "no such output" in report2.checks[0].mismatches[0]


def test_canonical_encoding():
    assert canonical(Fraction(4, 2)) == 2
    assert canonical(Fraction(1, 3)) == "1/3"
    assert canonical(MPoly.const(("r1",), Fraction(-2))) == -2
    assert canonical(MPoly.gen(("r1",), "r1")) == "r1"
    assert canonical((1, (2, 3))) == [1, [2, 3]]
    assert canonical(True) is True
    assert canonical(MatPair.from_coords(x=1)) == {
        "T": [[1, 0], [0, -1]], "Y": [[0, 0], [0, 0]]
    }
    with pytest.raises(TypeError):
        canonical(object())


def test_bundled_suite_passes():
    agg = run_all(bundled_dir())
    assert agg.passed
    assert len(agg.reports) == 12
    names = [r.scenario for r in agg.reports]
    assert names == sorted(names)


def test_reports_deterministic_and_round_trip():
    path = bundled_dir() / "cone_relation.json"
    r1, r2 = run_scenario(path), run_scenario(path)
    assert r1.to_json() == r2.to_json()
    assert r1.elapsed != 0.0  # timing exists but lives outside the JSON
    assert "elapsed" not in r1.to_json()
    recovered = report_from_json(r1.to_json())
    assert recovered == r1


def test_run_all_isolates_corrupted_files(tmp_path):
    good = bundled_dir() / "point_counts.json"
    (tmp_path / "a_good.json").write_text(good.read_text())
    (tmp_path / "b_broken.json").write_text("{broken")
    (tmp_path / "c_mismatch.json").write_text(json.dumps({
        "version": 1, "name": "mm", "kind": "kuranishi",
        "checks": [{"op": "count_points", "args": {"prime": 2},
                    "expect": {"count": 0}}],
    }))
    agg = run_all(tmp_path)
    assert not agg.passed
    by_name = {r.scenario: r for r in agg.reports}
    assert by_name["point_counts"].passed
    assert not by_name["b_broken.json"].passed
    assert by_name["b_broken.json"].error
    assert not by_name["mm"].passed and by_name["mm"].error is None


def test_run_all_empty_directory_warns(tmp_path):
    agg = run_all(tmp_path)
    assert agg.passed
    assert agg.warning and "no scenario files" in agg.warning
    with pytest.raises(ScenarioError):
        run_all(tmp_path / "missing")


def test_load_scenario_missing_file(tmp_path):
    with pytest.raises(ScenarioError):
        load_scenario(tmp_path / "nope.json")


def test_in_memory_scenario_objects():
    scenario = Scenario(
        "inline", "diffop",
        (Check("normalize", {"expr": "d*z"}, {"normal_form": "z*d + 1"}),),
    )
    report = run_scenario_obj(scenario)
    assert report.passed
    obj = report.to_obj()
    assert obj["checks"][0]["computed"]["order"] == 1


def test_run_all_isolates_oversized_and_deeply_nested_files(tmp_path, capsys):
    good = bundled_dir() / "point_counts.json"
    (tmp_path / "a_good.json").write_text(good.read_text())
    huge = tmp_path / "b_huge_int.json"
    huge.write_text(
        '{"version": 1, "name": "huge", "kind": "kuranishi", "checks": '
        '[{"op": "count_points", "args": {"prime": ' + "7" * 5000 + "}}]}"
    )
    deep = tmp_path / "c_deep.json"
    deep.write_text("[" * 100000)
    agg = run_all(tmp_path)
    assert not agg.passed
    by_name = {r.scenario: r for r in agg.reports}
    assert by_name["point_counts"].passed
    for name in ("b_huge_int.json", "c_deep.json"):
        assert not by_name[name].passed and by_name[name].error
    json.loads(agg.to_json())
    for f in (huge, deep):
        assert main(["run", str(f)]) == 2
        assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "op, args, message",
    [
        ("segre", {"symbolic": "no"},
         "expected a boolean, got 'no' (at checks[0].args.symbolic)"),
        ("rr_line", {"trivial": True},
         "missing field 'degree' (at checks[0].args)"),
        ("membership", {"expr": "z*d", "variant": {"pole_mult": 2}},
         "missing field 'kind' (at checks[0].args.variant)"),
    ],
    ids=["segre-symbolic-not-bool", "rr_line-no-degree", "membership-no-kind"],
)
def test_argument_errors_are_typed_and_named(op, args, message):
    scenario = scenario_from_obj({**GOOD, "checks": [{"op": op, "args": args}]})
    with pytest.raises(ScenarioError) as err:
        run_scenario_obj(scenario)
    assert str(err.value) == message


def test_run_all_isolates_a_deeply_nested_operator(tmp_path):
    good = bundled_dir() / "diffop_basics.json"
    (tmp_path / "a_good.json").write_text(good.read_text())
    deep = {"version": 1, "name": "deep", "kind": "diffop", "checks": [
        {"op": "normalize", "args": {"expr": "(" * 3000 + "d" + ")" * 3000}}]}
    (tmp_path / "b_deep.json").write_text(json.dumps(deep))
    by_name = {r.scenario: r for r in run_all(tmp_path).reports}
    assert by_name["diffop_basics"].passed
    assert not by_name["b_deep.json"].passed
    assert "nested too deeply" in by_name["b_deep.json"].error


def _orbits(z1):
    return {"version": 1, "name": "orbits", "kind": "git",
            "checks": [{"op": "orbits", "args": {"z1": z1, "z2": 2}}]}


@pytest.mark.parametrize("text", ["1e5000", "1.5", "1_0", "inf", "1/-2", "--1", ""])
def test_rational_strings_are_integers_or_p_over_q(text):
    with pytest.raises(ScenarioError, match="bad rational"):
        run_scenario_obj(scenario_from_obj(_orbits(text)))


def test_run_all_isolates_a_rational_in_exponent_form(tmp_path):
    (tmp_path / "a_good.json").write_text(json.dumps(_orbits("-4/2")))
    (tmp_path / "b_exp.json").write_text(json.dumps(_orbits("1e5000")))
    agg = run_all(tmp_path)
    by_name = {r.scenario: r for r in agg.reports}
    assert by_name["orbits"].passed
    assert "bad rational '1e5000'" in by_name["b_exp.json"].error
    json.loads(agg.to_json())


def test_result_too_large_for_json_fails_its_own_check(tmp_path, capsys):
    big = {"version": 1, "name": "big", "kind": "cohomology", "checks": [
        {"op": "fiber_dimension", "args": {"r": 10**3000, "g": 2, "degD": 1}}]}
    f = tmp_path / "b_big.json"
    f.write_text(json.dumps(big))
    assert main(["run", str(f)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "result cannot be encoded" in err and "Traceback" not in err
    (tmp_path / "a_good.json").write_text((bundled_dir() / "fiber_dims.json").read_text())
    agg = run_all(tmp_path)
    by_name = {r.scenario: r for r in agg.reports}
    assert by_name["fiber_dims"].passed
    assert "result cannot be encoded" in by_name["b_big.json"].error
    json.loads(agg.to_json())
