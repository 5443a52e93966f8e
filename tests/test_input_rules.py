"""Each input rule has one home: numbers from Python callers go through
``poly.to_fraction``, operator text takes ASCII digits only, and input
nested past the recursion limit is malformed input, not a crash."""

import json
import time

import pytest

from conngerm.cli import main
from conngerm.deformation import wp_series
from conngerm.diffop import DiffOp, DiffOpParseError, parse_diffop
from conngerm.kuranishi import MatPair, count_points_mod_p, orbit_separation, segre_check
from conngerm.poly import MPoly
from conngerm.scenarios import bundled_dir, run_all, run_scenario_obj, scenario_from_obj
from conngerm.series import TruncLaurent

ENTRY_POINTS = {
    "wp_series": lambda v: wp_series(v, 0, 8),
    "orbit_separation": lambda v: orbit_separation(v, 1),
    "MatPair.from_coords": lambda v: MatPair.from_coords(x=v),
    "segre_check": lambda v: segre_check([v, 1, 1], [1, 1]),
    "TruncLaurent": lambda v: TruncLaurent("z", {0: v}),
    "DiffOp": lambda v: DiffOp({0: v}),
}


@pytest.mark.parametrize("value", [0.5, "1/2"], ids=["float", "string"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_only_ints_and_fractions_enter_the_exact_core(entry, value):
    with pytest.raises(TypeError, match="expected a rational"):
        ENTRY_POINTS[entry](value)


def test_diffop_refuses_a_coefficient_in_another_variable():
    with pytest.raises(ValueError, match="expected"):
        DiffOp({1: MPoly(("x",), {(1,): 1})})


@pytest.mark.parametrize(
    "expr, message",
    [("z^٣", "unexpected character '٣'"), ("z^²", "unexpected character '²'"),
     ("z^" + "9" * 5000, "integer literal of 5000 digits is too long")],
    ids=["arabic-indic-digit", "superscript-two", "5000-digit-exponent"],
)
def test_operator_integers_are_ascii_digits(capsys, expr, message):
    with pytest.raises(DiffOpParseError) as err:
        parse_diffop(expr)
    assert err.value.position == 2
    assert main(["diffop", "normalize", expr]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"{message} (at position 2)" in err
    assert "Traceback" not in err


def _chase_of_depth(n):
    descriptor = {"leaf": {"degree": 1}}
    for _ in range(n):
        descriptor = {"ext": {"left": descriptor, "right": {"leaf": {"degree": 0}},
                              "boundary_rank": 0}}
    return {"version": 1, "name": "deep_chase", "kind": "cohomology",
            "checks": [{"op": "chase", "args": {"descriptor": descriptor}}]}


def _expect_of_depth(n):
    expect = {}
    for _ in range(n):
        expect = {"h0": expect}
    return {"version": 1, "name": "deep_expect", "kind": "cohomology",
            "checks": [{"op": "rr_line", "args": {"degree": 1}, "expect": expect}]}


@pytest.mark.parametrize("doc", [_chase_of_depth(400), _expect_of_depth(500)],
                         ids=["chase-400-deep", "expect-500-deep"])
def test_deeply_nested_check_is_malformed_input(tmp_path, capsys, doc):
    bad = tmp_path / "b_deep.json"
    bad.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert main(["run", str(bad)]) == 2
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == "" and "RecursionError" in err and "Traceback" not in err
    (tmp_path / "a_good.json").write_text((bundled_dir() / "fiber_dims.json").read_text())
    agg = run_all(tmp_path)
    by_name = {r.scenario: r for r in agg.reports}
    assert by_name["fiber_dims"].passed
    assert not by_name["b_deep.json"].passed
    assert "RecursionError" in by_name["b_deep.json"].error
    json.loads(agg.to_json())


HUGE_PRIME = 10**800 + 1  # 801 digits; p^6 is past the int-string digit limit


def test_count_refuses_a_huge_prime_with_the_budget_message(capsys):
    with pytest.raises(ValueError, match="enumeration budget exceeded"):
        count_points_mod_p(HUGE_PRIME)
    assert main(["kuranishi", "count", "--prime", str(HUGE_PRIME)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "enumeration budget exceeded" in err
    assert "Traceback" not in err


def _computed(op, args):
    scenario = scenario_from_obj({"version": 1, "name": "s", "kind": "cohomology",
                                  "checks": [{"op": op, "args": args}]})
    return run_scenario_obj(scenario).checks[0].computed


@pytest.mark.parametrize("args, dims", [
    ({"degree": -2}, {"h0": 0, "h1": 2, "chi": -2}),
    ({"degree": 0, "trivial": True}, {"h0": 1, "h1": 1, "chi": 0}),
])
def test_rr_line_op(args, dims):
    assert _computed("rr_line", args) == dims


E12 = [[0, 1], [0, 0]]
E21 = [[0, 0], [1, 0]]
DIAG = [[1, 0], [0, -1]]


@pytest.mark.parametrize("domain, rank", [("upper", 1), ([E12, E21], 2)])
def test_d1_rank_op_on_a_given_domain(domain, rank):
    assert _computed("d1_rank", {"matrix": DIAG, "domain": domain}) == {"rank": rank}


def test_d1_rank_op_refuses_a_dependent_domain(tmp_path, capsys):
    doc = {"version": 1, "name": "dependent", "kind": "cohomology", "checks": [
        {"op": "d1_rank", "args": {"matrix": DIAG, "domain": [E12, [[0, 2], [0, 0]]]}}]}
    f = tmp_path / "dependent.json"
    f.write_text(json.dumps(doc))
    assert main(["run", str(f)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "linearly dependent" in err and "Traceback" not in err


@pytest.mark.parametrize("depth", [100, 990])
def test_an_expect_past_the_depth_cap_is_malformed_on_every_python(tmp_path, capsys,
                                                                    depth):
    bad = tmp_path / "b_deep.json"
    # written by hand: json.dumps itself recurses once per level
    expect = '{"h0": ' * depth + "{}" + "}" * depth
    bad.write_text(json.dumps(_expect_of_depth(0)).replace("{}", expect))
    start = time.perf_counter()
    assert main(["run", str(bad)]) == 2
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    # past the decoder's own limit (990 levels on some versions) the JSON
    # parse fails first, also as malformed input
    assert out == "" and "recursion" in err.lower() and "Traceback" not in err
    if depth == 100:
        assert "RecursionError: nesting deeper than 64 levels (at checks[0])" in err
    (tmp_path / "a_good.json").write_text((bundled_dir() / "fiber_dims.json").read_text())
    agg = run_all(tmp_path)
    by_name = {r.scenario: r for r in agg.reports}
    assert by_name["fiber_dims"].passed
    assert "recursion" in by_name["b_deep.json"].error.lower()
    json.loads(agg.to_json())


def test_a_scenario_file_that_is_not_utf8_is_malformed_input(tmp_path, capsys):
    bad = tmp_path / "b_latin.json"
    bad.write_bytes(b"\x80" + json.dumps(_expect_of_depth(1)).encode())
    start = time.perf_counter()
    assert main(["run", str(bad)]) == 2
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == "" and "not UTF-8" in err and "Traceback" not in err
    (tmp_path / "a_good.json").write_text((bundled_dir() / "fiber_dims.json").read_text())
    agg = run_all(tmp_path)
    by_name = {r.scenario: r for r in agg.reports}
    assert by_name["fiber_dims"].passed
    assert "not UTF-8" in by_name["b_latin.json"].error
    json.loads(agg.to_json())
