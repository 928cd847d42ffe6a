from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from importlib import resources

import jsonschema
import pytest

import tradenet
from tradenet import oracle
from tradenet.cli import main
from tradenet.instances import BUNDLED, bundled_json
from tradenet.oracle import generate_priced_instance, needle_family, partition_to_gs


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def schema(name):
    text = resources.files("tradenet").joinpath(f"schemas/{name}").read_text("utf-8")
    return json.loads(text)


@pytest.fixture(scope="module")
def example_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("instances")
    code = main(["examples", "--out", str(out)])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def priced_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("priced") / "econ.json"
    payload = {
        "trades": [
            {"id": "t1", "seller": "a", "buyer": "b", "price_min": 0, "price_max": 6}
        ],
        "choice_functions": [
            {"agent": "a", "type": "reservation", "values": {}, "costs": {"t1": 2}},
            {"agent": "b", "type": "reservation", "values": {"t1": 5}, "costs": {}},
        ],
    }
    path.write_text(json.dumps(payload))
    return path


def test_no_arguments_usage(capsys):
    code, out, err = run_cli(capsys)
    assert code == 2
    assert "usage" in err.lower()


def test_validate_bundled_files(capsys, example_dir):
    for name in ("example1", "example2", "example3", "reduced"):
        path = example_dir / f"{name}.json"
        code, out, _ = run_cli(capsys, "validate", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["valid"]
        jsonschema.validate(bundled_json(name), schema("instance.schema.json"))


def test_priced_grid_is_an_instance_file(capsys, tmp_path):
    grid = generate_priced_instance(3).instance.to_json()
    jsonschema.validate(grid, schema("instance.schema.json"))
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid))
    for command in ("validate", "enumerate"):
        code, _, err = run_cli(capsys, command, str(path))
        assert code == 0, (command, err)


def test_validate_rejects_bad_file(capsys, tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code, out, err = run_cli(capsys, "validate", str(bad))
    assert code == 2
    assert "input error" in err


def test_validate_reports_structured_issue_list(capsys, tmp_path):
    bad = tmp_path / "selfloop.json"
    bad.write_text(
        json.dumps(
            {
                "agents": ["a"],
                "contracts": [{"id": "c", "seller": "a", "buyer": "a"}],
                "choice_functions": [],
            }
        )
    )
    code, out, _ = run_cli(capsys, "validate", str(bad))
    assert code == 2
    payload = json.loads(out)
    assert payload["valid"] is False
    assert any("self-loop" in issue for issue in payload["issues"])


def test_solve_buyer_side(capsys, example_dir):
    code, out, _ = run_cli(capsys, "solve", str(example_dir / "example2.json"), "--side", "buyer")
    assert code == 0
    payload = json.loads(out)
    assert payload["outcome"] == ["y", "z"]
    jsonschema.validate(payload, schema("fixed_point.schema.json"))


def test_solve_deterministic_output(capsys, example_dir):
    _, first, _ = run_cli(capsys, "solve", str(example_dir / "example1.json"), "--trace")
    _, second, _ = run_cli(capsys, "solve", str(example_dir / "example1.json"), "--trace")
    assert first == second


def test_check_all_notions(capsys, example_dir):
    code, out, _ = run_cli(
        capsys,
        "check",
        str(example_dir / "example1.json"),
        "--outcome",
        '["w"]',
        "--notion",
        "all",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["trail"]["stable"]
    assert not payload["set"]["stable"]
    assert payload["set"]["witness"]["contracts"] == ["y", "z"]
    jsonschema.validate(payload, schema("stability_report.schema.json"))


def test_check_quiet_suppresses_witnesses(capsys, example_dir):
    code, out, _ = run_cli(
        capsys,
        "check",
        str(example_dir / "example1.json"),
        "--outcome",
        "[]",
        "--notion",
        "trail",
        "--quiet",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["trail"]["witness"] is None


def test_check_unknown_contract(capsys, example_dir):
    code, _, err = run_cli(
        capsys, "check", str(example_dir / "example1.json"), "--outcome", '["nope"]'
    )
    assert code == 2
    assert "unknown contracts" in err


def test_check_axioms_schema(capsys, example_dir):
    code, out, _ = run_cli(
        capsys, "check-axioms", str(example_dir / "example2.json"), "--agent", "j"
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, schema("axiom_reports.schema.json"))
    by_axiom = {r["axiom"]: r for r in payload}
    assert not by_axiom["separability"]["holds"]


def test_enumerate(capsys, example_dir):
    code, out, _ = run_cli(capsys, "enumerate", str(example_dir / "reduced.json"))
    assert code == 0
    payload = json.loads(out)
    assert [[], ["y", "z"]] == payload["outcomes"]
    for fp in payload["fixed_points"]:
        jsonschema.validate(fp, schema("fixed_point.schema.json"))


def test_equilibrium_command(capsys, priced_file, tmp_path):
    trace_out = tmp_path / "trace.json"
    code, out, _ = run_cli(
        capsys, "equilibrium", str(priced_file), "--trace", str(trace_out)
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["competitive_equilibrium"] is True
    assert payload["arrangement"]["prices"]["t1"] == 2
    jsonschema.validate(payload, schema("equilibrium_result.schema.json"))
    trace = json.loads(trace_out.read_text())
    assert trace["perspective"] == "buyer"
    assert trace["rounds"]
    jsonschema.validate(
        json.loads(priced_file.read_text()), schema("priced_instance.schema.json")
    )


def test_dynamics_command(capsys, example_dir, tmp_path):
    entry = {
        "agent": "f2",
        "side": "terminal_seller",
        "contracts": [{"id": "n1", "seller": "f2", "buyer": "j"}],
        "choice_functions": [
            {"agent": "f2", "type": "quota", "order": ["n1"], "quota": 1},
            {
                "agent": "j",
                "type": "preference_list",
                "ranking": [["z", "y"], ["w", "z"], ["y", "x"], ["n1", "z"]],
            },
        ],
    }
    entry_file = tmp_path / "entry.json"
    entry_file.write_text(json.dumps(entry))
    code, out, _ = run_cli(
        capsys,
        "dynamics",
        str(example_dir / "example2.json"),
        "--entry",
        str(entry_file),
        "--readjust-from",
        '["y", "z"]',
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["entry_statics"]["directions_hold"] is True
    assert "readjustment" in payload


def test_oracle_brute(capsys, example_dir):
    code, out, _ = run_cli(
        capsys,
        "oracle",
        "brute",
        str(example_dir / "example1.json"),
        "--notion",
        "trail",
    )
    assert code == 0
    assert json.loads(out)["stable_outcomes"] == [["w"]]


def test_oracle_brute_parallel_jobs(capsys, example_dir):
    code, out, _ = run_cli(
        capsys,
        "oracle",
        "brute",
        str(example_dir / "example3.json"),
        "--notion",
        "chain",
    )
    assert code == 0
    assert json.loads(out)["stable_outcomes"] == [[], ["w", "x", "y", "z"]]


def test_oracle_partition(capsys):
    code, out, _ = run_cli(capsys, "oracle", "partition", "--weights", "1,2,3")
    assert code == 0
    payload = json.loads(out)
    assert payload["partition_solvable"] is True
    assert payload["empty_outcome_blocked"] is True


def test_oracle_needle(capsys):
    code, out, _ = run_cli(capsys, "oracle", "needle", "--n", "2", "--hidden", "1,4")
    assert code == 0
    payload = json.loads(out)
    assert payload["empty_outcome_set_stable"] is False
    assert payload["witness"]["contracts"] == ["x1", "x4", "y"]
    assert payload["oracle_queries"]["f"] > 0


def test_oracle_needle_refuses_an_oversized_family_before_building_it(capsys):
    # 2n + 1 = 2,000,000,001 contracts: building them would exhaust memory
    started = time.perf_counter()
    code, out, _ = run_cli(capsys, "oracle", "needle", "--n", "1000000000")
    assert time.perf_counter() - started < 1.0
    assert code == 1
    assert json.loads(out)["error"] == {
        "kind": "GuardExceededError",
        "message": "set search guard is 20 candidate contracts, have 2000000001",
    }
    # a malformed hidden set is still an input error, checked first
    code, _, err = run_cli(capsys, "oracle", "needle", "--n", "1000000000", "--hidden", "1,2")
    assert code == 2
    assert err == "input error: needle: hidden index set must contain exactly n valid indices\n"


def test_oracle_partition_refuses_an_oversized_gadget_before_building_it(capsys, monkeypatch):
    # the gadget's k + 1 contracts are all fresh: building 100,001 of them
    # (and their per-agent masks) is what the set guard is there to prevent
    def refuse(k):
        raise AssertionError(f"built a {k}-contract gadget")

    monkeypatch.setattr(oracle, "_two_firm_network", refuse)
    code, out, _ = run_cli(capsys, "oracle", "partition", "--weights", ",".join(["1"] * 100000))
    assert code == 1
    assert json.loads(out)["error"] == {
        "kind": "GuardExceededError",
        "message": "set search guard is 20 candidate contracts, have 100001",
    }


def test_oracle_partition_refuses_a_weight_total_over_the_guard_before_solving(capsys):
    # a bitset of 8 * 10^9 bits ran out of memory before this guard
    code, out, _ = run_cli(capsys, "oracle", "partition", "--weights", ",".join(["1000000000"] * 8))
    assert code == 1
    assert json.loads(out)["error"] == {
        "kind": "GuardExceededError",
        "message": "partition solver guard is a weight total of 10000000, have 8000000000",
    }


def test_oracle_partition_checks_the_set_guard_before_solving(capsys, monkeypatch):
    def refuse(weights):
        raise AssertionError("solved the split of an oversized gadget")

    monkeypatch.setattr(oracle, "solve_partition", refuse)
    code, out, _ = run_cli(capsys, "oracle", "partition", "--weights", ",".join(["1"] * 21))
    assert code == 1
    message = json.loads(out)["error"]["message"]
    assert message == "set search guard is 20 candidate contracts, have 22"


def test_oracle_gen(capsys):
    code, out, _ = run_cli(capsys, "oracle", "gen", "--seed", "5", "--profile", "separable")
    assert code == 0
    payload = json.loads(out)
    assert "separability" in payload["certificates"]
    jsonschema.validate(payload["instance"], schema("instance.schema.json"))


def test_human_format(capsys, example_dir):
    code, out, _ = run_cli(capsys, "--human", "validate", str(example_dir / "example1.json"))
    assert code == 0
    assert "acyclic: False" in out


def test_domain_error_exit_code(capsys, tmp_path):
    # 13 parallel contracts exceed the enumeration guard: domain error, not input error
    contracts = [
        {"id": f"c{i:02d}", "seller": "a", "buyer": "b"} for i in range(13)
    ]
    payload = {
        "agents": ["a", "b"],
        "contracts": contracts,
        "choice_functions": [
            {"agent": "a", "type": "quota", "order": [], "quota": 1},
            {"agent": "b", "type": "quota", "order": [], "quota": 1},
        ],
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, "enumerate", str(path))
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "GuardExceededError"


def _malformed_files(tmp_path):
    ranking, quota = bundled_json("example1"), bundled_json("example1")
    ranking["choice_functions"][0] = {"agent": "i", "type": "preference_list", "ranking": 5}
    quota["choice_functions"][0] = {"agent": "i", "type": "quota", "order": ["x"], "quota": "z"}
    # well-typed but inconsistent choice descriptions
    family, extra = bundled_json("example1"), bundled_json("example1")
    family["choice_functions"][0]["type"] = ["q"]
    extra["choice_functions"][0]["bonus"] = 1
    priced = {
        "trades": [
            {"id": "t1", "seller": "a", "buyer": "b", "price_min": "x", "price_max": 6}
        ],
        "choice_functions": [
            {"agent": "a", "type": "reservation", "values": {}, "costs": {"t1": 2}},
            {"agent": "b", "type": "reservation", "values": {"t1": 5}, "costs": {}},
        ],
    }
    costs = json.loads(json.dumps(priced))
    costs["trades"][0]["price_min"] = 0
    costs["choice_functions"][0]["costs"] = {}
    priced_ok = json.loads(json.dumps(priced))
    priced_ok["trades"][0]["price_min"] = 0
    entry = {"agent": "f2", "side": "terminal_seller", "contracts": None, "choice_functions": []}
    entry_family = {
        "agent": "f2",
        "side": "terminal_seller",
        "contracts": [{"id": "n1", "seller": "f2", "buyer": "j"}],
        "choice_functions": [{"agent": "f2", "type": "mystery"}],
    }
    entry_ok = {
        "agent": "f2",
        "side": "terminal_seller",
        "contracts": [{"id": "n1", "seller": "f2", "buyer": "j"}],
        "choice_functions": [
            {"agent": "f2", "type": "quota", "order": ["n1"], "quota": 1},
            {
                "agent": "j",
                "type": "preference_list",
                "ranking": [["z", "y"], ["w", "z"], ["y", "x"], ["n1", "z"]],
            },
        ],
    }
    entry_side = dict(entry_ok, side="sideways")
    # an entry file that gives one agent two choice functions, in either order
    j_swapped = {
        "agent": "j",
        "type": "preference_list",
        "ranking": [["w", "z"], ["z", "y"], ["y", "x"], ["n1", "z"]],
    }
    entry_twice = dict(entry_ok, choice_functions=entry_ok["choice_functions"] + [j_swapped])
    entry_twice_swapped_first = dict(
        entry_ok, choice_functions=[j_swapped] + entry_ok["choice_functions"]
    )
    # a string where a list of ids belongs, or a quota that is not an int: with
    # one-letter ids the string would read as a list of them
    retyped = {}
    for name, desc in (
        ("ranking_chars", {"agent": "j", "type": "preference_list", "ranking": "xyw"}),
        ("entry_chars", {"agent": "j", "type": "preference_list", "ranking": [["x"], "zy"]}),
        ("order_chars", {"agent": "i", "type": "unit_demand", "order": "x"}),
        ("quota_float", {"agent": "i", "type": "quota", "order": ["x"], "quota": 1.5}),
        ("quota_bool", {"agent": "i", "type": "quota", "order": ["x"], "quota": True}),
        ("side_order_chars", {"agent": "j", "type": "separable_intensity",
                              "upstream_order": "yw", "downstream_order": ["x", "z"]}),
    ):
        retyped[name] = bundled_json("example1")
        slot = 0 if desc["agent"] == "i" else 1
        retyped[name]["choice_functions"][slot] = desc
    # numbers that are not JSON integers (or, for intensities, not numbers):
    # each is refused, never truncated or coerced
    weights = partition_to_gs((1, 2, 3)).instance.to_json()
    for cf in weights["choice_functions"]:
        cf["weights"] = [1.5, 2.5, 3]
    needle_n = needle_family(2).to_json()
    needle_n["choice_functions"][0]["n"] = 2.7
    needle_hidden = needle_family(2, hidden=(1, 2)).to_json()
    needle_hidden["choice_functions"][0]["hidden"] = [1.9, 2]
    price_text = json.loads(json.dumps(priced_ok))
    price_text["trades"][0]["price_min"] = "1"
    cost_float = json.loads(json.dumps(priced_ok))
    cost_float["choice_functions"][0]["costs"]["t1"] = 2.5
    value_bool = json.loads(json.dumps(priced_ok))
    value_bool["choice_functions"][1]["values"]["t1"] = True
    capacity_zero = json.loads(json.dumps(priced_ok))
    capacity_zero["choice_functions"][1]["capacity_buy"] = 0
    # a reservation function reads each contract id as trade@price
    grid_alias = {
        "agents": ["a", "b"],
        "contracts": [{"id": "t@1", "seller": "a", "buyer": "b"},
                      {"id": "t@01", "seller": "a", "buyer": "b"}],
        "choice_functions": [
            {"agent": "a", "type": "reservation", "costs": {"t": 0}},
            {"agent": "b", "type": "reservation", "values": {"t": 5}},
        ],
    }
    # a trade's id, seller and buyer are non-empty strings, and an ordinary
    # file's reservation function reads its contract ids as trade@price
    trade_fields = {}
    for name, field, value in (("seller_int", "seller", 7), ("id_int", "id", 7),
                               ("buyer_null", "buyer", None), ("id_empty", "id", "")):
        trade_fields[f"trade_{name}"] = json.loads(json.dumps(priced_ok))
        trade_fields[f"trade_{name}"]["trades"][0][field] = value
    for name, cid in (("grid_bare", "x"), ("grid_text", "t@x")):
        trade_fields[name] = dict(grid_alias, contracts=[{"id": cid, "seller": "a", "buyer": "b"}])
    intensity_bool = {
        "agents": ["a", "f", "b"],
        "contracts": [{"id": "u", "seller": "a", "buyer": "f"},
                      {"id": "d", "seller": "f", "buyer": "b"}],
        "choice_functions": [
            {"agent": "a", "type": "unit_demand", "order": ["u"]},
            {"agent": "f", "type": "simple_intensity", "intensity": {"u": True, "d": 0.5}},
            {"agent": "b", "type": "unit_demand", "order": ["d"]},
        ],
    }
    # Python's json reads NaN and Infinity; an agent with a NaN intensity would
    # never trade, since every comparison with NaN is false
    intensity_nan = json.loads(json.dumps(intensity_bool))
    intensity_nan["choice_functions"][1]["intensity"] = {"u": float("nan"), "d": 1.0}
    intensity_inf = json.loads(json.dumps(intensity_bool))
    intensity_inf["choice_functions"][1]["intensity"] = {"u": 1.0, "d": float("inf")}
    paths = {}
    for name, raw in (
        *retyped.items(),
        *trade_fields.items(),
        ("entry_twice", entry_twice),
        ("entry_twice_swapped_first", entry_twice_swapped_first),
        ("ranking", ranking),
        ("quota", quota),
        ("family", family),
        ("extra", extra),
        ("price_min", priced),
        ("costs", costs),
        ("entry", entry),
        ("entry_family", entry_family),
        ("entry_side", entry_side),
        ("priced_ok", priced_ok),
        ("entry_ok", entry_ok),
        ("example2", bundled_json("example2")),
        ("weights_float", weights),
        ("needle_n_float", needle_n),
        ("needle_hidden_float", needle_hidden),
        ("price_text", price_text),
        ("cost_float", cost_float),
        ("value_bool", value_bool),
        ("capacity_zero", capacity_zero),
        ("intensity_bool", intensity_bool),
        ("intensity_nan", intensity_nan),
        ("intensity_inf", intensity_inf),
        ("grid_alias", grid_alias),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(raw))
        paths[name] = str(path)
    return paths


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "partition", "--weights", "a,b"],
        ["oracle", "partition", "--weights", "0"],
        ["oracle", "needle", "--n", "0"],
        ["oracle", "needle", "--n", "2", "--hidden", "1,b"],
        ["validate", "{ranking}"],
        ["validate", "{quota}"],
        ["equilibrium", "{price_min}"],
        ["dynamics", "{example2}", "--entry", "{entry}"],
        ["oracle", "needle", "--n", "2", "--hidden", "1,2,3"],
        ["validate", "{family}"],
        ["validate", "{extra}"],
        ["equilibrium", "{costs}"],
        ["dynamics", "{example2}", "--entry", "{entry_family}"],
        ["dynamics", "{example2}", "--entry", "{entry_ok}", "--readjust-from", '["y","z","nope"]'],
        ["examples", "--out", "{example2}/sub"],
        ["equilibrium", "{priced_ok}", "--trace", "{example2}/t.json"],
        ["dynamics", "{example2}", "--entry", "{entry_ok}", "--readjust-from", "y"],
        ["check-axioms", "{example2}", "--agent", "zzz"],
        ["dynamics", "{example2}", "--entry", "{entry_twice}"],
        ["dynamics", "{example2}", "--entry", "{entry_twice_swapped_first}"],
        ["validate", "{ranking_chars}"],
        ["validate", "{entry_chars}"],
        ["validate", "{order_chars}"],
        ["validate", "{quota_float}"],
        ["validate", "{quota_bool}"],
        ["validate", "{side_order_chars}"],
        ["validate", "{weights_float}"],
        ["validate", "{needle_n_float}"],
        ["validate", "{needle_hidden_float}"],
        ["equilibrium", "{price_text}"],
        ["equilibrium", "{cost_float}"],
        ["equilibrium", "{value_bool}"],
        ["equilibrium", "{capacity_zero}"],
        ["validate", "{intensity_bool}"],
        ["validate", "{grid_alias}"],
        ["equilibrium", "{trade_seller_int}"],
        ["equilibrium", "{trade_id_int}"],
        ["equilibrium", "{trade_buyer_null}"],
        ["equilibrium", "{trade_id_empty}"],
        ["validate", "{grid_bare}"],
        ["validate", "{grid_text}"],
        ["oracle", "needle", "--n", "2", "--hidden", ""],
        ["dynamics", "{example2}", "--entry", "{entry_side}"],
        ["validate", "{intensity_nan}"],
        ["validate", "{intensity_inf}"],
    ],
)
def test_malformed_input_is_a_one_line_input_error(capsys, tmp_path, argv):
    paths = _malformed_files(tmp_path)
    code, out, err = run_cli(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("input error: ") and err.count("\n") == 1
    if argv[-2:] == ["--readjust-from", "y"]:
        # the message names the flag the command was given
        assert err.startswith("input error: --readjust-from must be a JSON list")
    if argv[-1] in NAMED_FIELD:
        assert err == f"input error: {NAMED_FIELD[argv[-1]]}\n"


# the message of a file whose one bad field is named, not left to Python's text
NAMED_FIELD = {
    "{trade_seller_int}": "trade 't1': seller must be a non-empty string",
    "{trade_id_int}": "trade 7: id must be a non-empty string",
    "{trade_buyer_null}": "trade 't1': buyer must be a non-empty string",
    "{trade_id_empty}": "trade '': id must be a non-empty string",
    "{grid_bare}": "choice function: a: contract ids must read trade@price",
    "{grid_text}": "choice function: a: contract ids must read trade@price",
    "{entry_side}": "entry file 'side' must be terminal_seller or terminal_buyer",
    "{intensity_nan}": "choice function: f: intensities must be finite numbers",
    "{intensity_inf}": "choice function: f: intensities must be finite numbers",
}


def _field_mutations(raw):
    """(label, copy of `raw`) with one field dropped, or its value retyped to
    null, a number or a list, at the top level, in each contract and in each
    choice function."""
    places = [()] + [(k, i) for k in ("contracts", "choice_functions") for i in range(len(raw[k]))]
    for place in places:
        for key in sorted(_at(raw, place)):
            for change in ("drop", None, 7, [7]):
                mutant = json.loads(json.dumps(raw))
                if change == "drop":
                    del _at(mutant, place)[key]
                else:
                    _at(mutant, place)[key] = change
                yield f"{place}/{key}: {change}", mutant


def _at(raw, place):
    for step in place:
        raw = raw[step]
    return raw


@pytest.mark.parametrize("name", BUNDLED)
def test_mutated_bundled_files_end_in_a_documented_exit(capsys, tmp_path, name):
    path = tmp_path / f"{name}.json"
    for label, mutant in _field_mutations(bundled_json(name)):
        path.write_text(json.dumps(mutant))
        for command in ("validate", "check-axioms"):
            try:
                code, out, err = run_cli(capsys, command, str(path))
            except Exception as exc:  # a crash is the failure this test looks for
                pytest.fail(f"{command} on {label}: {exc!r}")
            assert code in (0, 1, 2), (command, label)
            assert "Traceback" not in err, (command, label)
            if code == 2 and command == "validate" and err == "":
                # `validate` may answer with its structured issue list instead
                assert json.loads(out)["valid"] is False, (command, label)
            elif code == 2:
                assert err.startswith("input error: ") and err.count("\n") == 1, (command, label)


def test_enumerate_runs_one_enumeration(capsys, example_dir, monkeypatch):
    from tradenet import fixedpoint

    calls = []
    join = fixedpoint.join_states

    def counting(inst, rows):
        calls.append(inst)
        return join(inst, rows)

    monkeypatch.setattr(fixedpoint, "join_states", counting)
    code, out, _ = run_cli(capsys, "enumerate", str(example_dir / "example1.json"))
    assert code == 0
    assert json.loads(out)["outcomes"]
    assert len(calls) == 1


def test_closed_pipe_ends_quietly(tmp_path):
    """A reader that stops after the first line, as `tradenet ... | head -1`
    does, gets no traceback on stderr and the command's own exit code."""
    ids = [f"c{i:02d}" for i in range(12)]
    wide = {
        "agents": ["s", "b"],
        "contracts": [{"id": c, "seller": "s", "buyer": "b"} for c in ids],
        "choice_functions": [
            {"agent": a, "type": "quota", "order": ids, "quota": len(ids)} for a in ("s", "b")
        ],
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(wide))
    src = os.path.dirname(os.path.dirname(tradenet.__file__))
    path_entries = filter(None, (src, os.environ.get("PYTHONPATH")))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path_entries))
    # all 4096 outcomes are acceptable: far more output than a pipe buffers
    argv = ["oracle", "brute", str(path), "--notion", "acceptable"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "tradenet.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 0
    assert b"Traceback" not in err
    assert err == b""


def test_shared_parser_prints_what_a_fresh_one_prints(capsys, example_dir):
    """`main` builds its parser once per process. Interleaved calls (a
    success, an input error, an argparse error, a bare usage, a help, another
    success) each print what they print as the first call of a process."""
    from tradenet import cli

    example2 = str(example_dir / "example2.json")
    calls = [
        ["check-axioms", example2],
        ["check-axioms", example2, "--agent", "nobody"],
        ["check", example2, "--outcome", "[]", "--notion", "stable"],
        [],
        ["oracle", "--help"],
        ["--human", "enumerate", example2],
        ["check-axioms", example2],
    ]

    def run(argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = ("exit", exc.code)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    first = []
    for argv in calls:
        cli._parser.cache_clear()
        first.append(run(argv))
    assert [code for code, _, _ in first] == [0, 2, ("exit", 2), 2, ("exit", 0), 0, 0]
    assert "invalid choice: 'stable'" in first[2][2]
    for _ in range(2):
        assert [run(argv) for argv in calls] == first
