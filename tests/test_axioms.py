from __future__ import annotations

import pytest

from tradenet.axioms import (
    AxiomReport,
    check_full_substitutability,
    check_instance,
    check_irc,
    check_lad_las,
    check_separability,
    check_simplicity,
    check_w_contraction,
)
from tradenet.choices import (
    ChoiceFunction,
    PreferenceListChoice,
    QuotaChoice,
    SeparableIntensityChoice,
    SimpleIntensityChoice,
    is_rational,
    is_rational_pair,
)
from tradenet.errors import GuardExceededError
from tradenet.oracle import generate_instance


class ConstantEmptyChoice(ChoiceFunction):
    family = "constant_empty"

    def _select(self, menu):
        return frozenset()


class TableChoice(ChoiceFunction):
    """Explicit menu table for building violators; unlisted menus map to
    their intersection with the listed default."""

    family = "table"

    def __init__(self, agent, upstream, downstream, table):
        super().__init__(agent, upstream, downstream)
        self.table = {frozenset(k): frozenset(v) for k, v in table}

    def _select(self, menu):
        return self.table.get(menu, frozenset())


def test_irc_holds_on_strict_preference_lists(example1):
    for agent in example1.network.agents:
        assert check_irc(example1.choice[agent]).holds


def test_irc_constant_empty():
    cf = ConstantEmptyChoice("f", {"a"}, {"b"})
    assert check_irc(cf).holds


def test_irc_violator_with_witness():
    # keeps a alone, but nothing out of {a, b}
    cf = TableChoice("f", {"a", "b"}, set(), [(("a",), ("a",))])
    report = check_irc(cf)
    assert not report.holds
    w = report.witness
    assert set(w["offer"]) == {"a", "b"}
    assert w["trimmed_offer"] == ["a"]
    # replay: the trimmed offer keeps the full offer's choice ⊆ trimmed ⊆ offer
    assert cf.choose(w["offer"]) <= frozenset(w["trimmed_offer"]) <= frozenset(w["offer"])
    assert cf.choose(w["trimmed_offer"]) != cf.choose(w["offer"])


def test_full_substitutability_examples(example1):
    for agent in example1.network.agents:
        assert check_full_substitutability(example1.choice[agent]).holds


def test_full_substitutability_take_everything():
    class TakeAll(ChoiceFunction):
        family = "take_all"

        def _select(self, menu):
            return menu

    cf = TakeAll("f", {"a", "b"}, {"c"})
    assert check_full_substitutability(cf).holds
    assert check_lad_las(cf).holds


def test_same_side_substitutability_violator():
    # wants the upstream pair together, rejects singles
    cf = PreferenceListChoice("f", {"a", "b"}, set(), [("a", "b")])
    report = check_full_substitutability(cf)
    assert not report.holds
    w = report.witness
    assert w["condition"] == "same_side_upstream"
    # replay through the rejection maps
    small = frozenset(w["up_smaller"])
    big = frozenset(w["up"])
    down = frozenset(w["down"])
    assert not cf.rejected_upstream(small, down) <= cf.rejected_upstream(big, down)
    assert w["contract"] in cf.rejected_upstream(small, down)


def test_lad_las_families():
    sep = SeparableIntensityChoice("f", ["u1", "u2"], ["d1", "d2"])
    assert check_lad_las(sep).holds
    unit = QuotaChoice("b", {"u1", "u2"}, set(), ["u1", "u2"], quota=1)
    assert check_lad_las(unit).holds


def test_lad_violator_witnessed():
    # sells two outputs only when the single input arrives: supply jumps by
    # two while demand grows by one
    cf = PreferenceListChoice("f", {"a"}, {"b", "c"}, [("a", "b", "c")])
    report = check_lad_las(cf)
    assert not report.holds
    assert report.witness["law"] in ("aggregate_demand", "aggregate_supply")


def test_lad_las_plus_fs_imply_irc():
    # checked implication: any generated instance passing both also passes IRC
    for seed in range(12):
        inst = generate_instance(seed, "ladlas").instance
        for agent in inst.network.agents:
            cf = inst.choice[agent]
            assert check_full_substitutability(cf).holds
            assert check_lad_las(cf).holds
            assert check_irc(cf).holds


def test_separability_of_matched_orders():
    cf = SeparableIntensityChoice("f", ["u1", "u2"], ["d1", "d2"])
    assert check_separability(cf).holds


def test_separability_fails_for_entangled_preferences(example2):
    report = check_separability(example2.choice["j"])
    assert not report.holds
    w = report.witness
    # replay: kept set and pair are separately kept, union is not
    j = example2.choice["j"]
    given = frozenset(w["given"])
    kept = frozenset(w["kept"])
    up, down = w["pair"]
    assert is_rational(j, kept, given)
    assert is_rational_pair(j, up, down, given)
    assert not is_rational(j, kept | {up, down}, given)


def test_matched_orders_not_separable_with_three_per_side():
    cf = SeparableIntensityChoice("f", ["u0", "u1", "u2"], ["d0", "d1", "d2"])
    report = check_separability(cf)
    assert not report.holds
    assert (report.witness["given"], report.witness["kept"], report.witness["pair"]) == (
        ["d0", "u1"],
        ["u0"],
        ["u2", "d1"],
    )
    given = {"d0", "u1"}
    assert is_rational(cf, {"u0"}, given)
    assert is_rational_pair(cf, "u2", "d1", given)
    assert not is_rational(cf, {"u0", "u2", "d1"}, given)


def test_separability_vacuous_with_one_contract():
    cf = QuotaChoice("b", {"u1"}, set(), ["u1"], quota=1)
    assert check_separability(cf).holds


def test_simplicity_of_intensity_choice():
    intensity = {"u1": 4.0, "u2": 9.0, "d1": 2.0, "d2": 6.0}
    cf = SimpleIntensityChoice("f", {"u1", "u2"}, {"d1", "d2"}, intensity)
    assert check_simplicity(cf, intensity).holds


def test_simplicity_fails_for_accepting_terminal_buyer():
    cf = QuotaChoice("b", {"u1"}, set(), ["u1"], quota=1)
    report = check_simplicity(cf, {"u1": 1.0})
    assert not report.holds
    assert report.notes  # the empty-downstream case is flagged
    assert "emptiness" in report.notes[0]


def test_simplicity_vacuous_for_all_rejecting():
    cf = ConstantEmptyChoice("f", {"a"}, {"b"})
    assert check_simplicity(cf, {"a": 1.0, "b": 0.0}).holds


def test_w_contraction_follows_from_fs_and_ladlas():
    for seed in range(8):
        inst = generate_instance(seed, "ladlas").instance
        for cf in inst.choice.values():
            assert check_w_contraction(cf).holds


def test_w_contraction_violated_by_lad_violator():
    cf = PreferenceListChoice("f", {"a"}, {"b", "c"}, [("a", "b", "c")])
    report = check_w_contraction(cf)
    assert not report.holds
    # replay the weight inequality from the witness
    w = report.witness
    up, up_small = frozenset(w["up"]), frozenset(w["up_smaller"])
    down, down_big = frozenset(w["down"]), frozenset(w["down_bigger"])

    def merge_weight(big, small):
        return len(big[0] - small[0]) - (len(cf.downstream) - len(small[1] - big[1]))

    rej = (cf.rejected_upstream(up, down), cf.rejected_downstream(down, up))
    rej_small = (
        cf.rejected_upstream(up_small, down_big),
        cf.rejected_downstream(down_big, up_small),
    )
    assert merge_weight(rej, rej_small) > merge_weight((up, down), (up_small, down_big))


def test_w_contraction_reflexive_pairs_trivial():
    cf = SeparableIntensityChoice("f", ["u1"], ["d1"])
    assert check_w_contraction(cf).holds


def test_size_guard():
    cf = ConstantEmptyChoice("f", {f"u{i}" for i in range(17)}, set())
    with pytest.raises(GuardExceededError):
        check_irc(cf)


def test_verdicts_invariant_under_contract_relabeling(example2):
    from tradenet.instances import instance_from_json

    raw = example2.to_json()
    rename = {"x": "p", "y": "q", "z": "r", "w": "s"}
    for c in raw["contracts"]:
        c["id"] = rename[c["id"]]
    for desc in raw["choice_functions"]:
        desc["ranking"] = [[rename[c] for c in entry] for entry in desc["ranking"]]
    relabeled = instance_from_json(raw)
    for agent in example2.network.agents:
        before = [
            (r.axiom, r.holds)
            for r in (
                check_irc(example2.choice[agent]),
                check_full_substitutability(example2.choice[agent]),
                check_separability(example2.choice[agent]),
            )
        ]
        after = [
            (r.axiom, r.holds)
            for r in (
                check_irc(relabeled.choice[agent]),
                check_full_substitutability(relabeled.choice[agent]),
                check_separability(relabeled.choice[agent]),
            )
        ]
        assert before == after


def test_strict_ranking_lists_always_satisfy_irc(example2, example3):
    # the best ranked set inside a menu survives any pruning of rejected
    # contracts, so ranking families are consistent by construction
    for inst in (example2, example3):
        for cf in inst.choice.values():
            assert check_irc(cf).holds
    for seed in range(10):
        inst = generate_instance(seed, "fsirc").instance
        for cf in inst.choice.values():
            if cf.family == "preference_list":
                assert check_irc(cf).holds


def test_check_instance_report_shape(example1):
    reports = check_instance(example1, ("irc", "full_substitutability"))
    assert len(reports) == 8
    assert all(isinstance(r, AxiomReport) and r.holds for r in reports)
    payload = reports[0].to_json()
    assert set(payload) == {"axiom", "agent", "holds", "witness", "notes"}
