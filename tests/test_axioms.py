from __future__ import annotations

import itertools
import random
import time
from collections import Counter

import pytest

from tradenet.axioms import (
    _CHECKS,
    AxiomReport,
    _names,
    _Slices,
    check_agent,
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
    is_individually_rational,
    is_rational,
    is_rational_pair,
)
from tradenet.errors import GuardExceededError
from tradenet.instances import BUNDLED, bundled_instance, instance_from_json
from tradenet.network import mask_bits, sorted_ids, submasks, subsets
from tradenet.oracle import PROFILES, generate_instance


class ConstantEmptyChoice(ChoiceFunction):
    family = "constant_empty"

    def _select(self, menu):
        return 0


class TableChoice(ChoiceFunction):
    """Explicit menu table for building violators; unlisted menus choose
    nothing."""

    family = "table"

    def __init__(self, agent, upstream, downstream, table):
        super().__init__(agent, upstream, downstream)
        self.table = {self.mask(k): self.mask(v) for k, v in table}

    def _select(self, menu):
        return self.table.get(menu, 0)


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


def test_check_agent_cuts_one_set_of_slices(monkeypatch):
    cf = SeparableIntensityChoice("h", ["u0", "u1", "u2"], ["d0", "d1", "d2"])
    built = []
    init = _Slices.__init__

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(_Slices, "__init__", counting_init)
    reports = check_agent(cf)
    assert [r.axiom for r in reports] == list(_CHECKS)
    assert len(built) == 1
    assert _Slices.of(cf) is _Slices.of(cf) is built[0]


# ---------------------------------------------------------------------------
# the validators against the literal definitions
#
# The functions below are the frozenset loops the validators replaced: each
# replays its axiom's quantifier through the choice function, menu by menu,
# in `subsets` order.  The mask validators must give the same report (same
# verdict, same first witness, same notes) on every choice function.
# ---------------------------------------------------------------------------


def literal_irc(cf: ChoiceFunction) -> AxiomReport:
    """Removing rejected contracts from the offer must not change the choice.

    Any menu between the choice and the offer is reached by dropping rejected
    contracts one at a time, and each drop that preserves the choice keeps
    the remaining contracts rejected, so checking single removals on every
    menu is exactly equivalent to checking every intermediate menu."""
    for menu in subsets(cf.domain):
        chosen = cf.choose(menu)
        for dropped in sorted(menu - chosen):
            trimmed = menu - {dropped}
            if cf.choose(trimmed) != chosen:
                return AxiomReport(
                    "irc",
                    cf.agent,
                    False,
                    witness={
                        "offer": sorted_ids(menu),
                        "trimmed_offer": sorted_ids(trimmed),
                        "choice_from_offer": sorted_ids(chosen),
                        "choice_from_trimmed": sorted_ids(cf.choose(trimmed)),
                    },
                )
    return AxiomReport("irc", cf.agent, True)


def literal_full_substitutability(cf: ChoiceFunction) -> AxiomReport:
    """Same-side offers act as substitutes, cross-side offers as complements.

    Four containments over nested menus: growing one side never un-rejects a
    contract on that side, and shrinking one side never un-rejects a contract
    on the other side.  Nested pairs decompose into chains of single-contract
    insertions and the containments compose along a chain, so checking every
    one-contract step is exactly equivalent to checking every nested pair.
    """

    def violation(condition, small_rej, big_rej, sets):
        extra = small_rej - big_rej
        return AxiomReport(
            "full_substitutability",
            cf.agent,
            False,
            witness={
                "condition": condition,
                "contract": min(extra),
                **{k: sorted_ids(v) for k, v in sets.items()},
            },
        )

    for down in subsets(cf.downstream):
        for up in subsets(cf.upstream):
            rej = cf.rejected_upstream(up, down)
            for extra_up in sorted(cf.upstream - up):
                grown = up | {extra_up}
                if not rej <= cf.rejected_upstream(grown, down):
                    return violation(
                        "same_side_upstream",
                        rej,
                        cf.rejected_upstream(grown, down),
                        {"up": grown, "up_smaller": up, "down": down},
                    )
            for extra_down in sorted(cf.downstream - down):
                grown = down | {extra_down}
                if not cf.rejected_upstream(up, grown) <= rej:
                    return violation(
                        "cross_side_upstream",
                        cf.rejected_upstream(up, grown),
                        rej,
                        {"up": up, "down": grown, "down_smaller": down},
                    )
            rej = cf.rejected_downstream(down, up)
            for extra_down in sorted(cf.downstream - down):
                grown = down | {extra_down}
                if not rej <= cf.rejected_downstream(grown, up):
                    return violation(
                        "same_side_downstream",
                        rej,
                        cf.rejected_downstream(grown, up),
                        {"down": grown, "down_smaller": down, "up": up},
                    )
            for extra_up in sorted(cf.upstream - up):
                grown = up | {extra_up}
                if not cf.rejected_downstream(down, grown) <= rej:
                    return violation(
                        "cross_side_downstream",
                        cf.rejected_downstream(down, grown),
                        rej,
                        {"down": down, "up": grown, "up_smaller": up},
                    )
    return AxiomReport("full_substitutability", cf.agent, True)


def literal_lad_las(cf: ChoiceFunction) -> AxiomReport:
    """Aggregate demand/supply laws: growing one side's offers cannot widen
    the count gap in the other side's favor.  The count differences telescope
    along chains of single-contract insertions, so per-step checking is
    exactly equivalent to checking every nested pair."""
    for down in subsets(cf.downstream):
        for up in subsets(cf.upstream):
            nb = len(cf.chosen_upstream(up, down))
            ns = len(cf.chosen_downstream(down, up))
            for extra_up in sorted(cf.upstream - up):
                grown = up | {extra_up}
                nb_big = len(cf.chosen_upstream(grown, down))
                ns_big = len(cf.chosen_downstream(down, grown))
                if nb_big - nb < ns_big - ns:
                    return AxiomReport(
                        "lad_las",
                        cf.agent,
                        False,
                        witness={
                            "law": "aggregate_demand",
                            "up": sorted_ids(grown),
                            "up_smaller": sorted_ids(up),
                            "down": sorted_ids(down),
                            "chosen_counts": [nb_big, nb, ns_big, ns],
                        },
                    )
            for extra_down in sorted(cf.downstream - down):
                grown = down | {extra_down}
                ns_big = len(cf.chosen_downstream(grown, up))
                nb_big = len(cf.chosen_upstream(up, grown))
                if ns_big - ns < nb_big - nb:
                    return AxiomReport(
                        "lad_las",
                        cf.agent,
                        False,
                        witness={
                            "law": "aggregate_supply",
                            "down": sorted_ids(grown),
                            "down_smaller": sorted_ids(down),
                            "up": sorted_ids(up),
                            "chosen_counts": [ns_big, ns, nb_big, nb],
                        },
                    )
    return AxiomReport("lad_las", cf.agent, True)


def literal_separability(cf: ChoiceFunction) -> AxiomReport:
    """Joint upstream/downstream pairs can be signed independently of other
    kept contracts: a kept set plus a kept-only-together pair stays kept."""
    for given in subsets(cf.domain):
        for kept in subsets(cf.domain):
            if not is_rational(cf, kept, given):
                continue
            for up in sorted(cf.upstream - kept):
                for down in sorted(cf.downstream - kept):
                    if not is_rational_pair(cf, up, down, given):
                        continue
                    if not is_rational(cf, kept | {up, down}, given):
                        return AxiomReport(
                            "separability",
                            cf.agent,
                            False,
                            witness={
                                "given": sorted_ids(given),
                                "kept": sorted_ids(kept),
                                "pair": [up, down],
                                "union_choice": sorted_ids(
                                    cf.choose(given | kept | {up, down})
                                ),
                            },
                        )
    return AxiomReport("separability", cf.agent, True)


def literal_simplicity(cf: ChoiceFunction, intensity: dict[str, float]) -> AxiomReport:
    """Every kept upstream contract must out-rank some kept downstream one
    under the supplied intensity map.

    Kept sets are quantified over the individually rational sets of the
    agent (any conditioning set would do, since the empty one already makes
    a set kept exactly when it is individually rational).  A kept set with
    upstream contracts but no downstream ones fails the quantifier by
    emptiness; that situation is flagged in the notes because it is what any
    accepting one-sided agent produces.
    """
    missing = cf.domain - set(intensity)
    if missing:
        return AxiomReport(
            "simplicity",
            cf.agent,
            False,
            witness={"missing_intensity": sorted_ids(missing)},
        )
    for kept in subsets(cf.domain):
        if not is_individually_rational(cf, kept):
            continue
        ups = kept & cf.upstream
        downs = kept & cf.downstream
        for up in sorted(ups):
            if not any(intensity[up] > intensity[d] for d in downs):
                notes = ()
                if not downs:
                    notes = (
                        "kept set has upstream contracts but no downstream ones; "
                        "the requirement fails by emptiness",
                    )
                return AxiomReport(
                    "simplicity",
                    cf.agent,
                    False,
                    witness={
                        "kept": sorted_ids(kept),
                        "upstream_contract": up,
                        "downstream_intensities": {
                            d: intensity[d] for d in sorted(downs)
                        },
                    },
                    notes=notes,
                )
    return AxiomReport("simplicity", cf.agent, True)


def _pair_merge_weight(cf, big, small) -> int:
    """Weight of the directed difference of two (upstream, downstream) pairs:
    kept-upstream growth minus the complement of the downstream growth."""
    up_diff = big[0] - small[0]
    down_growth = small[1] - big[1]
    return len(up_diff) - (len(cf.downstream) - len(down_growth))


def literal_w_contraction(cf: ChoiceFunction) -> AxiomReport:
    """The rejection map must not expand the signed weight of nested menu
    differences (+1 per upstream contract, -1 per downstream contract)."""
    for up_small in subsets(cf.upstream):
        for up in subsets(cf.upstream):
            if not up_small <= up:
                continue
            for down in subsets(cf.downstream):
                for down_big in subsets(cf.downstream):
                    if not down <= down_big:
                        continue
                    rej = (
                        cf.rejected_upstream(up, down),
                        cf.rejected_downstream(down, up),
                    )
                    rej_small = (
                        cf.rejected_upstream(up_small, down_big),
                        cf.rejected_downstream(down_big, up_small),
                    )
                    lhs = _pair_merge_weight(cf, rej, rej_small)
                    rhs = _pair_merge_weight(cf, (up, down), (up_small, down_big))
                    if lhs > rhs:
                        return AxiomReport(
                            "w_contraction",
                            cf.agent,
                            False,
                            witness={
                                "up": sorted_ids(up),
                                "up_smaller": sorted_ids(up_small),
                                "down": sorted_ids(down),
                                "down_bigger": sorted_ids(down_big),
                                "weights": [lhs, rhs],
                            },
                        )
    return AxiomReport("w_contraction", cf.agent, True)


LITERAL = {
    "irc": literal_irc,
    "full_substitutability": literal_full_substitutability,
    "lad_las": literal_lad_las,
    "separability": literal_separability,
    "w_contraction": literal_w_contraction,
}


def _hub(rng, n_up, n_down, quota_buyer):
    """A separable-intensity hub buying `n_up` contracts from a quota seller
    and selling `n_down` to a quota or preference-list buyer."""
    ups = [f"u{i}" for i in range(n_up)]
    downs = [f"d{i}" for i in range(n_down)]
    if quota_buyer:
        buyer = {"agent": "b", "type": "quota", "order": rng.sample(downs, n_down),
                 "quota": rng.randint(1, n_down)}
    else:
        sets = [list(c) for r in (1, 2) for c in itertools.combinations(downs, r)]
        buyer = {"agent": "b", "type": "preference_list",
                 "ranking": rng.sample(sets, min(4, len(sets)))}
    return instance_from_json({
        "agents": ["s", "h", "b"],
        "contracts": [{"id": c, "seller": "s", "buyer": "h"} for c in ups]
        + [{"id": c, "seller": "h", "buyer": "b"} for c in downs],
        "choice_functions": [
            {"agent": "h", "type": "separable_intensity", "upstream_order": rng.sample(ups, n_up),
             "downstream_order": rng.sample(downs, n_down)},
            {"agent": "s", "type": "quota", "order": rng.sample(ups, n_up),
             "quota": rng.randint(1, n_up)},
            buyer,
        ],
    })


def _random_table(rng, n):
    """A choice function picking an arbitrary subset of each menu."""
    ids = [f"c{i}" for i in range(n)]
    up = set(rng.sample(ids, rng.randint(0, n)))
    table = [(m, [c for c in sorted(m) if rng.random() < 0.5]) for m in subsets(ids)]
    return TableChoice("f", up, set(ids) - up, table)


def _near_miss_table(rng, n):
    """A matched-orders or quota table (both pass IRC, substitutability,
    LAD/LAS and w-contraction) with one menu's choice redrawn at random, so
    that a violation, when there is one, sits on a few steps of one menu."""
    ids = [f"c{i}" for i in range(n)]
    cut = rng.randint(0, n)
    ups, downs = ids[:cut], ids[cut:]
    if ups and downs:
        base = SeparableIntensityChoice("f", rng.sample(ups, cut), rng.sample(downs, n - cut))
    else:
        base = QuotaChoice("f", ups, downs, rng.sample(ids, n), rng.randint(1, n))
    table = [(m, base.choose(m)) for m in subsets(ids)]
    i = rng.randrange(len(table))
    table[i] = (table[i][0], [c for c in sorted(table[i][0]) if rng.random() < 0.5])
    return TableChoice("f", set(ups), set(downs), table)


def _comparison_corpus(unrestricted_instance):
    """(choice function, intensity map or None) pairs."""
    for name in BUNDLED:
        inst = bundled_instance(name)
        yield from ((inst.choice[a], None) for a in sorted(inst.network.agents))
    rng = random.Random(5)
    for size in range(2, 10):
        for n_up in range(1, size):
            inst = _hub(rng, n_up, size - n_up, quota_buyer=n_up % 2 == 0)
            yield from ((inst.choice[a], None) for a in "hsb")
    for profile in PROFILES:
        for seed in range(20):
            gen = generate_instance(seed, profile)
            for a in sorted(gen.instance.network.agents):
                yield gen.instance.choice[a], (gen.intensities or {}).get(a)
    for seed in range(200):
        inst = unrestricted_instance(seed)
        yield from ((inst.choice[a], None) for a in sorted(inst.network.agents))
    for n in range(1, 7):
        for _ in range(12):
            yield _random_table(rng, n), None
        for _ in range(16):
            yield _near_miss_table(rng, n), None
    # hand-built violators: IRC, substitutability, LAD/LAS and separability
    yield TableChoice("f", {"a", "b"}, set(), [(("a",), ("a",))]), None
    irc_table = [(("a", "b", "c"), ("a", "b")), (("a", "b"), ("a",))]
    yield TableChoice("f", {"a"}, {"b", "c"}, irc_table), None
    yield PreferenceListChoice("f", {"a", "b"}, set(), [("a", "b")]), None
    yield PreferenceListChoice("f", {"a"}, {"b", "c"}, [("a", "b", "c")]), None
    yield SeparableIntensityChoice("f", ["u0", "u1", "u2"], ["d0", "d1", "d2"]), None
    yield QuotaChoice("b", {"u1"}, set(), ["u1"], quota=1), None


def _step_fails(cf):
    """The slice tests' verdicts: whether some one-contract step violates."""
    slices = _Slices.of(cf)
    return {
        "irc": slices.irc_step_fails(),
        "full_substitutability": slices.substitutes_step_fails(),
        "lad_las": slices.lad_las_step_fails(),
        "separability": next(slices.inseparable(cf.menu_table()), None) is not None,
        "w_contraction": slices.w_contraction_step_expands(),
    }


def test_validators_match_literal_definitions(unrestricted_instance):
    rng = random.Random(11)
    failing = set()
    table_verdicts = Counter()
    for cf, intensity in _comparison_corpus(unrestricted_instance):
        where = (cf.family, sorted(cf.upstream), sorted(cf.downstream))
        step_fails = _step_fails(cf)
        for name, check in _CHECKS.items():
            report = check(cf).to_json()
            assert report == LITERAL[name](cf).to_json(), (name, where)
            if not report["holds"]:
                failing.add(name)
            if name in step_fails:
                # a slice test that cries wolf would only cost a walk, so pin it
                assert step_fails[name] == (not report["holds"]), (name, where)
                if cf.family == "table":
                    table_verdicts[name, report["holds"]] += 1
        if intensity is None:
            # ties included: a tie out-ranks nothing
            intensity = {c: rng.choice((1.0, 2.0, 3.0)) for c in sorted(cf.domain)}
        report = check_simplicity(cf, intensity).to_json()
        assert report == literal_simplicity(cf, intensity).to_json(), ("simplicity", where)
        if not report["holds"]:
            failing.add("simplicity")
    assert failing == set(_CHECKS) | {"simplicity"}
    # the random tables make each slice test both pass and fail many times
    counts = [table_verdicts[name, holds] for name in WALK for holds in (True, False)]
    assert min(counts) >= 30, table_verdicts


# ---------------------------------------------------------------------------
# the slice tests against the menu walks they front
#
# The walks below are the validators as they were before the slice tests:
# each walks every menu of the agent's table and every one-contract step.
# On agents of 13-16 contracts the validators must give the same report.
# ---------------------------------------------------------------------------


def walk_irc(cf: ChoiceFunction) -> AxiomReport:
    table = cf.menu_table()
    for menu in submasks(cf.up_mask | cf.down_mask):
        chosen = table[menu]
        for dropped in mask_bits(menu & ~chosen):
            trimmed = menu ^ dropped
            if table[trimmed] != chosen:
                return AxiomReport("irc", cf.agent, False, {
                    "offer": _names(cf, menu),
                    "trimmed_offer": _names(cf, trimmed),
                    "choice_from_offer": _names(cf, chosen),
                    "choice_from_trimmed": _names(cf, table[trimmed]),
                })
    return AxiomReport("irc", cf.agent, True)


def walk_full_substitutability(cf: ChoiceFunction) -> AxiomReport:
    table = cf.menu_table()
    U, D = cf.up_mask, cf.down_mask
    conditions = (("same_side_upstream", U, U), ("cross_side_upstream", D, U),
                  ("same_side_downstream", D, D), ("cross_side_downstream", U, D))
    for down in submasks(D):
        for up in submasks(U):
            menu = up | down
            rej = menu & ~table[menu]
            for condition, grown, side in conditions:
                for extra in mask_bits(grown & ~menu):
                    rej_big = (menu | extra) & ~table[menu | extra]
                    bad = (rej & ~rej_big if grown == side else rej_big & ~rej) & side
                    if bad:
                        key, other = ("up", "down") if grown == U else ("down", "up")
                        return AxiomReport("full_substitutability", cf.agent, False, {
                            "condition": condition,
                            "contract": _names(cf, bad & -bad)[0],
                            key: _names(cf, (menu | extra) & grown),
                            f"{key}_smaller": _names(cf, menu & grown),
                            other: _names(cf, menu & ~grown),
                        })
    return AxiomReport("full_substitutability", cf.agent, True)


def walk_lad_las(cf: ChoiceFunction) -> AxiomReport:
    table = cf.menu_table()
    U, D = cf.up_mask, cf.down_mask
    laws = (("aggregate_demand", U, D, "up", "down"), ("aggregate_supply", D, U, "down", "up"))
    for down in submasks(D):
        for up in submasks(U):
            menu = up | down
            chosen = table[menu]
            for law, side, other, key, other_key in laws:
                n, n_other = (chosen & side).bit_count(), (chosen & other).bit_count()
                for extra in mask_bits(side & ~menu):
                    big = table[menu | extra]
                    n_big, n_other_big = (big & side).bit_count(), (big & other).bit_count()
                    if n_big - n < n_other_big - n_other:
                        return AxiomReport("lad_las", cf.agent, False, {
                            "law": law,
                            key: _names(cf, (menu | extra) & side),
                            f"{key}_smaller": _names(cf, menu & side),
                            other_key: _names(cf, menu & other),
                            "chosen_counts": [n_big, n, n_other_big, n_other],
                        })
    return AxiomReport("lad_las", cf.agent, True)


def walk_w_contraction(cf: ChoiceFunction) -> AxiomReport:
    U, D = cf.up_mask, cf.down_mask
    rej = [m & ~c for m, c in enumerate(cf.menu_table())]

    def distance(big, small):
        return ((rej[big] & ~rej[small] & U) | (rej[small] & ~rej[big] & D)).bit_count()

    def some_step_expands():
        for c in mask_bits(U | D):
            for m in range(len(rej)):
                if not m & c and (distance(m | c, m) if c & U else distance(m, m | c)) > 1:
                    return True
        return False

    if not some_step_expands():
        return AxiomReport("w_contraction", cf.agent, True)
    ups, downs = list(submasks(U)), list(submasks(D))
    up_supersets = {s: [s | x for x in submasks(U & ~s)] for s in ups}
    down_supersets = {s: [s | x for x in submasks(D & ~s)] for s in downs}
    for up_small in ups:
        for up in up_supersets[up_small]:
            for down in downs:
                for down_big in down_supersets[down]:
                    big, small = up | down, up_small | down_big
                    lhs, rhs = distance(big, small), (big ^ small).bit_count()
                    if lhs > rhs:
                        return AxiomReport("w_contraction", cf.agent, False, {
                            "up": _names(cf, up),
                            "up_smaller": _names(cf, up_small),
                            "down": _names(cf, down),
                            "down_bigger": _names(cf, down_big),
                            "weights": [lhs - D.bit_count(), rhs - D.bit_count()],
                        })
    return AxiomReport("w_contraction", cf.agent, True)


def walk_separability(cf: ChoiceFunction) -> AxiomReport:
    table = cf.menu_table()
    full = cf.up_mask | cf.down_mask
    menus = list(submasks(full))

    def keeps(kept, given):
        return not kept & ~table[kept | given]

    for given in menus:
        alone = sum(b for b in mask_bits(full) if keeps(b, given))
        pairs = [(up, down) for up in mask_bits(cf.up_mask & ~alone)
                 for down in mask_bits(cf.down_mask & ~alone) if keeps(up | down, given)]
        if not pairs:
            continue
        for kept in menus:
            if not keeps(kept, given):
                continue
            for up, down in pairs:
                union = kept | up | down
                if not (up | down) & kept and not keeps(union, given):
                    return AxiomReport("separability", cf.agent, False, {
                        "given": _names(cf, given),
                        "kept": _names(cf, kept),
                        "pair": _names(cf, up) + _names(cf, down),
                        "union_choice": _names(cf, table[given | union]),
                    })
    return AxiomReport("separability", cf.agent, True)


WALK = {
    "irc": walk_irc,
    "full_substitutability": walk_full_substitutability,
    "lad_las": walk_lad_las,
    "separability": walk_separability,
    "w_contraction": walk_w_contraction,
}


def _large_agents():
    """Agents of 13-16 contracts: a matched-orders hub, a quota seller, a
    random preference list, a near-miss table and two generated agents."""
    rng = random.Random(16)
    ups, downs = [f"u{i:02d}" for i in range(8)], [f"d{i:02d}" for i in range(8)]
    yield SeparableIntensityChoice("h", rng.sample(ups, 8), rng.sample(downs, 8))
    yield QuotaChoice("s", [], ups + downs, rng.sample(ups + downs, 16), quota=5)
    ids = [f"c{i:02d}" for i in range(13)]
    ranking = {frozenset(rng.sample(ids, rng.randint(1, 4))) for _ in range(60)}
    yield PreferenceListChoice("p", ids[:6], ids[6:], sorted(ranking, key=sorted))
    near = TableChoice("n", ups[:7], downs, [])
    near.table = dict(enumerate(SeparableIntensityChoice("n", ups[:7], downs).menu_table()))
    menu = rng.randrange(1 << 15)
    near.table[menu] &= rng.randrange(1 << 15)
    yield near
    gen = generate_instance(5, "simple", max_agents=8, max_contracts=16).instance
    for agent in ("a1", "a2"):
        yield gen.choice[agent]


def test_slice_tests_match_the_walks_on_13_to_16_contracts():
    budget_s = 3.0
    spent = 0.0
    verdicts = Counter()
    for cf in _large_agents():
        assert 13 <= len(cf.domain) <= 16, cf.agent
        cf.menu_table()
        step_fails = _step_fails(cf)
        for name, walk in WALK.items():
            start = time.perf_counter()
            report = _CHECKS[name](cf)
            spent += time.perf_counter() - start
            assert report == walk(cf), (name, cf.agent)
            assert step_fails[name] == (not report.holds), (name, cf.agent)
            verdicts[name, report.holds] += 1
    assert min(verdicts[name, holds] for name in WALK for holds in (True, False)) >= 1, verdicts
    print(f"validators on 13-16 contracts: {spent:.2f}s, verdicts {dict(verdicts)}")
    assert spent <= budget_s, f"validators on 13-16 contracts took {spent:.2f}s, budget {budget_s}s"
