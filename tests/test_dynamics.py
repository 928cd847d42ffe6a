from __future__ import annotations

import pytest

from tradenet.choices import PreferenceListChoice, QuotaChoice
from tradenet.dynamics import (
    EntryEvent,
    apply_entry,
    apply_exit,
    entry_comparative_statics,
    market_readjustment,
    prefers,
    rural_hospitals_check,
)
from tradenet.errors import GuardExceededError, PreconditionError
from tradenet.fixedpoint import buyer_optimal, pair_leq, seller_optimal
from tradenet.instances import instance_from_json
from tradenet.oracle import generate_entry_scenario, generate_instance


def _example2_entry(example2):
    """A second source selling n1 to j, competing with m's w."""
    j_old = example2.choice["j"]
    j_new = PreferenceListChoice(
        "j",
        j_old.upstream | {"n1"},
        j_old.downstream,
        list(j_old.ranking) + [frozenset({"n1", "z"})],
    )
    from tradenet.network import Contract

    return EntryEvent(
        agent="f2",
        side="terminal_seller",
        contracts=(Contract("n1", "f2", "j"),),
        choice=QuotaChoice("f2", frozenset(), {"n1"}, ["n1"], 1),
        updated_choices={"j": j_new},
    )


def test_apply_entry_extends_network(example2):
    extended = apply_entry(example2, _example2_entry(example2))
    assert len(extended.network.agents) == 5
    assert "n1" in extended.network.contract_ids
    part = extended.network.terminal_partition()
    assert "f2" in part.terminal_sellers


def test_entry_of_isolated_agent(example2):
    event = EntryEvent(
        agent="idle",
        side="terminal_seller",
        contracts=(),
        choice=QuotaChoice("idle", frozenset(), frozenset(), [], 1),
        updated_choices={},
    )
    extended = apply_entry(example2, event)
    assert "idle" in extended.network.agents
    report = entry_comparative_statics(example2, event)
    assert report.directions_hold
    assert report.before == report.after


def test_entry_rejects_wrong_side(example2):
    from tradenet.network import Contract

    event = EntryEvent(
        agent="f2",
        side="terminal_seller",
        contracts=(Contract("n1", "j", "f2"),),  # buys instead of selling
        choice=QuotaChoice("f2", {"n1"}, frozenset(), ["n1"], 1),
        updated_choices={},
    )
    with pytest.raises(PreconditionError, match="does not sell"):
        apply_entry(example2, event)


def test_entry_rejects_inconsistent_replacement(example2):
    event = _example2_entry(example2)
    broken = PreferenceListChoice(
        "j",
        event.updated_choices["j"].upstream,
        event.updated_choices["j"].downstream,
        [frozenset({"n1", "z"})] + list(example2.choice["j"].ranking[1:]),
    )
    bad = EntryEvent(event.agent, event.side, event.contracts, event.choice,
                     {"j": broken})
    with pytest.raises(PreconditionError, match="disagrees"):
        apply_entry(example2, bad)


def test_consistency_guard_is_a_guard_error():
    from tradenet.network import Contract

    contracts = [{"id": f"c{i:02d}", "seller": "a", "buyer": "b"} for i in range(13)]
    inst = instance_from_json(
        {
            "agents": ["a", "b"],
            "contracts": contracts,
            "choice_functions": [
                {"agent": "a", "type": "quota", "order": [], "quota": 1},
                {"agent": "b", "type": "quota", "order": [], "quota": 1},
            ],
        }
    )
    b_new = QuotaChoice("b", inst.choice["b"].upstream | {"n1"}, frozenset(), ["n1"], 1)
    event = EntryEvent(
        agent="f2",
        side="terminal_seller",
        contracts=(Contract("n1", "f2", "b"),),
        choice=QuotaChoice("f2", frozenset(), {"n1"}, ["n1"], 1),
        updated_choices={"b": b_new},
    )
    with pytest.raises(GuardExceededError, match="consistency check guard is 12"):
        apply_entry(inst, event)


def test_entry_rejects_non_substitutable_entrant(example2):
    from tradenet.choices import PreferenceListChoice as PL
    from tradenet.network import Contract

    # package-only seller: keeps the pair, rejects singles (not substitutable)
    entrant = PL("f2", frozenset(), {"n1", "n2"}, [("n1", "n2")])
    j_old = example2.choice["j"]
    j_new = PreferenceListChoice(
        "j", j_old.upstream | {"n1", "n2"}, j_old.downstream, j_old.ranking
    )
    event = EntryEvent(
        agent="f2",
        side="terminal_seller",
        contracts=(Contract("n1", "f2", "j"), Contract("n2", "f2", "j")),
        choice=entrant,
        updated_choices={"j": j_new},
    )
    with pytest.raises(PreconditionError, match="full_substitutability"):
        apply_entry(example2, event)


def test_entry_duplicate_agent_or_contract(example2):
    from tradenet.network import Contract

    with pytest.raises(PreconditionError, match="already in the network"):
        apply_entry(
            example2,
            EntryEvent("j", "terminal_seller", (), QuotaChoice("j", (), (), [], 1), {}),
        )
    event = _example2_entry(example2)
    clash = EntryEvent(
        event.agent,
        event.side,
        (Contract("w", "f2", "j"),),
        event.choice,
        event.updated_choices,
    )
    with pytest.raises(PreconditionError, match="already taken"):
        apply_entry(example2, clash)


def test_exit_inverts_entry(example2):
    event = _example2_entry(example2)
    extended = apply_entry(example2, event)
    back = apply_exit(extended, "f2")
    assert back.to_json() == example2.to_json()


def test_exit_requires_terminal(example2):
    with pytest.raises(PreconditionError, match="not terminal"):
        apply_exit(example2, "j")


def test_seller_entry_favors_terminal_buyers(example2):
    report = entry_comparative_statics(example2, _example2_entry(example2))
    assert report.directions_hold
    # the competing source displaces w in the buyer-optimal outcome
    assert report.before["buyer_optimal"] == {"z", "y"}


def test_entry_statics_on_generated_scenarios():
    for seed in range(12):
        gen, event = generate_entry_scenario(seed)
        report = entry_comparative_statics(gen.instance, event)
        assert report.directions_hold, (seed, report.to_json())


def test_exit_statics_are_the_entry_directions_reversed():
    # removing the entrant from the extended market must hand every remaining
    # terminal agent the reverse of its entry-time comparison
    for seed in range(6):
        gen, event = generate_entry_scenario(seed)
        extended = apply_entry(gen.instance, event)
        back = apply_exit(extended, event.agent)
        assert back.to_json() == gen.instance.to_json()
        fwd = entry_comparative_statics(gen.instance, event)
        assert fwd.directions_hold


def test_readjustment_monotone_and_directional():
    for seed in range(10):
        gen, event = generate_entry_scenario(seed)
        inst = gen.instance
        for start in (buyer_optimal(inst), seller_optimal(inst)):
            readj = market_readjustment(inst, start.pair, event)
            trace = readj.result.trace
            ascending = event.side == "terminal_seller"
            for a, b in zip(trace, trace[1:]):
                assert pair_leq(a, b) if ascending else pair_leq(b, a)
            part = readj.extended.network.terminal_partition()
            old, new = start.outcome, readj.result.outcome
            for agent in sorted(part.terminal_agents - {event.agent}):
                seller = agent in part.terminal_sellers
                if seller == (event.side == "terminal_seller"):
                    assert prefers(readj.extended, agent, old, new), (seed, agent)
                else:
                    assert prefers(readj.extended, agent, new, old), (seed, agent)


def test_readjustment_requires_fixed_point(example2):
    from tradenet.fixedpoint import OfferPair

    event = _example2_entry(example2)
    with pytest.raises(PreconditionError, match="not a fixed point"):
        market_readjustment(example2, OfferPair(frozenset(), frozenset({"w"})), event)


def test_readjustment_with_unacceptable_entrant_changes_no_terminal_contracts(example2):
    from tradenet.network import Contract

    j_old = example2.choice["j"]
    event = EntryEvent(
        agent="f2",
        side="terminal_seller",
        contracts=(Contract("n1", "f2", "j"),),
        choice=QuotaChoice("f2", frozenset(), {"n1"}, [], 1),  # rejects everything
        updated_choices={
            "j": PreferenceListChoice(
                "j", j_old.upstream | {"n1"}, j_old.downstream, j_old.ranking
            )
        },
    )
    pair = buyer_optimal(example2).pair
    readj = market_readjustment(example2, pair, event)
    part = readj.extended.network.terminal_partition()
    old_terminal = {
        a: pair.outcome & example2.choice[a].domain
        for a in part.terminal_agents - {"f2"}
    }
    new_terminal = {
        a: readj.result.outcome & readj.extended.choice[a].domain
        for a in part.terminal_agents - {"f2"}
    }
    assert old_terminal == new_terminal


def test_rural_hospitals_invariance():
    multi = 0
    for seed in range(25):
        inst = generate_instance(seed, "ladlas").instance
        report = rural_hospitals_check(inst)
        assert report.preconditions_hold
        assert report.invariant_holds, report.to_json()
        if len(report.outcomes) > 1:
            multi += 1
    assert multi >= 3


def test_rural_hospitals_unique_outcome_trivial(example2):
    report = rural_hospitals_check(example2)
    assert report.invariant_holds
    assert report.per_agent_margin == {"i": 0, "j": 0, "k": 0, "m": 0}


def test_rural_hospitals_flags_missing_preconditions():
    inst = instance_from_json(
        {
            "agents": ["a", "b", "c"],
            "contracts": [
                {"id": "u", "seller": "a", "buyer": "b"},
                {"id": "d1", "seller": "b", "buyer": "c"},
                {"id": "d2", "seller": "b", "buyer": "c"},
            ],
            "choice_functions": [
                {"agent": "a", "type": "quota", "order": ["u"], "quota": 1},
                {"agent": "b", "type": "preference_list", "ranking": [["u", "d1", "d2"]]},
                {"agent": "c", "type": "quota", "order": ["d1", "d2"], "quota": 2},
            ],
        }
    )
    report = rural_hospitals_check(inst)
    assert not report.preconditions_hold
    assert "lad_las" in report.failed_axioms
