from __future__ import annotations

import random

import pytest

from tradenet.choices import PreferenceListChoice, QuotaChoice
from tradenet.dynamics import (
    EntryEvent,
    _check_consistent,
    apply_entry,
    apply_exit,
    entry_comparative_statics,
    market_readjustment,
    prefers,
    rural_hospitals_check,
)
from tradenet.errors import GuardExceededError, PreconditionError
from tradenet.fixedpoint import buyer_optimal, seller_optimal
from tradenet.instances import instance_from_json
from tradenet.network import sorted_ids, subsets
from tradenet.oracle import generate_entry_scenario, generate_instance

from literal import pair_leq


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


def test_statics_name_a_replaced_incumbent_that_fails_substitutability(example2):
    """j takes the entrant's n1 only together with w.  Only the replaced j is
    checked on the extended market, and the refusal carries the reports a
    check of every agent there finds."""
    from tradenet import axioms

    event = _example2_entry(example2)
    j_old = example2.choice["j"]
    j_new = PreferenceListChoice(
        "j", j_old.upstream | {"n1"}, j_old.downstream,
        [frozenset({"n1", "w"})] + list(j_old.ranking),
    )
    event = EntryEvent(event.agent, event.side, event.contracts, event.choice, {"j": j_new})
    with pytest.raises(PreconditionError, match="need full substitutability and IRC") as info:
        entry_comparative_statics(example2, event)
    payload = [r.to_json() for r in info.value.reports]
    assert payload == [
        {
            "agent": "j",
            "axiom": "full_substitutability",
            "holds": False,
            "notes": [],
            "witness": {
                "condition": "same_side_upstream",
                "contract": "n1",
                "down": [],
                "up": ["n1", "w"],
                "up_smaller": ["n1"],
            },
        }
    ]
    extended = apply_entry(example2, event)
    everyone = axioms.check_instance(extended, ("full_substitutability", "irc"))
    assert payload == [r.to_json() for r in everyone if not r.holds]


def _entry_beside(size):
    """An instance where a sells `size` contracts to b, and an entry event
    selling b one more, with a consistent replacement for b."""
    from tradenet.network import Contract

    contracts = [{"id": f"c{i:02d}", "seller": "a", "buyer": "b"} for i in range(size)]
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
    return inst, event


def test_consistency_guard_is_a_guard_error():
    # the check walks masks under the per-agent guard: 13 contracts get an answer
    inst, event = _entry_beside(13)
    assert "n1" in apply_entry(inst, event).contract_ids
    inst, event = _entry_beside(17)
    message = "consistency: agent b has 17 contracts, guard is 16$"
    with pytest.raises(GuardExceededError, match=message):
        apply_entry(inst, event)


def literal_check_consistent(old, new) -> None:
    """The consistency check read off its definition: every old menu as a
    frozenset, in `subsets` order, asked of both functions through `choose`."""
    if not old.domain <= new.domain:
        raise PreconditionError(f"{new.agent}: replacement lost old contracts")
    for menu in subsets(old.domain):
        if old.choose(menu) != new.choose(menu):
            raise PreconditionError(
                f"{new.agent}: replacement choice disagrees on old menu {sorted_ids(menu)}"
            )


def _replacement_pair(seed, size, consistent):
    """A builder of fresh (old, new) preference lists of agent b: old over
    `size` contracts, new over those plus c00 (upstream) and c04
    (downstream), which sort among them, so an old contract's bit moves.
    New ranks old's sets in old's order with sets holding c00 or c04 mixed
    in, so it agrees on every old menu, unless `consistent` is false: then
    two old sets swap, an old set is dropped or one is added, or new loses
    an old contract."""
    rng = random.Random(seed)
    ids = [f"c{2 * i + 1:02d}" for i in range(size)]
    cut = rng.randint(0, size)
    up, down = ids[:cut], ids[cut:]

    def some(pool):
        while True:
            picked = frozenset(c for c in pool if rng.random() < 0.5)
            if picked:
                return picked

    ranking = list(dict.fromkeys(some(ids) for _ in range(rng.randint(1, 6))))
    new_ranking = list(ranking)
    for _ in range(rng.randint(0, 3)):
        extra = some(ids) | {rng.choice(["c00", "c04"])}
        if extra not in new_ranking:
            new_ranking.insert(rng.randint(0, len(new_ranking)), extra)
    new_up, new_down = set(up) | {"c00"}, set(down) | {"c04"}
    if not consistent:
        kind = rng.choice(["swap", "drop", "add", "lose"])
        olds = [i for i, s in enumerate(new_ranking) if s in ranking]
        if kind == "swap" and len(olds) > 1:
            i, j = rng.sample(olds, 2)
            new_ranking[i], new_ranking[j] = new_ranking[j], new_ranking[i]
        elif kind in ("swap", "drop"):
            del new_ranking[rng.choice(olds)]
        elif kind == "add":
            extra = some(ids)
            if extra not in new_ranking:
                new_ranking.insert(rng.randint(0, len(new_ranking)), extra)
        else:
            lost = rng.choice(ids)
            new_up.discard(lost)
            new_down.discard(lost)
            new_ranking = [s for s in new_ranking if lost not in s]

    def build():
        return (
            PreferenceListChoice("b", up, down, ranking),
            PreferenceListChoice("b", new_up, new_down, new_ranking),
        )

    return build


def _verdict(check, build):
    """(message or None, old's query count, new's query count) of one check
    on a fresh pair."""
    old, new = build()
    try:
        check(old, new)
    except PreconditionError as exc:
        message = str(exc)
    else:
        message = None
    return message, old.query_count, new.query_count


def test_consistency_check_matches_the_literal_loop():
    cases = [(seed, 1 + seed % 8, seed % 2 == 0) for seed in range(400)]
    cases += [(1000 + n, n, consistent) for n in range(13, 17) for consistent in (True, False)]
    disagreeing = 0
    for seed, size, consistent in cases:
        build = _replacement_pair(seed, size, consistent)
        want = _verdict(literal_check_consistent, build)
        assert _verdict(_check_consistent, build) == want, (seed, size, consistent)
        disagreeing += want[0] is not None
        if consistent:
            assert want[0] is None and want[1] == 2**size, (seed, size)
    assert 150 < disagreeing < 250


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


def test_rural_hospitals_counterexample_off_the_axioms(unrestricted_instance):
    """Without the axioms an agent's margin can differ between fixed-point
    outcomes; the report names the first outcome whose margins differ from
    the first outcome's."""
    found = []
    for seed in range(50):
        inst = unrestricted_instance(seed, "abcd", max_contracts=7)
        report = rural_hospitals_check(inst)
        if report.counterexample is None:
            continue
        found.append(seed)
        assert not report.preconditions_hold and not report.invariant_holds
        assert report.per_agent_margin is None
        net = inst.network
        margins = [
            {a: len(o & net.upstream[a]) - len(o & net.downstream[a]) for a in net.agents}
            for o in report.outcomes
        ]
        first_other = next(i for i, m in enumerate(margins) if m != margins[0])
        assert report.counterexample == {
            "outcome_a": sorted_ids(report.outcomes[0]),
            "outcome_b": sorted_ids(report.outcomes[first_other]),
            "margins_a": margins[0],
            "margins_b": margins[first_other],
        }
    assert found == [1, 23, 32, 46, 47]


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
