from __future__ import annotations

import random
from collections import Counter
from itertools import combinations

import pytest

import tradenet.stability as stability_module
from tradenet.choices import is_rational
from tradenet.errors import GuardExceededError, PreconditionError, StabilityContradictionError
from tradenet.fixedpoint import canonical_pair
from tradenet.instances import BUNDLED, bundled_instance, instance_from_json
from tradenet.oracle import PROFILES, brute_force_stable, generate_instance
from tradenet.stability import (
    NOTIONS,
    check_notion,
    classify,
    find_blocking_chain,
    find_blocking_set,
    find_blocking_strong_trail,
    find_blocking_trail,
    find_locally_blocking_trail,
    is_acceptable,
)

from literal import menus_asked


def trail_blocks(inst, outcome, trail, reading) -> bool:
    """Literal definition of a trail of fresh contracts blocking `outcome`.

    `reading` says what each agent on the trail must keep alongside the
    outcome: "prefix" or "suffix" (trail stability: every intermediate agent
    keeps all its contracts up to or from its link), "pair" (full trail
    stability: the consecutive pair it links), "chain" (pairs, and no agent
    visited twice) or "strong" (every involved agent keeps all its trail
    contracts).  Outside "strong", the first seller and the last buyer each
    keep their single contract.
    """
    net = inst.network
    if set(trail) & outcome or len(set(trail)) != len(trail):
        return False
    if any(net.contract(a).buyer != net.contract(b).seller for a, b in zip(trail, trail[1:])):
        return False
    if reading == "strong":
        block = frozenset(trail)
        return all(is_rational(inst.choice[a], block, outcome) for a in net.agents_of(block))
    first, last = trail[0], trail[-1]
    if not (
        is_rational(inst.choice[net.contract(first).seller], {first}, outcome)
        and is_rational(inst.choice[net.contract(last).buyer], {last}, outcome)
    ):
        return False
    walk = [net.contract(first).seller] + [net.contract(c).buyer for c in trail]
    if reading == "chain" and len(set(walk)) != len(walk):
        return False
    for m in range(1, len(trail)):
        cf = inst.choice[walk[m]]
        if reading == "prefix":
            kept = trail[: m + 1]
        elif reading == "suffix":
            kept = trail[m - 1 :]
        else:
            kept = trail[m - 1 : m + 1]
        if not is_rational(cf, {c for c in kept if c in cf.domain}, outcome):
            return False
    return True


def replay_trail_witness(inst, outcome, witness, local: bool):
    """Re-derive a blocking verdict from the raw definitions."""
    reading = "pair" if local else witness.option
    assert trail_blocks(inst, frozenset(outcome), witness.contracts, reading)


# --- acceptability ---------------------------------------------------------


def test_acceptable(example1):
    assert is_acceptable(example1, {"w"}).stable
    assert is_acceptable(example1, frozenset()).stable
    verdict = is_acceptable(example1, {"x"})
    assert not verdict.stable
    assert verdict.witness.agent == "j"  # j keeps nothing out of {x} alone


def test_not_acceptable_short_circuits_every_notion(example1):
    profile = classify(example1, {"x"})
    for notion, verdict in profile.items():
        assert not verdict.stable
        assert verdict.witness.kind == "not_acceptable"


def test_outcomes_naming_unknown_contracts_are_refused():
    inst = bundled_instance("example1")  # a fresh instance: no view kept yet
    message = r"outcome uses unknown contracts: \['nope'\]"
    for outcome in ({"nope"}, {"w", "nope"}):
        for notion in NOTIONS:
            with pytest.raises(PreconditionError, match=message):
                check_notion(inst, outcome, notion)
        with pytest.raises(PreconditionError, match=message):
            classify(inst, outcome)
        with pytest.raises(PreconditionError, match=message):
            canonical_pair(inst, outcome)
    assert not inst.numbering.views


# --- four-firm cycle, entangled preferences (bundled example 1) ------------


def test_example1_trail_stable_outcome(example1):
    assert find_blocking_trail(example1, {"w"}).stable
    verdict = find_blocking_trail(example1, frozenset())
    assert not verdict.stable
    assert verdict.witness.contracts == ("w",)  # shortest witness first
    replay_trail_witness(example1, frozenset(), verdict.witness, local=False)


def test_example1_no_set_stable_outcome(example1):
    verdict = find_blocking_set(example1, {"w"})
    assert not verdict.stable
    assert verdict.witness.contracts == ("y", "z")
    assert brute_force_stable(example1, "set") == []


def test_example1_chain_stable_unique(example1):
    assert brute_force_stable(example1, "chain") == [frozenset({"w"})]


def test_example1_strong_trail_block_is_a_blocking_set(example1):
    verdict = find_blocking_strong_trail(example1, {"w"})
    assert not verdict.stable
    block = frozenset(verdict.witness.contracts)
    # a fully kept trail is itself a blocking set
    for agent in example1.network.agents_of(block):
        assert is_rational(example1.choice[agent], block & example1.choice[agent].domain, {"w"})


# --- locally blocking trails (bundled example 2) ----------------------------


def test_example2_empty_outcome_full_trail_witness(example2):
    assert find_blocking_trail(example2, frozenset()).stable
    verdict = find_locally_blocking_trail(example2, frozenset())
    assert not verdict.stable
    assert verdict.witness.contracts == ("w", "z", "y", "x")
    replay_trail_witness(example2, frozenset(), verdict.witness, local=True)


def test_example2_stable_sets(example2):
    assert find_locally_blocking_trail(example2, {"z", "y"}).stable
    assert brute_force_stable(example2, "trail") == [frozenset(), frozenset({"y", "z"})]
    assert brute_force_stable(example2, "full_trail") == [frozenset({"y", "z"})]


def test_single_contract_degenerate_block():
    inst = instance_from_json(
        {
            "agents": ["a", "b"],
            "contracts": [{"id": "c", "seller": "a", "buyer": "b"}],
            "choice_functions": [
                {"agent": "a", "type": "preference_list", "ranking": [["c"]]},
                {"agent": "b", "type": "preference_list", "ranking": [["c"]]},
            ],
        }
    )
    verdict = find_locally_blocking_trail(inst, frozenset())
    assert not verdict.stable
    assert verdict.witness.contracts == ("c",)


# --- chains vs trails (bundled example 3) -----------------------------------


def test_example3_empty_outcome(example3):
    trail_verdict = find_blocking_trail(example3, frozenset())
    assert not trail_verdict.stable
    assert trail_verdict.witness.contracts == ("w", "z", "y", "x")
    assert trail_verdict.witness.option == "prefix"
    replay_trail_witness(example3, frozenset(), trail_verdict.witness, local=False)
    assert find_blocking_chain(example3, frozenset()).stable


def test_example3_chain_block_against_cycle_outcome(example3):
    verdict = find_blocking_chain(example3, {"z", "y"})
    assert not verdict.stable
    # the minimality rule reports the one-contract chain (m re-sells w to j,
    # who swaps y out for it); the two-contract chain (w, x) blocks as well
    assert verdict.witness.contracts == ("w",)
    replay_trail_witness(example3, {"z", "y"}, verdict.witness, local=True)
    from tradenet.stability import Witness

    replay_trail_witness(example3, {"z", "y"}, Witness("chain", ("w", "x")), local=True)
    assert len(set(["m", "j", "i"])) == 3  # (w, x) walks distinct agents


def test_example3_stable_sets(example3):
    assert brute_force_stable(example3, "trail") == [frozenset({"w", "x", "y", "z"})]
    assert brute_force_stable(example3, "chain") == [
        frozenset(),
        frozenset({"w", "x", "y", "z"}),
    ]


# --- reduced two-firm cycle --------------------------------------------------


def test_reduced_stable_sets(reduced):
    assert brute_force_stable(reduced, "set") == [frozenset({"y", "z"})]
    assert brute_force_stable(reduced, "trail") == [frozenset(), frozenset({"y", "z"})]


def test_blocked_when_everything_already_signed():
    inst = instance_from_json(
        {
            "agents": ["a", "b"],
            "contracts": [{"id": "c", "seller": "a", "buyer": "b"}],
            "choice_functions": [
                {"agent": "a", "type": "preference_list", "ranking": [["c"]]},
                {"agent": "b", "type": "preference_list", "ranking": [["c"]]},
            ],
        }
    )
    assert find_blocking_set(inst, {"c"}).stable  # nothing fresh left to block with


# --- classification ----------------------------------------------------------


def test_classify_profiles(example2, example3):
    profile = classify(example2, {"z", "y"})
    assert {n: v.stable for n, v in profile.items()} == {
        "acceptable": True,
        "trail": True,
        "full_trail": True,
        "chain": True,
        "set": True,
        "strong_trail": True,
    }
    profile = classify(example3, {"w", "x", "y", "z"})
    assert profile["trail"].stable
    assert profile["chain"].stable


def test_classify_rejects_contradictory_checkers(example2, monkeypatch):
    def bogus(inst, outcome):
        from tradenet.stability import StabilityVerdict

        return StabilityVerdict("full_trail", False, None)

    # {z, y} is set-stable in this instance, so a checker denying the weaker
    # full-trail stability contradicts the implication chain
    monkeypatch.setitem(stability_module._CHECKERS, "full_trail", bogus)
    with pytest.raises(StabilityContradictionError):
        classify(example2, {"z", "y"})


def test_implication_chain_on_generated_instances():
    for seed in range(15):
        inst = generate_instance(seed, "fsirc").instance
        for notion_set in (brute_force_stable(inst, "set"),):
            full = brute_force_stable(inst, "full_trail")
            trail = brute_force_stable(inst, "trail")
            chain = brute_force_stable(inst, "chain")
            strong = brute_force_stable(inst, "strong_trail")
            assert set(notion_set) <= set(full) <= set(trail) <= set(chain)
            assert set(notion_set) <= set(strong)  # a kept trail is a blocking set


def test_strong_trail_vs_set_observation(capsys):
    # only set => strong-trail is derivable here (a fully kept trail is a
    # blocking set); the converse is reported as an observation, not asserted
    agree = total = 0
    for seed in range(20):
        inst = generate_instance(seed, "ladlas").instance
        strong = set(brute_force_stable(inst, "strong_trail"))
        sets = set(brute_force_stable(inst, "set"))
        assert sets <= strong, seed
        total += 1
        agree += strong == sets
    print(f"strong-trail = set stability on {agree}/{total} aggregate-law instances")
    assert agree >= 0  # observational only


def test_trail_search_guard():
    # two ten-contract bundles pointing opposite ways: trails alternate
    # direction and explode combinatorially; the whole-trail search has no
    # prefix pruning, so its candidate budget must trip
    contracts = [
        {"id": f"f{i}", "seller": "a", "buyer": "b"} for i in range(10)
    ] + [{"id": f"g{i}", "seller": "b", "buyer": "a"} for i in range(10)]
    inst = instance_from_json(
        {
            "agents": ["a", "b"],
            "contracts": contracts,
            "choice_functions": [
                {"agent": "a", "type": "preference_list", "ranking": []},
                {"agent": "b", "type": "preference_list", "ranking": []},
            ],
        }
    )
    with pytest.raises(GuardExceededError, match="trail search"):
        find_blocking_strong_trail(inst, frozenset())


def test_set_guard():
    contracts = [
        {"id": f"c{i:02d}", "seller": "a", "buyer": "b"} for i in range(21)
    ]
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
    with pytest.raises(GuardExceededError):
        find_blocking_set(inst, frozenset())


# --- minimality against a reference enumeration ----------------------------


def _all_trails(net, avail):
    """Every trail of `avail` contracts, by length and then by id sequence."""
    level = [(cid,) for cid in sorted(avail)]
    while level:
        yield from level
        level = sorted(
            trail + (cid,)
            for trail in level
            for cid in avail
            if cid not in trail and net.contract(cid).seller == net.contract(trail[-1]).buyer
        )


def _every_outcome(inst):
    ids = sorted(inst.contract_ids)
    for mask in range(1 << len(ids)):
        yield frozenset(c for pos, c in enumerate(ids) if mask >> pos & 1)


def test_witnesses_are_first_blocking_trails_of_reference_enumeration(unrestricted_instance):
    corpus = (
        [bundled_instance(name) for name in BUNDLED]
        + [
            generate_instance(seed, profile, max_contracts=7).instance
            for profile in PROFILES
            for seed in range(8)
        ]
        + [unrestricted_instance(seed) for seed in range(300)]
    )
    checkers = {
        "full_trail": (find_locally_blocking_trail, "pair"),
        "chain": (find_blocking_chain, "chain"),
        "strong_trail": (find_blocking_strong_trail, "strong"),
    }
    checked = 0
    for inst in corpus:
        for outcome in _every_outcome(inst):
            if not is_acceptable(inst, outcome).stable:
                continue
            trails = list(_all_trails(inst.network, inst.contract_ids - outcome))

            def first(reading):
                return next((t for t in trails if trail_blocks(inst, outcome, t, reading)), None)

            readings = [(len(t), t, r) for r in ("prefix", "suffix") if (t := first(r))]
            verdict = find_blocking_trail(inst, outcome)
            assert verdict.stable == (not readings)
            if readings:
                _, trail, option = min(readings)
                assert (verdict.witness.contracts, verdict.witness.option) == (trail, option)
            for checker, reading in checkers.values():
                verdict = checker(inst, outcome)
                expected = first(reading)
                assert verdict.stable == (expected is None)
                assert verdict.stable or verdict.witness.contracts == expected
            checked += 1
    assert checked > 1000


def test_strong_trail_asks_the_menus_of_the_literal_check(unrestricted_instance):
    # the literal check asks each involved agent, in id order and through the
    # frozenset door, whether it keeps its share of the trail, and stops at
    # the first refusal; the mask check must ask exactly the same menus
    corpus = (
        [bundled_instance(name) for name in BUNDLED]
        + [generate_instance(seed, profile).instance for profile in PROFILES for seed in range(8)]
        + [unrestricted_instance(seed) for seed in range(100)]
    )
    checked = 0
    for inst in corpus:
        for outcome in _every_outcome(inst):
            if not is_acceptable(inst, outcome).stable:
                continue
            fresh, literal = (instance_from_json(inst.to_json()) for _ in range(2))
            verdict = find_blocking_strong_trail(fresh, outcome)
            assert is_acceptable(literal, outcome).stable
            net = literal.network
            for trail in _all_trails(net, literal.contract_ids - outcome):
                if all(
                    is_rational(literal.choice[agent], trail, outcome)
                    for agent in sorted(net.agents_of(trail))
                ):
                    assert verdict.witness.contracts == trail
                    break
            else:
                assert verdict.stable
            for agent in net.agents:
                assert menus_asked(fresh.choice[agent]) == menus_asked(literal.choice[agent])
            checked += 1
    assert checked > 200


# --- the fresh-contract view against the id-scan searches it replaced --------


def reference_shortest_trail(inst, avail, budget, done, seed=None, step=None, forward=True):
    """The id-scan trail search: every extension scans all `avail` contracts
    in id order and looks each one up in the network.  `step(trail, link)`."""
    net = inst.network
    frontier = []
    for cid in avail:
        budget.spend()
        if seed is None or seed((cid,)):
            frontier.append((cid,))
    while frontier:
        for trail in frontier:
            if done(trail):
                return trail
        nxt = []
        for trail in frontier:
            if forward:
                link = net.contract(trail[-1]).buyer
            else:
                link = net.contract(trail[0]).seller
            for ext in avail:
                c = net.contract(ext)
                if ext in trail or (c.seller if forward else c.buyer) != link:
                    continue
                budget.spend()
                extended = trail + (ext,) if forward else (ext,) + trail
                if step is None or step(extended, link):
                    nxt.append(extended)
        frontier = sorted(nxt)
    return None


def reference_witness(inst, outcome, notion, budget):
    """The trail, full-trail, chain and strong-trail searches on ids, each
    condition asked through `is_rational`; the witness contracts (and the
    reading, for trail stability), or None when the outcome is stable."""
    net = inst.network
    avail = sorted(inst.contract_ids - outcome)

    def first_kept(trail):
        return is_rational(inst.choice[net.contract(trail[0]).seller], trail[:1], outcome)

    def last_kept(trail):
        return is_rational(inst.choice[net.contract(trail[-1]).buyer], trail[-1:], outcome)

    def keeps_pair(trail, link):
        return is_rational(inst.choice[link], trail[-2:], outcome)

    def chain_step(trail, link):
        walk = [net.contract(trail[0]).seller] + [net.contract(c).buyer for c in trail]
        return len(set(walk)) == len(walk) and keeps_pair(trail, link)

    def kept_in_full(trail):
        agents = sorted(net.agents_of(trail))
        return all(is_rational(inst.choice[agent], trail, outcome) for agent in agents)

    if notion == "trail":
        def keeps_seen(trail, link):
            return is_rational(inst.choice[link], trail, outcome)

        found = []
        for option, seed, done, forward in (
            ("prefix", first_kept, last_kept, True),
            ("suffix", last_kept, first_kept, False),
        ):
            trail = reference_shortest_trail(inst, avail, budget, done, seed, keeps_seen, forward)
            if trail:
                found.append((len(trail), trail, option))
        return min(found)[1:] if found else None
    if notion == "strong_trail":
        return reference_shortest_trail(inst, avail, budget, kept_in_full)
    step = keeps_pair if notion == "full_trail" else chain_step
    return reference_shortest_trail(inst, avail, budget, last_kept, first_kept, step)


class CountingBudget(stability_module._Budget):
    """A trail budget that counts the units it was asked for."""

    def __init__(self):
        super().__init__()
        self.spent = 0

    def spend(self):
        self.spent += 1
        super().spend()


def _id_scan_corpus(unrestricted_instance):
    yield from (bundled_instance(name) for name in BUNDLED)
    for profile in PROFILES:
        yield from (generate_instance(seed, profile).instance for seed in range(8))
    yield from (unrestricted_instance(seed) for seed in range(300))


def test_trail_searches_ask_the_menus_and_spend_the_budget_of_the_id_scan(
    unrestricted_instance, monkeypatch
):
    # on fresh copies of each instance, a search over the view and the
    # id-scan reference must find the same witness, leave the same menus in
    # every choice function's cache and spend the same budget units, so the
    # trail guard trips at the same candidate in both
    checkers = {
        "trail": find_blocking_trail,
        "full_trail": find_locally_blocking_trail,
        "chain": find_blocking_chain,
        "strong_trail": find_blocking_strong_trail,
    }
    budgets = []
    monkeypatch.setattr(
        stability_module, "_Budget", lambda: budgets.append(CountingBudget()) or budgets[-1]
    )
    checked = 0
    for inst in _id_scan_corpus(unrestricted_instance):
        for outcome in _every_outcome(inst):
            if not is_acceptable(inst, outcome).stable:
                continue
            for notion, checker in checkers.items():
                fresh, literal = (instance_from_json(inst.to_json()) for _ in range(2))
                budgets.clear()
                verdict = checker(fresh, outcome)
                assert is_acceptable(literal, outcome).stable
                reference_budget = CountingBudget()
                expected = reference_witness(literal, outcome, notion, reference_budget)
                if expected is None:
                    assert verdict.stable
                elif notion == "trail":
                    assert (verdict.witness.contracts, verdict.witness.option) == expected
                else:
                    assert verdict.witness.contracts == expected
                assert [b.spent for b in budgets] == [reference_budget.spent]
                for agent in inst.network.agents:
                    assert menus_asked(fresh.choice[agent]) == menus_asked(literal.choice[agent])
                checked += 1
    assert checked > 4000


def reference_blocking_set(inst, outcome):
    """The id-scan set search: blocks are id combinations by size, and each
    is asked of its agents, in id order, through `is_rational` until one
    refuses; the first block every agent keeps, or None."""
    net = inst.network
    avail = sorted(inst.contract_ids - outcome)
    for size in range(1, len(avail) + 1):
        for block in combinations(avail, size):
            agents = sorted(net.agents_of(block))
            if all(is_rational(inst.choice[agent], block, outcome) for agent in agents):
                return block
    return None


def test_set_search_asks_the_menus_of_the_id_scan(unrestricted_instance):
    # on fresh copies of each instance, the set search over the view and the
    # id-scan reference must find the same block and leave the same menus in
    # every choice function's cache
    checked = 0
    for inst in _id_scan_corpus(unrestricted_instance):
        for outcome in _every_outcome(inst):
            if not is_acceptable(inst, outcome).stable:
                continue
            fresh, literal = (instance_from_json(inst.to_json()) for _ in range(2))
            verdict = find_blocking_set(fresh, outcome)
            assert is_acceptable(literal, outcome).stable
            expected = reference_blocking_set(literal, outcome)
            if expected is None:
                assert verdict.stable
            else:
                assert verdict.witness.contracts == expected
            for agent in inst.network.agents:
                assert menus_asked(fresh.choice[agent]) == menus_asked(literal.choice[agent])
            checked += 1
    assert checked > 1000


def _wide_lane_instance(seed):
    """A hub `h` trading 34 contracts with four spokes, which trade six among
    themselves, and two with an agent `e`; and an acceptable outcome leaving
    6 to 10 contracts fresh, none of them e's.  Each agent ranks its outcome
    share, and above or below it sets of that share (now and then less one
    contract) plus fresh contracts.  The hub's lane is laid out last, so its
    36 bits end past bit 64 of the numbering's ints; e's lies among the
    spokes'."""
    rng = random.Random(seed)
    spokes = ["a", "b", "c", "d"]
    contracts = []
    for i in range(34):
        pair = ["h", rng.choice(spokes)]
        rng.shuffle(pair)
        contracts.append({"id": f"h{i:02d}", "seller": pair[0], "buyer": pair[1]})
    for i in range(6):
        seller, buyer = rng.sample(spokes, 2)
        contracts.append({"id": f"s{i}", "seller": seller, "buyer": buyer})
    contracts += [{"id": "e0", "seller": "e", "buyer": "h"},
                  {"id": "e1", "seller": "h", "buyer": "e"}]
    ids = [c["id"] for c in contracts]
    outcome = frozenset(ids) - set(rng.sample(ids[:-2], rng.randint(6, 10)))
    choice_functions = []
    for agent in ["a", "b", "e", "c", "d", "h"]:
        own = sorted(c["id"] for c in contracts if agent in (c["seller"], c["buyer"]))
        kept = sorted(outcome.intersection(own))
        new = sorted(set(own) - outcome)
        ranked = set()
        for _ in range(8 if new else 0):
            base = set(kept)
            if base and rng.random() < 0.3:
                base.remove(rng.choice(kept))
            ranked.add(frozenset(base.union(rng.sample(new, rng.randint(1, min(3, len(new)))))))
        ranking = [sorted(m) for m in sorted(ranked, key=sorted)]
        rng.shuffle(ranking)
        ranking.insert(rng.randint(0, len(ranking)), kept)
        choice_functions.append({"agent": agent, "type": "preference_list", "ranking": ranking})
    raw = {"agents": ["a", "b", "c", "d", "e", "h"], "contracts": contracts,
           "choice_functions": choice_functions}
    return instance_from_json(raw), outcome


def test_wide_lanes_ask_the_menus_and_spend_the_budget_of_the_id_scan(monkeypatch):
    # lanes past 64 bits, so a sum of shares leaves the C-long fast path; a
    # 36-contract hub, whose lane spans several int digits; and an agent
    # holding no fresh contract.  On fresh copies, the set search and the
    # strong-trail search must find the id-scan reference's witness, leave
    # the same menus in every choice function's cache and spend the same
    # budget units
    budgets = []
    monkeypatch.setattr(
        stability_module, "_Budget", lambda: budgets.append(CountingBudget()) or budgets[-1]
    )
    checkers = {"set": find_blocking_set, "strong_trail": find_blocking_strong_trail}
    seen = Counter()
    for seed in range(40):
        inst, outcome = _wide_lane_instance(seed)
        for notion, checker in checkers.items():
            fresh, literal = (instance_from_json(inst.to_json()) for _ in range(2))
            budgets.clear()
            verdict = checker(fresh, outcome)
            assert is_acceptable(literal, outcome).stable
            reference_budget = CountingBudget()
            if notion == "set":
                expected = reference_blocking_set(literal, outcome)
            else:
                expected = reference_witness(literal, outcome, notion, reference_budget)
            assert verdict.stable == (expected is None)
            if expected is not None:
                assert verdict.witness.contracts == expected
            assert [b.spent for b in budgets] == [reference_budget.spent] * (notion != "set")
            for agent in inst.network.agents:
                assert menus_asked(fresh.choice[agent]) == menus_asked(literal.choice[agent])
            seen[notion, verdict.stable] += 1
        num, view = fresh.numbering, fresh.numbering.views[outcome]
        shift, mask = num.lane["h"]
        hub = fresh.choice["h"]
        seen["hub past 64 bits"] += shift + mask.bit_length() > 64 and mask.bit_length() == 36
        seen["high hub bit fresh"] += any(hub.position.get(num.ids[i], 0) >= 30 for i in view.fresh)
        seen["4+ agents, e not fresh"] += len(view.agents) >= 4 and "e" not in view.agents
    assert min(seen[notion, stable] for notion in checkers for stable in (True, False)) >= 3
    assert seen["hub past 64 bits"] == 40
    assert seen["high hub bit fresh"] >= 10 and seen["4+ agents, e not fresh"] >= 10
