from __future__ import annotations

import hashlib
import itertools
import json
import random
import tracemalloc

import pytest

from tradenet import oracle, stability
from tradenet.axioms import SIZE_GUARD, check_full_substitutability, check_instance, check_irc
from tradenet.errors import GuardExceededError, StabilityContradictionError
from tradenet.guards import PARTITION_GUARD, SET_GUARD
from tradenet.instances import BUNDLED, bundled_instance, instance_from_json
from tradenet.network import sorted_ids, validate_network
from tradenet.oracle import (
    PROFILES,
    acceptable_outcomes,
    brute_force_stable,
    gadget_not_set_stable,
    generate_instance,
    needle_family,
    partition_to_gs,
    solve_partition,
)
from tradenet.stability import (
    NOTIONS,
    check_notion,
    classify,
    find_blocking_set,
    is_acceptable,
)

from literal import menus_asked


def split_evenly_reference(weights) -> bool:
    """Independent oracle: try every subset directly."""
    total = sum(weights)
    if total % 2:
        return False
    for r in range(len(weights) + 1):
        for combo in itertools.combinations(range(len(weights)), r):
            if 2 * sum(weights[i] for i in combo) == total:
                return True
    return False


def test_solver_against_subset_enumeration():
    for k in range(1, 5):
        for weights in itertools.combinations_with_replacement(range(1, 7), k):
            assert solve_partition(weights) == split_evenly_reference(weights), weights


def test_gadget_choice_functions_pass_axioms():
    for weights in ((1, 1), (1, 2), (1, 2, 3), (2, 2, 3, 5)):
        inst = partition_to_gs(weights).instance
        for cf in inst.choice.values():
            assert check_full_substitutability(cf).holds, weights
            assert check_irc(cf).holds, weights


def test_even_split_creates_block():
    gadget = partition_to_gs((1, 1))
    verdict = find_blocking_set(gadget.instance, gadget.outcome)
    assert not verdict.stable
    assert verdict.witness.contracts == ("x1", "y")


def test_no_split_no_block():
    gadget = partition_to_gs((1, 2))
    assert find_blocking_set(gadget.instance, gadget.outcome).stable


def test_three_one_split():
    assert gadget_not_set_stable((1, 1, 1, 3))
    assert solve_partition((1, 1, 1, 3))


def test_odd_total_flagged_and_unsolvable():
    gadget = partition_to_gs((1, 2, 4))
    assert gadget.half_integral
    assert not solve_partition((1, 2, 4))
    assert not gadget_not_set_stable((1, 2, 4))


def test_reduction_agrees_with_solver_small_sweep():
    for k in range(1, 6):
        for weights in itertools.combinations_with_replacement(range(1, 7), k):
            assert gadget_not_set_stable(weights) == solve_partition(weights), weights


def test_weights_must_be_sorted_and_positive():
    with pytest.raises(ValueError):
        partition_to_gs((2, 1))
    with pytest.raises(ValueError):
        solve_partition((0, 1))
    with pytest.raises(ValueError):
        solve_partition(())


def test_solve_partition_refuses_a_weight_total_over_its_guard():
    half = PARTITION_GUARD // 2
    assert solve_partition((half, half))  # a total at the bound is answered
    with pytest.raises(GuardExceededError, match=f"total of {PARTITION_GUARD}, have "):
        solve_partition((half, half + 1))  # one over, and odd: refused all the same
    with pytest.raises(GuardExceededError, match="have 8000000000"):
        solve_partition((10**9,) * 8)


def unmasked_solve_partition(weights):
    """The split solver's bitset kept whole: every reachable sum up to the
    total, where `solve_partition` keeps only those up to the target."""
    total = sum(weights)
    if total % 2:
        return False
    reachable = 1
    for w in weights:
        reachable |= reachable << w
    return bool(reachable >> total // 2 & 1)


def test_solve_partition_matches_the_unmasked_bitset():
    rng = random.Random(22)
    half = PARTITION_GUARD // 2
    cases = [(1,), (2,), (7,), (PARTITION_GUARD,), (half, half - 1)]  # one weight; odd totals
    cases += [tuple(rng.randint(1, 60) for _ in range(rng.randint(1, 12))) for _ in range(300)]
    cases += [(w,) * k for w in (1, 2, 3, 5) for k in range(1, 8)]  # repeated weights
    cases += [tuple(rng.choice((3, 5, 8)) for _ in range(rng.randint(2, 10))) for _ in range(100)]
    for _ in range(6):  # a total at PARTITION_GUARD, cut at random
        cuts = sorted(rng.sample(range(1, PARTITION_GUARD), rng.randint(1, 5)))
        cases.append(tuple(b - a for a, b in zip([0] + cuts, cuts + [PARTITION_GUARD])))
    cases += [(half, half), (half - 3, 1, 2, half), (PARTITION_GUARD - 5, 2, 3)]
    assert any(sum(c) % 2 for c in cases) and any(sum(c) == PARTITION_GUARD for c in cases)
    answers = {solve_partition(c) for c in cases}
    for weights in cases:
        assert solve_partition(weights) == unmasked_solve_partition(weights), weights
    assert answers == {True, False}


def test_solve_partition_refuses_what_the_gadget_refuses():
    # truncated to [1, 2, 3] and [1, 1], both would split evenly
    for weights in ((1.5, 2.5, 3), (True, True)):
        with pytest.raises(ValueError, match="each weight must be an integer"):
            partition_to_gs(weights)
        with pytest.raises(ValueError, match="each weight must be an integer"):
            solve_partition(weights)


def test_needle_with_hidden_subset():
    inst = needle_family(2, hidden=[1, 3])
    verdict = find_blocking_set(inst, frozenset())
    assert not verdict.stable
    assert verdict.witness.contracts == ("x1", "x3", "y")


def test_needle_without_hidden_subset():
    inst = needle_family(2)
    assert find_blocking_set(inst, frozenset()).stable


def test_needle_rejects_wrong_hidden_size():
    from tradenet.errors import ChoiceFunctionError

    with pytest.raises(ChoiceFunctionError):
        needle_family(2, hidden=[1])


def test_needle_query_counter_grows_with_n():
    from math import comb

    counts = []
    for n in (1, 2, 3):
        inst = needle_family(n)
        assert find_blocking_set(inst, frozenset()).stable
        counts.append(inst.choice["f"].query_count)
        # deciding stability must at least separate all n-subsets
        assert counts[-1] >= comb(2 * n, n)
    assert counts == sorted(counts)
    assert counts[0] < counts[-1]


# distinct menus each firm is asked, as the set search made them before it
# moved to masks; the search must ask exactly the same menus
NEEDLE_QUERIES = {
    (1, None): (8, 5), (1, "1"): (6, 5), (1, "2"): (7, 5),
    (2, None): (32, 21), (2, "1,2"): (19, 14), (2, "3,4"): (26, 16),
    (3, None): (128, 86), (3, "1,2,3"): (68, 46), (3, "4,5,6"): (99, 58),
    (4, None): (512, 349), (4, "1,2,3,4"): (261, 168), (4, "5,6,7,8"): (382, 220),
}


@pytest.mark.parametrize("n, hidden", sorted(NEEDLE_QUERIES, key=str))
def test_needle_query_counts_are_pinned(capsys, n, hidden):
    from tradenet.cli import main

    argv = ["oracle", "needle", "--n", str(n)] + (["--hidden", hidden] if hidden else [])
    assert main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    f, g = NEEDLE_QUERIES[n, hidden]
    assert out["oracle_queries"] == {"f": f, "g": g}
    assert out["empty_outcome_set_stable"] == (hidden is None)
    if hidden:
        planted = [f"x{int(i)}" for i in hidden.split(",")]
        assert out["witness"]["contracts"] == planted + ["y"]


@pytest.mark.parametrize(
    "weights, witness, queries",
    [
        ((1, 1, 1, 2, 2, 3), ("x4", "x6", "y"), (63, 43)),
        ((2, 2, 3, 5, 7, 9, 10, 10), ("x4", "x6", "x7", "y"), (249, 163)),
        ((1, 1, 4), None, (16, 12)),
        # both sides of SIZE_GUARD: f of 16 contracts reads its table of
        # offered weights, f of 17 walks its menus and keeps a dict memo
        ((1,) * 15, None, (65536, 49152)),
        ((1,) + (2,) * 13 + (3,), ("x02", "x03", "x04", "x05", "x06", "x07", "x15", "y"),
         (32804, 19845)),
        ((1,) * 16, tuple(f"x{i:02d}" for i in range(1, 9)) + ("y",), (65545, 39212)),
    ],
)
def test_partition_query_counts_are_pinned(weights, witness, queries):
    gadget = partition_to_gs(weights)
    verdict = find_blocking_set(gadget.instance, gadget.outcome)
    assert (verdict.witness.contracts if verdict.witness else None) == witness
    choice = gadget.instance.choice
    assert (choice["f"].query_count, choice["g"].query_count) == queries
    assert (type(choice["f"]._sums) is list) == (len(choice["f"].ids) <= SIZE_GUARD)


def test_the_set_search_and_choose_mask_read_one_memo():
    # the set search reads and fills each agent's memo in place: every menu
    # it asked is then a hit through `choose_mask`, with `_select`'s answer
    for inst in (partition_to_gs((1, 1, 2, 3, 5)).instance, needle_family(3, hidden=[2, 4, 5])):
        assert not find_blocking_set(inst, frozenset()).stable
        for cf in inst.choice.values():
            asked, count = menus_asked(cf), cf.query_count
            assert 0 < len(asked) == count < 2 ** len(cf.domain)
            assert all(cf.choose_mask(menu) == cf._select(menu) for menu in asked)
            assert cf.query_count == count


def test_a_view_built_before_the_fill_reads_the_filled_table():
    # the fill writes into the memo list the kept view's searches read, so
    # nothing is evaluated or counted twice and no stale memo is left behind
    inst = needle_family(3)
    assert find_blocking_set(inst, frozenset()).stable
    view = inst.numbering.views[frozenset()]
    memos = {agent: cf._memo for agent, cf in inst.choice.items()}
    for agent, cf in inst.choice.items():
        assert cf.menu_table() is memos[agent] is cf._memo
        assert cf.query_count == 2 ** len(cf.domain)

        def refuse(menu, agent=agent):
            raise AssertionError(f"{agent} evaluated menu {menu} again")

        cf._select = refuse
    assert find_blocking_set(inst, frozenset()).stable
    assert inst.numbering.views[frozenset()] is view
    assert all(cf.query_count == 2 ** len(cf.domain) for cf in inst.choice.values())


def test_a_set_search_at_the_size_guard_keeps_its_memos_in_lists():
    # 15 unit weights, an odd total: the search scans all 2^16 - 1 blocks of
    # two 16-contract firms.  One list entry per menu, with f's table of
    # offered weights, holds 4.0 MB (3.5 MB without the table); a dict of
    # the menus asked held 11.5 MB.  A firm of more contracts still keeps a
    # dict of the menus asked, which at the set guard holds far more
    tracemalloc.start()
    try:
        gadget = partition_to_gs((1,) * 15)
        assert find_blocking_set(gadget.instance, gadget.outcome).stable
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    choice = gadget.instance.choice
    assert [len(choice[agent].domain) for agent in "fg"] == [16, 16]
    assert all(type(choice[agent]._memo) is list for agent in "fg")
    assert held <= 5 * 2**20, held
    wider = partition_to_gs((1,) * 16).instance.choice["f"]
    assert wider.choose_mask(1) == 1 and isinstance(wider._memo, dict) and wider.query_count == 1


def test_gadgets_of_one_size_share_one_network():
    # networks are immutable, so gadgets of one k share one; each instance
    # keeps its own numbering and each choice function its own memo
    first, second = partition_to_gs((1, 2, 3, 4)), partition_to_gs((2, 2, 2, 2))
    needle = needle_family(2)
    net = first.instance.network
    assert second.instance.network is net and needle.network is net
    assert first.instance.numbering is not second.instance.numbering
    assert find_blocking_set(first.instance, first.outcome).witness.contracts == ("x1", "x4", "y")
    assert first.instance.choice["f"].query_count > 0
    assert second.instance.choice["f"].query_count == needle.choice["f"].query_count == 0
    # a kept network reads and compares as one built afresh
    assert net.to_json() == {
        "agents": ["f", "g"],
        "contracts": [{"id": "y", "seller": "f", "buyer": "g"}]
        + [{"id": f"x{i}", "seller": "g", "buyer": "f"} for i in range(1, 5)],
    }
    assert net == validate_network(net.to_json())
    assert instance_from_json(first.instance.to_json()).to_json() == first.instance.to_json()


def test_a_gadget_wider_than_the_set_guard_keeps_no_network():
    k = SET_GUARD  # k + 1 contracts, one more than the set search takes
    a, b = (partition_to_gs((1,) * k).instance.network for _ in range(2))
    assert a == b and a is not b
    assert k not in oracle._NETWORKS
    assert partition_to_gs((1,) * (k - 1)).instance.network is oracle._NETWORKS[k - 1]


def test_generation_is_deterministic():
    a = generate_instance(11, "fsirc")
    b = generate_instance(11, "fsirc")
    assert a.instance.to_json() == b.instance.to_json()
    assert a.certificates == b.certificates
    c = generate_instance(12, "fsirc")
    assert c.instance.to_json() != a.instance.to_json()


def test_generation_certificates_are_real():
    from tradenet.axioms import check_instance, check_simplicity

    gen = generate_instance(3, "simple")
    assert "simplicity" in gen.certificates
    for agent in gen.instance.network.agents:
        cf = gen.instance.choice[agent]
        assert check_simplicity(cf, gen.intensities[agent]).holds
    reports = check_instance(gen.instance, ("full_substitutability", "irc"))
    assert all(r.holds for r in reports)


def _generated_digest(draws):
    digest = hashlib.sha256()
    for seed, profile, sizes in draws:
        gen = generate_instance(seed, profile, **sizes)
        record = [gen.instance.to_json(), gen.certificates, gen.intensities]
        digest.update(json.dumps(record, sort_keys=True).encode())
    return digest.hexdigest()


# seeds whose first draw at max_agents=8, max_contracts=20 gives an agent
# more than SIZE_GUARD contracts
OVERSIZE_DRAWS = (("fsirc", 10), ("separable", 19), ("acyclic", 13), ("acyclic", 23), ("ladlas", 22))


def test_generation_redraws_networks_over_the_size_guard(monkeypatch):
    drawn = []
    draw = oracle._draw_network

    def recording(*args):
        net = draw(*args)
        drawn.append(max(len(net.upstream[a] | net.downstream[a]) for a in net.agents))
        return net

    monkeypatch.setattr(oracle, "_draw_network", recording)
    for profile, seed in OVERSIZE_DRAWS:
        drawn.clear()
        gen = generate_instance(seed, profile, max_agents=8, max_contracts=20)
        assert max(drawn) > SIZE_GUARD, (profile, seed)  # the redraw was needed
        inst = gen.instance
        assert all(len(cf.domain) <= SIZE_GUARD for cf in inst.choice.values())
        axioms = [c for c in gen.certificates if c not in ("acyclic", "simplicity")]
        assert axioms and all(r.holds for r in check_instance(inst, axioms))
        assert "acyclic" not in gen.certificates or inst.network.is_acyclic()


def test_generation_is_pinned_where_no_agent_can_pass_the_size_guard():
    # at most 16 contracts (or 20 on seeds that never draw an agent over the
    # guard) the redraw never fires, so these corpora keep their instances
    plan = (("fsirc", 80), ("separable", 50), ("simple", 35), ("acyclic", 35), ("ladlas", 40))
    at_8 = [(seed, profile, {}) for profile, count in plan for seed in range(count)]
    at_16 = [
        (seed, profile, {"max_agents": 8, "max_contracts": 16})
        for profile in PROFILES
        for seed in range(25)
    ]
    at_20 = [
        (seed, profile, {"max_agents": 8, "max_contracts": 20})
        for profile in PROFILES
        for seed in range(25)
        if (profile, seed) not in OVERSIZE_DRAWS
    ]
    assert _generated_digest(at_8).startswith("d5b25338520838b6")
    assert _generated_digest(at_16).startswith("1f6474fdfdd12d6b")
    assert _generated_digest(at_20).startswith("a17fd4368d7037c7")


def test_generation_unknown_profile():
    with pytest.raises(ValueError):
        generate_instance(0, "mystery")


def test_brute_force_guard():
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
    with pytest.raises(GuardExceededError):
        brute_force_stable(inst, "set")
    message = "brute-force guard is 12 contracts, instance has 13"
    with pytest.raises(GuardExceededError, match=message):
        acceptable_outcomes(inst)
    # refused before the notion is looked at or any menu is asked
    with pytest.raises(GuardExceededError, match=message):
        brute_force_stable(inst, "mystery")
    assert all(cf.query_count == 0 for cf in inst.choice.values())
    assert "numbering" not in vars(inst)


def test_parallel_scan_matches_sequential(example1):
    for notion in ("trail", "set"):
        assert brute_force_stable(example1, notion, jobs=2) == brute_force_stable(
            example1, notion
        )


# --- brute force over joined acceptable outcomes ----------------------------


def every_outcome(inst):
    """All 2^|X| outcomes, by doubling over the sorted contract ids."""
    outcomes = [frozenset()]
    for cid in sorted(inst.contract_ids):
        outcomes += [outcome | {cid} for outcome in outcomes]
    return outcomes


def literal_scan(inst, notion):
    """Every stable outcome by the definition: all 2^|X| outcomes through
    the notion's checker."""
    hits = [o for o in every_outcome(inst) if check_notion(inst, o, notion).stable]
    return sorted(hits, key=sorted_ids)


@pytest.fixture(scope="module")
def brute_corpus(unrestricted_instance):
    """Bundled and certified instances of up to 12 contracts, and random
    preference-list instances on which most outcomes are not acceptable."""
    return (
        [bundled_instance(name) for name in BUNDLED]
        + [
            generate_instance(seed, profile, max_contracts=12).instance
            for profile in PROFILES
            for seed in range(10)
        ]
        + [unrestricted_instance(seed) for seed in range(100)]
        + [unrestricted_instance(seed, "abcd", max_contracts=10) for seed in range(40)]
    )


def test_acceptable_join_matches_literal_filter(brute_corpus):
    joined = filtered = 0
    for inst in brute_corpus:
        outcomes = acceptable_outcomes(inst)
        assert len(outcomes) == len(set(outcomes))
        literal = [o for o in every_outcome(inst) if is_acceptable(inst, o).stable]
        assert sorted(outcomes, key=sorted_ids) == sorted(literal, key=sorted_ids)
        joined += len(outcomes)
        filtered += 2 ** len(inst.contract_ids)
    assert 20 * joined < filtered  # the join skips most outcomes


def test_brute_force_matches_literal_scan(brute_corpus):
    sizes = set()
    for inst in brute_corpus:
        for notion in NOTIONS:
            found = brute_force_stable(inst, notion)
            assert found == literal_scan(inst, notion), notion
            sizes.add(len(found))
    assert 0 in sizes and max(sizes) >= 5  # both empty and crowded answers occur
    assert max(len(inst.contract_ids) for inst in brute_corpus) == 12


def test_brute_force_checks_only_acceptable_outcomes(monkeypatch, unrestricted_instance):
    inst = unrestricted_instance(3, "abcd", max_contracts=10)
    acceptable = {o for o in every_outcome(inst) if is_acceptable(inst, o).stable}
    assert len(acceptable) < 2 ** len(inst.contract_ids) / 4
    checked = []

    def recording(inst, outcome, notion):
        checked.append(frozenset(outcome))
        return check_notion(inst, outcome, notion)

    monkeypatch.setattr(stability, "check_notion", recording)
    for notion in NOTIONS:
        checked.clear()
        answer = brute_force_stable(inst, notion)
        if notion == "acceptable":
            # the joined outcomes are the answer, so none is checked again
            assert checked == []
            assert answer == sorted(acceptable, key=sorted_ids)
        else:
            assert sorted(checked, key=sorted_ids) == sorted(acceptable, key=sorted_ids)


def test_brute_force_joins_once_and_builds_one_view_per_acceptable_outcome(
    monkeypatch, unrestricted_instance
):
    joins, views = [], []
    join, init = oracle.join_states, stability.FreshView.__init__

    def counting_join(*args):
        joins.append(args)
        return join(*args)

    def counting_init(self, *args):
        views.append(args)
        init(self, *args)

    monkeypatch.setattr(oracle, "join_states", counting_join)
    monkeypatch.setattr(stability.FreshView, "__init__", counting_init)
    for inst in [bundled_instance(name) for name in BUNDLED] + [
        unrestricted_instance(3, "abcd", max_contracts=10)
    ]:
        joins.clear()
        views.clear()
        for notion in NOTIONS:
            brute_force_stable(inst, notion)
        outcomes = acceptable_outcomes(inst)
        for outcome in outcomes:
            classify_or_contradiction(inst, outcome)
        assert len(joins) == 1
        assert len(views) == len(outcomes)


def classify_or_contradiction(inst, outcome):
    """`classify`'s verdicts or, on instances without substitutability, the
    contradiction it reports together with every notion's verdict."""
    try:
        return classify(inst, outcome)
    except StabilityContradictionError as exc:
        return str(exc), {notion: check_notion(inst, outcome, notion) for notion in NOTIONS}


def test_instance_memos_change_no_answer(brute_corpus):
    # one instance asked everything against a new copy of it for each call:
    # same verdicts, witnesses, stable sets and menus asked
    for inst in brute_corpus:
        raw = inst.to_json()
        shared = instance_from_json(raw)
        outcomes = sorted(acceptable_outcomes(instance_from_json(raw)), key=sorted_ids)
        menus = {agent: set() for agent in shared.choice}
        for outcome in outcomes:
            fresh = instance_from_json(raw)
            want = classify_or_contradiction(fresh, outcome)
            for agent, cf in fresh.choice.items():
                menus[agent] |= menus_asked(cf)
            assert classify_or_contradiction(shared, outcome) == want
            assert classify_or_contradiction(shared, outcome) == want  # from the kept view
        assert {a: cf.query_count for a, cf in shared.choice.items()} == {
            a: len(m) for a, m in menus.items()
        }
        for notion in NOTIONS:
            found = brute_force_stable(shared, notion)
            assert found == brute_force_stable(instance_from_json(raw), notion), notion
        assert sorted(acceptable_outcomes(shared), key=sorted_ids) == outcomes
        for outcome in every_outcome(shared):
            check_notion(shared, outcome, "full_trail")
        assert len(shared.numbering.views) <= len(outcomes)
        returned = acceptable_outcomes(shared)
        returned.clear()
        assert sorted(acceptable_outcomes(shared), key=sorted_ids) == outcomes


def test_brute_force_unknown_notion(example1):
    with pytest.raises(ValueError, match="unknown stability notion"):
        brute_force_stable(example1, "mystery")
