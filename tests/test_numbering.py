"""The instance-wide contract numbering that the fixed-point join, the
acceptable-outcome join, the response round and the stability views run on,
checked against the tuple-row join and the frozenset round kept here as
literal references."""

from __future__ import annotations

import random

import pytest

from tradenet import fixedpoint, instances
from tradenet.errors import GuardExceededError, PreconditionError
from tradenet.fixedpoint import (
    OfferPair,
    bottom_pair,
    buyer_optimal,
    enumerate_fixed_points,
    fixed_point_outcomes,
    iterate_from,
    respond,
    terminal_lattice,
    top_pair,
)
from tradenet.instances import BUNDLED, bundled_instance, bundled_json, instance_from_json
from tradenet.network import sorted_ids, submasks
from tradenet.oracle import (
    PROFILES,
    acceptable_outcomes,
    generate_instance,
    generate_priced_instance,
)
from tradenet.stability import check_notion

# ---------------------------------------------------------------------------
# literal references
# ---------------------------------------------------------------------------


def literal_join_states(inst, rows):
    """The hash join on state tuples.  `rows(cf, bits)` lists one state per
    contract, in the order of `bits`; a partial is one tuple over the
    contracts assigned so far, keyed by the states of the agent's contracts
    already assigned.  Returns the contracts in assignment order and the
    partials."""
    order: list[str] = []
    partials: list[tuple[int, ...]] = [()]
    for cf in sorted(inst.choice.values(), key=lambda cf: (-len(cf.domain), cf.agent)):
        at = {c: i for i, c in enumerate(order)}
        own = sorted(cf.ids, key=lambda c: (c not in at, c))  # assigned ones first
        k = sum(c in at for c in own)
        table: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for st in rows(cf, [1 << cf.position[c] for c in own]):
            table.setdefault(st[:k], []).append(st[k:])
        key = [at[c] for c in own[:k]]
        partials = [p + e for p in partials for e in table.get(tuple(p[i] for i in key), ())]
        order += own[k:]
    return order, partials


def literal_side_states(cf, bits):
    """One row per menu: buyer-only (0), seller-only (1) or both (2)."""
    chosen = cf.menu_table()
    for menu in submasks(cf.up_mask | cf.down_mask):
        kept, seller_only = chosen[menu], menu ^ cf.up_mask
        # not kept: 1 if offered downstream or unoffered upstream, else 0
        yield tuple(2 if kept & b else int(bool(seller_only & b)) for b in bits)


def literal_fixed_menus(cf, bits):
    """One row per menu the agent keeps in full: 1 for a contract in it."""
    for menu, kept in enumerate(cf.menu_table()):
        if kept == menu:
            yield tuple(int(bool(menu & b)) for b in bits)


def literal_respond(inst, pair):
    """The response round on contract sets: each agent's menu is converted to
    its own mask, and its rejections back to contract ids."""
    seller_rejects: set[str] = set()
    buyer_rejects: set[str] = set()
    for cf in inst.choice.values():
        menu = cf.mask(pair.seller_side & cf.downstream | pair.buyer_side & cf.upstream)
        rejected = cf.names(menu & ~cf.choose_mask(menu))
        seller_rejects |= rejected & cf.downstream
        buyer_rejects |= rejected & cf.upstream
    everything = inst.contract_ids
    return OfferPair(everything - seller_rejects, everything - buyer_rejects)


def literal_fixed_points(inst):
    """The fixed points from the tuple-row join, each confirmed by a round,
    sorted as `enumerate_fixed_points` sorts them."""
    order, partials = literal_join_states(inst, literal_side_states)
    out = []
    for states in partials:
        buyer = frozenset(c for c, a in zip(order, states) if a != 1)
        seller = frozenset(c for c, a in zip(order, states) if a != 0)
        pair = OfferPair(buyer, seller)
        assert literal_respond(inst, pair) == pair
        out.append(pair)
    return sorted(out, key=OfferPair.sort_key)


def literal_acceptable_outcomes(inst):
    order, partials = literal_join_states(inst, literal_fixed_menus)
    joined = (frozenset(c for c, a in zip(order, states) if a) for states in partials)
    return sorted(joined, key=sorted_ids)


# ---------------------------------------------------------------------------
# the numbered join and round against the references
# ---------------------------------------------------------------------------


def _corpus(unrestricted_instance):
    """The bundled files, `generate_instance` for every profile with
    `max_contracts` 6-12, criterion 09's 50 priced grids, and random
    preference-list instances, whose rounds leave the monotone path."""
    yield from (bundled_instance(name) for name in BUNDLED)
    for profile in PROFILES:
        for size in range(6, 13):
            for seed in range(3):
                yield generate_instance(seed, profile, max_contracts=size).instance
    for seed in range(50):
        yield generate_priced_instance(seed).instance
    for seed in range(20):
        yield unrestricted_instance(seed, "abcd", max_contracts=9)


def _query_counts(inst):
    return {agent: cf.query_count for agent, cf in inst.choice.items()}


def test_numbered_join_and_round_match_the_literal_ones(unrestricted_instance):
    sizes = set()
    for inst in _corpus(unrestricted_instance):
        raw = inst.to_json()
        numbered, literal = instance_from_json(raw), instance_from_json(raw)
        sizes.add(len(numbered.contract_ids))
        # rounds first, on empty caches, so that the counts compare the menus asked
        for end in (top_pair, bottom_pair):
            assert respond(numbered, end(numbered)) == literal_respond(literal, end(literal))
        assert _query_counts(numbered) == _query_counts(literal)
        fixed = literal_fixed_points(literal)
        assert [r.pair for r in enumerate_fixed_points(numbered)] == fixed, raw
        assert sorted(acceptable_outcomes(numbered), key=sorted_ids) == (
            literal_acceptable_outcomes(literal)
        ), raw
        for pair in fixed:
            assert respond(numbered, pair) == literal_respond(literal, pair) == pair
        assert _query_counts(numbered) == _query_counts(literal)
    assert {6, 9, 12} <= sizes


def test_the_numbering_spans_several_bytes():
    # 20 contracts among three agents, each agent's spread over all three
    # bytes of the instance mask, so that gathers and scatters shift
    ids = [f"c{i:02d}" for i in range(20)]
    sides = [("a", "b"), ("b", "c"), ("a", "c"), ("c", "a")]
    contracts = [
        {"id": c, "seller": sides[i % 4][0], "buyer": sides[i % 4][1]} for i, c in enumerate(ids)
    ]
    rng = random.Random(5)
    choice_functions = []
    for agent in "abc":
        own = [c["id"] for c in contracts if agent in (c["seller"], c["buyer"])]
        ranking = [sorted(rng.sample(own, rng.randint(1, 6))) for _ in range(8)]
        choice_functions.append({"agent": agent, "type": "preference_list", "ranking": ranking})
    raw = {"agents": ["a", "b", "c"], "contracts": contracts, "choice_functions": choice_functions}
    numbered, literal = instance_from_json(raw), instance_from_json(raw)
    pairs = [top_pair(numbered), bottom_pair(numbered)] + [
        OfferPair(frozenset(rng.sample(ids, 12)), frozenset(rng.sample(ids, 12))) for _ in range(40)
    ]
    for pair in pairs:
        assert respond(numbered, pair) == literal_respond(literal, pair)
    assert _query_counts(numbered) == _query_counts(literal)
    assert [len(parts) for *_, parts in numbered.numbering.agents] == [3, 3, 3]


def test_a_packed_sum_holds_each_agents_mask_in_its_lane(unrestricted_instance):
    # for any set of positions, each agent's lane of their summed `packed`
    # ints is that agent's own mask of the set: on small instances and on a
    # 40-contract hub whose lanes end past 64 bits
    contracts = []
    for i in range(40):
        seller, buyer = ("h", "ab"[i % 2]) if i % 3 else ("ab"[i % 2], "h")
        contracts.append({"id": f"h{i:02d}", "seller": seller, "buyer": buyer})
    hub = instance_from_json({
        "agents": ["a", "b", "h"],
        "contracts": contracts,
        "choice_functions": [{"agent": a, "type": "preference_list", "ranking": []} for a in "abh"],
    })
    corpus = [hub] + [bundled_instance(name) for name in BUNDLED]
    corpus += [unrestricted_instance(seed) for seed in range(20)]
    rng = random.Random(7)
    for inst in corpus:
        num = inst.numbering
        for size in [0, 1, num.n] + [rng.randint(0, num.n) for _ in range(40)]:
            positions = rng.sample(range(num.n), size)
            total = sum(num.packed[i] for i in positions)
            names = [num.ids[i] for i in positions]
            for agent, (shift, mask) in num.lane.items():
                assert total >> shift & mask == inst.choice[agent].mask(names)
    assert max(shift + mask.bit_length() for shift, mask in hub.numbering.lane.values()) == 80


# ---------------------------------------------------------------------------
# what the instance keeps
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "first",
    [
        lambda inst: respond(inst, top_pair(inst)),
        buyer_optimal,
        enumerate_fixed_points,
        acceptable_outcomes,
        lambda inst: check_notion(inst, frozenset(), "full_trail"),
    ],
    ids=["respond", "buyer_optimal", "enumerate_fixed_points", "acceptable_outcomes", "stability"],
)
def test_numbering_is_built_on_the_first_join_or_round(first):
    instances._byte_tables.cache_clear()
    inst = instance_from_json(bundled_json("example2"))
    assert "numbering" not in vars(inst)
    assert instances._byte_tables.cache_info().currsize == 0  # no gather table either
    first(inst)
    num = vars(inst)["numbering"]
    assert isinstance(num, instances.Numbering)
    assert num.ids == sorted(inst.contract_ids)
    assert [cf for cf, *_ in num.agents] == list(inst.choice.values())
    assert instances._byte_tables.cache_info().currsize > 0
    # each position's agents and each agent's local bits, looked up by id
    net = inst.network
    assert num.seller == [net.contract(c).seller for c in num.ids]
    assert num.buyer == [net.contract(c).buyer for c in num.ids]
    local = {a: [1 << cf.position[c] if c in cf.position else 0 for c in num.ids]
             for a, cf in inst.choice.items()}
    assert {a: [p >> shift & mask for p in num.packed]
            for a, (shift, mask) in num.lane.items()} == local


def test_fixed_points_are_joined_once_per_instance(monkeypatch):
    joins = []
    join = fixedpoint.join_states

    def counting(inst, rows):
        joins.append((inst, rows))
        return join(inst, rows)

    monkeypatch.setattr(fixedpoint, "join_states", counting)
    for name in BUNDLED:
        joins.clear()
        inst = bundled_instance(name)
        first = enumerate_fixed_points(inst)
        first.clear()  # a returned list is the caller's own
        again = enumerate_fixed_points(inst)
        assert again and again == enumerate_fixed_points(instance_from_json(inst.to_json()))
        fixed_point_outcomes(inst)
        if name == "example2":
            terminal_lattice(inst)
        assert joins.count((inst, fixedpoint._side_states)) == 1


def test_enumeration_guard_refuses_before_any_menu_or_numbering():
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
    for _ in range(2):
        with pytest.raises(GuardExceededError, match="enumeration guard"):
            enumerate_fixed_points(inst)
    assert _query_counts(inst) == {"a": 0, "b": 0}
    assert "numbering" not in vars(inst)


def test_iteration_refuses_a_start_naming_unknown_contracts(example1):
    start = top_pair(example1)
    with pytest.raises(PreconditionError, match="lacks"):
        iterate_from(example1, OfferPair(start.buyer_side | {"nowhere"}, start.seller_side))
    # the round refuses such a pair too, where it once read past the unknown id
    with pytest.raises(PreconditionError, match="lacks"):
        respond(example1, OfferPair(start.buyer_side | {"nowhere"}, frozenset()))
