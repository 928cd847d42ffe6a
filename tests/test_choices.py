from __future__ import annotations

import itertools
import random
import tracemalloc

import pytest

from tradenet.choices import (
    ChoiceFunction,
    NeedleChoiceF,
    PartitionChoiceF,
    PartitionChoiceG,
    PreferenceListChoice,
    QuotaChoice,
    ReservationChoice,
    SeparableIntensityChoice,
    SimpleIntensityChoice,
    build_family,
    contract_id,
    is_individually_rational,
    is_rational,
    is_rational_pair,
    split_contract_id,
)
from tradenet.errors import ChoiceFunctionError, GuardExceededError
from tradenet.guards import SIZE_GUARD
from tradenet.instances import BUNDLED, bundled_instance, instance_from_json
from tradenet.network import subsets
from tradenet.oracle import (
    PROFILES,
    generate_instance,
    generate_priced_instance,
    needle_family,
    partition_to_gs,
)


def test_preference_list_best_contained_set(example1):
    j = example1.choice["j"]
    assert j.choose({"x", "y", "w", "z"}) == {"x", "y", "w"}
    assert j.choose({"y", "w"}) == {"w"}
    assert j.choose(set()) == frozenset()


def test_choose_drops_foreign_contracts(example1):
    k = example1.choice["k"]
    assert k.choose({"z", "y", "w", "x"}) == {"z", "y"}  # w, x are not k's


def test_chosen_upstream_conditioning(example1):
    j = example1.choice["j"]
    # j's best subset inside {y, z} is {z, y}; keep the upstream part
    assert j.chosen_upstream({"y"}, {"z"}) == {"y"}
    assert j.chosen_upstream(set(), {"x", "z"}) == frozenset()
    assert j.rejected_downstream({"z"}, {"y"}) == frozenset()


def test_rejections_complement_choices(example1):
    j = example1.choice["j"]
    ups = sorted(j.upstream)
    downs = sorted(j.downstream)
    for r_up in range(len(ups) + 1):
        for up in itertools.combinations(ups, r_up):
            for r_down in range(len(downs) + 1):
                for down in itertools.combinations(downs, r_down):
                    up, down = frozenset(up), frozenset(down)
                    assert j.chosen_upstream(up, down) | j.rejected_upstream(up, down) == up
                    assert j.chosen_downstream(down, up) | j.rejected_downstream(down, up) == down


def test_choice_splits_into_side_parts(example1):
    for agent, cf in example1.choice.items():
        pool = sorted(cf.domain)
        for r in range(len(pool) + 1):
            for menu in itertools.combinations(pool, r):
                menu = frozenset(menu)
                up_part = cf.chosen_upstream(menu, menu)
                down_part = cf.chosen_downstream(menu, menu)
                assert cf.choose(menu) == up_part | down_part
                assert not up_part & down_part


def test_separable_intensity_matches_sides():
    cf = SeparableIntensityChoice("f", ["u1", "u2"], ["d1"])
    assert cf.choose({"u1", "u2", "d1"}) == {"u1", "d1"}
    assert cf.choose({"u2", "d1"}) == {"u2", "d1"}
    assert cf.choose({"u1", "u2"}) == frozenset()


def test_simple_intensity_picks_extremes():
    cf = SimpleIntensityChoice(
        "f", {"u1", "u2"}, {"d1", "d2"}, {"u1": 5.0, "u2": 9.0, "d1": 1.0, "d2": 7.0}
    )
    assert cf.choose({"u1", "u2", "d1", "d2"}) == {"u2", "d1"}
    assert cf.choose({"u1", "d2"}) == frozenset()  # 5 < 7, no profitable pair
    assert cf.choose({"u1"}) == frozenset()


def test_simple_intensity_requires_distinct_values():
    with pytest.raises(ChoiceFunctionError, match="distinct"):
        SimpleIntensityChoice("f", {"a"}, {"b"}, {"a": 1.0, "b": 1.0})


def test_simple_intensity_requires_finite_values():
    # NaN compares false with everything, so such an agent would never trade
    for bad in (float("nan"), float("inf"), -float("inf"), 10**400):
        with pytest.raises(ChoiceFunctionError, match="finite"):
            SimpleIntensityChoice("f", {"a"}, {"b"}, {"a": bad, "b": 1.0})


def test_quota_choice():
    cf = QuotaChoice("b", {"u1", "u2", "u3"}, set(), ["u2", "u1"], quota=1)
    assert cf.choose({"u1", "u3"}) == {"u1"}
    assert cf.choose({"u2", "u1"}) == {"u2"}
    assert cf.choose({"u3"}) == frozenset()  # unlisted means unacceptable


def test_partition_f_threshold():
    ids = {"x1", "x2"}
    cf = PartitionChoiceF("f", ids, {"y"}, (1, 1))
    assert cf.choose({"x1", "y"}) == {"x1", "y"}  # weight 1 reaches half of 2
    assert cf.choose({"y"}) == frozenset()
    assert cf.choose({"x1", "x2", "y"}) == {"x1", "x2", "y"}
    heavy = PartitionChoiceF("f", ids, {"y"}, (1, 3))
    assert heavy.choose({"x1", "y"}) == {"x1"}  # weight 1 below half of 4


def test_partition_g_prefix():
    ids = {"x1", "x2", "x3"}
    cf = PartitionChoiceG("g", {"y"}, ids, (1, 2, 3))
    assert cf.choose({"x1", "x2", "x3"}) == frozenset()  # inactive without y
    assert cf.choose({"y", "x1", "x2"}) == {"y", "x1", "x2"}  # weight 3 <= half of 6
    # prefix stops once the running weight would pass half
    assert cf.choose({"y", "x1", "x2", "x3"}) == {"y", "x1", "x2"}
    assert cf.choose({"y", "x3"}) == {"y", "x3"}


def _unpadded_gadget(f_desc, g_weights):
    """Firm g sells x1..x12 to f, which sells y back: ids whose id order
    (x1, x10, x11, x12, x2, ..., x9) is not the order of their suffixes."""
    xs = [f"x{i}" for i in range(1, 13)]
    return instance_from_json({
        "agents": ["f", "g"],
        "contracts": [{"id": "y", "seller": "f", "buyer": "g"}]
        + [{"id": x, "seller": "g", "buyer": "f"} for x in xs],
        "choice_functions": [dict(f_desc, agent="f"),
                             {"agent": "g", "type": "partition_g", "weights": g_weights}],
    })


def test_gadget_files_index_parallel_contracts_in_id_order():
    weights = list(range(1, 13))  # the i-th weight goes to the i-th id: x10 weighs 2
    inst = _unpadded_gadget({"type": "partition_f", "weights": weights}, weights)
    f, g = inst.choice["f"], inst.choice["g"]
    # x6..x9 weigh 9 + 10 + 11 + 12 = 42 of 78 by id order (30 by suffix)
    assert f.choose({"y", "x6", "x7", "x8", "x9"}) == {"y", "x6", "x7", "x8", "x9"}
    assert f.choose({"y", "x3", "x4", "x5", "x6"}) == {"x3", "x4", "x5", "x6"}  # 6+7+8+9
    # g's prefix runs x1, x10, x11, x12, x2, ..., x5 (weights 1..8, 36 of 78)
    # and stops at x6, whose weight 9 would pass half
    everything = inst.contract_ids
    assert g.choose(everything) == {"y", "x1", "x10", "x11", "x12", "x2", "x3", "x4", "x5"}
    assert inst.to_json()["choice_functions"][1]["weights"] == weights

    hidden = [2, 3, 4, 5, 6, 7]  # x10, x11, x12, x2, x3, x4
    needle = _unpadded_gadget({"type": "needle_f", "n": 6, "hidden": hidden}, [1] * 12)
    f = needle.choice["f"]
    planted = {"x10", "x11", "x12", "x2", "x3", "x4"}
    assert f.choose(planted | {"y"}) == planted | {"y"}
    by_suffix = {"x2", "x3", "x4", "x5", "x6", "x7"}
    assert f.choose(by_suffix | {"y"}) == by_suffix
    assert f.to_json()["hidden"] == hidden


def test_grid_ids_read_trade_at_price():
    assert split_contract_id("t1@4") == ("t1", 4)
    assert split_contract_id("a@b@-2") == ("a@b", -2)
    for cid in ("x", "t@x", "t@01", "t@+1", "t@ 1", "t@"):
        with pytest.raises(ChoiceFunctionError, match="must read trade@price"):
            split_contract_id(cid)


def test_build_family_from_json(example1):
    net = example1.network
    cf = build_family(
        net,
        {
            "agent": "j",
            "type": "preference_list",
            "ranking": [["x", "y", "w"], ["z", "y", "w"], ["x", "y"], ["z", "y"], ["w"]],
        },
    )
    for menu_size in range(5):
        for menu in itertools.combinations(sorted(cf.domain), menu_size):
            assert cf.choose(menu) == example1.choice["j"].choose(menu)


def test_build_family_unit_demand(example1):
    net = example1.network
    cf = build_family(net, {"agent": "i", "type": "unit_demand", "order": ["x"]})
    assert cf.choose({"x"}) == {"x"}


def test_build_family_errors(example1):
    net = example1.network
    with pytest.raises(ChoiceFunctionError, match="not part of"):
        build_family(net, {"agent": "i", "type": "preference_list", "ranking": [["y"]]})
    with pytest.raises(ChoiceFunctionError, match="missing"):
        build_family(net, {"agent": "i", "type": "simple_intensity", "intensity": {}})
    with pytest.raises(ChoiceFunctionError, match="unknown choice family"):
        build_family(net, {"agent": "i", "type": "mystery"})
    with pytest.raises(ChoiceFunctionError, match="unknown parameters"):
        build_family(
            net, {"agent": "i", "type": "unit_demand", "order": ["x"], "bonus": 1}
        )


def test_memoization_is_invisible(example1):
    fresh = build_family(
        example1.network, example1.choice["j"].to_json()
    )
    warmed = example1.choice["j"]
    menus = [frozenset(), {"x"}, {"x", "y"}, {"x", "y", "w", "z"}]
    warm_results = [warmed.choose(m) for m in menus]
    assert [fresh.choose(m) for m in menus] == warm_results
    assert [warmed.choose(m) for m in menus] == warm_results  # cache hits agree


def test_choice_idempotent_on_validated_instances(example1, example2):
    # consistency of repeated choice under the shipped (IRC-satisfying) families
    for inst in (example1, example2):
        for cf in inst.choice.values():
            pool = sorted(cf.domain)
            for r in range(len(pool) + 1):
                for menu in itertools.combinations(pool, r):
                    chosen = cf.choose(menu)
                    assert cf.choose(chosen) == chosen


def test_rational_pair(example2):
    j = example2.choice["j"]
    assert is_rational_pair(j, "w", "z", frozenset())  # kept together, not alone
    assert not is_rational(j, {"w"}, frozenset())
    assert is_rational(j, {"w", "z"}, frozenset())
    with pytest.raises(ChoiceFunctionError, match="upstream and one downstream"):
        is_rational_pair(j, "w", "y", frozenset())  # both upstream


def test_empty_set_always_rational(example1):
    for cf in example1.choice.values():
        assert is_rational(cf, frozenset(), frozenset())
        assert is_rational(cf, frozenset(), cf.domain)


def test_individual_rationality_is_empty_conditioning(example1):
    j = example1.choice["j"]
    pool = sorted(j.domain)
    for r in range(len(pool) + 1):
        for menu in itertools.combinations(pool, r):
            menu = frozenset(menu)
            assert is_individually_rational(j, menu) == is_rational(j, menu, frozenset())


def test_path_independence_one_sided_agents(example1):
    # choosing from a pre-chosen part looks the same as choosing from the whole;
    # plain-set substitutability only holds agent-wide for one-sided agents
    for cf in example1.choice.values():
        if cf.upstream and cf.downstream:
            continue
        pool = sorted(cf.domain)
        for r1 in range(len(pool) + 1):
            for left in itertools.combinations(pool, r1):
                for r2 in range(len(pool) + 1):
                    for right in itertools.combinations(pool, r2):
                        left_s, right_s = frozenset(left), frozenset(right)
                        assert cf.choose(left_s | right_s) == cf.choose(
                            left_s | cf.choose(right_s)
                        )


def test_path_independence_one_sided_generated():
    from tradenet.oracle import generate_instance

    for seed in range(8):
        inst = generate_instance(seed, "fsirc").instance
        for cf in inst.choice.values():
            if cf.upstream and cf.downstream:
                continue
            pool = sorted(cf.domain)
            for r1 in range(len(pool) + 1):
                for left in itertools.combinations(pool, r1):
                    for r2 in range(len(pool) + 1):
                        for right in itertools.combinations(pool, r2):
                            left_s, right_s = frozenset(left), frozenset(right)
                            assert cf.choose(left_s | right_s) == cf.choose(
                                left_s | cf.choose(right_s)
                            )


def test_path_independence_per_side(example1):
    # with the other side's availability held fixed, each side of a two-sided
    # agent is substitutable, so the same collapse works side by side
    for cf in example1.choice.values():
        ups = sorted(cf.upstream)
        downs = sorted(cf.downstream)
        for r_d in range(len(downs) + 1):
            for down in itertools.combinations(downs, r_d):
                down = frozenset(down)
                for r1 in range(len(ups) + 1):
                    for left in itertools.combinations(ups, r1):
                        for r2 in range(len(ups) + 1):
                            for right in itertools.combinations(ups, r2):
                                left_s, right_s = frozenset(left), frozenset(right)
                                pre = cf.chosen_upstream(right_s, down)
                                assert cf.chosen_upstream(
                                    left_s | right_s, down
                                ) == cf.chosen_upstream(left_s | pre, down)


def test_preference_list_restrict(example1):
    j = example1.choice["j"]
    small = j.restrict({"w", "x", "y"})
    assert small.choose({"x", "y", "w"}) == {"x", "y", "w"}
    for menu in ({"w"}, {"x", "y"}, {"y", "w"}):
        assert small.choose(menu) == j.choose(menu)


# ---------------------------------------------------------------------------
# literal frozenset selectors: the references for the mask selectors
# ---------------------------------------------------------------------------


def literal_preference_list(cf, menu):
    for entry in cf.ranking:
        if entry <= menu:
            return entry
    return frozenset()


def literal_separable_intensity(cf, menu):
    ups = [c for c in cf.upstream_order if c in menu]
    downs = [c for c in cf.downstream_order if c in menu]
    take = min(len(ups), len(downs))
    return frozenset(ups[:take]) | frozenset(downs[:take])


def literal_simple_intensity(cf, menu):
    ups = menu & cf.upstream
    downs = menu & cf.downstream
    if not ups or not downs:
        return frozenset()
    best_up = max(ups, key=lambda c: (cf.intensity[c], c))
    best_down = min(downs, key=lambda c: (cf.intensity[c], c))
    if cf.intensity[best_up] > cf.intensity[best_down]:
        return frozenset({best_up, best_down})
    return frozenset()


def literal_quota(cf, menu):
    return frozenset([c for c in cf.order if c in menu][: cf.quota])


def _indexed(parallel, menu):
    """(index, id) of each offered parallel contract; index i is the i-th id
    of the side in sorted order."""
    return [(i, cid) for i, cid in enumerate(sorted(parallel), 1) if cid in menu]


def literal_partition_f(cf, menu):
    (lone,) = cf.downstream
    idx = _indexed(cf.upstream, menu)
    ups = frozenset(cid for _, cid in idx)
    offered_weight = sum(cf.weights[i - 1] for i, _ in idx)
    if lone in menu and 2 * offered_weight >= cf.double_threshold:
        return ups | {lone}
    return ups


def literal_partition_g(cf, menu):
    (lone,) = cf.upstream
    if lone not in menu:
        return frozenset()
    kept = []
    running = 0
    for i, cid in _indexed(cf.downstream, menu):
        running += cf.weights[i - 1]
        if 2 * running > cf.double_threshold:
            break
        kept.append(cid)
    return frozenset(kept) | {lone}


def literal_needle_f(cf, menu):
    (lone,) = cf.downstream
    idx = _indexed(cf.upstream, menu)
    ups = frozenset(cid for _, cid in idx)
    offered = frozenset(i for i, _ in idx)
    take_down = len(idx) >= cf.n + 1 or (cf.hidden is not None and offered == cf.hidden)
    if lone in menu and take_down:
        return ups | {lone}
    return ups


def _literal_side_pick(offers, book, cap, buying):
    best = {}  # trade -> best offered (price, id)
    for cid in offers:
        trade, price = split_contract_id(cid)
        held = best.get(trade)
        if held is None or (price < held[0] if buying else price > held[0]):
            best[trade] = (price, cid)
    scored = []
    for trade, (price, cid) in best.items():
        margin = book[trade] - price if buying else price - book[trade]
        if margin >= 0:
            scored.append((-margin, trade, cid))
    scored.sort()
    if cap is not None:
        scored = scored[:cap]
    return frozenset(cid for _, _, cid in scored)


def literal_reservation(cf, menu):
    return _literal_side_pick(
        menu & cf.upstream, cf.values, cf.capacity_buy, True
    ) | _literal_side_pick(menu & cf.downstream, cf.costs, cf.capacity_sell, False)


LITERAL = {
    "preference_list": literal_preference_list,
    "separable_intensity": literal_separable_intensity,
    "simple_intensity": literal_simple_intensity,
    "quota": literal_quota,
    "partition_f": literal_partition_f,
    "partition_g": literal_partition_g,
    "needle_f": literal_needle_f,
    "reservation": literal_reservation,
}


def _selector_corpus(unrestricted_instance):
    rng = random.Random(17)
    instances = [bundled_instance(name) for name in BUNDLED]
    instances += [generate_instance(seed, p).instance for p in PROFILES for seed in range(12)]
    instances += [unrestricted_instance(seed) for seed in range(40)]
    weights = [(1,), (3, 3), (1, 1, 4), (1, 1, 1, 2, 2, 3), (5, 5, 5, 5),
               (1, 2, 3, 4, 5, 6, 7), (2, 2, 3, 5, 7, 9, 10, 10)]
    instances += [partition_to_gs(w).instance for w in weights]
    for n in range(1, 5):
        instances.append(needle_family(n))
        for hidden in itertools.combinations(range(1, 2 * n + 1), n):
            if n <= 2 or rng.random() < 0.1:
                instances.append(needle_family(n, hidden))
    for inst in instances:
        yield from (inst.choice[a] for a in sorted(inst.network.agents))
    ids = [f"c{i}" for i in range(6)]
    for _ in range(40):
        up = set(rng.sample(ids, rng.randint(1, 5)))
        ranking = [m for m in subsets(ids) if rng.random() < 0.15]
        rng.shuffle(ranking)
        yield PreferenceListChoice("f", up, set(ids) - up, ranking)
        intensity = dict(zip(ids, rng.sample(range(len(ids) + 2), len(ids))))
        yield SimpleIntensityChoice("f", up, set(ids) - up, intensity)
        order = rng.sample(ids, rng.randint(0, len(ids)))
        yield QuotaChoice("f", set(ids), set(), order, rng.randint(1, 4))
    for seed in range(20):
        priced = generate_priced_instance(seed)
        for cf in priced.instance.choice.values():
            yield cf
            caps = (rng.randint(1, 2), rng.randint(1, 2))
            yield ReservationChoice(cf.agent, cf.upstream, cf.downstream,
                                    cf.values, cf.costs, *caps)
    # hubs of up to 9 contracts with 1-5 on each side, orders shuffled
    for n_up, n_down in itertools.product(range(1, 6), repeat=2):
        up_order = [f"u{i}" for i in range(n_up)]
        down_order = [f"d{i}" for i in range(n_down)]
        for _ in range(2 if n_up + n_down <= 9 else 0):
            rng.shuffle(up_order)
            rng.shuffle(down_order)
            yield SeparableIntensityChoice("h", up_order, down_order)
    # reservation firms with 3-4 prices per trade: ta and tb tie on their best
    # margin (the trade id breaks it), as do td and te, and every price of tc
    # and tf has a negative margin
    for cap in (1, 2, 3):
        lo = rng.randint(0, 3)
        buys = _grid("ta", lo, 3) + _grid("tb", lo + 1, 4) + _grid("tc", lo, 3)
        sells = _grid("td", lo, 3) + _grid("te", lo + 1, 3) + _grid("tf", lo, 3)
        values = {"ta": lo + 4, "tb": lo + 5, "tc": lo - 1}
        costs = {"td": lo + 1, "te": lo + 2, "tf": lo + 3}
        yield ReservationChoice("r", buys, [], values, {}, cap, None)
        yield ReservationChoice("r", [], sells, {}, costs, None, cap)
        yield ReservationChoice("r", buys[:3] + buys[7:], sells[:6], values, costs, cap, 4 - cap)


def _grid(trade, lo, count):
    return [contract_id(trade, p) for p in range(lo, lo + count)]


def test_mask_selectors_match_literal_selectors(unrestricted_instance):
    families = set()
    for cf in _selector_corpus(unrestricted_instance):
        literal = LITERAL[cf.family]
        families.add(cf.family)
        table = cf.menu_table()  # one evaluation per menu
        assert cf.query_count == len(table) == 2 ** len(cf.domain), cf.to_json()
        for menu in subsets(cf.domain):
            expected = literal(cf, menu)
            assert cf.names(cf._select(cf.mask(menu))) == expected, (cf.to_json(), menu)
            assert cf.names(table[cf.mask(menu)]) == expected, (cf.to_json(), menu)
            assert cf.choose(menu) == expected, (cf.to_json(), menu)
    assert families == set(LITERAL)


def test_a_filled_table_is_the_one_memo(unrestricted_instance):
    # menus asked before the fill are not kept twice: afterwards the function
    # holds the table and no dict keyed by menu
    for cf in _selector_corpus(unrestricted_instance):
        cf.choose_mask(0)
        table = cf.menu_table()
        memos = [v for v in vars(cf).values() if isinstance(v, dict) and 0 in v]
        assert memos == [], cf.to_json()
        assert cf.query_count == 2 ** len(cf.domain), cf.to_json()
        assert all(cf.choose_mask(m) == chosen for m, chosen in enumerate(table)), cf.to_json()
        assert cf.query_count == 2 ** len(cf.domain), cf.to_json()


def test_the_memo_list_is_made_at_the_first_ask():
    # a function never asked holds no list, so loading many agents of up to
    # 16 contracts allocates no 2^|domain| entries each
    ids = [f"c{i:02d}" for i in range(SIZE_GUARD)]
    cf = QuotaChoice("b", ids, [], ids, quota=2)
    assert cf.query_count == 0 and cf._memo is None
    assert cf.choose_mask(0b111) == 0b11 and cf.query_count == 1
    assert type(cf._memo) is list and len(cf._memo) == 2**SIZE_GUARD


def test_a_function_past_the_size_guard_keeps_the_menus_asked_and_no_table():
    ids = [f"c{i:02d}" for i in range(SIZE_GUARD + 1)]
    cf = QuotaChoice("b", ids, [], ids, quota=2)
    assert cf.choose(ids[3:]) == {"c03", "c04"}
    assert cf.choose_mask(0b1010) == 0b1010 and cf.choose_mask(0b1010) == 0b1010
    assert cf.query_count == 2 and sorted(cf._memo) == [0b1010, 0b11111111111111000]
    with pytest.raises(GuardExceededError, match=f"b has 17 contracts, guard is {SIZE_GUARD}"):
        cf.menu_table()
    assert cf.query_count == 2


def test_choose_is_a_conversion_around_choose_mask(unrestricted_instance):
    # one memo: a menu asked again, through either door or with foreign
    # contracts alongside, evaluates nothing new
    for cf in _selector_corpus(unrestricted_instance):
        for menu in subsets(cf.domain):
            chosen = cf.choose(menu)
            assert chosen == cf.names(cf.choose_mask(cf.mask(menu))), (cf.to_json(), menu)
            asked = cf.query_count
            assert cf.choose(menu) == chosen
            assert cf.choose(set(menu) | {"foreign"}) == chosen
            assert cf.query_count == asked


class Overreach(ChoiceFunction):
    """Keeps every offered contract, and `extra` besides."""

    family = "overreach"

    def __init__(self, agent, upstream, downstream, extra):
        super().__init__(agent, upstream, downstream)
        self.extra = extra

    def _select(self, menu):
        return menu | self.extra


def test_choose_rejects_contracts_outside_the_menu():
    cf = Overreach("f", {"a"}, {"b"}, extra=0b10)  # b, whether offered or not
    assert cf.choose({"a", "b"}) == {"a", "b"}
    with pytest.raises(ChoiceFunctionError, match="outside the menu"):
        cf.choose({"a"})
    with pytest.raises(ChoiceFunctionError, match="outside the menu"):
        cf.choose_mask(0)
    assert cf.query_count == 1  # a refused answer is not cached
    beyond = Overreach("f", {"a"}, {"b"}, extra=0b100)  # not even in the domain
    with pytest.raises(ChoiceFunctionError, match="outside the menu"):
        beyond.choose({"a", "b"})
    assert beyond.query_count == 0
    # the fill refuses the same answer and keeps no table
    for cf in (Overreach("f", {"a"}, {"b"}, extra=0b10), beyond):
        for _ in range(2):
            with pytest.raises(ChoiceFunctionError, match="outside the menu"):
                cf.menu_table()
            assert cf.query_count == 0


def test_masks_number_the_domain_in_id_order():
    cf = QuotaChoice("f", {"u2", "u10", "a"}, set(), ["u10", "a"], quota=2)
    assert cf.ids == ["a", "u10", "u2"]
    assert cf.mask({"u2", "a", "foreign"}) == 0b101
    assert cf.names(0b110) == {"u10", "u2"}
    assert cf.choose_mask(0b111) == 0b011
    assert cf.choose({"a", "u2"}) == {"a"}
    assert cf.query_count == 2


def _wide_corpus(rng):
    """One function of each family with more than 64 positions, ids named so
    that id order differs from the order they are listed in."""
    ids = [f"c{i}" for i in range(100)]
    yield QuotaChoice("b", ids, [], rng.sample(ids, 90), quota=7)
    ups, downs = [f"u{i}" for i in range(40)], [f"d{i}" for i in range(40)]
    yield SeparableIntensityChoice("h", rng.sample(ups, 40), rng.sample(downs, 40))
    intensity = dict(zip(ups[:35] + downs[:35], rng.sample(range(1000), 70)))
    yield SimpleIntensityChoice("h", ups[:35], downs[:35], intensity)
    ranking = [rng.sample(ups + downs, rng.randint(1, 4)) for _ in range(60)]
    yield PreferenceListChoice("h", ups, downs, list({frozenset(r): r for r in ranking}.values()))
    weights = sorted(rng.randint(1, 50) for _ in range(70))
    yield from partition_to_gs(weights).instance.choice.values()
    hidden = rng.sample(range(1, 71), 35)
    yield from needle_family(35, hidden).choice.values()
    yield NeedleChoiceF("f", [f"x{i}" for i in range(1, 71)], ["y"], 35)
    buys = [contract_id(t, p) for t in ("ta", "tb", "tc") for p in range(25)]
    sells = [contract_id(t, p) for t in ("td", "te") for p in range(20)]
    yield ReservationChoice("r", buys, sells, {"ta": 10, "tb": 12, "tc": 30},
                            {"td": 8, "te": 15}, 2, None)


def _wide_menus(rng, cf):
    """Seeded random menus of `cf`, sparse to dense, plus the planted needle."""
    pool = sorted(cf.domain)
    for density in (0.02, 0.1, 0.3, 0.5, 0.7, 0.9):
        for _ in range(40):
            yield frozenset(c for c in pool if rng.random() < density)
    if cf.family == "needle_f" and cf.hidden is not None:
        parallel = sorted(cf.upstream)
        planted = frozenset(parallel[i - 1] for i in cf.hidden)
        yield planted | cf.downstream
        yield planted


def test_wide_agents_match_literal_selectors():
    # every family past 64 positions, where a bit no longer fits a machine word
    rng = random.Random(2024)
    families = set()
    for cf in _wide_corpus(rng):
        assert len(cf.ids) > 64, cf.family
        families.add(cf.family)
        literal = LITERAL[cf.family]
        for menu in _wide_menus(rng, cf):
            expected = literal(cf, menu)
            assert cf.names(cf.choose_mask(cf.mask(menu))) == expected, (cf.family, sorted(menu))
            assert cf.choose(menu) == expected
    assert families == set(LITERAL)


def _family_at_size(family, n):
    """One `family` function on n contracts (n even), built from plain lists."""
    ids = [f"c{i}" for i in range(n)]
    half = n // 2
    if family == "quota":
        return QuotaChoice("b", ids, [], ids[::-1], quota=3)
    if family == "separable_intensity":
        return SeparableIntensityChoice("h", ids[:half], ids[half:])
    if family == "simple_intensity":
        return SimpleIntensityChoice("h", ids[:half], ids[half:], dict(zip(ids, range(n))))
    if family == "preference_list":
        return PreferenceListChoice("h", ids[:half], ids[half:], [ids[:3], ids[-2:]])
    if family == "partition_f":
        return PartitionChoiceF("f", ids[1:], ids[:1], [1] * (n - 1))
    if family == "partition_g":
        return PartitionChoiceG("g", ids[:1], ids[1:], [1] * (n - 1))
    if family == "needle_f":
        return NeedleChoiceF("f", ids[2:], ids[:1], half - 1)
    grid = [contract_id("t", p) for p in range(n)]
    return ReservationChoice("r", grid[:half], grid[half:], {"t": n}, {"t": 0})


def test_a_function_loads_in_linear_memory():
    # four times the contracts: a linear load peaks about 4x higher, and a
    # per-contract int as wide as the agent about 16x (9-12x at these sizes).
    # A 2x step is too short to tell: dicts and sets grow their tables in
    # powers of two, so a linear quota load read 2.8x from 10,000 to 20,000
    for family in LITERAL:
        peaks = []
        for n in (5_000, 20_000):
            tracemalloc.start()
            try:
                cf = _family_at_size(family, n)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert cf.family == family and len(cf.ids) >= n - 1
        assert peaks[1] <= 6 * peaks[0], (family, peaks)


def test_reservation_over_one_price_trades_loads_in_linear_memory():
    # each trade keeps its lowest position and a span from there; a mask of
    # all bits but the trade's, as wide as its position, read 3.1x here
    peaks = []
    for n in (10_000, 20_000):
        ids = [contract_id(f"t{k}", 1) for k in range(n)]
        values = {f"t{k}": 2 for k in range(n)}
        tracemalloc.start()
        try:
            cf = ReservationChoice("b", ids, [], values, {})
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert cf.choose(ids[:3]) == set(ids[:3])
    assert peaks[1] <= 2.5 * peaks[0], peaks
