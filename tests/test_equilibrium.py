from __future__ import annotations

import itertools

import pytest

from tradenet.choices import PreferenceListChoice
from tradenet.equilibrium import (
    Arrangement,
    PricedInstance,
    Trade,
    build_priced,
    check_cp,
    check_feasibility,
    check_pm,
    check_priced_axioms,
    complete_prices,
    contract_id,
    price_adjustment,
    trace_offers_remain_open,
    trace_prices_monotone,
    trace_rejections_remain_final,
    verify_competitive_equilibrium,
)
from tradenet.errors import GuardExceededError, InstanceFormatError, PreconditionError
from tradenet.instances import Instance
from tradenet.network import validate_network
from tradenet.oracle import generate_priced_instance


def one_trade(value=5, cost=3, lo=0, hi=10):
    return build_priced(
        {
            "trades": [
                {"id": "t1", "seller": "a", "buyer": "b", "price_min": lo, "price_max": hi}
            ],
            "choice_functions": [
                {"agent": "a", "type": "reservation", "values": {}, "costs": {"t1": cost}},
                {"agent": "b", "type": "reservation", "values": {"t1": value}, "costs": {}},
            ],
        }
    )


def test_build_priced_validation():
    with pytest.raises(InstanceFormatError, match="empty price window"):
        build_priced(
            {
                "trades": [
                    {"id": "t", "seller": "a", "buyer": "b", "price_min": 3, "price_max": 1}
                ],
                "choice_functions": [],
            }
        )
    with pytest.raises(InstanceFormatError, match="reserved"):
        build_priced(
            {
                "trades": [
                    {"id": "t@x", "seller": "a", "buyer": "b", "price_min": 0, "price_max": 1}
                ],
                "choice_functions": [],
            }
        )
    with pytest.raises(InstanceFormatError, match="unknown priced-instance fields"):
        build_priced({"trades": [], "choice_functions": [], "extra": True})


def test_reservation_choice_behavior():
    priced = one_trade()
    buyer = priced.instance.choice["b"]
    seller = priced.instance.choice["a"]
    assert buyer.choose({"t1@2", "t1@4"}) == {"t1@2"}  # cheapest workable
    assert buyer.choose({"t1@6"}) == frozenset()  # above value 5
    assert seller.choose({"t1@2", "t1@4"}) == {"t1@4"}  # dearest workable
    assert seller.choose({"t1@2"}) == frozenset()  # below cost 3


def test_reservation_capacity_limits_bundle():
    priced = build_priced(
        {
            "trades": [
                {"id": "t1", "seller": "a", "buyer": "b", "price_min": 0, "price_max": 2},
                {"id": "t2", "seller": "a", "buyer": "b", "price_min": 0, "price_max": 2},
            ],
            "choice_functions": [
                {"agent": "a", "type": "reservation", "values": {},
                 "costs": {"t1": 0, "t2": 0}, "capacity_sell": 1},
                {"agent": "b", "type": "reservation",
                 "values": {"t1": 2, "t2": 1}, "costs": {}},
            ],
        }
    )
    seller = priced.instance.choice["a"]
    # one slot: the larger margin wins, trade id breaks ties
    assert seller.choose({"t1@1", "t2@2"}) == {"t2@2"}
    assert seller.choose({"t1@2", "t2@2"}) == {"t1@2"}


def test_priced_axioms_hold_for_wide_windows():
    priced = one_trade()
    assert all(r.holds for r in check_priced_axioms(priced))


def test_feasibility_violator():
    net = validate_network(
        {
            "agents": ["a", "b"],
            "contracts": [
                {"id": "t@0", "seller": "a", "buyer": "b"},
                {"id": "t@1", "seller": "a", "buyer": "b"},
            ],
        }
    )
    grabber = PreferenceListChoice("b", {"t@0", "t@1"}, frozenset(), [("t@0", "t@1")])
    quiet = PreferenceListChoice("a", frozenset(), {"t@0", "t@1"}, [])
    priced = PricedInstance(
        (Trade("t", "a", "b", 0, 1),), Instance(net, {"a": quiet, "b": grabber})
    )
    reports = {r.agent: r for r in check_feasibility(priced)}
    assert not reports["b"].holds
    assert reports["b"].witness["trade"] == "t"
    assert reports["a"].holds


def test_cp_detects_one_step_gap():
    # cost exactly one above value: each side alone rejects on its side of
    # the step, but no single integer price is rejected by both
    priced = one_trade(value=4, cost=5, lo=0, hi=9)
    cp = {r.agent: r for r in check_cp(priced)}
    assert not cp["t1"].holds
    assert cp["t1"].witness["condition"] == "no_common_rejection"
    assert cp["t1"].witness["price"] == 4


def test_cp_detects_missing_floor():
    priced = one_trade(value=-1, cost=3, lo=0, hi=5)  # buyer never buys
    cp = {r.agent: r for r in check_cp(priced)}
    assert not cp["t1"].holds
    assert cp["t1"].witness["condition"] == "buyer_floor_missing"


def test_pm_violator():
    net = validate_network(
        {
            "agents": ["a", "b"],
            "contracts": [
                {"id": "t@0", "seller": "a", "buyer": "b"},
                {"id": "t@1", "seller": "a", "buyer": "b"},
            ],
        }
    )
    # seller keeps the cheaper price even when the dearer one is on the table
    cheap_seller = PreferenceListChoice("a", frozenset(), {"t@0", "t@1"}, [("t@0",)])
    buyer = PreferenceListChoice("b", {"t@0", "t@1"}, frozenset(), [("t@0",), ("t@1",)])
    priced = PricedInstance(
        (Trade("t", "a", "b", 0, 1),), Instance(net, {"a": cheap_seller, "b": buyer})
    )
    pm = {r.agent: r for r in check_pm(priced)}
    assert not pm["t"].holds
    assert pm["t"].witness["role"] == "seller"


def test_price_adjustment_single_trade():
    priced = one_trade(value=5, cost=3, lo=0, hi=10)
    outcome, trace = price_adjustment(priced)
    assert outcome == {"t1@3"}  # cheapest seller-acceptable price
    assert trace_prices_monotone(trace)
    assert trace_offers_remain_open(trace)
    assert trace_rejections_remain_final(trace)
    prices = [r.prices["t1"] for r in trace.rounds]
    assert prices[0] == 0 and prices[-1] == 3
    arrangement = complete_prices(priced, outcome, trace)
    assert arrangement.realized == {"t1"}
    assert arrangement.prices == {"t1": 3}
    assert verify_competitive_equilibrium(priced, arrangement)


def test_price_adjustment_seller_perspective():
    priced = one_trade(value=5, cost=3, lo=0, hi=10)
    outcome, trace = price_adjustment(priced, perspective="seller")
    assert outcome == {"t1@5"}  # dearest buyer-acceptable price
    assert trace_prices_monotone(trace)
    assert trace_offers_remain_open(trace)
    assert trace_rejections_remain_final(trace)
    arrangement = complete_prices(priced, outcome, trace)
    assert verify_competitive_equilibrium(priced, arrangement)


def test_no_gains_from_trade_means_no_trade():
    priced = one_trade(value=3, cost=6, lo=0, hi=9)
    outcome, trace = price_adjustment(priced)
    assert outcome == frozenset()
    arrangement = complete_prices(priced, outcome, trace)
    assert arrangement.realized == frozenset()
    p = arrangement.prices["t1"]
    buyer = priced.instance.choice["b"]
    seller = priced.instance.choice["a"]
    cid = contract_id("t1", p)
    assert cid not in buyer.choose({cid})
    assert cid not in seller.choose({cid})
    assert verify_competitive_equilibrium(priced, arrangement)


def test_empty_economy():
    priced = build_priced({"trades": [], "choice_functions": []})
    outcome, trace = price_adjustment(priced)
    assert outcome == frozenset()
    for rnd in trace.rounds:
        assert rnd.offers == frozenset()
        assert rnd.prices == {}
    arrangement = complete_prices(priced, outcome, trace)
    assert verify_competitive_equilibrium(priced, arrangement)


def _all_equilibria(priced):
    """Definition-level scan over every arrangement."""
    trades = priced.trades
    found = []
    price_axes = [list(t.prices()) for t in trades]
    for prices in itertools.product(*price_axes):
        vector = {t.id: p for t, p in zip(trades, prices)}
        for r in range(len(trades) + 1):
            for chosen in itertools.combinations([t.id for t in trades], r):
                arr = Arrangement(frozenset(chosen), dict(vector))
                if verify_competitive_equilibrium(priced, arr):
                    found.append(arr)
    return found


def test_parallel_trades_match_equilibrium_scan():
    priced = build_priced(
        {
            "trades": [
                {"id": "t1", "seller": "a", "buyer": "b", "price_min": 0, "price_max": 4},
                {"id": "t2", "seller": "a", "buyer": "b", "price_min": 0, "price_max": 4},
            ],
            "choice_functions": [
                {"agent": "a", "type": "reservation", "values": {},
                 "costs": {"t1": 1, "t2": 4}},
                {"agent": "b", "type": "reservation",
                 "values": {"t1": 3, "t2": 2}, "costs": {}},
            ],
        }
    )
    outcome, trace = price_adjustment(priced)
    arrangement = complete_prices(priced, outcome, trace)
    assert arrangement.realized == {"t1"}
    scan = _all_equilibria(priced)
    assert scan, "the equilibrium scan found nothing"
    assert any(
        arr.realized == arrangement.realized and arr.prices == arrangement.prices
        for arr in scan
    )


def test_equilibrium_insensitive_to_unrealized_prices_in_rejection_band():
    priced = build_priced(
        {
            "trades": [
                {"id": "t1", "seller": "a", "buyer": "b", "price_min": 0, "price_max": 4},
                {"id": "t2", "seller": "a", "buyer": "b", "price_min": 0, "price_max": 4},
            ],
            "choice_functions": [
                {"agent": "a", "type": "reservation", "values": {},
                 "costs": {"t1": 1, "t2": 4}},
                {"agent": "b", "type": "reservation",
                 "values": {"t1": 3, "t2": 2}, "costs": {}},
            ],
        }
    )
    outcome, trace = price_adjustment(priced)
    arrangement = complete_prices(priced, outcome, trace)
    assert verify_competitive_equilibrium(priced, arrangement)
    # any price both firms keep rejecting works equally well for t2
    buyer = priced.instance.choice["b"]
    seller = priced.instance.choice["a"]
    band = [
        p
        for p in range(0, 5)
        if contract_id("t2", p) not in buyer.choose(outcome | {contract_id("t2", p)})
        and contract_id("t2", p) not in seller.choose(outcome | {contract_id("t2", p)})
    ]
    assert arrangement.prices["t2"] in band
    for p in band:
        shifted = Arrangement(arrangement.realized, {**arrangement.prices, "t2": p})
        assert verify_competitive_equilibrium(priced, shifted)


def test_perturbed_price_breaks_equilibrium():
    priced = one_trade(value=5, cost=3, lo=0, hi=10)
    outcome, trace = price_adjustment(priced)
    arrangement = complete_prices(priced, outcome, trace)
    worse = Arrangement(arrangement.realized, {"t1": 9})  # above the buyer's value
    assert not verify_competitive_equilibrium(priced, worse)


def test_priced_checks_share_the_per_firm_guard():
    wide = one_trade(lo=0, hi=16)  # 17 price contracts per firm, one over the guard
    for check in (check_feasibility, check_cp, check_pm):
        with pytest.raises(GuardExceededError, match="agent [ab] has 17 contracts, guard is 16"):
            check(wide)


def test_price_adjustment_refuses_uncertified_instances():
    priced = one_trade(value=4, cost=5, lo=0, hi=9)
    with pytest.raises(PreconditionError):
        price_adjustment(priced)


def test_generated_priced_instances_run_end_to_end():
    for seed in range(10):
        priced = generate_priced_instance(seed)
        outcome, trace = price_adjustment(priced, validate=False)
        arrangement = complete_prices(priced, outcome, trace)
        assert verify_competitive_equilibrium(priced, arrangement), seed
        assert trace_prices_monotone(trace), seed
        assert trace_offers_remain_open(trace), seed
        assert trace_rejections_remain_final(trace), seed


def _reference_round(priced, pair, perspective):
    """Offers, keeps and rejects of one price round, re-chosen firm by firm
    from the round's offer pair."""
    offers, keeps, rejects = set(), set(), set()
    for cf in priced.instance.choice.values():
        if perspective == "buyer":
            offers |= cf.chosen_upstream(pair.buyer_side, pair.seller_side)
            keeps |= cf.chosen_downstream(pair.seller_side, pair.buyer_side)
            rejects |= cf.rejected_downstream(pair.seller_side, pair.buyer_side)
        else:
            offers |= cf.chosen_downstream(pair.seller_side, pair.buyer_side)
            keeps |= cf.chosen_upstream(pair.buyer_side, pair.seller_side)
            rejects |= cf.rejected_upstream(pair.buyer_side, pair.seller_side)
    return offers, keeps, rejects


def test_price_rounds_match_firm_by_firm_choices():
    rounds = 0
    for seed in range(100):
        priced = generate_priced_instance(seed)
        for perspective in ("buyer", "seller"):
            _, trace = price_adjustment(priced, perspective, validate=False)
            for r in trace.rounds:
                offers, keeps, rejects = _reference_round(priced, r.pair, perspective)
                assert (r.offers, r.responder_keeps, r.responder_rejects) == (
                    offers, keeps, rejects
                ), (seed, perspective)
                rounds += 1
    assert rounds > 1000
