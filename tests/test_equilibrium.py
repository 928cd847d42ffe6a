from __future__ import annotations

import itertools
import random
import tracemalloc

import pytest

from tradenet import axioms, equilibrium
from tradenet.choices import ChoiceFunction, PreferenceListChoice, contract_id, split_contract_id
from tradenet.equilibrium import (
    Arrangement,
    PricedInstance,
    PriceRound,
    PriceTrace,
    Trade,
    _cp3_witness,
    _pm_witness,
    build_priced,
    check_cp,
    check_feasibility,
    check_pm,
    check_priced_axioms,
    complete_prices,
    price_adjustment,
    verify_competitive_equilibrium,
)
from tradenet.errors import GuardExceededError, InstanceFormatError, PreconditionError
from tradenet.fixedpoint import bottom_pair, iterate_from, top_pair
from tradenet.instances import Instance
from tradenet.network import sorted_ids, submasks, subsets, validate_network
from tradenet.oracle import generate_priced_instance

from literal import trace_offers_remain_open, trace_prices_monotone, trace_rejections_remain_final


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


def test_complete_prices_refuses_contracts_outside_the_economy():
    priced = generate_priced_instance(0)
    outcome, trace = price_adjustment(priced)
    with pytest.raises(PreconditionError, match=r"unknown contracts: \['zz@1'\]"):
        complete_prices(priced, outcome | {"zz@1"}, trace)


def test_wide_price_window_loads_in_linear_memory():
    # the peak of a one-trade economy's load roughly doubles with its price
    # window: no contract costs a one-bit int as wide as the window
    peaks = []
    for prices in (10_000, 20_000):
        raw = one_trade(lo=0, hi=prices - 1).to_json()
        tracemalloc.start()
        try:
            build_priced(raw)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] / peaks[0] < 2.5, peaks


def test_price_adjustment_refuses_uncertified_instances():
    priced = one_trade(value=4, cost=5, lo=0, hi=9)
    with pytest.raises(PreconditionError):
        price_adjustment(priced)


def test_generated_priced_instances_run_end_to_end():
    # seeds where completion prices an unrealized trade by walking down from
    # the seller perspective's last rejected offer
    walked_down = []
    for seed in range(50):
        priced = generate_priced_instance(seed)
        for perspective in ("buyer", "seller"):
            outcome, trace = price_adjustment(priced, perspective)
            arrangement = complete_prices(priced, outcome, trace)
            where = (seed, perspective)
            assert verify_competitive_equilibrium(priced, arrangement), where
            assert trace_prices_monotone(trace), where
            assert trace_offers_remain_open(trace), where
            assert trace_rejections_remain_final(trace), where
            if perspective == "seller" and arrangement.realized != set(priced.trade_ids):
                walked_down.append(seed)
    assert walked_down == [14, 22, 23, 36, 37]


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
            _, trace = price_adjustment(priced, perspective)
            start = top_pair if perspective == "buyer" else bottom_pair
            run = iterate_from(priced.instance, start(priced.instance))
            # round i is read from the i-th state of the run
            for r, pair in zip(trace.rounds, run.trace + (run.pair,), strict=True):
                offers, keeps, rejects = _reference_round(priced, pair, perspective)
                assert (r.offers, r.responder_keeps, r.responder_rejects) == (
                    offers, keeps, rejects
                ), (seed, perspective)
                rounds += 1
    assert rounds > 1000


def literal_price_adjustment(priced, perspective):
    """The frozenset price rounds: each state of `iterate_from`'s trace, the
    fixed point paired with itself once more, read through set algebra and
    `split_contract_id` on sorted ids."""
    inst = priced.instance
    start = top_pair(inst) if perspective == "buyer" else bottom_pair(inst)
    run = iterate_from(inst, start)
    states = run.trace + (run.pair,)

    def sides(p):  # (proposing side's set, responding side's set)
        return (p.buyer_side, p.seller_side) if perspective == "buyer" else (
            p.seller_side, p.buyer_side)

    opening = {t.id: t.price_min if perspective == "buyer" else t.price_max for t in priced.trades}
    rounds, last_rejected, prev_offers = [], {}, frozenset()
    for pair, nxt in zip(states, states[1:] + states[-1:]):
        (own, other), (own_next, other_next) = sides(pair), sides(nxt)
        offers, keeps = own & other_next, other & own_next
        rejects = inst.contract_ids - own_next
        for cid in sorted(prev_offers & rejects):
            trade, price = split_contract_id(cid)
            last_rejected[trade] = price
        offered_now = {}
        for cid in sorted(offers):
            trade, price = split_contract_id(cid)
            assert trade not in offered_now
            offered_now[trade] = price
        prices = {t: offered_now.get(t, last_rejected.get(t, p)) for t, p in opening.items()}
        rounds.append(PriceRound(offers, keeps, rejects, prices))
        prev_offers = offers
    return run.outcome, PriceTrace(perspective, tuple(rounds), last_rejected)


def test_price_adjustment_matches_the_frozenset_rounds():
    multi_trade = 0
    for seed in range(100):
        priced = generate_priced_instance(seed)
        multi_trade += len(priced.trades) > 1
        for perspective in ("buyer", "seller"):
            outcome, trace = price_adjustment(priced, perspective)
            fresh = build_priced(priced.to_json())
            literal_outcome, literal = literal_price_adjustment(fresh, perspective)
            assert outcome == literal_outcome, (seed, perspective)
            assert trace == literal, (seed, perspective)
            assert trace.to_json() == literal.to_json(), (seed, perspective)
    assert multi_trade > 50


# ---------------------------------------------------------------------------
# the priced checks against their literal frozenset definitions
# ---------------------------------------------------------------------------


def literal_rejects(cf, cid, menu):
    return cid not in cf.choose(frozenset(menu) | {cid})


def literal_feasibility(priced):
    out = []
    for agent in sorted(priced.instance.network.agents):
        cf = priced.instance.choice[agent]
        witness = None
        for menu in subsets(cf.domain):
            chosen = cf.choose(menu)
            seen: dict[str, str] = {}
            for cid in sorted(chosen):
                trade, _ = split_contract_id(cid)
                if trade in seen:
                    witness = {
                        "menu": sorted_ids(menu),
                        "chosen": sorted_ids(chosen),
                        "trade": trade,
                        "contracts": [seen[trade], cid],
                    }
                    break
                seen[trade] = cid
            if witness:
                break
        out.append(axioms.AxiomReport("feasibility", agent, witness is None, witness))
    return out


def literal_cp3_witness(priced, t, buyer_cf, seller_cf):
    grid = {contract_id(t.id, p) for p in t.prices()}
    pool = (buyer_cf.domain | seller_cf.domain) - grid
    for p in range(t.price_min, t.price_max):
        low = contract_id(t.id, p)
        high = contract_id(t.id, p + 1)
        for menu in subsets(pool):
            if (
                literal_rejects(seller_cf, low, menu)
                and literal_rejects(buyer_cf, high, menu)
                and not literal_rejects(buyer_cf, low, menu)
                and not literal_rejects(seller_cf, high, menu)
            ):
                return {
                    "condition": "no_common_rejection",
                    "trade": t.id,
                    "price": p,
                    "menu": sorted_ids(menu),
                }
    return None


def literal_cp(priced):
    out = []
    inst = priced.instance
    for t in priced.trades:
        buyer_cf = inst.choice[t.buyer]
        seller_cf = inst.choice[t.seller]

        def always_kept(cf, p):
            cid = contract_id(t.id, p)
            return all(not literal_rejects(cf, cid, m) for m in subsets(cf.domain))

        witness = None
        if not [p for p in t.prices() if always_kept(buyer_cf, p)]:
            witness = {"condition": "buyer_floor_missing", "trade": t.id}
        elif not [p for p in t.prices() if always_kept(seller_cf, p)]:
            witness = {"condition": "seller_ceiling_missing", "trade": t.id}
        else:
            witness = literal_cp3_witness(priced, t, buyer_cf, seller_cf)
        out.append(axioms.AxiomReport("complete_prices", t.id, witness is None, witness))
    return out


def literal_pm_witness(inst, t):
    for role, agent in (("buyer", t.buyer), ("seller", t.seller)):
        cf = inst.choice[agent]
        for low, high in itertools.combinations(t.prices(), 2):
            cheap = contract_id(t.id, low)
            dear = contract_id(t.id, high)
            bad = dear if role == "buyer" else cheap
            for outcome in subsets(cf.domain - {cheap, dear}):
                if bad in cf.choose(outcome | {cheap, dear}):
                    return {
                        "trade": t.id,
                        "role": role,
                        "prices": [low, high],
                        "outcome": sorted_ids(outcome),
                    }
    return None


def _two_price_violators():
    """The feasibility and price-monotonicity violators above."""
    net = validate_network(
        {
            "agents": ["a", "b"],
            "contracts": [
                {"id": "t@0", "seller": "a", "buyer": "b"},
                {"id": "t@1", "seller": "a", "buyer": "b"},
            ],
        }
    )
    trade = (Trade("t", "a", "b", 0, 1),)
    grabber = PreferenceListChoice("b", {"t@0", "t@1"}, frozenset(), [("t@0", "t@1")])
    quiet = PreferenceListChoice("a", frozenset(), {"t@0", "t@1"}, [])
    cheap_seller = PreferenceListChoice("a", frozenset(), {"t@0", "t@1"}, [("t@0",)])
    buyer = PreferenceListChoice("b", {"t@0", "t@1"}, frozenset(), [("t@0",), ("t@1",)])
    yield PricedInstance(trade, Instance(net, {"a": quiet, "b": grabber}))
    yield PricedInstance(trade, Instance(net, {"a": cheap_seller, "b": buyer}))


def _crossing_violator():
    """The buyer keeps t@0 beside r, or beside p and q, and never keeps t@1;
    the seller keeps only t@1.  The first crossing menu in subset order is
    {r@0}; in numeric mask order it would be {p@0, q@0}."""
    trades = (Trade("t", "a", "b", 0, 1),) + tuple(Trade(x, "a", "b", 0, 0) for x in "pqr")
    ids = ["t@0", "t@1", "p@0", "q@0", "r@0"]
    net = validate_network(
        {"agents": ["a", "b"],
         "contracts": [{"id": c, "seller": "a", "buyer": "b"} for c in ids]}
    )
    buyer = PreferenceListChoice("b", ids, (), [("t@0", "r@0"), ("t@0", "p@0", "q@0")])
    seller = PreferenceListChoice("a", (), ids, [("t@1",)])
    return PricedInstance(trades, Instance(net, {"a": seller, "b": buyer}))


def _random_trades(rng, firms, max_grid=12):
    trades, grid = [], 0
    for i in range(rng.randint(1, 3)):
        seller, buyer = rng.sample(firms, 2)
        lo, width = rng.randint(0, 3), rng.randint(1, 3)
        if grid + width + 1 > max_grid:
            break
        grid += width + 1
        trades.append({"id": f"t{i + 1}", "seller": seller, "buyer": buyer,
                       "price_min": lo, "price_max": lo + width})
    return trades


def _random_reservation_economy(rng):
    """Uncertified: capacities, and value/cost gaps of exactly one step."""
    firms = [f"f{i}" for i in range(1, rng.randint(2, 3) + 1)]
    trades = _random_trades(rng, firms)
    values = {f: {} for f in firms}
    costs = {f: {} for f in firms}
    for t in trades:
        value = rng.randint(t["price_min"] - 1, t["price_max"] + 1)
        cost = value + 1 if rng.random() < 0.3 else rng.randint(t["price_min"] - 1, t["price_max"] + 1)
        values[t["buyer"]][t["id"]] = value
        costs[t["seller"]][t["id"]] = cost
    descs = []
    for f in sorted({t["seller"] for t in trades} | {t["buyer"] for t in trades}):
        desc = {"agent": f, "type": "reservation", "values": values[f], "costs": costs[f]}
        for side in ("capacity_buy", "capacity_sell"):
            if rng.random() < 0.4:
                desc[side] = rng.randint(1, 2)
        descs.append(desc)
    return build_priced({"trades": trades, "choice_functions": descs})


def _random_preference_economy(rng):
    """Firms ranking random sets of grid contracts: every priced axiom fails
    somewhere in this corpus, with witnesses of every kind."""
    firms = ["a", "b", "c"][: rng.randint(2, 3)]
    trades = [Trade(**t) for t in _random_trades(rng, firms, max_grid=8)]
    contracts = [{"id": contract_id(t.id, p), "seller": t.seller, "buyer": t.buyer}
                 for t in trades for p in t.prices()]
    net = validate_network({"agents": firms, "contracts": contracts})
    choice = {}
    for f in firms:
        ranked = list(subsets(net.upstream[f] | net.downstream[f]))[1:]
        rng.shuffle(ranked)
        choice[f] = PreferenceListChoice(
            f, net.upstream[f], net.downstream[f], ranked[: rng.randint(0, 6)]
        )
    return PricedInstance(tuple(trades), Instance(net, choice))


def test_priced_checks_match_literal_definitions():
    rng = random.Random(23)
    corpus = (
        [generate_priced_instance(seed) for seed in range(20)]
        + [_random_reservation_economy(rng) for _ in range(60)]
        + list(_two_price_violators())
        + [_crossing_violator()]
        + [_random_preference_economy(rng) for _ in range(60)]
    )
    seen = set()
    for where, priced in enumerate(corpus):
        reports = check_feasibility(priced)
        assert reports == literal_feasibility(priced), where
        seen.update(("feasibility", r.holds) for r in reports)
        reports = check_cp(priced)
        assert reports == literal_cp(priced), where
        seen.update((r.witness or {}).get("condition", True) for r in reports)
        inst = priced.instance
        for t in priced.trades:
            buyer_cf, seller_cf = inst.choice[t.buyer], inst.choice[t.seller]
            cp3 = _cp3_witness(priced, t, buyer_cf, seller_cf)
            assert cp3 == literal_cp3_witness(priced, t, buyer_cf, seller_cf), where
            pm = _pm_witness(inst, t)
            assert pm == literal_pm_witness(inst, t), where
            seen.add(("pm", pm["role"]) if pm else ("pm", None))
    # holding and failing cases of every check, so no comparison is vacuous
    assert seen >= {
        ("feasibility", True), ("feasibility", False), True,
        "buyer_floor_missing", "seller_ceiling_missing", "no_common_rejection",
        ("pm", None), ("pm", "buyer"), ("pm", "seller"),
    }, seen


def test_priced_checks_read_only_the_menu_tables(monkeypatch):
    calls = []
    choose = ChoiceFunction.choose

    def counting_choose(self, offered):
        calls.append(self.agent)
        return choose(self, offered)

    monkeypatch.setattr(ChoiceFunction, "choose", counting_choose)
    for seed in range(5):
        # rebuilt from JSON, so certification has not filled the caches
        priced = build_priced(generate_priced_instance(seed).to_json())
        calls.clear()
        check_priced_axioms(priced)
        assert calls == [], seed
        for cf in priced.instance.choice.values():
            assert cf.query_count == 2 ** len(cf.domain), (seed, cf.agent)


def test_holding_priced_checks_walk_no_menu(monkeypatch):
    # feasibility and price monotonicity decide on the slices, so a check
    # that holds never walks a menu, however many trades a firm chooses at once
    walked = []

    def counting_submasks(mask):
        for menu in submasks(mask):
            walked.append(menu)
            yield menu

    monkeypatch.setattr(equilibrium, "submasks", counting_submasks)
    held = 0
    for seed in range(20):
        priced = build_priced(generate_priced_instance(seed).to_json())
        for check in (check_feasibility, check_pm):
            walked.clear()
            if all(r.holds for r in check(priced)):
                assert walked == [], (seed, check.__name__)
                held += 1
    assert held == 40


def _grid_network(trades):
    return validate_network({
        "agents": sorted({t.seller for t in trades} | {t.buyer for t in trades}),
        "contracts": [{"id": contract_id(t.id, p), "seller": t.seller, "buyer": t.buyer}
                      for t in trades for p in t.prices()],
    })


def _wide_economies():
    """Firms of 12 and 16 contracts: a one-trade reservation economy and a
    reservation hub that hold every priced check, a seller whose only bad
    price pair is the last one, and a hub whose only infeasible trade is its
    last (with price-monotonicity violations on two other trades)."""
    yield one_trade(value=6, cost=5, lo=0, hi=11)
    hub_trades = [{"id": f"t{i}", "seller": "s", "buyer": "h", "price_min": 0, "price_max": 1}
                  for i in range(1, 5)]
    hub_trades += [{"id": f"t{i}", "seller": "h", "buyer": "b", "price_min": 0, "price_max": 1}
                   for i in range(5, 9)]
    yield build_priced({"trades": hub_trades, "choice_functions": [
        {"agent": "s", "type": "reservation", "costs": {f"t{i}": 0 for i in range(1, 5)}},
        {"agent": "h", "type": "reservation", "values": {f"t{i}": i for i in range(1, 5)},
         "costs": {f"t{i}": 0 for i in range(5, 9)}, "capacity_buy": 3, "capacity_sell": 2},
        {"agent": "b", "type": "reservation", "values": {f"t{i}": 1 for i in range(5, 9)}},
    ]})
    trade = Trade("t", "a", "b", 0, 11)
    net = _grid_network([trade])
    grid = sorted_ids(net.contract_ids)
    yield PricedInstance((trade,), Instance(net, {
        "a": PreferenceListChoice("a", (), grid, [("t@10",)]),
        "b": PreferenceListChoice("b", grid, (), [("t@0",)]),
    }))
    trades = tuple(Trade(**t) for t in hub_trades)
    net = _grid_network(trades)
    ups, downs = sorted_ids(net.upstream["h"]), sorted_ids(net.downstream["h"])
    yield PricedInstance(trades, Instance(net, {
        "s": PreferenceListChoice("s", (), ups, [("t1@1", "t2@1")]),
        "h": PreferenceListChoice("h", ups, downs, [
            ("t1@0", "t5@1"), ("t2@0", "t8@0", "t8@1"), ("t3@1",)]),
        "b": PreferenceListChoice("b", downs, (), [("t5@0", "t6@0")]),
    }))


def test_priced_checks_match_literal_definitions_on_12_to_16_contracts():
    seen = set()
    for where, priced in enumerate(_wide_economies()):
        inst = priced.instance
        assert max(len(cf.domain) for cf in inst.choice.values()) in (12, 16), where
        feasibility = check_feasibility(priced)
        pm = [_pm_witness(inst, t) for t in priced.trades]
        assert feasibility == literal_feasibility(priced), where
        assert pm == [literal_pm_witness(inst, t) for t in priced.trades], where
        seen.update(("feasibility", r.holds, r.witness and r.witness["trade"]) for r in feasibility)
        seen.update(("pm", w and (w["role"], w["trade"], *w["prices"])) for w in pm)
    assert {("feasibility", True, None), ("feasibility", False, "t8"), ("pm", None),
            ("pm", ("seller", "t", 10, 11)), ("pm", ("buyer", "t3", 0, 1))} <= seen, seen
