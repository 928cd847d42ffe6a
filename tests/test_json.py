"""The field-driven JSON form (`network.fields_json`) against the
hand-written `to_json` bodies it replaced, kept here as literal references,
over a corpus that yields every class that uses it."""

from __future__ import annotations

import itertools
import json

from tradenet import equilibrium as eq
from tradenet.axioms import AxiomReport, check_agent, check_simplicity
from tradenet.dynamics import (
    EntryStaticsReport,
    RuralHospitalsReport,
    entry_comparative_statics,
    rural_hospitals_check,
)
from tradenet.equilibrium import Arrangement, PriceTrace, Trade
from tradenet.errors import TradenetError
from tradenet.fixedpoint import (
    OfferPair,
    SuperiorityVerdict,
    buyer_optimal,
    compare_terminal_superiority,
    enumerate_fixed_points,
)
from tradenet.instances import BUNDLED, bundled_instance, instance_from_json
from tradenet.network import ContractNetwork, sorted_ids
from tradenet.oracle import (
    PROFILES,
    acceptable_outcomes,
    generate_entry_scenario,
    generate_instance,
    generate_priced_instance,
)
from tradenet.stability import StabilityVerdict, Witness, classify


def literal_contract_network(net):
    return {
        "agents": list(net.agents),
        "contracts": [c.to_json() for c in net.contracts],
    }


def literal_axiom_report(report):
    return {
        "axiom": report.axiom,
        "agent": report.agent,
        "holds": report.holds,
        "witness": report.witness,
        "notes": list(report.notes),
    }


def literal_witness(witness):
    return {
        "kind": witness.kind,
        "contracts": list(witness.contracts),
        "agent": witness.agent,
        "option": witness.option,
    }


def literal_stability_verdict(verdict):
    return {
        "notion": verdict.notion,
        "stable": verdict.stable,
        "witness": literal_witness(verdict.witness) if verdict.witness else None,
    }


def literal_offer_pair(pair):
    return {
        "buyer_side": sorted_ids(pair.buyer_side),
        "seller_side": sorted_ids(pair.seller_side),
    }


def literal_superiority_verdict(verdict):
    return {"relation": verdict.relation}


def literal_trade(trade):
    return {
        "id": trade.id,
        "seller": trade.seller,
        "buyer": trade.buyer,
        "price_min": trade.price_min,
        "price_max": trade.price_max,
    }


def literal_arrangement(arr):
    return {
        "realized": sorted(arr.realized),
        "prices": {t: arr.prices[t] for t in sorted(arr.prices)},
    }


def literal_price_trace(trace):
    return {
        "perspective": trace.perspective,
        "rounds": [r.to_json() for r in trace.rounds],
        "last_rejected": {t: trace.last_rejected[t] for t in sorted(trace.last_rejected)},
    }


def literal_entry_statics(report):
    return {
        "event_agent": report.event_agent,
        "side": report.side,
        "before": {k: sorted_ids(v) for k, v in report.before.items()},
        "after": {k: sorted_ids(v) for k, v in report.after.items()},
        "agent_verdicts": {
            a: dict(sorted(v.items())) for a, v in sorted(report.agent_verdicts.items())
        },
        "directions_hold": report.directions_hold,
    }


def literal_rural_hospitals(report):
    return {
        "preconditions_hold": report.preconditions_hold,
        "failed_axioms": list(report.failed_axioms),
        "outcomes": [sorted_ids(o) for o in report.outcomes],
        "per_agent_margin": report.per_agent_margin,
        "counterexample": report.counterexample,
    }


LITERAL = {
    ContractNetwork: literal_contract_network,
    AxiomReport: literal_axiom_report,
    Witness: literal_witness,
    StabilityVerdict: literal_stability_verdict,
    OfferPair: literal_offer_pair,
    SuperiorityVerdict: literal_superiority_verdict,
    Trade: literal_trade,
    Arrangement: literal_arrangement,
    PriceTrace: literal_price_trace,
    EntryStaticsReport: literal_entry_statics,
    RuralHospitalsReport: literal_rural_hospitals,
}


# an intermediary that keeps its purchase only with both sales breaks the
# aggregate laws, so its rural-hospitals report names a failed axiom
LAD_BREAKER = {
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


def _instances():
    for name in BUNDLED:
        yield bundled_instance(name)
    yield instance_from_json(LAD_BREAKER)
    for profile, seed in itertools.product(PROFILES, range(3)):
        yield generate_instance(seed, profile).instance


def _instance_results(inst):
    yield inst.network
    for agent in inst.network.agents:
        cf = inst.choice[agent]
        # every axiom, simplicity on intensities in id order
        intensity = {c: float(i) for i, c in enumerate(sorted(cf.domain))}
        yield from check_agent(cf)
        yield check_simplicity(cf, intensity)
    for outcome in acceptable_outcomes(inst):
        for verdict in classify(inst, outcome).values():
            yield verdict
            if verdict.witness:
                yield verdict.witness
    try:
        results = enumerate_fixed_points(inst)
        yield from buyer_optimal(inst).trace
        yield rural_hospitals_check(inst)
    except TradenetError:  # an instance outside the axioms the fixed points need
        return
    for r in results:
        yield r.pair
    for first, second in itertools.combinations([r.outcome for r in results], 2):
        yield compare_terminal_superiority(inst, first, second)


def _priced_results(seed):
    priced = generate_priced_instance(seed)
    yield from priced.trades
    for perspective in ("buyer", "seller"):
        outcome, trace = eq.price_adjustment(priced, perspective)
        yield trace
        yield eq.complete_prices(priced, outcome, trace)


def _corpus():
    for inst in _instances():
        yield from _instance_results(inst)
    for seed in range(10):
        yield from _priced_results(seed)
        gen, event = generate_entry_scenario(seed)
        yield entry_comparative_statics(gen.instance, event)


def test_fields_json_matches_the_hand_written_forms():
    seen = dict.fromkeys(LITERAL, 0)
    for result in _corpus():
        want = LITERAL[type(result)](result)
        got = result.to_json()
        assert got == want, type(result).__name__
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
        seen[type(result)] += 1
    assert all(seen.values()), {cls.__name__: n for cls, n in seen.items()}
