"""Comparative statics of terminal-agent entry and exit.

An entry event splices a fresh terminal agent into the network together with
replacement choice functions for the incumbents who gained contracts; the
replacements must agree with the old functions on every old menu, so the
event is pure surgery and never a preference change in disguise.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import axioms
from .choices import ChoiceFunction
from .errors import PreconditionError
from .fixedpoint import (
    FixedPointResult,
    OfferPair,
    buyer_optimal,
    fixed_point_outcomes,
    iterate_from,
    prefers,
    respond,
    seller_optimal,
)
from .instances import Instance
from .network import Contract, fields_json, sorted_ids, spread, submasks, validate_network


@dataclass(frozen=True)
class EntryEvent:
    agent: str
    side: str  # terminal_seller | terminal_buyer
    contracts: tuple[Contract, ...]
    choice: ChoiceFunction
    updated_choices: dict[str, ChoiceFunction]

    def contract_ids(self) -> frozenset[str]:
        return frozenset(c.id for c in self.contracts)


def _check_consistent(old: ChoiceFunction, new: ChoiceFunction) -> None:
    """Replacement functions must restrict to the originals on old menus.

    Old menus are walked as masks in `subsets` order and lifted into the
    replacement's numbering, so each function is asked only the menus up to
    the first disagreement."""
    axioms.check_size(old, "consistency")
    if not old.domain <= new.domain:
        raise PreconditionError(f"{new.agent}: replacement lost old contracts")
    lifted = spread(new.bits(old.ids))  # the replacement's mask of each old menu mask
    for menu in submasks(old.up_mask | old.down_mask):
        if lifted[old.choose_mask(menu)] != new.choose_mask(lifted[menu]):
            raise PreconditionError(
                f"{new.agent}: replacement choice disagrees on old menu "
                f"{sorted_ids(old.names(menu))}"
            )


def apply_entry(inst: Instance, event: EntryEvent) -> Instance:
    net = inst.network
    if event.agent in net.upstream:
        raise PreconditionError(f"agent {event.agent!r} already in the network")
    if event.side not in ("terminal_seller", "terminal_buyer"):
        raise PreconditionError(f"unknown entry side {event.side!r}")
    for c in event.contracts:
        if event.side == "terminal_seller" and c.seller != event.agent:
            raise PreconditionError(
                f"contract {c.id!r} does not sell from the entering terminal seller"
            )
        if event.side == "terminal_buyer" and c.buyer != event.agent:
            raise PreconditionError(
                f"contract {c.id!r} does not buy into the entering terminal buyer"
            )
        other = c.buyer if event.side == "terminal_seller" else c.seller
        if other == event.agent:
            raise PreconditionError(f"contract {c.id!r} loops on the entrant")
        if other not in net.upstream:
            raise PreconditionError(f"contract {c.id!r} references unknown agent {other!r}")
        if c.id in net.contract_ids:
            raise PreconditionError(f"contract id {c.id!r} already taken")
    new_net = validate_network(
        {
            "agents": list(net.agents) + [event.agent],
            "contracts": [c.to_json() for c in net.contracts]
            + [c.to_json() for c in event.contracts],
        }
    )
    bad = [
        r for r in axioms.check_agent(event.choice, ("full_substitutability", "irc"))
        if not r.holds
    ]
    if bad:
        raise PreconditionError(
            f"entrant {event.agent!r} fails {', '.join(r.axiom for r in bad)}", bad
        )
    touched = {c.buyer if event.side == "terminal_seller" else c.seller for c in event.contracts}
    missing = touched - set(event.updated_choices)
    if missing:
        raise PreconditionError(
            f"incumbents {sorted(missing)} gained contracts but no replacement choice"
        )
    choice = dict(inst.choice)
    for agent, new_cf in event.updated_choices.items():
        if agent not in choice:
            raise PreconditionError(f"replacement for unknown agent {agent!r}")
        _check_consistent(choice[agent], new_cf)
        choice[agent] = new_cf
    choice[event.agent] = event.choice
    return Instance(new_net, choice)


def apply_exit(inst: Instance, agent: str) -> Instance:
    """Inverse surgery: remove a terminal agent, its contracts, and restrict
    the choice functions of its former counterparties."""
    net = inst.network
    part = net.terminal_partition()
    if agent not in part.terminal_agents:
        raise PreconditionError(f"agent {agent!r} is not terminal")
    gone = inst.choice[agent].domain
    keep_contracts = net.contract_ids - gone
    new_net = net.restricted_to(set(net.agents) - {agent}, keep_contracts)
    choice = {}
    for a in new_net.agents:
        cf = inst.choice[a]
        choice[a] = cf.restrict(keep_contracts) if cf.domain & gone else cf
    return Instance(new_net, choice)


# ---------------------------------------------------------------------------
# statics reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EntryStaticsReport:
    event_agent: str
    side: str
    before: dict[str, frozenset[str]]  # buyer_optimal / seller_optimal outcomes
    after: dict[str, frozenset[str]]
    agent_verdicts: dict[str, dict[str, bool]]
    directions_hold: bool

    to_json = fields_json


def entry_comparative_statics(inst: Instance, event: EntryEvent) -> EntryStaticsReport:
    """Both optimal outcomes before and after entry, with the predicted
    preference directions evaluated for every agent terminal in the extended
    network: seller entry favors terminal buyers and hurts terminal sellers,
    buyer entry the reverse."""
    extended = apply_entry(inst, event)
    # the entrant was checked by apply_entry, and every other agent of
    # `extended` but the replaced incumbents is the same function as in `inst`
    checks = [(inst, None)]
    if event.updated_choices:
        checks.append((extended, sorted(event.updated_choices)))
    for which, agents in checks:
        reports = axioms.check_instance(which, ("full_substitutability", "irc"), agents)
        bad = [r for r in reports if not r.holds]
        if bad:
            raise PreconditionError("entry statics need full substitutability and IRC", bad)
    before = {
        "buyer_optimal": buyer_optimal(inst).outcome,
        "seller_optimal": seller_optimal(inst).outcome,
    }
    after = {
        "buyer_optimal": buyer_optimal(extended).outcome,
        "seller_optimal": seller_optimal(extended).outcome,
    }
    part = extended.network.terminal_partition()
    entrant_is_seller = event.side == "terminal_seller"
    verdicts: dict[str, dict[str, bool]] = {}
    ok = True
    for agent in sorted(part.terminal_agents - {event.agent}):
        is_seller = agent in part.terminal_sellers
        # sellers gain from buyer entry, buyers gain from seller entry
        gains = is_seller != entrant_is_seller
        agent_verdict = {}
        for kind in ("buyer_optimal", "seller_optimal"):
            old, new = before[kind], after[kind]
            good = prefers(extended, agent, new, old) if gains else prefers(
                extended, agent, old, new
            )
            agent_verdict[kind] = good
            ok = ok and good
        verdicts[agent] = agent_verdict
    return EntryStaticsReport(event.agent, event.side, before, after, verdicts, ok)


@dataclass(frozen=True)
class ReadjustmentResult:
    extended: Instance
    result: FixedPointResult


def market_readjustment(inst: Instance, pair: OfferPair, event: EntryEvent) -> ReadjustmentResult:
    """Restabilize an old fixed point after entry.

    The entrant's contracts are handed to the side it trades on (a new
    seller's contracts join the seller side, a new buyer's the buyer side)
    and response rounds run from there; the seeded pair is comparable with
    its response, so the run is monotone or the axioms were violated.
    """
    if respond(inst, pair) != pair:
        raise PreconditionError("seed pair is not a fixed point of the original instance")
    extended = apply_entry(inst, event)
    fresh = event.contract_ids()
    if event.side == "terminal_seller":
        start = OfferPair(pair.buyer_side, pair.seller_side | fresh)
    else:
        start = OfferPair(pair.buyer_side | fresh, pair.seller_side)
    return ReadjustmentResult(extended, iterate_from(extended, start))


@dataclass(frozen=True)
class RuralHospitalsReport:
    preconditions_hold: bool
    failed_axioms: tuple[str, ...]
    outcomes: tuple[frozenset[str], ...]
    per_agent_margin: dict[str, int] | None
    counterexample: dict | None

    @property
    def invariant_holds(self) -> bool:
        return self.preconditions_hold and self.counterexample is None

    to_json = fields_json


def rural_hospitals_check(inst: Instance) -> RuralHospitalsReport:
    """Per agent, the count of bought minus sold contracts must not vary
    across the fixed-point outcomes.  Reported, not asserted, when the
    axioms backing the invariant fail to hold."""
    reports = axioms.check_instance(inst, ("full_substitutability", "lad_las"))
    failed = tuple(sorted({r.axiom for r in reports if not r.holds}))
    outcomes = tuple(fixed_point_outcomes(inst))
    margins = []
    for outcome in outcomes:
        margins.append(
            {
                a: len(outcome & inst.network.upstream[a])
                - len(outcome & inst.network.downstream[a])
                for a in inst.network.agents
            }
        )
    counterexample = None
    for other, margin in zip(outcomes[1:], margins[1:]):
        if margin != margins[0]:
            counterexample = {
                "outcome_a": sorted_ids(outcomes[0]),
                "outcome_b": sorted_ids(other),
                "margins_a": margins[0],
                "margins_b": margin,
            }
            break
    per_agent = margins[0] if margins and counterexample is None else None
    return RuralHospitalsReport(not failed, failed, outcomes, per_agent, counterexample)
