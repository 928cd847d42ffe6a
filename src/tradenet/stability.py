"""Definition-level stability checkers and witness finders.

Every checker replays its notion's literal definition and, when the outcome
is unstable, reports the first witness in a deterministic order: shortest
blocking structures first, lexicographic by contract-id sequence within a
length.  Witnesses therefore double as minimal counterexamples and can be
replayed through the definitions to validate the verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .choices import is_rational
from .errors import GuardExceededError, StabilityContradictionError
from .instances import Instance
from .network import sorted_ids

TRAIL_GUARD = 10**6
SET_GUARD = 20

NOTIONS = ("acceptable", "trail", "full_trail", "chain", "set", "strong_trail")


@dataclass(frozen=True)
class Witness:
    kind: str  # not_acceptable | trail | chain | set
    contracts: tuple[str, ...]
    agent: str | None = None
    option: str | None = None  # trail reading, prefix | suffix (trail notion only)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "contracts": list(self.contracts),
            "agent": self.agent,
            "option": self.option,
        }


@dataclass(frozen=True)
class StabilityVerdict:
    notion: str
    stable: bool
    witness: Witness | None = None

    def to_json(self) -> dict:
        return {
            "notion": self.notion,
            "stable": self.stable,
            "witness": self.witness.to_json() if self.witness else None,
        }


def is_acceptable(inst: Instance, outcome) -> StabilityVerdict:
    """Every agent keeps all of its outcome contracts when offered just them."""
    outcome = frozenset(outcome)
    for agent in sorted(inst.network.agents):
        cf = inst.choice[agent]
        own = outcome & cf.domain
        if cf.choose(own) != own:
            return StabilityVerdict(
                "acceptable",
                False,
                Witness("not_acceptable", tuple(sorted_ids(own)), agent=agent),
            )
    return StabilityVerdict("acceptable", True)


def _fresh(inst, outcome, notion):
    """The outcome as a frozenset, its fresh contracts in id order, and, when
    the outcome is not even acceptable, the verdict every notion returns."""
    outcome = frozenset(outcome)
    base = is_acceptable(inst, outcome)
    if not base.stable:
        return outcome, None, StabilityVerdict(notion, False, base.witness)
    return outcome, sorted(inst.contract_ids - outcome), None


class _Budget:
    __slots__ = ("left",)

    def __init__(self, limit: int = TRAIL_GUARD):
        self.left = limit

    def spend(self, n: int = 1) -> None:
        self.left -= n
        if self.left < 0:
            raise GuardExceededError(
                f"trail search exceeded the {TRAIL_GUARD} candidate guard"
            )


def _shortest_trail(inst, avail, budget, done, seed=None, step=None, forward=True):
    """First trail of `avail` contracts, shortest first and lexicographic by
    id sequence within a length, that `done(trail)` accepts.

    Breadth-first over trails of distinct contracts: `seed` admits the
    one-contract trails, and `step(trail, link)` admits each extension at
    `link`, the agent joining the old end to the new contract.  Trails grow
    rightwards when `forward`, leftwards otherwise.  Every seed candidate
    and every extension that passes the link test costs one budget unit.
    """
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


def _trail_ends(inst, outcome):
    """Predicates on a trail: its seller keeps the first contract, and its
    buyer keeps the last one, each offered alone alongside the outcome."""
    net = inst.network

    def first_kept(trail):
        return is_rational(inst.choice[net.contract(trail[0]).seller], trail[:1], outcome)

    def last_kept(trail):
        return is_rational(inst.choice[net.contract(trail[-1]).buyer], trail[-1:], outcome)

    return first_kept, last_kept


def _keeps_pair(inst, outcome):
    """Step predicate: the linking agent keeps the consecutive pair it joins
    (the search grows forward, so that is the trail's last two contracts)."""
    return lambda trail, link: is_rational(inst.choice[link], trail[-2:], outcome)


def find_blocking_trail(inst: Instance, outcome) -> StabilityVerdict:
    """Trail stability: no trail of fresh contracts may start with a contract
    its seller keeps, end with one its buyer keeps, and have every
    intermediate agent keep either all its prefix contracts (one global
    reading) or all its suffix contracts (the other).

    The two readings are searched independently and the overall witness is
    the shortest-lex one.
    """
    outcome, avail, short = _fresh(inst, outcome, "trail")
    if short:
        return short
    budget = _Budget()
    first_kept, last_kept = _trail_ends(inst, outcome)

    def keeps_seen(trail, link):
        # the grown trail is the prefix (or suffix) read so far; the agent
        # must keep all of its own contracts on it
        return is_rational(inst.choice[link], trail, outcome)

    found = []
    for option, seed, done, forward in (
        ("prefix", first_kept, last_kept, True),
        ("suffix", last_kept, first_kept, False),
    ):
        trail = _shortest_trail(inst, avail, budget, done, seed, keeps_seen, forward)
        if trail:
            found.append((len(trail), trail, option))
    if not found:
        return StabilityVerdict("trail", True)
    _, trail, option = min(found)
    return StabilityVerdict("trail", False, Witness("trail", trail, option=option))


def find_locally_blocking_trail(inst: Instance, outcome) -> StabilityVerdict:
    """Full trail stability: like trail blocking, but each intermediate agent
    only needs to keep the consecutive pair it links.  Search is incremental;
    partial trails failing a pair condition are never extended."""
    outcome, avail, short = _fresh(inst, outcome, "full_trail")
    if short:
        return short
    first_kept, last_kept = _trail_ends(inst, outcome)
    found = _shortest_trail(
        inst, avail, _Budget(), last_kept, first_kept, _keeps_pair(inst, outcome)
    )
    if found:
        return StabilityVerdict("full_trail", False, Witness("trail", found))
    return StabilityVerdict("full_trail", True)


def find_blocking_chain(inst: Instance, outcome) -> StabilityVerdict:
    """Chain stability: locally blocking trails whose agents are all distinct."""
    outcome, avail, short = _fresh(inst, outcome, "chain")
    if short:
        return short
    net = inst.network
    first_kept, last_kept = _trail_ends(inst, outcome)
    keeps_pair = _keeps_pair(inst, outcome)

    def chain_step(trail, link):
        walk = [net.contract(trail[0]).seller] + [net.contract(c).buyer for c in trail]
        return len(set(walk)) == len(walk) and keeps_pair(trail, link)

    found = _shortest_trail(inst, avail, _Budget(), last_kept, first_kept, chain_step)
    if found:
        return StabilityVerdict("chain", False, Witness("chain", found))
    return StabilityVerdict("chain", True)


def find_blocking_set(inst: Instance, outcome) -> StabilityVerdict:
    """Set stability: no nonempty fresh contract set that every involved
    agent keeps in full alongside the outcome.

    Blocks are index combinations of the fresh contracts in id order, which
    is `network.subsets` order.  Each agent carries its outcome mask and one
    local bit per fresh index (0 when the contract is not its own), so a
    block's share of the agent is one OR per index; agents holding none of
    the block are not involved.  Involved agents are asked in id order, and
    the first that turns its share down ends the block."""
    outcome, avail, short = _fresh(inst, outcome, "set")
    if short:
        return short
    if len(avail) > SET_GUARD:
        raise GuardExceededError(
            f"set search guard is {SET_GUARD} candidate contracts, have {len(avail)}"
        )
    agents = []
    for agent in sorted(inst.network.agents):
        cf = inst.choice[agent]
        local = [cf.bit.get(c, 0) for c in avail]
        if any(local):
            agents.append((cf.choose_mask, cf.mask(outcome), local.__getitem__))
    for size in range(1, len(avail) + 1):
        for block in combinations(range(len(avail)), size):
            for choose_mask, base, local in agents:
                own = sum(map(local, block))
                if own and own & ~choose_mask(own | base):
                    break
            else:
                witness = Witness("set", tuple(avail[i] for i in block))
                return StabilityVerdict("set", False, witness)
    return StabilityVerdict("set", True)


def find_blocking_strong_trail(inst: Instance, outcome) -> StabilityVerdict:
    """Strong trail stability: no trail of fresh contracts kept in full by
    every involved agent.  Whole-trail conditions admit no prefix pruning,
    so this enumerates trails within the guard.

    As in the set search, each agent holding a fresh contract carries its
    outcome mask; a trail's share of the agent is the sum of its bits, and
    involved agents are asked in id order until one turns its share down."""
    outcome, avail, short = _fresh(inst, outcome, "strong_trail")
    if short:
        return short
    agents = []
    for agent in sorted(inst.network.agents):
        cf = inst.choice[agent]
        if any(c in cf.bit for c in avail):
            agents.append((cf.choose_mask, cf.mask(outcome), cf.bit.get))

    def kept_in_full(trail):
        for choose_mask, base, bit in agents:
            own = sum(bit(c, 0) for c in trail)
            if own and own & ~choose_mask(own | base):
                return False
        return True

    found = _shortest_trail(inst, avail, _Budget(), kept_in_full)
    if found:
        return StabilityVerdict("strong_trail", False, Witness("trail", found))
    return StabilityVerdict("strong_trail", True)


_CHECKERS = {
    "acceptable": is_acceptable,
    "trail": find_blocking_trail,
    "full_trail": find_locally_blocking_trail,
    "chain": find_blocking_chain,
    "set": find_blocking_set,
    "strong_trail": find_blocking_strong_trail,
}


def check_notion(inst: Instance, outcome, notion: str) -> StabilityVerdict:
    if notion not in _CHECKERS:
        raise ValueError(f"unknown stability notion {notion!r}")
    return _CHECKERS[notion](inst, outcome)


def classify(inst: Instance, outcome) -> dict[str, StabilityVerdict]:
    """All verdicts at once, cross-checked against the implication chain
    set => full trail => trail => chain.

    The implications are guaranteed whenever the choice functions are fully
    substitutable and consistent; a breach on such instances means a checker
    bug, so it is a hard failure rather than a quiet report.
    """
    out = {notion: _CHECKERS[notion](inst, outcome) for notion in NOTIONS}
    order = ("set", "full_trail", "trail", "chain")
    for weaker, stronger in zip(order, order[1:]):
        if out[weaker].stable and not out[stronger].stable:
            raise StabilityContradictionError(
                f"outcome is {weaker}-stable but not {stronger}-stable; either a "
                "checker bug or choice functions without full substitutability"
            )
    return out
