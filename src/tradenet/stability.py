"""Definition-level stability checkers and witness finders.

Every checker replays its notion's literal definition and, when the outcome
is unstable, reports the first witness in a deterministic order: shortest
blocking structures first, lexicographic by contract-id sequence within a
length.  Witnesses therefore double as minimal counterexamples and can be
replayed through the definitions to validate the verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice

from .choices import is_individually_rational
from .choices import is_rational  # noqa: F401  (unused; perfbench's self-test patches it here)
from .errors import GuardExceededError, StabilityContradictionError
from .guards import SET_GUARD, TRAIL_GUARD
from .instances import Instance
from .network import fields_json, sorted_ids

NOTIONS = ("acceptable", "trail", "full_trail", "chain", "set", "strong_trail")


@dataclass(frozen=True)
class Witness:
    kind: str  # not_acceptable | trail | chain | set
    contracts: tuple[str, ...]
    agent: str | None = None
    option: str | None = None  # trail reading, prefix | suffix (trail notion only)

    to_json = fields_json


@dataclass(frozen=True)
class StabilityVerdict:
    notion: str
    stable: bool
    witness: Witness | None = None

    to_json = fields_json


def is_acceptable(inst: Instance, outcome) -> StabilityVerdict:
    """Every agent keeps all of its outcome contracts when offered just them;
    an outcome naming a contract the instance lacks is refused."""
    outcome = inst.known(outcome)
    for agent in sorted(inst.network.agents):
        cf = inst.choice[agent]
        if not is_individually_rational(cf, outcome):
            witness = Witness("not_acceptable", tuple(sorted_ids(outcome & cf.domain)), agent=agent)
            return StabilityVerdict("acceptable", False, witness)
    return StabilityVerdict("acceptable", True)


class FreshView:
    """The fresh contracts of an outcome, the one object every walk reads.

    Fresh contracts are the positions of the instance's `Numbering` outside
    the outcome, `fresh` in id order, so trails and blocks are position
    tuples whose lexicographic order is the id order.  `seller` and `buyer`
    are the numbering's, and `sells[a]` and `buys[a]` agent a's fresh
    positions in id order.  Each agent holding a fresh contract has one entry
    in `agents`, in id order: its `choose_mask`, outcome mask, `lane` of a
    sum of `share`s and memo list.  Every condition of every notion is `keeps`.
    """

    __slots__ = ("ids", "fresh", "seller", "buyer", "sells", "buys", "agents", "share",
                 "kept_alone")

    def __init__(self, inst: Instance, outcome: frozenset[str]):
        num = inst.numbering
        self.ids, self.seller, self.buyer = num.ids, num.seller, num.buyer
        kept = set(map(num.position.__getitem__, outcome))
        self.fresh = [i for i in range(num.n) if i not in kept]
        self.sells, self.buys = {}, {}  # agent -> its fresh positions on that side
        for i in self.fresh:
            self.sells.setdefault(self.seller[i], []).append(i)
            self.buys.setdefault(self.buyer[i], []).append(i)
        self.share, self.agents = num.packed.__getitem__, {}
        base = sum(map(self.share, kept))  # each agent's lane of it is its outcome mask
        for agent in sorted(self.sells.keys() | self.buys.keys()):
            shift, mask = num.lane[agent]
            cf = inst.choice[agent]
            self.agents[agent] = (cf.choose_mask, base >> shift & mask, shift, mask, cf._store())
        self.kept_alone = ({}, {})  # position -> its seller, its buyer keeps it alone

    def names(self, positions) -> tuple[str, ...]:
        return tuple(self.ids[i] for i in positions)

    def keeps(self, agent, positions) -> bool:
        """The agent keeps its share of `positions` (its lane of their summed
        shares) alongside the outcome; an agent with no share is not asked."""
        choose_mask, base, shift, mask, _ = self.agents[agent]
        own = sum(map(self.share, positions)) >> shift & mask
        return not own or not own & ~choose_mask(own | base)

    def kept_by_all(self, positions) -> bool:
        """`keeps` for every agent in id order, on one sum of shares."""
        total = sum(map(self.share, positions))
        for choose_mask, base, shift, mask, _ in self.agents.values():
            own = total >> shift & mask
            if own and own & ~choose_mask(own | base):
                return False
        return True

    def first_kept(self, trail) -> bool:
        """The trail's seller keeps its first contract."""
        return self._alone(trail[0], self.seller, self.kept_alone[0])

    def last_kept(self, trail) -> bool:
        """The trail's buyer keeps its last contract."""
        return self._alone(trail[-1], self.buyer, self.kept_alone[1])

    def _alone(self, i, agent_of, memo) -> bool:
        """`agent_of[i]` keeps contract i alone alongside the outcome: asked
        once per contract and side, then read from `memo`."""
        kept = memo.get(i)
        if kept is None:
            kept = memo[i] = self.keeps(agent_of[i], (i,))
        return kept

    def keeps_pair(self, link, trail) -> bool:
        """The link agent keeps the pair it joins, the grown trail's last two."""
        return self.keeps(link, trail[-2:])


def _notion(notion: str):
    """The checker of `notion` around a search that takes the outcome's
    `FreshView` and returns its witness or None; every search's verdict is
    built here.  An acceptable outcome's view is built once and kept in the
    numbering's `views` for every later check of it (another notion,
    `classify`, brute force, `canonical_pair`); an unacceptable one gets
    `is_acceptable`'s witness on every call and no view is kept."""

    def checker(search):
        def check(inst: Instance, outcome) -> StabilityVerdict:
            outcome, views = frozenset(outcome), inst.numbering.views
            view = views.get(outcome)
            if view is None:
                base = is_acceptable(inst, outcome)
                if not base.stable:
                    return StabilityVerdict(notion, False, base.witness)
                view = views[outcome] = FreshView(inst, outcome)
            witness = search(view)
            return StabilityVerdict(notion, witness is None, witness)

        check.__name__, check.__qualname__ = search.__name__, search.__qualname__
        check.__doc__ = search.__doc__
        return check

    return checker


def check_set_guard(candidates: int) -> None:
    """Refuse a set search over more than SET_GUARD fresh contracts."""
    if candidates > SET_GUARD:
        raise GuardExceededError(
            f"set search guard is {SET_GUARD} candidate contracts, have {candidates}"
        )


class _Budget:
    __slots__ = ("left",)

    def __init__(self):
        self.left = TRAIL_GUARD

    def spend(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise GuardExceededError(f"trail search exceeded the {TRAIL_GUARD} candidate guard")


def _shortest_trail(view, budget, done, seed=None, step=None, forward=True):
    """First trail of fresh contracts, shortest first and lexicographic by
    id sequence within a length, that `done(trail)` accepts.

    Breadth-first over position trails of distinct contracts: `seed` admits the
    one-contract trails, and `step(link, trail)` admits each extension at
    `link`, the agent joining the old end to the new contract, taken in id
    order.  Trails grow rightwards when `forward`, leftwards otherwise.
    Every seed candidate and every extension that passes the link test costs
    one budget unit.
    """
    # the link is the buyer of the last contract and sells the next one, or
    # the seller of the first contract and buys the one before it
    end, link_of, exts_of = (-1, view.buyer, view.sells) if forward else (0, view.seller, view.buys)
    frontier = []
    for i in view.fresh:
        budget.spend()
        if seed is None or seed((i,)):
            frontier.append((i,))
    while frontier:
        for trail in frontier:
            if done(trail):
                return trail
        nxt = []
        for trail in frontier:
            link = link_of[trail[end]]
            for ext in exts_of.get(link, ()):
                if ext in trail:
                    continue
                budget.spend()
                extended = trail + (ext,) if forward else (ext,) + trail
                if step is None or step(link, extended):
                    nxt.append(extended)
        frontier = sorted(nxt)
    return None


@_notion("trail")
def find_blocking_trail(view: FreshView) -> Witness | None:
    """Trail stability: no trail of fresh contracts may start with a contract
    its seller keeps, end with one its buyer keeps, and have every
    intermediate agent keep either all its prefix contracts (one global
    reading) or all its suffix contracts (the other).

    The two readings are searched independently, each extension asking the
    link agent to keep all of the grown prefix (or suffix), and the overall
    witness is the shortest-lex one.
    """
    budget = _Budget()
    found = []
    for option, seed, done, forward in (
        ("prefix", view.first_kept, view.last_kept, True),
        ("suffix", view.last_kept, view.first_kept, False),
    ):
        trail = _shortest_trail(view, budget, done, seed, view.keeps, forward)
        if trail:
            found.append((len(trail), trail, option))
    if found:
        _, trail, option = min(found)
        return Witness("trail", view.names(trail), option=option)
    return None


@_notion("full_trail")
def find_locally_blocking_trail(view: FreshView) -> Witness | None:
    """Full trail stability: like trail blocking, but each intermediate agent
    only needs to keep the consecutive pair it links.  Search is incremental;
    partial trails failing a pair condition are never extended."""
    found = _shortest_trail(view, _Budget(), view.last_kept, view.first_kept, view.keeps_pair)
    return Witness("trail", view.names(found)) if found else None


@_notion("chain")
def find_blocking_chain(view: FreshView) -> Witness | None:
    """Chain stability: locally blocking trails whose agents are all distinct."""

    def chain_step(link, trail):
        walk = [view.seller[trail[0]], *map(view.buyer.__getitem__, trail)]
        return len(set(walk)) == len(walk) and view.keeps_pair(link, trail)

    found = _shortest_trail(view, _Budget(), view.last_kept, view.first_kept, chain_step)
    return Witness("chain", view.names(found)) if found else None


@_notion("set")
def find_blocking_set(view: FreshView) -> Witness | None:
    """Set stability: no nonempty fresh contract set that every involved
    agent keeps in full alongside the outcome.

    Blocks are combinations of the fresh positions, which is
    `network.subsets` order, and each is asked of the view's agents in id
    order until one turns its share down: on one sum of shares per block,
    inlined (a `kept_by_all` call costs 7%), decoding only a blocking block.
    Menus are read from each agent's memo in place, and a miss asks the
    agent's selector, paired with its memo once per search, and is refused
    or stored as `choose_mask` would."""
    check_set_guard(len(view.fresh))
    shares = list(map(view.share, view.fresh))
    agents = [(choose_mask.__self__._select, base, shift, mask, memo)
              for choose_mask, base, shift, mask, memo in view.agents.values()]
    for size in range(1, len(shares) + 1):
        for k, total in enumerate(map(sum, combinations(shares, size))):
            for select, base, shift, mask, memo in agents:
                own = total >> shift & mask
                if own:
                    menu = own | base
                    chosen = memo[menu]
                    if chosen is None:
                        chosen = select(menu)
                        if chosen & ~menu:
                            select.__self__._overreach()
                        memo[menu] = chosen
                    if own & ~chosen:
                        break
            else:
                block = next(islice(combinations(view.fresh, size), k, None))
                return Witness("set", view.names(block))
    return None


@_notion("strong_trail")
def find_blocking_strong_trail(view: FreshView) -> Witness | None:
    """Strong trail stability: no trail of fresh contracts kept in full by
    every involved agent.  Whole-trail conditions admit no prefix pruning,
    so this enumerates trails within the guard, each asked of the view's
    agents as in the set search."""
    found = _shortest_trail(view, _Budget(), view.kept_by_all)
    return Witness("trail", view.names(found)) if found else None


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
