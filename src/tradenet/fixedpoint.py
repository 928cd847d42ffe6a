"""Offer-pair fixed points and their lattice structure.

The engine iterates one operator on pairs of contract sets: `buyer_side` is
what buyers may currently sign, `seller_side` what sellers may.  A response
round removes, from the whole contract set, everything sellers reject out of
the seller side (to form the next buyer side) and everything buyers reject
out of the buyer side (to form the next seller side).  With fully
substitutable, consistent choice functions the operator is isotone in the
order (buyer side grows, seller side shrinks), so iterating from either
lattice extreme converges; the outcomes read off the fixed points are exactly
the outcomes no locally blocking trail can upset.
Enumeration needs no isotonicity: it joins per-agent menu tables instead of
scanning all 3^|X| side assignments.  Joins, rounds and the terminal lattice
run on the instance's one `instances.Numbering` (contract i in sorted-id order
is bit i), so a pair is one int inside and two contract sets when read.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from . import axioms
from .choices import is_individually_rational
from .errors import GuardExceededError, IterationDiagnosisError, PreconditionError
from .guards import ENUMERATION_GUARD
from .instances import Instance, Numbering
from .network import fields_json, mask_bits, sorted_ids, spread
from .stability import FreshView, find_locally_blocking_trail, is_acceptable


@dataclass(frozen=True)
class OfferPair:
    buyer_side: frozenset[str]
    seller_side: frozenset[str]

    @property
    def outcome(self) -> frozenset[str]:
        return self.buyer_side & self.seller_side

    to_json = fields_json

    def sort_key(self):
        return (sorted(self.buyer_side), sorted(self.seller_side))


def top_pair(inst: Instance) -> OfferPair:
    return OfferPair(inst.contract_ids, frozenset())


def bottom_pair(inst: Instance) -> OfferPair:
    return OfferPair(frozenset(), inst.contract_ids)


def _row(inst: Instance, pair: OfferPair) -> int:
    """The pair's row; a pair naming contracts the instance lacks is refused."""
    if not pair.buyer_side | pair.seller_side <= inst.contract_ids:
        raise PreconditionError("offer pair names contracts the instance lacks")
    num = inst.numbering
    return num.row(num.mask(pair.buyer_side), num.mask(pair.seller_side))


def _pair(num: Numbering, row: int) -> OfferPair:
    buyer, seller = num.sides(row)
    return OfferPair(num.names(buyer), num.names(seller))


def respond(inst: Instance, pair: OfferPair) -> OfferPair:
    """One simultaneous response round of all agents.  Each agent is asked
    once, for its seller-side sales and buyer-side purchases together, as a
    menu mask; what it rejects of either side leaves the other; unknown ids are refused."""
    return _pair(inst.numbering, inst.numbering.respond(_row(inst, pair)))


@dataclass(frozen=True)
class FixedPointResult:
    """A run as rows of the instance's numbering: the start, each answer and
    the fixed point last, decoded when read (the pair once).  Results are
    equal when their rows and contract ids are: the same pairs, same rounds."""

    numbering: Numbering = field(compare=False, repr=False)
    rows: tuple[int, ...]
    ids: tuple[str, ...] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "ids", tuple(self.numbering.ids))

    pair = functools.cached_property(lambda self: _pair(self.numbering, self.rows[-1]))
    outcome = property(lambda self: self.pair.outcome)
    iterations = property(lambda self: len(self.rows) - 1)
    trace = property(lambda self: tuple(_pair(self.numbering, row) for row in self.rows))

    # the pair is flattened into the result, and the trace comes only on request
    def to_json(self, include_trace: bool = False) -> dict:
        out = {**self.pair.to_json(), "outcome": sorted_ids(self.outcome),
               "iterations": self.iterations}
        if include_trace:
            out["trace"] = [p.to_json() for p in self.trace]
        return out


def rounds(num: Numbering, row: int) -> tuple[int, ...]:
    """Response rounds from a row comparable with its successor, as rows: the
    start, then each answer up to the fixed point, which is not repeated.
    They must stay monotone in a fixed direction and settle within 2|X| + 2
    rounds (the order has no longer strictly monotone path); any breach is
    diagnosed as an axiom violation in the supplied choice functions rather
    than silently looped over."""
    cur = num.respond(row)
    ascending = num.leq(row, cur)
    if not ascending and not num.leq(cur, row):
        raise PreconditionError(
            "start pair is not comparable with its response; "
            "begin from the top or bottom pair"
        )
    cap, trace = 2 * num.n + 2, [row]
    while cur != trace[-1]:
        if len(trace) > cap:
            raise IterationDiagnosisError(
                f"no fixed point within {cap} rounds; choice functions are "
                "not fully substitutable and consistent"
            )
        trace.append(cur)
        cur = num.respond(cur)
        if not (num.leq(trace[-1], cur) if ascending else num.leq(cur, trace[-1])):
            raise IterationDiagnosisError(
                "response rounds left the monotone path; choice functions "
                "are not fully substitutable and consistent"
            )
    return tuple(trace)


def iterate_from(inst: Instance, start: OfferPair) -> FixedPointResult:
    """`rounds` from an offer pair, kept as rows; a start naming unknown contracts is refused."""
    return FixedPointResult(inst.numbering, rounds(inst.numbering, _row(inst, start)))


def buyer_optimal(inst: Instance) -> FixedPointResult:
    """Fixed point from the buyer-favorable extreme (every contract open to
    buyers, none yet conceded to sellers)."""
    return iterate_from(inst, top_pair(inst))


def seller_optimal(inst: Instance) -> FixedPointResult:
    return iterate_from(inst, bottom_pair(inst))


def join_states(inst: Instance, rows) -> list[int]:
    """Every assignment of states to contracts that each agent admits, as
    rows over the instance's numbering.

    A row is one int `buyer | seller << n` (n = |X|): the masks of the
    contracts it puts on the buyer side and on the seller side, so a
    contract's state is which of its two bits are set.  `rows(cf, lift, n)`
    lists an agent's admissible rows, where `lift[m]` is the instance mask of
    its local mask m.  A hash join keyed by `row & (A | A << n)`, A the
    agent's contracts already assigned, keeps the assignments on which both
    agents of every contract agree.  Agents are taken by falling domain size
    and then id, a variable-elimination order (Dechter, "Bucket elimination",
    AIJ 113 (1999)).  Returns one row per assignment.
    """
    num = inst.numbering
    assigned, partials = 0, [0]
    for cf, up, down, _ in sorted(num.agents, key=lambda a: (-len(a[0].domain), a[0].agent)):
        lift = spread(mask_bits(up | down))
        shared = lift[-1] & assigned
        key = shared | shared << num.n
        table: dict[int, list[int]] = {}
        for row in rows(cf, lift, num.n):
            table.setdefault(row & key, []).append(row)
        partials = [p | e for p in partials for e in table.get(p & key, ())]
        assigned |= lift[-1]
    return partials


def _side_states(cf, lift, n):
    """One row per menu: a kept contract is on both sides; one not kept is on
    the seller side alone if offered downstream or unoffered upstream, else on
    the buyer side alone."""
    everything = len(lift) - 1
    for menu, kept in enumerate(cf.menu_table()):
        seller_only = menu ^ cf.up_mask
        yield lift[kept | everything ^ seller_only] | lift[kept | seller_only] << n


def _fixed_point_rows(inst: Instance) -> tuple[int, ...]:
    """The fixed points' rows, in `OfferPair.sort_key` order: joined on the
    instance's first call, each confirmed by one response round, and kept on
    its numbering.  Instances over ENUMERATION_GUARD contracts are refused
    before any numbering is built or menu asked."""
    if len(inst.contract_ids) > ENUMERATION_GUARD:
        raise GuardExceededError(
            f"fixed-point enumeration guard is {ENUMERATION_GUARD} contracts, "
            f"instance has {len(inst.contract_ids)}"
        )
    num = inst.numbering
    if num.fixed_points is None:
        rows = join_states(inst, _side_states)
        if any(num.respond(row) != row for row in rows):
            raise IterationDiagnosisError(
                "menu tables joined into a pair that is not a fixed point; "
                "a choice function answers the same menu inconsistently"
            )
        num.fixed_points = tuple(sorted(rows, key=num.order))
    return num.fixed_points


def enumerate_fixed_points(inst: Instance) -> list[FixedPointResult]:
    """All fixed points, by joining one menu table per agent.

    A contract is on the buyer side exactly when its seller does not reject
    it, and on the seller side exactly when its buyer does not, so the menu an
    agent faces fixes the state of each of its contracts: buyer side, seller
    side or both.  Each agent's rows are read off its menu table,
    `join_states` keeps the assignments on which every seller and buyer
    agree, and one response round confirms each.  The rows are kept, and
    each call wraps them in new results, decoded when read.  Instances over
    ENUMERATION_GUARD contracts are refused before any menu is asked.
    """
    return [FixedPointResult(inst.numbering, (row,)) for row in _fixed_point_rows(inst)]


def fixed_point_outcomes(inst: Instance) -> list[frozenset[str]]:
    """Distinct outcomes of the fixed points, ordered by sorted ids."""
    rows = _fixed_point_rows(inst)
    num = inst.numbering
    return sorted(map(num.names, {b & s for b, s in map(num.sides, rows)}), key=sorted_ids)


def canonical_pair(inst: Instance, outcome) -> OfferPair:
    """The fixed point carrying a given locally-unblockable outcome.

    A non-outcome contract goes to the buyer side when some trail of
    non-outcome contracts reaches it with its first contract kept by its
    seller alongside the outcome and every consecutive pair kept by the
    linking agent; everything else goes to the seller side.  Reachability by
    walks equals reachability by trails here (repeats can be cut out without
    breaking the consecutive conditions), so a closure suffices.  An outcome
    naming unknown contracts, or not fully trail-stable, is refused; the
    row of `_canonical_row` is decoded once, at return.
    """
    outcome = inst.known(outcome)
    if not is_acceptable(inst, outcome).stable:
        raise PreconditionError("outcome is not acceptable")
    if not find_locally_blocking_trail(inst, outcome).stable:
        raise PreconditionError("outcome has a locally blocking trail")
    return _pair(inst.numbering, _canonical_row(inst, outcome))


def _canonical_row(inst: Instance, outcome: frozenset[str]) -> int:
    """`canonical_pair`'s closure as a row, unchecked: `outcome` must be a
    fully trail-stable outcome of the instance.  It reads the outcome's kept
    view, or builds one it does not keep."""
    num = inst.numbering
    view = num.views.get(outcome) or FreshView(inst, outcome)
    frontier = [i for i in view.fresh if view.first_kept((i,))]
    reached = sum(1 << i for i in frontier)
    while frontier:
        nxt = []
        for i in frontier:
            link = view.buyer[i]
            for j in view.sells.get(link, ()):
                if not reached >> j & 1 and view.keeps(link, (i, j)):
                    reached |= 1 << j
                    nxt.append(j)
        frontier = nxt
    return num.row(num.mask(outcome) | reached, num.full ^ reached)


# ---------------------------------------------------------------------------
# terminal superiority and the terminal lattice
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuperiorityVerdict:
    relation: str  # seller_superior | buyer_superior | equal | incomparable

    to_json = fields_json


def prefers(inst: Instance, agent: str, preferred, other) -> bool:
    """The agent keeps exactly its `preferred` contracts from the union of
    both outcomes.  Identical restrictions count as preferring either way.
    Unknown contracts are refused."""
    cf = inst.choice[agent]
    mine = inst.known(preferred) & cf.domain
    theirs = inst.known(other) & cf.domain
    return cf.choose(mine | theirs) == mine


def compare_terminal_superiority(inst: Instance, first, second) -> SuperiorityVerdict:
    """Compare two outcomes through the eyes of terminal agents only.

    Seller-superior: every terminal seller keeps exactly the first outcome's
    contracts from the union, and every terminal buyer keeps the second's.
    Buyer-superior is the mirror image; two outcomes agreeing on every
    terminal agent's contracts are equal.  Unknown contracts are refused.
    """
    first, second = inst.known(first), inst.known(second)
    part = inst.network.terminal_partition()
    for agent in sorted(part.terminal_agents):
        for outcome in (first, second):
            if not is_individually_rational(inst.choice[agent], outcome):
                raise PreconditionError(
                    f"outcome is not individually rational for terminal agent {agent}"
                )
    if all(
        (first & inst.choice[a].domain) == (second & inst.choice[a].domain)
        for a in part.terminal_agents
    ):
        return SuperiorityVerdict("equal")
    seller_sup = all(
        prefers(inst, a, first, second) for a in part.terminal_sellers
    ) and all(prefers(inst, a, second, first) for a in part.terminal_buyers)
    buyer_sup = all(
        prefers(inst, a, second, first) for a in part.terminal_sellers
    ) and all(prefers(inst, a, first, second) for a in part.terminal_buyers)
    if seller_sup:
        return SuperiorityVerdict("seller_superior")
    if buyer_sup:
        return SuperiorityVerdict("buyer_superior")
    return SuperiorityVerdict("incomparable")


@dataclass(frozen=True)
class TerminalLattice:
    """Distinct terminal projections of the canonical fixed points, with join
    and meet computed through canonical inverse images (the join of all fixed
    points projecting weakly below an element).

    Elements are in bijection with the distinct terminal contract sets of the
    locally-unblockable outcomes: canonical pairs of outcomes agreeing on
    every terminal agent project identically, so a unique outcome always
    yields a one-element lattice even when many fixed points carry it."""

    elements: tuple[OfferPair, ...]          # projections to terminal contracts
    outcomes: tuple[frozenset[str], ...]     # terminal outcome per element
    joins: dict[tuple[int, int], int]
    meets: dict[tuple[int, int], int]

    def to_json(self) -> dict:  # elements zipped with outcomes, "i,j" join and meet keys
        return {
            "elements": [
                {**p.to_json(), "terminal_outcome": sorted_ids(o)}
                for p, o in zip(self.elements, self.outcomes)
            ],
            "joins": {f"{i},{j}": k for (i, j), k in sorted(self.joins.items())},
            "meets": {f"{i},{j}": k for (i, j), k in sorted(self.meets.items())},
        }


def terminal_lattice(inst: Instance, *, validate: bool = True) -> TerminalLattice:
    """Lattice of terminal projections of the fixed points.

    Requires full substitutability plus the aggregate demand/supply laws;
    without them the fixed points need not be closed under join and meet and
    the construction is refused rather than computed on bad footing.  It runs
    on rows, projected by a row mask of the terminal contracts and combined by
    `Numbering.join` and `meet`; the elements become offer pairs at return.
    """
    if validate:
        reports = axioms.check_instance(inst, ("full_substitutability", "lad_las"))
        failed = [r for r in reports if not r.holds]
        if failed:
            raise PreconditionError(
                "terminal lattice needs full substitutability and the aggregate demand/supply laws",
                failed,
            )
    num = inst.numbering
    part = inst.network.terminal_partition()
    # a set: a contract between two terminal agents is in both domains
    terminal = num.mask({c for a in part.terminal_agents for c in inst.choice[a].domain})
    project = num.row(terminal, terminal)
    fps = _fixed_point_rows(inst)
    projections = {_canonical_row(inst, o) & project for o in fixed_point_outcomes(inst)}
    elements = sorted(projections, key=num.order)
    index = {p: i for i, p in enumerate(elements)}
    # the canonical inverse image: the join of the fixed points projecting below
    inverses = [
        functools.reduce(num.join, [f for f in fps if num.leq(f & project, p)])
        for p in elements
    ]
    joins, meets = {}, {}  # (i, j) -> index of the join, of the meet
    for i, ci in enumerate(inverses):
        for j, cj in enumerate(inverses):
            joined, met = num.join(ci, cj) & project, num.meet(ci, cj) & project
            if joined not in index or met not in index:
                raise IterationDiagnosisError(
                    "terminal projections are not closed under join/meet; "
                    "axiom check was expected to preclude this"
                )
            joins[(i, j)] = index[joined]
            meets[(i, j)] = index[met]
    pairs = tuple(_pair(num, p) for p in elements)
    return TerminalLattice(pairs, tuple(p.outcome for p in pairs), joins, meets)
