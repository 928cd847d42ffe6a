"""Exhaustive desk-scale validators for choice-function axioms.

Each check replays the defining quantifier of its axiom over every relevant
menu of a single agent and reports the first counterexample it meets, in a
fixed enumeration order, so reports are reproducible and self-validating: a
returned witness replayed through the definition reproduces the violation.

The quantifiers read the agent's menu table (`ChoiceFunction.menu_table`):
contract i of the sorted domain is bit i, and the table holds the chosen
mask of every menu mask.  Menus are visited in `network.subsets` order (by
size, then by id), so the first witness is the one the literal definition
meets first.

IRC, full substitutability, LAD/LAS and w-contraction each reduce to
one-contract steps from a menu m to m | {j}.  They first decide whether any
step violates on whole-table menu slices (`_Slices`), with a few big-int
operations per pair of contracts, and walk the menus only when one does, to
find the first witness.  Separability decides on the same slices which
givens some kept set and pair violate alongside (`_Slices.inseparable`),
and walks the kept sets only alongside the first of them.  The slices are
cut once per choice function and kept on it, as its menu table is.

All quantifiers are exponential in the agent's contract count, so every
check carries an explicit size guard instead of silently truncating.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass

from .choices import ChoiceFunction
from .errors import GuardExceededError, PreconditionError
from .guards import SIZE_GUARD
from .instances import Instance
from .network import at_bits, fields_json, mask_bits, sorted_ids, submasks


@dataclass(frozen=True)
class AxiomReport:
    axiom: str
    agent: str
    holds: bool
    witness: dict | None = None
    notes: tuple[str, ...] = ()

    to_json = fields_json


def check_size(cf: ChoiceFunction, what: str) -> None:
    """Refuse a walk over the menus of an agent with more than SIZE_GUARD
    contracts; `what` names the check that would walk them."""
    if len(cf.domain) > SIZE_GUARD:
        raise GuardExceededError(
            f"{what}: agent {cf.agent} has {len(cf.domain)} contracts, "
            f"guard is {SIZE_GUARD}"
        )


def _names(cf: ChoiceFunction, mask: int) -> list[str]:
    return sorted_ids(cf.names(mask))


# byte b translated through _BIT[j] is bit j of b, as a 0/1 byte
_BIT = tuple(bytes(b >> j & 1 for b in range(256)) for j in range(8))


@dataclass(frozen=True)
class _Slices:
    """An agent's menu table cut into one int per contract, one byte per menu.

    Byte m of an int (its bits 8m..8m+7) describes menu mask m.  For the
    contract j that is bit j of the menu masks, `chosen[j]` has byte m equal
    to 1 when j is chosen from m, `rejected[j]` when j is in m but not
    chosen, and `lacks[j]` when m lacks j.  `up_count` and `down_count` hold
    each menu's chosen count on each side, and `up_mask` tells the sides
    apart.  Menu m | {j} is menu m + 2^j for an m that lacks j, so shifting
    a slice right by 2^j bytes (`8 << j` bits) puts the bigger menu's byte
    on the smaller one; masking with `lacks[j]` keeps the menus where that
    is a step.  Sums of slices stay byte-wise while no byte passes 255, and
    every sum below stays under 160.  The priced checks ask them too, so only
    this class reads the byte layout."""

    up_mask: int
    ones: int
    chosen: list[int]
    rejected: list[int]
    lacks: list[int]
    up_count: int
    down_count: int

    @classmethod
    def of(cls, cf: ChoiceFunction) -> "_Slices":
        """The slices of `cf`'s menu table, cut on the first call and kept on
        `cf`, as the table is."""
        if cf._slices is None:
            table = cf.menu_table()
            size = len(table)
            raw = array("H", table).tobytes()  # masks of at most SIZE_GUARD bits fit
            low, high = (raw[0::2], raw[1::2]) if sys.byteorder == "little" else (raw[1::2], raw[0::2])
            chosen = [
                int.from_bytes((low if j < 8 else high).translate(_BIT[j & 7]), "little")
                for j in range(len(cf.ids))
            ]
            lacks = [
                int.from_bytes((b"\1" * (1 << j) + bytes(1 << j)) * (size >> (j + 1)), "little")
                for j in range(len(cf.ids))
            ]
            ones = int.from_bytes(b"\1" * size, "little")
            rejected = [ones ^ lack ^ c for lack, c in zip(lacks, chosen)]
            up = sum(c for j, c in enumerate(chosen) if cf.up_mask >> j & 1)
            down = sum(c for j, c in enumerate(chosen) if cf.down_mask >> j & 1)
            cf._slices = cls(cf.up_mask, ones, chosen, rejected, lacks, up, down)
        return cf._slices

    def irc_step_fails(self) -> bool:
        """Some menu's choice changes when one rejected contract is dropped.

        No `lacks` mask is needed: on a menu m holding j, menu m + 2^j lacks
        j, so the shifted `rejected[j]` is 0 there."""
        for j, rejected in enumerate(self.rejected):
            shift = 8 << j
            differs = 0
            for c in self.chosen:
                differs |= c ^ (c >> shift)
            if differs & (rejected >> shift):
                return True
        return False

    def substitutes_step_fails(self) -> bool:
        """Some step m -> m | {e} un-rejects a contract on e's side or
        rejects one chosen on the other side."""
        for e, lacks in enumerate(self.lacks):
            shift, side = 8 << e, self.up_mask >> e & 1
            bad = 0
            for k, (c, r) in enumerate(zip(self.chosen, self.rejected)):
                if self.up_mask >> k & 1 == side:
                    bad |= r & (c >> shift)
                else:
                    bad |= c & (r >> shift)
            if bad & lacks:
                return True
        return False

    def lad_las_step_fails(self) -> bool:
        """Some step m -> m | {e} widens the count gap against e's side.

        Byte m of `gap` is 64 plus the gap change in e's side's favour: at
        least 32 and at most 96, so no carry or borrow crosses bytes, and the
        change is negative exactly when bit 6 is clear."""
        up, down, offset = self.up_count, self.down_count, 64 * self.ones
        for e, lacks in enumerate(self.lacks):
            shift = 8 << e
            # byte m: n_up(m) + n_down(m | e) and n_down(m) + n_up(m | e)
            up_small_down_big, down_small_up_big = up + (down >> shift), down + (up >> shift)
            if self.up_mask >> e & 1:
                gap = offset + down_small_up_big - up_small_down_big
            else:
                gap = offset + up_small_down_big - down_small_up_big
            if ~gap & lacks << 6:
                return True
        return False

    def w_contraction_step_expands(self) -> bool:
        """Some one-contract step has rejection distance over 1: dropping an
        upstream contract or adding a downstream one.

        Byte m of `total` is 126 plus the distance of the step m -> m | {c},
        a byte-wise sum of 0/1 indicators, so bit 7 is set exactly when the
        distance is over 1."""
        for c, lacks in enumerate(self.lacks):
            shift, side = 8 << c, self.up_mask >> c & 1
            total = 126 * self.ones
            for k, r in enumerate(self.rejected):
                big = r >> shift
                # rejections the step adds on c's side, and drops on the other
                total += big & ~r if self.up_mask >> k & 1 == side else r & ~big
            if total & lacks << 7:
                return True
        return False

    def chooses_two(self, positions) -> bool:
        """Some menu chooses two or more of the contracts at `positions`.

        Byte m of `total` is 126 plus the count chosen from m, at most
        SIZE_GUARD, so bit 7 is set exactly when the count is over 1."""
        total = 126 * self.ones + sum(self.chosen[j] for j in positions)
        return bool(total & self.ones << 7)

    def chooses_beside(self, j: int, k: int) -> bool:
        """Some menu holding contract k chooses contract j."""
        return bool(self.chosen[j] & ~self.lacks[k])

    def always_kept(self, j: int) -> bool:
        """Contract j is chosen from every menu that holds it."""
        return not self.rejected[j]

    def inseparable(self, table: list[int]):
        """Yield, in `subsets` order, each `given` alongside which some kept
        set and some pair kept only together are not kept at once, with the
        pairs kept only together there (as `_pairs_kept_together` lists them).

        Contract b is kept alone alongside g when byte g of
        `chosen[b] | (chosen[b] >> (8 << b)) & lacks[b]` is set: the byte of
        g | {b}.  Lifting `chosen[u] & chosen[d]` over u and then d the same
        way marks the givens alongside which the pair is kept together, so
        an agent with one side has no pair and yields nothing.

        Alongside g, some kept set K missing a pair P is not kept with P
        added exactly when some menu M holds g, chooses every contract of M
        outside g, misses P - g, and has C(M) | P not within C(M | P): take
        M = K | g one way and K = C(M) - P the other.  M | P is M + s for
        s = P - g, fixed for the given, so `_breaks` marks the last test for
        every M at once, and one whole-int test per given settles it."""
        chosen, rejected, lacks = self.chosen, self.rejected, self.lacks
        n = len(chosen)
        ups = [j for j in range(n) if self.up_mask >> j & 1]
        downs = [j for j in range(n) if not self.up_mask >> j & 1]
        if not ups or not downs:
            return
        # byte g: j is not kept alone alongside g
        not_alone = [self.ones ^ (c | (c >> (8 << j)) & lacks[j]) for j, c in enumerate(chosen)]
        paired = 0
        for u in ups:
            with_u = 0
            for d in downs:
                together = chosen[u] & chosen[d]
                together |= together >> (8 << u) & lacks[u]
                together |= together >> (8 << d) & lacks[d]
                with_u |= together & not_alone[d]
            paired |= with_u & not_alone[u]
        if not paired:
            return
        full = (1 << n) - 1
        flags = paired.to_bytes(1 << n, "little")
        broken: dict[tuple[int, int], int] = {}
        for given in submasks(full):
            if not flags[given]:
                continue
            pairs = _pairs_kept_together(table, given, self.up_mask, full ^ self.up_mask)
            reach = 0
            for up, down in pairs:
                pair = up | down
                key = (pair, pair & given)
                if key not in broken:
                    broken[key] = self._breaks(pair, pair & ~given)
                reach |= broken[key]
            # the menus K | given: bytes that hold `given` and reject nothing outside it
            outside = 0
            for j in range(n):
                outside |= lacks[j] if given >> j & 1 else rejected[j]
            if reach & ~outside:
                yield given, pairs

    def _breaks(self, pair: int, step: int) -> int:
        """Byte m is set when m lacks `step` and some contract chosen from m,
        or of `pair`, is not chosen from m + step."""
        shift = 8 * step
        broken = 0
        for k, (c, r) in enumerate(zip(self.chosen, self.rejected)):
            broken |= r >> shift if pair >> k & 1 else c & r >> shift
        for lacks in at_bits(self.lacks, step):
            broken &= lacks
        return broken


def check_irc(cf: ChoiceFunction) -> AxiomReport:
    """Removing rejected contracts from the offer must not change the choice.

    Any menu between the choice and the offer is reached by dropping rejected
    contracts one at a time, and each drop that preserves the choice keeps
    the remaining contracts rejected, so checking single removals on every
    menu is exactly equivalent to checking every intermediate menu."""
    check_size(cf, "irc")
    if not _Slices.of(cf).irc_step_fails():
        return AxiomReport("irc", cf.agent, True)
    table = cf.menu_table()
    for menu in submasks(cf.up_mask | cf.down_mask):
        chosen = table[menu]
        for dropped in mask_bits(menu & ~chosen):
            trimmed = menu ^ dropped
            if table[trimmed] != chosen:
                return AxiomReport("irc", cf.agent, False, {
                    "offer": _names(cf, menu),
                    "trimmed_offer": _names(cf, trimmed),
                    "choice_from_offer": _names(cf, chosen),
                    "choice_from_trimmed": _names(cf, table[trimmed]),
                })
    return AxiomReport("irc", cf.agent, True)


def check_full_substitutability(cf: ChoiceFunction) -> AxiomReport:
    """Same-side offers act as substitutes, cross-side offers as complements.

    Four containments over nested menus: growing one side never un-rejects a
    contract on that side, and shrinking one side never un-rejects a contract
    on the other side.  Nested pairs decompose into chains of single-contract
    insertions and the containments compose along a chain, so checking every
    one-contract step is exactly equivalent to checking every nested pair.
    """
    check_size(cf, "full_substitutability")
    if not _Slices.of(cf).substitutes_step_fails():
        return AxiomReport("full_substitutability", cf.agent, True)
    table = cf.menu_table()
    U, D = cf.up_mask, cf.down_mask
    # (condition, grown side, side compared), in checking order: a same-side
    # step must keep every rejection there, a cross-side step must add none
    conditions = (("same_side_upstream", U, U), ("cross_side_upstream", D, U),
                  ("same_side_downstream", D, D), ("cross_side_downstream", U, D))
    for down in submasks(D):
        for up in submasks(U):
            menu = up | down
            rej = menu & ~table[menu]
            for condition, grown, side in conditions:
                for extra in mask_bits(grown & ~menu):
                    rej_big = (menu | extra) & ~table[menu | extra]
                    bad = (rej & ~rej_big if grown == side else rej_big & ~rej) & side
                    if bad:
                        key, other = ("up", "down") if grown == U else ("down", "up")
                        return AxiomReport("full_substitutability", cf.agent, False, {
                            "condition": condition,
                            "contract": _names(cf, bad & -bad)[0],
                            key: _names(cf, (menu | extra) & grown),
                            f"{key}_smaller": _names(cf, menu & grown),
                            other: _names(cf, menu & ~grown),
                        })
    return AxiomReport("full_substitutability", cf.agent, True)


def check_lad_las(cf: ChoiceFunction) -> AxiomReport:
    """Aggregate demand/supply laws: growing one side's offers cannot widen
    the count gap in the other side's favor.  The count differences telescope
    along chains of single-contract insertions, so per-step checking is
    exactly equivalent to checking every nested pair."""
    check_size(cf, "lad_las")
    if not _Slices.of(cf).lad_las_step_fails():
        return AxiomReport("lad_las", cf.agent, True)
    table = cf.menu_table()
    U, D = cf.up_mask, cf.down_mask
    laws = (("aggregate_demand", U, D, "up", "down"), ("aggregate_supply", D, U, "down", "up"))
    for down in submasks(D):
        for up in submasks(U):
            menu = up | down
            chosen = table[menu]
            for law, side, other, key, other_key in laws:
                n, n_other = (chosen & side).bit_count(), (chosen & other).bit_count()
                for extra in mask_bits(side & ~menu):
                    big = table[menu | extra]
                    n_big, n_other_big = (big & side).bit_count(), (big & other).bit_count()
                    if n_big - n < n_other_big - n_other:
                        return AxiomReport("lad_las", cf.agent, False, {
                            "law": law,
                            key: _names(cf, (menu | extra) & side),
                            f"{key}_smaller": _names(cf, menu & side),
                            other_key: _names(cf, menu & other),
                            "chosen_counts": [n_big, n, n_other_big, n_other],
                        })
    return AxiomReport("lad_las", cf.agent, True)


def _pairs_kept_together(table: list[int], given: int, up: int, down: int) -> list[tuple[int, int]]:
    """The (upstream, downstream) pairs kept together alongside `given` while
    neither contract is kept alone, in (upstream id, downstream id) order."""
    alone = sum(b for b in mask_bits(up | down) if table[given | b] & b)
    return [(u, d) for u in mask_bits(up & ~alone) for d in mask_bits(down & ~alone)
            if not (u | d) & ~table[given | u | d]]


def check_separability(cf: ChoiceFunction) -> AxiomReport:
    """Joint upstream/downstream pairs can be signed independently of other
    kept contracts: a kept set plus a kept-only-together pair stays kept.

    A set is kept alongside `given` when the choice from their union keeps
    all of it.  The slices name the givens alongside which some kept set and
    pair violate (`_Slices.inseparable`); the kept sets are walked, in
    `subsets` order, only alongside the first of them, for the witness."""
    check_size(cf, "separability")
    table = cf.menu_table()
    for given, pairs in _Slices.of(cf).inseparable(table):
        for kept in submasks(cf.up_mask | cf.down_mask):
            if kept & ~table[kept | given]:
                continue
            for up, down in pairs:
                union = kept | up | down
                if not (up | down) & kept and union & ~table[given | union]:
                    return AxiomReport("separability", cf.agent, False, {
                        "given": _names(cf, given),
                        "kept": _names(cf, kept),
                        "pair": _names(cf, up) + _names(cf, down),
                        "union_choice": _names(cf, table[given | union]),
                    })
    return AxiomReport("separability", cf.agent, True)


_EMPTY_DOWNSTREAM = (
    "kept set has upstream contracts but no downstream ones; the requirement fails by emptiness",
)


def check_simplicity(cf: ChoiceFunction, intensity: dict[str, float]) -> AxiomReport:
    """Every kept upstream contract must out-rank some kept downstream one
    under the supplied intensity map.

    Kept sets are quantified over the individually rational sets of the
    agent (any conditioning set would do, since the empty one already makes
    a set kept exactly when it is individually rational).  A kept set with
    upstream contracts but no downstream ones fails the quantifier by
    emptiness; that situation is flagged in the notes because it is what any
    accepting one-sided agent produces.
    """
    check_size(cf, "simplicity")
    missing = cf.domain - set(intensity)
    if missing:
        witness = {"missing_intensity": sorted_ids(missing)}
        return AxiomReport("simplicity", cf.agent, False, witness)
    table = cf.menu_table()
    for kept in submasks(cf.up_mask | cf.down_mask):
        if table[kept] != kept:
            continue
        down = kept & cf.down_mask
        for up in at_bits(cf.ids, kept & cf.up_mask):
            if not any(intensity[up] > intensity[d] for d in at_bits(cf.ids, down)):
                return AxiomReport("simplicity", cf.agent, False, {
                    "kept": _names(cf, kept),
                    "upstream_contract": up,
                    "downstream_intensities": {d: intensity[d] for d in _names(cf, down)},
                }, () if down else _EMPTY_DOWNSTREAM)
    return AxiomReport("simplicity", cf.agent, True)


def check_w_contraction(cf: ChoiceFunction) -> AxiomReport:
    """The rejection map must not expand the signed weight of nested menu
    differences (+1 per upstream contract, -1 per downstream contract).

    Pairs are nested as up_small <= up and down <= down_big.  The weight of
    a directed difference (big over small) is its upstream growth minus the
    complement of its downstream shrinkage.  Both sides of the inequality
    carry the same -|downstream|; without it the weight is a directed
    distance, which obeys the triangle inequality and adds up along a chain
    of one-contract steps between nested pairs.  So some nested pair is
    expanded exactly when some one-contract step is, and the steps settle
    the verdict.  A violator's first witness is found by walking the nested
    pairs directly, 3^|up| * 3^|down| of them: the supersets of a set, in
    `subsets` order, are the set joined with each subset of the rest."""
    check_size(cf, "w_contraction")
    if not _Slices.of(cf).w_contraction_step_expands():
        return AxiomReport("w_contraction", cf.agent, True)
    U, D = cf.up_mask, cf.down_mask
    rej = [m & ~c for m, c in enumerate(cf.menu_table())]

    def distance(big, small):
        return ((rej[big] & ~rej[small] & U) | (rej[small] & ~rej[big] & D)).bit_count()

    ups, downs = list(submasks(U)), list(submasks(D))
    up_supersets = {s: [s | x for x in submasks(U & ~s)] for s in ups}
    down_supersets = {s: [s | x for x in submasks(D & ~s)] for s in downs}
    for up_small in ups:
        for up in up_supersets[up_small]:
            for down in downs:
                for down_big in down_supersets[down]:
                    big, small = up | down, up_small | down_big
                    lhs, rhs = distance(big, small), (big ^ small).bit_count()
                    if lhs > rhs:
                        return AxiomReport("w_contraction", cf.agent, False, {
                            "up": _names(cf, up),
                            "up_smaller": _names(cf, up_small),
                            "down": _names(cf, down),
                            "down_bigger": _names(cf, down_big),
                            "weights": [lhs - D.bit_count(), rhs - D.bit_count()],
                        })
    return AxiomReport("w_contraction", cf.agent, True)


_CHECKS = {
    "irc": check_irc,
    "full_substitutability": check_full_substitutability,
    "lad_las": check_lad_las,
    "separability": check_separability,
    "w_contraction": check_w_contraction,
}

# the axioms of one choice function alone; simplicity also needs an
# intensity map, so it is asked through `check_simplicity`
AXIOM_NAMES = tuple(_CHECKS)


def check_agent(cf: ChoiceFunction, axioms=None) -> list[AxiomReport]:
    out = []
    for name in axioms or AXIOM_NAMES:
        if name not in _CHECKS:
            raise PreconditionError(f"unknown axiom {name!r}")
        out.append(_CHECKS[name](cf))
    return out


def check_instance(inst: Instance, axioms=None, agents=None) -> list[AxiomReport]:
    """Per-agent reports; a network-level verdict is their conjunction."""
    agents = sorted(agents) if agents else sorted(inst.network.agents)
    out: list[AxiomReport] = []
    for agent in agents:
        out.extend(check_agent(inst.choice[agent], axioms))
    return out

