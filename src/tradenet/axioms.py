"""Exhaustive desk-scale validators for choice-function axioms.

Each check replays the defining quantifier of its axiom over every relevant
menu of a single agent and reports the first counterexample it meets, in a
fixed enumeration order, so reports are reproducible and self-validating: a
returned witness replayed through the definition reproduces the violation.

All quantifiers are exponential in the agent's contract count, so every
check carries an explicit size guard instead of silently truncating.
"""

from __future__ import annotations

from dataclasses import dataclass

from .choices import ChoiceFunction, is_individually_rational, is_rational, is_rational_pair
from .errors import GuardExceededError, PreconditionError
from .instances import Instance
from .network import sorted_ids, subsets

SIZE_GUARD = 16

AXIOM_NAMES = (
    "irc",
    "full_substitutability",
    "lad_las",
    "separability",
    "simplicity",
    "w_contraction",
)


@dataclass(frozen=True)
class AxiomReport:
    axiom: str
    agent: str
    holds: bool
    witness: dict | None = None
    notes: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "axiom": self.axiom,
            "agent": self.agent,
            "holds": self.holds,
            "witness": self.witness,
            "notes": list(self.notes),
        }


def _guard(cf: ChoiceFunction, axiom: str) -> None:
    if len(cf.domain) > SIZE_GUARD:
        raise GuardExceededError(
            f"{axiom}: agent {cf.agent} has {len(cf.domain)} contracts, "
            f"guard is {SIZE_GUARD}"
        )


def check_irc(cf: ChoiceFunction) -> AxiomReport:
    """Removing rejected contracts from the offer must not change the choice.

    Any menu between the choice and the offer is reached by dropping rejected
    contracts one at a time, and each drop that preserves the choice keeps
    the remaining contracts rejected, so checking single removals on every
    menu is exactly equivalent to checking every intermediate menu."""
    _guard(cf, "irc")
    for menu in subsets(cf.domain):
        chosen = cf.choose(menu)
        for dropped in sorted(menu - chosen):
            trimmed = menu - {dropped}
            if cf.choose(trimmed) != chosen:
                return AxiomReport(
                    "irc",
                    cf.agent,
                    False,
                    witness={
                        "offer": sorted_ids(menu),
                        "trimmed_offer": sorted_ids(trimmed),
                        "choice_from_offer": sorted_ids(chosen),
                        "choice_from_trimmed": sorted_ids(cf.choose(trimmed)),
                    },
                )
    return AxiomReport("irc", cf.agent, True)


def check_full_substitutability(cf: ChoiceFunction) -> AxiomReport:
    """Same-side offers act as substitutes, cross-side offers as complements.

    Four containments over nested menus: growing one side never un-rejects a
    contract on that side, and shrinking one side never un-rejects a contract
    on the other side.  Nested pairs decompose into chains of single-contract
    insertions and the containments compose along a chain, so checking every
    one-contract step is exactly equivalent to checking every nested pair.
    """
    _guard(cf, "full_substitutability")

    def violation(condition, small_rej, big_rej, sets):
        extra = small_rej - big_rej
        return AxiomReport(
            "full_substitutability",
            cf.agent,
            False,
            witness={
                "condition": condition,
                "contract": min(extra),
                **{k: sorted_ids(v) for k, v in sets.items()},
            },
        )

    for down in subsets(cf.downstream):
        for up in subsets(cf.upstream):
            rej = cf.rejected_upstream(up, down)
            for extra_up in sorted(cf.upstream - up):
                grown = up | {extra_up}
                if not rej <= cf.rejected_upstream(grown, down):
                    return violation(
                        "same_side_upstream",
                        rej,
                        cf.rejected_upstream(grown, down),
                        {"up": grown, "up_smaller": up, "down": down},
                    )
            for extra_down in sorted(cf.downstream - down):
                grown = down | {extra_down}
                if not cf.rejected_upstream(up, grown) <= rej:
                    return violation(
                        "cross_side_upstream",
                        cf.rejected_upstream(up, grown),
                        rej,
                        {"up": up, "down": grown, "down_smaller": down},
                    )
            rej = cf.rejected_downstream(down, up)
            for extra_down in sorted(cf.downstream - down):
                grown = down | {extra_down}
                if not rej <= cf.rejected_downstream(grown, up):
                    return violation(
                        "same_side_downstream",
                        rej,
                        cf.rejected_downstream(grown, up),
                        {"down": grown, "down_smaller": down, "up": up},
                    )
            for extra_up in sorted(cf.upstream - up):
                grown = up | {extra_up}
                if not cf.rejected_downstream(down, grown) <= rej:
                    return violation(
                        "cross_side_downstream",
                        cf.rejected_downstream(down, grown),
                        rej,
                        {"down": down, "up": grown, "up_smaller": up},
                    )
    return AxiomReport("full_substitutability", cf.agent, True)


def check_lad_las(cf: ChoiceFunction) -> AxiomReport:
    """Aggregate demand/supply laws: growing one side's offers cannot widen
    the count gap in the other side's favor.  The count differences telescope
    along chains of single-contract insertions, so per-step checking is
    exactly equivalent to checking every nested pair."""
    _guard(cf, "lad_las")
    for down in subsets(cf.downstream):
        for up in subsets(cf.upstream):
            nb = len(cf.chosen_upstream(up, down))
            ns = len(cf.chosen_downstream(down, up))
            for extra_up in sorted(cf.upstream - up):
                grown = up | {extra_up}
                nb_big = len(cf.chosen_upstream(grown, down))
                ns_big = len(cf.chosen_downstream(down, grown))
                if nb_big - nb < ns_big - ns:
                    return AxiomReport(
                        "lad_las",
                        cf.agent,
                        False,
                        witness={
                            "law": "aggregate_demand",
                            "up": sorted_ids(grown),
                            "up_smaller": sorted_ids(up),
                            "down": sorted_ids(down),
                            "chosen_counts": [nb_big, nb, ns_big, ns],
                        },
                    )
            for extra_down in sorted(cf.downstream - down):
                grown = down | {extra_down}
                ns_big = len(cf.chosen_downstream(grown, up))
                nb_big = len(cf.chosen_upstream(up, grown))
                if ns_big - ns < nb_big - nb:
                    return AxiomReport(
                        "lad_las",
                        cf.agent,
                        False,
                        witness={
                            "law": "aggregate_supply",
                            "down": sorted_ids(grown),
                            "down_smaller": sorted_ids(down),
                            "up": sorted_ids(up),
                            "chosen_counts": [ns_big, ns, nb_big, nb],
                        },
                    )
    return AxiomReport("lad_las", cf.agent, True)


def check_separability(cf: ChoiceFunction) -> AxiomReport:
    """Joint upstream/downstream pairs can be signed independently of other
    kept contracts: a kept set plus a kept-only-together pair stays kept."""
    _guard(cf, "separability")
    for given in subsets(cf.domain):
        for kept in subsets(cf.domain):
            if not is_rational(cf, kept, given):
                continue
            for up in sorted(cf.upstream - kept):
                for down in sorted(cf.downstream - kept):
                    if not is_rational_pair(cf, up, down, given):
                        continue
                    if not is_rational(cf, kept | {up, down}, given):
                        return AxiomReport(
                            "separability",
                            cf.agent,
                            False,
                            witness={
                                "given": sorted_ids(given),
                                "kept": sorted_ids(kept),
                                "pair": [up, down],
                                "union_choice": sorted_ids(
                                    cf.choose(given | kept | {up, down})
                                ),
                            },
                        )
    return AxiomReport("separability", cf.agent, True)


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
    _guard(cf, "simplicity")
    missing = cf.domain - set(intensity)
    if missing:
        return AxiomReport(
            "simplicity",
            cf.agent,
            False,
            witness={"missing_intensity": sorted_ids(missing)},
        )
    for kept in subsets(cf.domain):
        if not is_individually_rational(cf, kept):
            continue
        ups = kept & cf.upstream
        downs = kept & cf.downstream
        for up in sorted(ups):
            if not any(intensity[up] > intensity[d] for d in downs):
                notes = ()
                if not downs:
                    notes = (
                        "kept set has upstream contracts but no downstream ones; "
                        "the requirement fails by emptiness",
                    )
                return AxiomReport(
                    "simplicity",
                    cf.agent,
                    False,
                    witness={
                        "kept": sorted_ids(kept),
                        "upstream_contract": up,
                        "downstream_intensities": {
                            d: intensity[d] for d in sorted(downs)
                        },
                    },
                    notes=notes,
                )
    return AxiomReport("simplicity", cf.agent, True)


def _pair_merge_weight(cf, big, small) -> int:
    """Weight of the directed difference of two (upstream, downstream) pairs:
    kept-upstream growth minus the complement of the downstream growth."""
    up_diff = big[0] - small[0]
    down_growth = small[1] - big[1]
    return len(up_diff) - (len(cf.downstream) - len(down_growth))


def check_w_contraction(cf: ChoiceFunction) -> AxiomReport:
    """The rejection map must not expand the signed weight of nested menu
    differences (+1 per upstream contract, -1 per downstream contract)."""
    _guard(cf, "w_contraction")
    for up_small in subsets(cf.upstream):
        for up in subsets(cf.upstream):
            if not up_small <= up:
                continue
            for down in subsets(cf.downstream):
                for down_big in subsets(cf.downstream):
                    if not down <= down_big:
                        continue
                    rej = (
                        cf.rejected_upstream(up, down),
                        cf.rejected_downstream(down, up),
                    )
                    rej_small = (
                        cf.rejected_upstream(up_small, down_big),
                        cf.rejected_downstream(down_big, up_small),
                    )
                    lhs = _pair_merge_weight(cf, rej, rej_small)
                    rhs = _pair_merge_weight(cf, (up, down), (up_small, down_big))
                    if lhs > rhs:
                        return AxiomReport(
                            "w_contraction",
                            cf.agent,
                            False,
                            witness={
                                "up": sorted_ids(up),
                                "up_smaller": sorted_ids(up_small),
                                "down": sorted_ids(down),
                                "down_bigger": sorted_ids(down_big),
                                "weights": [lhs, rhs],
                            },
                        )
    return AxiomReport("w_contraction", cf.agent, True)


_CHECKS = {
    "irc": check_irc,
    "full_substitutability": check_full_substitutability,
    "lad_las": check_lad_las,
    "separability": check_separability,
    "w_contraction": check_w_contraction,
}


def check_agent(cf: ChoiceFunction, axioms=None, intensity=None) -> list[AxiomReport]:
    axioms = tuple(axioms) if axioms else tuple(a for a in AXIOM_NAMES if a != "simplicity")
    out = []
    for name in axioms:
        if name == "simplicity":
            if intensity is None:
                raise PreconditionError("simplicity check needs an intensity map")
            out.append(check_simplicity(cf, intensity))
        elif name in _CHECKS:
            out.append(_CHECKS[name](cf))
        else:
            raise PreconditionError(f"unknown axiom {name!r}")
    return out


def check_instance(
    inst: Instance, axioms=None, agents=None, intensities=None
) -> list[AxiomReport]:
    """Per-agent reports; a network-level verdict is their conjunction."""
    agents = sorted(agents) if agents else sorted(inst.network.agents)
    out: list[AxiomReport] = []
    for agent in agents:
        intensity = (intensities or {}).get(agent)
        out.extend(check_agent(inst.choice[agent], axioms, intensity))
    return out

