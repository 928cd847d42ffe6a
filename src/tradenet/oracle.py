"""Independent ground truth: brute-force stable-set enumeration, the
subset-sum hardness gadget with its exact solver, the hidden-subset oracle
family, and seeded generation of axiom-certified random instances.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import axioms, dynamics, equilibrium, stability
from .choices import (
    NeedleChoiceF,
    PartitionChoiceF,
    PartitionChoiceG,
    PreferenceListChoice,
    QuotaChoice,
    SeparableIntensityChoice,
    SimpleIntensityChoice,
    read_int,
)
from .errors import ChoiceFunctionError, GuardExceededError, PreconditionError
from .fixedpoint import join_states
from .guards import BRUTE_GUARD, PARTITION_GUARD, SET_GUARD, SIZE_GUARD
from .instances import Instance
from .network import Contract, ContractNetwork, sorted_ids, subsets, validate_network

PROFILES = ("fsirc", "separable", "simple", "acyclic", "ladlas")
CERTIFY_ATTEMPTS = 200  # candidates `generate_instance` draws before giving up
MAX_TRADES = 3  # trades in a `generate_priced_instance` economy, at most


# ---------------------------------------------------------------------------
# brute-force stable sets
# ---------------------------------------------------------------------------


def brute_force_stable(inst: Instance, notion: str, jobs: int = 1) -> list[frozenset[str]]:
    """Every stable outcome of one notion, by running the literal definition
    checkers on every acceptable outcome.

    Each notion's checker calls an outcome that some agent will not keep in
    full unstable, so no other outcome can be stable.  The acceptable ones
    come from `acceptable_outcomes`, joined once per instance however many
    notions are asked for, and are themselves the `acceptable` notion's
    answer.  `jobs` is accepted and ignored: at the guard's 12 contracts a
    second process costs more than it saves."""
    outcomes = acceptable_outcomes(inst)
    if notion == "acceptable":
        return sorted(outcomes, key=sorted_ids)
    hits = [o for o in outcomes if stability.check_notion(inst, o, notion).stable]
    return sorted(hits, key=sorted_ids)


def _fixed_menus(cf, lift, n):
    """One row per menu the agent keeps in full, its contracts on both sides."""
    for menu, kept in enumerate(cf.menu_table()):
        if kept == menu:
            yield lift[menu] | lift[menu] << n


def acceptable_outcomes(inst: Instance) -> list[frozenset[str]]:
    """Every outcome each agent keeps in full, in no particular order.

    The outcomes are joined from each agent's fixed menus
    (`menu_table()[m] == m`), which finds every one of them without scanning
    all 2^|X| outcomes.  The join runs on the instance's first call and its
    outcomes are kept on its numbering; every call returns a new list of
    them.  Instances over BRUTE_GUARD contracts are refused before any menu
    is asked."""
    n = len(inst.contract_ids)
    if n > BRUTE_GUARD:
        raise GuardExceededError(f"brute-force guard is {BRUTE_GUARD} contracts, instance has {n}")
    num = inst.numbering
    if num.acceptable is None:
        num.acceptable = tuple(num.names(row >> n) for row in join_states(inst, _fixed_menus))
    return list(num.acceptable)


# ---------------------------------------------------------------------------
# subset-sum gadget
# ---------------------------------------------------------------------------


def solve_partition(weights) -> bool:
    """Exact split check: can the weights be divided into two equal halves?
    Subset-sum dynamic program over the doubled target, so odd totals are
    simply unreachable.  Totals over PARTITION_GUARD are refused."""
    try:
        weights = [read_int(w, "each weight", 1) for w in weights]
    except ChoiceFunctionError as exc:
        raise ValueError(str(exc)) from exc
    if not weights:
        raise ValueError("weights must be a non-empty list")
    total = sum(weights)
    if total > PARTITION_GUARD:
        raise GuardExceededError(
            f"partition solver guard is a weight total of {PARTITION_GUARD}, have {total}"
        )
    if total % 2:
        return False
    target = total // 2
    keep = (1 << target + 1) - 1  # sums above the target never come back down
    reachable = 1  # bitset: bit s set when sum s is reachable
    for w in weights:
        reachable = (reachable | reachable << w) & keep
    return bool(reachable >> target & 1)


@dataclass(frozen=True)
class GadgetInstance:
    instance: Instance
    outcome: frozenset[str]
    half_integral: bool  # odd totals make the threshold sit between integers


_NETWORKS: dict[int, ContractNetwork] = {}  # k -> its network, for k + 1 <= SET_GUARD


def _two_firm_network(k: int) -> ContractNetwork:
    """Firm g sells k parallel contracts x1..xk (ids zero-padded to one
    width, so that id order is index order) to firm f, which sells the
    return contract y back.  Networks are immutable: one per k the set search
    takes is kept (each instance numbers its own), a wider one is not."""
    if k in _NETWORKS:
        return _NETWORKS[k]
    pad = len(str(k))
    net = validate_network(
        {
            "agents": ["f", "g"],
            "contracts": [{"id": "y", "seller": "f", "buyer": "g"}]
            + [{"id": f"x{i:0{pad}d}", "seller": "g", "buyer": "f"} for i in range(1, k + 1)],
        }
    )
    if k + 1 <= SET_GUARD:
        _NETWORKS[k] = net
    return net


def partition_to_gs(weights) -> GadgetInstance:
    """Two firms trading k parallel contracts against one return contract;
    the empty outcome has a blocking set exactly when the weights split
    evenly.  Choice functions are the closed-form case splits, not tables."""
    weights = tuple(weights)
    net = _two_firm_network(len(weights))
    try:
        choice = {
            "f": PartitionChoiceF("f", net.upstream["f"], net.downstream["f"], weights),
            "g": PartitionChoiceG("g", net.upstream["g"], net.downstream["g"], weights),
        }
    except ChoiceFunctionError as exc:
        raise ValueError(str(exc)) from exc
    return GadgetInstance(Instance(net, choice), frozenset(), sum(choice["g"].weights) % 2 == 1)


def gadget_not_set_stable(weights) -> bool:
    """The reduction's answer read off the stability checker."""
    gadget = partition_to_gs(weights)
    verdict = stability.find_blocking_set(gadget.instance, gadget.outcome)
    return not verdict.stable


def needle_family(n: int, hidden=None) -> Instance:
    """Two firms, 2n parallel contracts plus one return contract.

    Without a hidden index set the empty outcome is set-stable; planting a
    hidden n-subset creates exactly one blocking set, which a menu-query
    scanner can only find by probing n-subsets.  Query counts are exposed by
    the choice functions' `query_count`.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    net = _two_firm_network(2 * n)
    choice = {
        "f": NeedleChoiceF("f", net.upstream["f"], net.downstream["f"], n, hidden),
        "g": PartitionChoiceG("g", net.upstream["g"], net.downstream["g"], (1,) * (2 * n)),
    }
    return Instance(net, choice)


# ---------------------------------------------------------------------------
# seeded generation of certified instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratedInstance:
    instance: Instance
    seed: int
    profile: str
    certificates: tuple[str, ...]
    intensities: dict[str, dict[str, float]] | None = None


_PROFILE_AXIOMS = {
    "fsirc": ("full_substitutability", "irc"),
    "separable": ("full_substitutability", "irc", "separability"),
    "simple": ("full_substitutability", "irc"),
    "acyclic": ("full_substitutability", "irc"),
    "ladlas": ("full_substitutability", "lad_las"),
}


def _draw_network(rng: random.Random, profile: str, max_agents: int, max_contracts: int):
    n_agents = rng.randint(2, max_agents)
    agents = [f"a{i}" for i in range(1, n_agents + 1)]
    n_contracts = rng.randint(max(1, n_agents - 1), max_contracts)
    contracts = []
    if profile == "simple":
        # every agent needs both sides, so lay a ring first
        ring = agents + [agents[0]]
        for i in range(n_agents):
            contracts.append((ring[i], ring[i + 1]))
        while len(contracts) < max(n_contracts, n_agents):
            s, b = rng.sample(agents, 2)
            contracts.append((s, b))
    elif rng.random() < 0.35:
        # two-sided market: left agents sell, right agents buy; crossed
        # orders downstream make the optimal outcomes pull apart
        cut = n_agents // 2 if n_agents >= 4 else rng.randint(1, n_agents - 1)
        left, right = agents[:cut], agents[cut:]
        grid = [(s, b) for s in left for b in right]
        rng.shuffle(grid)
        for s, b in grid[: max(n_contracts, min(len(grid), 4))]:
            contracts.append((s, b))
    elif profile == "acyclic":
        for _ in range(n_contracts):
            s, b = sorted(rng.sample(agents, 2))
            contracts.append((s, b))
    else:
        layered = rng.random() < 0.6
        for _ in range(n_contracts):
            s, b = rng.sample(agents, 2)
            if layered and agents.index(s) > agents.index(b):
                s, b = b, s
            contracts.append((s, b))
    raw = {
        "agents": agents,
        "contracts": [
            {"id": f"c{i + 1}", "seller": s, "buyer": b}
            for i, (s, b) in enumerate(contracts)
        ],
    }
    return validate_network(raw)


def _random_ranking(rng: random.Random, domain: frozenset[str]):
    candidates = list(subsets(domain))[1:]
    rng.shuffle(candidates)
    keep = rng.randint(1, min(6, len(candidates)))
    return candidates[:keep]


def _draw_choice(rng, net, agent, profile, intensity):
    up = net.upstream[agent]
    down = net.downstream[agent]
    one_sided = not up or not down
    if one_sided:
        side = sorted(up | down)
        if not side:
            return QuotaChoice(agent, up, down, [], 1)
        rng.shuffle(side)
        cut = rng.randint(1, len(side))
        quota = rng.randint(1, max(1, cut))
        return QuotaChoice(agent, up, down, side[:cut], quota)
    if profile == "simple":
        return SimpleIntensityChoice(agent, up, down, {c: intensity[c] for c in up | down})
    if profile in ("separable", "ladlas") or rng.random() < 0.45:
        up_order = sorted(up)
        down_order = sorted(down)
        rng.shuffle(up_order)
        rng.shuffle(down_order)
        return SeparableIntensityChoice(agent, up_order, down_order)
    return PreferenceListChoice(agent, up, down, _random_ranking(rng, up | down))


def generate_instance(
    seed: int,
    profile: str = "fsirc",
    max_agents: int = 5,
    max_contracts: int = 8,
) -> GeneratedInstance:
    """Deterministic, certified random instance for the given profile.

    Rejection sampling: candidates are drawn from the shipped families and
    kept only when every axiom the profile declares checks out, so shipped
    certificates reflect machine-checked facts, never family folklore.
    """
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; choose from {PROFILES}")
    rng = random.Random(("instance", profile, seed).__repr__())
    for _ in range(CERTIFY_ATTEMPTS):
        net = _draw_network(rng, profile, max_agents, max_contracts)
        if any(len(net.upstream[a] | net.downstream[a]) > SIZE_GUARD for a in net.agents):
            continue
        intensity = {cid: round(rng.uniform(0, 100), 3) for cid in sorted(net.contract_ids)}
        if len(set(intensity.values())) != len(intensity):
            continue
        try:
            choice = {a: _draw_choice(rng, net, a, profile, intensity) for a in net.agents}
        except ChoiceFunctionError:
            continue
        inst = Instance(net, choice)
        if profile == "acyclic" and not net.is_acyclic():
            continue
        reports = axioms.check_instance(inst, _PROFILE_AXIOMS[profile])
        if not all(r.holds for r in reports):
            continue
        intensities = None
        certificates = list(_PROFILE_AXIOMS[profile])
        if profile == "simple":
            # one intensity map shared by all agents, restricted per agent
            intensities = {a: {c: intensity[c] for c in inst.choice[a].domain} for a in net.agents}
            simple_reports = [
                axioms.check_simplicity(inst.choice[a], intensities[a])
                for a in net.agents
            ]
            if not all(r.holds for r in simple_reports):
                continue
            certificates.append("simplicity")
        if profile == "acyclic":
            certificates.append("acyclic")
        return GeneratedInstance(inst, seed, profile, tuple(certificates), intensities)
    raise PreconditionError(
        f"could not certify a {profile!r} instance for seed {seed} "
        f"within {CERTIFY_ATTEMPTS} attempts"
    )


# ---------------------------------------------------------------------------
# entry scenarios and priced economies
# ---------------------------------------------------------------------------


def _extended_choice(rng, cf, new_ids, as_upstream: bool):
    """Rebuild an incumbent's choice function with fresh contracts spliced
    into its orders; agreement on old menus is by construction and is also
    re-checked by the entry surgery."""
    new_ids = list(new_ids)
    if isinstance(cf, SeparableIntensityChoice):
        up = list(cf.upstream_order)
        down = list(cf.downstream_order)
        target = up if as_upstream else down
        for cid in new_ids:
            target.insert(rng.randint(0, len(target)), cid)
        return SeparableIntensityChoice(cf.agent, up, down)
    if isinstance(cf, QuotaChoice):
        own_side = cf.upstream if as_upstream else cf.downstream
        if (cf.upstream | cf.downstream) and not own_side:
            raise ChoiceFunctionError("quota agent is one-sided on the other side")
        order = list(cf.order)
        for cid in new_ids:
            if rng.random() < 0.8:
                order.insert(rng.randint(0, len(order)), cid)
        up = cf.upstream | frozenset(new_ids) if as_upstream else cf.upstream
        down = cf.downstream if as_upstream else cf.downstream | frozenset(new_ids)
        return QuotaChoice(cf.agent, up, down, order, cf.quota)
    raise ChoiceFunctionError(f"cannot extend family {cf.family!r}")


def generate_entry_scenario(seed: int):
    """A certified ladlas base instance plus a terminal-agent entry event
    whose extended instance is also certified for full substitutability and
    consistency.  Deterministic per seed."""
    rng = random.Random(("entry", "ladlas", seed).__repr__())
    for attempt in range(60):
        gen = generate_instance(rng.randrange(10**9), "ladlas")
        inst = gen.instance
        net = inst.network
        side = rng.choice(("terminal_seller", "terminal_buyer"))
        as_seller = side == "terminal_seller"
        targets = [
            a
            for a in net.agents
            if (net.upstream[a] if as_seller else net.downstream[a])
            and isinstance(inst.choice[a], (SeparableIntensityChoice, QuotaChoice))
        ]
        if not targets:
            continue
        rng.shuffle(targets)
        targets = targets[: rng.randint(1, min(2, len(targets)))]
        entrant = "new1"
        contracts = []
        for i, other in enumerate(targets):
            cid = f"n{i + 1}"
            if as_seller:
                contracts.append(Contract(cid, entrant, other))
            else:
                contracts.append(Contract(cid, other, entrant))
        order = [c.id for c in contracts]
        rng.shuffle(order)
        entrant_cf = QuotaChoice(
            entrant,
            frozenset() if as_seller else frozenset(order),
            frozenset(order) if as_seller else frozenset(),
            order,
            rng.randint(1, len(order)),
        )
        try:
            updated = {}
            for other in targets:
                fresh = [c.id for c in contracts if (c.buyer if as_seller else c.seller) == other]
                updated[other] = _extended_choice(rng, inst.choice[other], fresh, as_seller)
            event = dynamics.EntryEvent(entrant, side, tuple(contracts), entrant_cf, updated)
            extended = dynamics.apply_entry(inst, event)
        except (ChoiceFunctionError, PreconditionError):
            continue
        reports = axioms.check_instance(extended, ("full_substitutability", "irc"))
        if not all(r.holds for r in reports):
            continue
        return gen, event
    raise PreconditionError(f"no certified entry scenario for seed {seed}")


def generate_priced_instance(seed: int, max_grid: int = 12):
    """A certified priced economy for the reservation family: every instance
    returned passes full substitutability, consistency, feasibility, complete
    prices and price monotonicity.  Deterministic per seed."""
    rng = random.Random(("priced", seed).__repr__())
    for attempt in range(80):
        n_firms = rng.randint(2, 3)
        firms = [f"f{i}" for i in range(1, n_firms + 1)]
        n_trades = rng.randint(1, MAX_TRADES)
        trades = []
        grid_total = 0
        for i in range(n_trades):
            s, b = rng.sample(firms, 2)
            lo = rng.randint(0, 3)
            width = rng.randint(2, 4)
            grid_total += width + 1
            trades.append({"id": f"t{i + 1}", "seller": s, "buyer": b,
                           "price_min": lo, "price_max": lo + width})
        if grid_total > max_grid:
            continue
        values: dict[str, dict[str, int]] = {f: {} for f in firms}
        costs: dict[str, dict[str, int]] = {f: {} for f in firms}
        feasible = True
        for t in trades:
            value = rng.randint(t["price_min"], t["price_max"] + 2)
            cost = rng.randint(t["price_min"] - 2, t["price_max"])
            if cost == value + 1:
                feasible = False  # a one-step gap has no commonly rejected price
                break
            values[t["buyer"]][t["id"]] = value
            costs[t["seller"]][t["id"]] = cost
        if not feasible:
            continue
        active = sorted({t["seller"] for t in trades} | {t["buyer"] for t in trades})
        raw = {
            "trades": trades,
            "choice_functions": [
                {"agent": f, "type": "reservation", "values": values[f], "costs": costs[f]}
                for f in active
            ],
        }
        priced = equilibrium.build_priced(raw)
        if all(r.holds for r in equilibrium.check_priced_axioms(priced)):
            return priced
    raise PreconditionError(f"no certified priced instance for seed {seed}")
