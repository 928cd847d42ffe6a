"""Contract-network data model.

A network is a directed multigraph: vertices are agents, edges are bilateral
contracts pointing from seller to buyer.  Everything downstream of this module
treats contracts by their string id; the network object owns the id ->
endpoint lookup and the graph utilities (terminal agents, acyclicity), and
this module holds the canonical forms of contract sets (sorted id lists, the
subset enumeration order, on id sets and on int masks) and of the results
that leave the library as JSON (`fields_json`).
"""

from __future__ import annotations

import graphlib
import itertools
from dataclasses import dataclass, fields
from functools import cache, cached_property

from .errors import NetworkValidationError

NETWORK_FIELDS = {"agents", "contracts"}
CONTRACT_FIELDS = {"id", "seller", "buyer", "label"}
CONTRACT_REQUIRED = {"id", "seller", "buyer"}


def sorted_ids(contract_set) -> list[str]:
    """Canonical list form used whenever a contract set leaves the library."""
    return sorted(contract_set)


_AS_IS = frozenset({type(None), bool, int, float, str, list})


def fields_json(result) -> dict:
    """The JSON form of a result dataclass: each field by name, in declaration
    order.  Contract sets leave as `sorted_ids` lists, tuples as lists of
    their converted items in order, dicts key by key; lists are taken as they
    are, and any other object gives its own `to_json()`."""
    out = {}
    # plain values are taken without a call: every printed report passes here
    for name in _field_names(type(result)):
        value = getattr(result, name)
        out[name] = value if type(value) in _AS_IS else _json_value(value)
    return out


@cache
def _field_names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def _json_value(value):
    if type(value) in _AS_IS:
        return value
    if isinstance(value, (frozenset, set)):
        return sorted_ids(value)
    if isinstance(value, tuple):
        return [_json_value(v) for v in value]
    if isinstance(value, dict):
        return {k: _json_value(v) for k, v in value.items()}
    return value.to_json()


@dataclass(frozen=True)
class Contract:
    id: str
    seller: str
    buyer: str
    label: str | None = None

    def to_json(self) -> dict:  # a null label is left out
        out = {"id": self.id, "seller": self.seller, "buyer": self.buyer}
        if self.label is not None:
            out["label"] = self.label
        return out


@dataclass(frozen=True)
class TerminalPartition:
    """Agents that only sell (terminal sellers) or only buy (terminal buyers).

    Isolated agents (no contracts at all) are deliberately placed in both
    sets: they vacuously satisfy every condition stated over terminal agents,
    and keeping them in the partition keeps comparisons total.
    """

    terminal_sellers: frozenset[str]
    terminal_buyers: frozenset[str]

    @property
    def terminal_agents(self) -> frozenset[str]:
        return self.terminal_sellers | self.terminal_buyers


@dataclass(frozen=True)
class ContractNetwork:
    agents: tuple[str, ...]
    contracts: tuple[Contract, ...]

    @cached_property
    def contracts_by_id(self) -> dict[str, Contract]:
        return {c.id: c for c in self.contracts}

    @cached_property
    def contract_ids(self) -> frozenset[str]:
        return frozenset(self.contracts_by_id)

    @cached_property
    def upstream(self) -> dict[str, frozenset[str]]:
        """Per agent, the contracts it buys."""
        out: dict[str, set[str]] = {a: set() for a in self.agents}
        for c in self.contracts:
            out[c.buyer].add(c.id)
        return {a: frozenset(s) for a, s in out.items()}

    @cached_property
    def downstream(self) -> dict[str, frozenset[str]]:
        """Per agent, the contracts it sells."""
        out: dict[str, set[str]] = {a: set() for a in self.agents}
        for c in self.contracts:
            out[c.seller].add(c.id)
        return {a: frozenset(s) for a, s in out.items()}

    def contract(self, cid: str) -> Contract:
        return self.contracts_by_id[cid]

    def agents_of(self, contract_set) -> frozenset[str]:
        """All agents involved in a set of contract ids."""
        out = set()
        for cid in contract_set:
            c = self.contract(cid)
            out.add(c.seller)
            out.add(c.buyer)
        return frozenset(out)

    def restricted_to(self, keep_agents, keep_contracts) -> "ContractNetwork":
        keep_agents = set(keep_agents)
        keep_contracts = set(keep_contracts)
        return validate_network(
            {
                "agents": [a for a in self.agents if a in keep_agents],
                "contracts": [
                    c.to_json() for c in self.contracts if c.id in keep_contracts
                ],
            }
        )

    def terminal_partition(self) -> TerminalPartition:
        sellers = frozenset(a for a in self.agents if not self.upstream[a])
        buyers = frozenset(a for a in self.agents if not self.downstream[a])
        return TerminalPartition(sellers, buyers)

    def is_acyclic(self) -> bool:
        """True when the agent digraph induced by contracts has no directed cycle."""
        order = graphlib.TopologicalSorter()
        for c in self.contracts:
            order.add(c.buyer, c.seller)
        try:
            order.prepare()
        except graphlib.CycleError:
            return False
        return True

    to_json = fields_json


def validate_network(raw: dict) -> ContractNetwork:
    """Build a ContractNetwork from a raw description, collecting every
    violation into a single error instead of stopping at the first."""
    issues: list[str] = []
    if not isinstance(raw, dict):
        raise NetworkValidationError(["network description must be an object"])
    unknown = set(raw) - NETWORK_FIELDS
    if unknown:
        issues.append(f"unknown network fields: {sorted(unknown)}")
    agents = raw.get("agents", [])
    contracts_raw = raw.get("contracts", [])
    if not isinstance(agents, list) or not all(isinstance(a, str) for a in agents):
        issues.append("agents must be a list of strings")
        agents = []
    if len(set(agents)) != len(agents):
        issues.append("duplicate agent id")
    for a in agents:
        if not a:
            issues.append("empty agent id")

    contracts: list[Contract] = []
    seen_ids: set[str] = set()
    agent_set = set(agents)
    if not isinstance(contracts_raw, list):
        issues.append("contracts must be a list")
        contracts_raw = []
    for item in contracts_raw:
        if not isinstance(item, dict):
            issues.append("contract entries must be objects")
            continue
        unknown = set(item) - CONTRACT_FIELDS
        if unknown:
            issues.append(f"unknown contract fields: {sorted(unknown)}")
        missing = CONTRACT_REQUIRED - set(item)
        if missing:
            issues.append(f"contract missing fields: {sorted(missing)}")
            continue
        cid, seller, buyer = item["id"], item["seller"], item["buyer"]
        if not all(isinstance(v, str) and v for v in (cid, seller, buyer)):
            issues.append(f"contract {cid!r}: id, seller, buyer must be nonempty strings")
            continue
        if not isinstance(item.get("label"), (str, type(None))):
            issues.append(f"contract {cid!r}: label must be a string or null")
        if cid in seen_ids:
            issues.append(f"duplicate contract id {cid!r}")
        seen_ids.add(cid)
        if seller == buyer:
            issues.append(f"contract {cid!r} is a self-loop on agent {seller!r}")
        if seller not in agent_set:
            issues.append(f"contract {cid!r} references unknown seller {seller!r}")
        if buyer not in agent_set:
            issues.append(f"contract {cid!r} references unknown buyer {buyer!r}")
        contracts.append(Contract(cid, seller, buyer, item.get("label")))

    if issues:
        raise NetworkValidationError(issues)
    return ContractNetwork(tuple(agents), tuple(contracts))


def subsets(items):
    """Every subset of `items` as a frozenset, by size and then
    lexicographically by sorted members; the empty set comes first."""
    items = sorted(items)
    for size in range(len(items) + 1):
        yield from map(frozenset, itertools.combinations(items, size))


def submasks(mask: int):
    """Every submask of `mask`, one at a time, in `subsets` order when bit i
    stands for the i-th contract in id order; a walk reading them twice lists them."""
    bits = mask_bits(mask)
    return (sum(c) for size in range(len(bits) + 1) for c in itertools.combinations(bits, size))


def mask_bits(mask: int) -> list[int]:
    """The single-bit masks of `mask`, lowest (first id) first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low)
        mask ^= low
    return out


def at_bits(items, mask: int):
    """The items whose index is a set bit of `mask`, in order: the binary
    digits of `mask`, lowest first, select them."""
    return itertools.compress(items, map("1".__eq__, bin(mask)[:1:-1]))


def spread(items) -> list[int]:
    """The sum of each subset of `items`, indexed by subset mask (bit i of
    the index stands for the i-th of `items`), by doubling.  On distinct
    one-bit masks (or 0) each sum is the subset's OR: the mask it lifts to."""
    sums = [0]
    for item in items:
        sums += [s + item for s in sums]
    return sums
