"""Instances bundle a validated network with one choice function per agent.

Also home to the JSON file format (network + choice-function array, plus the
priced extension handled by the equilibrium module) and the bundled example
instances used across the docs and the test suite.
"""

from __future__ import annotations

import functools
import json
import os
from collections.abc import Mapping
from dataclasses import dataclass
from importlib import resources
from types import MappingProxyType

from .choices import ChoiceFunction, build_family
from .errors import ChoiceFunctionError, InstanceFormatError, PreconditionError
from .network import ContractNetwork, at_bits, mask_bits, sorted_ids, spread, validate_network

INSTANCE_FIELDS = {"agents", "contracts", "choice_functions"}


@dataclass(frozen=True)
class Instance:
    """A validated network with one choice function per agent.

    `choice` is a read-only copy of the mapping given, so no agent's choice
    function is swapped during the instance's life.  That is what lets the
    instance keep what it derives from its choice functions in one place,
    its `numbering`: built on first use, not at load, and kept as long as
    the instance, outside the dataclass fields (so out of `__eq__` and
    `repr`); an instance rebuilt from its JSON starts without it."""

    network: ContractNetwork
    choice: Mapping[str, ChoiceFunction]

    def __post_init__(self):
        object.__setattr__(self, "choice", MappingProxyType(dict(self.choice)))
        missing = set(self.network.agents) - set(self.choice)
        if missing:
            raise InstanceFormatError(f"agents without a choice function: {sorted(missing)}")
        extra = set(self.choice) - set(self.network.agents)
        if extra:
            raise InstanceFormatError(f"choice functions for unknown agents: {sorted(extra)}")
        for agent, cf in self.choice.items():
            if cf.agent != agent:
                raise InstanceFormatError(f"choice function for {cf.agent!r} filed under {agent!r}")
            if cf.upstream != self.network.upstream[agent] or (
                cf.downstream != self.network.downstream[agent]
            ):
                raise InstanceFormatError(
                    f"{agent}: choice function sides disagree with the network"
                )

    @functools.cached_property
    def numbering(self) -> Numbering:
        """Built on the first join, round or stability view, then kept."""
        return Numbering(self)

    @property
    def contract_ids(self) -> frozenset[str]:
        return self.network.contract_ids

    def known(self, outcome) -> frozenset[str]:
        """`outcome` as a frozenset; one naming a contract the instance lacks is refused."""
        outcome = frozenset(outcome)
        if not outcome <= self.contract_ids:
            unknown = sorted_ids(outcome - self.contract_ids)
            raise PreconditionError(f"outcome uses unknown contracts: {unknown}")
        return outcome

    def rejected_by_buyers(self, available_up, available_down) -> frozenset[str]:
        out: set[str] = set()
        for cf in self.choice.values():
            out |= cf.rejected_upstream(available_up, available_down)
        return frozenset(out)

    def rejected_by_sellers(self, available_down, available_up) -> frozenset[str]:
        out: set[str] = set()
        for cf in self.choice.values():
            out |= cf.rejected_downstream(available_down, available_up)
        return frozenset(out)

    def to_json(self) -> dict:  # the input-file description
        out = self.network.to_json()
        out["choice_functions"] = [
            self.choice[a].to_json() for a in self.network.agents
        ]
        return out


@functools.cache  # at most 255 patterns
def _byte_tables(pattern: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Gather and scatter for the bits of one byte pattern (Knuth, TAOCP 4A
    §7.1.3): `scatter[v]` puts the low bits of v on the pattern's bits, in
    order, and the 256-entry `gather` undoes it on the pattern's submasks."""
    scatter, gather = spread(mask_bits(pattern)), [0] * 256
    for v, m in enumerate(scatter):
        gather[m] = v
    return tuple(gather), tuple(scatter)


class Numbering:
    """The instance's one contract numbering: contract i, in sorted-id order,
    is position i and bit i of an instance mask; an offer pair is one int,
    its row `buyer | seller << n`, the form of a `fixedpoint.join_states` row.
    Only this class lays rows out: `row` builds one from side masks, `sides`
    splits it, and `leq`, `join`, `meet` and `order` compare and combine rows.

    `seller[i]` and `buyer[i]` are contract i's agents, and `packed[i]` holds
    its local bit (its bit in an agent's own numbering) in its seller's and
    its buyer's `lane` (shift, mask; as wide as the agent's domain, in
    `inst.choice` order), so one sum over distinct positions holds every
    agent's local mask of them (SWAR).  An agent's contracts in one byte of
    the instance mask are a run of its local bits, so the round gathers its
    menu, and scatters back what it rejects, through the `_byte_tables` of its
    bits in each byte (shared by every agent with that pattern).  It also
    keeps what is derived on it, each filled by its one reader after that
    reader's guard: the `acceptable` outcomes (`oracle.acceptable_outcomes`),
    the rows of the `fixed_points` (`fixedpoint._fixed_point_rows`) and the
    `views` of the acceptable outcomes checked so far (`stability._notion`)."""

    __slots__ = ("ids", "n", "full", "position", "seller", "buyer", "packed", "lane", "agents",
                 "acceptable", "fixed_points", "views")

    def __init__(self, inst: Instance):
        self.ids = sorted_ids(inst.contract_ids)
        self.n = len(self.ids)
        self.full = (1 << self.n) - 1
        self.position = {c: i for i, c in enumerate(self.ids)}
        self.seller, self.buyer = [None] * self.n, [None] * self.n
        self.packed, self.lane, shift = [0] * self.n, {}, 0
        self.agents = []  # (choice function, upstream mask, downstream mask, byte parts)
        for cf in inst.choice.values():
            self.lane[cf.agent] = shift, (1 << len(cf.ids)) - 1
            for c, j in cf.position.items():
                self.packed[self.position[c]] |= 1 << shift + j
            shift += len(cf.ids)
            for side, agents in ((cf.downstream, self.seller), (cf.upstream, self.buyer)):
                for c in side:
                    agents[self.position[c]] = cf.agent
            up, down, parts, low = self.mask(cf.upstream), self.mask(cf.downstream), [], 0
            for at in range(0, self.n, 8):
                pattern = (up | down) >> at & 255
                if pattern:  # `low` is the agent's local bit of the byte's first contract
                    gather, scatter = _byte_tables(pattern)
                    parts.append((at, low, len(scatter) - 1, gather, scatter))
                    low += pattern.bit_count()
            self.agents.append((cf, up, down, parts))
        self.acceptable = self.fixed_points = None  # tuples once joined
        self.views = {}  # acceptable outcome -> its FreshView

    def mask(self, contracts) -> int:
        """The instance mask of a set of the instance's contracts."""
        return sum(1 << self.position[c] for c in contracts)

    def names(self, mask: int) -> frozenset[str]:
        return frozenset(at_bits(self.ids, mask))

    def row(self, buyer: int, seller: int) -> int:
        return buyer | seller << self.n

    def sides(self, row: int) -> tuple[int, int]:  # buyer side, seller side
        return row & self.full, row >> self.n

    def order(self, row: int) -> tuple:  # sorts rows as `OfferPair.sort_key` sorts their pairs
        return mask_bits(row & self.full), mask_bits(row >> self.n)

    def leq(self, p: int, q: int) -> bool:  # p's buyer side within q's, seller side around it
        return not (p & ~q & self.full or (q & ~p) >> self.n)

    def join(self, p: int, q: int) -> int:  # the buyer sides united, the seller sides met
        return (p | q) & self.full | p & q & ~self.full

    def meet(self, p: int, q: int) -> int:  # the buyer sides met, the seller sides united
        return p & q & self.full | (p | q) & ~self.full

    def respond(self, row: int) -> int:
        """`fixedpoint.respond` on a row."""
        buyer, seller = row & self.full, row >> self.n
        seller_rejects = buyer_rejects = 0
        for cf, up, down, parts in self.agents:
            offered = seller & down | buyer & up
            menu = 0
            for at, low, _, gather, _ in parts:
                menu |= gather[offered >> at & 255] << low
            rejected = menu & ~cf.choose_mask(menu)
            if rejected:
                lost = 0
                for at, low, width, _, scatter in parts:
                    lost |= scatter[rejected >> low & width] << at
                seller_rejects |= lost & down
                buyer_rejects |= lost & up
        return self.full ^ seller_rejects | (self.full ^ buyer_rejects) << self.n


def instance_from_json(raw: dict) -> Instance:
    if not isinstance(raw, dict):
        raise InstanceFormatError("instance description must be an object")
    unknown = set(raw) - INSTANCE_FIELDS
    if unknown:
        raise InstanceFormatError(f"unknown instance fields: {sorted(unknown)}")
    if "choice_functions" not in raw:
        raise InstanceFormatError("instance is missing 'choice_functions'")
    net = validate_network({k: raw[k] for k in ("agents", "contracts") if k in raw})
    descs = raw["choice_functions"]
    if not isinstance(descs, list):
        raise InstanceFormatError("'choice_functions' must be a list")
    return Instance(net, build_choices(net, descs))


def build_choices(net: ContractNetwork, descs: list, where: str = "") -> dict[str, ChoiceFunction]:
    """One choice function per agent described; a bad description, or a
    second one for the same agent, is an input error `where` names."""
    choice: dict[str, ChoiceFunction] = {}
    for desc in descs:
        try:
            cf = build_family(net, desc)
        except ChoiceFunctionError as exc:
            raise InstanceFormatError(f"{where}choice function: {exc}") from exc
        if cf.agent in choice:
            raise InstanceFormatError(f"{where}two choice functions for agent {cf.agent!r}")
        choice[cf.agent] = cf
    return choice


def read_json(path, what: str):
    """Parsed contents of a JSON file; a file that cannot be read or parsed
    is an input error naming `what` it should have held."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InstanceFormatError(f"cannot read {what} {path}: {exc}") from exc


def write_json(path, payload) -> None:
    """Indented, key-sorted JSON; a path that cannot be written is an input error."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise InstanceFormatError(f"cannot write {path}: {exc}") from exc


def load_instance(path) -> Instance:
    return instance_from_json(read_json(path, "instance file"))


BUNDLED = ("example1", "example2", "example3", "reduced")


def bundled_json(name: str) -> dict:
    if name not in BUNDLED:
        raise InstanceFormatError(f"no bundled instance named {name!r}")
    text = resources.files("tradenet").joinpath(f"data/{name}.json").read_text("utf-8")
    return json.loads(text)


def bundled_instance(name: str) -> Instance:
    return instance_from_json(bundled_json(name))


def write_examples(directory) -> list[str]:
    """Materialize the bundled instance files into a directory."""
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError as exc:
        raise InstanceFormatError(f"cannot write {directory}: {exc}") from exc
    written = []
    for name in BUNDLED:
        path = os.path.join(directory, f"{name}.json")
        write_json(path, bundled_json(name))
        written.append(path)
    return written
