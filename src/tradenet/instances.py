"""Instances bundle a validated network with one choice function per agent.

Also home to the JSON file format (network + choice-function array, plus the
priced extension handled by the equilibrium module) and the bundled example
instances used across the docs and the test suite.
"""

from __future__ import annotations

import json
import os
from collections.abc import Mapping
from dataclasses import dataclass
from importlib import resources
from types import MappingProxyType

from .choices import ChoiceFunction, build_family
from .errors import ChoiceFunctionError, InstanceFormatError
from .network import ContractNetwork, validate_network

INSTANCE_FIELDS = {"agents", "contracts", "choice_functions"}


@dataclass(frozen=True)
class Instance:
    """A validated network with one choice function per agent.

    `choice` is a read-only copy of the mapping given, so no agent's choice
    function is swapped during the instance's life.  That is what lets the
    instance keep facts derived from its choice functions: the acceptable
    outcomes (`oracle.acceptable_outcomes`), the fixed points
    (`fixedpoint.enumerate_fixed_points`), the fresh-contract view of each
    acceptable outcome checked so far (`stability._fresh`) and the one
    contract numbering that joins and response rounds run on
    (`fixedpoint.numbering`: contract i in sorted-id order is bit i, with
    each agent's gather and scatter tables).  Each is built on first use, not
    at load, and lives as long as the instance, outside the dataclass fields
    (so out of `__eq__` and `repr`); an instance rebuilt from its JSON starts
    without them."""

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
        for memo in ("_acceptable", "_fixed_points", "_numbering"):
            object.__setattr__(self, memo, None)
        object.__setattr__(self, "_views", {})

    @property
    def contract_ids(self) -> frozenset[str]:
        return self.network.contract_ids

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
