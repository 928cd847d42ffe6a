from __future__ import annotations

import pytest

from tradenet.errors import InstanceFormatError
from tradenet.instances import (
    BUNDLED,
    bundled_instance,
    bundled_json,
    instance_from_json,
)


def minimal_raw():
    return {
        "agents": ["a", "b"],
        "contracts": [{"id": "c", "seller": "a", "buyer": "b"}],
        "choice_functions": [
            {"agent": "a", "type": "quota", "order": ["c"], "quota": 1},
            {"agent": "b", "type": "quota", "order": ["c"], "quota": 1},
        ],
    }


def _every_kind_of_instance():
    """(label, instance) for every way the library builds one."""
    from tradenet.dynamics import apply_entry
    from tradenet.oracle import (
        PROFILES,
        generate_entry_scenario,
        generate_instance,
        generate_priced_instance,
        needle_family,
        partition_to_gs,
    )

    yield "minimal", instance_from_json(minimal_raw())
    for name in BUNDLED:
        yield name, bundled_instance(name)
    for profile in PROFILES:
        for seed in range(4):
            yield f"{profile}/{seed}", generate_instance(seed, profile).instance
    yield "partition", partition_to_gs((1, 2, 3, 4)).instance
    yield "needle", needle_family(2)
    yield "needle/hidden", needle_family(2, hidden=(1, 3))
    for seed in range(10):
        # a priced economy's contract grid is an ordinary instance
        yield f"priced/{seed}", generate_priced_instance(seed).instance
    gen, event = generate_entry_scenario(0)
    yield "entry", apply_entry(gen.instance, event)


def test_round_trip():
    for label, inst in _every_kind_of_instance():
        raw = inst.to_json()
        assert instance_from_json(raw).to_json() == raw, label


def test_choice_functions_cannot_be_swapped():
    raw = minimal_raw()
    inst = instance_from_json(raw)
    other = instance_from_json(raw).choice["a"]
    with pytest.raises(TypeError):
        inst.choice["a"] = other
    assert inst.choice["a"] is not other


def test_missing_choice_functions():
    raw = minimal_raw()
    del raw["choice_functions"]
    with pytest.raises(InstanceFormatError, match="missing 'choice_functions'"):
        instance_from_json(raw)


def test_agent_without_choice_function():
    raw = minimal_raw()
    raw["choice_functions"] = raw["choice_functions"][:1]
    with pytest.raises(InstanceFormatError, match="without a choice function"):
        instance_from_json(raw)


def test_duplicate_choice_function():
    raw = minimal_raw()
    raw["choice_functions"].append(raw["choice_functions"][0])
    with pytest.raises(InstanceFormatError, match="two choice functions"):
        instance_from_json(raw)


def test_unknown_top_level_field():
    raw = minimal_raw()
    raw["notes"] = "hello"
    with pytest.raises(InstanceFormatError, match="unknown instance fields"):
        instance_from_json(raw)


def test_side_mismatch_rejected():
    from tradenet.choices import QuotaChoice
    from tradenet.instances import Instance
    from tradenet.network import validate_network

    net = validate_network(
        {"agents": ["a", "b"], "contracts": [{"id": "c", "seller": "a", "buyer": "b"}]}
    )
    wrong = {
        "a": QuotaChoice("a", {"c"}, frozenset(), ["c"], 1),  # c is a's sale, not buy
        "b": QuotaChoice("b", {"c"}, frozenset(), ["c"], 1),
    }
    with pytest.raises(InstanceFormatError, match="disagree with the network"):
        Instance(net, wrong)


def test_bundled_instances_load():
    assert BUNDLED == ("example1", "example2", "example3", "reduced")
    for name in BUNDLED:
        inst = bundled_instance(name)
        assert inst.network.contract_ids
        assert instance_from_json(inst.to_json()).to_json() == inst.to_json()
    with pytest.raises(InstanceFormatError, match="no bundled instance"):
        bundled_json("example9")
