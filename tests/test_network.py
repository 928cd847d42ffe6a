from __future__ import annotations

import pytest

from tradenet.errors import NetworkValidationError
from tradenet.network import at_bits, mask_bits, spread, submasks, subsets, validate_network


def test_ring4_validates(ring4):
    assert len(ring4.agents) == 4
    assert len(ring4.contracts) == 4
    assert ring4.upstream["j"] == {"y", "w"}
    assert ring4.downstream["j"] == {"x", "z"}


def test_empty_contract_list_is_valid():
    net = validate_network({"agents": ["solo"], "contracts": []})
    assert net.contract_ids == frozenset()
    assert net.is_acyclic()


def test_self_loop_rejected():
    with pytest.raises(NetworkValidationError, match="self-loop"):
        validate_network(
            {"agents": ["j"], "contracts": [{"id": "c", "seller": "j", "buyer": "j"}]}
        )


def test_validation_collects_all_issues():
    try:
        validate_network(
            {
                "agents": ["a", "a"],
                "contracts": [
                    {"id": "c", "seller": "a", "buyer": "ghost"},
                    {"id": "c", "seller": "a", "buyer": "a"},
                ],
                "extra": 1,
            }
        )
    except NetworkValidationError as err:
        text = " ".join(err.issues)
        for needle in ("duplicate agent", "unknown network fields", "duplicate contract",
                       "self-loop", "unknown buyer"):
            assert needle in text, text
    else:
        pytest.fail("expected validation to fail")


def test_unknown_contract_field_rejected():
    with pytest.raises(NetworkValidationError, match="unknown contract fields"):
        validate_network(
            {
                "agents": ["a", "b"],
                "contracts": [{"id": "c", "seller": "a", "buyer": "b", "weight": 3}],
            }
        )


def test_labels_are_strings_or_null():
    def network(label):
        contract = {"id": "c", "seller": "a", "buyer": "b", "label": label}
        return validate_network({"agents": ["a", "b"], "contracts": [contract]})

    assert network("steel").contracts[0].label == "steel"
    assert network(None).contracts[0].to_json() == {"id": "c", "seller": "a", "buyer": "b"}
    for label in ([1], {"a": 1}, 3, True):
        with pytest.raises(NetworkValidationError, match="label must be a string or null"):
            network(label)


def test_subsets_by_size_then_lexicographic():
    assert list(subsets({"b", "a", "c"})) == [
        frozenset(s) for s in ((), "a", "b", "c", "ab", "ac", "bc", "abc")
    ]
    assert list(subsets([])) == [frozenset()]


def reference_submasks(mask):
    """The frozenset route `submasks` replaced: every subset of the mask's
    bits through `subsets`, summed back into a mask."""
    return [sum(s) for s in subsets(1 << i for i in range(mask.bit_length()) if mask >> i & 1)]


def test_submasks_match_the_subsets_order():
    for mask in range(1 << 11):
        assert mask_bits(mask) == [1 << i for i in range(mask.bit_length()) if mask >> i & 1]
        assert list(at_bits(range(11), mask)) == [i for i in range(11) if mask >> i & 1]
        assert list(submasks(mask)) == reference_submasks(mask), mask
    assert list(at_bits("abc" * 100, 1 << 299 | 1 << 150 | 1)) == ["a", "a", "c"]


def test_spread_sums_each_subset_and_ors_one_bit_masks():
    assert spread([3, 5]) == [0, 3, 5, 8]
    assert spread([]) == [0]
    # distinct one-bit masks (0 for an item outside the domain): each sum is
    # the OR of its subset, the mask that subset lifts to
    bits = [1 << 4, 0, 1 << 0, 1 << 70, 1 << 2]
    for index, lifted in enumerate(spread(bits)):
        chosen = [b for i, b in enumerate(bits) if index >> i & 1]
        ored = 0
        for b in chosen:
            ored |= b
        assert lifted == ored, index


def test_terminal_partition(ring4):
    part = ring4.terminal_partition()
    assert part.terminal_sellers == {"m"}
    assert part.terminal_buyers == {"i"}


def test_terminal_partition_single_contract():
    net = validate_network(
        {"agents": ["a", "b"], "contracts": [{"id": "c", "seller": "a", "buyer": "b"}]}
    )
    part = net.terminal_partition()
    assert part.terminal_sellers == {"a"}
    assert part.terminal_buyers == {"b"}


def test_isolated_agent_is_terminal_on_both_sides():
    net = validate_network(
        {
            "agents": ["a", "b", "idle"],
            "contracts": [{"id": "c", "seller": "a", "buyer": "b"}],
        }
    )
    part = net.terminal_partition()
    assert "idle" in part.terminal_sellers
    assert "idle" in part.terminal_buyers


def test_terminal_membership_matches_empty_upstream(ring4):
    part = ring4.terminal_partition()
    for agent in ring4.agents:
        assert (agent in part.terminal_sellers) == (not ring4.upstream[agent])
        assert (agent in part.terminal_buyers) == (not ring4.downstream[agent])


def test_acyclicity():
    chain = validate_network(
        {
            "agents": ["p1", "p2", "m1", "m2", "c1", "c2"],
            "contracts": [
                {"id": "a", "seller": "p1", "buyer": "m1"},
                {"id": "b", "seller": "p2", "buyer": "m1"},
                {"id": "c", "seller": "p2", "buyer": "m2"},
                {"id": "d", "seller": "m1", "buyer": "c1"},
                {"id": "e", "seller": "m2", "buyer": "c2"},
                {"id": "f", "seller": "p2", "buyer": "c1"},
            ],
        }
    )
    assert chain.is_acyclic()


def test_ring4_is_cyclic(ring4):
    assert not ring4.is_acyclic()


def test_json_round_trip(ring4):
    assert validate_network(ring4.to_json()) == ring4
