from __future__ import annotations

import random

import pytest

from tradenet.instances import bundled_instance, instance_from_json
from tradenet.network import subsets, validate_network


@pytest.fixture(scope="session")
def ring4():
    """Four firms around a cycle: m sells w to j, j sells z to k, k sells y
    back to j, j sells x to i."""
    return validate_network(
        {
            "agents": ["i", "j", "k", "m"],
            "contracts": [
                {"id": "x", "seller": "j", "buyer": "i"},
                {"id": "y", "seller": "k", "buyer": "j"},
                {"id": "z", "seller": "j", "buyer": "k"},
                {"id": "w", "seller": "m", "buyer": "j"},
            ],
        }
    )


@pytest.fixture(scope="session")
def example1():
    return bundled_instance("example1")


@pytest.fixture(scope="session")
def example2():
    return bundled_instance("example2")


@pytest.fixture(scope="session")
def example3():
    return bundled_instance("example3")


@pytest.fixture(scope="session")
def reduced():
    return bundled_instance("reduced")


def _unrestricted_instance(seed, agents=("a", "b", "c"), max_contracts=7):
    """Agents trading 4 to `max_contracts` contracts with random preference
    lists; without substitutability the trail readings part ways and the
    response operator is not isotone."""
    rng = random.Random(seed)
    agents = list(agents)
    contracts = []
    for i in range(rng.randint(4, max_contracts)):
        seller, buyer = rng.sample(agents, 2)
        contracts.append({"id": f"c{i}", "seller": seller, "buyer": buyer})
    choices = []
    for agent in agents:
        own = {c["id"] for c in contracts if agent in (c["seller"], c["buyer"])}
        menus = [sorted(m) for m in subsets(own) if len(m) > 1 or rng.random() < 0.3]
        rng.shuffle(menus)
        choices.append({"agent": agent, "type": "preference_list", "ranking": menus[:12]})
    return instance_from_json(
        {"agents": agents, "contracts": contracts, "choice_functions": choices}
    )


@pytest.fixture(scope="session")
def unrestricted_instance():
    """Seeded random preference-list instances: `unrestricted_instance(seed)`."""
    return _unrestricted_instance
