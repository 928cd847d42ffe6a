"""Acceptance suite: one test per shipped guarantee, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Corpora are generated deterministically through the certified-instance
generators, so every run checks the same instances.
"""

from __future__ import annotations

import itertools
import time
from math import comb

import pytest

from tradenet import equilibrium as eq
from tradenet.dynamics import (
    entry_comparative_statics,
    market_readjustment,
    prefers,
    rural_hospitals_check,
)
from tradenet.fixedpoint import (
    buyer_optimal,
    compare_terminal_superiority,
    enumerate_fixed_points,
    fixed_point_outcomes,
    seller_optimal,
)
from tradenet.instances import bundled_instance
from tradenet.oracle import (
    brute_force_stable,
    gadget_not_set_stable,
    generate_entry_scenario,
    generate_instance,
    generate_priced_instance,
    needle_family,
    solve_partition,
)
from tradenet.stability import (
    check_notion,
    find_blocking_chain,
    find_blocking_set,
    find_blocking_trail,
    find_locally_blocking_trail,
)
from tradenet.axioms import check_separability

from literal import (
    pair_join,
    pair_meet,
    trace_offers_remain_open,
    trace_prices_monotone,
    trace_rejections_remain_final,
)

CORPUS_PLAN = (("fsirc", 80), ("separable", 50), ("simple", 35), ("acyclic", 35))


class Criterion:
    """Context manager printing one deterministic PASS/FAIL line."""

    def __init__(self, number: int, name: str, budget_s: float):
        self.number = number
        self.name = name
        self.budget = budget_s

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None and elapsed <= self.budget else "FAIL"
        print(f"[criterion {self.number:02d}] {self.name}: {status} ({elapsed:.2f}s / {self.budget:.0f}s budget)")
        if exc_type is None and elapsed > self.budget:
            raise AssertionError(
                f"criterion {self.number} exceeded its {self.budget}s budget: {elapsed:.2f}s"
            )
        return False


@pytest.fixture(scope="module")
def corpus():
    out = []
    for profile, count in CORPUS_PLAN:
        for seed in range(count):
            out.append(generate_instance(seed, profile))
    assert len(out) >= 200
    return out


def _sets(outcomes):
    return sorted(sorted(o) for o in outcomes)


def test_criterion_01_four_firm_cycle_with_entangled_preferences():
    inst = bundled_instance("example1")
    with Criterion(1, "four-firm cycle golden values", 1.0):
        assert _sets(brute_force_stable(inst, "trail")) == [["w"]]
        assert _sets(brute_force_stable(inst, "set")) == []
        assert _sets(brute_force_stable(inst, "chain")) == [["w"]]


def test_criterion_02_locally_blocking_but_not_blocking_trail():
    inst = bundled_instance("example2")
    with Criterion(2, "local-block golden values", 1.0):
        assert _sets(brute_force_stable(inst, "trail")) == [[], ["y", "z"]]
        assert _sets(brute_force_stable(inst, "full_trail")) == [["y", "z"]]
        verdict = find_locally_blocking_trail(inst, frozenset())
        assert not verdict.stable
        assert verdict.witness.contracts == ("w", "z", "y", "x")
        assert not check_separability(inst.choice["j"]).holds


def test_criterion_03_chains_weaker_than_trails():
    inst = bundled_instance("example3")
    with Criterion(3, "chain-vs-trail golden values", 1.0):
        assert _sets(brute_force_stable(inst, "trail")) == [["w", "x", "y", "z"]]
        assert _sets(brute_force_stable(inst, "chain")) == [[], ["w", "x", "y", "z"]]
        verdict = find_blocking_chain(inst, {"z", "y"})
        assert not verdict.stable
        # the cited two-contract chain blocks as evidence; the reported
        # witness is the shorter chain (w) per the minimality rule
        from tradenet.choices import is_rational

        assert is_rational(inst.choice["m"], {"w"}, {"z", "y"})
        assert is_rational(inst.choice["j"], {"w", "x"}, {"z", "y"})
        assert is_rational(inst.choice["i"], {"x"}, {"z", "y"})


def test_criterion_04_reduced_two_firm_cycle():
    inst = bundled_instance("reduced")
    with Criterion(4, "reduced-cycle golden values", 1.0):
        assert _sets(brute_force_stable(inst, "set")) == [["y", "z"]]
        assert _sets(brute_force_stable(inst, "trail")) == [[], ["y", "z"]]


def test_criterion_05_engine_matches_brute_force(corpus):
    with Criterion(5, "fixed-point engine = brute force on 200 instances", 300.0):
        for gen in corpus:
            inst = gen.instance
            engine = fixed_point_outcomes(inst)
            brute = brute_force_stable(inst, "full_trail")
            assert engine == brute, (gen.profile, gen.seed)
            assert engine, (gen.profile, gen.seed, "existence failed")


def test_criterion_06_implication_diagram(corpus):
    with Criterion(6, "stability implication diagram on 200 instances", 300.0):
        for gen in corpus:
            inst = gen.instance
            sets = {
                n: set(brute_force_stable(inst, n))
                for n in ("set", "full_trail", "trail", "chain")
            }
            assert sets["set"] <= sets["full_trail"], (gen.profile, gen.seed)
            assert sets["full_trail"] <= sets["trail"], (gen.profile, gen.seed)
            assert sets["trail"] <= sets["chain"], (gen.profile, gen.seed)
            if gen.profile == "separable":
                assert sets["trail"] == sets["full_trail"], gen.seed
            if gen.profile == "simple":
                assert sets["trail"] == sets["set"], gen.seed
            if gen.profile == "acyclic":
                assert (
                    sets["set"] == sets["full_trail"] == sets["trail"] == sets["chain"]
                ), gen.seed


def test_criterion_07_reduction_sweep():
    with Criterion(7, "subset-sum reduction sweep (k<=8, weights<=10)", 120.0):
        checked = 0
        for k in range(1, 9):
            for weights in itertools.combinations_with_replacement(range(1, 11), k):
                if sum(weights) % 2:
                    continue
                assert gadget_not_set_stable(weights) == solve_partition(weights), weights
                checked += 1
        assert checked > 20000


def test_criterion_07b_needle_probe_counter():
    # scale claims are not measurable here; report the query counter instead
    with Criterion(7, "hidden-subset probe counter (n<=4)", 120.0):
        counts = []
        for n in range(1, 5):
            inst = needle_family(n)
            assert find_blocking_set(inst, frozenset()).stable
            queries = inst.choice["f"].query_count
            assert queries >= comb(2 * n, n)
            counts.append(queries)
            print(f"  needle n={n}: {queries} distinct buyer-side menus probed "
                  f"(C(2n,n)={comb(2 * n, n)})")
        assert counts == sorted(counts)


def test_criterion_08_lattice_suite():
    with Criterion(8, "fixed-point lattice, margin invariance, optima extremes", 300.0):
        multi = 0
        for seed in range(60):
            inst = generate_instance(seed, "ladlas").instance
            pairs = [r.pair for r in enumerate_fixed_points(inst)]
            as_set = set(pairs)
            if len(pairs) > 1:
                multi += 1
                for p, q in itertools.combinations(pairs, 2):
                    assert pair_join(p, q) in as_set, seed
                    assert pair_meet(p, q) in as_set, seed
            report = rural_hospitals_check(inst)
            assert report.preconditions_hold and report.invariant_holds, seed
            best = buyer_optimal(inst).outcome
            worst = seller_optimal(inst).outcome
            for outcome in fixed_point_outcomes(inst):
                assert compare_terminal_superiority(inst, best, outcome).relation in (
                    "buyer_superior",
                    "equal",
                ), seed
                assert compare_terminal_superiority(inst, worst, outcome).relation in (
                    "seller_superior",
                    "equal",
                ), seed
        assert multi >= 10  # the closure claim must not hold vacuously


def test_criterion_09_equilibrium_suite():
    with Criterion(9, "competitive equilibrium on 50 priced economies", 300.0):
        equal = 0
        for seed in range(50):
            priced = generate_priced_instance(seed)  # certified at generation
            outcome, trace = eq.price_adjustment(priced)
            arrangement = eq.complete_prices(priced, outcome, trace)
            assert eq.verify_competitive_equilibrium(priced, arrangement), seed
            assert find_blocking_trail(priced.instance, outcome).stable, seed
            assert find_locally_blocking_trail(priced.instance, outcome).stable, seed
            assert trace_prices_monotone(trace), seed
            assert trace_offers_remain_open(trace), seed
            assert trace_rejections_remain_final(trace), seed
            # the abstract: the competitive equilibrium outcome is fully trail-stable
            for perspective in ("buyer", "seller"):
                outcome, _ = eq.price_adjustment(priced, perspective)
                verdict = check_notion(priced.instance, outcome, "full_trail")
                assert verdict.stable, (seed, perspective)
            # ... and so is every competitive equilibrium outcome, not only the
            # two that price adjustment reaches
            full_trail = brute_force_stable(priced.instance, "full_trail")
            ce_outcomes = {arr.contracts() for arr in _competitive_equilibria(priced)}
            assert ce_outcomes, seed
            assert ce_outcomes <= set(full_trail), seed
            equal += ce_outcomes == set(full_trail)
        # the converse is not claimed: reported, not asserted
        print(f"CE outcomes equal the full-trail-stable set on {equal} of 50 economies")


def _competitive_equilibria(priced):
    """Every arrangement, each price vector times each realized-trade
    subset, that `verify_competitive_equilibrium` accepts."""
    ids = priced.trade_ids
    for prices in itertools.product(*(t.prices() for t in priced.trades)):
        for size in range(len(ids) + 1):
            for realized in itertools.combinations(ids, size):
                arr = eq.Arrangement(frozenset(realized), dict(zip(ids, prices)))
                if eq.verify_competitive_equilibrium(priced, arr):
                    yield arr


def test_criterion_10_dynamics_suite():
    with Criterion(10, "entry statics and readjustment on 50 scenarios", 300.0):
        for seed in range(50):
            gen, event = generate_entry_scenario(seed)
            inst = gen.instance
            report = entry_comparative_statics(inst, event)
            assert report.directions_hold, (seed, report.to_json())
            pair = buyer_optimal(inst).pair
            readj = market_readjustment(inst, pair, event)
            part = readj.extended.network.terminal_partition()
            old, new = pair.outcome, readj.result.outcome
            for agent in sorted(part.terminal_agents - {event.agent}):
                seller = agent in part.terminal_sellers
                if seller == (event.side == "terminal_seller"):
                    assert prefers(readj.extended, agent, old, new), (seed, agent)
                else:
                    assert prefers(readj.extended, agent, new, old), (seed, agent)
