from __future__ import annotations

import functools
import hashlib
import itertools
import json
import random
import tracemalloc

import pytest

from tradenet.choices import ChoiceFunction, is_rational
from tradenet.cli import main
from tradenet.equilibrium import build_priced
from tradenet.errors import GuardExceededError, IterationDiagnosisError, PreconditionError
from tradenet.fixedpoint import (
    FixedPointResult,
    OfferPair,
    TerminalLattice,
    _canonical_row,
    _pair,
    bottom_pair,
    buyer_optimal,
    canonical_pair,
    compare_terminal_superiority,
    enumerate_fixed_points,
    fixed_point_outcomes,
    iterate_from,
    prefers,
    respond,
    seller_optimal,
    terminal_lattice,
    top_pair,
)
from tradenet.instances import BUNDLED, bundled_instance, instance_from_json
from tradenet.oracle import PROFILES, brute_force_stable, generate_instance
from tradenet.stability import FreshView

from literal import menus_asked, pair_join, pair_leq, pair_meet


def test_respond_from_top_keeps_buyer_side_full(example1):
    start = top_pair(example1)
    after = respond(example1, start)
    assert after.buyer_side == example1.contract_ids  # nothing offered to sellers yet


def test_example1_iteration_reaches_the_singleton(example1):
    run = buyer_optimal(example1)
    assert run.outcome == {"w"}
    assert respond(example1, run.pair) == run.pair
    assert seller_optimal(example1).outcome == {"w"}


def test_trace_is_monotone(example1):
    run = buyer_optimal(example1)
    for a, b in zip(run.trace, run.trace[1:]):
        assert pair_leq(b, a)  # descending from the top
    run = seller_optimal(example1)
    for a, b in zip(run.trace, run.trace[1:]):
        assert pair_leq(a, b)


def test_example2_unique_optimum(example2):
    assert buyer_optimal(example2).outcome == {"z", "y"}
    assert seller_optimal(example2).outcome == {"z", "y"}


def test_example3_unique_optimum(example3):
    assert buyer_optimal(example3).outcome == {"w", "x", "y", "z"}
    assert seller_optimal(example3).outcome == {"w", "x", "y", "z"}


def test_empty_network_fixed_immediately():
    inst = instance_from_json(
        {
            "agents": ["a"],
            "contracts": [],
            "choice_functions": [{"agent": "a", "type": "quota", "order": [], "quota": 1}],
        }
    )
    run = buyer_optimal(inst)
    assert run.outcome == frozenset()
    assert run.iterations == 0


def test_results_compare_by_pairs_and_rounds(example1):
    run = buyer_optimal(example1)
    assert isinstance(run, FixedPointResult)
    assert run == buyer_optimal(example1) and hash(run) == hash(buyer_optimal(example1))
    # w renamed w9 keeps every position, so the run's rows are the same,
    # but its pairs name other contracts
    raw = json.loads(json.dumps(example1.to_json()).replace('"w"', '"w9"'))
    renamed = buyer_optimal(instance_from_json(raw))
    assert renamed.rows == run.rows and renamed.outcome == {"w9"}
    assert renamed != run


def price_grid(prices):
    """One trade t on prices 0..prices-1: buyer b values it at the top price,
    seller s costs it one below, so buyer-optimal rounds climb one price a round."""
    cfs = [{"agent": "b", "type": "reservation", "values": {"t": prices - 1}},
           {"agent": "s", "type": "reservation", "costs": {"t": prices - 2}}]
    trade = {"id": "t", "seller": "s", "buyer": "b", "price_min": 0, "price_max": prices - 1}
    return build_priced({"trades": [trade], "choice_functions": cfs}).instance


def test_an_optimum_keeps_its_rounds_as_rows():
    # about 500 rounds over 500 contracts: rows take rounds x |X| bits, where
    # an offer pair of frozensets per round peaked at 32.8 MB
    inst = price_grid(500)
    tracemalloc.start()
    try:
        run = buyer_optimal(inst)
        outcome = run.outcome
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome == {"t@498"} and run.iterations >= 499
    assert peak < 4_000_000, peak


def test_solve_trace_bytes_are_pinned(capsys, tmp_path):
    # the digest pins the decoded trace's bytes, taken when every round was
    # kept as an offer pair
    path = tmp_path / "grid50.json"
    path.write_text(json.dumps(price_grid(50).to_json()))
    assert main(["solve", str(path), "--trace"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["outcome"] == ["t@48"] and json.loads(out)["iterations"] >= 49
    digest = "d9e49d37e62cfea104ef1fbea3227228eb74c2aeddbdef750b48487ca33396b2"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_incomparable_start_rejected(example1):
    with pytest.raises(PreconditionError, match="not comparable"):
        iterate_from(example1, OfferPair(frozenset(), frozenset()))


def test_comparable_warm_start_converges(example1):
    # a mid-lattice pair comparable with its response is a legal start
    warm = OfferPair(example1.contract_ids, frozenset({"w", "x"}))
    run = iterate_from(example1, warm)
    assert run.outcome == {"w"}
    assert respond(example1, run.pair) == run.pair


def test_single_contract_both_accept():
    inst = instance_from_json(
        {
            "agents": ["a", "b"],
            "contracts": [{"id": "c", "seller": "a", "buyer": "b"}],
            "choice_functions": [
                {"agent": "a", "type": "quota", "order": ["c"], "quota": 1},
                {"agent": "b", "type": "quota", "order": ["c"], "quota": 1},
            ],
        }
    )
    assert buyer_optimal(inst).outcome == {"c"}
    assert seller_optimal(inst).outcome == {"c"}


def test_non_substitutable_choices_are_diagnosed():
    # the buyer wants the two inputs only as a package; once one seller
    # withdraws, the buyer un-rejects nothing and re-rejects the survivor,
    # which knocks the response off the monotone path
    inst = instance_from_json(
        {
            "agents": ["s1", "s2", "b"],
            "contracts": [
                {"id": "c1", "seller": "s1", "buyer": "b"},
                {"id": "c2", "seller": "s2", "buyer": "b"},
            ],
            "choice_functions": [
                {"agent": "s1", "type": "quota", "order": [], "quota": 1},
                {"agent": "s2", "type": "quota", "order": ["c2"], "quota": 1},
                {"agent": "b", "type": "preference_list", "ranking": [["c1", "c2"]]},
            ],
        }
    )
    with pytest.raises(IterationDiagnosisError):
        buyer_optimal(inst)


def test_enumeration_pruning_matches_full_pair_scan(reduced, example1):
    # independent oracle over all 4^|X| offer pairs validates the menu-table
    # join, including its claim that every fixed point covers the contracts
    for inst in (reduced, example1):
        ids = sorted(inst.contract_ids)
        full_scan = set()
        for b_mask in range(1 << len(ids)):
            buyer = frozenset(c for i, c in enumerate(ids) if b_mask >> i & 1)
            for s_mask in range(1 << len(ids)):
                seller = frozenset(c for i, c in enumerate(ids) if s_mask >> i & 1)
                pair = OfferPair(buyer, seller)
                if respond(inst, pair) == pair:
                    full_scan.add(pair)
        assert {r.pair for r in enumerate_fixed_points(inst)} == full_scan


def _scanned_fixed_points(inst):
    """Every fixed point by the definition, over all 3^|X| side assignments
    (0 buyer side only, 1 seller side only, 2 both)."""
    ids = sorted(inst.contract_ids)
    out = []
    for sides in itertools.product((0, 1, 2), repeat=len(ids)):
        buyer = frozenset(c for c, s in zip(ids, sides) if s != 1)
        seller = frozenset(c for c, s in zip(ids, sides) if s != 0)
        pair = OfferPair(buyer, seller)
        if respond(inst, pair) == pair:
            out.append(pair)
    return sorted(out, key=OfferPair.sort_key)


def test_enumeration_matches_literal_scan(unrestricted_instance):
    # random preference lists are not substitutable, so respond is not
    # isotone there and the fixed points need not form a lattice
    corpus = (
        [bundled_instance(name) for name in BUNDLED]
        + [generate_instance(seed, profile).instance for profile in PROFILES for seed in range(12)]
        + [unrestricted_instance(seed) for seed in range(100)]
        + [unrestricted_instance(seed, "abcd", max_contracts=8) for seed in range(40)]
    )
    counts = []
    for inst in corpus:
        assert len(inst.contract_ids) <= 8
        found = enumerate_fixed_points(inst)
        assert [r.pair for r in found] == _scanned_fixed_points(inst)
        assert all(r.iterations == 0 and r.trace == (r.pair,) for r in found)
        counts.append(len(found))
    assert 0 in counts and max(counts) >= 20  # both empty and crowded answers occur


def test_enumeration_diagnoses_a_fickle_choice_function():
    # b's menu table keeps c, but afterwards its choose_mask (which the
    # response round asks) turns everything down, so the joined tables name a
    # pair that the confirming response round moves
    inst = instance_from_json(
        {
            "agents": ["a", "b"],
            "contracts": [{"id": "c", "seller": "a", "buyer": "b"}],
            "choice_functions": [
                {"agent": "a", "type": "quota", "order": ["c"], "quota": 1},
                {"agent": "b", "type": "quota", "order": ["c"], "quota": 1},
            ],
        }
    )
    inst.choice["b"].menu_table()
    inst.choice["b"].choose_mask = lambda menu: 0
    with pytest.raises(IterationDiagnosisError, match="not a fixed point"):
        enumerate_fixed_points(inst)


def literal_respond(inst, pair):
    """The response round on frozensets, each agent asked through `choose`:
    the reference for `respond`, which asks menu masks."""
    seller_rejects: set[str] = set()
    buyer_rejects: set[str] = set()
    for cf in inst.choice.values():
        sells = pair.seller_side & cf.downstream
        buys = pair.buyer_side & cf.upstream
        kept = cf.choose(sells | buys)
        seller_rejects |= sells - kept
        buyer_rejects |= buys - kept
    everything = inst.contract_ids
    return OfferPair(everything - seller_rejects, everything - buyer_rejects)


def literal_walk(inst, start):
    """The pairs `literal_respond` visits from `start`, until a round repeats
    its pair or 2|X| + 2 rounds have passed."""
    walk = [start]
    for _ in range(2 * len(inst.contract_ids) + 2):
        nxt = literal_respond(inst, walk[-1])
        if nxt == walk[-1]:
            break
        walk.append(nxt)
    return walk


def _respond_corpus(unrestricted_instance):
    return (
        [bundled_instance(name) for name in BUNDLED]
        + [generate_instance(seed, profile).instance for profile in PROFILES for seed in range(10)]
        + [unrestricted_instance(seed) for seed in range(30)]
        + [unrestricted_instance(seed, "abcd", max_contracts=8) for seed in range(10)]
    )


def _random_pairs(inst, rng, count=20):
    ids = sorted(inst.contract_ids)
    return [
        OfferPair(
            frozenset(c for c in ids if rng.random() < 0.5),
            frozenset(c for c in ids if rng.random() < 0.5),
        )
        for _ in range(count)
    ]


def test_respond_matches_the_frozenset_round(unrestricted_instance):
    # fixed points, both extremes, every round of both optima's traces (the
    # literal walk where the rounds leave the monotone path) and random pairs
    rng = random.Random(11)
    random_fixed = random_total = 0
    for inst in _respond_corpus(unrestricted_instance):
        pairs = [r.pair for r in enumerate_fixed_points(inst)]
        for optimum, start in ((buyer_optimal, top_pair(inst)), (seller_optimal, bottom_pair(inst))):
            walk = literal_walk(inst, start)
            try:
                assert list(optimum(inst).trace) == walk
            except IterationDiagnosisError:
                pass  # not substitutable: the walk is still compared round by round
            pairs += walk
        sampled = _random_pairs(inst, rng)
        for pair in pairs + sampled:
            assert respond(inst, pair) == literal_respond(inst, pair), (inst.to_json(), pair)
        random_fixed += sum(respond(inst, pair) == pair for pair in sampled)
        random_total += len(sampled)
    assert random_fixed < random_total / 2  # most random pairs are not fixed


def test_respond_asks_no_frozenset_menu(monkeypatch, unrestricted_instance):
    rng = random.Random(12)
    corpus = _respond_corpus(unrestricted_instance)
    asked = [(inst, _random_pairs(inst, rng, 5)) for inst in corpus]

    def refuse(self, offered):
        raise AssertionError(f"{self.agent} was asked a frozenset menu")

    monkeypatch.setattr(ChoiceFunction, "choose", refuse)
    for inst, pairs in asked:
        for pair in pairs + [top_pair(inst), bottom_pair(inst)]:
            respond(inst, pair)
        enumerate_fixed_points(inst)
        for optimum in (buyer_optimal, seller_optimal):
            try:
                optimum(inst)
            except IterationDiagnosisError:
                pass  # the rounds left the monotone path, asking masks all the way


def test_enumeration_covers_contracts_and_contains_optima(example1):
    results = enumerate_fixed_points(example1)
    assert results
    outcomes = {r.outcome for r in results}
    assert frozenset({"w"}) in outcomes
    for r in results:
        assert r.pair.buyer_side | r.pair.seller_side == example1.contract_ids
        assert respond(example1, r.pair) == r.pair
    assert buyer_optimal(example1).pair in {r.pair for r in results}


def test_enumeration_guard():
    contracts = [{"id": f"c{i:02d}", "seller": "a", "buyer": "b"} for i in range(13)]
    inst = instance_from_json(
        {
            "agents": ["a", "b"],
            "contracts": contracts,
            "choice_functions": [
                {"agent": "a", "type": "quota", "order": [], "quota": 1},
                {"agent": "b", "type": "quota", "order": [], "quota": 1},
            ],
        }
    )
    with pytest.raises(GuardExceededError):
        enumerate_fixed_points(inst)


def test_all_rejecting_instance_has_empty_outcome():
    inst = instance_from_json(
        {
            "agents": ["a", "b"],
            "contracts": [{"id": "c", "seller": "a", "buyer": "b"}],
            "choice_functions": [
                {"agent": "a", "type": "quota", "order": [], "quota": 1},
                {"agent": "b", "type": "quota", "order": [], "quota": 1},
            ],
        }
    )
    assert frozenset() in set(fixed_point_outcomes(inst))


def test_engine_agrees_with_brute_force(example1, example2, example3, reduced):
    for inst in (example1, example2, example3, reduced):
        assert fixed_point_outcomes(inst) == brute_force_stable(inst, "full_trail")


def test_isotone_on_sampled_comparable_pairs(example2):
    rng = random.Random(7)
    ids = sorted(example2.contract_ids)
    for _ in range(200):
        small_b = frozenset(c for c in ids if rng.random() < 0.4)
        big_b = small_b | frozenset(c for c in ids if rng.random() < 0.4)
        big_s = frozenset(c for c in ids if rng.random() < 0.4)
        small_s = big_s | frozenset(c for c in ids if rng.random() < 0.4)
        low = OfferPair(small_b, small_s)
        high = OfferPair(big_b, big_s)
        assert pair_leq(low, high)
        assert pair_leq(respond(example2, low), respond(example2, high))


def test_canonical_pair_round_trip(example2, reduced):
    pair = canonical_pair(example2, {"z", "y"})
    assert respond(example2, pair) == pair
    assert pair.outcome == {"z", "y"}

    # nothing is kept by its seller next to the empty outcome here
    pair = canonical_pair(reduced, frozenset())
    assert pair == OfferPair(frozenset(), reduced.contract_ids)
    assert respond(reduced, pair) == pair


def test_canonical_pair_requires_full_trail_stability(example2):
    with pytest.raises(PreconditionError, match="locally blocking"):
        canonical_pair(example2, frozenset())  # blocked by the circuit trail
    with pytest.raises(PreconditionError, match="acceptable"):
        canonical_pair(example2, {"x"})


def test_canonical_pair_refuses_unknown_contracts(example1):
    outcome = fixed_point_outcomes(example1)[0] | {"nope"}
    with pytest.raises(PreconditionError, match=r"unknown contracts: \['nope'\]"):
        canonical_pair(example1, outcome)


def test_unchecked_canonical_pair_keeps_no_view():
    for name in BUNDLED:
        inst = bundled_instance(name)
        for outcome in fixed_point_outcomes(inst):
            _canonical_row(inst, outcome)
        assert inst.numbering.views == {}


def _views_built(monkeypatch):
    """The outcomes of the `FreshView`s built from here on, in order."""
    built, init = [], FreshView.__init__

    def counting(self, inst, outcome):
        built.append(outcome)
        init(self, inst, outcome)

    monkeypatch.setattr(FreshView, "__init__", counting)
    return built


def test_checked_canonical_pair_builds_one_view_per_outcome(monkeypatch):
    # the check keeps the outcome's view and the closure reads that one
    built = _views_built(monkeypatch)
    for name in BUNDLED:
        for outcome in fixed_point_outcomes(bundled_instance(name)):
            built.clear()
            canonical_pair(bundled_instance(name), outcome)  # a fresh instance
            assert built == [outcome], (name, sorted(outcome))


def test_terminal_lattice_after_brute_force_builds_no_view(monkeypatch):
    # brute force keeps a view of every acceptable outcome, fixed points' included
    built = _views_built(monkeypatch)
    for seed in range(5):
        inst = generate_instance(seed, "ladlas").instance
        brute_force_stable(inst, "full_trail")
        built.clear()
        terminal_lattice(inst)
        assert built == [], seed


def test_canonical_pair_round_trip_on_generated_instances():
    for seed in range(12):
        inst = generate_instance(seed, "fsirc").instance
        for res in enumerate_fixed_points(inst):
            again = canonical_pair(inst, res.outcome)
            assert respond(inst, again) == again
            assert again.outcome == res.outcome


def reference_canonical_pair(inst, outcome):
    """The closure on ids: every extension scans all non-outcome contracts
    and asks the linking agent through `is_rational`."""
    net = inst.network
    rest = sorted(inst.contract_ids - outcome)
    reached = set()
    frontier = [
        cid for cid in rest if is_rational(inst.choice[net.contract(cid).seller], {cid}, outcome)
    ]
    reached.update(frontier)
    while frontier:
        nxt = []
        for cid in frontier:
            link = net.contract(cid).buyer
            cf = inst.choice[link]
            for ext in rest:
                if ext in reached or net.contract(ext).seller != link:
                    continue
                if is_rational(cf, {cid, ext}, outcome):
                    reached.add(ext)
                    nxt.append(ext)
        frontier = nxt
    buyer_extra = frozenset(reached)
    return OfferPair(outcome | buyer_extra, outcome | (frozenset(rest) - buyer_extra))


def test_canonical_pair_matches_the_id_closure(unrestricted_instance):
    # every full-trail-stable outcome (so acceptable) of the bundled,
    # generated and unrestricted instances: the closure over the view gives
    # the pair of the id closure and asks the same menus
    corpus = (
        [bundled_instance(name) for name in BUNDLED]
        + [generate_instance(seed, profile).instance for profile in PROFILES for seed in range(12)]
        + [unrestricted_instance(seed) for seed in range(300)]
    )
    checked = 0
    for inst in corpus:
        for outcome in brute_force_stable(inst, "full_trail"):
            fresh, literal = (instance_from_json(inst.to_json()) for _ in range(2))
            row = _canonical_row(fresh, outcome)
            assert _pair(fresh.numbering, row) == reference_canonical_pair(literal, outcome)
            for agent in inst.network.agents:
                assert menus_asked(fresh.choice[agent]) == menus_asked(literal.choice[agent])
            assert canonical_pair(inst, outcome) == reference_canonical_pair(inst, outcome)
            checked += 1
    assert checked > 500


def test_fixed_points_closed_under_join_and_meet():
    found_multiple = 0
    for seed in range(30):
        inst = generate_instance(seed, "ladlas").instance
        pairs = [r.pair for r in enumerate_fixed_points(inst)]
        if len(pairs) > 1:
            found_multiple += 1
        as_set = set(pairs)
        for p, q in itertools.combinations(pairs, 2):
            assert pair_join(p, q) in as_set
            assert pair_meet(p, q) in as_set
    assert found_multiple >= 3  # the closure must actually bite somewhere


def test_superiority_reflexive_and_terminal_blind(example2):
    assert compare_terminal_superiority(example2, {"z", "y"}, {"z", "y"}).relation == "equal"
    # terminal agents hold nothing in either outcome, so the two compare equal
    assert compare_terminal_superiority(example2, {"z", "y"}, frozenset()).relation == "equal"


def test_superiority_refuses_unknown_contracts(example1):
    for first, second in (({"nope"}, set()), (set(), {"w", "nope"})):
        with pytest.raises(PreconditionError, match=r"unknown contracts: \['nope'\]"):
            compare_terminal_superiority(example1, first, second)


def test_round_and_preference_refuse_unknown_contracts(example1):
    # both once read past the unknown id: the round answered as if it were
    # absent, and `prefers` said yes
    with pytest.raises(PreconditionError, match="lacks"):
        respond(example1, OfferPair(frozenset({"nope", "x"}), frozenset({"y"})))
    for preferred, other in (({"nope"}, set()), (set(), {"w", "nope"})):
        with pytest.raises(PreconditionError, match=r"unknown contracts: \['nope'\]"):
            prefers(example1, "i", preferred, other)


def test_superiority_requires_terminal_rationality():
    inst = instance_from_json(
        {
            "agents": ["a", "b"],
            "contracts": [{"id": "c", "seller": "a", "buyer": "b"}],
            "choice_functions": [
                {"agent": "a", "type": "quota", "order": ["c"], "quota": 1},
                {"agent": "b", "type": "quota", "order": [], "quota": 1},
            ],
        }
    )
    # terminal buyer b turns c down, so {c} cannot enter the comparison
    with pytest.raises(PreconditionError, match="individually rational"):
        compare_terminal_superiority(inst, {"c"}, frozenset())


def test_optima_are_superiority_extremes_on_generated_instances():
    for seed in range(40):
        inst = generate_instance(seed, "ladlas").instance
        outcomes = fixed_point_outcomes(inst)
        best = buyer_optimal(inst).outcome
        worst = seller_optimal(inst).outcome
        for other in outcomes:
            assert compare_terminal_superiority(inst, best, other).relation in (
                "buyer_superior",
                "equal",
            )
            assert compare_terminal_superiority(inst, worst, other).relation in (
                "seller_superior",
                "equal",
            )


@pytest.fixture(scope="module")
def crossed_market():
    """Two sellers, two buyers, unit quotas, crossed rankings: the classic
    configuration with distinct side-optimal outcomes."""
    return instance_from_json(
        {
            "agents": ["b1", "b2", "s1", "s2"],
            "contracts": [
                {"id": "c11", "seller": "s1", "buyer": "b1"},
                {"id": "c12", "seller": "s1", "buyer": "b2"},
                {"id": "c21", "seller": "s2", "buyer": "b1"},
                {"id": "c22", "seller": "s2", "buyer": "b2"},
            ],
            "choice_functions": [
                {"agent": "s1", "type": "quota", "order": ["c11", "c12"], "quota": 1},
                {"agent": "s2", "type": "quota", "order": ["c22", "c21"], "quota": 1},
                {"agent": "b1", "type": "quota", "order": ["c21", "c11"], "quota": 1},
                {"agent": "b2", "type": "quota", "order": ["c12", "c22"], "quota": 1},
            ],
        }
    )


def test_crossed_market_strict_superiority(crossed_market):
    best = buyer_optimal(crossed_market).outcome
    worst = seller_optimal(crossed_market).outcome
    assert best == {"c21", "c12"}
    assert worst == {"c11", "c22"}
    assert compare_terminal_superiority(crossed_market, best, worst).relation == "buyer_superior"
    assert compare_terminal_superiority(crossed_market, worst, best).relation == "seller_superior"
    for other in fixed_point_outcomes(crossed_market):
        assert compare_terminal_superiority(crossed_market, best, other).relation in (
            "buyer_superior",
            "equal",
        )


def test_superiority_incomparable_off_the_axioms(unrestricted_instance):
    """Without substitutability two fixed-point outcomes can each be better
    for some terminal agent on the same side: neither superiority holds."""
    found = []
    for seed in range(100):
        inst = unrestricted_instance(seed, "abcd", max_contracts=7)
        part = inst.network.terminal_partition()

        def seller_superior(first, second):  # buyer-superior is this reversed
            return all(prefers(inst, t, first, second) for t in part.terminal_sellers) and all(
                prefers(inst, t, second, first) for t in part.terminal_buyers)

        for a, b in itertools.combinations(fixed_point_outcomes(inst), 2):
            if compare_terminal_superiority(inst, a, b).relation != "incomparable":
                continue
            found.append(seed)
            assert compare_terminal_superiority(inst, b, a).relation == "incomparable"
            assert not seller_superior(a, b) and not seller_superior(b, a)
            break
    assert found == [1, 32, 46, 47, 97]


def test_superiority_is_a_partial_order_on_stable_outcomes():
    for seed in range(25):
        inst = generate_instance(seed, "ladlas").instance
        outcomes = fixed_point_outcomes(inst)

        def seller_weakly_above(a, b):
            return compare_terminal_superiority(inst, a, b).relation in (
                "seller_superior",
                "equal",
            )

        for a in outcomes:
            assert compare_terminal_superiority(inst, a, a).relation == "equal"
            for b in outcomes:
                if seller_weakly_above(a, b) and seller_weakly_above(b, a):
                    assert compare_terminal_superiority(inst, a, b).relation == "equal"
                for c in outcomes:
                    if seller_weakly_above(a, b) and seller_weakly_above(b, c):
                        assert seller_weakly_above(a, c), (seed, a, b, c)


def test_terminal_lattice_unique_outcome_is_one_element(example1, example2, example3):
    for inst in (example1, example2, example3):
        lattice = terminal_lattice(inst, validate=False)
        assert len(lattice.elements) == 1
        assert lattice.joins == {(0, 0): 0}


def test_terminal_lattice_elements_match_terminal_outcomes():
    for seed in range(40):
        inst = generate_instance(seed, "ladlas").instance
        part = inst.network.terminal_partition()
        terminal_contracts = frozenset(
            c for a in part.terminal_agents for c in inst.choice[a].domain
        )
        lat = terminal_lattice(inst, validate=False)
        expected = {o & terminal_contracts for o in fixed_point_outcomes(inst)}
        assert set(lat.outcomes) == expected
        assert len(lat.elements) == len(expected)


def _assert_lattice_axioms(lat):
    n = len(lat.elements)
    for i in range(n):
        assert lat.joins[(i, i)] == i
        assert lat.meets[(i, i)] == i
        for j in range(n):
            assert lat.joins[(i, j)] == lat.joins[(j, i)]
            assert lat.meets[(i, j)] == lat.meets[(j, i)]
            # absorption ties join and meet together
            assert lat.joins[(i, lat.meets[(i, j)])] == i
            assert lat.meets[(i, lat.joins[(i, j)])] == i


def test_terminal_lattice_axioms_on_generated_instances():
    checked = 0
    for seed in range(80):
        inst = generate_instance(seed, "ladlas").instance
        lat = terminal_lattice(inst, validate=False)
        if len(lat.elements) > 1:
            checked += 1
        _assert_lattice_axioms(lat)
    assert checked >= 2


def test_terminal_lattice_of_crossed_market(crossed_market):
    lat = terminal_lattice(crossed_market, validate=False)
    assert len(lat.elements) == len(fixed_point_outcomes(crossed_market))
    assert len(lat.elements) >= 2
    _assert_lattice_axioms(lat)
    # elements zipped with their terminal outcomes; joins and meets keyed "i,j"
    best, worst = ["c12", "c21"], ["c11", "c22"]
    assert lat.to_json() == {
        "elements": [
            {"buyer_side": ["c11", "c12", "c21", "c22"], "seller_side": best,
             "terminal_outcome": best},
            {"buyer_side": worst, "seller_side": ["c11", "c12", "c21", "c22"],
             "terminal_outcome": worst},
        ],
        "joins": {"0,0": 0, "0,1": 0, "1,0": 0, "1,1": 1},
        "meets": {"0,0": 0, "0,1": 1, "1,0": 1, "1,1": 1},
    }


def _project_terminal(pair, terminal_contracts):
    return OfferPair(pair.buyer_side & terminal_contracts, pair.seller_side & terminal_contracts)


def literal_terminal_lattice(inst):
    """The frozenset lattice: projections, canonical inverses and the join
    and meet table, on offer pairs."""
    part = inst.network.terminal_partition()
    terminal_contracts = frozenset(
        cid for a in part.terminal_agents for cid in inst.choice[a].domain
    )
    fps = [r.pair for r in enumerate_fixed_points(inst)]
    projections = sorted(
        {
            _project_terminal(canonical_pair(inst, outcome), terminal_contracts)
            for outcome in fixed_point_outcomes(inst)
        },
        key=OfferPair.sort_key,
    )

    def canonical_inverse(proj):
        below = [p for p in fps if pair_leq(_project_terminal(p, terminal_contracts), proj)]
        return functools.reduce(pair_join, below)

    index = {p: i for i, p in enumerate(projections)}
    inverses = [canonical_inverse(p) for p in projections]
    joins, meets = {}, {}
    for i, ci in enumerate(inverses):
        for j, cj in enumerate(inverses):
            joins[(i, j)] = index[_project_terminal(pair_join(ci, cj), terminal_contracts)]
            meets[(i, j)] = index[_project_terminal(pair_meet(ci, cj), terminal_contracts)]
    outcomes = tuple(p.outcome for p in projections)
    return TerminalLattice(tuple(projections), outcomes, joins, meets)


def test_terminal_lattice_matches_the_frozenset_lattice(crossed_market):
    corpus = (
        [generate_instance(seed, "ladlas").instance for seed in range(100)]
        + [crossed_market]
        + [bundled_instance(name) for name in BUNDLED]
    )
    wider = 0
    for inst in corpus:
        literal = literal_terminal_lattice(instance_from_json(inst.to_json()))
        lattice = terminal_lattice(inst, validate=False)
        assert lattice == literal
        assert lattice.to_json() == literal.to_json()
        wider += len(lattice.elements) > 1
    assert wider >= 3  # some tables have more than one entry


def test_lattice_outcomes_and_canonical_pairs_encode_no_pair(monkeypatch, crossed_market):
    # the numbering keeps the fixed points as rows and the closure returns a
    # row, so no offer pair is encoded back into one on the way
    def refuse(*_):
        raise AssertionError("an offer pair was encoded into a row")

    corpus = [generate_instance(seed, "ladlas").instance for seed in range(20)]
    for inst in corpus + [crossed_market]:
        literal = instance_from_json(inst.to_json())
        lattice = literal_terminal_lattice(literal)
        outcomes = brute_force_stable(literal, "full_trail")
        pairs = [reference_canonical_pair(literal, outcome) for outcome in outcomes]
        with monkeypatch.context() as patch:
            patch.setattr("tradenet.fixedpoint._row", refuse)
            assert terminal_lattice(inst) == lattice
            assert fixed_point_outcomes(inst) == outcomes
            assert [canonical_pair(inst, outcome) for outcome in outcomes] == pairs


def test_terminal_lattice_precondition_reported():
    raw = {
        "agents": ["a", "b", "c"],
        "contracts": [
            {"id": "u", "seller": "a", "buyer": "b"},
            {"id": "d1", "seller": "b", "buyer": "c"},
            {"id": "d2", "seller": "b", "buyer": "c"},
        ],
        # sells two outputs only when the input arrives: violates the
        # aggregate laws while staying a valid choice function
        "choice_functions": [
            {"agent": "a", "type": "quota", "order": ["u"], "quota": 1},
            {"agent": "b", "type": "preference_list", "ranking": [["u", "d1", "d2"]]},
            {"agent": "c", "type": "quota", "order": ["d1", "d2"], "quota": 2},
        ],
    }
    inst = instance_from_json(raw)
    with pytest.raises(PreconditionError) as err:
        terminal_lattice(inst)
    assert any(not r.holds for r in err.value.reports)
