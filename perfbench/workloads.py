"""The benchmark's three seeded workloads.

Each workload builds its pool of queries from the seed when it is
constructed (that is the set-up the benchmark times), then serves them:
`prepare(i)` gives the i-th query's input with fresh library state and is not
timed, `run(item)` is the timed query, and `check(item, answer)` is the
reference check, also not timed.  The pool is laid out in rounds of fixed
strata (sizes, profiles, commands), and it is small enough that a run passes
over it several times.  The library sees only the generated inputs, never the
seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
from collections import Counter

from tradenet import cli, fixedpoint, oracle, stability
from tradenet.axioms import SIZE_GUARD
from tradenet.equilibrium import build_priced, contract_id
from tradenet.errors import PreconditionError
from tradenet.fixedpoint import ENUMERATION_GUARD
from tradenet.instances import instance_from_json
from tradenet.oracle import BRUTE_GUARD
from tradenet.stability import SET_GUARD

NOTIONS = stability.NOTIONS
AXIOMS = ("irc", "full_substitutability", "lad_las", "separability", "w_contraction")


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _ids(contract_set) -> list[str]:
    return sorted(contract_set)


def _outcome_list(outcomes) -> list[list[str]]:
    return sorted(_ids(o) for o in outcomes)


def _histogram(values) -> dict[str, int]:
    return {str(k): v for k, v in sorted(Counter(values).items())}


def _terminal(raw: dict) -> tuple[set[str], set[str]]:
    """Terminal sellers (no contract bought) and terminal buyers (none sold)."""
    buys = {a: 0 for a in raw["agents"]}
    sells = {a: 0 for a in raw["agents"]}
    for c in raw["contracts"]:
        buys[c["buyer"]] += 1
        sells[c["seller"]] += 1
    return {a for a in buys if not buys[a]}, {a for a in sells if not sells[a]}


def _prefers(cf, mine, theirs) -> bool:
    """The agent keeps exactly its part of `mine` from the union of both."""
    mine = frozenset(mine) & cf.domain
    theirs = frozenset(theirs) & cf.domain
    return cf.choose(mine | theirs) == mine


def _domains(raw: dict) -> list[int]:
    count = Counter()
    for c in raw["contracts"]:
        count[c["seller"]] += 1
        count[c["buyer"]] += 1
    return [count[a] for a in raw["agents"]]


# ---------------------------------------------------------------------------
# gadget_sweep
# ---------------------------------------------------------------------------


class GadgetSweep:
    """Even-split gadgets through the set search, the criterion 07 hot spot.

    Weights are integers 1..10 with an even total.  Each round holds one
    splittable gadget for each k = 6..9 and unsplittable ones for k = 7 (three
    times), 8 and 9; an unsplittable gadget scans all 2^(k+1) - 1 fresh
    subsets, so its cost depends on k alone.  The three k = 7 scans straddle
    the middle of the latencies and the k = 9 scans hold the tail, which keeps
    both percentiles inside one stratum instead of on a boundary between two.
    """

    name = "gadget_sweep"
    STRATA = ((6, True), (7, True), (8, True), (9, True),
              (7, False), (7, False), (7, False), (8, False), (9, False))
    ROUNDS = 48

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(f"gadget_sweep:{seed}")
        self.pool = [
            self._draw(rng, k, splittable)
            for _ in range(self.ROUNDS)
            for k, splittable in self.STRATA
        ]

    @staticmethod
    def _draw(rng, k, splittable):
        while True:
            weights = tuple(sorted(rng.randint(1, 10) for _ in range(k)))
            if sum(weights) % 2 == 0 and oracle.solve_partition(weights) == splittable:
                return weights

    def __len__(self):
        return len(self.pool)

    def prepare(self, i):
        return self.pool[i]

    def run(self, weights):
        gadget = oracle.partition_to_gs(weights)
        verdict = stability.find_blocking_set(gadget.instance, gadget.outcome)
        return {
            "blocked": not verdict.stable,
            "witness": list(verdict.witness.contracts) if verdict.witness else None,
        }

    def check(self, weights, answer):
        if answer["blocked"] != oracle.solve_partition(weights):
            return f"{weights}: blocked={answer['blocked']} disagrees with the split solver"
        if answer["blocked"]:
            # the blocking set is the return contract plus a weight-half subset
            witness = answer["witness"]
            if "y" not in witness:
                return f"{weights}: witness {witness} lacks the return contract"
            picked = sum(weights[int(c[1:]) - 1] for c in witness if c != "y")
            if 2 * picked != sum(weights):
                return f"{weights}: witness {witness} weighs {picked}, not half"
        return None

    def inputs(self):
        return self.pool

    def record(self):
        ks = [len(w) for w in self.pool]
        return {
            "histograms": {"gadget_k": _histogram(ks)},
            "headroom": {"SET_GUARD": SET_GUARD - (max(ks) + 1)},
        }


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------


class Census:
    """Full census of certified instances: all six brute-force stable sets,
    the fixed-point outcomes, both optimal outcomes and, on LAD/LAS instances,
    the terminal lattice.

    Each round holds every profile at 6, 7 and 8 contracts, fifteen strata.
    The 3^|X| fixed-point scan grows threefold per contract, so the strata
    fall into three bands by size: the 7-contract band holds the median and
    the 8-contract band, with LAD/LAS slowest because of the lattice, holds
    the tail.
    """

    name = "census"
    STRATA = tuple((p, n) for n in (6, 7, 8) for p in oracle.PROFILES)
    ROUNDS = 3

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(f"census:{seed}")
        self.pool = [
            (profile, self._draw(rng, profile, size))
            for _ in range(self.ROUNDS)
            for profile, size in self.STRATA
        ]

    @staticmethod
    def _draw(rng, profile, size):
        while True:
            try:
                gen = oracle.generate_instance(rng.randrange(10**9), profile, max_contracts=size)
            except PreconditionError:
                continue
            if len(gen.instance.contract_ids) == size:
                return gen.instance.to_json()

    def __len__(self):
        return len(self.pool)

    def prepare(self, i):
        # reloaded from JSON so that certification has not filled the caches
        profile, raw = self.pool[i]
        return profile, raw, instance_from_json(raw)

    def run(self, item):
        profile, _, inst = item
        stable = {n: oracle.brute_force_stable(inst, n, jobs=1) for n in NOTIONS}
        engine = fixedpoint.fixed_point_outcomes(inst)
        best = fixedpoint.buyer_optimal(inst).outcome
        worst = fixedpoint.seller_optimal(inst).outcome
        lattice = None
        if profile == "ladlas":
            lattice = fixedpoint.terminal_lattice(inst, validate=False).to_json()
        return {
            "stable": {n: _outcome_list(v) for n, v in stable.items()},
            "engine": _outcome_list(engine),
            "buyer_optimal": _ids(best),
            "seller_optimal": _ids(worst),
            "lattice": lattice,
        }

    def check(self, item, answer):
        profile, raw, inst = item
        sets = {n: {tuple(o) for o in answer["stable"][n]} for n in NOTIONS}
        engine = {tuple(o) for o in answer["engine"]}
        if not engine or engine != sets["full_trail"]:
            return f"{profile}: fixed-point outcomes differ from brute-force full-trail set"
        chain = ("set", "full_trail", "trail", "chain")
        for stronger, weaker in zip(chain, chain[1:]):
            if not sets[stronger] <= sets[weaker]:
                return f"{profile}: {stronger}-stable outcome that is not {weaker}-stable"
        if not sets["set"] <= sets["strong_trail"]:
            return f"{profile}: set-stable outcome with a blocking strong trail"
        for n in NOTIONS:
            if not sets[n] <= sets["acceptable"]:
                return f"{profile}: {n}-stable outcome that is not acceptable"
        if profile == "separable" and sets["trail"] != sets["full_trail"]:
            return "separable: trail and full-trail sets differ"
        if profile == "simple" and sets["trail"] != sets["set"]:
            return "simple: trail and set sets differ"
        if profile == "acyclic" and not (
            sets["set"] == sets["full_trail"] == sets["trail"] == sets["chain"]
        ):
            return "acyclic: set, full-trail, trail and chain sets differ"
        best, worst = tuple(answer["buyer_optimal"]), tuple(answer["seller_optimal"])
        if best not in engine or worst not in engine:
            return f"{profile}: an optimal outcome is not a fixed-point outcome"
        if profile == "ladlas":
            return self._check_lattice(raw, inst, engine, best, worst, answer["lattice"])
        return None

    @staticmethod
    def _fixed_pairs(inst):
        """Every fixed offer pair, by a scan written from the definition: the
        next buyer side drops what sellers reject from the seller side, the
        next seller side drops what buyers reject from the buyer side."""
        ids = sorted(inst.contract_ids)
        agents = list(inst.choice.values())
        out = []
        for sides in itertools.product((0, 1, 2), repeat=len(ids)):
            buyer = frozenset(c for c, s in zip(ids, sides) if s != 1)
            seller = frozenset(c for c, s in zip(ids, sides) if s != 0)
            seller_rej, buyer_rej = set(), set()
            for cf in agents:
                sells, buys = seller & cf.downstream, buyer & cf.upstream
                kept = cf.choose(sells | buys)
                seller_rej |= sells - kept
                buyer_rej |= buys - kept
            if inst.contract_ids - seller_rej == buyer and inst.contract_ids - buyer_rej == seller:
                out.append((buyer, seller))
        return out

    def _check_lattice(self, raw, inst, engine, best, worst, lattice):
        pairs = self._fixed_pairs(inst)
        if {tuple(sorted(b & s)) for b, s in pairs} != engine:
            return "ladlas: independent fixed-point scan finds other outcomes"
        as_set = set(pairs)
        for (b1, s1), (b2, s2) in itertools.combinations(pairs, 2):
            if (b1 | b2, s1 & s2) not in as_set or (b1 & b2, s1 | s2) not in as_set:
                return "ladlas: fixed points not closed under join and meet"
        sellers, buyers = _terminal(raw)
        for outcome in engine:
            for a in sellers:
                if not (_prefers(inst.choice[a], outcome, best) and _prefers(inst.choice[a], worst, outcome)):
                    return f"ladlas: terminal seller {a} breaks optimal-outcome extremality"
            for a in buyers:
                if not (_prefers(inst.choice[a], best, outcome) and _prefers(inst.choice[a], outcome, worst)):
                    return f"ladlas: terminal buyer {a} breaks optimal-outcome extremality"
        size = len(lattice["elements"])
        if not size or len(lattice["joins"]) != size * size or len(lattice["meets"]) != size * size:
            return "ladlas: terminal lattice tables are incomplete"
        return None

    def inputs(self):
        return self.pool

    def record(self):
        sizes = [len(raw["contracts"]) for _, raw in self.pool]
        domains = [d for _, raw in self.pool for d in _domains(raw)]
        return {
            "histograms": {
                "contracts_per_instance": _histogram(sizes),
                "agent_domain": _histogram(domains),
                "profiles": _histogram(p for p, _ in self.pool),
            },
            "headroom": {
                "ENUMERATION_GUARD": ENUMERATION_GUARD - max(sizes),
                "BRUTE_GUARD": BRUTE_GUARD - max(sizes),
                "SET_GUARD": SET_GUARD - max(sizes),
                "SIZE_GUARD": SIZE_GUARD - max(domains),
            },
        }


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def _hub_instance(rng, size, quota_buyer):
    """A hub agent holding `size` contracts, buying `size // 2` of them from
    one one-sided agent and selling the rest to another.  The hub orders each
    side (separable intensity); the buyer spoke is a quota or a preference
    list, so the axiom checks meet both passing and failing agents."""
    up = size // 2
    ups = [f"u{i}" for i in range(1, up + 1)]
    downs = [f"d{i}" for i in range(1, size - up + 1)]
    up_order, down_order, sell_order = ups[:], downs[:], ups[:]
    for order in (up_order, down_order, sell_order):
        rng.shuffle(order)
    if quota_buyer:
        buyer = {"agent": "b", "type": "quota", "order": rng.sample(downs, len(downs)),
                 "quota": rng.randint(1, len(downs))}
    else:
        sets = [c for r in (1, 2) for c in itertools.combinations(downs, r)]
        buyer = {"agent": "b", "type": "preference_list",
                 "ranking": [list(s) for s in rng.sample(sets, 4)]}
    return {
        "agents": ["s", "h", "b"],
        "contracts": [{"id": c, "seller": "s", "buyer": "h"} for c in ups]
        + [{"id": c, "seller": "h", "buyer": "b"} for c in downs],
        "choice_functions": [
            {"agent": "h", "type": "separable_intensity",
             "upstream_order": up_order, "downstream_order": down_order},
            {"agent": "s", "type": "quota", "order": sell_order,
             "quota": rng.randint(1, len(ups))},
            buyer,
        ],
    }


def _rejected(cf, offered_side, side, other, other_side):
    mine = frozenset(offered_side) & side
    return mine - cf.choose(mine | (frozenset(other) & other_side))


def _replay_axiom(cf, axiom, w):
    """True when a reported witness reproduces its violation, evaluated
    straight from the axiom's definition through the choice function."""
    U, D = cf.upstream, cf.downstream
    s = {
        k: frozenset(v)
        for k, v in w.items()
        if isinstance(v, list) and k not in ("pair", "weights", "chosen_counts")
    }

    def rej_up(up, down):
        return _rejected(cf, up, U, down, D)

    def rej_down(down, up):
        return _rejected(cf, down, D, up, U)

    def chosen(avail_up, avail_down, side):
        return len(cf.choose((avail_up & U) | (avail_down & D)) & side)

    def keeps(subset, given):
        own = frozenset(subset) & cf.domain
        return own <= cf.choose(own | (frozenset(given) & cf.domain))

    def one_more(big, small):
        return small < big and len(big - small) == 1

    if axiom == "irc":
        offer, trimmed = s["offer"], s["trimmed_offer"]
        chosen_offer = cf.choose(offer)
        return (
            one_more(offer, trimmed)
            and not (offer - trimmed) & chosen_offer
            and chosen_offer != cf.choose(trimmed)
        )
    if axiom == "full_substitutability":
        x, cond = w["contract"], w["condition"]
        if cond == "same_side_upstream":
            ok = one_more(s["up"], s["up_smaller"])
            extra = rej_up(s["up_smaller"], s["down"]) - rej_up(s["up"], s["down"])
        elif cond == "cross_side_upstream":
            ok = one_more(s["down"], s["down_smaller"])
            extra = rej_up(s["up"], s["down"]) - rej_up(s["up"], s["down_smaller"])
        elif cond == "same_side_downstream":
            ok = one_more(s["down"], s["down_smaller"])
            extra = rej_down(s["down_smaller"], s["up"]) - rej_down(s["down"], s["up"])
        elif cond == "cross_side_downstream":
            ok = one_more(s["up"], s["up_smaller"])
            extra = rej_down(s["down"], s["up"]) - rej_down(s["down"], s["up_smaller"])
        else:
            return False
        return ok and x in extra
    if axiom == "lad_las":
        if w["law"] == "aggregate_demand":
            up, small, down = s["up"], s["up_smaller"], s["down"]
            nb_gain = chosen(up, down, U) - chosen(small, down, U)
            ns_gain = chosen(up, down, D) - chosen(small, down, D)
            return one_more(up, small) and nb_gain < ns_gain
        down, small, up = s["down"], s["down_smaller"], s["up"]
        ns_gain = chosen(up, down, D) - chosen(up, small, D)
        nb_gain = chosen(up, down, U) - chosen(up, small, U)
        return one_more(down, small) and ns_gain < nb_gain
    if axiom == "separability":
        given, kept = s["given"], s["kept"]
        u, d = w["pair"]
        pair_only = not keeps({u}, given) and not keeps({d}, given) and keeps({u, d}, given)
        return keeps(kept, given) and pair_only and not keeps(kept | {u, d}, given)
    if axiom == "w_contraction":
        up, up_small, down, down_big = s["up"], s["up_smaller"], s["down"], s["down_bigger"]

        def weight(big, small):
            return len(big[0] - small[0]) - (len(D) - len(small[1] - big[1]))

        lhs = weight(
            (rej_up(up, down), rej_down(down, up)),
            (rej_up(up_small, down_big), rej_down(down_big, up_small)),
        )
        rhs = weight((up, down), (up_small, down_big))
        return up_small <= up and down <= down_big and lhs > rhs
    return False


class Certify:
    """In-process `tradenet.cli.main` calls on files written at set-up:
    check-axioms on hub instances, equilibrium on certified priced economies,
    dynamics on certified entry scenarios.

    Each round holds check-axioms four times at hub size 8 and once at 9,
    then one equilibrium and one dynamics call.  The hubs of one position in
    the round share their shape (how the contracts split between the sides
    and the buyer spoke's kind), so a check-axioms call costs about what its
    position dictates: the size-8 calls hold both the median and the tail.
    Every priced economy has the same number of price contracts, for the same
    reason.
    """

    name = "certify"
    HUB_SIZES = (8, 8, 8, 8, 9)
    PRICE_GRID = 8
    ROUNDS = 5

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(f"certify:{seed}")
        os.makedirs(workdir, exist_ok=True)
        self.workdir = workdir
        self.pool = []
        for r in range(self.ROUNDS):
            for j, size in enumerate(self.HUB_SIZES):
                raw = _hub_instance(rng, size, quota_buyer=j % 2 == 0)
                path = self._write(f"hub-{r}-{j}.json", raw)
                self.pool.append(("check-axioms", [path], {"instance": raw}))
            raw = self._priced(rng)
            path = self._write(f"priced-{r}.json", raw)
            self.pool.append(("equilibrium", [path], {"priced": raw}))
            gen, event = oracle.generate_entry_scenario(rng.randrange(10**9))
            base = gen.instance.to_json()
            entry = {
                "agent": event.agent,
                "side": event.side,
                "contracts": [c.to_json() for c in event.contracts],
                "choice_functions": [event.choice.to_json()]
                + [cf.to_json() for _, cf in sorted(event.updated_choices.items())],
            }
            paths = [self._write(f"base-{r}.json", base), "--entry",
                     self._write(f"entry-{r}.json", entry)]
            self.pool.append(("dynamics", paths, {"instance": base, "entry": entry}))

    @classmethod
    def _priced(cls, rng):
        """A certified priced economy with exactly PRICE_GRID contracts (one
        per trade and price); equilibrium time about doubles per contract."""
        while True:
            try:
                raw = oracle.generate_priced_instance(
                    rng.randrange(10**9), max_grid=cls.PRICE_GRID
                ).to_json()
            except PreconditionError:
                continue
            if sum(t["price_max"] - t["price_min"] + 1 for t in raw["trades"]) == cls.PRICE_GRID:
                return raw

    def _write(self, name, raw):
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(raw, fh, sort_keys=True)
        return path

    def __len__(self):
        return len(self.pool)

    def prepare(self, i):
        return self.pool[i]

    def run(self, item):
        command, args, _ = item
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, *args])
        return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}

    def check(self, item, answer):
        command, _, raw = item
        if answer["code"] != 0:
            return f"{command}: exit {answer['code']}: {answer['stderr'].strip()[:200]}"
        payload = json.loads(answer["stdout"])
        if command == "check-axioms":
            return self._check_axioms(raw["instance"], payload)
        if command == "equilibrium":
            return self._check_equilibrium(raw["priced"], payload)
        return self._check_dynamics(raw["instance"], raw["entry"], payload)

    @staticmethod
    def _check_axioms(raw, reports):
        inst = instance_from_json(raw)
        seen = {(r["agent"], r["axiom"]) for r in reports}
        if seen != {(a, x) for a in raw["agents"] for x in AXIOMS} or len(reports) != len(seen):
            return "check-axioms: reports do not cover every agent and axiom once"
        for r in reports:
            if not r["holds"] and not _replay_axiom(inst.choice[r["agent"]], r["axiom"], r["witness"]):
                return f"check-axioms: {r['axiom']} witness for {r['agent']} does not replay"
        return None

    @staticmethod
    def _check_equilibrium(raw, payload):
        if payload["competitive_equilibrium"] is not True:
            return "equilibrium: not reported as a competitive equilibrium"
        priced = build_priced(raw)
        arrangement = payload["arrangement"]
        prices = arrangement["prices"]
        if set(prices) != set(priced.trade_ids):
            return "equilibrium: arrangement does not price every trade"
        realized = {contract_id(t, prices[t]) for t in arrangement["realized"]}
        if realized != set(payload["outcome"]):
            return "equilibrium: outcome differs from the realized arrangement"
        menu = frozenset(contract_id(t, p) for t, p in prices.items())
        for cf in priced.instance.choice.values():
            if cf.choose(menu & cf.domain) != realized & cf.domain:
                return f"equilibrium: firm {cf.agent} does not re-choose its realized trades"
        return None

    @staticmethod
    def _check_dynamics(base, entry, payload):
        statics = payload["entry_statics"]
        if statics["directions_hold"] is not True:
            return "dynamics: entry-statics directions reported as failing"
        replaced = {d["agent"]: d for d in entry["choice_functions"]}
        extended = {
            "agents": base["agents"] + [entry["agent"]],
            "contracts": base["contracts"] + entry["contracts"],
            "choice_functions": [replaced.get(d["agent"], d) for d in base["choice_functions"]]
            + [replaced[entry["agent"]]],
        }
        inst = instance_from_json(extended)
        sellers, buyers = _terminal(extended)
        entrant_sells = entry["side"] == "terminal_seller"
        for agent in sorted((sellers | buyers) - {entry["agent"]}):
            gains = (agent in sellers) != entrant_sells
            for kind in ("buyer_optimal", "seller_optimal"):
                old, new = statics["before"][kind], statics["after"][kind]
                cf = inst.choice[agent]
                ok = _prefers(cf, new, old) if gains else _prefers(cf, old, new)
                if not ok or statics["agent_verdicts"][agent][kind] is not True:
                    return f"dynamics: {agent} moves against the predicted direction ({kind})"
        return None

    def inputs(self):
        return [(command, raw) for command, _, raw in self.pool]

    def record(self):
        hubs = [raw["instance"] for c, _, raw in self.pool if c == "check-axioms"]
        domains = [d for raw in hubs for d in _domains(raw)]
        grids = [
            sum(t["price_max"] - t["price_min"] + 1 for t in raw["priced"]["trades"])
            for c, _, raw in self.pool
            if c == "equilibrium"
        ]
        bases = [raw["instance"] for c, _, raw in self.pool if c == "dynamics"]
        return {
            "histograms": {
                "hub_contracts": _histogram(len(raw["contracts"]) for raw in hubs),
                "agent_domain": _histogram(domains),
                "priced_grid_contracts": _histogram(grids),
                "entry_base_contracts": _histogram(len(raw["contracts"]) for raw in bases),
            },
            "headroom": {"SIZE_GUARD": SIZE_GUARD - max(domains)},
        }


WORKLOADS = {w.name: w for w in (GadgetSweep, Census, Certify)}


POOL_FILE = "pool.json"


def save(workload, workdir: str) -> None:
    """Write the workload's query pool into its work directory."""
    os.makedirs(workdir, exist_ok=True)
    with open(os.path.join(workdir, POOL_FILE), "w", encoding="utf-8") as fh:
        json.dump(workload.pool, fh)


def load(name: str, workdir: str):
    """The workload whose pool `save` wrote into `workdir`, without building
    it again (Certify's instance files stay where the set-up wrote them)."""
    cls = WORKLOADS[name]
    workload = cls.__new__(cls)
    with open(os.path.join(workdir, POOL_FILE), encoding="utf-8") as fh:
        workload.pool = [tuple(item) for item in json.load(fh)]
    workload.workdir = workdir
    return workload


def inputs_digest(workload) -> str:
    return _digest(workload.inputs())
