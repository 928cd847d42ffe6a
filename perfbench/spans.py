"""Span tracing of tradenet's public functions, from outside the library.

`Tracer.install()` replaces each function in TARGETS with a wrapper that
opens a span (name, start, end, parent) around the call.  A module that
imported a name directly (`from .choices import is_rational`) holds its own
reference, so every loaded `tradenet` module, and every dict in a module's
globals (dispatch tables such as `stability._CHECKERS`), is patched too.
`uninstall()` puts the originals back.

A span's self time is its duration minus the durations of its direct child
spans, computed when the span closes.  Spans of the per-menu and per-candidate
calls (HOT below) run millions of times per run, so they are folded into
per-name totals at close instead of being stored; their time still counts as
child time of the enclosing span.  Every other span is kept in memory and
written out by `dump()`.

Tracing makes the library about four times slower, and the bookkeeping lands
in the self time of whichever span is open around it.  `calibrate()` measures
that bookkeeping per wrapped call and `corrected_self_s()` takes it out, so
the per-layer self times describe the untraced program.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from collections import Counter, defaultdict

# module -> public functions and methods ("Class.method") that get a span
TARGETS = {
    "choices": (
        "ChoiceFunction.choose",
        "ChoiceFunction.chosen_upstream",
        "ChoiceFunction.chosen_downstream",
        "ChoiceFunction.rejected_upstream",
        "ChoiceFunction.rejected_downstream",
        "is_rational",
        "is_individually_rational",
        "is_rational_pair",
        "build_family",
    ),
    "network": (
        "ContractNetwork.agents_of",
        "ContractNetwork.terminal_partition",
        "ContractNetwork.is_acyclic",
        "ContractNetwork.restricted_to",
        "validate_network",
    ),
    "instances": (
        "Instance.rejected_by_buyers",
        "Instance.rejected_by_sellers",
        "instance_from_json",
    ),
    "stability": (
        "is_acceptable",
        "find_blocking_trail",
        "find_locally_blocking_trail",
        "find_blocking_chain",
        "find_blocking_set",
        "find_blocking_strong_trail",
        "check_notion",
        "classify",
    ),
    "fixedpoint": (
        "respond",
        "iterate_from",
        "buyer_optimal",
        "seller_optimal",
        "enumerate_fixed_points",
        "fixed_point_outcomes",
        "canonical_pair",
        "compare_terminal_superiority",
        "terminal_lattice",
    ),
    "axioms": (
        "check_irc",
        "check_full_substitutability",
        "check_lad_las",
        "check_separability",
        "check_simplicity",
        "check_w_contraction",
        "check_agent",
        "check_instance",
    ),
    "equilibrium": (
        "build_priced",
        "check_feasibility",
        "check_cp",
        "check_pm",
        "check_priced_axioms",
        "price_adjustment",
        "complete_prices",
        "verify_competitive_equilibrium",
    ),
    "dynamics": (
        "apply_entry",
        "apply_exit",
        "prefers",
        "entry_comparative_statics",
        "market_readjustment",
        "rural_hospitals_check",
    ),
    "oracle": (
        "brute_force_stable",
        "solve_partition",
        "partition_to_gs",
        "gadget_not_set_stable",
        "needle_family",
        "generate_instance",
        "generate_entry_scenario",
        "generate_priced_instance",
    ),
    "cli": ("main",),
}

HOT = frozenset(
    {
        "choices.choose",
        "choices.chosen_upstream",
        "choices.chosen_downstream",
        "choices.rejected_upstream",
        "choices.rejected_downstream",
        "choices.is_rational",
        "choices.is_individually_rational",
        "choices.is_rational_pair",
        "network.agents_of",
        "instances.rejected_by_buyers",
        "instances.rejected_by_sellers",
        "fixedpoint.respond",
    }
)

NOTION_OF = {
    "stability.is_acceptable": "acceptable",
    "stability.find_blocking_trail": "trail",
    "stability.find_locally_blocking_trail": "full_trail",
    "stability.find_blocking_chain": "chain",
    "stability.find_blocking_set": "set",
    "stability.find_blocking_strong_trail": "strong_trail",
}
AXIOMS = ("irc", "full_substitutability", "lad_las", "separability", "w_contraction")
GENERATORS = (
    "oracle.generate_instance",
    "oracle.generate_entry_scenario",
    "oracle.generate_priced_instance",
)
CERTIFY_CHECKS = ("axioms.check_instance", "equilibrium.check_priced_axioms")
CERTIFY_PRICED = ("check_priced_axioms", "check_feasibility", "check_cp", "check_pm")


class Tracer:
    def __init__(self):
        self.enabled = False
        self.inner = self.outer = self.outer_choose = 0.0  # set by calibrate()
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.under: Counter = Counter()  # (name, parent name) -> calls
        self.choose_misses = 0
        self.fixed_points_found = 0
        self.price_rounds = 0
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        # open spans: [name, start, child time, stored span index]
        self._stack: list[list] = [["", 0.0, 0.0, -1]]

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> None:
        stack = self._stack
        self.calls[name] += 1
        self.under[(name, stack[-1][0])] += 1
        index = -1
        if name not in HOT:
            index = len(self.span_start)
            name_id = self._name_ids.get(name)
            if name_id is None:
                name_id = self._name_ids[name] = len(self.names)
                self.names.append(name)
            self.span_name.append(name_id)
            self.span_parent.append(self._nearest_stored())
            self.span_end.append(0.0)
        start = time.perf_counter()
        if index >= 0:
            self.span_start.append(start)
        stack.append([name, start, 0.0, index])

    def close(self) -> None:
        end = time.perf_counter()
        name, start, child, index = self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - child
        self._stack[-1][2] += duration
        if index >= 0:
            self.span_end[index] = end

    def calibrate(self, n: int = 10000, repeats: int = 9) -> None:
        """Measure the tracer's own cost per wrapped call on empty functions:
        `inner` is what a span around an empty call measures, `outer` what
        the wrapped call costs its caller beyond that span and beyond a plain
        call.  Each is the minimum over `repeats` loops, which filters out
        time lost to other processes."""

        class Menu:
            query_count = 0

        def empty(*_):
            return None

        self.enabled = True
        costs = {}
        for name in ("choices.is_rational", "choices.choose"):
            wrapped = self._wrap(name, empty)
            plain, total, inside = [], [], []
            menu = Menu()
            for _ in range(repeats):
                start = time.perf_counter()
                for _ in range(n):
                    empty(menu, menu, menu)
                plain.append(time.perf_counter() - start)
                self.open("calibrate")
                start = time.perf_counter()
                for _ in range(n):
                    wrapped(menu, menu, menu)
                total.append(time.perf_counter() - start)
                inside.append(self._stack[-1][2])
                self.close()
            costs[name] = (min(inside) / n, (min(total) - min(inside) - min(plain)) / n)
        self.enabled = False
        self.reset()
        self.inner, self.outer = costs["choices.is_rational"]
        self.outer_choose = costs["choices.choose"][1]

    def corrected_self_s(self, untraced_s: float | None = None) -> dict[str, float]:
        """Self time per span name with the tracing cost taken out.

        A span's raw self time holds `inner` once and `outer` once per child
        span, the bookkeeping around its children.  Given the untraced time
        of the same queries, those calibrated costs are scaled together so
        that the self times add up to it; without it they are used as
        measured."""
        cost: Counter = Counter()
        for (child, parent), calls in self.under.items():
            cost[child] += self.inner * calls
            cost[parent] += (self.outer_choose if child == "choices.choose" else self.outer) * calls
        scale = 1.0
        removable = sum(c for name, c in cost.items() if name in self.self_s)
        if untraced_s is not None and removable:
            excess = sum(self.self_s.values()) - untraced_s
            scale = max(excess, 0.0) / removable
        return {name: s - scale * cost[name] for name, s in self.self_s.items()}

    def _nearest_stored(self) -> int:
        for frame in reversed(self._stack):
            if frame[3] >= 0:
                return frame[3]
        return -1

    # -- patching ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        if name == "choices.choose":

            def wrapper(cf, *args, **kwargs):
                if not tracer.enabled:
                    return fn(cf, *args, **kwargs)
                before = cf.query_count
                tracer.open(name)
                try:
                    return fn(cf, *args, **kwargs)
                finally:
                    tracer.close()
                    if cf.query_count != before:
                        tracer.choose_misses += 1

        else:
            on_result = _RESULT_HOOKS.get(name)

            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                tracer.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close()
                if on_result is not None:
                    on_result(tracer, result)
                return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        if self._patches:
            return
        wrappers: dict[int, object] = {}
        for module_name, targets in TARGETS.items():
            module = importlib.import_module(f"tradenet.{module_name}")
            for target in targets:
                owner_name, _, attr = target.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = owner.__dict__[attr]
                wrapper = self._wrap(f"{module_name}.{attr}", original)
                wrappers[id(original)] = (original, wrapper)
                self._patch(owner, attr, wrapper)
        # copies held by other modules and by module-level dispatch tables
        for mod_name, module in sorted(sys.modules.items()):
            if mod_name != "tradenet" and not mod_name.startswith("tradenet."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        hit = wrappers.get(id(item))
                        if hit is not None and hit[0] is item:
                            self._patch(value, key, hit[1])

    def _patch(self, owner, attr, wrapper) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = wrapper
        else:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    @staticmethod
    def module_self_s(self_s: dict[str, float]) -> dict[str, float]:
        out: defaultdict = defaultdict(float)
        for name, seconds in self_s.items():
            if name and not name.startswith("bench."):
                out[name.split(".", 1)[0]] += seconds
        return dict(out)

    def dump(self, path: str) -> None:
        """Write the stored spans: a JSON header line with the name table, then
        one `name_id start end parent` line per span (parent -1 at the root)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "spans": len(self.span_start)}) + "\n")
            for row in zip(self.span_name, self.span_start, self.span_end, self.span_parent):
                fh.write("%d %.9f %.9f %d\n" % row)


def _count_fixed_points(tracer: Tracer, result) -> None:
    tracer.fixed_points_found += len(result)


def _count_price_rounds(tracer: Tracer, result) -> None:
    tracer.price_rounds += len(result[1].rounds)


_RESULT_HOOKS = {
    "fixedpoint.enumerate_fixed_points": _count_fixed_points,
    "equilibrium.price_adjustment": _count_price_rounds,
}


def layer_metrics(
    query: Tracer, setup: Tracer, queries: int, untraced_s: float
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced query phase, per query; the generator
    metrics come from the traced set-up phase instead.  `untraced_s` is the
    untraced time of the same queries."""
    n = max(queries, 1)
    calls, under = query.calls, query.under
    self_s = query.corrected_self_s(untraced_s)
    module_s = Tracer.module_self_s(self_s)
    setup_self_s = setup.corrected_self_s()

    def per_query(value, unit):
        return (value / n, unit)

    def under_any(name, parents):
        return sum(c for (child, parent), c in under.items() if child == name and parent in parents)

    out: dict[str, tuple[float, str]] = {}
    choose = calls["choices.choose"]
    out["choices.choose_calls"] = per_query(choose, "calls/query")
    out["choices.menus_evaluated"] = per_query(query.choose_misses, "menus/query")
    out["choices.cache_hit_rate"] = (
        (choose - query.choose_misses) / choose if choose else 0.0,
        "ratio",
    )
    out["network.agents_of_calls"] = per_query(calls["network.agents_of"], "calls/query")
    out["instances.reject_calls"] = per_query(
        calls["instances.rejected_by_buyers"] + calls["instances.rejected_by_sellers"],
        "calls/query",
    )
    for name, notion in NOTION_OF.items():
        out[f"stability.{notion}.calls"] = per_query(calls[name], "calls/query")
        out[f"stability.{notion}.self_s"] = per_query(self_s.get(name, 0.0), "s/query")
    out["stability.set.candidates"] = per_query(
        under[("network.agents_of", "stability.find_blocking_set")], "subsets/query"
    )
    stability_spans = set(NOTION_OF) | {"stability.check_notion", "stability.classify"}
    out["stability.rational_checks"] = per_query(
        under_any("choices.is_rational", stability_spans), "calls/query"
    )
    out["fixedpoint.respond_calls"] = per_query(calls["fixedpoint.respond"], "calls/query")
    scanned = under[("fixedpoint.respond", "fixedpoint.enumerate_fixed_points")]
    out["fixedpoint.scan_yield"] = (
        query.fixed_points_found / scanned if scanned else 0.0,
        "ratio",
    )
    out["fixedpoint.iterate_rounds"] = per_query(
        under[("fixedpoint.respond", "fixedpoint.iterate_from")], "rounds/query"
    )
    out["fixedpoint.lattice_self_s"] = per_query(
        self_s.get("fixedpoint.terminal_lattice", 0.0), "s/query"
    )
    for axiom in AXIOMS:
        name = f"axioms.check_{axiom}"
        out[f"axioms.{axiom}.calls"] = per_query(calls[name], "calls/query")
        out[f"axioms.{axiom}.self_s"] = per_query(self_s.get(name, 0.0), "s/query")
    out["equilibrium.validate_self_s"] = per_query(
        sum(
            self_s.get(f"equilibrium.{f}", 0.0)
            for f in CERTIFY_PRICED
        ),
        "s/query",
    )
    out["equilibrium.adjust_self_s"] = per_query(
        self_s.get("equilibrium.price_adjustment", 0.0), "s/query"
    )
    out["equilibrium.price_rounds"] = per_query(query.price_rounds, "rounds/query")
    out["dynamics.entry_self_s"] = per_query(self_s.get("dynamics.apply_entry", 0.0), "s/query")
    out["dynamics.statics_self_s"] = per_query(
        self_s.get("dynamics.entry_comparative_statics", 0.0), "s/query"
    )
    out["oracle.gadget_build_self_s"] = per_query(
        self_s.get("oracle.partition_to_gs", 0.0), "s/query"
    )
    out["oracle.brute_self_s"] = per_query(
        self_s.get("oracle.brute_force_stable", 0.0), "s/query"
    )
    accepted = sum(setup.calls[g] for g in GENERATORS)
    attempts = sum(setup.under[(c, g)] for c in CERTIFY_CHECKS for g in GENERATORS)
    out["oracle.generate_self_s"] = (sum(setup_self_s.get(g, 0.0) for g in GENERATORS), "s")
    out["oracle.certify_attempts"] = (attempts / accepted if accepted else 0.0, "ratio")
    out["oracle.certify_self_s"] = (
        sum(s for name, s in setup_self_s.items() if name.startswith("axioms."))
        + sum(setup_self_s.get(f"equilibrium.{f}", 0.0) for f in CERTIFY_PRICED),
        "s",
    )
    out["cli.calls"] = per_query(calls["cli.main"], "calls/query")
    for module in TARGETS:
        out[f"{module}.self_s"] = per_query(module_s.get(module, 0.0), "s/query")
    return out
