"""Command-line entry point.

All subcommands read instance files and emit deterministic JSON on stdout
(sorted keys, sorted contract lists), so identical inputs give byte-identical
output.  Exit codes: 0 success (an unstable verdict with a witness is a
successful answer), 1 domain errors (guards, axiom diagnoses, unmet
preconditions), 2 input errors (bad files, bad flags).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import axioms, dynamics, equilibrium, fixedpoint, oracle, stability
from .choices import NeedleChoiceF
from .errors import ChoiceFunctionError, InstanceFormatError, NetworkValidationError, TradenetError
from .instances import Instance, build_choices, load_instance, read_json, write_examples, write_json
from .network import Contract, sorted_ids, validate_network


def _emit(payload, human: bool) -> None:
    if human:
        _render_human(payload)
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))


def _render_human(payload, indent: int = 0) -> None:
    pad = "  " * indent
    if isinstance(payload, dict):
        for key in sorted(payload):
            value = payload[key]
            if isinstance(value, (dict, list)):
                print(f"{pad}{key}:")
                _render_human(value, indent + 1)
            else:
                print(f"{pad}{key}: {value}")
    elif isinstance(payload, list):
        for value in payload:
            if isinstance(value, (dict, list)):
                _render_human(value, indent + 1)
                print()
            else:
                print(f"{pad}- {value}")
    else:
        print(f"{pad}{payload}")


def _parse_outcome(text: str, inst: Instance, flag: str) -> frozenset[str]:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"{flag} must be a JSON list: {exc}") from exc
    if not isinstance(data, list) or not all(isinstance(x, str) for x in data):
        raise InstanceFormatError(f"{flag} must be a JSON list of contract ids")
    unknown = frozenset(data) - inst.contract_ids
    if unknown:
        raise InstanceFormatError(f"outcome uses unknown contracts: {sorted(unknown)}")
    return frozenset(data)


def _cmd_validate(args) -> dict:
    try:
        inst = load_instance(args.instance)
    except NetworkValidationError as exc:
        return {"valid": False, "issues": exc.issues}
    part = inst.network.terminal_partition()
    return {
        "valid": True,
        "agents": sorted(inst.network.agents),
        "contracts": sorted_ids(inst.network.contract_ids),
        "acyclic": inst.network.is_acyclic(),
        "terminal_sellers": sorted(part.terminal_sellers),
        "terminal_buyers": sorted(part.terminal_buyers),
    }


def _cmd_check_axioms(args) -> list:
    inst = load_instance(args.instance)
    names = [args.axiom] if args.axiom else None
    agents = [args.agent] if args.agent else None
    if args.agent and args.agent not in inst.network.agents:
        raise InstanceFormatError(f"--agent: unknown agent {args.agent!r}")
    reports = axioms.check_instance(inst, names, agents)
    return [r.to_json() for r in reports]


def _cmd_solve(args) -> dict:
    inst = load_instance(args.instance)
    run = fixedpoint.buyer_optimal(inst) if args.side == "buyer" else fixedpoint.seller_optimal(inst)
    return run.to_json(include_trace=args.trace)


def _cmd_enumerate(args) -> dict:
    inst = load_instance(args.instance)
    return {
        "fixed_points": [r.to_json() for r in fixedpoint.enumerate_fixed_points(inst)],
        "outcomes": [sorted_ids(o) for o in fixedpoint.fixed_point_outcomes(inst)],
    }


def _cmd_check(args) -> dict:
    inst = load_instance(args.instance)
    outcome = _parse_outcome(args.outcome, inst, "--outcome")
    notion = args.notion.replace("-", "_")
    if notion == "all":
        verdicts = stability.classify(inst, outcome)
        out = {name: v.to_json() for name, v in verdicts.items()}
    else:
        out = {notion: stability.check_notion(inst, outcome, notion).to_json()}
    if args.quiet:
        for v in out.values():
            v["witness"] = None
    return out


def _cmd_equilibrium(args) -> dict:
    priced = equilibrium.build_priced(read_json(args.instance, "priced instance"))
    outcome, trace = equilibrium.price_adjustment(priced, perspective=args.perspective)
    arrangement = equilibrium.complete_prices(priced, outcome, trace)
    if args.trace_out:
        write_json(args.trace_out, trace.to_json())
    return {
        "outcome": sorted_ids(outcome),
        "arrangement": arrangement.to_json(),
        "competitive_equilibrium": equilibrium.verify_competitive_equilibrium(
            priced, arrangement
        ),
        "rounds": len(trace.rounds),
    }


def _load_entry(inst: Instance, path) -> dynamics.EntryEvent:
    raw = read_json(path, "entry file")
    required = {"agent", "side", "contracts", "choice_functions"}
    if not isinstance(raw, dict) or set(raw) != required:
        raise InstanceFormatError(f"entry file needs exactly fields {sorted(required)}")
    if not all(isinstance(raw[k], list) for k in ("contracts", "choice_functions")):
        raise InstanceFormatError("entry file 'contracts' and 'choice_functions' must be lists")
    if raw["side"] not in ("terminal_seller", "terminal_buyer"):
        raise InstanceFormatError("entry file 'side' must be terminal_seller or terminal_buyer")
    trial = {
        "agents": list(inst.network.agents) + [raw["agent"]],
        "contracts": [c.to_json() for c in inst.network.contracts] + raw["contracts"],
    }
    updated = build_choices(validate_network(trial), raw["choice_functions"], "entry file: ")
    entrant_cf = updated.pop(raw["agent"], None)
    if entrant_cf is None:
        raise InstanceFormatError("entry file lacks a choice function for the entrant")
    contracts = tuple(
        Contract(c["id"], c["seller"], c["buyer"], c.get("label"))
        for c in raw["contracts"]
    )
    return dynamics.EntryEvent(raw["agent"], raw["side"], contracts, entrant_cf, updated)


def _cmd_dynamics(args) -> dict:
    inst = load_instance(args.instance)
    event = _load_entry(inst, args.entry)
    readjust = args.readjust_from is not None
    outcome = _parse_outcome(args.readjust_from, inst, "--readjust-from") if readjust else None
    report = dynamics.entry_comparative_statics(inst, event)
    out = {"entry_statics": report.to_json()}
    if readjust:
        pair = fixedpoint.canonical_pair(inst, outcome)
        readj = dynamics.market_readjustment(inst, pair, event)
        out["readjustment"] = readj.result.to_json()
    return out


def _cmd_oracle(args) -> dict:
    if args.oracle_cmd == "brute":
        inst = load_instance(args.instance)
        notion = args.notion.replace("-", "_")
        outcomes = oracle.brute_force_stable(inst, notion)
        return {"notion": notion, "stable_outcomes": [sorted_ids(o) for o in outcomes]}
    if args.oracle_cmd == "partition":
        try:
            weights = tuple(sorted(int(w) for w in args.weights.split(",")))
            # all k + 1 contracts are fresh against the empty outcome: refuse
            # before solving or building
            stability.check_set_guard(len(weights) + 1)
            solvable = oracle.solve_partition(weights)
        except ValueError as exc:
            raise InstanceFormatError(f"--weights: {exc}") from exc
        gadget = oracle.partition_to_gs(weights)
        verdict = stability.find_blocking_set(gadget.instance, gadget.outcome)
        return {
            "weights": list(weights),
            "half_integral_threshold": gadget.half_integral,
            "partition_solvable": solvable,
            "empty_outcome_blocked": not verdict.stable,
        }
    if args.oracle_cmd == "needle":
        hidden = None
        try:
            if args.hidden is not None:
                hidden = [int(i) for i in args.hidden.split(",")] if args.hidden else []
            NeedleChoiceF.checked_hidden(args.n, hidden)
            # all 2n + 1 contracts are fresh against the empty outcome: refuse before building
            stability.check_set_guard(2 * args.n + 1)
            inst = oracle.needle_family(args.n, hidden)
        except (ChoiceFunctionError, ValueError) as exc:
            raise InstanceFormatError(f"needle: {exc}") from exc
        verdict = stability.find_blocking_set(inst, frozenset())
        return {
            "n": args.n,
            "hidden": sorted(hidden) if hidden else None,
            "empty_outcome_set_stable": verdict.stable,
            "witness": verdict.witness.to_json() if verdict.witness else None,
            "oracle_queries": {
                agent: inst.choice[agent].query_count
                for agent in sorted(inst.network.agents)
            },
        }
    gen = oracle.generate_instance(args.seed, args.profile)  # "gen": argparse allows no other
    return {
        "seed": gen.seed,
        "profile": gen.profile,
        "certificates": list(gen.certificates),
        "instance": gen.instance.to_json(),
    }


def _cmd_examples(args) -> dict:
    written = write_examples(args.out)
    return {"written": written}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tradenet",
        description="Stability and equilibrium analysis for contract networks.",
    )
    parser.add_argument("--human", action="store_true", help="indented text instead of JSON")
    sub = parser.add_subparsers(dest="command")
    notions = tuple(n.replace("_", "-") for n in stability.NOTIONS)

    p = sub.add_parser("validate", help="validate an instance file")
    p.add_argument("instance")

    p = sub.add_parser("check-axioms", help="run axiom validators")
    p.add_argument("instance")
    p.add_argument("--agent")
    p.add_argument("--axiom", choices=axioms.AXIOM_NAMES)

    p = sub.add_parser("solve", help="iterate to an optimal fixed point")
    p.add_argument("instance")
    p.add_argument("--side", choices=("buyer", "seller"), default="buyer")
    p.add_argument("--trace", action="store_true")

    p = sub.add_parser("enumerate", help="all fixed points and their outcomes")
    p.add_argument("instance")

    p = sub.add_parser("check", help="stability verdicts for an outcome")
    p.add_argument("instance")
    p.add_argument("--outcome", required=True)
    p.add_argument("--notion", default="all", choices=("all", *notions))
    p.add_argument("--quiet", action="store_true", help="suppress witnesses")

    p = sub.add_parser("equilibrium", help="price adjustment plus completion")
    p.add_argument("instance")
    p.add_argument("--perspective", choices=("buyer", "seller"), default="buyer")
    p.add_argument("--trace", dest="trace_out", metavar="FILE")

    p = sub.add_parser("dynamics", help="terminal-agent entry statics")
    p.add_argument("instance")
    p.add_argument("--entry", required=True)
    p.add_argument("--readjust-from", dest="readjust_from", metavar="OUTCOME")

    p = sub.add_parser("oracle", help="brute-force ground truth and gadgets")
    osub = p.add_subparsers(dest="oracle_cmd")
    q = osub.add_parser("brute")
    q.add_argument("instance")
    q.add_argument("--notion", required=True, choices=notions)
    q = osub.add_parser("partition")
    q.add_argument("--weights", required=True, help="comma-separated positive integers")
    q = osub.add_parser("needle")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--hidden", help="comma-separated indices of size n")
    q = osub.add_parser("gen")
    q.add_argument("--seed", type=int, required=True)
    q.add_argument("--profile", choices=oracle.PROFILES, default="fsirc")

    p = sub.add_parser("examples", help="write the bundled instance files")
    p.add_argument("--out", default="examples-out")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every `main` call in the
    process: parsing reads it and never changes it."""
    return build_parser()


_COMMANDS = {
    "validate": _cmd_validate,
    "check-axioms": _cmd_check_axioms,
    "solve": _cmd_solve,
    "enumerate": _cmd_enumerate,
    "check": _cmd_check,
    "equilibrium": _cmd_equilibrium,
    "dynamics": _cmd_dynamics,
    "oracle": _cmd_oracle,
    "examples": _cmd_examples,
}


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    if args.command == "oracle" and not getattr(args, "oracle_cmd", None):
        parser.print_usage(sys.stderr)
        return 2
    try:
        payload = _COMMANDS[args.command](args)
    except InstanceFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except TradenetError as exc:
        payload, code = {"error": {"kind": type(exc).__name__, "message": str(exc)}}, 1
    else:
        code = 2 if isinstance(payload, dict) and payload.get("valid") is False else 0
    try:
        _emit(payload, args.human)
    except BrokenPipeError:
        # the reader left early (`| head`): drop the rest so the exit flush cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
