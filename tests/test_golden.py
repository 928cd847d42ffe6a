"""Golden digests of the CLI's output.

The sha256 of what `tradenet` prints (exit code, stdout and any trace file)
on the bundled instances, on a few seeded priced economies, for
`check-axioms` and `oracle brute` on seeded generated instances of every
profile, and for `dynamics` on seeded entry scenarios.  A refactor must
leave these bytes alone; a deliberate output change updates a digest here
and says why in CHANGES.md.  The digests must not depend on the hash seed.
"""

from __future__ import annotations

import hashlib
import json

from tradenet.cli import main
from tradenet.instances import BUNDLED, bundled_instance, write_examples
from tradenet.network import sorted_ids, subsets
from tradenet.fixedpoint import fixed_point_outcomes
from tradenet.oracle import (
    PROFILES,
    generate_entry_scenario,
    generate_instance,
    generate_priced_instance,
)

BUNDLED_DIGEST = "9bd61734e192e5de53ce5332d0b4c2f1d098c5d462d83f32012c672d79327db8"
EQUILIBRIUM_DIGEST = "31e8a019384b46b3fe6027e307372f41496530809c15acecef511ed1a717b53b"
CHECK_AXIOMS_DIGEST = "f9cf83342d347976c6bbf9316323d02636640235525c4de0b4f1e690469e4adb"
ORACLE_BRUTE_DIGEST = "5f86a2435d487252154311791ff5db3f94c366e95ee6ef9abb58a64de4abc79e"
DYNAMICS_DIGEST = "d4ef8868bf77b701bfe18a7775eb73a0aaab5ed8535cd735e1cb42aa92a0d400"
CLI_NOTIONS = ("acceptable", "trail", "full-trail", "chain", "set", "strong-trail")


def _run(capsys, digest, argv, extra_file=None):
    code = main(argv)
    digest.update(f"{code}\n{capsys.readouterr().out}".encode())
    if extra_file is not None:
        digest.update(extra_file.read_bytes())


def test_bundled_cli_output_is_unchanged(capsys, tmp_path):
    digest = hashlib.sha256()
    for name, path in zip(BUNDLED, write_examples(tmp_path)):
        _run(capsys, digest, ["enumerate", path])
        for side in ("buyer", "seller"):
            _run(capsys, digest, ["solve", path, "--side", side, "--trace"])
        for outcome in subsets(bundled_instance(name).contract_ids):
            outcome_arg = json.dumps(sorted_ids(outcome))
            _run(capsys, digest, ["check", path, "--outcome", outcome_arg, "--notion", "all"])
    assert digest.hexdigest() == BUNDLED_DIGEST


def test_equilibrium_cli_output_is_unchanged(capsys, tmp_path):
    digest = hashlib.sha256()
    for seed in range(6):
        path = tmp_path / f"priced{seed}.json"
        path.write_text(json.dumps(generate_priced_instance(seed).to_json()))
        for perspective in ("buyer", "seller"):
            trace = tmp_path / f"trace{seed}{perspective}.json"
            argv = ["equilibrium", str(path), "--perspective", perspective, "--trace", str(trace)]
            _run(capsys, digest, argv, trace)
    assert digest.hexdigest() == EQUILIBRIUM_DIGEST


def _bundled_and_generated(tmp_path) -> list[str]:
    """The bundled files, then `generate_instance` seeds 0-9 of every profile."""
    paths = write_examples(tmp_path)
    for profile in PROFILES:
        for seed in range(10):
            path = tmp_path / f"{profile}{seed}.json"
            path.write_text(json.dumps(generate_instance(seed, profile).instance.to_json()))
            paths.append(str(path))
    return paths


def test_check_axioms_cli_output_is_unchanged(capsys, tmp_path):
    digest = hashlib.sha256()
    for path in _bundled_and_generated(tmp_path):
        _run(capsys, digest, ["check-axioms", path])
    assert digest.hexdigest() == CHECK_AXIOMS_DIGEST


def test_oracle_brute_cli_output_is_unchanged(capsys, tmp_path):
    digest = hashlib.sha256()
    for path in _bundled_and_generated(tmp_path):
        for notion in CLI_NOTIONS:
            _run(capsys, digest, ["oracle", "brute", path, "--notion", notion])
    assert digest.hexdigest() == ORACLE_BRUTE_DIGEST


def test_dynamics_cli_output_is_unchanged(capsys, tmp_path):
    # entry statics alone, then readjustment from each fixed-point outcome,
    # the CLI's way into `canonical_pair`
    digest = hashlib.sha256()
    for seed in range(10):
        gen, event = generate_entry_scenario(seed)
        base = tmp_path / f"base{seed}.json"
        base.write_text(json.dumps(gen.instance.to_json()))
        entry = tmp_path / f"entry{seed}.json"
        entry.write_text(
            json.dumps(
                {
                    "agent": event.agent,
                    "side": event.side,
                    "contracts": [c.to_json() for c in event.contracts],
                    "choice_functions": [event.choice.to_json()]
                    + [cf.to_json() for _, cf in sorted(event.updated_choices.items())],
                }
            )
        )
        argv = ["dynamics", str(base), "--entry", str(entry)]
        _run(capsys, digest, argv)
        for outcome in fixed_point_outcomes(gen.instance):
            _run(capsys, digest, argv + ["--readjust-from", json.dumps(sorted_ids(outcome))])
    assert digest.hexdigest() == DYNAMICS_DIGEST
