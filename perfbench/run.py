"""tradenet benchmark: three seeded workloads through the public API.

    python3 perfbench/run.py --workload {gadget_sweep,census,certify} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from its `src/`.
The load is a closed loop: one caller in one thread sends the next query when
the previous one returns.  A check pass runs every query of the workload's
pool once and checks each answer against a reference outside the query's
span; then passes over the same queries repeat until `--seconds` have gone by,
and each repeated answer must equal the checked one.

`--trace 0` prints the end-to-end metrics.  Times are reported at the speed of
an uncontended core (see `measure`): each query run is timed against a fixed
reference task run right before and after it, and a query's latency is the
median ratio over its runs times REFERENCE_S, the reference task's own time
on an uncontended core.
queries_per_s is the number of queries in the pool over the sum of their
latencies, latency_p50_ms their median, latency_tail_ms the highest
percentile with at least ten queries beyond it, setup_s the median of five
set-ups, each in a fresh `--setup-into` process from the start of the script
to the end of input generation, rescaled the same way, and peak_rss_mb that of
the process that serves the queries (it loads the pool the set-ups saved).
The raw best and median times are kept in the run record.

`--trace 1` runs the check pass, then an untraced and a traced pass over the
same queries in turn while a pair still fits in `--seconds`, with every public
tradenet function wrapped in a span (tracing makes them about four times
slower), and prints the per-layer metrics of perfbench/spans.py plus the
tracing overhead, all from raw times.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  A run record (run environment, input-size histograms, guard
headroom, digests) and the stored spans go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUPS = 5
REFERENCE_LOOPS = 300
# The reference task's time on an uncontended core of an Intel Xeon KVM guest
# (Python 3.11); reported times are in units of it, converted to seconds.
REFERENCE_S = 170e-6
SETUP_REFERENCES = 25  # reference runs on each side of a set-up
TAIL_BEYOND = 10


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("gadget_sweep", "census", "certify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-into", metavar="DIR",
                        help="build the inputs into DIR, save the query pool there, "
                             "print the set-up time and exit")
    return parser.parse_args(argv)


def build(workloads, name, seed, workdir=None):
    """Set up one workload in a work directory (a private one by default);
    returns the workload and the set-up time counted from the start of this
    script."""
    workdir = workdir or os.path.join(OUT, f"work-{os.getpid()}")
    wl = workloads.WORKLOADS[name](seed, workdir)
    return wl, time.perf_counter() - _STARTED, workdir


def reference() -> float:
    """Time a fixed pure-Python task that does not touch tradenet: small
    frozensets intersected and looked up in a dict, the kind of work the
    library's choice functions do.  Its time tracks the host's speed."""
    base = frozenset(range(8))
    seen = {}
    start = time.perf_counter()
    for i in range(REFERENCE_LOOPS):
        menu = frozenset((i % 11, i % 7, i % 5, i % 3)) & base
        if menu not in seen:
            seen[menu] = len(menu)
    return time.perf_counter() - start


def run_query(wl, i, tracer=None, refs=None):
    """Run query `i` once; returns its input, its time, its answer and an
    error or None.  With `refs`, the reference task is timed right before
    and right after the query and the mean of the two is appended to it."""
    item = wl.prepare(i)
    if refs is not None:
        before = reference()
    if tracer is not None:
        tracer.enabled = True
        tracer.open("bench.query")
    start = time.perf_counter()
    try:
        answer, error = wl.run(item), None
    except Exception as exc:  # a query that raises is a failed query
        answer, error = None, f"query {i} raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.close()
        tracer.enabled = False
    if refs is not None:
        refs.append((before + reference()) / 2)
    return item, elapsed, answer, error


def check_pass(wl, count=None, tracer=None, refs=None):
    """Run the first `count` queries (all by default) once each, in order, and
    check every answer against the reference after its span.  Returns the
    times, the digest of each answer, the errors and one digest of all
    answers."""
    latencies, digests, errors, answers = [], [], [], hashlib.sha256()
    for i in range(len(wl) if count is None else count):
        item, elapsed, answer, error = run_query(wl, i, tracer, refs)
        if error is None:
            try:
                error = wl.check(item, answer)
            except Exception as exc:  # an answer the check cannot read is wrong
                error = f"query {i}: reference check raised {type(exc).__name__}: {exc}"
        if error is not None:
            errors.append(error)
        encoded = json.dumps(answer, sort_keys=True).encode()
        latencies.append(elapsed)
        digests.append(hashlib.sha256(encoded).hexdigest())
        answers.update(encoded)
    return {"latencies": latencies, "digests": digests, "errors": errors,
            "digest": answers.hexdigest()}


def repeat_pass(wl, digests, deadline=None, tracer=None, refs=None):
    """Run the queries once more, in order, stopping at `deadline`; every
    answer must equal the checked answer to the same query.  Returns the
    time of each query run and the errors."""
    latencies, errors = [], []
    for i, want in enumerate(digests):
        if deadline is not None and time.perf_counter() >= deadline:
            break
        _, elapsed, answer, error = run_query(wl, i, tracer, refs)
        if error is None:
            got = hashlib.sha256(json.dumps(answer, sort_keys=True).encode()).hexdigest()
            if got != want:
                error = f"query {i}: answer differs from its checked answer"
        if error is not None:
            errors.append(error)
        latencies.append(elapsed)
    return latencies, errors


def measure(wl, seconds):
    """The closed loop of an untraced run.  A check pass runs and checks every
    query once; then passes over the same queries repeat until `seconds` have
    gone by since the first query.

    The host is shared: for spells of a tenth of a second to a minute it runs
    this process up to 1.8 times slower, and no statistic of raw times over a
    run of this length escapes a spell that covers it.  So every query run is
    bracketed by the reference task, and its time is taken in units of the
    reference time around it.  A query's latency is the median of those ratios
    over its runs, times REFERENCE_S: its time on an uncontended core,
    whichever spells the run met."""
    deadline = time.perf_counter() + seconds
    refs = []
    checked = check_pass(wl, refs=refs)
    runs = [[(t, r)] for t, r in zip(checked["latencies"], refs)]
    errors = list(checked["errors"])
    passes = 1
    while time.perf_counter() < deadline:
        pass_refs = []
        latencies, failed = repeat_pass(wl, checked["digests"], deadline, refs=pass_refs)
        for i, pair in enumerate(zip(latencies, pass_refs)):
            runs[i].append(pair)
        refs += pass_refs
        errors += failed
        passes += 1
    return {
        "latencies": [statistics.median(t / r for t, r in q) * REFERENCE_S for q in runs],
        "best_raw": [min(t for t, _ in q) for q in runs],
        "median_raw": [statistics.median(t for t, _ in q) for q in runs],
        "reference_s": {
            "p01": statistics.quantiles(refs, n=100)[0],
            "median": statistics.median(refs),
        },
        "runs": len(refs), "passes": passes, "errors": errors,
        "digest": checked["digest"],
    }


def tail(latencies):
    """Highest percentile with at least TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND - 1, 0)
    return ordered[rank], 100.0 * (rank + 1) / n, n - rank - 1


def setup_children(args, workdir):
    """Set the workload up SETUPS times, each in a fresh process that builds
    the inputs into `workdir`; returns each set-up time with the mean time of
    the reference task run here just before and just after it (see
    `measure`).  The measuring process loads the saved pool instead of
    building it, so its peak RSS is that of serving the queries, not of
    generating and certifying them."""
    samples = []
    for _ in range(SETUPS):
        around = [reference() for _ in range(SETUP_REFERENCES)]
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-into", workdir],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
        around += [reference() for _ in range(SETUP_REFERENCES)]
        setup_s = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
        samples.append((setup_s, statistics.median(around)))
    return samples


def src_lines():
    total = 0
    for folder, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def environment(args):
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    return {
        "python": platform.python_version(),
        "nproc": cpus,
        "src_lines": src_lines(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def untraced(args, workloads):
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    try:
        setups = setup_children(args, workdir)
        wl = workloads.load(args.workload, workdir)
        loop = measure(wl, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lat = loop["latencies"]
    tail_s, tail_pct, beyond = tail(lat)
    metrics = {
        "queries_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1000.0, "ms"),
        "latency_tail_ms": (tail_s * 1000.0, "ms"),
        "setup_s": (statistics.median(t / r for t, r in setups) * REFERENCE_S, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    raw = {}
    for key in ("best_raw", "median_raw"):
        times = loop[key]
        raw[key] = {
            "queries_per_s": len(times) / sum(times),
            "latency_p50_ms": statistics.median(times) * 1000.0,
            "latency_tail_ms": tail(times)[0] * 1000.0,
        }
    notes = {
        "latency_tail": f"p{tail_pct:.2f} of {len(lat)} queries, {beyond} beyond",
        "passes": loop["passes"],
        "query_runs": loop["runs"],
        "reference_s": loop["reference_s"],
        "raw_times": raw,
        "failed_frac": len(loop["errors"]) / loop["runs"],
        "setup_samples_s": [t for t, _ in setups],
        "answers_digest": loop["digest"],
    }
    return wl, loop, metrics, notes


def traced(args, workloads):
    """Check pass, then untraced and traced passes over the same queries in
    turn, while a pair still fits in `--seconds`; the per-layer metrics come
    from the traced passes, per query."""
    import spans

    setup_tracer = spans.Tracer()
    setup_tracer.calibrate()
    setup_tracer.install()
    setup_tracer.enabled = True
    setup_tracer.open("bench.setup")
    try:
        wl, _, workdir = build(workloads, args.workload, args.seed)
    finally:
        setup_tracer.close()
        setup_tracer.enabled = False
        setup_tracer.uninstall()
    query_tracer = spans.Tracer()
    query_tracer.calibrate()
    started = time.perf_counter()
    plain_s = traced_s = 0.0
    pairs = 0
    try:
        checked = check_pass(wl)
        errors = list(checked["errors"])
        while True:
            pair_started = time.perf_counter()
            latencies, failed = repeat_pass(wl, checked["digests"])
            plain_s += sum(latencies)
            errors += failed
            query_tracer.install()
            try:
                latencies, failed = repeat_pass(wl, checked["digests"], tracer=query_tracer)
            finally:
                query_tracer.uninstall()
            traced_s += sum(latencies)
            errors += [f"traced {e}" for e in failed]
            pairs += 1
            now = time.perf_counter()
            if now + (now - pair_started) - started > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    n = len(checked["digests"]) * pairs
    metrics = spans.layer_metrics(query_tracer, setup_tracer, n, plain_s)
    metrics["trace.qps_untraced"] = (n / plain_s, "1/s")
    metrics["trace.qps_traced"] = (n / traced_s, "1/s")
    metrics["trace.qps_overhead"] = (n / plain_s - n / traced_s, "1/s")
    os.makedirs(OUT, exist_ok=True)
    span_path = os.path.join(OUT, f"spans-{args.workload}.txt")
    query_tracer.dump(span_path)
    loop = {"runs": len(checked["digests"]) * (1 + 2 * pairs), "errors": errors}
    raw_shares = query_tracer.module_self_s(query_tracer.self_s)
    raw_total = sum(raw_shares.values()) or 1.0
    shares = query_tracer.module_self_s(query_tracer.corrected_self_s(plain_s))
    total = sum(shares.values()) or 1.0
    notes = {
        "answers_digest": checked["digest"],
        "traced_pairs": pairs,
        "self_time_share": {m: round(s / total, 4) for m, s in sorted(shares.items())},
        "raw_self_time_share": {
            m: round(s / raw_total, 4) for m, s in sorted(raw_shares.items())
        },
        "tracing_cost_per_call_ns": {
            "inner": round(query_tracer.inner * 1e9),
            "outer": round(query_tracer.outer * 1e9),
            "outer_choose": round(query_tracer.outer_choose * 1e9),
        },
        "stored_spans": len(query_tracer.span_start),
        "span_file": os.path.relpath(span_path, ROOT),
    }
    return wl, loop, metrics, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tradenet", "__init__.py")):
        print(f"perfbench: no tradenet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads  # imports tradenet, so it counts toward set-up

    if args.setup_into:
        wl, setup_s, workdir = build(workloads, args.workload, args.seed, args.setup_into)
        workloads.save(wl, workdir)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.trace:
        wl, loop, metrics, notes = traced(args, workloads)
    else:
        wl, loop, metrics, notes = untraced(args, workloads)

    record = {
        "environment": environment(args),
        "inputs_digest": workloads.inputs_digest(wl),
        **wl.record(),
        "notes": notes,
        "errors": loop["errors"][:20],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(OUT, exist_ok=True)
    record_path = os.path.join(
        OUT, f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")

    for key in ("environment", "histograms", "headroom", "notes"):
        print(f"{key}: {json.dumps(record[key], sort_keys=True)}")
    for error in loop["errors"][:5]:
        print(f"failed: {error}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"record: {os.path.relpath(record_path, ROOT)}")
    print(json.dumps({
        "correct": not loop["errors"],
        "attempted": loop["runs"],
        "failed": len(loop["errors"]),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
