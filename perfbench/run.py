#!/usr/bin/env python3
"""charfol benchmark: seeded instance workloads driven through the CLI.

    python3 perfbench/run.py --workload tight_growth --seed 1 --seconds 25 --trace 0

Run from a checkout of the repository; charfol is imported from its ``src``.
Each pass starts with a set-up (a fresh import of charfol, so that no cache
survives from the pass before, plus instance generation) and then runs the
whole workload.  Passes repeat until ``--seconds`` is spent.  Every pass's
outputs are checked outside its timing.  perfbench/README.md describes the
workloads, the checks and the metrics.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``, timed at
a reference interpreter speed (see ``speed.py``).  ``--trace 1`` runs one
untraced pass and two traced ones, requires the traced outputs to be
byte-identical to the untraced ones and the two traced passes to count the
same work, and prints the per-layer metrics; the spans of the last traced
pass are written to ``.perfbench/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed check prints
``correct: false`` and exits 1.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import pathlib
import random
import resource
import statistics
import sys
import time
import traceback

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import speed  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402

MIN_SETUPS = 5
TRACED_PASSES = 2
END_TO_END = ("setup_s", "wall_s", "instance_p50_ms", "answered_frac", "peak_rss_mb")


def recording(trace: tracer.Tracer | None):
    return trace.recording() if trace is not None else contextlib.nullcontext()


def setup(workload: str, seed: int, trace: tracer.Tracer | None = None):
    """Import charfol and generate the workload's instances; returns (lib, instances)."""
    lib = wl.load_charfol(SRC)
    with recording(trace):
        instances = wl.SETUP[workload](lib, random.Random(f"{workload}/{seed}"))
    return lib, instances


def run_pass(lib, workload: str, seed: int, instances: list, clock=time.perf_counter, trace=None):
    """One pass; returns (start, end, outcomes, enumerate step or None), times on ``clock``."""
    pipeline = wl.PIPELINE[workload]
    enumerate_step = None
    with recording(trace):
        start = clock()
        if workload == "universe3":
            enumerate_step = wl.run_cli(lib, wl.ENUMERATE)
            instances = wl.universe_instances(lib, enumerate_step, seed)
        outcomes = []
        for inst in instances:
            outcome = wl.Outcome(inst, start=clock())
            pipeline(lib, outcome)
            outcome.end = clock()
            outcomes.append(outcome)
        end = clock()
    return start, end, outcomes, enumerate_step


def check_pass(lib, workload: str, outcomes: list) -> None:
    for outcome in outcomes:
        wl.check_outcome(lib, outcome)
    if workload == "universe3":
        wl.check_universe(lib, outcomes)


def transcript(outcomes: list, enumerate_step) -> list:
    steps = [enumerate_step] if enumerate_step else []
    return steps + [step for o in outcomes for step in o.steps]


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, int, int]:
    """Set-ups and passes until ``seconds`` of passes are spent, timed on a
    probe clock; times are reported at the probe's reference speed."""
    setups, passes, attempted, failed = [], [], 0, 0
    texts = None

    def timed_setup():
        nonlocal texts
        start = probe.clock()
        lib, instances = setup(workload, seed)
        setups.append((start, probe.clock()))
        generated = [i.text for i in instances]
        wl.require(texts in (None, generated), "the same seed generated different instances")
        texts = generated
        return lib, instances

    with speed.SpeedProbe() as probe:
        # a set-up before each pass, so that one burst of machine noise does
        # not sit on all of them
        spent = 0.0
        while not passes or spent + passes[-1][1] - passes[-1][0] <= seconds:
            lib, instances = timed_setup()
            start, end, outcomes, _ = run_pass(lib, workload, seed, instances, probe.clock)
            check_pass(lib, workload, outcomes)
            passes.append((start, end, outcomes))
            spent += end - start
            attempted += len(outcomes)
            failed += sum(o.failed for o in outcomes)
        while len(setups) < MIN_SETUPS:
            timed_setup()

    walls = [probe.scaled(start, end) for start, end, _ in passes]
    per_instance = zip(*([probe.scaled(o.start, o.end) for o in outcomes] for _, _, outcomes in passes))
    instance_ms = statistics.median(statistics.median(t) for t in per_instance) * 1e3
    print(
        f"{workload}: seed {seed}, {len(passes)} passes of {len(passes[0][2])} instances, "
        f"{failed} of {attempted} failed; pass times {' '.join(f'{e - s:.3f}' for s, e, _ in passes)} s "
        f"measured, {' '.join(f'{w:.3f}' for w in walls)} s at reference speed; calibration loop "
        f"median {statistics.median(probe.loops) * 1e3:.3f} ms over {len(probe.loops)} samples"
    )
    metrics = {
        "setup_s": statistics.median(probe.scaled(s, e) for s, e in setups),
        "wall_s": statistics.median(walls),
        "instance_p50_ms": instance_ms,
        "answered_frac": 1 - failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, attempted, failed


def per_layer(workload: str, seed: int) -> tuple[dict, int, int]:
    lib, instances = setup(workload, seed)
    start, end, plain, plain_enum = run_pass(lib, workload, seed, instances)
    plain_wall = end - start
    check_pass(lib, workload, plain)
    reference = transcript(plain, plain_enum)

    set_up_trace = tracer.Tracer()
    _, traced_instances = setup(workload, seed, set_up_trace)
    wl.require(
        [i.text for i in traced_instances] == [i.text for i in instances],
        "tracing changed the generated instances",
    )
    summaries, walls = [], []
    for _ in range(TRACED_PASSES):
        trace = tracer.Tracer()
        lib = wl.load_charfol(SRC)
        start, end, outcomes, enum_step = run_pass(lib, workload, seed, instances, trace=trace)
        check_pass(lib, workload, outcomes)
        wl.require(
            transcript(outcomes, enum_step) == reference,
            "traced command outputs differ from the untraced run",
        )
        summaries.append(trace.summary())
        walls.append(end - start)
    counts = [{k: v for k, v in s.items() if not tracer.is_time(k)} for s in summaries]
    wl.require(all(c == counts[0] for c in counts), "two cold passes counted different work")
    write_spans(workload, seed, trace.spans)

    metrics = {
        k: statistics.mean(s.get(k, 0) for s in summaries)
        for k in set().union(*summaries)
    }
    metrics["tightness.synthesize_taming.memo_hits"] = metrics.get(
        "canonical_under_synthesis", 0
    ) - metrics.get("allowable_under_synthesis", 0)
    metrics["moves.create_pair.s"] = set_up_trace.summary().get("moves.create_pair.s", 0.0)
    metrics["trace.overhead_s"] = statistics.mean(walls) - plain_wall
    print(
        f"{workload}: seed {seed}, untraced pass {plain_wall:.3f} s, "
        f"traced passes {' '.join(f'{w:.3f}' for w in walls)} s, {len(trace.spans)} spans"
    )
    attempted = len(plain) * (1 + TRACED_PASSES)
    return metrics, attempted, sum(o.failed for o in plain) * (1 + TRACED_PASSES)


def write_spans(workload: str, seed: int, spans: list) -> None:
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    origin = spans[0][1] if spans else 0.0
    with open(out / f"spans-{workload}-{seed}.jsonl", "w", encoding="utf-8") as fh:
        for name, start, end, parent, _ in spans:
            fh.write(json.dumps([name, start - origin, end - origin, parent]) + "\n")


def declared_metrics(trace: int) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.SETUP))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "charfol" / "__init__.py").is_file():
        print(f"error: no charfol sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    known = tracer.metric_names() if args.trace else END_TO_END
    unknown = [m["name"] for m in declared_metrics(args.trace) if m["name"] not in known]
    if unknown:
        print(f"error: BENCHMARK.json names metrics this benchmark does not measure: {unknown}", file=sys.stderr)
        return 2

    try:
        if args.trace:
            values, attempted, failed = per_layer(args.workload, args.seed)
        else:
            values, attempted, failed = end_to_end(args.workload, args.seed, args.seconds)
    except wl.CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    except Exception:
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    # a traced function that never ran has no entry: its calls and times are 0
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
        for m in declared_metrics(args.trace)
    }
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
