"""The repository benchmark's one command.

    python3 perfbench/run.py --workload build-2d --seed 1 --seconds 20 --trace 0

Runs one workload (``build-2d``, ``serve-1d`` or ``ingest-serve``) in
this process: sets it up ``SETUP_REPEATS`` times (``setup_s`` is the
median), measures for ``--seconds``, checks every answer, and prints the
workload's own named figures followed, as the last line, by one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` is the separate traced run: a quarter of the time
untraced, half with spans around every layer call, a quarter untraced
again, reporting the per-layer metrics --
layer figures, each layer's share of the traced wall time, and the
tracing overhead -- and writing the spans as JSONL under
``.perfbench-work/``.  A per-layer metric a workload never exercises
reads 0.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys

ROOT_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

WORKLOADS = {
    "build-2d": "perfbench.build2d",
    "serve-1d": "perfbench.serve1d",
    "ingest-serve": "perfbench.ingest",
}

#: Per-layer metrics every traced run reports, whatever the workload.
TRACE_METRICS = {"trace.overhead_frac", "trace.spans", "trace.self_frac.run"}


def catalogue() -> dict:
    """Metric names and units declared in ``BENCHMARK.json``."""
    with open(os.path.join(ROOT_DIR, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    workdir: str,
    config=None,
):
    """Run one workload; return its :class:`~perfbench.harness.Outcome`.

    ``config`` overrides the workload's full-size ``FULL`` config (the
    tests pass ``TINY``).
    """
    from perfbench import harness

    module = importlib.import_module(WORKLOADS[workload])
    spec = catalogue()
    cfg = config if config is not None else module.FULL
    out = harness.Outcome()
    setup_s, ctx = harness.timed_setups(
        lambda: module.Context(cfg, seed, workdir)
    )
    try:
        if not trace:
            phase = module.measure(ctx, seconds, harness.Tracer())
            out.add("setup_s", setup_s)
            out.add("peak_rss_mb", harness.peak_rss_mb())
            module.end_to_end(ctx, phase, out)
            wanted = spec["end_to_end"]
        else:
            _traced(module, ctx, seconds, seed, workload, workdir, out)
            wanted = spec["per_layer"]
        module.check(ctx, out)
    finally:
        ctx.close()
    unexpected = set(out.values) - set(wanted)
    if unexpected:
        raise RuntimeError(f"metrics not in BENCHMARK.json: {sorted(unexpected)}")
    required = set(module.LAYER_METRICS) | TRACE_METRICS if trace else set(wanted)
    missing = required - set(out.values)
    if missing:
        raise RuntimeError(f"{workload} did not report {sorted(missing)}")
    out.metrics = {
        name: (out.values.get(name, 0.0), unit)
        for name, unit in wanted.items()
    }
    return out


def _traced(module, ctx, seconds, seed, workload, workdir, out) -> None:
    """Untraced, traced, untraced quarters/half/quarter of the time.

    Per-layer metrics come from the traced half.  Its cost per unit is
    compared with the mean of the untraced quarters on either side, so
    a drift in machine speed over the run cancels to first order.
    """
    from perfbench import harness

    measure = getattr(module, "measure_traced", module.measure)
    before = measure(ctx, seconds / 4, harness.Tracer())
    tracer = harness.Tracer(enabled=True)
    with tracer.span(harness.ROOT, workload=workload, seed=seed):
        traced = measure(ctx, seconds / 2, tracer)
    after = measure(ctx, seconds / 4, harness.Tracer())
    module.per_layer(ctx, traced, tracer.spans, out)
    wall, self_s = harness.self_times(tracer.spans)
    for name, secs in self_s.items():
        out.add(f"trace.self_frac.{name}", secs / wall)
    base = (before["unit_cost"] + after["unit_cost"]) / 2
    out.add("trace.overhead_frac", traced["unit_cost"] / base - 1.0)
    out.add("trace.spans", len(tracer.spans))
    tracer.write_jsonl(os.path.join(workdir, f"trace-{workload}-{seed}.jsonl"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = os.path.join(ROOT_DIR, "src")
    for path in (src, ROOT_DIR):
        if path not in sys.path:
            sys.path.insert(0, path)
    try:
        import repro  # the library under test, from this checkout's src/

        if not os.path.abspath(repro.__file__).startswith(src + os.sep):
            raise ImportError(f"repro imported from {repro.__file__}, not {src}")
        catalogue()
    except (ImportError, OSError) as error:
        print(f"perfbench: cannot load the library or BENCHMARK.json: {error}",
              file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT_DIR, ".perfbench-work")
    os.makedirs(workdir, exist_ok=True)
    out = run(args.workload, args.seed, args.seconds, bool(args.trace),
              workdir=workdir)
    for name, value, unit in out.named:
        print(f"{args.workload:13s} {name:34s} {value:14.6g} {unit}")
    for name, (value, unit) in out.metrics.items():
        print(f"{args.workload:13s} {name:34s} {value:14.6g} {unit}")
    print(f"{args.workload:13s} {'fail_frac':34s} {out.fail_frac:14.6g} ratio")
    for problem in out.problems:
        print(f"{args.workload:13s} FAILED: {problem}")
    print(out.result_line())
    return 0


if __name__ == "__main__":
    sys.exit(main())
