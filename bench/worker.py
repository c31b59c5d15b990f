"""Workload process, started by run.py:

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                            [--setup-only]

It imports arknit, builds the workload's item list and prints ``ready``;
run.py times set-up up to that line.  Unless ``--setup-only`` is given it
then runs one untimed warm-up pass (in-process workloads only), a fixed
number of timed passes, and with ``--trace 1`` as many traced passes, and
prints one JSON line with the results.  Ops run one at a time.  The
result's ``digests`` are the output digests of the last timed pass;
``bench/digests.json`` holds them for every workload at seed 0.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import reference
from tracing import (CLI_METRICS, OVERHEAD_METRIC, Tracer, layer_metrics,
                     median_metrics, merge, missing_named)

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))
import workloads  # noqa: E402  (imports arknit from SRC)

MAX_FAILURES_SHOWN = 5


@dataclass
class Pass:
    times: dict = field(default_factory=dict)  # item -> wall seconds
    scaled: dict = field(default_factory=dict)  # item -> at nominal speed
    failures: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)  # boundary -> statistics
    cli: dict = field(default_factory=dict)  # CLI metric -> per-verb values
    digests: dict = field(default_factory=dict)  # item -> output digest
    refs: list = field(default_factory=list)  # reference sample seconds
    child_rss_kb: int = 0  # largest peak memory of a CLI child


def check(item, out, expected):
    """(digest of the output, None) when the output passes its oracle and
    matches its committed digest, else (digest or None, the reason)."""
    try:
        got = workloads.digest(item.check(out))
    except workloads.CheckFailed as e:
        return None, str(e)
    except Exception as e:  # the oracle could not even read the output
        return None, f"{item.name}: check raised {type(e).__name__}: {e}"
    if expected is not None and got != expected.get(item.name):
        return got, (f"{item.name}: output digest {got}, "
                     f"committed {expected.get(item.name)}")
    return got, None


def bracket(p: Pass, pending: list):
    """Take a reference sample and scale the ops timed since the previous
    one by the mean of the two samples around them."""
    ref = reference.sample()
    if pending:
        speed = (p.refs[-1] + ref) / 2
        for name in pending:
            p.scaled[name] = p.times[name] * reference.NOMINAL_S / speed
        pending.clear()
    p.refs.append(ref)


def run_pass(items, expected, tracer=None, traced=False) -> Pass:
    p = Pass(cli={name: [] for name, _ in CLI_METRICS})
    pending, since_ref = [], reference.INTERVAL_S
    for item in items:
        if since_ref >= reference.INTERVAL_S:
            bracket(p, pending)
            since_ref = 0.0
        inputs = item.build()
        op = item.traced_op if traced and item.traced_op else item.op
        out, error = None, None
        if tracer is not None:
            tracer.start()
        t0 = time.perf_counter()
        try:
            out = op(inputs)
        except Exception as e:  # an op that raises counts as failed
            error = f"{item.name}: {type(e).__name__}: {e}"
        finally:
            p.times[item.name] = time.perf_counter() - t0
            if tracer is not None:
                merge(p.stats, tracer.stop())
        since_ref += p.times[item.name]
        pending.append(item.name)
        if error is None:
            p.digests[item.name], error = check(item, out, expected)
        if error is not None:
            p.failures.append(error)
        side = getattr(out, "side", None) or {}
        p.child_rss_kb = max(p.child_rss_kb, side.get("peak_rss_kb", 0))
        if "stats" in side:
            merge(p.stats, side["stats"])
            for name, key in CLI_METRICS:
                p.cli[name].append(side[key])
    bracket(p, pending)
    return p


def timing_summary(passes) -> dict:
    """pass_s sums per-item medians; op percentiles are taken over the
    per-item medians, so every item weighs the same.  Each figure is given
    at nominal machine speed and, prefixed ``wall_``, as measured."""
    out = {"items": len(passes[0].times), "passes": len(passes),
           "ref_s": statistics.fmean(r for p in passes for r in p.refs),
           "ref_samples": sum(len(p.refs) for p in passes)}
    for prefix, attr in (("", "scaled"), ("wall_", "times")):
        per_item = [statistics.median(getattr(p, attr)[name] for p in passes)
                    for name in passes[0].times]
        out[prefix + "pass_s"] = sum(per_item)
        out[prefix + "op_p50_ms"] = statistics.median(per_item) * 1e3
        out[prefix + "op_p90_ms"] = None
        if len(per_item) >= 2:
            p90 = statistics.quantiles(per_item, n=10)[8]
            if sum(v > p90 for v in per_item) >= 10:
                out[prefix + "op_p90_ms"] = p90 * 1e3
    return out


def layer_summary(passes, untraced: dict) -> dict:
    """Per-layer metrics of the traced passes; the tracing overhead compares
    pass_s with the untraced passes' pass_s, both at nominal speed."""
    per_pass = []
    for p in passes:
        metrics = layer_metrics(p.stats)
        for name, values in p.cli.items():
            metrics[name] = statistics.median(values) if values else 0.0
        per_pass.append(metrics)
    out = median_metrics(per_pass)
    out[OVERHEAD_METRIC] = (timing_summary(passes)["pass_s"]
                            / untraced["pass_s"] - 1)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    items = wl.setup(args.seed)
    digests = json.loads(workloads.DIGESTS.read_text())
    expected = None
    if not wl.seeded or args.seed == digests["seed"]:
        expected = digests["workloads"][wl.name]
    print("ready", flush=True)
    if args.setup_only:
        return 0

    passes = wl.passes(args.seconds)
    done = []
    if wl.in_process:
        done.append(run_pass(items, expected))  # warm-up
    timed = [run_pass(items, expected) for _ in range(passes)]
    done += timed
    result = timing_summary(timed)
    result["warm_up"] = wl.in_process
    if wl.in_process:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kb = max(p.child_rss_kb for p in timed)
    result["peak_rss_mb"] = peak_kb / 1024

    if args.trace:
        tracer = None
        if wl.in_process:
            tracer = Tracer()
            tracer.install(SRC)
        traced = [run_pass(items, expected, tracer, traced=True)
                  for _ in range(passes)]
        done += traced
        result["layers"] = layer_summary(traced, result)
        result["missing_boundaries"] = missing_named(SRC)

    failures = [f for p in done for f in p.failures]
    result["attempted"] = sum(len(p.times) for p in done)
    result["failed"] = len(failures)
    result["failures"] = failures[:MAX_FAILURES_SHOWN]
    result["digests"] = timed[-1].digests
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
