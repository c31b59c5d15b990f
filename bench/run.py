"""arknit benchmark.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads: knit_kronecker, knit_corpus, homext_sweep, cli_verbs (see
BENCHMARK.json for why each was chosen).  Every run does fixed work: the
same items in the same order, for a number of passes set by ``--seconds``.
Run from the root of a checkout; the benchmark imports arknit from ``src/``.

With ``--trace 0`` it prints the end-to-end metrics: ``pass_s``,
``op_p50_ms``, ``setup_s`` and ``peak_rss_mb`` (plus ``op_p90_ms`` and
``fail_frac`` on the human-readable lines).  Times are wall-clock medians
of ops, each op scaled to a nominal machine speed by the reference work of
reference.py timed just before and just after it; the raw wall figures are
printed beside them.  With ``--trace 1`` it prints the per-layer metrics
from wrapped arknit boundaries (unscaled), and ``trace.overhead_frac``.  The
last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import reference
from tracing import UNITS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("knit_kronecker", "knit_corpus", "homext_sweep", "cli_verbs")
SETUP_SAMPLES = 5  # fresh processes timed to "inputs ready"
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def worker_env() -> dict:
    """Pinned hash seed, so set iteration order is the same in every run;
    no ARKNIT_BUDGET, so every run uses the library's default budget."""
    env = {k: v for k, v in os.environ.items() if k != "ARKNIT_BUDGET"}
    env["PYTHONHASHSEED"] = "0"
    return env


def launch(args, setup_only: bool):
    """Start a workload process; return (seconds until it printed ``ready``,
    its JSON result or None)."""
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=worker_env(),
                            cwd=ROOT)
    timer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or first.strip() != b"ready":
        raise BenchError(f"workload process exited with code {code}")
    return ready_s, (None if setup_only else json.loads(rest.splitlines()[-1]))


def setup_samples(args, count: int) -> list:
    """(set-up seconds, mean of the reference samples taken just before and
    just after) for ``count`` fresh workload processes."""
    refs, out = [reference.sample()], []
    for _ in range(count):
        ready_s = launch(args, True)[0]
        refs.append(reference.sample())
        out.append((ready_s, (refs[-2] + refs[-1]) / 2))
    return out


def metric(value, unit):
    return {"value": value, "unit": unit}


def report(args, res: dict, setup: list) -> dict:
    passes = res["passes"]
    samples = res["items"] * passes
    warm = " + 1 warm-up" if res["warm_up"] else ""
    print(f"workload {args.workload}  seed {args.seed}  items {res['items']}"
          f"  passes {passes}{warm}")
    fail_frac = res["failed"] / res["attempted"]
    lines = [("fail_frac", fail_frac, "ratio",
              f"{res['failed']} of {res['attempted']} ops failed")]
    if args.trace:
        metrics = {name: metric(v, UNITS[name])
                   for name, v in res["layers"].items()}
        for name, v in res["layers"].items():
            lines.append((name, v, UNITS[name],
                          f"traced, median of {passes} passes"))
        if res["missing_boundaries"]:
            lines.append(("missing_boundaries", len(res["missing_boundaries"]),
                          "count", " ".join(res["missing_boundaries"])))
    else:
        print(f"  machine speed: reference sample {res['ref_s'] * 1e3:.1f} ms"
              f" (mean of {res['ref_samples']}), nominal "
              f"{reference.NOMINAL_S * 1e3:.0f} ms")
        setup_s = statistics.median(t * reference.NOMINAL_S / ref
                                    for t, ref in setup)
        metrics = {
            "pass_s": metric(res["pass_s"], "s"),
            "op_p50_ms": metric(res["op_p50_ms"], "ms"),
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
        }
        per_item = f"{res['items']} per-item medians, {samples} samples"
        notes = {
            "pass_s": f"sum of {per_item}; wall {res['wall_pass_s']:.4g} s",
            "op_p50_ms": f"median of {per_item}; "
                         f"wall {res['wall_op_p50_ms']:.4g} ms",
            "setup_s": f"median of {len(setup)} fresh processes; wall "
                       f"{statistics.median(t for t, _ in setup):.4g} s",
            "peak_rss_mb": "largest CLI child" if args.workload == "cli_verbs"
                           else "workload process",
        }
        for name, m in metrics.items():
            lines.append((name, m["value"], m["unit"], notes[name]))
        if res["op_p90_ms"] is not None:
            lines.append(("op_p90_ms", res["op_p90_ms"], "ms",
                          f"90th percentile of {per_item}; "
                          f"wall {res['wall_op_p90_ms']:.4g} ms"))
    for name, value, unit, note in lines:
        print(f"  {name:<48} {value:>14.6g} {unit:<6} {note}")
    for failure in res["failures"]:
        print(f"  FAILED {failure}")
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "arknit" / "__init__.py").is_file():
        print(f"run.py: no arknit sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # One CPU for the whole run: a reference sample only tells the speed of
    # the CPU it ran on, and on a virtual machine each vCPU is slowed by
    # different neighbours.  Child processes inherit the mask.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    probes = 0 if args.trace else SETUP_SAMPLES
    try:
        # probes before and after the run, so they see the machine at both ends
        setup = setup_samples(args, probes // 2)
        res = launch(args, False)[1]
        setup += setup_samples(args, probes - probes // 2)
    except (BenchError, OSError, ValueError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2
    out = report(args, res, setup)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
