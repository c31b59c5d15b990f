"""CLI child: ``python3 bench/cli_child.py SIDE_FILE VERB ARGS...``.

Runs ``arknit.cli.main`` like the ``arknit`` entry point and writes to
SIDE_FILE the process's own peak resident memory.  The parent's
``ru_maxrss`` cannot give it: Linux counts the parent's memory in a child
until the child calls exec.  With ``BENCH_TRACE=1`` every boundary is also
wrapped, and the side file gets the verb's per-boundary statistics and its
start-up, import and ``main`` times.  ``BENCH_LAUNCH`` holds the parent's
``time.monotonic()`` just before the launch; the clock is system-wide.
"""

import time

STARTED = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def peak_rss_kb() -> int:
    """VmHWM of this process since its exec, or 0 where /proc has none."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def main() -> int:
    side, argv = sys.argv[1], sys.argv[2:]
    traced = os.environ.get("BENCH_TRACE") == "1"
    t0 = time.monotonic()
    import arknit.cli
    t1 = time.monotonic()

    tracer = None
    if traced:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(Path(arknit.__file__).resolve().parent.parent)
        tracer.start()
    t2 = time.monotonic()
    try:
        code = arknit.cli.main(argv)
    finally:
        t3 = time.monotonic()
        out = {}
        if tracer is not None:
            out = {"startup_s": STARTED - float(os.environ["BENCH_LAUNCH"]),
                   "import_s": t1 - t0, "main_s": t3 - t2,
                   "stats": tracer.stop()}
            tracer.uninstall()
        out["peak_rss_kb"] = peak_rss_kb()
        Path(side).write_text(json.dumps(out))
    return code


if __name__ == "__main__":
    sys.exit(main())
