"""Self-checks of the benchmark.  None of them starts a long computation;
together they take about half a minute.

    python3 -m pytest bench
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

# Cheap items that still reach every layer their workload exercises.
SMALL = {
    "knit_kronecker": None,  # the one item, also used for the repeat check
    "knit_corpus": ("a3_P3_d6", "ray_out_P0_d4", "line_I0_d3"),
    "homext_sweep": tuple(f"{i:03d}" for i in range(8)),
    "cli_verbs": ("export",),
}


def small_items(name):
    items = workloads.WORKLOADS[name].setup(0)
    keep = SMALL[name]
    return [i for i in items if keep is None or i.name.startswith(keep)]


def resolve(key):
    mod, *path = key.split(".")
    obj = importlib.import_module(f"arknit.{mod}")
    for part in path:
        obj = getattr(obj, part)
    return obj


@pytest.fixture(scope="module")
def traced_runs():
    """Per workload: one untraced and two traced passes of its small items."""
    out = {}
    tracer = tracing.Tracer()
    for name in SMALL:
        items = small_items(name)
        plain = worker.run_pass(items, None)
        if workloads.WORKLOADS[name].in_process:
            tracer.install(workloads.SRC)
        try:
            traced = [worker.run_pass(items, None, tracer, True)
                      for _ in range(2)]
        finally:
            tracer.uninstall()
        for p in [plain] + traced:
            assert p.failures == []
        out[name] = (plain, traced)
    return out


def test_named_boundaries_resolve():
    assert tracing.missing_named(workloads.SRC) == []


def test_install_wraps_every_boundary_in_every_namespace():
    import arknit
    import arknit.ar
    import arknit.hom

    original = arknit.hom.hom_space
    tracer = tracing.Tracer()
    keys = tracer.install(workloads.SRC)
    try:
        assert set(tracing.NAMED) <= set(keys)
        for key in keys:
            assert hasattr(resolve(key), "__wrapped__"), key
        # callers that imported the name see the wrapper too
        assert arknit.ar.hom_space is arknit.hom.hom_space
        assert arknit.hom_space is arknit.hom.hom_space
        assert arknit.hom.hom_space.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert arknit.hom.hom_space is original
    for key in keys:
        assert not hasattr(resolve(key), "__wrapped__"), key


def test_kronecker_counts_repeat_exactly(traced_runs):
    _, traced = traced_runs["knit_kronecker"]
    first, second = (tracing.layer_metrics(p.stats) for p in traced)
    counts = [name for name, unit, _, _ in tracing.LAYER_METRICS
              if unit == "count"]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    assert first["linalg.rref.calls"] > 0 and first["linalg.rref.cells"] > 0


def test_named_metrics_nonzero_where_they_work(traced_runs):
    layers = json.loads((BENCH / "layers.json").read_text())
    values = {name: worker.layer_summary(traced,
                                         worker.timing_summary([plain]))
              for name, (plain, traced) in traced_runs.items()}
    for group in layers["groups"]:
        where = group["most_work_in"][0]
        for metric in group["metrics"]:
            assert values[where][metric] != 0, (metric, where)


def test_euler_check_trips_on_a_wrong_dimension():
    item = workloads.setup_homext_sweep(0)[0]
    hom, ext = item.op(item.build())
    item.check((hom, ext))
    with pytest.raises(workloads.CheckFailed):
        item.check((hom + 1, ext))


def test_digest_check_trips_on_a_changed_byte():
    item = next(i for i in workloads.setup_cli_verbs(0) if i.name == "quiver")
    digests = json.loads(workloads.DIGESTS.read_text())
    expected = digests["workloads"]["cli_verbs"]
    res = item.op(item.build())
    assert worker.check(item, res, expected)[1] is None
    changed = bytearray(res.stdout)
    changed[len(changed) // 2] ^= 1
    bad = workloads.CliResult(res.code, bytes(changed))
    assert worker.check(item, bad, expected)[1] is not None


def test_digests_cover_every_item():
    digests = json.loads(workloads.DIGESTS.read_text())
    for name, wl in workloads.WORKLOADS.items():
        items = wl.setup(digests["seed"])
        assert set(digests["workloads"][name]) == {i.name for i in items}


def test_benchmark_json_matches_the_code(capsys):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.UNITS)
    layers = json.loads((BENCH / "layers.json").read_text())
    assert sorted(m for g in layers["groups"] for m in g["metrics"]) == \
        sorted(tracing.UNITS)

    class Args:
        workload, seed, trace = "homext_sweep", 0, 0
    res = {"passes": 1, "warm_up": True, "items": 1, "failed": 0,
           "attempted": 1, "failures": [], "pass_s": 1.0, "op_p50_ms": 1.0,
           "op_p90_ms": None, "peak_rss_mb": 1.0, "ref_s": 0.1,
           "ref_samples": 1, "wall_pass_s": 1.0, "wall_op_p50_ms": 1.0,
           "wall_op_p90_ms": None}
    out = run.report(Args, res, [(1.0, 0.1)])
    capsys.readouterr()
    assert {name: m["unit"] for name, m in out["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec["end_to_end"]}
