"""The benchmark's four workloads.

Each workload is a fixed list of items.  An item builds fresh inputs from
its spec (untimed), runs one op (timed) and checks the op's output against
an oracle (untimed), returning the canonical text that the committed digest
covers.  Only ``homext_sweep`` depends on the seed; the knit and CLI item
lists are fixed so that every run does the same work.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import arknit as ak
from arknit.quiver import VertexSet

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden" / "kronecker_knit5.dot"
DIGESTS = BENCH / "digests.json"
CLI_TIMEOUT_S = 60


class CheckFailed(Exception):
    """An op's output disagrees with its oracle."""


@dataclass(frozen=True)
class Item:
    name: str
    build: Callable[[], object]
    op: Callable[[object], object]
    check: Callable[[object], str]
    # CLI items time a separate traced child; in-process items are traced
    # by wrapping arknit inside the workload process.
    traced_op: Optional[Callable[[object], object]] = None


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], list]
    in_process: bool  # in-process workloads run one untimed warm-up pass
    seeded: bool  # whether the item list depends on the seed
    pass_cost_s: float  # pass time with reference samples, 2-vCPU machine
    min_passes: int  # three, where a per-item median should not be a mean

    def passes(self, seconds: int) -> int:
        return max(self.min_passes, round(seconds / self.pass_cost_s))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def golden_dot() -> str:
    return GOLDEN.read_text()


# ---------------------------------------------------------------------------
# knits: the eleven components of acceptance criterion 10


def _preset(name):
    return ak.PRESETS[name]()


def _line_full():
    q = _preset("line")
    return ak.thin_rep(q, VertexSet.make(q, (), [("neg", "v", 0),
                                                 ("pos", "v", 0)]))


def _zigzag_window():
    q = _preset("zigzag")
    return ak.thin_rep(q, VertexSet.make(q, (0, 1, 2, 3), ()))


def _single_rung():
    """Gluing of two ladder tails along rung 0 only."""
    q = _preset("ladder")
    sub = ak.thin_rep(q, VertexSet.make(q, (), [("inf", "b", 0)]))
    quot = ak.thin_rep(q, VertexSet.make(q, (), [("inf", "a", 0)]))
    (end,) = [e for e in q.ends() if e.eid == "inf"]
    one = ak.Mat.from_rows(ak.QQ, [[1]])
    return ak.glue_rep(sub, quot, ((end.crossing_arrow("rung", 0), one),), ())


KRONECKER_KNIT = ("kronecker_P2_d5",
                  lambda: ak.projective_at(ak.kronecker_quiver(), 2), 5)
CORPUS_KNITS = (
    ("a3_P3_d6", lambda: ak.projective_at(ak.linear_quiver(3), 3), 6),
    ("a5_P5_d10", lambda: ak.projective_at(ak.linear_quiver(5), 5), 10),
    ("ray_in_P0_d6", lambda: ak.projective_at(_preset("ray_in"), 0), 6),
    ("ray_out_P0_d4", lambda: ak.projective_at(_preset("ray_out"), 0), 4),
    ("line_S0_d4", lambda: ak.simple_at(_preset("line"), 0), 4),
    ("line_I0_d3", lambda: ak.injective_at(_preset("line"), 0), 3),
    ("line_full_d3", _line_full, 3),
    ("ladder_Sb1_d2", lambda: ak.simple_at(_preset("ladder"), ("b", 1)), 2),
    ("zigzag_0123_d3", _zigzag_window, 3),
    ("ladder_rung0_d3", _single_rung, 3),
)


def describe_component(comp) -> str:
    """Node count, arrows with valuations, tau links, per-node membership
    verdicts and the component tag."""
    verdicts = [ak.classify_membership(n.rep).verdict for n in comp.nodes]
    return json.dumps({
        "nodes": len(comp.nodes),
        "arrows": sorted([s, d, m] for (s, d), m in comp.arrows.items()),
        "tau_links": sorted([a, b] for a, b in comp.tau_links.items()),
        "verdicts": verdicts,
        "tag": ak.classify_component(comp).tag,
    }, sort_keys=True)


def _knit_item(name, build, depth, golden=None) -> Item:
    def check(comp):
        if golden is not None and ak.component_dot(comp) != golden:
            raise CheckFailed(f"{name}: DOT output differs from "
                              f"{GOLDEN.relative_to(ROOT)}")
        return describe_component(comp)
    return Item(name, build, lambda seed: ak.knit(seed, depth), check)


def setup_knit_kronecker(seed: int) -> list:
    name, build, depth = KRONECKER_KNIT
    return [_knit_item(name, build, depth, golden_dot())]


def setup_knit_corpus(seed: int) -> list:
    return [_knit_item(*spec) for spec in CORPUS_KNITS]


# ---------------------------------------------------------------------------
# seeded Hom/Ext sweep over random finite-dimensional pairs

PAIRS = 120
MAX_DIM = 3
SHAPE_SEED = 1201
# (quiver, window vertices, arrows inside the window as (src, dst, label)).
# The arrow lists are written out here so that the Euler-form oracle does
# not read the quiver under test.
POOLS = (
    ("A3", (1, 2, 3), ((1, 2, "1>2"), (2, 3, "2>3"))),
    ("A5", (1, 2, 3, 4, 5), tuple((i, i + 1, f"{i}>{i + 1}")
                                  for i in range(1, 5))),
    ("kronecker", (1, 2), ((1, 2, "alpha"), (1, 2, "beta"))),
    ("zigzag", (0, 1, 2, 3), ((1, 0, "1>0"), (1, 2, "1>2"), (3, 2, "3>2"))),
)
QUIVERS = {"A3": lambda: ak.linear_quiver(3),
           "A5": lambda: ak.linear_quiver(5),
           "kronecker": ak.kronecker_quiver,
           "zigzag": lambda: _preset("zigzag")}
FIELDS = (0, 7)  # QQ and GF(7), alternating round by round of the pools


def random_dims(rng: random.Random, verts) -> dict:
    """At most MAX_DIM at each vertex and not all zero, as in the test
    suite's random_fd_rep."""
    dims = {v: rng.randrange(MAX_DIM + 1) for v in verts}
    if not any(dims.values()):
        dims[rng.choice(verts)] = 1
    return dims


def random_mats(rng: random.Random, dims, arrows) -> dict:
    """Integer entries in -2..2 for every arrow between nonzero spaces."""
    return {label: [[rng.randrange(-2, 3) for _ in range(dims[s])]
                    for _ in range(dims[t])]
            for s, t, label in arrows if dims[s] and dims[t]}


def euler_form(verts, arrows, dm, dn) -> int:
    """<dim M, dim N> = sum_v m_v n_v - sum over arrows s->t of m_s n_t."""
    return (sum(dm[v] * dn[v] for v in verts)
            - sum(dm[s] * dn[t] for s, t, _ in arrows))


def _build_rep(q, field, spec):
    dims, mats = spec
    return ak.explicit_fd(q, dims, {
        label: ak.Mat(field, len(rows), len(rows[0]),
                      tuple(tuple(field.of(x) for x in r) for r in rows))
        for label, rows in mats.items()}, field)


def _homext_item(index, kind, verts, arrows, char, m_spec, n_spec) -> Item:
    def build():
        q = QUIVERS[kind]()
        field = ak.GF(char) if char else ak.QQ
        return _build_rep(q, field, m_spec), _build_rep(q, field, n_spec)

    def op(pair):
        m, n = pair
        return ak.hom_space(m, n).dimension, ak.ext_space(m, n).dimension

    def check(dims):
        hom, ext = dims
        want = euler_form(verts, arrows, m_spec[0], n_spec[0])
        if hom - ext != want:
            raise CheckFailed(f"pair {index}: dim Hom - dim Ext = "
                              f"{hom} - {ext}, Euler form says {want}")
        return f"hom={hom} ext={ext}"

    name = f"{index:03d}_{kind}_{'GF' + str(char) if char else 'QQ'}"
    return Item(name, build, op, check)


def setup_homext_sweep(seed: int) -> list:
    # A pair's cost grows steeply with its dimensions, so dimension vectors
    # drawn per seed made pass_s differ between seeds by about 12 % at 120
    # pairs.  They come from a fixed stream; the seed draws every entry.
    shapes, rng = random.Random(SHAPE_SEED), random.Random(seed)
    items = []
    for i in range(PAIRS):
        kind, verts, arrows = POOLS[i % len(POOLS)]
        char = FIELDS[i // len(POOLS) % len(FIELDS)]
        dm, dn = random_dims(shapes, verts), random_dims(shapes, verts)
        items.append(_homext_item(i, kind, verts, arrows, char,
                                  (dm, random_mats(rng, dm, arrows)),
                                  (dn, random_mats(rng, dn, arrows))))
    return items


# ---------------------------------------------------------------------------
# CLI verbs, one fresh process each

LINE = '{"preset":"line"}'
KRON = '{"preset":"kronecker"}'
A3 = '{"preset":"linear","n":3}'
ZIG = '{"preset":"zigzag"}'
ALLK = '{"thin":{"explicit":[],"tails":[["neg","v",0],["pos","v",0]]}}'
M0 = '{"thin":{"explicit":[],"tails":[["inf","even",0],["inf","odd",0]]}}'
S2 = '{"simple":"2"}'
KNIT5 = ["--quiver", KRON, "--seed", '{"proj":"2"}', "--depth", "5"]

CLI_VERBS = (
    ("quiver", ["quiver", "--quiver", LINE]),
    ("rep", ["rep", "--quiver", LINE, "--rep", '{"inj":"0"}']),
    ("member", ["member", "--quiver", ZIG, "--rep", M0]),
    ("hom", ["hom", "--quiver", A3, "--src", '{"proj":"2"}',
             "--dst", '{"inj":"2"}']),
    ("hom_gf7", ["hom", "--quiver", A3, "--field", "7",
                 "--src", '{"proj":"2"}', "--dst", '{"inj":"2"}']),
    ("ext", ["ext", "--quiver", KRON, "--quot", '{"simple":"1"}',
             "--sub", S2]),
    ("tau", ["tau", "--quiver", A3, "--rep", S2]),
    ("tau_inverse", ["tau", "--quiver", A3, "--rep", S2, "--inverse"]),
    ("ass", ["ass", "--quiver", A3, "--rep", S2]),
    ("decompose", ["decompose", "--quiver", A3, "--rep",
                   '{"sum":[{"proj":"1"},{"simple":"2"},{"simple":"2"}]}']),
    ("export", ["export", "--quiver", LINE, "--rep", ALLK]),
    ("classify", ["classify"] + KNIT5),
    ("knit_dot", ["knit"] + KNIT5 + ["--format", "dot"]),
)


@dataclass
class CliResult:
    code: int
    stdout: bytes
    side: Optional[dict] = None  # what the child wrote to its side file


def run_cli(argv, traced=False) -> CliResult:
    """One verb in a fresh process under bench/cli_child.py, which writes
    its peak memory, and when traced its spans, to a side file."""
    with tempfile.TemporaryDirectory(prefix=".bench_", dir=ROOT) as tmp:
        side = Path(tmp) / "side.json"
        env = dict(os.environ, PYTHONPATH=str(SRC),
                   BENCH_TRACE=str(int(traced)),
                   BENCH_LAUNCH=repr(time.monotonic()))
        proc = subprocess.run(
            [sys.executable, str(BENCH / "cli_child.py"), str(side), *argv],
            env=env, capture_output=True, timeout=CLI_TIMEOUT_S, check=False)
        data = json.loads(side.read_text()) if side.exists() else None
    return CliResult(proc.returncode, proc.stdout, data)


def run_cli_traced(argv) -> CliResult:
    return run_cli(argv, traced=True)


def _cli_item(name, argv, golden=None) -> Item:
    def check(res: CliResult):
        if res.code != 0:
            raise CheckFailed(f"{name}: exit code {res.code}")
        text = res.stdout.decode(errors="replace")
        if golden is not None and text != golden:
            raise CheckFailed(f"{name}: stdout differs from "
                              f"{GOLDEN.relative_to(ROOT)}")
        return f"exit={res.code}\n{text}"
    return Item(name, lambda: argv, run_cli, check, run_cli_traced)


def setup_cli_verbs(seed: int) -> list:
    golden = golden_dot()
    return [_cli_item(name, argv, golden if name == "knit_dot" else None)
            for name, argv in CLI_VERBS]


WORKLOADS = {w.name: w for w in (
    Workload("knit_kronecker", setup_knit_kronecker, True, False, 1.6, 3),
    Workload("knit_corpus", setup_knit_corpus, True, False, 7.5, 3),
    Workload("homext_sweep", setup_homext_sweep, True, True, 1.2, 3),
    Workload("cli_verbs", setup_cli_verbs, False, False, 16.0, 1),
)}
