"""The infinite presets, pinned and checked against independent oracles.

golden/presets.txt records the local structure of every preset and its
opposite up to depth 6: arrows, locate, vertex_str, ends, bands, crossings,
tail texts, closures, reachability and parse_vertex errors.  Regenerate it
only for an intended change of that structure:

    PYTHONPATH=src:tests python -c "import test_presets as t; t.write_golden()"
"""
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import arknit as ak
from arknit.quiver import FiniteQuiver, vkey
from oracles import pred_closure, reaches

GOLDEN = Path(__file__).parent / "golden" / "presets.txt"
DEPTH = 6
BAD_VERTEX_STRINGS = ["", "x", "-1", "1.5", "a", "a-1", "c2", "b 2", " 3",
                      "+4", "7", "a03"]


def preset_quivers():
    for name in sorted(ak.PRESETS):
        q = ak.PRESETS[name]()
        yield q
        yield q.opposite()


def grid(q, depth):
    """Every vertex on a ray of q at depth <= depth, in vkey order."""
    return sorted({e.vertex(r.rid, t) for e in q.ends() for r in e.rays
                   for t in range(depth + 1)}, key=vkey)


def _arrow(q, a):
    return f"{a.label}:{q.vertex_str(a.src)}->{q.vertex_str(a.dst)}"


def _arrows(q, arrows):
    return "[" + " ".join(_arrow(q, a) for a in arrows) + "]"


def _parse(q, s):
    try:
        return f"ok {q.parse_vertex(s)!r}"
    except (ValueError, TypeError) as e:
        return f"{type(e).__name__}: {e}"


def describe_preset(q, depth=DEPTH) -> list:
    """Lines that pin the structure of q up to the given depth."""
    out = [f"== {q.name} {q.spec_dict()} finite={q.is_finite} "
           f"left_inf={q.has_left_infinite_path()} "
           f"right_inf={q.has_right_infinite_path()}"]
    for e in q.ends():
        rays = " ".join(f"{r.rid}:{r.kind}" for r in e.rays)
        out.append(f"end {e.eid} rays {rays} crossings {list(e.crossings)}")
        for r in e.rays:
            out.append(f"  ray {r.rid}: " + " ".join(
                f"{q.vertex_str(e.vertex(r.rid, t))}|{q._tail_str(e.eid, r.rid, t)}"
                for t in range(depth + 1)))
        for t in range(depth):
            out.append(f"  band {t}: {[q.vertex_str(v) for v in e.band(t)]} "
                       f"{_arrows(q, e.band_arrows(t))}")
        for (cid, _, _) in e.crossings:
            out.append(f"  crossing {cid}: " + " ".join(
                _arrow(q, e.crossing_arrow(cid, t)) for t in range(depth + 1)))
    verts = grid(q, depth)
    for v in verts:
        s = q.vertex_str(v)
        out.append(f"vertex {s} {v!r} locate={q.locate(v)} "
                   f"parse={_parse(q, s)}")
        out.append(f"  out {_arrows(q, q.out_arrows(v))} "
                   f"in {_arrows(q, q.in_arrows(v))}")
        out.append(f"  succ {q.succ_closure(v).describe()} "
                   f"pred {pred_closure(q, v).describe()}")
        out.append("  reaches " + "".join(
            "1" if reaches(q, v, w) else "0" for w in verts))
    for s in BAD_VERTEX_STRINGS:
        out.append(f"parse {s!r}: {_parse(q, s)}")
    return out


def golden_text() -> str:
    return "".join(line + "\n" for q in preset_quivers()
                   for line in describe_preset(q))


def write_golden():
    GOLDEN.write_text(golden_text())


def test_preset_structure_matches_golden():
    assert golden_text() == GOLDEN.read_text()


# ---------------------------------------------------------------------------
# closures and reachability against a plain breadth-first search over
# out_arrows, which calls no closure or reachability code


def bfs(q, x, window) -> set:
    """Vertices of the window reached from x along arrows inside it."""
    seen, frontier = {x}, [x]
    while frontier:
        nxt = []
        for u in frontier:
            for a in q.out_arrows(u):
                if a.dst in window and a.dst not in seen:
                    seen.add(a.dst)
                    nxt.append(a.dst)
        frontier = nxt
    return seen


def check_closures(q, v, window):
    """On every preset and finite quiver, a path between two vertices of
    the window stays inside it, so the search is exact there."""
    window = set(window)
    down = bfs(q, v, window)
    up = {w for w in window if v in bfs(q, w, window)}
    succ, pred = q.succ_closure(v), pred_closure(q, v)
    for w in window:
        assert reaches(q, v, w) == succ.contains(w) == (w in down), (v, w)
        assert reaches(q, w, v) == pred.contains(w) == (w in up), (w, v)
    return succ, pred, down, up


def check_tails(q, closure, seen, depth):
    """Each tail starts at the smallest depth from which the search sees
    the whole rest of its ray."""
    for eid, rid, t0 in closure.tails:
        end = q.end(eid)
        assert all(end.vertex(rid, t) in seen for t in range(t0, depth + 1))
        assert t0 == 0 or end.vertex(rid, t0 - 1) not in seen


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(ak.PRESETS)), st.booleans(), st.data())
def test_preset_closures_equal_a_search(name, flip, data):
    q = ak.PRESETS[name]()
    q = q.opposite() if flip else q
    end = data.draw(st.sampled_from(q.ends()))
    ray = data.draw(st.sampled_from(end.rays))
    d = data.draw(st.integers(0, 10))
    v = end.vertex(ray.rid, d)
    depth = 2 * (d + 1)
    succ, pred, down, up = check_closures(q, v, grid(q, depth))
    check_tails(q, succ, down, depth)
    check_tails(q, pred, up, depth)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 7).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.lists(st.integers(0, n - 1), min_size=2,
                                  max_size=2, unique=True).map(sorted),
                         max_size=12),
    st.integers(0, n - 1), st.booleans())))
def test_finite_closures_equal_a_search(case):
    n, arrows, v, flip = case
    q = FiniteQuiver.build(range(n), arrows)
    q = q.opposite() if flip else q
    succ, pred, _, _ = check_closures(q, v, range(n))
    assert succ.tails == pred.tails == ()
