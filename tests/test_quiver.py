import random
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arknit as ak
from arknit.quiver import (Arrow, FiniteQuiver, Path, QuiverBase, VertexSet,
                           classify_subquiver, vkey)
from arknit.rep import reverse_path
from oracles import pred_closure, reaches


def test_linear_quiver_paths(a3):
    assert len(a3.paths_between(1, 3)) == 1
    assert len(a3.paths_between(3, 1)) == 0
    assert len(a3.paths_between(2, 2)) == 1  # trivial path


def test_kronecker_paths(kron):
    assert len(kron.paths_between(1, 2)) == 2
    assert len(kron.paths_between(2, 1)) == 0


def test_finite_paths_match_a_path_count():
    # random acyclic quivers with multiple arrows: number of paths x ~> y by
    # dynamic programming over the vertex order, for the quiver and its dual
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randrange(2, 7)
        arrows = [(i, j) for _ in range(rng.randrange(0, 12))
                  for i, j in [sorted(rng.sample(range(n), 2))]]
        q = FiniteQuiver.build(range(n), arrows)
        for x in range(n):
            count = [0] * n
            count[x] = 1
            for v in range(x, n):
                for (i, j) in arrows:
                    if i == v:
                        count[j] += count[v]
            for y in range(n):
                paths = q.paths_between(x, y)
                assert len(paths) == count[y]
                assert all(p.src == x and p.dst == y for p in paths)
                assert reaches(q, x, y) == (count[y] > 0)
                assert len(q.opposite().paths_between(y, x)) == count[y]


def test_finite_contains_is_membership_and_rejects_unhashable_ids(a3):
    assert all(a3.contains(v) for v in (1, 2, 3))
    assert not a3.contains(0) and not a3.contains("1")
    assert not a3.contains([1]) and not a3.contains({"v": 1})


def test_finite_quiver_rejects_cycles():
    with pytest.raises(ValueError):
        FiniteQuiver.build([1, 2], [(1, 2), (2, 1)])


def test_closures_on_a3(a3):
    pred = pred_closure(a3, 2)
    assert sorted(pred.members()) == [1, 2]
    succ = a3.succ_closure(2)
    assert sorted(succ.members()) == [2, 3]


def test_ladder_path_counts(ladder):
    """Between a_m and b_k there are exactly min(m, k) + 1 paths."""
    end = ladder.end("inf")
    for m in range(5):
        for k in range(5):
            am = end.vertex("a", m)
            bk = end.vertex("b", k)
            assert len(ladder.paths_between(am, bk)) == min(m, k) + 1
            assert len(ladder.paths_between(bk, am)) == 0


def test_line_structure(line):
    assert [a.dst for a in line.out_arrows(0)] == [-1]
    assert [a.src for a in line.in_arrows(0)] == [1]
    assert reaches(line, 5, -2) and not reaches(line, -2, 5)
    eids = sorted(e.eid for e in line.ends())
    assert eids == ["neg", "pos"]


def test_zigzag_orientation(zig):
    # odd vertices are sources, even are sinks
    assert sorted((a.src, a.dst) for a in zig.out_arrows(1)) == [(1, 0), (1, 2)]
    assert zig.out_arrows(2) == []
    assert sorted((a.src, a.dst) for a in zig.in_arrows(2)) == [(1, 2), (3, 2)]


def test_ray_presets(ray_in, ray_out):
    assert [a.dst for a in ray_in.out_arrows(3)] == [2]
    assert [a.dst for a in ray_out.out_arrows(3)] == [4]
    assert ray_in.out_arrows(0) == []
    assert ray_out.in_arrows(0) == []


def test_vertex_parsing_round_trip(ladder, line):
    for v in [("a", 3), ("b", 0)]:
        assert ladder.parse_vertex(ladder.vertex_str(v)) == v
    for v in [-4, 0, 7]:
        assert line.parse_vertex(line.vertex_str(v)) == v


def test_preset_vertex_bounds(ray_out):
    with pytest.raises(ValueError):
        ray_out.parse_vertex("-1")


def test_end_band_structure(ladder):
    end = ladder.end("inf")
    kinds = {r.rid: r.kind for r in end.rays}
    assert kinds == {"a": "I", "b": "P"}
    cids = [c[0] for c in end.crossings]
    assert cids == ["rung"]
    a = end.crossing_arrow("rung", 4)
    assert a.src == ("a", 4) and a.dst == ("b", 4)
    band = end.band_arrows(3)
    assert len(band) >= 2  # both ray transitions at depth 3


def test_vertex_set_absorbs_tails(line):
    vs = VertexSet.make(line, {0, -1, -2}, [("neg", "v", 3)])
    # contiguous explicit vertices extend the tail down to depth 0
    assert vs.tails == (("neg", "v", 0),)
    assert vs.explicit == frozenset()
    assert vs.contains(-10) and vs.contains(0) and not vs.contains(1)
    gap = VertexSet.make(line, {0}, [("neg", "v", 3)])
    assert gap.tails == (("neg", "v", 3),)
    assert gap.explicit == frozenset({0})


def test_vertex_set_operations(line):
    a = VertexSet.make(line, (), [("neg", "v", 0)])
    b = VertexSet.make(line, (), [("neg", "v", 4)])
    inter = a.intersect(b)
    assert inter.contains(-5) and not inter.contains(-2)
    diff = a.difference(b)
    assert sorted(diff.members()) == [-3, -2, -1, 0]


def test_vertex_set_difference_punches_holes_in_a_tail(line):
    # {n >= 1} minus {2, 4} is {1, 3} and the tail from 5 (depth 4)
    pos = VertexSet.make(line, (), [("pos", "v", 0)])
    diff = pos.difference(VertexSet.make(line, (2, 4)))
    assert (diff.explicit, diff.tails) == (frozenset({1, 3}),
                                           (("pos", "v", 4),))


# every infinite preset and one finite quiver, each built once
SET_QUIVERS = {**{name: make() for name, make in ak.PRESETS.items()},
               "A5": ak.linear_quiver(5)}


def ray_vertices(q, depth):
    """Each vertex of q's rays down to depth; every vertex of a finite q."""
    if q.is_finite:
        return list(q.vertices)
    return [e.vertex(r.rid, t) for e in q.ends() for r in e.rays
            for t in range(depth + 1)]


@st.composite
def vertex_sets(draw, q):
    explicit = draw(st.sets(st.sampled_from(ray_vertices(q, 6))))
    tails = [(e.eid, r.rid, draw(st.integers(0, 5)))
             for e in q.ends() for r in e.rays if draw(st.booleans())]
    return VertexSet.make(q, explicit, tails)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data(), st.sampled_from(sorted(SET_QUIVERS)))
def test_vertex_set_operations_match_membership(data, name):
    # union, intersect and difference agree with or, and, and-not on every
    # vertex down to three bands past both probe depths, holes punched in
    # tails included, and each result is in the normal form of make
    q = SET_QUIVERS[name]
    a, b = (data.draw(vertex_sets(q)) for _ in range(2))
    depth = max(a.probe_depth(), b.probe_depth()) + 3
    for r, keep in ((a.union(b), lambda x, y: x or y),
                    (a.intersect(b), lambda x, y: x and y),
                    (a.difference(b), lambda x, y: x and not y)):
        assert r == VertexSet.make(q, r.explicit, r.tails)
        for v in ray_vertices(q, depth):
            assert r.contains(v) == keep(a.contains(v), b.contains(v))


def test_opposite_quiver(a3):
    op = a3.opposite()
    assert len(op.paths_between(3, 1)) == 1
    assert len(op.paths_between(1, 3)) == 0
    assert op.opposite().spec_dict() == a3.spec_dict()


def test_classify_subquiver(line, ray_out):
    # top-finite: finitely many sources covering everything
    vs = VertexSet.make(ray_out, (), [("inf", "v", 0)])
    info = classify_subquiver(vs)
    assert info.top_finite and not info.socle_finite
    vs2 = VertexSet.make(line, (), [("pos", "v", 0)])
    info2 = classify_subquiver(vs2)
    assert info2.socle_finite and not info2.top_finite


NOT_FROM = "is not reachable from {} of the subquiver"


@pytest.mark.parametrize("name, explicit, tails, flags, witnesses", [
    ("line", ["0", "1", "3"], [], (True, True, True), ()),
    ("line", [], [("neg", "v", 0)], (False, True, False),
     ("vertex -5 " + NOT_FROM.format("a sink"),)),
    ("line", ["-3"], [("pos", "v", 2)], (False, False, True),
     ("vertex 3 " + NOT_FROM.format("a source"),)),
    ("line", [], [("neg", "v", 1), ("pos", "v", 1)], (False, False, False),
     ("vertex 2 " + NOT_FROM.format("a source"),
      "vertex -6 " + NOT_FROM.format("a sink"))),
    ("ray_out", ["0", "1", "2"], [], (True, True, True), ()),
    ("ray_out", ["1"], [("inf", "v", 4)], (False, True, False),
     ("vertex 4 " + NOT_FROM.format("a sink"),)),
    ("ray_in", ["0"], [("inf", "v", 3)], (False, False, True),
     ("vertex 3 " + NOT_FROM.format("a source"),)),
    ("zigzag", ["1", "2", "3"], [], (True, True, True), ()),
    ("zigzag", [], [("inf", "even", 2)], (False, False, False),
     ("infinitely many sources: even n >= 4",
      "infinitely many sinks: even n >= 4")),
    ("zigzag", [], [("inf", "even", 1), ("inf", "odd", 1)],
     (False, False, False), ("infinitely many sources: odd n >= 3",
                             "infinitely many sinks: even n >= 2")),
    ("ladder", ["a0", "b0", "b1"], [], (True, True, True), ()),
    ("ladder", ["a0", "a1"], [("inf", "b", 1)], (False, True, False),
     ("vertex b1 " + NOT_FROM.format("a sink"),)),
    ("ladder", ["b0"], [("inf", "a", 2)], (False, False, True),
     ("vertex a2 " + NOT_FROM.format("a source"),)),
    ("ladder", [], [("inf", "a", 1), ("inf", "b", 1)], (False, False, False),
     ("vertex a1 " + NOT_FROM.format("a source"),
      "vertex a1 " + NOT_FROM.format("a sink"))),
])
def test_classify_subquiver_pins_flags_and_witnesses(name, explicit, tails,
                                                     flags, witnesses):
    # the socle half is the top half over the opposite quiver, with sinks
    # for sources: these pin both words and the vertices they name
    q = ak.PRESETS[name]()
    info = classify_subquiver(
        VertexSet.make(q, [q.parse_vertex(v) for v in explicit], tails))
    assert (info.is_finite, info.top_finite, info.socle_finite) == flags
    assert info.witnesses == witnesses


# ---------------------------------------------------------------------------
# path bases, exactly and in order, against a naive enumerator that does not
# go through paths_between or reaches

def naive_paths(q, x, y, cap):
    """Every path x ~> y, walking forward from x to length cap + 1.  Depth
    first, pre-order, the arrows out of each vertex in key order: this visits
    paths in the canonical (lexicographic, prefix first) order.  A path of
    length cap + 1 ending at y means the cap is too small."""
    out = []
    stack = [(x, ())]
    while stack:
        v, arrows = stack.pop()
        if v == y:
            if len(arrows) > cap:
                raise ValueError(f"a path {x!r} ~> {y!r} is longer than {cap}")
            out.append(Path(x, y, arrows))
        if len(arrows) <= cap:
            for a in sorted(q.out_arrows(v), key=Arrow.key, reverse=True):
                stack.append((a.dst, arrows + (a,)))
    return out


def capped(r, cap):
    """A context in which quivers of r's type read cap as their path length
    cap (_pathlen_cap), the bound a miss of paths_between walks to."""
    return patch.object(type(r), "_pathlen_cap", lambda self, x, y: cap)


def check_exact_paths(q, make, grid, fixed):
    """paths_between on q equals the naive list for every pair in grid, and
    a fresh quiver (an equal one that make builds, as a cap is read only on
    a miss) raises for a cap one below the longest path and answers at that
    length.  fixed names the end that a sweep shares: "src" reads the bases
    x ~> y of q, as P(x) does; "dst" reads them as I(y) does, as the
    reversed bases y ~> x of the opposite quiver, which come in that
    quiver's order."""
    for x in grid:
        for y in grid:
            def got(r, cap=None):
                w, a, b = (r, x, y) if fixed == "src" else (r.opposite(), y, x)
                if cap is None:
                    paths = w.paths_between(a, b)
                else:
                    with capped(w, cap):
                        paths = w.paths_between(a, b)
                return list(paths) if fixed == "src" else \
                    sorted(map(reverse_path, paths), key=Path.key)
            want = naive_paths(q, x, y, q._pathlen_cap(x, y))
            longest = max((p.length for p in want), default=0)
            if longest:
                with pytest.raises(ValueError, match="hop budget"):
                    got(make(), cap=longest - 1)
                with pytest.raises(ValueError):
                    naive_paths(q, x, y, longest - 1)
            assert got(q) == want
            assert got(make(), cap=longest) == want


@st.composite
def acyclic_quivers(draw):
    """Arrows i -> j with i < j, repeats allowed, as (n, arrow list)."""
    n = draw(st.integers(2, 6))
    pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                    unique=True).map(sorted)
    return n, draw(st.lists(pair, max_size=12))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(acyclic_quivers(), st.sampled_from(["src", "dst"]))
def test_finite_paths_equal_naive_enumeration(spec, fixed):
    n, arrows = spec
    def make():
        return FiniteQuiver.build(range(n), arrows)
    q = make()
    check_exact_paths(q, make, range(n), fixed)
    check_exact_paths(q.opposite(), lambda: make().opposite(), range(n),
                      fixed)


PRESET_GRIDS = {
    "line": range(-4, 5),
    "ray_in": range(0, 7),
    "ray_out": range(0, 7),
    "zigzag": range(0, 7),
    "ladder": [(t, k) for t in "ab" for k in range(5)],
}


@pytest.mark.parametrize("fixed", ["src", "dst"])
@pytest.mark.parametrize("name", sorted(PRESET_GRIDS))
def test_preset_paths_equal_naive_enumeration(name, fixed):
    make = ak.PRESETS[name]
    check_exact_paths(make(), make, PRESET_GRIDS[name], fixed)
    check_exact_paths(make().opposite(), lambda: make().opposite(),
                      PRESET_GRIDS[name], fixed)


class TwoCycle(QuiverBase):
    """0 <-> 1: not interval-finite, every path search must stop."""

    def contains(self, v):
        return v in (0, 1)

    def out_arrows(self, v):
        return [Arrow(v, 1 - v, f"{v}>{1 - v}")]

    def in_arrows(self, v):
        return [Arrow(1 - v, v, f"{1 - v}>{v}")]

    def _pathlen_cap(self, x, y):
        return 10 * 16


def stored_bases(q) -> int:
    return sum(isinstance(k, tuple) and k[0] == "paths" for k in q._memo)


@pytest.mark.parametrize("fixed", ["src", "dst"])
def test_path_search_stops_at_the_hop_budget(fixed):
    # the budget bounds the walk itself: it stops before storing a basis.
    # "dst" walks the opposite quiver, where a sweep into 0 reads its bases
    line, q = ak.PRESETS["line"](), TwoCycle()
    x, y = (100, 0) if fixed == "src" else (0, 100)
    if fixed == "dst":
        line, q = line.opposite(), q.opposite()
    with pytest.raises(ValueError, match="hop budget"), capped(line, 5):
        line.paths_between(x, y)
    assert stored_bases(line) == 0
    assert len(line.paths_between(x, y)[0].arrows) == 100
    with pytest.raises(ValueError, match="hop budget"):
        q.paths_between(0, 1)
    assert stored_bases(q) == 0


def _random_subsets(pool, seed, count=12):
    rng = random.Random(seed)
    pool = sorted(pool, key=vkey)
    return [set(rng.sample(pool, rng.randrange(len(pool) + 1)))
            for _ in range(count)]


@pytest.mark.parametrize("make", [lambda: ak.linear_quiver(3),
                                  lambda: ak.linear_quiver(5),
                                  ak.kronecker_quiver],
                         ids=["A3", "A5", "kronecker"])
def test_arrows_within_matches_the_arrow_list(make):
    for q in (make(), make().opposite()):
        for i, vs in enumerate(_random_subsets(q.vertices, 5)):
            assert q.arrows_within(vs) == \
                [a for a in q.arrows if a.src in vs and a.dst in vs], i


@pytest.mark.parametrize("name", sorted(ak.PRESETS))
def test_arrows_within_matches_the_local_arrows(name):
    q = ak.PRESETS[name]()
    pool = {e.vertex(r.rid, t) for e in q.ends() for r in e.rays
            for t in range(8)}
    for i, vs in enumerate(_random_subsets(pool, 7)):
        local = {a for v in vs for a in q.out_arrows(v) + q.in_arrows(v)
                 if a.src in vs and a.dst in vs}
        assert q.arrows_within(vs) == sorted(local), i


SORTED_QUIVERS = {**ak.PRESETS, "A3": lambda: ak.linear_quiver(3),
                  "A5": lambda: ak.linear_quiver(5),
                  "kronecker": ak.kronecker_quiver,
                  "unsorted": lambda: FiniteQuiver((1, 2, 3), (
                      Arrow(2, 3, "b"), Arrow(1, 3, "c"), Arrow(1, 2, "a"),
                      Arrow(1, 2, "a2")))}


@pytest.mark.parametrize("name", sorted(SORTED_QUIVERS))
def test_local_arrows_come_sorted(name):
    """out_arrows and in_arrows list by Arrow.key, on the quiver and on its
    opposite, down to depth 11 of every ray, so no caller sorts them."""
    base = SORTED_QUIVERS[name]()
    for q in (base, base.opposite()):
        verts = q.vertices if q.is_finite else {
            e.vertex(r.rid, t) for e in q.ends() for r in e.rays
            for t in range(12)}
        for v in verts:
            for arrows in (q.out_arrows(v), q.in_arrows(v)):
                assert arrows == sorted(arrows, key=Arrow.key), (v, arrows)


@pytest.mark.parametrize("name", ["line", "ray_in", "ray_out", "zigzag"])
def test_a_bool_or_a_float_stays_no_vertex_once_locate_is_memoized(name):
    # True == 1 == 1.0 and all three hash alike, so a memo of locate keyed
    # by the vertex alone would answer for the bool and the float too
    q = ak.PRESETS[name]()
    assert q.locate(1) is not None
    ak.classify_membership(ak.simple_at(q, 1))
    assert q.locate(True) is None and q.locate(1.0) is None
    assert not q.contains(True) and not q.contains(1.0)
    assert q.locate(1) is not None


def test_a_ladder_vertex_with_a_bool_depth_is_refused():
    q = ak.PRESETS["ladder"]()
    assert q.locate(("a", 1)) == ("inf", "a", 1)
    ak.classify_membership(ak.simple_at(q, ("a", 1)))
    assert q.locate(("a", True)) is None and q.locate(("a", 1.0)) is None
    assert not q.contains(("a", True))
    assert not q.contains((["a"], 1))  # an unhashable id is no vertex
