import random

import pytest

import arknit as ak
from arknit.quiver import FiniteQuiver, VertexSet, classify_subquiver


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
                assert q.reaches(x, y) == (count[y] > 0)
                assert len(q.opposite().paths_between(y, x)) == count[y]


def test_finite_quiver_rejects_cycles():
    with pytest.raises(ValueError):
        FiniteQuiver.build([1, 2], [(1, 2), (2, 1)])


def test_closures_on_a3(a3):
    pred = a3.pred_closure([2])
    assert sorted(pred.members()) == [1, 2]
    succ = a3.succ_closure([2])
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
    assert line.reaches(5, -2) and not line.reaches(-2, 5)
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
