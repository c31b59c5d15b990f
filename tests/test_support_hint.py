"""The support hint is a contract: an object is 0 outside m.support().

end_profile skips the rays whose vertices at the cutoff c0 and at c0 + 1
are outside the hint, so a membership certificate is only as sound as the
hint.  These tests check the contract on random constructions of every
evaluator (the leaves P_a, I_a, S_a, thin regions and explicit data; sums,
kernels, cokernels, glues, duals, restrictions and translates of them) over
every infinite preset, and on every node of the eleven knits of acceptance
criterion 10: the object vanishes outside its hint at every vertex down to
depth c0 + 2, and its certificate equals, field by field, the one read with
every ray evaluated (oracles.certificate_every_ray).  A finite hint that
is nonzero at every vertex is the exact support, and the certificate holds
it as it is.  On the same objects, a map that Rep.mat reads off a zero
domain is the one the evaluator builds.
"""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arknit as ak
from arknit.quiver import VertexSet
from arknit.rep import DualRep, _hint

from conftest import single_rung
from oracles import certificate_every_ray
from test_periodicity import COMPOSITES, LEAVES, objects

PRESETS = {name: make() for name, make in sorted(ak.PRESETS.items())}


def vertices_to_depth(q, depth):
    """Every vertex of q; on an infinite quiver, those down to depth."""
    if q.is_finite:
        return q.vertices
    rays = [(e.eid, r.rid, 0) for e in q.ends() for r in e.rays]
    return VertexSet.make(q, (), rays).members(depth)


def check_zero_domains(m):
    """Where the domain of m's evaluator is 0 (a.dst for a DualRep, whose
    base reads the reversed arrow, else a.src), the map that Rep.mat reads
    off the dimensions is the one _mat_at builds, on every arrow down to
    depth c0 + 2, the depth of m's joint window."""
    depth = max(m.structural_depth(), 2) + 3
    for a in m.quiver.arrows_within(vertices_to_depth(m.quiver, depth)):
        if not m.dim(a.dst if isinstance(m, DualRep) else a.src):
            assert m.mat(a) == m._mat_at(a), (m.describe(), a)


def check_hint(m):
    cert = ak.classify_membership(m)
    hint = m.support()
    depth = max(m.structural_depth(), 2) + 3  # c0 + 2
    assert [v for v in vertices_to_depth(m.quiver, depth)
            if not hint.contains(v) and m.dim(v)] == [], m.describe()
    want = certificate_every_ray(m)
    for f in cert._fields:
        assert getattr(cert, f) == getattr(want, f), (m.describe(), f)


@pytest.mark.parametrize("kind", LEAVES + COMPOSITES)
@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_random_objects_vanish_outside_their_hint(kind, data):
    q = PRESETS[data.draw(st.sampled_from(sorted(PRESETS)))]
    check_hint(data.draw(objects(q, 2, kind)))


@pytest.mark.parametrize("kind", LEAVES + COMPOSITES)
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_random_objects_read_zero_domains_off_the_dimensions(kind, data):
    q = PRESETS[data.draw(st.sampled_from(sorted(PRESETS)))]
    check_zero_domains(data.draw(objects(q, 2, kind)))


def _line_full(q):
    return ak.thin_rep(q, VertexSet.make(q, (), [("neg", "v", 0),
                                                 ("pos", "v", 0)]))


KNITS = {
    "a3_P3_d6": (lambda: ak.projective_at(ak.linear_quiver(3), 3), 6),
    "a5_P5_d10": (lambda: ak.projective_at(ak.linear_quiver(5), 5), 10),
    "kronecker_P2_d5": (lambda: ak.projective_at(ak.kronecker_quiver(), 2), 5),
    "ray_in_P0_d6": (lambda: ak.projective_at(PRESETS["ray_in"], 0), 6),
    "ray_out_P0_d4": (lambda: ak.projective_at(PRESETS["ray_out"], 0), 4),
    "line_S0_d4": (lambda: ak.simple_at(PRESETS["line"], 0), 4),
    "line_I0_d3": (lambda: ak.injective_at(PRESETS["line"], 0), 3),
    "line_full_d3": (lambda: _line_full(PRESETS["line"]), 3),
    "ladder_Sb1_d2": (lambda: ak.simple_at(PRESETS["ladder"], ("b", 1)), 2),
    "zigzag_0123_d3": (lambda: ak.thin_rep(PRESETS["zigzag"], VertexSet.make(
        PRESETS["zigzag"], (0, 1, 2, 3), ())), 3),
    "ladder_rung0_d3": (lambda: single_rung(PRESETS["ladder"]), 3),
}


@pytest.mark.parametrize("name", KNITS)
def test_every_knit_node_vanishes_outside_its_hint(name):
    seed, depth = KNITS[name]
    for node in ak.knit(seed(), depth).nodes:
        check_hint(node.rep)


@pytest.mark.parametrize("name", KNITS)
def test_every_knit_node_reads_zero_domains_off_the_dimensions(name):
    seed, depth = KNITS[name]
    for node in ak.knit(seed(), depth).nodes:
        check_zero_domains(node.rep)


def holds_its_hint(m) -> bool:
    """Whether m's certificate holds its support hint as the exact support;
    either way that support is the one every vertex of the hint gives."""
    cert = ak.classify_membership(m)
    assert cert.support == certificate_every_ray(m).support, m.describe()
    return cert.support is _hint(m)


def test_a_finite_hint_nonzero_everywhere_is_the_exact_support():
    a3, zig, line = ak.linear_quiver(3), PRESETS["zigzag"], PRESETS["line"]
    fd = ak.explicit_fd(zig, {0: 1, 1: 2, 2: 1},
                        {"1>0": ak.Mat.from_rows(ak.QQ, [[1, 0]])})
    held = [ak.simple_at(zig, 1), ak.simple_at(line, -2), fd,
            ak.projective_at(a3, 1), ak.injective_at(a3, 2)]
    assert [holds_its_hint(m) for m in held] == [True] * len(held)
    # P_1 / P_3 is 0 at 3, inside its hint; P_0 on the line has a tail
    quot = ak.coker_proj(ak.path_matrix(
        a3, ak.QQ, "proj", [3], [1], [[[(1, a3.paths_between(1, 3)[0])]]]))
    assert not holds_its_hint(quot) and not holds_its_hint(
        ak.projective_at(line, 0))
    assert ak.classify_membership(quot).support.explicit == {1, 2}
