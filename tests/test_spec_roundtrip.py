"""Every spec an object emits parses back to the same spec.

A constructor is the one place that checks its data, and the parser only
reads JSON shapes and names, so an object that the Python API accepts has
a spec_dict that parse_rep reads back to the same spec_dict.  The objects
are drawn over every preset and over QQ and GF(7): explicit data with any
arrow label (one at no vertex of the dims among them), thin regions, sums,
duals, restrictions, gluings (rung families on the ladder) and the
cokernels and kernels of path matrices.  A draw that its constructor
refuses is discarded.
"""
import json
from fractions import Fraction

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from arknit import (GF, QQ, Mat, ParseError, Path, RungFamily, VertexSet,
                    coker_proj, direct_sum, dualize, explicit_fd, glue_rep,
                    injective_at, ker_inj, linear_quiver, parse_quiver,
                    parse_rep, path_matrix, projective_at, restrict,
                    simple_at, thin_rep, zero_rep)

QUIVERS = {"line": {"preset": "line"}, "ray_out": {"preset": "ray_out"},
           "ray_in": {"preset": "ray_in"}, "zigzag": {"preset": "zigzag"},
           "ladder": {"preset": "ladder"},
           "kronecker": {"preset": "kronecker"},
           "linear": {"preset": "linear", "n": 4}}
FIELDS = {"QQ": QQ, "GF(7)": GF(7)}


def window(q) -> list:
    """A few vertices of q: all of a finite quiver, depths 0..3 of each ray
    of an infinite one."""
    if q.is_finite:
        return list(q.vertices)
    return [e.vertex(r.rid, t) for e in q.ends() for r in e.rays
            for t in range(4)]


def coefficients():
    """Scalars as the API takes them: a constructor stores each as F.of(c),
    so 9 over GF(7) is 2."""
    return st.sampled_from([0, 1, -1, 2, 3, 9, Fraction(1, 2)])


def scalars(F):
    return coefficients().map(F.of)


@st.composite
def mats(draw, F, rows, cols):
    return Mat(F, rows, cols, tuple(
        tuple(draw(scalars(F)) for _ in range(cols)) for _ in range(rows)))


@st.composite
def regions(draw, q):
    verts = window(q)
    rays = [(e.eid, r.rid) for e in q.ends() for r in e.rays] + [("inf", "zz")]
    explicit = draw(st.lists(st.sampled_from(verts), max_size=3))
    tails = [ray + (draw(st.integers(0, 3)),) for ray in
             draw(st.lists(st.sampled_from(rays), max_size=2))] \
        if not q.is_finite else []
    return VertexSet.make(q, explicit, tails)


@st.composite
def explicit_objects(draw, q, F):
    verts = window(q)
    dims = {v: draw(st.integers(0, 2)) for v in
            draw(st.lists(st.sampled_from(verts), max_size=3, unique=True))}
    arrows = {a.label: a for v in verts for a in q.out_arrows(v)}
    out = {}
    for lbl in draw(st.lists(st.sampled_from(sorted(arrows) + ["zz"]),
                             max_size=3, unique=True)):
        a = arrows.get(lbl)
        shape = (dims.get(a.dst, 0), dims.get(a.src, 0)) if a else (1, 1)
        out[lbl] = draw(mats(F, *shape))
    return explicit_fd(q, dims, out, F)


@st.composite
def path_matrix_objects(draw, q, F):
    side = draw(st.sampled_from(["proj", "inj"]))
    verts = window(q)
    dom = draw(st.lists(st.sampled_from(verts), max_size=2))
    cod = draw(st.lists(st.sampled_from(verts), max_size=2))
    entries = []
    for y in cod:
        row = []
        for x in dom:
            paths = q.paths_between(y, x)
            row.append([(draw(coefficients()), p) for p in draw(st.lists(
                st.sampled_from(paths), max_size=2))] if paths else [])
        entries.append(row)
    pm = path_matrix(q, F, side, dom, cod, entries)
    # the other side is refused at /side
    kind = draw(st.sampled_from([coker_proj, ker_inj]))
    return kind(pm)


@st.composite
def rung_glues(draw, q, F):
    """A glue of a thin b-tail under a thin a-tail of the ladder, along the
    rungs from a start on."""
    start = draw(st.integers(0, 3))
    sub, quot = (thin_rep(q, VertexSet.make(q, (), [(
        "inf", rid, draw(st.integers(0, start)))]), F) for rid in "ba")
    fam = RungFamily("inf", draw(st.sampled_from(["rung", "nope"])), start,
                     draw(coefficients()))
    return glue_rep(sub, quot, (), [fam])


@st.composite
def objects(draw, q, F, depth=2):
    leaves = (["rung_glue"] if q.name == "ladder" else []) + [
        "explicit_fd", "path_matrix", "thin", "proj", "inj", "simple", "zero"]
    kind = draw(st.sampled_from(
        leaves + (["sum", "dual", "restrict", "glue"] if depth else [])))
    verts = window(q)
    if kind == "zero":
        return zero_rep(q, F)
    if kind in ("proj", "inj", "simple"):
        at = {"proj": projective_at, "inj": injective_at, "simple": simple_at}
        return at[kind](q, draw(st.sampled_from(verts)), F)
    if kind == "explicit_fd":
        return draw(explicit_objects(q, F))
    if kind == "thin":
        return thin_rep(q, draw(regions(q)), F)
    if kind == "path_matrix":
        return draw(path_matrix_objects(q, F))
    if kind == "rung_glue":
        return draw(rung_glues(q, F))
    if kind == "sum":
        return direct_sum(zero_rep(q, F), *draw(st.lists(
            objects(q, F, depth - 1), max_size=3)))
    if kind == "dual":
        return dualize(draw(objects(q.opposite(), F, depth - 1)))
    if kind == "restrict":
        return restrict(draw(objects(q, F, depth - 1)), draw(regions(q)))
    sub = draw(objects(q, F, depth - 1))
    quot = draw(objects(q, F, depth - 1))
    cocycle = []
    for a in draw(st.lists(st.sampled_from(
            [a for v in verts for a in q.out_arrows(v)]), max_size=2,
            unique=True)):
        rows, cols = sub.dim(a.dst), quot.dim(a.src)
        if draw(st.integers(0, 9)) == 0:  # a wrong shape, now and then
            rows += 1
        cocycle.append((a, draw(mats(F, rows, cols))))
    return glue_rep(sub, quot, cocycle)


@st.composite
def built(draw, q, F):
    """An object drawn and built; a constructor's refusal (a ParseError, a
    ValueError) rejects the draw."""
    try:
        return draw(objects(q, F))
    except ValueError:
        reject()


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("preset", sorted(QUIVERS))
def test_every_emitted_spec_parses_back(preset, field):
    q, F = parse_quiver(QUIVERS[preset]), FIELDS[field]

    @settings(max_examples=36, deadline=None, derandomize=True,
              database=None)
    @given(built(q, F))
    def roundtrip(x):
        spec = x.spec_dict()
        assert parse_rep(q, json.loads(json.dumps(spec)), F).spec_dict() \
            == spec

    roundtrip()


# ---------------------------------------------------------------------------
# what the API builds outside the grammar: refused, or stored in the form
# that the spec writes


def test_a_region_vertex_outside_the_quiver_is_refused():
    q = linear_quiver(3)
    with pytest.raises(ParseError, match=r"^/explicit: vertex 99 outside "
                                         r"the quiver$"):
        thin_rep(q, VertexSet.make(q, [1, 99]))


@pytest.mark.parametrize("side", ["domain", "codomain"])
def test_a_path_matrix_vertex_outside_the_quiver_is_refused(side):
    dom, cod = ([1, 99], []) if side == "domain" else ([], [1, 99])
    with pytest.raises(ParseError, match=rf"^/{side}/1: vertex 99 outside "
                                         r"the quiver$"):
        coker_proj(path_matrix(linear_quiver(3), QQ, "proj", dom, cod,
                               [[]] * len(cod)))


def ladder_tails(F):
    """The thin b-tail and a-tail of the ladder from depth 0."""
    q = parse_quiver({"preset": "ladder"})
    return tuple(thin_rep(q, VertexSet.make(q, (), [("inf", r, 0)]), F)
                 for r in "ba")


def test_a_coefficient_is_stored_as_a_field_element():
    q, F = linear_quiver(3), GF(7)
    m = coker_proj(path_matrix(q, F, "proj", [1], [1],
                               [[[(9, Path(1, 1, ()))]]]))
    glue = glue_rep(*ladder_tails(F), (), [RungFamily("inf", "rung", 0, 9)])
    assert m.spec_dict()["coker_proj"]["entries"] == [
        [[["2", {"src": "1", "arrows": []}]]]]
    assert glue.spec_dict()["glue"]["families"] == [["inf", "rung", 0, "2"]]
    for x in (m, glue):
        spec = x.spec_dict()
        assert parse_rep(x.quiver, json.loads(json.dumps(spec)),
                         F).spec_dict() == spec


def test_a_coefficient_that_is_no_scalar_is_refused_at_its_pointer():
    with pytest.raises(ParseError, match=r"^/entries/0/0/0/0: bad scalar "
                                         r"0\.5: write an integer"):
        path_matrix(linear_quiver(3), QQ, "proj", [1], [1],
                    [[[(0.5, Path(1, 1, ()))]]])
    with pytest.raises(ParseError, match=r"^/families/0/3: bad scalar \[1\]"):
        glue_rep(*ladder_tails(QQ), (), [RungFamily("inf", "rung", 0, [1])])
