"""Minimal projective presentations and injective copresentations.

golden/presentations.txt records every minimal projective presentation made
while knitting the 11 components of acceptance criterion 10, in the order
they are made: the object's description and the path matrix (side, domain,
codomain and entries), one JSON line each.  Regenerate it only for an
intended change of the relation basis:

    PYTHONPATH=src:tests python -c "import test_presentations as t; t.write_golden()"
"""

import json
import random
from collections import Counter
from pathlib import Path

import pytest

import arknit as ak
import arknit.ar as ar
import arknit.presentations as presentations
import arknit.rep as rep
from arknit import (
    GF,
    QQ,
    Mat,
    VertexSet,
    coker_proj,
    dim_vector,
    equal_on,
    ext_space,
    injective_at,
    ker_inj,
    knit,
    min_inj_copresentation,
    min_proj_presentation,
    nakayama,
    projective_at,
    simple_at,
    thin_rep,
    vkey,
)
from arknit.linalg import rank
from arknit.presentations import check_vanishing
from arknit.rep import PathMatrix, joint_window, proj_sum_basis
from conftest import random_fd_rep, single_rung
from oracles import (
    computed_step,
    naturality_defect,
    standard_by_presentation,
    yoneda_by_paths,
)
from test_hom import _generator

GOLDEN = Path(__file__).parent / "golden" / "presentations.txt"


def _no_trivial_paths(pm):
    return all(p.length >= 1 for row in pm.entries for combo in row
               for (_, p) in combo)


def test_pres_simple_a3(a3):
    pres = min_proj_presentation(simple_at(a3, 2))
    assert pres.pm.side == "proj"
    assert pres.pm.codomain == (2,)
    assert pres.pm.domain == (3,)
    assert _no_trivial_paths(pres.pm)
    assert naturality_defect(pres.cover, (1, 2, 3))
    for v in (1, 2, 3):
        assert rank(pres.cover.component(v)) == pres.obj.dim(v)


def test_pres_injective_a3(a3):
    # I_2 has dims (1,1,0); as a cokernel it is P_1 modulo the socle path
    pres = min_proj_presentation(injective_at(a3, 2))
    assert pres.pm.codomain == (1,)
    assert pres.pm.domain == (3,)
    rebuilt = coker_proj(pres.pm)
    assert dim_vector(rebuilt, (1, 2, 3)) == (1, 1, 0)


def test_pres_simple_kronecker(kron):
    pres = min_proj_presentation(simple_at(kron, 1))
    assert pres.pm.codomain == (1,)
    assert pres.pm.domain == (2, 2)
    cells = [combo for row in pres.pm.entries for combo in row]
    labels = sorted(p.arrows[0].label for combo in cells for (_, p) in combo)
    assert labels == ["alpha", "beta"]


def test_pres_projective_has_no_relations(a3):
    pres = min_proj_presentation(projective_at(a3, 1))
    assert pres.pm.codomain == (1,)
    assert pres.pm.domain == ()


def test_pres_line_tail(line):
    # thin on {v <= 2} is P_2 itself
    region = VertexSet.make(line, (1, 2), [("neg", "v", 0)])
    pres = min_proj_presentation(thin_rep(line, region))
    assert pres.pm.codomain == (2,)
    assert pres.pm.domain == ()


def test_pres_rejects_non_fp(zig, line, line_full):
    region = VertexSet.make(zig, (), [("inf", "even", 0), ("inf", "odd", 0)])
    with pytest.raises(ValueError):
        min_proj_presentation(thin_rep(zig, region))
    with pytest.raises(ValueError):
        min_proj_presentation(thin_rep(line, line_full))  # rrep but not fp


def test_copres_simple_a3(a3):
    cop = min_inj_copresentation(simple_at(a3, 2))
    assert cop.pm.side == "inj"
    assert cop.pm.domain == (2,)
    assert cop.pm.codomain == (1,)
    assert _no_trivial_paths(cop.pm)
    assert naturality_defect(cop.cover, (1, 2, 3))
    for v in (1, 2, 3):
        k = cop.cover.component(v)
        assert rank(k) == cop.obj.dim(v)  # coembedding is mono


def test_copres_projective_kronecker(kron):
    cop = min_inj_copresentation(projective_at(kron, 1))
    assert tuple(sorted(cop.pm.domain)) == (2, 2)
    assert tuple(sorted(cop.pm.codomain)) == (1, 1, 1)
    rebuilt = ker_inj(cop.pm)
    assert dim_vector(rebuilt, (1, 2)) == (1, 2)
    assert equal_on(rebuilt, projective_at(kron, 1), (1, 2))


def test_coembedding_is_natural_mono_and_onto_the_kernel(kron, ladder):
    """The co-embedding, the transposed cover of the dual presentation, on
    objects whose injectives are 2-dimensional at some vertex: natural,
    injective, and its image is the kernel of the path matrix after it."""
    rng = random.Random(5)
    grid = [(t, k) for t in "ab" for k in range(4)]
    cases = [(kron, (1, 2), random_fd_rep(kron, rng, (1, 2)))
             for _ in range(6)]
    cases += [(ladder, grid, mk(ladder, v)) for mk in (injective_at, simple_at)
              for v in (("a", 1), ("b", 1), ("b", 2))]
    for q, verts, w in cases:
        cop = min_inj_copresentation(w)
        assert naturality_defect(cop.cover, verts)
        for v in verts:
            k, d = cop.cover.component(v), cop.pm.component(v)
            assert rank(k) == w.dim(v)
            assert d.mul(k).is_zero()
            assert rank(k) + rank(d) == k.rows


def test_copres_rebuild_roundtrip(a3):
    for a in (1, 2, 3):
        cop = min_inj_copresentation(simple_at(a3, a))
        rebuilt = ker_inj(cop.pm)
        assert dim_vector(rebuilt, (1, 2, 3)) == dim_vector(
            simple_at(a3, a), (1, 2, 3))


def test_pres_rebuild_roundtrip(a3, kron):
    for q, verts, mk in ((a3, (1, 2, 3), simple_at), (kron, (1, 2), simple_at)):
        for a in verts:
            pres = min_proj_presentation(mk(q, a))
            rebuilt = coker_proj(pres.pm)
            assert dim_vector(rebuilt, verts) == dim_vector(mk(q, a), verts)


def test_nakayama_preserves_data(a3):
    pres = min_proj_presentation(simple_at(a3, 2))
    nu = nakayama(pres.pm)
    assert nu.side == "inj"
    assert nu.domain == pres.pm.domain
    assert nu.codomain == pres.pm.codomain
    assert nu.entries == pres.pm.entries
    # on A_3 the translate of S_2 is ker of the flipped matrix: S_3
    t = ker_inj(nu)
    assert dim_vector(t, (1, 2, 3)) == (0, 0, 1)


# ---------------------------------------------------------------------------
# relations read off the incoming stacks, as properties


@pytest.fixture(scope="module")
def relation_cases(a3, a5, kron, zig, line, ray_in, ray_out, ladder):
    """Seeded random fd objects on A3, A5, Kronecker and zigzag (QQ and
    GF(7)), and fp objects on line, ray_in, ray_out and ladder: seeded
    random ones on a window, and infinite ones with relations."""
    rng = random.Random(23)
    cases = []
    for q, verts in ((a3, (1, 2, 3)), (a5, (1, 2, 3, 4, 5)), (kron, (1, 2)),
                     (zig, (0, 1, 2, 3)), (line, (-2, -1, 0, 1)),
                     (ray_in, (0, 1, 2)), (ray_out, (0, 1, 2)),
                     (ladder, (("a", 1), ("a", 0), ("b", 0), ("b", 1)))):
        for F in (QQ, GF(7)):
            cases += [random_fd_rep(q, rng, verts, field=F) for _ in range(3)]
    tails = ((line, (0,), ("neg", "v", 2)),
             (ray_out, (2,), ("inf", "v", 4)),
             (ladder, (("a", 1), ("a", 0)), ("inf", "b", 0)),
             (ladder, (("a", 2), ("b", 1)), ("inf", "b", 3)))
    cases += [thin_rep(q, VertexSet.make(q, expl, [tail]))
              for q, expl, tail in tails]
    cases += [projective_at(ladder, ("a", 2)), simple_at(ladder, ("a", 1))]
    return cases


def _sites(x):
    """x's certified window and its out-neighbours: every vertex where a
    relation can sit."""
    window, _ = joint_window([x])
    q = x.quiver
    return sorted(set(window).union(a.dst for v in window
                                    for a in q.out_arrows(v)), key=vkey)


def test_relations_at_w_count_ext_into_the_simple(relation_cases):
    for x in relation_cases:
        pm, sites = min_proj_presentation(x).pm, _sites(x)
        assert set(pm.domain) <= set(sites)
        for w in sites:
            s_w = simple_at(x.quiver, w, x.field)
            assert pm.domain.count(w) == ext_space(x, s_w).dimension


def test_relations_resolve_the_object(relation_cases):
    """At every window vertex: cover o relations = 0, the relations map is
    injective and its image is the kernel of the cover."""
    for x in relation_cases:
        pres = min_proj_presentation(x)
        for v in _sites(x):
            c, d = pres.cover.component(v), pres.pm.component(v)
            assert c.mul(d).is_zero()
            assert rank(d) == d.cols
            assert rank(d) + x.dim(v) == d.rows


def _columns(m, idx):
    return Mat(m.field, m.rows, len(idx),
               tuple(tuple(row[j] for j in idx) for row in m.entries))


def test_relations_are_independent_modulo_rad_k(relation_cases):
    """The relations at w (the trivial paths of P1(w)) stay independent
    modulo the image of the nontrivial paths of P1(w), which is rad K(w)."""
    for x in relation_cases:
        pm = min_proj_presentation(x).pm
        for w in _sites(x):
            d = pm.component(w)
            basis = proj_sum_basis(x.quiver, pm.domain, w)
            top = [c for c, (_, p) in enumerate(basis) if p.length == 0]
            rad = [c for c, (_, p) in enumerate(basis) if p.length > 0]
            assert len(top) == pm.domain.count(w)
            assert rank(d) - rank(_columns(d, rad)) == len(top)


def test_presentation_classifies_the_object_only(monkeypatch, line, ladder):
    """No membership run on a kernel object: one run, on x itself."""
    seen = []
    classify = rep._classify

    def spy(m):
        seen.append(m)
        return classify(m)
    monkeypatch.setattr(rep, "_classify", spy)
    for x in (simple_at(line, 0),
              thin_rep(ladder, VertexSet.make(ladder, (("a", 1), ("a", 0)),
                                              [("inf", "b", 0)]))):
        seen.clear()
        assert min_proj_presentation(x).pm.domain
        assert seen == [x]


def test_top_check_names_end_ray_and_depth(line, a3, monkeypatch):
    # a cover that misses the top breaks the contract where the top lies,
    # named by end, ray and depth on a ray, and by the vertex alone off one
    monkeypatch.setattr(presentations, "top_generators", lambda m, region: [])
    with pytest.raises(AssertionError, match=r"not onto at -5 "
                                             r"\(end neg, ray v, depth 5\)$"):
        min_proj_presentation(simple_at(line, -5))
    with pytest.raises(AssertionError, match=r"not onto at 2$"):
        min_proj_presentation(simple_at(a3, 2))


def test_relation_check_names_end_ray_and_depth(line):
    # S(-3) has its relation at -4, depth 4 of the ray neg/v
    with pytest.raises(AssertionError, match=r"nonzero relations at -4 "
                                             r"\(end neg, ray v, depth 4\)"):
        check_vanishing(simple_at(line, -3), [-3, -4])
    check_vanishing(simple_at(line, -3), [-5, -6])


# ---------------------------------------------------------------------------
# the presentations of the criterion-10 knits, pinned byte for byte


def criterion_10_knits():
    """(seed, depth) of the 11 knits of acceptance criterion 10, every
    object built afresh so that no presentation is already memoized."""
    a3, a5, kron = ak.linear_quiver(3), ak.linear_quiver(5), ak.kronecker_quiver()
    line, zig, ladder, ray_in, ray_out = (
        ak.PRESETS[name]() for name in
        ("line", "zigzag", "ladder", "ray_in", "ray_out"))
    line_full = VertexSet.make(line, (), [("neg", "v", 0), ("pos", "v", 0)])
    return [
        (projective_at(a3, 3), 6),
        (projective_at(a5, 5), 10),
        (projective_at(kron, 2), 5),
        (projective_at(ray_in, 0), 6),
        (projective_at(ray_out, 0), 4),
        (simple_at(line, 0), 4),
        (injective_at(line, 0), 3),
        (thin_rep(line, line_full), 3),
        (simple_at(ladder, ("b", 1)), 2),
        (thin_rep(zig, VertexSet.make(zig, (0, 1, 2, 3), ())), 3),
        (single_rung(ladder), 3),
    ]


def presentations_made(run) -> list:
    """Every presentation that _min_proj_presentation makes during run()."""
    made, make = [], presentations._min_proj_presentation

    def spy(x):
        made.append(make(x))
        return made[-1]
    presentations._min_proj_presentation = spy
    try:
        run()
    finally:
        presentations._min_proj_presentation = make
    return made


def golden_text() -> str:
    """Under the computed route: a predicted mesh makes its nodes as other
    constructions, so its presentations do not pin the relation basis; and
    with every P_a and I_a flag read off a (co)presentation, so that the
    objects presented do not follow the translate table."""
    predict, standard = ar._predict_mesh, ar._standard_at
    ar._predict_mesh, ar._standard_at = computed_step, standard_by_presentation
    try:
        made = presentations_made(lambda: [knit(seed, depth) for seed, depth
                                           in criterion_10_knits()])
    finally:
        ar._predict_mesh, ar._standard_at = predict, standard
    return "".join(json.dumps([p.obj.describe(), p.pm.spec_dict()]) + "\n"
                   for p in made)


def write_golden():
    GOLDEN.write_text(golden_text())


def test_presentations_match_golden():
    assert golden_text() == GOLDEN.read_text()


def test_derived_path_matrices_are_the_checked_ones():
    """PathMatrix.dual and nakayama store a matrix transformed from a
    checked one and run no check again: rebuilt through the checking
    constructor, each is the same matrix, for every presentation the
    criterion-10 knits make and for its dual, the copresentation side."""
    made = presentations_made(lambda: [knit(seed, depth) for seed, depth
                                       in criterion_10_knits()])
    for pres in made:
        for pm in (pres.pm, pres.pm.dual):
            for d in (pm.dual, nakayama(pm)):
                assert PathMatrix(d.quiver, d.field, d.side, d.domain,
                                  d.codomain, d.entries) == d
    assert len(made) > 100


# ---------------------------------------------------------------------------
# each map evaluated once: the cover by prefix, one stack per window vertex


def test_every_criterion_10_cover_is_the_yoneda_map_by_paths():
    """The cover read by prefix, with the images its vertices share, is the
    Yoneda map read path by path on the joint window at pad 2 of every
    presentation the criterion-10 knits make, and on the arrows out of it,
    where the relations lie."""
    made = presentations_made(lambda: [knit(seed, depth) for seed, depth
                                       in criterion_10_knits()])
    for pres in made:
        x, ys = pres.obj, pres.pm.codomain
        vecs = [_generator(pres, j) for j in range(len(ys))]
        window = joint_window([x])[0]
        for w in set(window).union(a.dst for v in window
                                   for a in x.quiver.out_arrows(v)):
            assert pres.cover.component(w) == yoneda_by_paths(x, ys, vecs, w)
    assert len(made) > 100


def test_one_incoming_stack_per_window_vertex(monkeypatch):
    """The elimination behind top_generators also counts the relations in
    the window, so each presentation of the criterion-10 knits builds the
    incoming stack of its object once at each vertex of its window."""
    calls, stack = Counter(), presentations.incoming_stack

    def spy(m, v):
        calls[m, v] += 1
        return stack(m, v)
    monkeypatch.setattr(presentations, "incoming_stack", spy)
    made = presentations_made(lambda: [knit(seed, depth) for seed, depth
                                       in criterion_10_knits()])
    for pres in made:
        region = joint_window([pres.obj], 1)[0]
        assert [calls[pres.obj, v] for v in region] == [1] * len(region)
    assert len(made) > 100

