"""Morphisms, kernels/cokernels, short exact sequences, gluing."""

import random

import pytest

from arknit import (
    GF,
    QQ,
    EvalRangeError,
    SES,
    Mat,
    VertexSet,
    classify_membership,
    dim_vector,
    direct_sum,
    equal_on,
    glue_rep,
    glue_ses,
    hom_space,
    identity_morphism,
    image,
    injective_at,
    morphism_from_components,
    projective_at,
    restriction_ses,
    simple_at,
    standard_ext,
    tau_inv,
    thin_rep,
    verify_exact,
    zero_morphism,
)
from arknit.linalg import coker_projection
from arknit.quiver import vkey
from arknit.rep import joint_window

from conftest import random_fd_rep
from oracles import (
    cokernel,
    cokernel_by_lift,
    is_zero_on,
    kernel,
    naturality_defect,
    same_on,
    scaled,
    split_ses,
)


def _one(field=QQ):
    return Mat.from_rows(field, [[1]])


def test_identity_and_zero(a3):
    p = projective_at(a3, 1)
    f = identity_morphism(p)
    z = zero_morphism(p, p)
    for v in (1, 2, 3):
        assert f.component(v).entries == ((QQ.one,),)
        assert z.component(v).is_zero()
    assert naturality_defect(f, (1, 2, 3))
    assert is_zero_on(f.add(scaled(f, -1)), (1, 2, 3))


def test_components_are_carried_along_each_ray_past_the_deepest(line, a3):
    # the identity of the all-ones object of line, given on -2..2, is
    # carried along both rays; its depth is that of its deepest component
    allk = thin_rep(line, VertexSet.make(line, (), [("neg", "v", 0),
                                                     ("pos", "v", 0)]))
    f = morphism_from_components(allk, allk, {v: _one() for v in range(-2, 3)})
    assert f.depth_bound() == 2
    assert all(f.component(v) == _one() for v in (7, -40, 3000, 8))
    g = morphism_from_components(allk, allk, {3: _one()})
    for v, message in ((1, "ray pos/v at depth 0"),
                       (-1, "ray neg/v at depth 1")):
        with pytest.raises(EvalRangeError,
                           match=f"morphism window does not reach {message}"):
            g.component(v)
    p1 = projective_at(a3, 1)
    with pytest.raises(EvalRangeError, match="morphism has no component at "
                                             "2 and no rule"):
        morphism_from_components(p1, p1, {1: _one()}).component(2)


def test_radical_inclusion_kernel_coker_image(a3):
    p1, p2 = projective_at(a3, 1), projective_at(a3, 2)
    incl = morphism_from_components(
        p2, p1, {1: Mat.zeros(QQ, 1, 0), 2: _one(), 3: _one()})
    assert naturality_defect(incl, (1, 2, 3))

    k, ki = kernel(incl)
    assert dim_vector(k, (1, 2, 3)) == (0, 0, 0)
    c, cp = cokernel(incl)
    assert dim_vector(c, (1, 2, 3)) == (1, 0, 0)  # coker = top = S_1
    im, ii = image(incl)
    assert dim_vector(im, (1, 2, 3)) == (0, 1, 1)
    assert naturality_defect(ki, (1, 2, 3))
    assert naturality_defect(cp, (1, 2, 3))
    assert naturality_defect(ii, (1, 2, 3))


def test_rank_nullity_on_random_homs(a3, kron):
    rng = random.Random(3)
    for q, verts in ((a3, (1, 2, 3)), (kron, (1, 2))):
        for _ in range(6):
            m = random_fd_rep(q, rng, verts)
            n = random_fd_rep(q, rng, verts)
            h = hom_space(m, n)
            for f in h.basis:
                k, _ = kernel(f)
                im, _ = image(f)
                c, _ = cokernel(f)
                for v in verts:
                    assert k.dim(v) + im.dim(v) == m.dim(v)
                    assert c.dim(v) == n.dim(v) - im.dim(v)


def test_composition_order(a3):
    # f.then(g) applies f first
    p1 = projective_at(a3, 1)
    s1 = simple_at(a3, 1)
    proj = morphism_from_components(
        p1, s1, {1: _one(), 2: Mat.zeros(QQ, 0, 1), 3: Mat.zeros(QQ, 0, 1)})
    back = zero_morphism(s1, p1)
    comp = proj.then(back)
    assert comp.src is p1 and comp.dst is p1
    assert is_zero_on(comp, (1, 2, 3))


def test_glue_ses_realizes_nonsplit_extension(a3):
    (a12,) = [a for a in a3.out_arrows(1) if a.dst == 2]
    sub, quot = simple_at(a3, 2), simple_at(a3, 1)
    mid, ses = glue_ses(sub, quot, ((a12, _one()),))
    assert dim_vector(mid, (1, 2, 3)) == (1, 1, 0)
    assert equal_on(mid, injective_at(a3, 2), (1, 2, 3))
    rep = verify_exact(ses, (1, 2, 3))
    assert rep["exact"]
    assert ses.cocycle_at(a12).entries == ((QQ.one,),)


def test_split_ses_middle_is_sum(a3):
    sub, quot = simple_at(a3, 2), simple_at(a3, 1)
    ses = split_ses(sub, quot)
    assert dim_vector(ses.middle, (1, 2, 3)) == (1, 1, 0)
    rep = verify_exact(ses, (1, 2, 3))
    assert rep["exact"]
    (a12,) = [a for a in a3.out_arrows(1) if a.dst == 2]
    assert ses.middle.mat(a12).is_zero()


def test_verify_exact_names_each_failed_condition(a3):
    # over S(1): identity maps are mono and epi, but their composite is not
    # zero and 1 + 1 is not dim S(1); zero maps are neither mono nor epi
    s = simple_at(a3, 1)
    ident, zero = identity_morphism(s), zero_morphism(s, s)
    assert verify_exact(SES(s, s, s, ident, ident), (1, 2, 3)) == {
        "exact": False, "mono": True, "epi": True,
        "composite_zero": False, "middle_dims": False}
    assert verify_exact(SES(s, s, s, zero, zero), (1, 2, 3)) == {
        "exact": False, "mono": False, "epi": False,
        "composite_zero": True, "middle_dims": False}


def test_restriction_ses(a3):
    p1 = projective_at(a3, 1)
    omega = VertexSet.make(a3, (2, 3), ())
    comp = VertexSet.make(a3, (1,), ())
    ses = restriction_ses(p1, omega, comp)
    assert dim_vector(ses.sub, (1, 2, 3)) == (0, 1, 1)
    assert dim_vector(ses.quot, (1, 2, 3)) == (1, 0, 0)
    assert verify_exact(ses, (1, 2, 3))["exact"]


def test_standard_ext_on_all_ones_line(line, line_full):
    m = thin_rep(line, line_full)
    omega, ses = standard_ext(m)
    assert omega.tails == (("neg", "v", 0),)
    window = tuple(range(-4, 5))
    assert verify_exact(ses, window)["exact"]
    assert naturality_defect(ses.incl, window)
    assert naturality_defect(ses.proj, window)


@pytest.mark.parametrize("build", [
    lambda q: direct_sum(injective_at(q, 0), injective_at(q, 3)),
    lambda q: glue_rep(injective_at(q, 0), injective_at(q, 0), (
        (next(a for a in q.out_arrows(3) if a.label == "3>2"), _one()),)),
], ids=["dim_changes", "transition_changes"])
def test_standard_ext_walks_a_tail_down_to_its_change(line, build):
    # each object's injective tail is stable past 3: below it I(0) + I(3)
    # drops a dimension, and the glued I(0)s take the cocycle on 3>2, so
    # the floor walk stops there and sigma is n >= 3
    m = build(line)
    omega, ses = standard_ext(m)
    assert omega.describe() == "{0, 1, 2}"
    assert ses.quot.support().describe() == "{n >= 3}"
    assert classify_membership(ses.sub).verdict == "fd"
    assert classify_membership(ses.quot).verdict == "fc"
    assert verify_exact(ses, tuple(range(-2, 9)))["exact"]


def test_morphism_linear_algebra(a3):
    p = projective_at(a3, 1)
    f = identity_morphism(p)
    g = f.add(f)
    for v in (1, 2, 3):
        assert g.component(v).entries == ((QQ.of(2),),)
    assert is_zero_on(g.add(scaled(g, -1)), (1, 2, 3))
    assert same_on(f, identity_morphism(p), (1, 2, 3))
    assert f.is_invertible_on((1, 2, 3))


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
@pytest.mark.parametrize("qname", ["a3", "kron"])
def test_cokernel_matches_the_evaluation_it_replaced(request, qname, field):
    # coker f = D ker(D f): the same dims, arrow matrices and projection as
    # the cokernel evaluated on its own, on seeded random maps between fd
    # objects
    q = request.getfixturevalue(qname)
    verts = sorted(q.vertices, key=vkey)
    rng = random.Random(29)
    acting = 0
    for _ in range(10):
        m, n = (random_fd_rep(q, rng, verts, 3, field) for _ in range(2))
        f = None
        for b in hom_space(m, n).basis:
            g = scaled(b, rng.randrange(-2, 3))
            f = g if f is None else f.add(g)
        if f is None:
            continue
        C, proj = cokernel(f)
        dims, mats = cokernel_by_lift(f, verts)
        assert {v: C.dim(v) for v in verts} == dims
        assert {a: C.mat(a).entries for a in mats} == mats
        for v in verts:
            assert proj.component(v).entries == \
                coker_projection(f.component(v))[0].entries
        acting += any(any(any(row) for row in mat) for mat in mats.values())
    assert acting >= 3  # cokernels with a nonzero arrow map


@pytest.mark.parametrize("qname, verts", [
    ("a3", ("1", "2", "3")), ("kron", ("1", "2")), ("line", ("0", "1", "-1")),
    ("ladder", ("a0", "b0", "b1"))])
def test_coker_proj_matches_the_evaluation_it_replaced(request, qname, verts):
    # tau_inv is the cokernel of a path matrix between sums of projectives
    q = request.getfixturevalue(qname)
    checked = 0
    for v in map(q.parse_vertex, verts):
        for make in (simple_at, projective_at, injective_at):
            w = make(q, v)
            if classify_membership(w).verdict not in ("fc", "fd"):
                continue
            try:
                C = tau_inv(w)
            except ValueError:  # w is injective
                continue
            window, _ = joint_window([C])
            dims, mats = cokernel_by_lift(C.f, window)
            assert {x: C.dim(x) for x in window} == dims
            assert {a: C.mat(a).entries for a in mats} == mats
            checked += 1
    assert checked >= 2
