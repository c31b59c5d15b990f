"""Hom spaces, endomorphism algebras, isomorphism tests, decomposition."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import arknit as ak
import arknit.ext as ext_mod
import arknit.hom as hom
import arknit.presentations as presentations
from arknit import (
    GF,
    QQ,
    decompose,
    decompose_report,
    dim_vector,
    direct_sum,
    end_algebra,
    explicit_fd,
    hom_space,
    identity_morphism,
    injective_at,
    iso_test,
    min_proj_presentation,
    morphism_from_components,
    projective_at,
    simple_at,
    thin_rep,
    Mat,
    VertexSet,
)

from arknit.linalg import kernel_basis, rank, solve_matrix
from arknit.morphism import Morphism
from arknit.presentations import yoneda
from arknit.quiver import Path
from arknit.rep import joint_window, proj_sum_basis
from conftest import random_fd_rep
from oracles import (
    hom_dim_brute,
    hom_routes,
    iso_by_pair_search,
    natural_maps_on,
    naturality_defect,
    route_basis,
    same_on,
)
from test_periodicity import QUIVERS, objects


# ---------------------------------------------------------------------------
# evaluation rules for projectives and injectives


def test_hom_from_projective_is_evaluation(a3, rng_reps):
    for n in rng_reps(a3, (1, 2, 3), count=4, seed=5):
        for a in (1, 2, 3):
            h = hom_space(projective_at(a3, a), n)
            assert h.dimension == n.dim(a)


def test_hom_into_injective_is_evaluation(a3, rng_reps):
    for n in rng_reps(a3, (1, 2, 3), count=4, seed=7):
        for a in (1, 2, 3):
            h = hom_space(n, injective_at(a3, a))
            assert h.dimension == n.dim(a)


def test_hom_proj_inj_frozen_values(a3):
    assert hom_space(projective_at(a3, 2), injective_at(a3, 2)).dimension == 1
    assert hom_space(projective_at(a3, 2), injective_at(a3, 1)).dimension == 0


def test_hom_between_projectives_counts_paths(line):
    # Hom(P_x, P_y) has one basis element per path y ~> x
    assert hom_space(projective_at(line, 0), projective_at(line, 5)).dimension == 1
    assert hom_space(projective_at(line, 5), projective_at(line, 0)).dimension == 0
    assert hom_space(projective_at(line, 3), projective_at(line, 3)).dimension == 1


def test_hom_dims_match_oracle(a3, kron):
    rng = random.Random(17)
    for q, verts in ((a3, (1, 2, 3)), (kron, (1, 2))):
        for _ in range(8):
            m = random_fd_rep(q, rng, verts)
            n = random_fd_rep(q, rng, verts)
            h = hom_space(m, n)
            assert h.dimension == hom_dim_brute(q, m, n, verts)
            assert len(h.basis) == h.dimension
            for f in h.basis:
                assert naturality_defect(f, verts)


def test_routes_agree(a3, line, ray_in, ladder):
    m = simple_at(a3, 2)
    n = injective_at(a3, 2)
    dims = {r: len(route_basis(m, n, r)[0])
            for r in ("presentation", "copresentation", "window")}
    assert len(set(dims.values())) == 1
    # fc codomains on infinite quivers: the copresentation route (the
    # presentation route on the duals) agrees with every other route, and
    # its basis morphisms are natural on the window
    for q, verts in ((line, (-1, 0, 1)), (ray_in, (0, 1, 2)),
                     (ladder, (("a", 0), ("a", 1), ("b", 0), ("b", 1)))):
        for field in (QQ, GF(3)):
            for nv in verts:
                n = injective_at(q, nv, field)
                for make in (projective_at, injective_at, simple_at):
                    for mv in verts:
                        m = make(q, mv, field)
                        bases = {r: route_basis(m, n, r)[0]
                                 for r in hom_routes(m, n)}
                        hb = hom_space(m, n)
                        assert set(map(len, bases.values())) == \
                            {hb.dimension}
                        for f in bases["copresentation"]:
                            assert naturality_defect(f, hb.window)


def test_route_basis_refuses_a_route_it_does_not_build(a3):
    # HomBasis builds the window under any name but presentation, so a
    # name that is no route must not quietly build a second window basis
    m, n = simple_at(a3, 2), injective_at(a3, 2)
    for route in ("Window", "socle", ""):
        with pytest.raises(ValueError, match="no Hom route named"):
            route_basis(m, n, route)


def test_hom_window_is_built_only_when_read(a3, monkeypatch):
    calls = []
    window = ext_mod.joint_window

    def spy(objs, *pad):
        calls.append(len(objs))
        return window(objs, *pad)

    # the pad-2 window is the pair's (ext.arrow_pair), pad 3 is hom's own
    monkeypatch.setattr(ext_mod, "joint_window", spy)
    monkeypatch.setattr(hom, "joint_window", spy)
    m, n = simple_at(a3, 2), injective_at(a3, 2)
    hb = hom_space(m, n)
    assert calls == []
    # the count reads the pad-2 window once (no pad-3 check: m is fd)
    assert hb.dimension == 1 and calls == [2]
    # the space keeps the window that the count read
    assert hb.window == hb.window == window((m, n))[0] and calls == [2]


def test_hom_dimension_of_an_fd_domain_builds_no_basis(line, line_full,
                                                      monkeypatch):
    """Reading only the dimension of Hom out of an fd object is one rank of
    the arrow complex on the joint window: no presentation, no morphism."""
    calls = []
    present = presentations._min_proj_presentation
    init = Morphism.__init__

    def spy_presentation(x):
        calls.append("presentation")
        return present(x)

    def spy_init(self, *args, **kwargs):
        calls.append("morphism")
        init(self, *args, **kwargs)

    monkeypatch.setattr(presentations, "_min_proj_presentation",
                        spy_presentation)
    monkeypatch.setattr(Morphism, "__init__", spy_init)
    m = explicit_fd(line, {1: 1, 0: 2, -1: 1},
                    {"1>0": Mat.from_rows(QQ, [[1], [0]]),
                     "0>-1": Mat.from_rows(QQ, [[0, 1]])})
    targets = (simple_at(line, 0), projective_at(line, 0),
               injective_at(line, 1), thin_rep(line, line_full))
    dims = [hom_space(m, n).dimension for n in targets]
    assert calls == []
    assert dims == [len(hom_space(m, n).basis) for n in targets]
    assert "presentation" in calls and "morphism" in calls


def test_hom_with_infinite_supports(line, line_full):
    allk = thin_rep(line, line_full)
    assert hom_space(allk, allk).dimension == 1
    assert hom_space(allk, injective_at(line, 1)).dimension == 1
    assert hom_space(projective_at(line, 0), allk).dimension == 1
    assert hom_space(allk, simple_at(line, 0)).dimension == 0


# ---------------------------------------------------------------------------
# endomorphism algebras


def test_end_of_indecomposable_is_local(a3, line):
    for m in (projective_at(a3, 1), injective_at(a3, 2), simple_at(line, 4)):
        E = end_algebra(m)
        assert E.dimension == 1
        assert E.is_local
        assert len(E.radical) == 0


def test_end_of_simple_square_is_matrix_algebra(a3):
    E = end_algebra(direct_sum(simple_at(a3, 2), simple_at(a3, 2)))
    assert E.dimension == 4
    assert len(E.radical) == 0  # semisimple
    assert not E.is_local


def test_end_of_p1_plus_its_top(a3):
    # Hom(P_1,S_1)=1 and Hom(S_1,P_1)=0, so dim End = 1 + 1 + 1 = 3
    E = end_algebra(direct_sum(projective_at(a3, 1), simple_at(a3, 1)))
    assert E.dimension == 3
    assert len(E.radical) == 1
    assert not E.is_local


def _kronecker_modules(kron, F):
    """Kronecker modules with End of dimension >= 2: alpha = I, beta a
    nilpotent Jordan block (End = k[x]/x^2), and S(2) + S(2) (End = M_2(k))."""
    jordan = explicit_fd(kron, {1: 2, 2: 2}, {
        "alpha": Mat.identity(F, 2),
        "beta": Mat.from_rows(F, [[0, 1], [0, 0]])}, field=F)
    s2 = explicit_fd(kron, {1: 0, 2: 1}, field=F)
    return jordan, direct_sum(s2, s2)


def _end_objects(kron, line, F):
    """(object, route of its Hom space, dim End): the Kronecker modules, and
    one object per route on the line."""
    jordan, s2s2 = _kronecker_modules(kron, F)
    full = thin_rep(line, VertexSet.make(line, (), [("neg", "v", 0),
                                                    ("pos", "v", 0)]), F)
    i0 = injective_at(line, 0, F)
    return [(jordan, "presentation", 2), (s2s2, "presentation", 4),
            (direct_sum(projective_at(line, 0, F), projective_at(line, 1, F)),
             "presentation", 3),
            (direct_sum(i0, i0), "window", 4),
            (direct_sum(full, full), "window", 4)]


@pytest.mark.parametrize("F", [QQ, GF(7)], ids=repr)
def test_end_algebra_table_reproduces_products(kron, line, F):
    """End coordinates are read at the Hom route's anchor; the identity and
    every product of two basis morphisms come back at each vertex of its
    window."""
    for m, route, dim in _end_objects(kron, line, F):
        hb = hom_space(m, m)
        assert (hb.route, hb.dimension) == (route, dim)
        E = end_algebra(m)
        assert E.dimension == dim

        def combo(coords, v):
            acc = Mat.zeros(F, m.dim(v), m.dim(v))
            for c, f in zip(coords, E.basis):
                acc = acc.add(f.component(v).scale(c))
            return acc

        for v in hb.window:
            assert combo(E.identity, v).entries == \
                Mat.identity(F, m.dim(v)).entries
            for i, fi in enumerate(E.basis):
                for j, fj in enumerate(E.basis):
                    prod = fi.component(v).mul(fj.component(v))
                    assert combo(E.table[i][j], v).entries == prod.entries


def test_window_route_budget_failure_names_dims_and_depth(line, monkeypatch):
    # a Hom dimension that grows with the pad breaks the contract, whether
    # the window route builds its basis or an fp domain's Hom is counted
    m = projective_at(line, 0)
    monkeypatch.setattr(ext_mod.ArrowPair, "natural_maps",
                        lambda pair: [{}] * len(pair.window[0]))
    monkeypatch.setattr(ext_mod.ArrowPair, "counts", lambda pair, pad=2: {
        "Hom": len(joint_window((m, m), pad)[0])})
    _, depth = joint_window((m, m), 2)
    dims = [len(joint_window((m, m), pad)[0]) for pad in (2, 3)]
    assert dims[0] != dims[1]
    message = (f"window Hom dimension {dims[0]} at pad 2 and {dims[1]} at "
               f"pad 3, window depth {depth}: ")
    with pytest.raises(AssertionError, match=message):
        route_basis(m, m, "window")
    with pytest.raises(AssertionError, match=message):
        hom_space(m, m).dimension


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_window_hom_dimension_is_the_same_at_every_pad(data):
    # past the stable depth restriction from pad p + 1 to pad p is
    # bijective, so the window route's pad is no guess
    q = QUIVERS[data.draw(st.sampled_from(("line", "ladder")))]
    m, n = data.draw(objects(q, 1)), data.draw(objects(q, 1))
    certs = [ak.classify_membership(m), ak.classify_membership(n)]
    assume(all(c.is_in_rrep() for c in certs))
    dims = {len(natural_maps_on(m, n, joint_window((m, n), pad)[0]))
            for pad in range(5)}
    assert len(dims) == 1, (m.describe(), n.describe(), dims)
    hb = hom_space(m, n)
    if hb.route != "window":
        assert dims == {hb.dimension}


def _end_on_window(hb):
    """(identity, table, radical) of End solved on all of hb.window: the
    coordinates of the identity and of every product of two basis morphisms,
    and the kernel of the trace form tr(L_{b_i b_j})."""
    m, n = hb.src, hb.dimension
    F = m.field

    def flat(mats):
        return [x for a in mats for row in a.entries for x in row]

    comps = [[f.component(v) for v in hb.window] for f in hb.basis]
    B = Mat(F, len(flat(comps[0])), n, tuple(zip(*map(flat, comps))))
    rhs = [[Mat.identity(F, m.dim(v)) for v in hb.window]]
    rhs += [[a.mul(b) for a, b in zip(ci, cj)] for ci in comps for cj in comps]
    X = solve_matrix(B, Mat(F, B.rows, len(rhs), tuple(zip(*map(flat, rhs)))))
    coords = X.transpose().entries
    table = tuple(coords[1 + i * n:1 + (i + 1) * n] for i in range(n))

    def trace_of_left_mult(x):
        return F.of(sum(x[k] * table[k][j][j] for k in range(n)
                        for j in range(n)))

    T = Mat(F, n, n, tuple(tuple(trace_of_left_mult(table[i][j])
                                 for j in range(n)) for i in range(n)))
    K = kernel_basis(T)
    return coords[0], table, tuple(K.col(j) for j in range(K.cols))


@pytest.mark.parametrize("F", [GF(2), GF(3), GF(5)], ids=repr)
def test_end_radical_is_the_kernel_of_the_trace_form_mod_p(a3, kron, F):
    """Over GF(p) the radical is the whole kernel of the trace form
    T[i][j] = tr(L_(b_i b_j)) reduced mod p; random objects whose traces
    reach p, where an unreduced form once gave too small a kernel."""
    rng = random.Random(4)
    for q, verts in ((a3, (1, 2, 3)), (kron, (1, 2))):
        for _ in range(12):
            E = end_algebra(random_fd_rep(q, rng, verts, 3, field=F))
            n, t = E.dimension, E.table
            traces = [sum(t[k][j][j] for j in range(n)) for k in range(n)]
            T = Mat.from_rows(F, [
                [sum(c * tr for c, tr in zip(t[i][j], traces))
                 for j in range(n)] for i in range(n)])
            assert len(E.radical) == n - rank(T)
            if E.radical:
                R = Mat.from_rows(F, E.radical)
                assert rank(R) == len(E.radical)
                assert T.mul(R.transpose()).is_zero()


@pytest.mark.parametrize("F", [QQ, GF(3)], ids=repr)
def test_end_coordinates_at_the_anchor_are_those_on_the_window(kron, line,
                                                               a3, zig, F):
    """end_algebra solves at the route's anchor (generators or the window);
    its identity, table and radical are those solved on the whole window,
    on both routes."""
    rng = random.Random(71)
    objects = [m for m, _, _ in _end_objects(kron, line, F)]
    objects += [random_fd_rep(q, rng, verts, field=F)
                for q, verts in ((a3, (1, 2, 3)), (kron, (1, 2)),
                                 (zig, (0, 1, 2, 3))) for _ in range(5)]
    routes = set()
    for m in objects:
        hb = hom_space(m, m)
        routes.add(hb.route)
        E = end_algebra(m)
        if E.dimension == 0:
            continue
        assert set(hb.anchor) <= set(hb.window)
        assert (E.identity, E.table, E.radical) == _end_on_window(hb)
    assert routes == {"presentation", "window"}


def _generator(pres, j):
    """The j-th generator of a presentation, as a column of obj(y) at its
    vertex y: the cover's image of the trivial path at y in summand j."""
    y = pres.pm.codomain[j]
    k = proj_sum_basis(pres.obj.quiver, pres.pm.codomain, y).index(
        (j, Path(y, y)))
    return Mat.from_columns(pres.obj.field, pres.obj.dim(y),
                            [pres.cover.component(y).col(k)])


@pytest.mark.parametrize("F", [QQ, GF(3)], ids=repr)
def test_presentation_route_is_yoneda_through_the_cover(line, ray_out,
                                                        ladder, F):
    """A presentation-route morphism f: M -> N is the Yoneda map of its
    generator images composed with a section of the cover: at each window
    vertex f(v)·cover(v) is that map, cover(v)·section(v) = I, and f is
    natural."""
    for q, verts in ((line, (-1, 0, 1)), (ray_out, (0, 1, 2)),
                     (ladder, (("a", 0), ("a", 1), ("b", 0), ("b", 1)))):
        for mk in (projective_at, simple_at):
            for mv in verts:
                m = mk(q, mv, F)
                pres = min_proj_presentation(m)
                ys = pres.pm.codomain
                for nk in (projective_at, injective_at, simple_at):
                    for nv in verts:
                        n = nk(q, nv, F)
                        basis, _ = route_basis(m, n, "presentation")
                        window = joint_window((m, n))[0]
                        for v in window:
                            cover = pres.cover.component(v)
                            assert cover.mul(pres.section(v)).entries == \
                                Mat.identity(F, m.dim(v)).entries
                        for f in basis:
                            images = [f.component(y).mul(_generator(pres, j))
                                      for j, y in enumerate(ys)]
                            fhat = yoneda(n, ys, images)
                            for v in window:
                                assert f.component(v).mul(
                                    pres.cover.component(v)).entries == \
                                    fhat.component(v).entries
                            assert naturality_defect(f, window)


# ---------------------------------------------------------------------------
# isomorphism testing and decomposition


def test_iso_test_positive(a3):
    pair = iso_test(projective_at(a3, 2), projective_at(a3, 2))
    assert pair is not None
    f, g = pair
    comp = f.then(g)
    assert same_on(comp, identity_morphism(projective_at(a3, 2)), (1, 2, 3))


def test_iso_test_distinguishes_same_dim_vector(a3):
    m = direct_sum(projective_at(a3, 1), simple_at(a3, 2))   # dims (1,2,1)
    n = direct_sum(injective_at(a3, 2), projective_at(a3, 2))  # dims (1,2,1)
    assert dim_vector(m, (1, 2, 3)) == dim_vector(n, (1, 2, 3))
    assert iso_test(m, n) is None


def test_iso_test_pairs_summands(a3, monkeypatch):
    """Neither pair below has a single invertible basis composite, so
    iso_test matches the summands of the two decompositions."""
    reports = []

    def spy(m):
        reports.append(m)
        return decompose_report(m)

    monkeypatch.setattr(hom, "decompose_report", spy)
    m = direct_sum(projective_at(a3, 1), simple_at(a3, 2))
    n = direct_sum(simple_at(a3, 2), projective_at(a3, 1))
    f, finv = iso_test(m, n)
    assert reports == [m, n]
    for v in (1, 2, 3):
        assert f.then(finv).component(v) == identity_morphism(m).component(v)
        assert finv.then(f).component(v) == identity_morphism(n).component(v)
    other = direct_sum(projective_at(a3, 2), injective_at(a3, 2))
    assert dim_vector(other, (1, 2, 3)) == dim_vector(m, (1, 2, 3)) == (1, 2, 1)
    assert iso_test(m, other) is None
    assert reports[2:] == [m, other]


def test_iso_test_fails_to_pair_summands_of_the_same_dims(kron):
    """R_0 + R_1 and R_0 + R_0 on Kronecker, R_t = (alpha = 1, beta = t):
    both have dims (2, 2) and two summands, but R_1 meets no unused R_0;
    R_0 + R_1 and R_1 + R_0 pair up, into an isomorphism and its inverse."""
    def r(t):
        return explicit_fd(kron, {1: 1, 2: 1}, {
            "alpha": Mat.from_rows(QQ, [[1]]),
            "beta": Mat.from_rows(QQ, [[t]])})

    r0, r1 = r(0), r(1)
    assert iso_test(direct_sum(r0, r1), direct_sum(r0, r0)) is None
    m, n = direct_sum(r0, r1), direct_sum(r1, r0)
    f, g = iso_test(m, n)
    for v in joint_window((m, n))[0]:
        assert f.then(g).component(v) == identity_morphism(m).component(v)
        assert g.then(f).component(v) == identity_morphism(n).component(v)


def test_decompose_sum(a3):
    m = direct_sum(projective_at(a3, 1), simple_at(a3, 2), simple_at(a3, 2))
    items = decompose(m)
    assert sorted(mult for (_, mult) in items) == [1, 2]
    total = {v: 0 for v in (1, 2, 3)}
    for (r, mult) in items:
        for v in total:
            total[v] += mult * r.dim(v)
    assert total == {1: 1, 2: 3, 3: 1}


def test_decompose_splits_a_sum_of_35_simples():
    # 34 nested splits, each by a verified idempotent: no depth bound
    verts = tuple(range(1, 36))
    q = ak.FiniteQuiver(verts, ())
    items = decompose(direct_sum(*(simple_at(q, v) for v in verts)))
    assert [k for (_, k) in items] == [1] * 35
    assert sorted(dim_vector(r, verts) for (r, _) in items) == sorted(
        tuple(int(u == v) for u in verts) for v in verts)


def test_decompose_report_certifies(a3, rng_reps):
    for m in rng_reps(a3, (1, 2, 3), count=5, seed=23):
        rep = decompose_report(m)
        assert not rep.flagged
        for s in rep.summands:
            E = end_algebra(s.rep)
            assert E.is_local
        # inclusion/projection pairs reassemble the identity
        ident = None
        for s in rep.summands:
            e = s.proj.then(s.incl)
            ident = e if ident is None else ident.add(e)
        assert same_on(ident, identity_morphism(m), (1, 2, 3))


def test_iso_indec_returns_what_the_pair_search_returned(kron, zig):
    """On pairs of summands with equal dimension vectors, of seeded random
    fd objects, _iso_indec returns the f and f^-1 of the old search over
    pairs of basis maps (an isomorphism f is its first invertible basis
    element, and (g o f)^-1 o g is f^-1), or None with it."""
    a4 = ak.linear_quiver(4)
    rng = random.Random(41)
    # and a module with End = k[x]/(x^2) against a conjugate, where the
    # first basis map is not invertible
    one, nil = Mat.identity(QQ, 2), Mat.from_rows(QQ, [[0, 1], [0, 0]])
    g1, g2 = Mat.from_rows(QQ, [[1, -1], [0, 1]]), Mat.from_rows(QQ, [[2, 0],
                                                                   [1, 1]])
    local = [explicit_fd(kron, {1: 2, 2: 2}, {"alpha": h2.mul(h1),
                                             "beta": h2.mul(nil).mul(h1)})
             for h1, h2 in ((one, one), (g1, g2))]
    matched = compared = 0
    for q, verts, extra in ((kron, (1, 2), local), (a4, (1, 2, 3, 4), []),
                            (zig, (0, 1, 2, 3), [])):
        summands = extra + [s.rep for _ in range(16) for s in decompose_report(
            random_fd_rep(q, rng, verts)).summands]
        for i, m in enumerate(summands):
            for n in summands[i + 1:]:
                if dim_vector(m, verts) != dim_vector(n, verts):
                    continue
                got, want = hom._iso_indec(m, n), iso_by_pair_search(m, n)
                compared += 1
                assert (got is None) == (want is None)
                if got is None:
                    continue
                matched += 1
                probe = joint_window((m, n))[0]
                for g, w in zip(got, want):
                    assert all(g.component(v) == w.component(v) for v in probe)
    assert matched and compared > matched
