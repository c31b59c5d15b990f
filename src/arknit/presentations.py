"""Minimal projective presentations and minimal injective copresentations.

The projective presentation of a finitely presented object is built from its
top: generators are lifted top basis vectors, so the cover is minimal by
construction and the relation matrix has radical entries (no trivial paths).
The relations are the top of the kernel object K of the cover P0 -> M,
read through top_generators as generators are: kQ has no relations, so K
is projective, and the snake lemma on the incoming maps gives
top K(w) = ker(sum over a: u -> w of M(u) -> M(w)), so only the vertices
where M's incoming stack has a kernel are read; this is the standard
resolution made minimal (Ringel 1976; Crawley-Boevey 1992; Bautista, Liu
and Paquette 2013 for rep+(Q)).
The injective copresentation is D of the projective presentation of the
pointwise dual over the opposite quiver: its path matrix is that
presentation's PathMatrix.dual and its co-embedding that cover's
Morphism.dual.
yoneda_at builds every map from a sum of projectives out of generator images
(Hom(P_a, N) = N(a)): the cover, and each presentation-route Hom basis
morphism before it factors through Presentation.section, a right inverse of
the cover kept per vertex; it works by prefix, one product per arrow.
The top and the relations of an fp object lie in its certified window, so
the checks two bands deeper (the cover onto, no relations) are contract
checks: a failure is an engine bug (AssertionError) naming the vertex, and
on a ray its end, ray and depth.
"""
from __future__ import annotations

from collections import Counter

from .linalg import Mat, block_matrix, free_columns, rank, solve_matrix
from .morphism import Morphism
from .quiver import vkey
from .record import Frozen
from .rep import (KernelOfRep, PathMatrix, Rep, classify_membership,
                  dualize, incoming_stack, joint_window, path_matrix,
                  proj_sum_basis, sum_of)


class Presentation(Frozen):
    """pm.side 'proj': 0 -> (sum over pm.domain) -> (sum over pm.codomain) -> obj -> 0.
    pm.side 'inj':  0 -> obj -> (sum over pm.domain) -> (sum over pm.codomain).
    cover: the surjection onto obj (proj side) / the embedding of obj (inj
    side), D of the dual cover, whose codomain D(sum of P over the opposite
    quiver) evaluates as the sum over pm.domain.
    """

    __slots__ = _fields = ("obj", "pm", "cover")

    def section(self, v) -> Mat:
        """A right inverse of cover(v), onto on the proj side; solved once
        per vertex and kept on obj."""
        return self.obj.cached(("section", v), lambda: self._section(v))

    def _section(self, v) -> Mat:
        s = solve_matrix(self.cover.component(v),
                         Mat.identity(self.obj.field, self.obj.dim(v)))
        if s is None:
            raise AssertionError("the cover is not onto")
        return s


def top_generators(m: Rep, region):
    """Lifted top basis over region: (vertex v, row r) pairs, one per free
    row r of the cokernel of m's incoming stack at v, naming the basis
    vector e_r of m(v): the free columns of the stack's transpose."""
    return [(v, r) for v in sorted(region, key=vkey)
            for r in free_columns(incoming_stack(m, v).transpose())]


def _site(q, v) -> str:
    """v, and on a ray also its end, ray and depth."""
    loc = q.locate(v)
    return q.vertex_str(v) + (
        "" if loc is None else " (end {}, ray {}, depth {})".format(*loc))


def check_vanishing(m: Rep, verts):
    """AssertionError at the first of verts, named by _site, where the
    kernel of m's incoming stack, the top of its relations, is nonzero."""
    for v in verts:
        inc = incoming_stack(m, v)
        if rank(inc) != inc.cols:
            raise AssertionError(
                f"nonzero relations at {_site(m.quiver, v)}, past the "
                f"certified window of a finitely presented object")


def yoneda_at(n: Rep, verts, vecs, w, images: dict) -> Mat:
    """At w, the map ⊕ P_{verts[j]} -> n sending the trivial path at verts[j]
    to the column vecs[j], by prefix: the paths at w ending in an arrow a are
    those at a.src then a, in order, so their columns are n(a) times the map
    at a.src (a work stack fills it first), kept in the Yoneda map's images."""
    todo = [w]
    while todo:
        u = todo[-1]
        if u in images:
            todo.pop()
            continue
        basis = proj_sum_basis(n.quiver, verts, u)
        ins = dict.fromkeys(p.arrows[-1] for (_, p) in basis if p.arrows)
        todo += [a.src for a in ins if a.src not in images]
        if todo[-1] == u:
            cols = {a: iter(n.mat(a).mul(images[a.src]).transpose().entries)
                    for a in ins}
            images[todo.pop()] = Mat.from_columns(n.field, n.dim(u), [
                next(cols[p.arrows[-1]]) if p.arrows else vecs[j].col(0)
                for (j, p) in basis])
    return images[w]


def yoneda(n: Rep, verts, vecs) -> Morphism:
    """The map ⊕ P_{verts[j]} -> n of yoneda_at, as a morphism."""
    images: dict = {}
    return Morphism(sum_of(n.quiver, n.field, "proj", verts), n,
                    rule=lambda w: yoneda_at(n, verts, vecs, w, images),
                    label="yoneda")


def min_proj_presentation(x: Rep) -> Presentation:
    return x.cached("proj_presentation", lambda: _min_proj_presentation(x))


def _min_proj_presentation(x: Rep) -> Presentation:
    """Generators lift the top of x over its certified window.  Relations
    are the top of K = KernelOfRep(cover), top_generators(K, sites) over the
    sites where incoming_stack(x, w) has a kernel, which is top K(w) by the
    snake lemma (Ringel 1976, Crawley-Boevey 1992, BLP 2013); each is a
    column of K.basis(w), a vector of P0(w), and their number at w is the
    dimension of that kernel."""
    q, F = x.quiver, x.field
    cert = classify_membership(x)
    if not cert.has_presentation():
        raise ValueError(
            f"minimal projective presentation needs an fp object, got {cert.verdict}")
    region, depth = joint_window([x], 1)
    deep = [q.end(r.eid).vertex(r.rid, t)
            for p in cert.profiles for r in p.rays if r.dim > 0
            for t in (depth + 1, depth + 2)]
    gens = [(v, Mat(F, x.dim(v), 1, tuple((F.one if i == r else F.zero,)
                                          for i in range(x.dim(v)))))
            for (v, r) in top_generators(x, region)]
    p0_verts = tuple(v for (v, _) in gens)
    cover = yoneda(x, p0_verts, [col for (_, col) in gens])

    # surjectivity of the cover over the window and two bands past it,
    # which fails wherever a deep top is nonzero (tails follow by stability)
    for v in list(region) + deep:
        if rank(cover.component(v)) != x.dim(v):
            raise AssertionError(f"the cover of a finitely presented object "
                                 f"is not onto at {_site(q, v)}")

    # no relations deep on any ray, where x is zero too (a rung can feed it)
    check_vanishing(x, [e.vertex(r.rid, t) for e in q.ends() for r in e.rays
                        for t in (depth + 1, depth + 2)])
    # the relations are the top of K = ker(cover), taken where x's incoming
    # stack has a kernel: each is a column of K's basis, inside P0(w); in
    # the window the stack's rank is rows - (generators there)
    window, tops, counts = set(region), Counter(p0_verts), {}
    for w in window.union(a.dst for v in region for a in q.out_arrows(v)):
        r = x.dim(w) - tops[w] if w in window else rank(incoming_stack(x, w))
        n = sum(x.dim(a.src) for a in q.in_arrows(w)) - r
        if n:
            counts[w] = n
    K = KernelOfRep(cover)
    rels = [(w, K.basis(w).col(r)) for (w, r) in top_generators(K, counts)]
    if Counter(w for (w, _) in rels) != counts:
        raise AssertionError("relations at a vertex differ in number "
                             "from the kernel of its incoming stack")

    # relation entries in the path basis of P0
    p1_verts = tuple(w for (w, _) in rels)
    entries = [[[] for _ in p1_verts] for _ in p0_verts]
    for i, (w, vec) in enumerate(rels):
        basis = proj_sum_basis(q, p0_verts, w)
        for (coord, (j, p)) in zip(vec, basis):
            if not F.is_zero(coord):
                entries[j][i].append((coord, p))
    pm = path_matrix(q, F, "proj", p1_verts, p0_verts, entries)

    if any(p.length == 0 for row in pm.entries for combo in row
           for (_, p) in combo):
        raise AssertionError("cover is not minimal: trivial path in relations")
    return Presentation(x, pm, cover)


def min_inj_copresentation(w: Rep) -> Presentation:
    return w.cached("inj_copresentation", lambda: _min_inj_copresentation(w))


def _min_inj_copresentation(w: Rep) -> Presentation:
    cert = classify_membership(w)
    if not cert.has_copresentation():
        raise ValueError(
            f"minimal injective copresentation needs an fc object, got {cert.verdict}")
    # D of the dual presentation: its path matrix read back over q, and the
    # co-embedding D of its cover
    dpres = min_proj_presentation(dualize(w))
    return Presentation(w, dpres.pm.dual, dpres.cover.dual)


def nakayama(pm: PathMatrix) -> PathMatrix:
    """Swap the interpretation side; vertex lists and entries are unchanged."""
    other = "inj" if pm.side == "proj" else "proj"
    return PathMatrix._derived(pm.quiver, pm.field, other, pm.domain,
                               pm.codomain, pm.entries)


def relation_matrix(pm: PathMatrix, n: Rep) -> Mat:
    """The map (⊕ n(codomain)) -> (⊕ n(domain)) that a projective-side path
    matrix induces on Hom(-, n): block (i, j) is entry [j][i] evaluated in n."""
    F = n.field
    blocks = [[None] * len(pm.codomain) for _ in pm.domain]
    for j, y in enumerate(pm.codomain):
        for i, x in enumerate(pm.domain):
            combo = pm.entries[j][i]
            if combo:
                acc = Mat.zeros(F, n.dim(x), n.dim(y))
                for (c, p) in combo:
                    acc = acc.add(n.mat_path(p).scale(c))
                blocks[i][j] = acc
    return block_matrix(F, blocks, [n.dim(x) for x in pm.domain],
                        [n.dim(y) for y in pm.codomain])
