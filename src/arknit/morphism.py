"""Morphisms between representations, and short exact sequences.

A morphism is one rule, its component at each vertex, computed once per
vertex.  Structural morphisms (inclusions and projections) carry a rule
valid at every vertex.  A map solved on a certified
window (morphism_from_components) carries its depth: past the window its
components are propagated along ray tails through the commuting squares,
which is well defined exactly when the arrow matrices along the ray are
invertible (the stable situation for rrep objects).
"""
from __future__ import annotations

from typing import Callable, Optional

from .linalg import Mat, inverse, is_invertible, rank, solve_matrix
from .quiver import Arrow, VertexSet
from .record import Record
from .rep import (EvalRangeError, GlueRep, ImageRep, Rep, _loc_depth,
                  _shrunk_tail_start, classify_membership, dualize, restrict,
                  same_ambient)


class Morphism:
    """src -> dst by one rule, rule(v) the component at v, computed once per
    vertex.  depth, when set, is that of the deepest given component of a
    map solved on a window, which the kernel of the map reads as its
    structural depth."""

    def __init__(self, src: Rep, dst: Rep, rule: Callable, label: str = "",
                 depth: Optional[int] = None):
        same_ambient(src, dst, "morphism endpoints")
        self.src = src
        self.dst = dst
        self.rule = rule
        self.label = label
        self.depth = depth
        self._comps: dict = {}

    def component(self, v) -> Mat:
        if v not in self._comps:
            self._comps[v] = self.rule(v)
        return self._comps[v]

    def depth_bound(self) -> int:
        return self.depth or 0

    @property
    def dual(self) -> "Morphism":
        """D f : D(dst) -> D(src) over the opposite quiver, with the
        components f(v) transposed; the one place a morphism is transposed."""
        return Morphism(dualize(self.dst), dualize(self.src),
                        lambda v: self.component(v).transpose(), self.label,
                        self.depth)

    # -- algebra --
    def add(self, other: "Morphism") -> "Morphism":
        return Morphism(self.src, self.dst, lambda v: self.component(v).add(
            other.component(v)), depth=self.depth)

    def then(self, other: "Morphism") -> "Morphism":
        """self followed by other (other ∘ self)."""
        return Morphism(self.src, other.dst,
                        lambda v: other.component(v).mul(self.component(v)),
                        depth=other.depth if self.depth is None
                        else self.depth)

    def is_invertible_on(self, verts) -> bool:
        for v in verts:
            c = self.component(v)
            if c.rows != c.cols or not is_invertible(c):
                return False
        return True


def zero_morphism(src: Rep, dst: Rep) -> Morphism:
    return Morphism(src, dst, rule=lambda v: Mat.zeros(
        src.field, dst.dim(v), src.dim(v)), label="0")


def identity_morphism(m: Rep) -> Morphism:
    return Morphism(m, m, rule=lambda v: Mat.identity(m.field, m.dim(v)),
                    label="id")


def morphism_from_components(src: Rep, dst: Rep, comps: dict,
                             label: str = "") -> Morphism:
    """The morphism with the given components, carried along each ray past
    the deepest of them through the commuting squares, which is well defined
    when the ray's arrow matrices are invertible there (the stable situation
    for objects in rrep); its depth is that of the deepest component."""
    q, F = src.quiver, src.field
    known = dict(comps)
    anchors: dict = {}  # (end, ray) -> the deepest component on that ray
    for v in comps:
        if (loc := q.locate(v)) is not None:
            anchors[loc[:2]] = max(anchors.get(loc[:2], loc[2]), loc[2])

    def rule(v) -> Mat:
        if v in known:
            return known[v]
        if src.dim(v) == 0 or dst.dim(v) == 0:
            return Mat.zeros(F, dst.dim(v), src.dim(v))
        loc = q.locate(v)
        if loc is None:
            raise EvalRangeError(
                f"morphism has no component at {q.vertex_str(v)} and no rule")
        eid, rid, t = loc
        anchor = anchors.get((eid, rid))
        if anchor is None or anchor > t:
            raise EvalRangeError(
                f"morphism window does not reach ray {eid}/{rid} at depth {t}")
        end = q.end(eid)
        f = known[end.vertex(rid, anchor)]
        for d in range(anchor, t):
            vb = end.vertex(rid, d + 1)
            if vb in known:
                f = known[vb]
                continue
            a = end.transition(rid, d)
            if a is None:
                raise EvalRangeError(f"no transition arrow on ray {eid}/{rid}")
            if src.dim(vb) == 0 or dst.dim(vb) == 0:
                f = Mat.zeros(F, dst.dim(vb), src.dim(vb))
            else:
                forward = a.src == end.vertex(rid, d)
                inv = inverse((src if forward else dst).mat(a))
                if inv is None:
                    raise EvalRangeError(f"cannot propagate past non-"
                                         f"invertible transition {a.label}")
                f = dst.mat(a).mul(f).mul(inv) if forward else \
                    inv.mul(f).mul(src.mat(a))
            known[vb] = f
        return f

    return Morphism(src, dst, rule, label, max(
        (_loc_depth(q, v) for v in comps), default=None))


# ---------------------------------------------------------------------------
# images


def image(f: Morphism):
    """(Im, inclusion Im -> dst) using canonical column space bases: Im's
    basis at v is the inclusion's component."""
    im = ImageRep(f)
    return im, Morphism(im, f.dst, rule=im.basis, label="incl")


# ---------------------------------------------------------------------------
# short exact sequences


class SES(Record):
    __slots__ = _fields = ("sub", "middle", "quot", "incl", "proj")

    def cocycle_at(self, a: Arrow) -> Optional[Mat]:
        if isinstance(self.middle, GlueRep):
            return self.middle.cocycle_at(a)
        return _extracted_cocycle(self, a)


def _extracted_cocycle(ses: SES, a: Arrow) -> Mat:
    """N(x) -> L(y) component of middle(a) through chosen sections."""
    F = ses.middle.field
    x, y = a.src, a.dst
    ix, iy = ses.incl.component(x), ses.incl.component(y)
    px, py = ses.proj.component(x), ses.proj.component(y)
    sx = solve_matrix(px, Mat.identity(F, ses.quot.dim(x)))
    sy = solve_matrix(py, Mat.identity(F, ses.quot.dim(y)))
    if sx is None or sy is None:
        raise ValueError("projection is not pointwise split; not a valid SES")
    diff = ses.middle.mat(a).mul(sx).sub(sy.mul(ses.quot.mat(a)))
    lifted = solve_matrix(iy, diff)
    if lifted is None:
        raise ValueError("cocycle extraction failed; sequence is not exact")
    return lifted


def glue_ses(sub: Rep, quot: Rep, cocycle=(), families=()):
    """(middle, SES) for the block-triangular extension."""
    mid = GlueRep(sub, quot, cocycle, families)
    F = mid.field

    def incl_rule(v):
        ds, dq = sub.dim(v), quot.dim(v)
        return Mat.identity(F, ds).vstack(Mat.zeros(F, dq, ds))

    def proj_rule(v):
        ds, dq = sub.dim(v), quot.dim(v)
        return Mat.zeros(F, dq, ds).hstack(Mat.identity(F, dq))

    ses = SES(sub, mid, quot,
              Morphism(sub, mid, rule=incl_rule, label="glue-incl"),
              Morphism(mid, quot, rule=proj_rule, label="glue-proj"))
    return mid, ses


def restriction_ses(m: Rep, omega: VertexSet, complement: VertexSet) -> SES:
    """0 -> M_omega -> M -> M_complement -> 0 for successor-closed omega;
    both maps are the identity on their region and zero off it."""
    F = m.field
    sub, quot = restrict(m, omega), restrict(m, complement)

    def rule(region, v):
        d = m.dim(v)
        return Mat.identity(F, d) if region.contains(v) else Mat.zeros(F, 0, d)

    return SES(sub, m, quot,
               Morphism(sub, m, label="restr-incl",
                        rule=lambda v: rule(omega, v).transpose()),
               Morphism(m, quot, label="restr-proj",
                        rule=lambda v: rule(complement, v)))


def standard_ext(m: Rep):
    """(omega, SES 0 -> M_omega -> M -> M_sigma -> 0) for an rrep object:
    sigma is the stable tail of each nonzero injective ray, walked down to
    the floor of the exact support on that ray, and omega the rest of the
    support, so the sub is fp and the quotient fc."""
    cert = classify_membership(m)
    if not cert.is_in_rrep():
        raise ValueError(f"standard_ext needs an rrep object, got {cert.verdict}")
    floors = {(eid, rid): t0 for eid, rid, t0 in cert.support.tails}
    sigma = VertexSet.make(m.quiver, (), [
        (r.eid, r.rid, _shrunk_tail_start(m, r, floors.get((r.eid, r.rid), 0)))
        for p in cert.profiles for r in p.rays if r.dim > 0 and r.kind == "I"])
    omega = cert.support.difference(sigma)
    return omega, restriction_ses(m, omega, sigma)


def verify_exact(ses: SES, verts) -> dict:
    """Rank-based exactness report over the given vertices."""
    okmono, okepi, okcomp, okmid = True, True, True, True
    for v in verts:
        i = ses.incl.component(v)
        p = ses.proj.component(v)
        ri, rp = rank(i), rank(p)
        if ri != ses.sub.dim(v):
            okmono = False
        if rp != ses.quot.dim(v):
            okepi = False
        if not p.mul(i).is_zero():
            okcomp = False
        if ri + rp != ses.middle.dim(v):
            okmid = False
    ok = okmono and okepi and okcomp and okmid
    return {"exact": ok, "mono": okmono, "epi": okepi,
            "composite_zero": okcomp, "middle_dims": okmid}
