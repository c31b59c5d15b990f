"""Morphisms between representations, and short exact sequences.

A morphism stores exact components on a certified finite window; beyond the
window the components are propagated along ray tails through the commuting
squares, which is well defined exactly when the arrow matrices along the ray
are invertible (the stable situation for rrep objects).  Structural morphisms
(inclusions, projections, kernel/cokernel maps) instead carry a rule valid at
every vertex.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .linalg import Mat, inverse, is_invertible, rank, solve_matrix
from .quiver import Arrow, VertexSet, vkey
from .rep import (CokerOfRep, EvalRangeError, GlueRep, ImageRep, KernelOfRep,
                  Rep, _loc_depth, _ray_transition, dualize, restrict,
                  same_ambient, standard_ext_region)


class Morphism:
    def __init__(self, src: Rep, dst: Rep, window=(), comps=None,
                 rule: Optional[Callable] = None, label: str = ""):
        same_ambient(src, dst, "morphism endpoints")
        self.src = src
        self.dst = dst
        self.window = tuple(sorted(window, key=vkey))
        self._comps = dict(comps or {})
        self.rule = rule
        self.label = label
        self._anchors: Optional[dict] = None

    # -- evaluation --
    def component(self, v) -> Mat:
        if v in self._comps:
            return self._comps[v]
        m = self._compute(v)
        self._comps[v] = m
        return m

    def _compute(self, v) -> Mat:
        F = self.src.field
        if self.rule is not None:
            return self.rule(v)
        sd, dd = self.src.dim(v), self.dst.dim(v)
        if sd == 0 or dd == 0:
            return Mat.zeros(F, dd, sd)
        q = self.src.quiver
        loc = q.locate(v)
        if loc is None:
            raise EvalRangeError(
                f"morphism has no component at {q.vertex_str(v)} and no rule")
        eid, rid, t = loc
        anchor = self._anchor_depth(eid, rid)
        if anchor is None or anchor > t:
            raise EvalRangeError(
                f"morphism window does not reach ray {eid}/{rid} at depth {t}")
        end = q.end(eid)
        f = self.component(end.vertex(rid, anchor))
        for d in range(anchor, t):
            va = end.vertex(rid, d)
            vb = end.vertex(rid, d + 1)
            a = _ray_transition(q, end, rid, d)
            if a is None:
                raise EvalRangeError(f"no transition arrow on ray {eid}/{rid}")
            if self.src.dim(vb) == 0 or self.dst.dim(vb) == 0:
                f = Mat.zeros(F, self.dst.dim(vb), self.src.dim(vb))
            else:
                forward = a.src == va
                inv = inverse((self.src if forward else self.dst).mat(a))
                if inv is None:
                    raise EvalRangeError(
                        f"cannot propagate past non-invertible transition {a.label}")
                f = self.dst.mat(a).mul(f).mul(inv) if forward else \
                    inv.mul(f).mul(self.src.mat(a))
            self._comps[vb] = f
        return f

    def _anchor_depth(self, eid, rid) -> Optional[int]:
        if self._anchors is None:
            self._anchors = {}
            q = self.src.quiver
            for v in list(self._comps):
                loc = q.locate(v)
                if loc is not None:
                    key = (loc[0], loc[1])
                    cur = self._anchors.get(key)
                    if cur is None or loc[2] > cur:
                        self._anchors[key] = loc[2]
        return self._anchors.get((eid, rid))

    def depth_bound(self) -> int:
        q = self.src.quiver
        return max([0] + [_loc_depth(q, v) for v in self.window])

    def describe(self) -> str:
        return f"{self.src.describe()} -> {self.dst.describe()}"

    def spec_dict(self) -> dict:
        raise NotImplementedError("a morphism has no JSON form")

    @property
    def dual(self) -> "Morphism":
        """D f : D(dst) -> D(src) over the opposite quiver, with the
        components f(v) transposed; the one place a morphism is transposed."""
        return Morphism(dualize(self.dst), dualize(self.src), self.window,
                        rule=lambda v: self.component(v).transpose(),
                        label=self.label)

    # -- algebra --
    def add(self, other: "Morphism") -> "Morphism":
        return Morphism(self.src, self.dst, self.window,
                        rule=lambda v: self.component(v).add(other.component(v)))

    def sub(self, other: "Morphism") -> "Morphism":
        return Morphism(self.src, self.dst, self.window,
                        rule=lambda v: self.component(v).sub(other.component(v)))

    def scale(self, c) -> "Morphism":
        cc = self.src.field.of(c)
        return Morphism(self.src, self.dst, self.window,
                        rule=lambda v: self.component(v).scale(cc))

    def then(self, other: "Morphism") -> "Morphism":
        """self followed by other (other ∘ self)."""
        return Morphism(self.src, other.dst, self.window or other.window,
                        rule=lambda v: other.component(v).mul(self.component(v)))

    def is_zero_on(self, verts) -> bool:
        return all(self.component(v).is_zero() for v in verts)

    def equal_on(self, other: "Morphism", verts) -> bool:
        return all(self.component(v).entries == other.component(v).entries
                   for v in verts)

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
    return Morphism(src, dst, window=tuple(comps), comps=comps, label=label)


# ---------------------------------------------------------------------------
# kernels and cokernels (abelian structure)


def _inclusion(S):
    """(S, inclusion S -> S.ambient): S's basis at v is its component."""
    return S, Morphism(S, S.ambient, rule=S.basis, label="incl")


def kernel(f: Morphism):
    """(K, inclusion K -> src)."""
    return _inclusion(KernelOfRep(f))


def cokernel(f: Morphism):
    """(C, projection dst -> C): C = D ker(D f), so the projection at v is
    the transposed basis of that kernel."""
    C = CokerOfRep(f)
    return C, Morphism(f.dst, C, rule=lambda v: C.base.basis(v).transpose(),
                       label="coker-proj")


def image(f: Morphism):
    """(Im, inclusion Im -> dst) using canonical column space bases."""
    return _inclusion(ImageRep(f))


# ---------------------------------------------------------------------------
# short exact sequences


@dataclass
class SES:
    sub: Rep
    middle: Rep
    quot: Rep
    incl: Morphism
    proj: Morphism

    def cocycle_at(self, a: Arrow) -> Optional[Mat]:
        if isinstance(self.middle, GlueRep):
            return self.middle.cocycle_at(a)
        return _extracted_cocycle(self, a)

    def describe(self) -> str:
        return (f"0 -> {self.sub.describe()} -> {self.middle.describe()} "
                f"-> {self.quot.describe()} -> 0")


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
    """(omega, SES 0 -> M_omega -> M -> M/M_omega -> 0); sub fp, quot fc."""
    omega, sub, quot = standard_ext_region(m)
    supp = m.support()
    comp = supp.difference(omega)
    return omega, restriction_ses(m, omega, comp)


def split_ses(sub: Rep, quot: Rep) -> SES:
    return glue_ses(sub, quot, ())[1]


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


def naturality_defect(f: Morphism, verts) -> bool:
    """True when f commutes with all arrow matrices inside the region."""
    return all(f.dst.mat(a).mul(f.component(a.src)).entries
               == f.component(a.dst).mul(f.src.mat(a)).entries
               for a in f.src.quiver.arrows_within(verts))
