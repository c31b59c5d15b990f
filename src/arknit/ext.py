"""Extension spaces via the arrow cocycle complex.

For objects X (quotient side) and Y (sub side) the complex

    C0 = sum over vertices v of Hom(X(v), Y(v))
    C1 = sum over arrows a of Hom(X(src a), Y(dst a))
    d(f)_a = Y(a) f_src - f_dst X(a)

has cokernel Ext(X, Y); only vertices and arrows where both evaluations are
nonzero contribute.  When the contributing arrow set is provably finite the
answer is exact; otherwise the result is computed on a window and flagged.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .linalg import Mat, coker_projection, rank
from .morphism import SES, glue_ses
from .quiver import vkey
from .presentations import min_proj_presentation, relation_matrix
from .rep import BudgetError, Rep, RungFamily, classify_membership


def _stable_depth(certs) -> int:
    return max([p.cutoff for c in certs for p in c.profiles], default=0) + 2


def _interaction(x: Rep, y: Rep, certx, certy):
    """(V, A, families, depth): vertices and arrows where x-source and
    y-target evaluations are both nonzero; families are symbolic witnesses
    that the arrow set continues periodically past the window."""
    q = x.quiver
    depth = _stable_depth([certx, certy])
    rx = certx.support.members(depth)
    ry = certy.support.members(depth)
    vs = sorted({v for v in set(rx) | set(ry)
                 if x.dim(v) > 0 and y.dim(v) > 0}, key=vkey)
    arrows = []
    for v in sorted(set(rx), key=vkey):
        if x.dim(v) == 0:
            continue
        for a in q.out_arrows(v):
            if y.dim(a.dst) > 0:
                arrows.append(a)
    arrows = sorted(set(arrows))
    families = []
    t = depth + 1
    for end in q.ends():
        cands = list(end.band_arrows(t))
        for (cid, _, _) in end.crossings:
            cands.append(end.crossing_arrow(cid, t))
        for a in sorted(set(cands)):
            if x.dim(a.src) > 0 and y.dim(a.dst) > 0:
                families.append(
                    f"{q.vertex_str(a.src)}->{q.vertex_str(a.dst)} "
                    f"repeating for depth >= {t}")
    return vs, arrows, tuple(families), depth


@dataclass
class ExtClassBasis:
    quot: Rep                 # X, the quotient side
    sub: Rep                  # Y, the sub side
    dimension: int
    arrows: tuple             # contributing arrows (window)
    basis: tuple              # cocycle dicts arrow -> Mat
    window_relative: bool
    families: tuple           # nonempty iff window_relative
    certificate: dict
    _proj: Mat = None         # C1 -> class coordinates
    _layout: tuple = None     # (arrow, row, col) per C1 coordinate

    def coords(self, cocycle_at) -> tuple:
        """Class coordinates of a cocycle given as a lookup arrow -> Mat."""
        F = self.sub.field
        vec = []
        for (a, r, c) in self._layout:
            m = cocycle_at(a)
            vec.append(F.zero if m is None else m.entries[r][c])
        return self._proj.apply(vec)


def ext_space(x: Rep, y: Rep, budget: Optional[int] = None) -> ExtClassBasis:
    """Basis of Ext(X, Y): classes of sequences 0 -> Y -> E -> X -> 0."""
    certx = classify_membership(x, budget)
    certy = classify_membership(y, budget)
    for c, which in ((certx, "quotient"), (certy, "sub")):
        if not c.is_in_rrep():
            raise ValueError(f"ext_space needs finite-data objects; "
                             f"{which} is {c.verdict}")
    F = x.field
    vs, arrows, families, depth = _interaction(x, y, certx, certy)

    c0_layout, c0_off = [], {}
    for v in vs:
        c0_off[v] = len(c0_layout)
        for r in range(y.dim(v)):
            for c in range(x.dim(v)):
                c0_layout.append((v, r, c))
    c1_layout, c1_off = [], {}
    for a in arrows:
        c1_off[a] = len(c1_layout)
        for r in range(y.dim(a.dst)):
            for c in range(x.dim(a.src)):
                c1_layout.append((a, r, c))

    rows = []
    vset = set(vs)
    for a in arrows:
        Ya, Xa = y.mat(a), x.mat(a)
        sx, dx = x.dim(a.src), x.dim(a.dst)
        sy_, dy = y.dim(a.src), y.dim(a.dst)
        for r in range(dy):
            for c in range(sx):
                row = [F.zero] * len(c0_layout)
                if a.src in vset:
                    base = c0_off[a.src]
                    for k in range(sy_):
                        val = Ya.entries[r][k]
                        if not F.is_zero(val):
                            row[base + k * sx + c] = F.add(
                                row[base + k * sx + c], val)
                if a.dst in vset:
                    base = c0_off[a.dst]
                    for k in range(dx):
                        val = Xa.entries[k][c]
                        if not F.is_zero(val):
                            idx = base + r * dx + k
                            row[idx] = F.sub(row[idx], val)
                rows.append(tuple(row))
    # rows are indexed by C1 coordinates, columns by C0: this is d itself
    d = Mat(F, len(rows), len(c0_layout), tuple(rows))
    P, free = coker_projection(d)
    basis = []
    for fr in free:
        a, r, c = c1_layout[fr]
        m = Mat.zeros(F, y.dim(a.dst), x.dim(a.src))
        ent = [list(rw) for rw in m.entries]
        ent[r][c] = F.one
        basis.append({a: Mat(F, m.rows, m.cols, tuple(tuple(rw) for rw in ent))})
    cert = {"vertices": len(vs), "arrows": len(arrows), "depth": depth}
    return ExtClassBasis(x, y, len(free), tuple(arrows), tuple(basis),
                         bool(families), families, cert, P, tuple(c1_layout))


def ext_class_to_ses(ecb: ExtClassBasis, coeffs) -> SES:
    """The glued sequence representing a linear combination of basis classes."""
    F = ecb.sub.field
    if len(coeffs) != ecb.dimension:
        raise ValueError("coefficient count does not match Ext dimension")
    acc: dict = {}
    for c, bc in zip(coeffs, ecb.basis):
        c = F.of(c)
        if F.is_zero(c):
            continue
        for a, m in bc.items():
            acc[a] = acc.get(a, Mat.zeros(F, m.rows, m.cols)).add(m.scale(c))
    cocycle = [(a, m) for a, m in acc.items() if not m.is_zero()]
    _, ses = glue_ses(ecb.sub, ecb.quot, cocycle)
    return ses


def ses_class_coords(ses: SES, ecb: ExtClassBasis) -> tuple:
    return ecb.coords(lambda a: ses.cocycle_at(a))


def is_split(ses: SES, budget: Optional[int] = None) -> bool:
    ecb = ext_space(ses.quot, ses.sub, budget)
    if ecb.window_relative:
        raise BudgetError("splitness undecidable: infinite interaction window")
    F = ses.sub.field
    return all(F.is_zero(c) for c in ses_class_coords(ses, ecb))


def equiv_ext(s1: SES, s2: SES, budget: Optional[int] = None) -> bool:
    """Same Ext class (equivalence of extensions with identified ends)."""
    ecb = ext_space(s1.quot, s1.sub, budget)
    if ecb.window_relative:
        raise BudgetError("equivalence undecidable: infinite interaction window")
    return ses_class_coords(s1, ecb) == ses_class_coords(s2, ecb)


def _merge_families(F, fams1, fams2):
    by_key: dict = {}
    for f in list(fams1) + list(fams2):
        key = (f.eid, f.cid)
        if key in by_key:
            g = by_key[key]
            if g.start != f.start:
                raise ValueError("family starts disagree; align before summing")
            by_key[key] = RungFamily(f.eid, f.cid, f.start,
                                     F.add(g.coeff, f.coeff))
        else:
            by_key[key] = f
    return tuple(f for f in by_key.values() if not F.is_zero(f.coeff))


def baer_sum(s1: SES, s2: SES, budget: Optional[int] = None) -> SES:
    """Sum of extension classes of two sequences with the same ends."""
    sub, quot = s1.sub, s1.quot
    if s2.sub is not sub and s2.sub.describe() != sub.describe():
        raise ValueError("Baer sum needs identical sub objects")
    if s2.quot is not quot and s2.quot.describe() != quot.describe():
        raise ValueError("Baer sum needs identical quotient objects")
    F = sub.field
    certq = classify_membership(quot, budget)
    certs_ = classify_membership(sub, budget)
    _, arrows, _, _ = _interaction(quot, sub, certq, certs_)
    acc = {}
    for a in arrows:
        m1 = s1.cocycle_at(a)
        m2 = s2.cocycle_at(a)
        if m1 is None and m2 is None:
            continue
        m = (m1 if m1 is not None else
             Mat.zeros(F, sub.dim(a.dst), quot.dim(a.src)))
        if m2 is not None:
            m = m.add(m2)
        if not m.is_zero():
            acc[a] = m
    fams = _merge_families(F, getattr(s1, "families", ()) or (),
                           getattr(s2, "families", ()) or ())
    _, ses = glue_ses(sub, quot, tuple(acc.items()), fams)
    return ses


@dataclass
class FiniteExtReport:
    finite: bool
    vanishing_outside: bool   # arrows where only the middle is nonzero: finite?
    gluing_support: bool      # gluing arrows with nonzero cocycle: finite?
    arrows: tuple
    witness: tuple


def _arrow_rep_zero(m: Rep, a) -> bool:
    if m.dim(a.src) == 0 or m.dim(a.dst) == 0:
        return True
    return m.mat(a).is_zero()


def is_finite_extension(ses: SES, budget: Optional[int] = None):
    """(finite, witness); the report with both criteria is on .report."""
    L, M, N = ses.sub, ses.middle, ses.quot
    q = M.quiver
    certs = [classify_membership(r, budget) for r in (L, M, N)]
    for c in certs:
        if c.verdict.startswith("unknown"):
            raise BudgetError("membership did not certify within budget")
    depth = _stable_depth(certs)
    region = set()
    for c in certs:
        region.update(c.support.members(depth))

    eset, e_w = [], []
    for v in sorted(region, key=vkey):
        for a in q.out_arrows(v):
            if _arrow_rep_zero(M, a):
                continue
            if _arrow_rep_zero(L, a) and _arrow_rep_zero(N, a):
                eset.append(a)
    t = depth + 1
    for end in q.ends():
        cands = list(end.band_arrows(t))
        for (cid, _, _) in end.crossings:
            cands.append(end.crossing_arrow(cid, t))
        for a in sorted(set(cands)):
            if (not _arrow_rep_zero(M, a)) and _arrow_rep_zero(L, a) \
                    and _arrow_rep_zero(N, a):
                e_w.append(f"{q.vertex_str(a.src)}->{q.vertex_str(a.dst)} "
                           f"for all depths >= {t}")

    gset, g_w = [], []
    for v in sorted(region, key=vkey):
        if N.dim(v) == 0:
            continue
        for a in q.out_arrows(v):
            if L.dim(a.dst) == 0:
                continue
            c = ses.cocycle_at(a)
            if c is not None and not c.is_zero():
                gset.append(a)
    for end in q.ends():
        cands = list(end.band_arrows(t))
        for (cid, _, _) in end.crossings:
            cands.append(end.crossing_arrow(cid, t))
        for a in sorted(set(cands)):
            if N.dim(a.src) > 0 and L.dim(a.dst) > 0:
                c = ses.cocycle_at(a)
                if c is not None and not c.is_zero():
                    g_w.append(f"{q.vertex_str(a.src)}->{q.vertex_str(a.dst)} "
                               f"for all depths >= {t}")

    rep = FiniteExtReport((not e_w) and (not g_w), not e_w, not g_w,
                          tuple(sorted(set(eset) | set(gset))),
                          tuple(sorted(set(e_w + g_w))))
    finite = rep.finite
    witness = rep.witness if not finite else rep.arrows
    return finite, witness, rep


def ext_dim_via_presentation(x: Rep, y: Rep,
                             budget: Optional[int] = None) -> int:
    """Independent route: Ext(X, Y) as the cokernel of the map between
    evaluation sums induced by a minimal projective presentation of X."""
    pres = min_proj_presentation(x, budget)
    rows = sum(y.dim(v) for v in pres.pm.domain)
    if rows == 0:
        return 0
    return rows - rank(relation_matrix(pres.pm, y))
