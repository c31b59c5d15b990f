"""Extension spaces via the arrow cocycle complex.

For objects X (quotient side) and Y (sub side) the complex

    C0 = sum over vertices v of Hom(X(v), Y(v))
    C1 = sum over arrows a of Hom(X(src a), Y(dst a))
    d(f)_a = Y(a) f_src - f_dst X(a)

has kernel Hom(X, Y) and cokernel Ext(X, Y) (Ringel, LNM 1099).  hom.py
takes the kernel on a window; here only vertices and arrows where both
evaluations are nonzero contribute to the cokernel.  When the contributing
arrow set is provably finite the answer is exact; otherwise the result is
computed on a window and flagged.
"""
from __future__ import annotations

from dataclasses import dataclass

from .linalg import Mat, coker_projection
from .morphism import SES, glue_ses
from .rep import (BudgetError, GlueRep, Rep, RungFamily, classify_membership,
                  equal_on, joint_window)


def arrow_complex(x: Rep, y: Rep, verts, arrows):
    """(d, offsets): the differential C0 -> C1 on verts and arrows.

    Column offsets[v] + r * x.dim(v) + c is entry (r, c) of f_v, for v in
    verts; row (a, r, c), in the order of arrows, is entry (r, c) of d(f)_a.
    A vertex outside verts contributes nothing.
    """
    F = x.field
    offsets, total = {}, 0
    for v in verts:
        offsets[v] = total
        total += y.dim(v) * x.dim(v)
    rows = []
    for a in arrows:
        Ya, Xa = y.mat(a), x.mat(a)
        sx, dx = x.dim(a.src), x.dim(a.dst)
        for r in range(Ya.rows):
            for c in range(sx):
                row = [F.zero] * total
                if a.src in offsets:
                    base = offsets[a.src] + c
                    for k, val in enumerate(Ya.entries[r]):
                        if not F.is_zero(val):
                            row[base + k * sx] = F.add(row[base + k * sx], val)
                if a.dst in offsets:
                    base = offsets[a.dst] + r * dx
                    for k in range(dx):
                        val = Xa.entries[k][c]
                        if not F.is_zero(val):
                            row[base + k] = F.sub(row[base + k], val)
                rows.append(tuple(row))
    return Mat(F, len(rows), total, tuple(rows)), offsets


def _arrows_at_depth(q, t) -> list:
    """Each end's band arrows and crossing arrows at depth t, sorted per end:
    the arrows whose behaviour repeats at every depth >= t."""
    out = []
    for end in q.ends():
        cands = set(end.band_arrows(t))
        cands.update(end.crossing_arrow(cid, t) for (cid, _, _) in end.crossings)
        out.extend(sorted(cands))
    return out


def _interaction(x: Rep, y: Rep, certx, certy):
    """(V, A, families, depth): vertices and arrows where x-source and
    y-target evaluations are both nonzero; families are symbolic witnesses
    that the arrow set continues periodically past the window."""
    q = x.quiver
    window, depth = joint_window([certx, certy])
    vs = [v for v in window if x.dim(v) > 0 and y.dim(v) > 0]
    arrows = sorted({a for v in window if x.dim(v) > 0
                     for a in q.out_arrows(v) if y.dim(a.dst) > 0})
    t = depth + 1
    families = tuple(f"{q.vertex_str(a.src)}->{q.vertex_str(a.dst)} "
                     f"repeating for depth >= {t}"
                     for a in _arrows_at_depth(q, t)
                     if x.dim(a.src) > 0 and y.dim(a.dst) > 0)
    return vs, arrows, families, depth


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


def ext_space(x: Rep, y: Rep) -> ExtClassBasis:
    """Basis of Ext(X, Y): classes of sequences 0 -> Y -> E -> X -> 0."""
    certx = classify_membership(x)
    certy = classify_membership(y)
    for c, which in ((certx, "quotient"), (certy, "sub")):
        if not c.is_in_rrep():
            raise ValueError(f"ext_space needs finite-data objects; "
                             f"{which} is {c.verdict}")
    F = x.field
    vs, arrows, families, depth = _interaction(x, y, certx, certy)

    d, _ = arrow_complex(x, y, vs, arrows)
    c1_layout = tuple((a, r, c) for a in arrows
                      for r in range(y.dim(a.dst)) for c in range(x.dim(a.src)))
    P, free = coker_projection(d)
    basis = []
    for fr in free:
        a, r, c = c1_layout[fr]
        unit = [[F.zero] * x.dim(a.src) for _ in range(y.dim(a.dst))]
        unit[r][c] = F.one
        basis.append({a: Mat.from_rows(F, unit)})
    cert = {"vertices": len(vs), "arrows": len(arrows), "depth": depth}
    return ExtClassBasis(x, y, len(free), tuple(arrows), tuple(basis),
                         bool(families), families, cert, P, c1_layout)


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


def is_split(ses: SES) -> bool:
    ecb = ext_space(ses.quot, ses.sub)
    if ecb.window_relative:
        raise BudgetError(f"splitness undecidable: infinite interaction "
                          f"window, first family {ecb.families[0]}")
    F = ses.sub.field
    return all(F.is_zero(c) for c in ses_class_coords(ses, ecb))


def _same_ends(s1: SES, s2: SES) -> None:
    """Raise ValueError unless each end of s2 is s1's own object or equal to
    it on both certified supports down to the stable depth of the two
    certificates, past which the equality is certified."""
    for which, e1, e2 in (("sub", s1.sub, s2.sub),
                          ("quotient", s1.quot, s2.quot)):
        if e2 is e1:
            continue
        verts, _ = joint_window([classify_membership(e) for e in (e1, e2)])
        if not equal_on(e1, e2, verts):
            raise ValueError(f"the {which} ends differ: the second "
                             f"sequence's {e2.describe()} is not the first's")


def equiv_ext(s1: SES, s2: SES) -> bool:
    """Same Ext class (equivalence of extensions with identified ends)."""
    _same_ends(s1, s2)
    ecb = ext_space(s1.quot, s1.sub)
    if ecb.window_relative:
        raise BudgetError(f"equivalence undecidable: infinite interaction "
                          f"window, first family {ecb.families[0]}")
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


def baer_sum(s1: SES, s2: SES) -> SES:
    """Sum of extension classes of two sequences with the same ends."""
    _same_ends(s1, s2)
    sub, quot = s1.sub, s1.quot
    F = sub.field
    certq = classify_membership(quot)
    certs_ = classify_membership(sub)
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
    fams = [s.middle.families if isinstance(s.middle, GlueRep) else ()
            for s in (s1, s2)]
    _, ses = glue_ses(sub, quot, tuple(acc.items()), _merge_families(F, *fams))
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


def is_finite_extension(ses: SES):
    """(finite, witness, report): witness is the contributing arrows when
    finite, else the repeating arrows that make it infinite; the report
    holds both criteria."""
    L, M, N = ses.sub, ses.middle, ses.quot
    q = M.quiver
    region, depth = joint_window([classify_membership(r) for r in (L, M, N)])

    def only_middle(a):   # nonzero in the middle, zero in both ends
        return not _arrow_rep_zero(M, a) and _arrow_rep_zero(L, a) \
            and _arrow_rep_zero(N, a)

    def glued(a):         # a gluing arrow with a nonzero cocycle
        if N.dim(a.src) == 0 or L.dim(a.dst) == 0:
            return False
        c = ses.cocycle_at(a)
        return c is not None and not c.is_zero()

    arrows = {a for v in region for a in q.out_arrows(v)
              if only_middle(a) or glued(a)}
    t = depth + 1
    deep = _arrows_at_depth(q, t)
    e_w, g_w = ([f"{q.vertex_str(a.src)}->{q.vertex_str(a.dst)} "
                 f"for all depths >= {t}" for a in deep if test(a)]
                for test in (only_middle, glued))

    rep = FiniteExtReport((not e_w) and (not g_w), not e_w, not g_w,
                          tuple(sorted(arrows)),
                          tuple(sorted(set(e_w + g_w))))
    finite = rep.finite
    witness = rep.witness if not finite else rep.arrows
    return finite, witness, rep
