"""Extension spaces via the arrow cocycle complex.

For objects X (quotient side) and Y (sub side) the complex

    C0 = sum over vertices v of Hom(X(v), Y(v))
    C1 = sum over arrows a of Hom(X(src a), Y(dst a))
    d(f)_a = Y(a) f_src - f_dst X(a)

has kernel Hom(X, Y) and cokernel Ext(X, Y) (Ringel, LNM 1099).  Both
counts of a pair come from one ArrowPair, kept per pair in X's memo: one
complex on the cells of the joint window where both evaluations are
nonzero, its rows of the arrows with both ends in the window first and
those of the arrows leaving it after them, and one elimination of those
rows in order.  The rank of that prefix gives dim Hom = cols - rank, and
the rank of all rows dim Ext = rows - rank, with no basis built.  The
class basis and the families are built on first read, on the same
window, by a complex of their own in arrow order, which fixes the free
rows of the class basis; when the contributing arrow set continues past
the window (families) the basis is flagged window_relative.
"""
from __future__ import annotations

import weakref
from functools import cached_property

from .linalg import Mat, SparseMat, coker_projection, ranks
from .morphism import SES, glue_ses
from .quiver import Arrow
from .record import Record
from .rep import (GlueRep, Rep, RungFamily, classify_membership, equal_on,
                  joint_window, same_ambient)


def arrow_complex(x: Rep, y: Rep, verts, arrows):
    """(d, offsets): the differential C0 -> C1 on verts and arrows, a
    SparseMat of its nonzero entries, reduced mod p over GF(p).

    Column offsets[v] + r * x.dim(v) + c is entry (r, c) of f_v, for v in
    verts; row (a, r, c), in the order of arrows, is entry (r, c) of d(f)_a,
    with at most dim Y(src a) + dim X(dst a) nonzeros.  A vertex outside
    verts contributes nothing; src a != dst a, so the two parts of a row
    never share a column.
    """
    F = x.field
    p = F.char
    offsets, total = {}, 0
    for v in verts:
        offsets[v] = total
        total += y.dim(v) * x.dim(v)
    rows = []
    for a in arrows:
        sx, ry = x.dim(a.src), y.dim(a.dst)
        if not (sx and ry):
            continue  # no rows
        s, t = offsets.get(a.src), offsets.get(a.dst)
        dx = x.dim(a.dst)
        # a part whose vertex is outside verts or 0 there reads no matrix
        Xa = x.mat(a).entries if t is not None and dx else ()
        Ya = y.mat(a).entries if s is not None and y.dim(a.src) else ((),) * ry
        # the nonzeros of -X(a) by column c: (k, entry) meeting f_dst's (r, k)
        xcols = [[(k, w) for k, xrow in enumerate(Xa) if (w := F.neg(xrow[c]))]
                 for c in range(sx)]
        for r, yrow in enumerate(Ya):
            # the nonzeros of Y(a)'s row r: (k, entry) meeting f_src's (k, c)
            ys = [(s + k * sx, w) for k, v in enumerate(yrow)
                  if (w := v % p if p else v)]
            base = 0 if t is None else t + r * dx
            for c, xs in enumerate(xcols):
                row = {j + c: v for j, v in ys}
                for k, v in xs:
                    row[base + k] = v
                rows.append(row)
    return SparseMat(F, len(rows), total, tuple(rows)), offsets


def _arrows_at_depth(q, t) -> list:
    """Each end's band arrows and crossing arrows at depth t, sorted per end:
    the arrows whose behaviour repeats at every depth >= t."""
    out = []
    for end in q.ends():
        cands = set(end.band_arrows(t))
        cands.update(end.crossing_arrow(cid, t) for (cid, _, _) in end.crossings)
        out.extend(sorted(cands, key=Arrow.key))
    return out


def _cells(x: Rep, y: Rep, verts):
    """(V, A): where x and y are both nonzero, at a vertex or across an arrow."""
    vs = [v for v in verts if x.dim(v) > 0 and y.dim(v) > 0]
    arrows = sorted({a for v in verts if x.dim(v) > 0
                     for a in x.quiver.out_arrows(v) if y.dim(a.dst) > 0},
                    key=Arrow.key)
    return vs, arrows


class ArrowPair:
    """The arrow complex of x and y on their joint window at pad 2 and its
    two counts, each computed on first read.  It holds x and y weakly: it
    lives in x's memo, keyed weakly by y (arrow_pair)."""

    def __init__(self, x: Rep, y: Rep):
        self._x, self._y = weakref.ref(x), weakref.ref(y)

    @cached_property
    def window(self) -> tuple:
        """(verts, depth) of joint_window((x, y))."""
        return joint_window((self._x(), self._y()))

    @cached_property
    def _counts(self) -> tuple:
        """(dim Hom(x, y), dim Ext(x, y)) from one elimination of the
        complex on the window's cells, the rows of the arrows within the
        window first: the natural maps on the window are the kernel of
        those rows alone."""
        x, y = self._x(), self._y()
        verts = self.window[0]
        vs, arrows = _cells(x, y, verts)
        inside = set(verts)
        within = [a for a in arrows if a.dst in inside]
        arrows = within + [a for a in arrows if a.dst not in inside]
        d, _ = arrow_complex(x, y, vs, arrows)
        head, rank = ranks(d, sum(y.dim(a.dst) * x.dim(a.src) for a in within))
        return d.cols - head, d.rows - rank

    hom_dim = property(lambda self: self._counts[0])
    ext_dim = property(lambda self: self._counts[1])


def arrow_pair(x: Rep, y: Rep) -> ArrowPair:
    """The ArrowPair of x and y, kept in x's memo for as long as y lives."""
    pairs = x.cached("arrow_pairs", weakref.WeakKeyDictionary)
    pair = pairs.get(y)
    if pair is None:
        pair = pairs[y] = ArrowPair(x, y)
    return pair


class CountedBasis:
    """dimension is one count (_count), basis built on first read (_build,
    basis first); reading both checks that they agree (AssertionError)."""

    @cached_property
    def dimension(self) -> int:
        count = self._count()
        if "_built" in self.__dict__:
            self._agree(count, len(self.basis))
        return count

    @cached_property
    def _built(self) -> tuple:
        built = self._build()
        if "dimension" in self.__dict__:
            self._agree(self.dimension, len(built[0]))
        return built

    def _agree(self, count: int, built: int):
        if count != built:
            raise AssertionError(
                f"{self._space} dimension {count} by the arrow complex, but "
                f"{built} basis {self._built_on}")

    basis = property(lambda self: self._built[0])


class ExtClassBasis(CountedBasis):
    """Ext(quot, sub): basis (cocycle dicts arrow -> Mat), arrows (those of
    the window that contribute), families and coords, built on first read."""

    _space, _built_on = "Ext", "classes on the interaction window"

    def __init__(self, quot: Rep, sub: Rep):
        self.quot, self.sub = quot, sub

    _window = property(lambda self: arrow_pair(self.quot, self.sub).window)

    def _count(self) -> int:
        return arrow_pair(self.quot, self.sub).ext_dim

    def _build(self) -> tuple:
        """The classes on the cells of the window; families are symbolic
        witnesses that the arrow set continues periodically past it."""
        x, y = self.quot, self.sub
        F, q = x.field, x.quiver
        verts, depth = self._window
        vs, arrows = _cells(x, y, verts)
        families = tuple(f"{q.vertex_str(a.src)}->{q.vertex_str(a.dst)} "
                         f"repeating for depth >= {depth + 1}"
                         for a in _arrows_at_depth(q, depth + 1)
                         if x.dim(a.src) > 0 and y.dim(a.dst) > 0)
        d, _ = arrow_complex(x, y, vs, arrows)
        layout = tuple((a, r, c) for a in arrows
                       for r in range(y.dim(a.dst)) for c in range(x.dim(a.src)))
        P, free = coker_projection(d)
        basis = []
        for fr in free:
            a, r, c = layout[fr]
            unit = [[F.zero] * x.dim(a.src) for _ in range(y.dim(a.dst))]
            unit[r][c] = F.one
            basis.append({a: Mat.from_rows(F, unit)})
        return tuple(basis), tuple(arrows), families, P, layout

    arrows = property(lambda self: self._built[1])
    families = property(lambda self: self._built[2])
    window_relative = property(lambda self: bool(self.families))

    def coords(self, cocycle_at) -> tuple:
        """Class coordinates of a cocycle given as a lookup arrow -> Mat."""
        zero, (_, _, _, proj, layout) = self.sub.field.zero, self._built
        return proj.apply([zero if (m := cocycle_at(a)) is None
                           else m.entries[r][c] for (a, r, c) in layout])


def ext_space(x: Rep, y: Rep) -> ExtClassBasis:
    """Ext(X, Y), its count and its basis each computed when first read."""
    same_ambient(x, y, "ext_space objects")
    for m, which in ((x, "quotient"), (y, "sub")):
        if not (c := classify_membership(m)).is_in_rrep():
            raise ValueError(f"ext_space needs finite-data objects; "
                             f"{which} is {c.verdict}")
    return ExtClassBasis(x, y)


def ext_class_to_ses(ecb: ExtClassBasis, coeffs) -> SES:
    """The glued sequence representing a linear combination of basis classes."""
    F = ecb.sub.field
    if len(coeffs) != len(ecb.basis):
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
    """Whether the class of ses is zero; ValueError (exit 1) when the class
    has infinitely many coordinates past the window, outside what the
    finite data decide."""
    ecb = ext_space(ses.quot, ses.sub)
    if ecb.window_relative:
        raise ValueError(f"splitness undecidable: infinite interaction "
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
        verts, _ = joint_window((e1, e2))
        if not equal_on(e1, e2, verts):
            raise ValueError(f"the {which} ends differ: the second "
                             f"sequence's {e2.describe()} is not the first's")


def equiv_ext(s1: SES, s2: SES) -> bool:
    """Same Ext class (equivalence of extensions with identified ends)."""
    _same_ends(s1, s2)
    ecb = ext_space(s1.quot, s1.sub)
    if ecb.window_relative:
        raise ValueError(f"equivalence undecidable: infinite interaction "
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
    arrows = _cells(quot, sub, joint_window((quot, sub))[0])[1]
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


class FiniteExtReport(Record):
    # vanishing_outside: are the arrows where only the middle is nonzero
    # finitely many?  gluing_support: are the gluing arrows with nonzero
    # cocycle finitely many?
    __slots__ = _fields = ("finite", "vanishing_outside", "gluing_support",
                           "arrows", "witness")


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
    region, depth = joint_window((L, M, N))

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
                          tuple(sorted(arrows, key=Arrow.key)),
                          tuple(sorted(set(e_w + g_w))))
    finite = rep.finite
    witness = rep.witness if not finite else rep.arrows
    return finite, witness, rep
