"""Extension spaces via the arrow cocycle complex.

For objects X (quotient side) and Y (sub side) the complex

    C0 = sum over vertices v of Hom(X(v), Y(v))
    C1 = sum over arrows a of Hom(X(src a), Y(dst a))
    d(f)_a = Y(a) f_src - f_dst X(a)

has kernel Hom(X, Y) and cokernel Ext(X, Y) (Ringel, LNM 1099).  On a
vertex set it is built over the arrows within the set (arrow_complex).  A
pair's one ArrowPair, kept in X's memo, builds it on the joint window and
reads both counts off one rank: dim Hom = cols - rank (hom.py says why the
window is exact for Hom) and dim Ext = rows - rank, by a tail argument.
Its kernel basis is the natural maps X -> Y on the window (natural_maps),
which the window route of Hom and the almost split battery read.

Past the stable depth every nonzero ray of an object in rrep has an
invertible transition and every crossing map is zero (else its verdict is
notInRrep).  So the row of an arrow leaving the window along a ray never
obstructs: f at its outer vertex solves it, and so on down the ray.  Only a
crossing arrow with X(src)·Y(dst) != 0 has a row that is zero at every
depth, a class of its own at each: an infinite family, which flags the pair
window_relative.  Any other pair's Ext count is the same at every pad, which
one rank at pad 3 checks unless X is fd (a mismatch is an engine bug,
AssertionError); fd X has no arrow out of the window into supp Y.  The class
basis is built on first read, on the same complex.
"""
from __future__ import annotations

import weakref
from functools import cached_property

from .linalg import Mat, SparseMat, coker_projection, kernel_basis, rank
from .morphism import SES, glue_ses
from .quiver import Arrow
from .record import Record
from .rep import (GlueRep, Rep, RungFamily, classify_membership, equal_on,
                  joint_window, same_ambient)


def arrow_complex(x: Rep, y: Rep, verts):
    """(d, offsets, arrows): the differential C0 -> C1 on verts and the
    arrows within them, a SparseMat of its nonzeros, reduced mod p over
    GF(p), and the arrows that give it rows, in row order.

    Column offsets[v] + r * x.dim(v) + c is entry (r, c) of f_v, for v in
    verts; row (a, r, c), in arrow order, is entry (r, c) of d(f)_a, with
    at most dim Y(src a) + dim X(dst a) nonzeros.  src a != dst a, so the
    two parts of a row never share a column.
    """
    F = x.field
    p = F.char
    offsets, total = {}, 0
    for v in verts:
        offsets[v] = total
        total += y.dim(v) * x.dim(v)
    rows, arrows = [], []
    for a in x.quiver.arrows_within(verts):
        sx, ry = x.dim(a.src), y.dim(a.dst)
        if not (sx and ry):
            continue  # no rows
        arrows.append(a)
        s, t, dx = offsets[a.src], offsets[a.dst], x.dim(a.dst)
        # a part whose vertex is 0 reads no matrix
        Xa = x.mat(a).entries if dx else ()
        Ya = y.mat(a).entries if y.dim(a.src) else ((),) * ry
        # the nonzeros of -X(a) by column c: (k, entry) meeting f_dst's (r, k)
        xcols = [[(k, w) for k, xrow in enumerate(Xa) if (w := F.neg(xrow[c]))]
                 for c in range(sx)]
        for r, yrow in enumerate(Ya):
            # the nonzeros of Y(a)'s row r: (k, entry) meeting f_src's (k, c)
            ys = [(s + k * sx, w) for k, v in enumerate(yrow)
                  if (w := v % p if p else v)]
            base = t + r * dx
            for c, xs in enumerate(xcols):
                row = {j + c: v for j, v in ys}
                for k, v in xs:
                    row[base + k] = v
                rows.append(row)
    return SparseMat(F, len(rows), total, tuple(rows)), offsets, tuple(arrows)


def _arrows_at_depth(q, t) -> list:
    """Each end's band arrows at depth t, its crossing arrows among them,
    sorted per end: the arrows whose behaviour repeats at every depth >= t."""
    return [a for end in q.ends() for a in end.band_arrows(t)]


def _crossing_arrows(q, t) -> list:
    """The crossing arrows at depth t, one per end and crossing."""
    return [end.crossing_arrow(cid, t) for end in q.ends()
            for (cid, _, _) in end.crossings]


class ArrowPair:
    """The joint window of x and y at pad 2 and the two counts of their
    arrow complex per pad, each computed on first read, and the natural maps
    x -> y on the window, built on each call.  It holds x and y weakly:
    arrow_pair keeps it in x's memo, keyed weakly by y, and a caller that
    reads a pair once (the almost split battery) drops its own."""

    def __init__(self, x: Rep, y: Rep):
        self._x, self._y = weakref.ref(x), weakref.ref(y)
        self._counts = {}

    @cached_property
    def window(self) -> tuple:
        """(verts, depth) of joint_window((x, y))."""
        return joint_window((self._x(), self._y()))

    def counts(self, pad: int = 2) -> dict:
        """{"Hom": cols - rank, "Ext": rows - rank} of the complex on the
        joint window at pad, from one elimination."""
        if pad not in self._counts:
            x, y = self._x(), self._y()
            verts = self.window[0] if pad == 2 else joint_window((x, y), pad)[0]
            d, _, _ = arrow_complex(x, y, verts)
            r = rank(d)
            self._counts[pad] = {"Hom": d.cols - r, "Ext": d.rows - r}
        return self._counts[pad]

    def natural_maps(self) -> list:
        """The kernel basis of the complex on the window, each a dict
        v -> Mat over the window's vertices: the natural maps x -> y there."""
        x, y = self._x(), self._y()
        verts = self.window[0]
        d, offsets, _ = arrow_complex(x, y, verts)

        def component(col, v):
            sd, base = x.dim(v), offsets[v]
            return Mat(x.field, y.dim(v), sd, tuple(
                tuple(col[base + r * sd + c] for c in range(sd))
                for r in range(y.dim(v))))

        K = kernel_basis(d)
        return [{v: component(col, v) for v in verts}
                for col in map(K.col, range(K.cols))]


def arrow_pair(x: Rep, y: Rep) -> ArrowPair:
    """The ArrowPair of x and y, kept in x's memo for as long as y lives."""
    pairs = x.cached("arrow_pairs", weakref.WeakKeyDictionary)
    pair = pairs.get(y)
    if pair is None:
        pair = pairs[y] = ArrowPair(x, y)
    return pair


class CountedBasis:
    """dimension is one count (_count), basis built on first read (_build,
    basis first); reading both checks that they agree (AssertionError).
    _pair is the ArrowPair of the two objects."""

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

    def _check_pad3(self, count: int):
        """The window contract: the count at pad 3 is the one at pad 2."""
        deeper = self._pair.counts(3)[self._space]
        if deeper != count:
            raise AssertionError(
                f"window {self._space} dimension {count} at pad 2 and "
                f"{deeper} at pad 3, window depth {self._pair.window[1]}: "
                f"the count moves past the stable depth")

    basis = property(lambda self: self._built[0])


class ExtClassBasis(CountedBasis):
    """Ext(quot, sub): basis (cocycle dicts arrow -> Mat), arrows (those of
    the window that give rows), families and coords, each computed on first
    read."""

    _space, _built_on = "Ext", "classes on the interaction window"

    def __init__(self, quot: Rep, sub: Rep):
        self.quot, self.sub = quot, sub

    _pair = cached_property(lambda self: arrow_pair(self.quot, self.sub))

    def _count(self) -> int:
        """Checked at pad 3 unless quot is fd or the pair has a family."""
        count = self._pair.counts()["Ext"]
        if classify_membership(self.quot).verdict != "fd" \
                and not self.window_relative:
            self._check_pad3(count)
        return count

    def _build(self) -> tuple:
        """The classes on the window, one per free row of the complex."""
        x, y = self.quot, self.sub
        F = x.field
        d, _, arrows = arrow_complex(x, y, self._pair.window[0])
        layout = tuple((a, r, c) for a in arrows
                       for r in range(y.dim(a.dst)) for c in range(x.dim(a.src)))
        P, free = coker_projection(d)
        basis = []
        for fr in free:
            a, r, c = layout[fr]
            unit = [[F.zero] * x.dim(a.src) for _ in range(y.dim(a.dst))]
            unit[r][c] = F.one
            basis.append({a: Mat.from_rows(F, unit)})
        return tuple(basis), arrows, P, layout

    arrows = property(lambda self: self._built[1])

    @cached_property
    def families(self) -> tuple:
        """The crossing arrows one band past the window with X(src)·Y(dst)
        != 0, as symbolic witnesses of a family that repeats at every depth
        (module docstring)."""
        x, y, q = self.quot, self.sub, self.quot.quiver
        t = self._pair.window[1] + 1
        return tuple(f"{q.vertex_str(a.src)}->{q.vertex_str(a.dst)} "
                     f"repeating for depth >= {t}"
                     for a in _crossing_arrows(q, t)
                     if x.dim(a.src) and y.dim(a.dst))

    window_relative = property(lambda self: bool(self.families))

    def coords(self, cocycle_at) -> tuple:
        """Class coordinates of a cocycle given as a lookup arrow -> Mat."""
        zero, (_, _, proj, layout) = self.sub.field.zero, self._built
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
    # every arrow out of the window that can carry a cocycle, leaving it too
    verts = joint_window((quot, sub))[0]
    arrows = sorted({a for v in verts if quot.dim(v)
                     for a in quot.quiver.out_arrows(v) if sub.dim(a.dst)},
                    key=Arrow.key)
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
