"""Hom spaces, endomorphism algebras, isomorphism testing, decomposition.

One count and two finite routes to a basis of Hom(M, N).  The dimension
is d.cols - rank(d) for the arrow complex d of ext.py on the joint window
at pad 2, read off the pair's one elimination (ext.arrow_pair) with no
basis built, exact for the reason below, and checked at pad 3 unless M is
fd: a natural map out of fd M vanishes off supp M, which the window holds
with the arrows out of it into supp N.  The source fixes the route.  It
builds its basis when the basis is first read, and an object whose count
and basis are both read checks that they agree (a mismatch is an engine
bug, AssertionError):
  presentation    M fd or finitely presented: generator images that the
                  relations of M kill, each read as the Yoneda map of the
                  images through a section of the cover.
  window          any other M, both objects certified: the kernel of the
                  arrow complex on the joint window at pad 2, the pair's
                  natural maps (ArrowPair.natural_maps, which the almost
                  split battery of ar.py also reads), each map carrying the
                  depth of that window.

The window is exact.  Past the stable depth every nonzero ray of an object
in rrep has an invertible transition and every crossing map is zero (else
its verdict is notInRrep), so a natural map on the joint window extends to
the next band in exactly one way, through the ray arrow: restriction from
pad p + 1 to pad p is bijective for every p >= 0, and one rank at pad 3
checks that contract (a mismatch is an engine bug, AssertionError).  This
is also why morphism_from_components carries window components along rays.

So the window alone serves every pair, and its kernel back-substitutes
through the one sparse forward elimination, which pays for the nonzeros of
the sparse arrow complex: in process on a 2-vCPU Xeon VM, the basis of
Hom(I(1000), P(1)) on linear n = 1000 took 0.03-0.05 s on the window
(1.5-2.6 s by presentation), that of Hom(I(-400), I(-400)) on line
0.02-0.03 s.
The presentation route stays because the CLI hom verb prints its route and
Yoneda basis, which the benchmark pins.

Both routes return morphisms defined everywhere, each one rule, so bases
from either can be compared and composed freely.  Each route's anchor
(generators, window) fixes its basis, so End coordinates are solved there.
A summand's End is its own: decompose reads end_algebra of each piece, which
a brick reads off its count.
"""
from __future__ import annotations

from functools import cached_property, reduce

from .ext import CountedBasis, arrow_pair
from .linalg import (Mat, inverse, kernel_basis, min_poly, rank, rref,
                     solve_matrix)
from .morphism import (Morphism, identity_morphism, image,
                       morphism_from_components, zero_morphism)
from .presentations import min_proj_presentation, relation_matrix, yoneda
from .record import Record
from .rep import Rep, classify_membership, dim_vector, joint_window, same_ambient


# ---------------------------------------------------------------------------
# hom spaces


class HomBasis(CountedBasis):
    """Hom(src, dst) on one route, whose name hom_space fixes.

    dimension is the pair's count (ext.arrow_pair), with no basis built;
    the route's basis and anchor (the vertices where the basis is fixed,
    and independent) are built when read.  The window (the joint window at
    pad 2) and the counts at pads 2 and 3 are the pair's, which Ext of the
    same pair reads too, for the count and the window route alike."""

    _space = "Hom"

    def __init__(self, src: Rep, dst: Rep, route: str):
        self.src, self.dst, self.route = src, dst, route
        self._built_on = f"morphisms on the {route} route"

    _pair = cached_property(lambda self: arrow_pair(self.src, self.dst))
    window = property(lambda self: self._pair.window[0])

    def _count(self) -> int:
        """Checked at pad 3 unless src is fd: a map out of fd src vanishes
        off supp src, which the window holds with its arrows into supp dst."""
        count = self._pair.counts()["Hom"]
        if classify_membership(self.src).verdict != "fd":
            self._check_pad3(count)
        return count

    def _build(self) -> tuple:
        """(basis, anchor) on the route."""
        m, n = self.src, self.dst
        if self.route == "presentation":
            return _presentation_route(m, n)
        hom = self._pair.natural_maps()
        self._check_pad3(len(hom))
        return tuple(morphism_from_components(m, n, comps, f"h{i}")
                     for i, comps in enumerate(hom)), self.window

    anchor = property(lambda self: self._built[1])


def _presentation_route(m: Rep, n: Rep):
    pres = min_proj_presentation(m)
    F = m.field
    ys = pres.pm.codomain
    K = kernel_basis(relation_matrix(pres.pm, n))
    basis = []
    for k in range(K.cols):
        col, off, images = K.col(k), 0, []
        for y in ys:
            d = n.dim(y)
            images.append(Mat(F, d, 1, tuple((x,) for x in col[off:off + d])))
            off += d
        y = yoneda(n, ys, images)
        basis.append(Morphism(m, n, label=f"h{k}", rule=lambda v, y=y:
                              y.component(v).mul(pres.section(v))))
    return tuple(basis), tuple(dict.fromkeys(ys))


def hom_space(m: Rep, n: Rep) -> HomBasis:
    """Hom(m, n) on the first route of the module docstring that applies."""
    same_ambient(m, n, "hom_space objects")
    certm = classify_membership(m)
    certn = classify_membership(n)
    for c, which in ((certm, "domain"), (certn, "codomain")):
        if not c.is_in_rrep():
            raise ValueError(
                f"hom_space needs finite-data objects; {which} is {c.verdict}")
    return HomBasis(m, n, "presentation" if certm.has_presentation()
                    else "window")


# ---------------------------------------------------------------------------
# endomorphism algebras


class EndAlgebra(Record):
    # table[i][j] = coords of basis[i] o basis[j], identity the coords of the
    # identity, radical coord vectors spanning the radical; __dict__ holds
    # the cached idempotent
    __slots__ = ("obj", "dimension", "basis", "table", "identity", "radical",
                 "is_local", "__dict__")
    _fields = __slots__[:-1]

    @cached_property
    def idempotent(self):
        """A nontrivial idempotent (coords), or None; searched once."""
        return _find_idempotent(self)


def _columns(F, comps) -> Mat:
    """The matrix whose k-th column is the list of matrices comps[k]
    flattened row by row, one after the other."""
    cols = [[x for c in cs for row in c.entries for x in row] for cs in comps]
    return Mat(F, len(cols[0]), len(cols), tuple(zip(*cols)))


def end_algebra(m: Rep) -> EndAlgebra:
    """End(M): 0 or k·id read off the count, else on the basis of Hom(M, M),
    the identity and each product of two basis morphisms solved at the
    route's anchor; computed once per object."""
    return m.cached("end_algebra", lambda: _end_algebra(m))


def _end_algebra(m: Rep) -> EndAlgebra:
    F = m.field
    hb = hom_space(m, m)
    n = hb.dimension
    if n < 2:  # 0, or k·id for a brick: read off the count
        return EndAlgebra(m, n, (identity_morphism(m),)[:n],
                          (((F.one,),),)[:n], (F.one,)[:n], (), n == 1)
    verts = hb.anchor
    comps = [[f.component(v) for v in verts] for f in hb.basis]
    B = _columns(F, comps)
    if rank(B) < n:
        raise AssertionError("Hom basis is dependent on its anchor")

    # coordinates of the identity and of every basis[i] o basis[j], from one
    # elimination of [B | identity, products]
    rhs = [[Mat.identity(F, m.dim(v)) for v in verts]]
    rhs += [[a.mul(b) for a, b in zip(ci, cj)] for ci in comps for cj in comps]
    X = solve_matrix(B, _columns(F, rhs))
    if X is None:
        raise AssertionError("endomorphism outside the computed basis")
    coords = X.transpose().entries
    ident = coords[0]
    table = tuple(coords[1 + i * n:1 + (i + 1) * n] for i in range(n))

    # the trace form T[i][j] = tr(L_(b_i b_j)), as Mat products, so each
    # entry is a field element (reduced mod p, as rref needs)
    diagonals = tuple(tuple(t[j][j] for j in range(n)) for t in table)
    traces = Mat(F, n, n, diagonals).apply((F.one,) * n)
    T = Mat(F, n, n, tuple(Mat(F, n, n, t).apply(traces) for t in table))
    radK = kernel_basis(T)
    radical = tuple(radK.col(j) for j in range(radK.cols))
    alg = EndAlgebra(m, n, hb.basis, table, ident, radical, False)
    if F.char == 0:
        alg.is_local = (n - len(radical) == 1)
    else:
        alg.is_local = alg.idempotent is None
    return alg


def _left_mult(E: EndAlgebra, x) -> Mat:
    """L_x, the matrix of left multiplication by x in the regular
    representation: column j holds the coordinates of x o basis[j]."""
    F = E.obj.field
    n = E.dimension
    acc = Mat.zeros(F, n, n)
    for i, c in enumerate(x):
        if not F.is_zero(c):
            acc = acc.add(Mat(F, n, n, tuple(zip(*E.table[i]))).scale(c))
    return acc


def _candidate_elements(E: EndAlgebra):
    F = E.obj.field
    n = E.dimension
    def e(i):
        return tuple(F.one if t == i else F.zero for t in range(n))
    for i in range(n):
        yield e(i)
    scalars = [F.one, F.of(2), F.of(3)] if F.char != 2 else [F.one]
    for i in range(n):
        for j in range(i + 1, n):
            for s in scalars:
                yield tuple(F.add(a, F.mul(s, b)) for a, b in zip(e(i), e(j)))
    if n <= 8:
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    yield tuple(F.add(F.add(a, b), c)
                                for a, b, c in zip(e(i), e(j), e(k)))


def _find_idempotent(E: EndAlgebra):
    """A nontrivial idempotent (coords) via minimal polynomial splitting,
    searched over a deterministic candidate list; None if not found, or if
    a minimal polynomial over Q is too costly to factor (poly.factor)."""
    F = E.obj.field
    n = E.dimension
    for cand in _candidate_elements(E):
        L = _left_mult(E, cand)
        mp = min_poly(L)
        if len(mp) == 2:  # degree 1: a scalar multiple of the identity
            continue
        # imported here, so processes that never factor do not compile it
        from . import poly
        factors = poly.factor(F, mp)
        if factors is None:
            return None
        if len(factors) < 2:
            continue
        # the polynomial that is 1 mod f0^e0 and 0 mod the cofactor g
        f0, e0 = factors[0]
        m0 = f0
        for _ in range(e0 - 1):
            m0 = poly.mul(F, m0, f0)
        g = poly.div(F, mp, m0)[0]
        s = poly.gcdex(F, g, m0)[0]
        value = Mat.zeros(F, n, n)  # Horner: the polynomial at L
        for c in reversed(poly.div(F, poly.mul(F, s, g), mp)[1]):
            value = value.mul(L).add(Mat.identity(F, n).scale(c))
        idem = value.apply(E.identity)
        if idem == E.identity or all(F.is_zero(c) for c in idem):
            continue
        if _left_mult(E, idem).apply(idem) != idem:
            raise AssertionError("idempotent construction failed")
        return idem
    return None


# ---------------------------------------------------------------------------
# isomorphism testing and decomposition


def _pointwise_inverse(h: Morphism) -> Morphism:
    def rule(v):
        inv = inverse(h.component(v))
        if inv is None:
            raise AssertionError("inverse requested for a singular component")
        return inv
    return Morphism(h.src, h.dst, rule=rule, label="inv")


def _iso_indec(m: Rep, n: Rep):
    """(f, f_inverse) for the first basis element f of Hom(m, n) that is
    invertible on the pair's window, or None.  Complete when both objects
    are indecomposable: the maps that are not isomorphisms then form a
    proper subspace, so some basis element is invertible."""
    probe = joint_window((m, n))[0]
    if dim_vector(m, probe) != dim_vector(n, probe):
        return None
    for f in hom_space(m, n).basis:
        if f.is_invertible_on(probe):
            return f, _pointwise_inverse(f)
    return None


class Summand(Record):
    __slots__ = _fields = ("rep", "incl", "proj", "flagged")


class DecomposeReport(Record):
    # summands: one Summand per indecomposable occurrence; items: the pairs
    # (representative rep, multiplicity)
    __slots__ = _fields = ("obj", "summands", "items", "flagged")


def _endo_from_coords(E: EndAlgebra, coords, label="e") -> Morphism:
    F = E.obj.field

    def rule(v):
        acc = Mat.zeros(F, E.obj.dim(v), E.obj.dim(v))
        for c, b in zip(coords, E.basis):
            if not F.is_zero(c):
                acc = acc.add(b.component(v).scale(c))
        return acc

    return Morphism(E.obj, E.obj, rule=rule, label=label)


def _split_summand(m: Rep, emor: Morphism):
    """(piece, incl, proj) for the image of an idempotent endomorphism."""
    piece, incl = image(emor)
    proj = Morphism(m, piece, label="proj", rule=lambda v: piece.coords(
        v, emor.component(v), "idempotent image projection failed"))
    return piece, incl, proj


def brick_complement(z: Rep, mult: int, m: Rep) -> Rep:
    """The complement of z^mult in m for a brick z (End z = k): with window
    bases f_j of Hom(z, m) and g_i of Hom(m, z), g_i o f_j = P[i][j] id_z,
    mult is the rank of P (else AssertionError), and an invertible minor Q
    of P gives the idempotent e = sum f_j (Q^-1)_ji g_i onto z^mult."""
    fs, gs = HomBasis(z, m, "window").basis, HomBasis(m, z, "window").basis
    F, v = m.field, next(v for v in joint_window([z])[0] if z.dim(v))
    P = Mat(F, len(gs), len(fs), tuple(tuple(g.component(v).mul(
        f.component(v)).entries[0][0] for f in fs) for g in gs))
    cols, rows = rref(P)[1], rref(P.transpose())[1]
    if len(cols) != mult:
        raise AssertionError(f"{z.describe()} is named {mult} times, but its "
                             f"brick pairing has rank {len(cols)}")
    Q = Mat(F, mult, mult, tuple(tuple(P.entries[i][j] for j in cols)
                                 for i in rows))
    e = [(fs[j], c, gs[i]) for j, qrow in zip(cols, inverse(Q).entries)
         for i, c in zip(rows, qrow) if not F.is_zero(c)]
    return _split_summand(m, Morphism(m, m, lambda u: reduce(
        Mat.sub, (f.component(u).mul(g.component(u)).scale(c)
                  for f, c, g in e), Mat.identity(F, m.dim(u))), "1-e"))[0]


def _decompose_rec(m: Rep, incl: Morphism, proj: Morphism, out):
    """Split m by an idempotent e of End(m) and 1 - e and recurse on both
    pieces.  The one rule: a piece is a leaf when its own End is k, which
    end_algebra reads off its count (or when its End has no idempotent,
    flagged unless local).  Each split is by a verified e != 0, 1, so both
    pieces are nonzero, and m has at most dim End(m) indecomposable
    summands (Krull-Schmidt): the recursion ends."""
    E = end_algebra(m)
    if E.dimension == 0:
        return
    if E.dimension == 1:
        out.append(Summand(m, incl, proj, False))
        return
    ec = E.idempotent
    if ec is None:
        out.append(Summand(m, incl, proj, not E.is_local))
        return
    comp = tuple(m.field.sub(a, b) for a, b in zip(E.identity, ec))
    for coords in (ec, comp):
        piece, pincl, pproj = _split_summand(m, _endo_from_coords(E, coords))
        _decompose_rec(piece, pincl.then(incl), proj.then(pproj), out)


def decompose_report(m: Rep) -> DecomposeReport:
    cert = classify_membership(m)
    if not cert.is_in_rrep():
        raise ValueError(f"decompose needs a finite-data object, got {cert.verdict}")
    probe = joint_window([m])[0]
    leaves: list = []
    _decompose_rec(m, identity_morphism(m), identity_morphism(m), leaves)
    groups: list = []
    for s in leaves:
        for g in groups:
            if _iso_indec(g[0].rep, s.rep) is not None:
                g.append(s)
                break
        else:
            groups.append([s])
    groups.sort(key=lambda g: summand_key(g[0].rep, probe))
    items = tuple((g[0].rep, len(g)) for g in groups)
    return DecomposeReport(m, tuple(leaves), items,
                           any(s.flagged for s in leaves))


def summand_key(rep: Rep, probe) -> tuple:
    """decompose's summand order, which knit's predicted meshes keep."""
    dims = dim_vector(rep, probe)
    return tuple(sorted(dims, reverse=True)), dims, rep.describe()


def decompose(m: Rep) -> list:
    """List of (indecomposable summand, multiplicity), deterministic order."""
    return list(decompose_report(m).items)


def iso_test(m: Rep, n: Rep):
    """(f, f_inverse) if the objects are isomorphic, else None."""
    probe = joint_window((m, n))[0]
    if dim_vector(m, probe) != dim_vector(n, probe):
        return None
    direct = _iso_indec(m, n)
    if direct is not None:
        return direct
    rm = decompose_report(m)
    rn = decompose_report(n)
    if len(rm.summands) != len(rn.summands):
        return None
    used = [False] * len(rn.summands)
    pairing = []
    for sm in rm.summands:
        for j, sn in enumerate(rn.summands):
            pair = None if used[j] else _iso_indec(sm.rep, sn.rep)
            if pair is not None:
                used[j] = True
                pairing.append((sm, sn, pair))
                break
        else:
            return None
    f = zero_morphism(m, n)
    finv = zero_morphism(n, m)
    for (sm, sn, (u, uinv)) in pairing:
        f = f.add(sm.proj.then(u).then(sn.incl))
        finv = finv.add(sn.proj.then(uinv).then(sm.incl))
    return f, finv
