"""Hom spaces, endomorphism algebras, isomorphism testing, decomposition.

Three finite routes to Hom(M, N):
  presentation    M finitely presented: generator images that the relations
                  of M kill, each read as the Yoneda map of the images
                  through a section of the cover.
  copresentation  N finitely copresented: the presentation route on the
                  duals, Hom(M, N) = Hom(DN, DM) over the opposite quiver,
                  transposed back.
  window          both objects certified: the kernel of the arrow complex of
                  ext.py on a stabilized window, with a second solve one band
                  deeper as certificate.

All routes return morphisms defined everywhere (rule or propagation based),
so bases from different routes can be compared and composed freely.  Each
route's anchor (generators, socle, window) fixes its basis, so End
coordinates are solved there; a summand eM has End(eM) = e·End(M)·e.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .ext import arrow_complex
from .linalg import (Mat, inverse, kernel_basis, min_poly, rank, solve,
                     solve_matrix)
from .morphism import Morphism, identity_morphism, image, zero_morphism
from .presentations import min_proj_presentation, relation_matrix, yoneda_at
from .quiver import vkey
from .rep import (BudgetError, Rep, classify_membership, dim_vector, dualize,
                  joint_window)

WINDOW_PADS = 40  # pads the window route tries past its first two


# ---------------------------------------------------------------------------
# windowed naturality solve


def solve_natural(src: Rep, dst: Rep, verts, extra=()):
    """Solve the naturality equations for maps src -> dst on a vertex set.

    extra: constraints (v, A, B, R) meaning A * f_v * B = R, with None for
    identity on either side.  Returns (particular, basis): particular is a
    component dict satisfying the inhomogeneous constraints (None if
    unsolvable), basis is a list of component dicts spanning the homogeneous
    solution space.
    """
    F = src.field
    vs = sorted(set(verts), key=vkey)
    vset = set(vs)
    d, offs = arrow_complex(src, dst, vs, src.quiver.arrows_within(vs))
    rows = list(d.entries)
    rhs = [F.zero] * d.rows
    for (v, A, B, R) in extra:
        if v not in vset:
            raise ValueError("constraint vertex outside the window")
        dd, sd = dst.dim(v), src.dim(v)
        A = Mat.identity(F, dd) if A is None else A
        B = Mat.identity(F, sd) if B is None else B
        for r in range(A.rows):
            for c in range(B.cols):
                # entry (r, c) of A f_v B: A[r][k] B[l][c] on entry (k, l)
                row = [F.zero] * d.cols
                row[offs[v]:offs[v] + dd * sd] = [
                    F.mul(A.entries[r][k], B.entries[l][c])
                    for k in range(dd) for l in range(sd)]
                rows.append(tuple(row))
                rhs.append(R.entries[r][c])

    mat = Mat(F, len(rows), d.cols, tuple(rows))

    def unflatten(vec):
        comps = {}
        for v in vs:
            dd, sd = dst.dim(v), src.dim(v)
            base = offs[v]
            comps[v] = Mat(F, dd, sd, tuple(
                tuple(vec[base + r * sd + c] for c in range(sd))
                for r in range(dd)))
        return comps

    K = kernel_basis(mat)
    hom = [unflatten(K.col(j)) for j in range(K.cols)]
    if all(F.is_zero(x) for x in rhs):
        part = unflatten([F.zero] * d.cols)
    else:
        sol = solve(mat, rhs)
        part = unflatten(sol) if sol is not None else None
    return part, hom


# ---------------------------------------------------------------------------
# hom spaces


@dataclass
class HomBasis:
    src: Rep
    dst: Rep
    dimension: int
    basis: tuple
    route: str
    window: tuple
    anchor: tuple         # vertices where the basis is fixed, and independent
    certificate: dict


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
        basis.append(Morphism(m, n, label=f"h{k}", rule=lambda v, im=images:
                              yoneda_at(n, ys, im, v).mul(pres.section(v))))
    return basis, tuple(dict.fromkeys(ys)), {
        "generators": list(ys), "relations": list(pres.pm.domain)}


def _copresentation_route(m: Rep, n: Rep):
    """Hom(M, N) = Hom(DN, DM) over the opposite quiver, where DN is finitely
    presented; each basis morphism is D of its dual."""
    dual, socle, cert = _presentation_route(dualize(n), dualize(m))
    return [g.dual for g in dual], socle, {"socle": cert["generators"],
                                           "cosocle": cert["relations"]}


def _window_route(m: Rep, n: Rep, certs):
    pad = 2
    verts, depth = joint_window(certs, pad)
    _, hom = solve_natural(m, n, verts)
    while True:
        verts2, _ = joint_window(certs, pad + 1)
        _, hom2 = solve_natural(m, n, verts2)
        if len(hom2) == len(hom):
            break
        pad += 1
        verts, hom, last = verts2, hom2, len(hom)
        if pad > 2 + WINDOW_PADS:
            raise BudgetError(
                f"window solve did not stabilize within budget: Hom dimension "
                f"{last} at pad {pad - 1} and {len(hom)} at pad {pad}, window "
                f"depth {depth + pad - 2} reached")
    basis = [Morphism(m, n, window=verts, comps=comps, label=f"h{i}")
             for i, comps in enumerate(hom)]
    return basis, verts, {"window_depth": depth + pad - 2, "pad": pad}


def hom_space(m: Rep, n: Rep, route: Optional[str] = None) -> HomBasis:
    if m.field.char != n.field.char:
        raise ValueError("field mismatch")
    certm = classify_membership(m)
    certn = classify_membership(n)
    for c, which in ((certm, "domain"), (certn, "codomain")):
        if not c.is_in_rrep():
            raise ValueError(
                f"hom_space needs finite-data objects; {which} is {c.verdict}")
    available = [r for r, ok in (
        ("presentation", certm.verdict in ("fd", "fp")),
        ("copresentation", certn.verdict in ("fd", "fc")),
        ("window", True)) if ok]
    route = available[0] if route is None else route
    if route not in available:
        raise ValueError(f"route {route!r} is not available here; "
                         f"available: {', '.join(available)}")
    window, _ = joint_window([certm, certn])
    if route == "presentation":
        basis, anchor, cert = _presentation_route(m, n)
    elif route == "copresentation":
        basis, anchor, cert = _copresentation_route(m, n)
    else:
        basis, window, cert = _window_route(m, n, [certm, certn])
        anchor = window
    cert["routes_available"] = available
    return HomBasis(m, n, len(basis), tuple(basis), route, window, anchor,
                    cert)


# ---------------------------------------------------------------------------
# endomorphism algebras


@dataclass
class EndAlgebra:
    obj: Rep
    dimension: int
    basis: tuple
    table: tuple          # table[i][j] = coords of basis[i] o basis[j]
    identity: tuple       # coords of the identity
    radical: tuple        # coord vectors spanning the radical
    is_local: bool
    window: tuple
    notes: dict

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
    """End(M) on the basis of Hom(M, M), the coordinates of the identity and
    of each product of two basis morphisms solved at the route's anchor."""
    F = m.field
    hb = hom_space(m, m)
    n = hb.dimension
    if n == 0:
        return EndAlgebra(m, 0, (), (), (), (), False, hb.window,
                          {"zero_object": True})
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
    notes = {}
    if F.char != 0:
        notes["radical_caveat"] = (
            "trace-form radical; may overshoot in small characteristic")
    alg = EndAlgebra(m, n, hb.basis, table, ident, radical, False, hb.window,
                     notes)
    if F.char == 0:
        alg.is_local = (n - len(radical) == 1)
    else:
        alg.is_local = alg.idempotent is None
    return alg


def _left_mult(E: EndAlgebra, x, right=False) -> Mat:
    """L_x, the matrix of left multiplication by x in the regular
    representation: column j holds the coordinates of x o basis[j]; with
    right=True its mirror R_x, whose column j holds those of basis[j] o x."""
    F = E.obj.field
    n = E.dimension
    acc = Mat.zeros(F, n, n)
    for i, c in enumerate(x):
        if not F.is_zero(c):
            cols = [row[i] for row in E.table] if right else E.table[i]
            acc = acc.add(Mat(F, n, n, tuple(zip(*cols))).scale(c))
    return acc


def _corner_dim(E: EndAlgebra, e) -> int:
    """dim e·End·e = dim End(eM), the rank of x -> e·x·e, that is L_e·R_e."""
    return rank(_left_mult(E, e).mul(_left_mult(E, e, right=True)))


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


def _probe_verts(m: Rep, n: Rep):
    return joint_window([classify_membership(m), classify_membership(n)])[0]


def _pointwise_inverse(h: Morphism) -> Morphism:
    def rule(v):
        inv = inverse(h.component(v))
        if inv is None:
            raise AssertionError("inverse requested for a singular component")
        return inv
    return Morphism(h.src, h.dst, rule=rule, label="inv")


def _iso_indec(m: Rep, n: Rep, probe=None):
    """(f, f_inverse) for the first basis element f of Hom(m, n) that is
    invertible on the probe window, or None.  Complete when both objects are
    indecomposable: the maps that are not isomorphisms then form a proper
    subspace, so some basis element is invertible."""
    if probe is None:
        probe = _probe_verts(m, n)
    if dim_vector(m, probe) != dim_vector(n, probe):
        return None
    for f in hom_space(m, n).basis:
        if f.is_invertible_on(probe):
            return f, _pointwise_inverse(f)
    return None


@dataclass
class Summand:
    rep: Rep
    incl: Morphism
    proj: Morphism
    flagged: bool


@dataclass
class DecomposeReport:
    obj: Rep
    summands: tuple       # one Summand per indecomposable occurrence
    items: tuple          # (representative rep, multiplicity)
    flagged: bool


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

    def prule(v):
        sol = solve_matrix(piece.basis(v), emor.component(v))
        if sol is None:
            raise AssertionError("idempotent image projection failed")
        return sol

    proj = Morphism(m, piece, rule=prule, label="proj")
    return piece, incl, proj


def _decompose_rec(m: Rep, incl: Morphism, proj: Morphism, out, depth=0):
    """Split m by an idempotent e of End(m) and 1 - e; a piece whose corner
    e·End·e = End(eM) is k is a leaf, any other recurses on its own End."""
    if depth > 32:
        window = joint_window([classify_membership(m)])[0]
        raise BudgetError(f"decomposition recursion exceeded depth bound 32 "
                          f"at depth {depth}: a piece of dimension vector "
                          f"{dim_vector(m, window)} on window {window}")
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
        pincl, pproj = pincl.then(incl), proj.then(pproj)
        if _corner_dim(E, coords) == 1:
            out.append(Summand(piece, pincl, pproj, False))
        else:
            _decompose_rec(piece, pincl, pproj, out, depth + 1)


def decompose_report(m: Rep) -> DecomposeReport:
    cert = classify_membership(m)
    if not cert.is_in_rrep():
        raise ValueError(f"decompose needs a finite-data object, got {cert.verdict}")
    probe = joint_window([cert])[0]
    leaves: list = []
    _decompose_rec(m, identity_morphism(m), identity_morphism(m), leaves)
    groups: list = []
    for s in leaves:
        for g in groups:
            r0 = g[0].rep
            if dim_vector(r0, probe) == dim_vector(s.rep, probe) and \
                    _iso_indec(r0, s.rep) is not None:
                g.append(s)
                break
        else:
            groups.append([s])
    groups.sort(key=lambda g: (tuple(sorted(dim_vector(g[0].rep, probe),
                                            reverse=True)),
                               dim_vector(g[0].rep, probe),
                               g[0].rep.describe()))
    items = tuple((g[0].rep, len(g)) for g in groups)
    return DecomposeReport(m, tuple(leaves), items,
                           any(s.flagged for s in leaves))


def decompose(m: Rep) -> list:
    """List of (indecomposable summand, multiplicity), deterministic order."""
    return list(decompose_report(m).items)


def iso_test(m: Rep, n: Rep):
    """(f, f_inverse) if the objects are isomorphic, else None."""
    probe = _probe_verts(m, n)
    if dim_vector(m, probe) != dim_vector(n, probe):
        return None
    direct = _iso_indec(m, n, probe=probe)
    if direct is not None:
        return direct
    rm = decompose_report(m)
    rn = decompose_report(n)
    if len(rm.summands) != len(rn.summands):
        return None
    used = [False] * len(rn.summands)
    pairing = []
    for sm in rm.summands:
        found = False
        for j, sn in enumerate(rn.summands):
            if used[j]:
                continue
            pair = _iso_indec(sm.rep, sn.rep)
            if pair is not None:
                used[j] = True
                pairing.append((sm, sn, pair))
                found = True
                break
        if not found:
            return None
    f = zero_morphism(m, n)
    finv = zero_morphism(n, m)
    for (sm, sn, (u, uinv)) in pairing:
        f = f.add(sm.proj.then(u).then(sn.incl))
        finv = finv.add(sn.proj.then(uinv).then(sm.incl))
    return f, finv


def is_radical(f: Morphism) -> bool:
    """No component of f between matched indecomposable summands is an
    isomorphism: one invertible on the probe is its own witness."""
    m, n = f.src, f.dst
    probe = _probe_verts(m, n)
    rm = decompose_report(m)
    rn = decompose_report(n)
    for sm in rm.summands:
        for sn in rn.summands:
            if dim_vector(sm.rep, probe) != dim_vector(sn.rep, probe):
                continue
            comp = sm.incl.then(f).then(sn.proj)
            if comp.is_invertible_on(
                    [v for v in probe if sm.rep.dim(v) > 0] or list(probe)):
                return False
    return True
