"""Independent brute-force oracles used to freeze expected values.

Everything here but the last three sections is computed from first
principles with its own Fraction arithmetic so that no production code path
is trusted twice: Hom/Ext via naive commuting-square systems, A_n structure
via the interval model, the translation-quiver shape via an explicit
combinatorial construction.  The section on standard objects decides them
by a search over isomorphism tests, a second route through the package's
Hom layer that the presentation reading in ar.py does not take.  The
section after it reads Ext off a minimal projective presentation, a route
that ext.py does not take.  The last
section keeps constructions that the package replaced, as references:
injectives built over q by stripping the first arrow of a path, the
isomorphism test that searched pairs of basis maps, the cokernel
evaluated on its own, before it was read as D of a kernel, and Mat and Arrow
as the frozen dataclasses they were before they were slotted.
"""
from dataclasses import dataclass
from fractions import Fraction

from arknit import (Mat, classify_membership, dim_vector, hom_space,
                    injective_at, min_proj_presentation, projective_at)
from arknit.hom import _iso_indec, _pointwise_inverse, _probe_verts, joint_window
from arknit.linalg import coker_projection, rank
from arknit.presentations import relation_matrix
from arknit.quiver import vkey


# ---------------------------------------------------------------------------
# naive rational linear algebra (independent of the package kernel)


def rref_rank(rows):
    """Rank by straightforward Gauss elimination over Fraction."""
    m = [list(map(Fraction, r)) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    rank = 0
    for c in range(nc):
        piv = next((r for r in range(rank, nr) if m[r][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][c]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(nr):
            if r != rank and m[r][c] != 0:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
        if rank == nr:
            break
    return rank


def kernel_dim(rows, ncols):
    if not rows:
        return ncols
    return ncols - rref_rank(rows)


# ---------------------------------------------------------------------------
# brute-force Hom and Ext over an explicit vertex window

def _as_entries(mat_entries):
    return [[Fraction(str(x)) for x in row] for row in mat_entries]


def hom_dim_brute(q, m, n, verts):
    """dim of natural transformations m -> n over the given vertices,
    assuming both objects vanish outside them."""
    verts = list(verts)
    offs, tot = {}, 0
    for v in verts:
        offs[v] = tot
        tot += n.dim(v) * m.dim(v)
    if tot == 0:
        return 0
    rows = []
    for v in verts:
        for a in q.out_arrows(v):
            if a.dst not in offs:
                continue
            A = _as_entries(n.mat(a).entries)   # n(src) -> n(dst)
            B = _as_entries(m.mat(a).entries)
            du, dw = a.src, a.dst
            # constraint: A * f_src - f_dst * B = 0
            for r in range(n.dim(dw)):
                for c in range(m.dim(du)):
                    row = [Fraction(0)] * tot
                    for k in range(n.dim(du)):
                        row[offs[du] + k * m.dim(du) + c] += A[r][k]
                    for k in range(m.dim(dw)):
                        row[offs[dw] + r * m.dim(dw) + k] -= B[k][c]
                    rows.append(row)
    return kernel_dim(rows, tot)


def ext_dim_brute(q, x, y, verts):
    """dim Ext(x, y) for fd objects supported inside verts, via the arrow
    cocycle complex: coker of d: Hom0 -> Hom1."""
    verts = list(verts)
    vset = set(verts)
    c0_idx, tot0 = {}, 0
    for v in verts:
        if x.dim(v) and y.dim(v):
            c0_idx[v] = tot0
            tot0 += y.dim(v) * x.dim(v)
    arrows = [a for v in verts for a in q.out_arrows(v)
              if a.dst in vset and x.dim(a.src) and y.dim(a.dst)]
    c1_idx, tot1 = {}, 0
    for a in arrows:
        c1_idx[a] = tot1
        tot1 += y.dim(a.dst) * x.dim(a.src)
    if tot1 == 0:
        return 0
    cols = []
    for v in verts:
        if v not in c0_idx:
            continue
        for r in range(y.dim(v)):
            for c in range(x.dim(v)):
                col = [Fraction(0)] * tot1
                for a in arrows:
                    Y = _as_entries(y.mat(a).entries)
                    X = _as_entries(x.mat(a).entries)
                    if a.src == v:
                        for rr in range(y.dim(a.dst)):
                            col[c1_idx[a] + rr * x.dim(a.src) + c] += Y[rr][r]
                    if a.dst == v:
                        for cc in range(x.dim(a.src)):
                            col[c1_idx[a] + r * x.dim(a.src) + cc] -= X[c][cc]
                cols.append(col)
    rank = rref_rank(cols) if cols else 0
    return tot1 - rank


# ---------------------------------------------------------------------------
# interval model for the equioriented A_n quiver 1 -> 2 -> ... -> n


def an_intervals(n):
    """All indecomposables of A_n as (a, b) support intervals."""
    return [(a, b) for a in range(1, n + 1) for b in range(a, n + 1)]


def an_dims(iv, n):
    a, b = iv
    return tuple(1 if a <= v <= b else 0 for v in range(1, n + 1))


def an_is_projective(iv, n):
    return iv[1] == n


def an_is_injective(iv, n):
    return iv[0] == 1


def an_tau(iv, n):
    """tau of a non-projective interval."""
    a, b = iv
    assert b < n
    return (a + 1, b + 1)


def an_almost_split(iv, n):
    """(sub, middle_list, quot) for the sequence ending at a non-projective
    interval."""
    a, b = iv
    assert b < n
    sub = (a + 1, b + 1)
    middle = []
    if a + 1 <= b:
        middle.append((a + 1, b))
    if b + 1 <= n:
        middle.append((a, b + 1))
    return sub, middle, iv


def an_ar_arrows(n):
    """All AR-quiver arrows of A_n as interval pairs (src, dst)."""
    out = set()
    for iv in an_intervals(n):
        a, b = iv
        if b < n:
            for mid in an_almost_split(iv, n)[1]:
                out.add((mid, iv))      # middle -> quot
                out.add(((a + 1, b + 1), mid))  # sub -> middle
    return out


# ---------------------------------------------------------------------------
# the N x Q^op translation quiver for the inward ray preset
# (vertices of Q are 0,1,2,... with arrows n+1 -> n)


def nqop_truncation(depth):
    """Nodes (n, x) with hop level 2n + x <= depth, arrows raising the hop
    level by one, and tau pairs (n+1, x) -> (n, x).

    The node (n, x) corresponds to the interval payload [n, n + x]."""
    nodes = {(n, x) for n in range(depth + 1) for x in range(depth + 1)
             if 2 * n + x <= depth}
    arrows = set()
    for (n, x) in nodes:
        if (n, x + 1) in nodes:
            arrows.add(((n, x), (n, x + 1)))
        if x >= 1 and (n + 1, x - 1) in nodes:
            arrows.add(((n, x), (n + 1, x - 1)))
    taus = {((n, x), (n - 1, x)) for (n, x) in nodes
            if n >= 1 and (n - 1, x) in nodes}
    return nodes, arrows, taus


# ---------------------------------------------------------------------------
# independent Coxeter oracle for finite quivers


def path_counts(vertices, arrows):
    """counts[(x, y)] = number of paths x -> y, summing adjacency powers."""
    counts = {(x, y): Fraction(1 if x == y else 0)
              for x in vertices for y in vertices}
    step = {(x, y): Fraction(0) for x in vertices for y in vertices}
    for (s, d, _l) in arrows:
        step[(s, d)] += 1
    # counts = sum over k of step^k; quivers here are acyclic so k < |V|
    power = {k: v for k, v in step.items()}
    for _ in range(len(vertices)):
        for key in power:
            counts[key] += power[key]
        nxt = {(x, y): Fraction(0) for x in vertices for y in vertices}
        for x in vertices:
            for y in vertices:
                s = Fraction(0)
                for z in vertices:
                    s += power[(x, z)] * step[(z, y)]
                nxt[(x, y)] = s
        power = nxt
        if all(v == 0 for v in power.values()):
            break
    return counts


def coxeter_images(vertices, arrows, dims, inverse=False):
    """Apply Phi = -C^T C^{-1} (or its inverse) to a dim vector given in
    sorted vertex order; independent matrix arithmetic."""
    vs = sorted(vertices)
    n = len(vs)
    counts = path_counts(vs, arrows)
    C = [[counts[(vs[j], vs[i])] for j in range(n)] for i in range(n)]

    def matmul(A, B):
        return [[sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]

    def matinv(A):
        aug = [list(A[i]) + [Fraction(int(i == j)) for j in range(n)]
               for i in range(n)]
        for c in range(n):
            piv = next(r for r in range(c, n) if aug[r][c] != 0)
            aug[c], aug[piv] = aug[piv], aug[c]
            inv = 1 / aug[c][c]
            aug[c] = [x * inv for x in aug[c]]
            for r in range(n):
                if r != c and aug[r][c] != 0:
                    f = aug[r][c]
                    aug[r] = [a - f * b for a, b in zip(aug[r], aug[c])]
        return [row[n:] for row in aug]

    CT = [[C[j][i] for j in range(n)] for i in range(n)]
    phi = [[-x for x in row] for row in matmul(CT, matinv(C))]
    if inverse:
        phi = matinv(phi)
    vec = [Fraction(d) for d in dims]
    return tuple(sum(phi[i][j] * vec[j] for j in range(n)) for i in range(n))


# ---------------------------------------------------------------------------
# standard objects by isomorphism search


def standard_by_search(rep, kind):
    """The vertex a of the certified probe window with rep isomorphic to P_a
    (kind "proj") or I_a (kind "inj"), tested against every candidate with
    the same dimension vector on the window; None if there is none."""
    q, F = rep.quiver, rep.field
    probe = joint_window([classify_membership(rep)])[0]
    make = projective_at if kind == "proj" else injective_at
    for a in sorted(set(probe), key=vkey):
        std = make(q, a, F)
        if dim_vector(std, probe) == dim_vector(rep, probe) and \
                _iso_indec(std, rep) is not None:
            return a
    return None


# ---------------------------------------------------------------------------
# Ext by a presentation


def ext_dim_via_presentation(x, y):
    """Ext(X, Y) as the cokernel of the map between evaluation sums induced
    by a minimal projective presentation of X."""
    pres = min_proj_presentation(x)
    rows = sum(y.dim(v) for v in pres.pm.domain)
    if rows == 0:
        return 0
    return rows - rank(relation_matrix(pres.pm, y))


# ---------------------------------------------------------------------------
# replaced constructions, kept as references


def inj_basis_over_q(q, verts, v):
    """Basis of (⊕_i I_{verts[i]})(v) over q: pairs (i, path v ~> verts[i]),
    the paths in q's order."""
    return [(i, p) for i, a in enumerate(verts) for p in q.paths_between(v, a)]


def injective_by_stripping(q, F, a, arrow):
    """The matrix of I_a on arrow in the basis of inj_basis_over_q: the path
    arrow then r goes to r, a path that does not start with arrow to 0."""
    bu, bw = (inj_basis_over_q(q, [a], u) for u in (arrow.src, arrow.dst))
    index = {p.arrows: r for r, (_, p) in enumerate(bw)}
    rows = [[F.zero] * len(bu) for _ in bw]
    for c, (_, p) in enumerate(bu):
        if p.arrows and p.arrows[0] == arrow:
            rows[index[p.arrows[1:]]][c] = F.one
    return Mat(F, len(bw), len(bu), tuple(tuple(r) for r in rows))


def inj_component_by_stripping(pm, v):
    """An inj-side path matrix at v in the bases of inj_basis_over_q: the
    basis path (i, p) with p = r then e, for a path e of entry [j][i], goes
    to (j, r) with the coefficient of e."""
    q, F = pm.quiver, pm.field
    dom_b = inj_basis_over_q(q, pm.domain, v)
    cod_b = inj_basis_over_q(q, pm.codomain, v)
    index = {(j, p.arrows): r for r, (j, p) in enumerate(cod_b)}
    rows = [[F.zero] * len(dom_b) for _ in cod_b]
    for c, (i, p) in enumerate(dom_b):
        for j in range(len(pm.codomain)):
            for (coeff, e) in pm.entries[j][i]:
                k = len(p.arrows) - len(e.arrows)
                if k >= 0 and p.arrows[k:] == e.arrows:
                    r = index[(j, p.arrows[:k])]
                    rows[r][c] = F.add(rows[r][c], F.of(coeff))
    return Mat(F, len(cod_b), len(dom_b), tuple(tuple(r) for r in rows))


def iso_by_pair_search(m, n):
    """The first f of the basis of Hom(m, n) for which some g of the basis
    of Hom(n, m) makes g o f invertible on the probe window, with
    (g o f)^-1 o g as its inverse; None if there is no such pair."""
    probe = _probe_verts(m, n)
    if dim_vector(m, probe) != dim_vector(n, probe):
        return None
    fwd = hom_space(m, n)
    if fwd.dimension == 0:
        return None
    bwd = hom_space(n, m)
    for f in fwd.basis:
        for g in bwd.basis:
            h = f.then(g)
            if h.is_invertible_on(probe):
                return f, g.then(_pointwise_inverse(h))
    return None


def cokernel_by_lift(f, verts):
    """(dims, mats) of the cokernel of f, a Morphism or a PathMatrix, at the
    vertices verts and on the arrows among them, keyed by arrow: at v the
    projection P_v of coker_projection(f(v)) with its free rows, and on
    a: u -> w the product P_w f.dst(a) lift, where lift has a unit column
    at each free row of P_u."""
    F = f.dst.field
    at = {v: coker_projection(f.component(v)) for v in verts}
    mats = {}
    for a in f.dst.quiver.arrows_within(verts):
        fu, n = at[a.src][1], f.dst.dim(a.src)
        lift = Mat(F, n, len(fu), tuple(tuple(F.one if r == fr else F.zero
                                              for fr in fu) for r in range(n)))
        mats[a] = at[a.dst][0].mul(f.dst.mat(a)).mul(lift).entries
    return {v: len(at[v][1]) for v in verts}, mats


@dataclass(frozen=True)
class FrozenMat:
    """Mat as a frozen dataclass of its four fields: its ==, hash and repr
    are the ones the slotted Mat must give."""

    __qualname__ = "Mat"  # so the dataclass repr reads Mat(...)
    field: object
    rows: int
    cols: int
    entries: tuple


@dataclass(frozen=True, order=False)
class FrozenArrow:
    """Arrow as a frozen dataclass of its three fields, sorted by vkey of its
    ends, then label."""

    __qualname__ = "Arrow"
    src: object
    dst: object
    label: str

    def key(self):
        return (vkey(self.src), vkey(self.dst), self.label)

    def __lt__(self, other):
        return self.key() < other.key()
