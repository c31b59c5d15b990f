"""Independent brute-force oracles used to freeze expected values.

Everything here but the last five sections is computed from first
principles with its own Fraction arithmetic so that no production code path
is trusted twice: Hom/Ext via naive commuting-square systems, A_n structure
via the interval model, the positive roots of a Dynkin graph via the
reflections of its Tits form, the translation-quiver shape via an explicit
combinatorial construction.  The section on standard objects decides them
by a search over isomorphism tests, a second route through the package's
Hom layer that the presentation reading in ar.py does not take.  The
section after it reads Ext off a minimal projective presentation, a route
that ext.py does not take.  The next builds a Hom basis on a route named by
the caller, where hom_space reads the route off the two objects, and
builds the copresentation route, the presentation route on the duals,
which hom_space no longer takes.  The last section keeps constructions
that the package replaced, as references: the dense elimination, reduced
echelon form and arrow complex that the one sparse elimination and the
sparse arrow complex replaced, the null-space rows read off the dense
reduced echelon form, the natural maps on a vertex set read off them and
the almost split battery that took them on a union of windows, before
each of its tests read its own pair's window, the arrow maps of P_a read
off an index of whole arrow tuples, injectives built over q by stripping
the first arrow of a path, the isomorphism test that searched pairs of
basis maps, the cokernel evaluated on its own, before it was read as D
of a kernel, the certificate read with every ray evaluated, before
end_profile skipped the rays that the support hint rules out, the Yoneda
map read path by path, before it was read by prefix, Mat, Arrow and the
24 records as the dataclasses they were before they were slotted, and
knit's steps at P_a and I_a as they were computed before knit read them
off the arrows at a, and its P_a and I_a flags as they were read before
knit's translate table ruled them out.  A last section keeps what only
tests read: kernels and cokernels of morphisms with their maps, the split
sequence, the naturality check, equality on a set of vertices and scalar
multiples of morphisms, reachability and predecessor closures, and the
minimal one-sided almost split maps at P_a and I_a, which knit reads off
the arrows at a.
"""
from dataclasses import dataclass, field as dc_field, make_dataclass
from fractions import Fraction
from math import gcd, lcm

from arknit import (ASReport, Mat, Morphism, Path, classify_membership,
                    decompose, dim_vector, dualize, end_algebra, glue_ses,
                    hom_space, injective_at, min_inj_copresentation,
                    min_proj_presentation, path_matrix, projective_at,
                    verify_exact)
from arknit.ar import _radical_morphisms, standard_vertex
from arknit.hom import (EndAlgebra, HomBasis, _columns, _iso_indec,
                        _pointwise_inverse, joint_window)
from arknit.linalg import (coker_projection, is_invertible, kernel_basis,
                           rank, solve_matrix)
from arknit.presentations import relation_matrix
from arknit.quiver import VertexSet, vkey
from arknit.rep import (CokerOfRep, CrossingProfile, EndProfile, KernelOfRep,
                        RayProfile, _certify, _ray_data, proj_sum_basis)


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
# positive roots of a Dynkin graph (Gabriel, Manuscripta Math. 6, 1972)


def positive_roots(n, edges):
    """The positive roots of the graph on 1..n with the given edges: the
    closure of the simple roots under the reflections s_i(x) = x - (x, e_i)
    e_i of the symmetric Tits form (x, y) = 2 sum x_i y_i - sum over the
    edges ij of (x_i y_j + x_j y_i), kept where nonnegative.  Finite
    exactly on a Dynkin graph, where they are the dimension vectors of the
    indecomposables of any orientation, one each."""
    nbrs = {i: [] for i in range(1, n + 1)}
    for a, b in edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    simple = [tuple(int(j == i) for j in range(1, n + 1))
              for i in range(1, n + 1)]
    roots, todo = set(simple), list(simple)
    while todo:
        x = todo.pop()
        for i in range(1, n + 1):
            c = 2 * x[i - 1] - sum(x[j - 1] for j in nbrs[i])
            y = x[:i - 1] + (x[i - 1] - c,) + x[i:]
            if y[i - 1] >= 0 and y not in roots:
                roots.add(y)
                todo.append(y)
    return sorted(roots)


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
    probe = joint_window([rep])[0]
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
# Hom bases on a named route


def hom_routes(m, n) -> list:
    """The routes that route_basis builds Hom(m, n) on: presentation for an
    fd or fp source, copresentation for an fd or fc target, and the window
    always.  hom_space takes presentation where it applies, else the
    window."""
    vm, vn = classify_membership(m).verdict, classify_membership(n).verdict
    return [r for r, ok in (("presentation", vm in ("fd", "fp")),
                            ("copresentation", vn in ("fd", "fc")),
                            ("window", True)) if ok]


def copresentation_route(m, n):
    """(basis, socle) of Hom(M, N) = Hom(DN, DM) over the opposite quiver,
    for N fd or fc, so that DN is finitely presented: each basis morphism
    is D of one on the presentation route of the duals."""
    dual, socle = HomBasis(dualize(n), dualize(m), "presentation")._build()
    return tuple(g.dual for g in dual), socle


def route_basis(m, n, route):
    """(basis, anchor) of Hom(m, n) built on the named route, whichever route
    hom_space takes; no count is read, so a test can hold three bases built
    independently against the arrow-complex count.  A name that is not one
    of the three routes is refused, so no test reads a second window basis
    under another name."""
    if route == "copresentation":
        return copresentation_route(m, n)
    if route not in ("presentation", "window"):
        raise ValueError(f"no Hom route named {route!r}")
    return HomBasis(m, n, route)._build()


# ---------------------------------------------------------------------------
# replaced constructions, kept as references


def dense_eliminate(m, full):
    """(rows, pivots): Gaussian elimination of a Mat on dense int rows, each
    pivot column cleared below its pivot and, when full, above it too, as
    linalg did before its one sparse elimination.  Over GF(p) entries and
    steps are reduced mod p and each pivot is scaled to 1; over Q rows are
    scaled to integers, combined by cross-multiplication and divided by the
    gcd of their entries."""
    p = m.field.char
    if p:
        rows = [[x % p for x in r] for r in m.entries]
    else:
        rows = []
        for r in m.entries:
            d = lcm(*[Fraction(x).denominator for x in r])
            rows.append([int(x * d) for x in r])
    nrows, pivots, r = m.rows, [], 0
    for c in range(m.cols):
        pr = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r]
        a = piv[c]
        if p and a != 1:
            inv = pow(a, p - 2, p)
            piv = rows[r] = [x * inv % p for x in piv]
        for i in range(0 if full else r + 1, nrows):
            row = rows[i]
            f = row[c]
            if not f or i == r:
                continue
            if p:
                rows[i] = [(x - f * y) % p for x, y in zip(row, piv)]
            else:
                g = gcd(a, f)
                row = [a // g * x - f // g * y for x, y in zip(row, piv)]
                g = gcd(*row)
                rows[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, tuple(pivots)


def dense_rref(m):
    """(R, pivots): the reduced echelon form of a Mat by dense_eliminate,
    each pivot row over Q divided by its pivot into canonical entries (an
    int when integral)."""
    rows, pivots = dense_eliminate(m, True)
    out = []
    for i, row in enumerate(rows):
        d = row[pivots[i]] if i < len(pivots) else 1
        out.append(tuple(x if d == 1 else _canonical(Fraction(x, d))
                         for x in row))
    return Mat(m.field, m.rows, m.cols, tuple(out)), pivots


def _canonical(x):
    return x.numerator if x.denominator == 1 else x


def dense_outside_span(m, k):
    """outside_span on dense_eliminate: the columns k + i that are nonzero
    in some row below the pivots in the first k columns."""
    rows, pivots = dense_eliminate(m, False)
    r = sum(c < k for c in pivots)
    return tuple(j - k for j in range(k, m.cols)
                 if any(row[j] for row in rows[r:]))


def dense_arrow_complex(x, y, verts, arrows):
    """(d, offsets): the arrow complex of ext.py as the dense Mat it was,
    every zero written, each entry accumulated by field arithmetic."""
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


def dense_window_counts(x, y):
    """(dim Hom(x, y), dim Ext(x, y)) by one dense arrow complex over the
    arrows within the joint window and its dense rank; for fp (or fd) x the
    Ext count is checked against ext_dim_via_presentation, which shares no
    code with the window."""
    q, verts = x.quiver, joint_window((x, y))[0]
    d, _ = dense_arrow_complex(x, y, verts, q.arrows_within(verts))
    r = len(dense_eliminate(d, False)[1])
    if classify_membership(x).has_presentation():
        assert d.rows - r == ext_dim_via_presentation(x, y), (
            x.describe(), y.describe())
    return d.cols - r, d.rows - r


def null_rows_by_rref(m):
    """(rows, free): the canonical null-space basis of m as rows, read off
    dense_rref(m): the row for free column f is 1 at f and -R[i][f] at the
    i-th pivot."""
    F = m.field
    R, pivots = dense_rref(m)
    pivset = set(pivots)
    free = tuple(c for c in range(m.cols) if c not in pivset)
    rows = []
    for fc in free:
        v = [F.zero] * m.cols
        v[fc] = F.one
        for i, pc in enumerate(pivots):
            v[pc] = F.neg(R.entries[i][fc])
        rows.append(tuple(v))
    return tuple(rows), free


def natural_maps_on(x, y, verts):
    """The natural maps x -> y on a vertex set, each a dict v -> Mat: the
    null rows of dense_arrow_complex over the arrows within verts, read off
    its dense reduced echelon form (null_rows_by_rref)."""
    vs = sorted(set(verts), key=vkey)
    d, offsets = dense_arrow_complex(x, y, vs, x.quiver.arrows_within(vs))

    def component(row, v):
        sd, base = x.dim(v), offsets[v]
        return Mat(x.field, y.dim(v), sd, tuple(
            tuple(row[base + r * sd + c] for c in range(sd))
            for r in range(y.dim(v))))
    return [{v: component(row, v) for v in vs}
            for row in null_rows_by_rref(d)[0]]


def almost_split_by_union_windows(ses, battery):
    """verify_almost_split's report as the battery read it before each test
    took its own pair's window: the lift and factor tests of a battery
    object M on the union of M's window and that of (sub, middle, quot),
    the split test on the latter, each a span over natural_maps_on tested by
    dense_outside_span."""
    sub, mid, quot = ses.sub, ses.middle, ses.quot
    F, battery = quot.field, list(battery)
    window, _ = joint_window((sub, mid, quot))
    proj, incl = ses.proj.component, ses.incl.component

    def misses(src, dst, verts, maps, through):
        if not maps:
            return ()
        span = [[through(h, v) for v in verts]
                for h in natural_maps_on(src, dst, verts)]
        return dense_outside_span(_columns(F, span + maps), len(span))

    def lifted(h, v):
        return proj(v).mul(h[v])

    def restricted(h, v):
        return h[v].mul(incl(v))

    lift_failures, factor_failures = [], []
    for m in battery:
        w2 = sorted(set(window) | set(joint_window([m])[0]), key=vkey)
        for out, src, dst, gs, through in (
                (lift_failures, m, mid, _radical_morphisms(m, quot), lifted),
                (factor_failures, mid, m, _radical_morphisms(sub, m),
                 restricted)):
            maps = [[g.component(v) for v in w2] for g in gs]
            out += [(m.describe(), gs[i].label)
                    for i in misses(src, dst, w2, maps, through)]
    ident = [[Mat.identity(F, quot.dim(v)) for v in window]]
    return ASReport(verify_exact(ses, window)["exact"],
                    bool(misses(quot, mid, window, ident, lifted)),
                    end_algebra(sub).is_local, end_algebra(quot).is_local,
                    tuple(lift_failures), tuple(factor_failures), len(battery))


def projective_by_tuple_index(q, F, x, a):
    """The matrix of P_x on the arrow a of q, with the basis paths of
    P_x(a.dst) indexed by their whole arrow tuple: the basis path p of
    P_x(a.src) goes to the path p then a."""
    bu, bw = q.paths_between(x, a.src), q.paths_between(x, a.dst)
    index = {p.arrows: r for r, p in enumerate(bw)}
    rows = [[F.zero] * len(bu) for _ in bw]
    for c, p in enumerate(bu):
        rows[index[p.arrows + (a,)]][c] = F.one
    return Mat(F, len(bw), len(bu), tuple(tuple(r) for r in rows))


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
    probe = joint_window((m, n))[0]
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


def end_profile_every_ray(m, end):
    """end_profile as it was before it read the support hint: the band data
    of every ray compared at the cutoff c0 and at c0 + 1, and every ray and
    crossing arrow evaluated at c0.  A zero ray's transition is None, as
    end_profile gives it whether it reads the ray or not."""
    cutoff = max(m.structural_depth(), 2) + 1
    moved = [r.rid for r in end.rays if _ray_data(m, end, r.rid, cutoff)
             != _ray_data(m, end, r.rid, cutoff + 1)]
    assert not moved, f"end {end.eid}: rays changing: {moved}"
    rays = []
    for r in end.rays:
        d = m.dim(end.vertex(r.rid, cutoff))
        a = end.transition(r.rid, cutoff)
        tm = m.mat(a) if a is not None else None
        if d == 0 and m.dim(end.vertex(r.rid, cutoff + 1)) == 0:
            status, tm = "zero", None
        elif tm is not None and tm.rows == tm.cols == d and is_invertible(tm):
            status = "iso"
        else:
            status = "other"
        rays.append(RayProfile(end.eid, r.rid, r.kind, cutoff, d, tm, status))
    crossings = tuple(CrossingProfile(
        end.eid, cid, cutoff,
        not m.mat(end.crossing_arrow(cid, cutoff)).is_zero())
        for (cid, _, _) in end.crossings)
    return EndProfile(end.eid, cutoff, tuple(rays), crossings)


def certificate_every_ray(m):
    """The membership certificate of m from end_profile_every_ray, its exact
    support read off every vertex of the hint m.support() down to the
    deepest cutoff, plus the nonzero tails, as support_exact read it before
    it returned a finite hint that is nonzero everywhere unread."""
    q = m.quiver
    profiles = tuple(end_profile_every_ray(m, e) for e in q.ends())
    depth = max([p.cutoff for p in profiles], default=0)
    explicit = [v for v in m.support().members(depth) if m.dim(v)]
    tails = [(r.eid, r.rid, r.cutoff + 1) for p in profiles for r in p.rays
             if r.dim]
    return _certify(q, profiles, VertexSet.make(q, explicit, tails))


def yoneda_by_paths(n, verts, vecs, w):
    """presentations.yoneda_at as it was before it worked by prefix: the
    column of the basis path (j, p) at w is n(p)·vecs[j], with n(p) the
    product of n's maps along the whole path p."""
    cols = [n.mat_path(p).mul(vecs[j]).col(0)
            for (j, p) in proj_sum_basis(n.quiver, verts, w)]
    return Mat.from_columns(n.field, n.dim(w), cols)


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


# The 24 records as the dataclasses they were: "module.Class" -> (frozen,
# field names in order, defaults).
# Only Field wrote its own repr, which its twin keeps.
RECORD_TWINS = {
    "ar.ASReport": (False, "exact non_split sub_indecomposable "
                    "quot_indecomposable lift_failures factor_failures "
                    "battery_size", {}),
    "ar.ARNode": (False, "key rep is_projective is_injective status hops "
                  "notes", {}),
    "ar.ARComponent": (False, "quiver nodes arrows tau_links seed_key depth "
                       "notes", {}),
    "ar.ShapeHypothesis": (False, "tag certificate", {}),
    "ext.FiniteExtReport": (False, "finite vanishing_outside gluing_support "
                            "arrows witness", {}),
    "hom.EndAlgebra": (False, "obj dimension basis table identity radical "
                       "is_local", {}),
    "hom.Summand": (False, "rep incl proj flagged", {}),
    "hom.DecomposeReport": (False, "obj summands items flagged", {}),
    "linalg.Field": (True, "char", {"char": 0}),
    "morphism.SES": (False, "sub middle quot incl proj", {}),
    "presentations.Presentation": (True, "obj pm cover", {}),
    "quiver.Path": (True, "src dst arrows", {"arrows": ()}),
    "quiver.Ray": (True, "rid kind", {}),
    "quiver.FiniteQuiver": (True, "vertices arrows", {}),
    "quiver.PresetQuiver": (True, "name", {}),
    "quiver.OppositeQuiver": (True, "base", {}),
    "quiver.VertexSet": (True, "quiver explicit tails", {}),
    "quiver.SubquiverClass": (True, "is_finite top_finite socle_finite "
                              "witnesses", {}),
    "rep.PathMatrix": (True, "quiver field side domain codomain entries", {}),
    "rep.RungFamily": (True, "eid cid start coeff", {}),
    "rep.RayProfile": (False, "eid rid kind cutoff dim transition status",
                       {}),
    "rep.CrossingProfile": (False, "eid cid cutoff nonzero", {}),
    "rep.EndProfile": (False, "eid cutoff rays crossings", {}),
    "rep.RepClassCertificate": (True, "verdict witnesses profiles support",
                                {}),
}


def dataclass_twin(name: str, record):
    """The dataclass that record (the class named name) was: same name,
    fields, defaults, frozenness and, for Field, repr."""
    frozen, names, defaults = RECORD_TWINS[name]
    fields = []
    for f in names.split():
        if f not in defaults:
            fields.append((f, object))
        else:
            fields.append((f, object, dc_field(default=defaults[f])))
    own = {"__repr__": record.__repr__} if name == "linalg.Field" else {}
    return make_dataclass(record.__name__, fields, frozen=frozen,
                          namespace=own)


def end_algebra_by_basis(m):
    """End(m) over QQ solved on the basis of Hom(m, m) at its anchor, as
    hom._end_algebra solves an End of dimension 2 or more: the coordinates
    of the identity and of each product of two basis maps, and the radical
    of the trace form, for an End of any dimension, a brick's too."""
    F, hb = m.field, hom_space(m, m)
    verts, n = hb.anchor, len(hb.basis)
    comps = [[f.component(v) for v in verts] for f in hb.basis]
    rhs = [[Mat.identity(F, m.dim(v)) for v in verts]]
    rhs += [[a.mul(b) for a, b in zip(ci, cj)] for ci in comps for cj in comps]
    coords = solve_matrix(_columns(F, comps), _columns(F, rhs)).transpose()
    ident, table = coords.entries[0], tuple(
        coords.entries[1 + i * n:1 + (i + 1) * n] for i in range(n))
    traces = [sum(t[j][j] for j in range(n)) for t in table]
    T = Mat(F, n, n, tuple(tuple(sum(table[i][j][k] * traces[k]
                                     for k in range(n)) for j in range(n))
                           for i in range(n)))
    K = kernel_basis(T)
    radical = tuple(K.col(j) for j in range(K.cols))
    return EndAlgebra(m, n, hb.basis, table, ident, radical,
                      n - len(radical) == 1)


def computed_step(comp, tr, key, forward):
    """A stand-in for ar._predict_mesh that predicts nothing: P_a's
    predecessors and I_a's successors are the summands of the source of its
    minimal right almost split map and of the target of its minimal left
    almost split map, by decompose, and every other mesh is declined, so
    knit computes it from an almost split sequence."""
    node = comp.nodes[key]
    if not (node.is_injective if forward else node.is_projective):
        return None
    middle = (minimal_left_almost_split_from(node.rep).dst if forward
              else minimal_right_almost_split_into(node.rep).src)
    return None, [(s, m, None) for s, m in decompose(middle)], "computed"


def standard_by_presentation(comp, tr, key, forward):
    """A stand-in for ar._standard_at that ignores knit's translate table:
    every node is I_a (forward) or P_a as its (co)presentation says, as
    knit read it before the table."""
    return standard_vertex(comp.nodes[key].rep,
                           "inj" if forward else "proj") is not None


# ---------------------------------------------------------------------------
# constructions only tests read


def kernel(f):
    """(K, inclusion K -> f.src): K's basis at v is its component."""
    K = KernelOfRep(f)
    return K, Morphism(K, f.src, rule=K.basis, label="incl")


def cokernel(f):
    """(C, projection f.dst -> C): C = D ker(D f), so the projection at v is
    the transposed basis of that kernel."""
    C = CokerOfRep(f)
    return C, Morphism(f.dst, C, rule=lambda v: C.base.basis(v).transpose(),
                       label="coker-proj")


def split_ses(sub, quot):
    return glue_ses(sub, quot, ())[1]


def naturality_defect(f, verts) -> bool:
    """True when f commutes with all arrow matrices inside the region."""
    return all(f.dst.mat(a).mul(f.component(a.src)).entries
               == f.component(a.dst).mul(f.src.mat(a)).entries
               for a in f.src.quiver.arrows_within(verts))


def is_zero_on(f, verts) -> bool:
    return all(f.component(v).is_zero() for v in verts)


def same_on(f, g, verts) -> bool:
    """True when f and g have the same components on verts."""
    return all(f.component(v).entries == g.component(v).entries
               for v in verts)


def scaled(f, c):
    """The morphism c f, c read as a scalar of f's field."""
    c = f.src.field.of(c)
    return Morphism(f.src, f.dst, lambda v: f.component(v).scale(c))


def reaches(q, x, y) -> bool:
    """True iff there is a (possibly trivial) path x ~> y."""
    return q.succ_closure(x).contains(y)


def pred_closure(q, v) -> VertexSet:
    """v and every vertex that reaches it: its successor closure over the
    opposite quiver, read over q."""
    s = q.opposite().succ_closure(v)
    return VertexSet(q, s.explicit, s.tails)


def _radical_inclusion(q, F, a):
    """rad P_a -> P_a: the sum of P_b over the arrows al: a -> b, in order,
    each summand mapped by its arrow."""
    arrows = q.out_arrows(a)
    return path_matrix(q, F, "proj", [al.dst for al in arrows], [a],
                       [[[(1, Path(a, al.dst, (al,)))] for al in arrows]])


def minimal_right_almost_split_into(p):
    """The radical inclusion into P_a followed by the cover P_a -> p of the
    minimal presentation, an isomorphism as p has no relations."""
    pres = min_proj_presentation(p)
    if pres.pm.domain:
        raise ValueError("input is not projective")
    if len(pres.pm.codomain) != 1:
        raise ValueError("input is not an indecomposable projective")
    rad = _radical_inclusion(p.quiver, p.field, pres.pm.codomain[0])
    return Morphism(rad.src, rad.dst, rule=rad.component).then(pres.cover)


def minimal_left_almost_split_from(i):
    """The embedding i -> I_a of the minimal copresentation, an isomorphism
    as i has no corelations, followed by the quotient by the socle, D of the
    radical inclusion into P_a over the opposite quiver."""
    cop = min_inj_copresentation(i)
    if cop.pm.codomain:
        raise ValueError("input is not injective")
    if len(cop.pm.domain) != 1:
        raise ValueError("input is not an indecomposable injective")
    cosoc = _radical_inclusion(i.quiver.opposite(), i.field,
                               cop.pm.domain[0]).dual
    return cop.cover.then(Morphism(cosoc.src, cosoc.dst, rule=cosoc.component))
