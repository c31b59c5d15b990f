"""Translates, almost split sequences, knitting, component classification.

tau sends a finitely presented non-projective object to the kernel of the
reinterpreted relation matrix on the injective side; tau_inv is the dual.
The standard objects are read from the same minimal (co)presentations: X is
P_a (I_a) when it has one (co)generator a and no (co)relations.  Almost
split sequences are built from the socle class of Ext(X, tau X) under the
endomorphism action and checked by an explicit battery.  Knitting walks the
component graph breadth first in both directions, with payload identity
decided by fingerprints plus certified isomorphism tests.  Each mesh is
computed once, from whichever of its ends comes up first, and replayed from
the other side.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field as dc_field
from typing import Optional

from .ext import ext_class_to_ses, ext_space
from .hom import (_endo_from_coords, _iso_indec, decompose, end_algebra,
                  hom_space, solve_natural)
from .linalg import QQ, Mat, inverse, kernel_basis
from .morphism import SES, Morphism, verify_exact
from .presentations import (min_inj_copresentation, min_proj_presentation,
                            nakayama)
from .quiver import FiniteQuiver, Path, QuiverBase, vkey
from .rep import (PathMatrix, Rep, classify_membership, coker_proj,
                  dim_vector, dualize, is_doubly_infinite, joint_window,
                  ker_inj, path_matrix)

MAX_NODES = 160  # knit expands no node once the component has more


# ---------------------------------------------------------------------------
# translates


def tau(x: Rep) -> Rep:
    cert = classify_membership(x)
    if cert.verdict not in ("fp", "fd"):
        raise ValueError(f"tau undefined: input is {cert.verdict}, not fp")
    pres = min_proj_presentation(x)
    if not pres.pm.domain:
        raise ValueError("tau undefined for projective objects")
    return ker_inj(nakayama(pres.pm))


def tau_inv(w: Rep) -> Rep:
    cert = classify_membership(w)
    if cert.verdict not in ("fc", "fd"):
        raise ValueError(f"tau_inv undefined: input is {cert.verdict}, not fc")
    cop = min_inj_copresentation(w)
    if not cop.pm.codomain:
        raise ValueError("tau_inv undefined for injective objects")
    return coker_proj(nakayama(cop.pm))


def _generators(x: Rep, kind: str):
    """(generators, relations) of the minimal presentation of x (kind
    "proj"), or (cogenerators, corelations) of its copresentation ("inj"),
    which are the generators and relations of the presentation of D x."""
    pm = min_proj_presentation(x if kind == "proj" else dualize(x)).pm
    return pm.codomain, pm.domain


def standard_vertex(x: Rep, kind: str):
    """a with x isomorphic to P_a (kind "proj") or I_a (kind "inj"), else
    None: its minimal (co)presentation has the one (co)generator a and no
    (co)relations."""
    gens, rels = _generators(x, kind)
    return gens[0] if len(gens) == 1 and not rels else None


def _is_standard(x: Rep, kind: str) -> bool:
    """Whether the knit node x is P_a (kind "proj") or I_a ("inj").  A zero
    x, or a sum of several P_a (I_a), is refused: tau (tau_inv) would fail
    on it, and only a seed can be one."""
    gens, rels = _generators(x, kind)
    if len(gens) != 1 and not rels:
        word = "projective" if kind == "proj" else "injective"
        raise ValueError(f"seed is a sum of {len(gens)} {word} objects, not "
                         f"indecomposable" if gens else
                         "seed is zero; knitting needs an indecomposable seed")
    return not rels


def is_pseudo_projective(x: Rep) -> bool:
    """fp non-projective with infinite-dimensional translate."""
    tx = tau(x)
    cert = classify_membership(tx)
    return any(r.dim > 0 for p in cert.profiles for r in p.rays)


# ---------------------------------------------------------------------------
# almost split sequences


def almost_split_sequence(x: Rep) -> SES:
    """0 -> tau X -> E -> X -> 0 from the socle class of Ext(X, tau X)."""
    tx = tau(x)
    E = end_algebra(x)
    if not E.is_local:
        raise ValueError("almost split sequence needs an indecomposable end")
    ecb = ext_space(x, tx)
    if ecb.dimension == 0:
        raise AssertionError("Ext(X, tau X) vanished unexpectedly")
    F = x.field
    if not E.radical:
        coeffs = [F.one] + [F.zero] * (ecb.dimension - 1)
    else:
        # socle of the right End(X)-action: classes killed by the radical
        rows = []
        for rad in E.radical:
            r = _endo_from_coords(E, rad)
            cols = []
            for bc in ecb.basis:
                moved = {a: m.mul(r.component(a.src)) for a, m in bc.items()}
                cols.append(ecb.coords(lambda a: moved.get(a)))
            rows.extend(zip(*cols))
        soc = kernel_basis(Mat(F, len(rows), ecb.dimension, tuple(rows)))
        if soc.cols == 0:
            raise AssertionError("Ext socle vanished; class selection failed")
        coeffs = list(soc.col(0))
    return ext_class_to_ses(ecb, coeffs)


def _radical_inclusion(q: QuiverBase, F, a) -> PathMatrix:
    """rad P_a -> P_a: the sum of P_b over the arrows al: a -> b, in order,
    each summand mapped by its arrow."""
    arrows = sorted(q.out_arrows(a))
    return path_matrix(q, F, "proj", [al.dst for al in arrows], [a],
                       [[[(1, Path(a, al.dst, (al,)))] for al in arrows]])


def minimal_right_almost_split_into(p: Rep) -> Morphism:
    """The radical inclusion into P_a followed by the cover P_a -> p of the
    minimal presentation, an isomorphism as p has no relations."""
    pres = min_proj_presentation(p)
    if pres.pm.domain:
        raise ValueError("input is not projective")
    if len(pres.pm.codomain) != 1:
        raise ValueError("input is not an indecomposable projective")
    rad = _radical_inclusion(p.quiver, p.field, pres.pm.codomain[0])
    return Morphism(rad.src, rad.dst, rule=rad.component).then(pres.cover)


def minimal_left_almost_split_from(i: Rep) -> Morphism:
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


# ---------------------------------------------------------------------------
# verification battery


@dataclass
class ASReport:
    exact: bool
    non_split: bool
    sub_indecomposable: bool
    quot_indecomposable: bool
    lift_failures: tuple
    factor_failures: tuple
    battery_size: int
    window: tuple

    @property
    def passed(self) -> bool:
        return (self.exact and self.non_split and self.sub_indecomposable
                and self.quot_indecomposable and not self.lift_failures
                and not self.factor_failures)


def _radical_morphisms(src: Rep, dst: Rep):
    """Basis of the radical of Hom(src, dst) for indecomposable ends."""
    pair = _iso_indec(src, dst)
    if pair is None:
        return list(hom_space(src, dst).basis)
    u, _ = pair
    E = end_algebra(dst)
    return [u.then(_endo_from_coords(E, coords)) for coords in E.radical]


def verify_almost_split(ses: SES, battery) -> ASReport:
    sub, mid, quot = ses.sub, ses.middle, ses.quot
    certs = [classify_membership(r) for r in (sub, mid, quot)]
    window, _ = joint_window(certs)
    checks = verify_exact(ses, window)
    exact = checks["exact"]

    sec_extra = [(v, ses.proj.component(v), None,
                  Mat.identity(quot.field, quot.dim(v))) for v in window]
    part, _ = solve_natural(quot, mid, window, extra=sec_extra)
    non_split = part is None

    sub_loc = end_algebra(sub).is_local
    quot_loc = end_algebra(quot).is_local

    lift_failures, factor_failures = [], []
    for m in battery:
        w2 = sorted(set(window) | set(joint_window(
            [classify_membership(m)])[0]), key=vkey)
        for g in _radical_morphisms(m, quot):
            extra = [(v, ses.proj.component(v), None, g.component(v))
                     for v in w2]
            part, _ = solve_natural(m, mid, w2, extra=extra)
            if part is None:
                lift_failures.append((m.describe(), g.label))
        for g in _radical_morphisms(sub, m):
            extra = [(v, None, ses.incl.component(v), g.component(v))
                     for v in w2]
            part, _ = solve_natural(mid, m, w2, extra=extra)
            if part is None:
                factor_failures.append((m.describe(), g.label))
    return ASReport(exact, non_split, sub_loc, quot_loc,
                    tuple(lift_failures), tuple(factor_failures),
                    len(list(battery)), tuple(window))


# ---------------------------------------------------------------------------
# knitting


@dataclass
class ARNode:
    key: int
    rep: Rep
    is_projective: bool = False
    is_injective: bool = False
    status: str = "open"       # open | expanded | frontier | blocked
    hops: int = 0
    notes: tuple = ()


@dataclass
class ARComponent:
    quiver: QuiverBase
    nodes: list
    arrows: dict               # (src_key, dst_key) -> multiplicity
    tau_links: dict            # key of X -> key of tau X
    seed_key: int
    depth: int
    notes: list = dc_field(default_factory=list)

    def node(self, key) -> ARNode:
        return self.nodes[key]

    def frontier(self):
        return [n.key for n in self.nodes if n.status == "frontier"]


def _fingerprint(rep: Rep, window, cert) -> tuple:
    tails = tuple(sorted((p.eid, r.rid, r.kind, r.dim)
                         for p in cert.profiles for r in p.rays if r.dim > 0))
    return dim_vector(rep, window), tails


def knit(seed: Rep, depth: int) -> ARComponent:
    """Breadth-first closure of the component of the seed under almost split
    sequences, radical inclusions of projectives, and socle quotients of
    injectives, up to the given hop depth."""
    q, F = seed.quiver, seed.field
    cert0 = classify_membership(seed)
    if not cert0.is_in_rrep():
        raise ValueError(f"seed is {cert0.verdict}; knitting needs rrep payloads")
    base_window, _ = joint_window([cert0])
    fwindow = tuple(sorted(_expand_window(q, base_window, depth + 2),
                           key=vkey))

    comp = ARComponent(q, [], {}, {}, 0, depth)
    by_fingerprint: dict = {}  # fingerprint -> node keys, in insertion order

    def fingerprint(rep: Rep) -> tuple:
        return _fingerprint(rep, fwindow, classify_membership(rep))

    def find_node(rep: Rep, fp) -> Optional[int]:
        for key in by_fingerprint.get(fp, ()):
            if _iso_indec(comp.nodes[key].rep, rep):
                return key
        return None

    def add_node(rep: Rep, hops: int, create: bool = True) -> Optional[int]:
        fp = fingerprint(rep)
        key = find_node(rep, fp)
        if key is not None:
            comp.nodes[key].hops = min(comp.nodes[key].hops, hops)
            return key
        if not create:
            return None
        node = ARNode(len(comp.nodes), rep, hops=hops)
        comp.nodes.append(node)
        by_fingerprint.setdefault(fp, []).append(node.key)
        return node.key

    def add_arrow(src: int, dst: int, mult: int):
        old = comp.arrows.get((src, dst))
        if old is None:
            comp.arrows[(src, dst)] = mult
        elif old != mult:
            raise AssertionError(
                f"valuation mismatch on arrow {src}->{dst}: {old} vs {mult}")

    meshes: dict = {}  # end key -> (tau key, [(summand key, multiplicity)])
    end_of: dict = {}  # tau key -> end key

    def knit_mesh(key: int, forward: bool):
        """The mesh tau Z -> (+) E -> Z through a node, as its end Z
        (backward) or as its translate tau Z (forward).  The first side to
        come up computes the almost split sequence, adds the arrows and
        records the mesh when both ends are nodes; the other side replays
        the record, which only lowers hop counts and queues the same nodes."""
        hops = comp.nodes[key].hops
        end = end_of.get(key) if forward else key
        if end in meshes:
            tkey, summands = meshes[end]
            far = end if forward else tkey
        else:
            x = comp.nodes[key].rep
            y = tau_inv(x) if forward else x
            ses = almost_split_sequence(y)
            # the other end sits two hops out; past the depth it is only
            # linked when its iso class is already present, never created
            far = add_node(y if forward else ses.sub, hops + 2,
                           create=hops + 2 <= depth)
            end, tkey = (far, key) if forward else (key, far)
            summands = [(add_node(summand, hops + 1), mult)
                        for summand, mult in decompose(ses.middle)]
            for skey, mult in summands:
                if end is not None:
                    add_arrow(skey, end, mult)
                if tkey is not None:
                    add_arrow(tkey, skey, mult)
            if far is not None:
                comp.tau_links[end] = tkey
                meshes[end] = (tkey, summands)
                end_of[tkey] = end
        near = [(far, hops + 2)] if far is not None else []
        for k, h in near + [(skey, hops + 1) for skey, _ in summands]:
            comp.nodes[k].hops = min(comp.nodes[k].hops, h)
            queue.append(k)

    seed_key = add_node(seed, 0)
    comp.seed_key = seed_key
    queue = deque([seed_key])
    seen = set()
    while queue:
        key = queue.popleft()
        if key in seen:
            continue
        seen.add(key)
        node = comp.nodes[key]
        if node.hops >= depth:
            node.status = "frontier"
            continue
        if len(comp.nodes) > MAX_NODES:
            comp.notes.append("node budget exhausted; frontier left open")
            node.status = "frontier"
            continue
        x = node.rep
        cert = classify_membership(x)
        notes = list(node.notes)

        if is_doubly_infinite(x):
            node.status = "blocked"
            notes.append("doubly infinite payload: trivial component member")
            node.notes = tuple(notes)
            continue

        # an fp node needs its presentation for tau anyway, an fc node its
        # copresentation for tau_inv
        fp, fc = cert.verdict in ("fp", "fd"), cert.verdict in ("fc", "fd")
        node.is_projective = fp and _is_standard(x, "proj")
        node.is_injective = fc and _is_standard(x, "inj")

        # backward step: predecessors through the right almost split map
        if node.is_projective:
            incl = minimal_right_almost_split_into(x)
            for (summand, mult) in decompose(incl.src):
                skey = add_node(summand, node.hops + 1)
                add_arrow(skey, key, mult)
                queue.append(skey)
        elif fp:
            knit_mesh(key, forward=False)
        else:
            notes.append("no backward expansion: payload not fp")

        # forward step: successors through the left almost split map
        if node.is_injective:
            proj = minimal_left_almost_split_from(x)
            for (summand, mult) in decompose(proj.dst):
                skey = add_node(summand, node.hops + 1)
                add_arrow(key, skey, mult)
                queue.append(skey)
        elif fc:
            knit_mesh(key, forward=True)
        else:
            notes.append("no forward expansion: payload not fc")

        node.notes = tuple(notes)
        node.status = "expanded"
    return comp


def _expand_window(q: QuiverBase, verts, radius: int):
    out = set(verts)
    for _ in range(radius):
        nxt = set(out)
        for v in out:
            for a in q.out_arrows(v):
                nxt.add(a.dst)
            for a in q.in_arrows(v):
                nxt.add(a.src)
        out = nxt
    return out


# ---------------------------------------------------------------------------
# component classification


@dataclass
class ShapeHypothesis:
    tag: str
    certificate: dict


def classify_component(comp: ARComponent) -> ShapeHypothesis:
    certs = [classify_membership(n.rep) for n in comp.nodes]
    cert_info = {"nodes": len(comp.nodes), "arrows": len(comp.arrows),
                 "depth": comp.depth, "frontier": comp.frontier(),
                 "notes": list(comp.notes)}
    if len(comp.nodes) == 1 and not comp.arrows and \
            comp.nodes[0].status == "blocked":
        return ShapeHypothesis("TrivialSingleton", cert_info)
    if any(n.is_projective for n in comp.nodes):
        return ShapeHypothesis("Preprojective-NQop", cert_info)
    if any(n.is_injective for n in comp.nodes):
        return ShapeHypothesis("Preinjective-NminusQop", cert_info)
    verdicts = [c.verdict for c in certs]
    has_p = any(v == "fp" for v in verdicts)
    has_i = any(v == "fc" for v in verdicts)
    has_both = any(v == "rrep" for v in verdicts)
    if has_both or (has_p and has_i):
        return ShapeHypothesis("Wing", cert_info)
    if has_p:
        return ShapeHypothesis("NminusAinfinity", cert_info)
    if has_i:
        return ShapeHypothesis("NAinfinity", cert_info)
    return ShapeHypothesis("ZAinfinity", cert_info)


def ar_category_kind(q: QuiverBase) -> str:
    left = not q.has_right_infinite_path()
    right = not q.has_left_infinite_path()
    if left and right:
        return "both"
    if left:
        return "left"
    if right:
        return "right"
    return "neither"


# ---------------------------------------------------------------------------
# Coxeter oracle for finite quivers


def coxeter_matrix(q: FiniteQuiver) -> Mat:
    """C[i][j] = number of paths from vertex j to vertex i (Cartan matrix)."""
    vs = sorted(q.vertices, key=vkey)
    return Mat(QQ, len(vs), len(vs), tuple(
        tuple(QQ.of(len(q.paths_between(b, a))) for b in vs) for a in vs))


def coxeter_transform(q: FiniteQuiver, dims, inverse_transform=False):
    """Dim-vector action of the Coxeter matrix Phi = -C^T C^{-1}.

    dims is a sequence in sorted vertex order, or a vertex -> dim mapping."""
    C = coxeter_matrix(q)
    F = C.field
    if isinstance(dims, dict):
        dims = [dims.get(v, 0) for v in sorted(q.vertices, key=vkey)]
    Ci = inverse(C)
    phi = C.transpose().mul(Ci).scale(F.neg(F.one))
    if inverse_transform:
        phi = inverse(phi)
    vec = phi.apply([F.of(d) for d in dims])
    return tuple(vec)
