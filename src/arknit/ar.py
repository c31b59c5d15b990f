"""Translates, almost split sequences, knitting, component classification.

tau sends a finitely presented non-projective object to the kernel of the
reinterpreted relation matrix on the injective side; tau_inv is the dual.
They are inverse bijections between the indecomposable non-projective and
the indecomposable non-injective objects (Auslander-Reiten-Smalo IV.1 for
D Tr and Tr D; Bautista-Liu-Paquette, Proc. LMS 106, 2013, for rep+(Q) and
rep-(Q)).  The standard objects are read from the same minimal
(co)presentations: X is P_a (I_a) when it has one (co)generator a and no
(co)relations.  Almost split sequences are built from the socle class of
Ext(X, tau X) under the endomorphism action and checked by a battery of
span tests: one window kernel of Hom per test object and side, in whose
span each radical map must lie.  Knitting walks the component graph
breadth first in both directions, with payload identity decided by
fingerprints plus certified isomorphism tests and a table of the
translates it built.  rrep(Q) has the almost split sequences of rep(Q)
(BLP 2013), so its AR quiver is a valued translation quiver: knit reads a
mesh off its arrows on a known side (ARS VII.1; Assem-Simson-Skowronski
IV.4), or computes it once, and replays it at its other end.
"""
from __future__ import annotations

from collections import Counter, deque
from typing import Optional

from .ext import ext_class_to_ses, ext_space
from .hom import (_columns, _endo_from_coords, _iso_indec, decompose,
                  end_algebra, hom_space, solve_natural, summand_key)
from .linalg import Mat, kernel_basis, outside_span
from .morphism import SES, verify_exact
from .presentations import (min_inj_copresentation, min_proj_presentation,
                            nakayama)
from .quiver import QuiverBase, vkey
from .record import Record
from .rep import (Rep, classify_membership, coker_proj, dim_vector, dualize,
                  injective_at, is_doubly_infinite, joint_window, ker_inj,
                  projective_at)

MAX_NODES = 160  # knit expands no node once the component has more


# ---------------------------------------------------------------------------
# translates


def tau(x: Rep) -> Rep:
    cert = classify_membership(x)
    if not cert.has_presentation():
        raise ValueError(f"tau undefined: input is {cert.verdict}, not fp")
    pres = min_proj_presentation(x)
    if not pres.pm.domain:
        raise ValueError("tau undefined for projective objects")
    return ker_inj(nakayama(pres.pm))


def tau_inv(w: Rep) -> Rep:
    cert = classify_membership(w)
    if not cert.has_copresentation():
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


def _check_seed(seed: Rep, cert):
    """Refuse a zero or decomposable seed at any depth: P_a (I_a) has one
    (co)generator and no (co)relations, a zero object or a sum of several
    none or several; any other seed, doubly infinite ones too, needs a
    local End, as a brick has.  dim End is counted first, so a brick stops
    there at 1."""
    for kind, has, word in (("proj", cert.has_presentation(), "projective"),
                            ("inj", cert.has_copresentation(), "injective")):
        gens, rels = _generators(seed, kind) if has else ((), True)
        if not rels:
            if len(gens) == 1:
                return
            raise ValueError(f"seed is a sum of {len(gens)} {word} objects, "
                             "not indecomposable" if gens else "seed is zero; "
                             "knitting needs an indecomposable seed")
    if hom_space(seed, seed).dimension > 1 and not end_algebra(seed).is_local:
        raise ValueError("seed is decomposable; knitting needs an "
                         "indecomposable seed")


def is_pseudo_projective(x: Rep) -> bool:
    """fp non-projective with infinite-dimensional translate."""
    return classify_membership(tau(x)).verdict != "fd"


# ---------------------------------------------------------------------------
# almost split sequences


def almost_split_sequence(x: Rep, tx: Optional[Rep] = None) -> SES:
    """0 -> tau X -> E -> X -> 0 from the socle class of Ext(X, tau X); tx
    is tau X when the caller holds it already."""
    tx = tau(x) if tx is None else tx
    E = end_algebra(x)
    if not E.is_local:
        raise ValueError("almost split sequence needs an indecomposable end")
    ecb = ext_space(x, tx)
    if not (n := len(ecb.basis)):   # the classes are read; no count is run
        raise AssertionError("Ext(X, tau X) vanished unexpectedly")
    F = x.field
    if not E.radical:
        coeffs = [F.one] + [F.zero] * (n - 1)
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
        soc = kernel_basis(Mat(F, len(rows), n, tuple(rows)))
        if soc.cols == 0:
            raise AssertionError("Ext socle vanished; class selection failed")
        coeffs = list(soc.col(0))
    return ext_class_to_ses(ecb, coeffs)


# ---------------------------------------------------------------------------
# verification battery


class ASReport(Record):
    __slots__ = _fields = ("exact", "non_split", "sub_indecomposable",
                           "quot_indecomposable", "lift_failures",
                           "factor_failures", "battery_size")

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
    """The defining properties (ARS V.1) on windows, each question one span
    test: a radical g: M -> quot lifts iff it lies in the span of proj o h
    over the window kernel h of Hom(M, middle), a radical g: sub -> M
    factors iff it lies in that of h o incl over Hom(middle, M), and the
    sequence splits iff id_quot lifts.  One kernel per object and side."""
    sub, mid, quot = ses.sub, ses.middle, ses.quot
    F, battery = quot.field, list(battery)
    window, _ = joint_window((sub, mid, quot))
    proj, incl = ses.proj.component, ses.incl.component

    def misses(src, dst, verts, maps, through):
        """The indices of maps, component lists on verts, outside the span
        of through(h, v) over the natural maps h: src -> dst on verts."""
        if not maps:
            return ()
        span = [[through(h, v) for v in verts]
                for h in solve_natural(src, dst, verts)]
        return outside_span(_columns(F, span + maps), len(span))

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


# ---------------------------------------------------------------------------
# knitting


class ARNode(Record):
    # status: open | expanded | frontier | blocked
    __slots__ = _fields = ("key", "rep", "is_projective", "is_injective",
                           "status", "hops", "notes")


class ARComponent(Record):
    # arrows: (src_key, dst_key) -> multiplicity; tau_links: key of X -> key
    # of tau X
    __slots__ = _fields = ("quiver", "nodes", "arrows", "tau_links",
                           "seed_key", "depth", "notes")

    def frontier(self):
        return [n.key for n in self.nodes if n.status == "frontier"]


def _fingerprint(rep: Rep, window, cert) -> tuple:
    tails = tuple(sorted((p.eid, r.rid, r.kind, r.dim)
                         for p in cert.profiles for r in p.rays if r.dim > 0))
    return dim_vector(rep, window), tails


def _standard(q: QuiverBase, F, make, a, forward: bool) -> list:
    """(make(q, b, F), m, None) for m arrows b -> a (forward) or a -> b."""
    return [(make(q, b, F), m, None) for b, m in Counter(
        al.src if forward else al.dst for al in
        (q.in_arrows(a) if forward else q.out_arrows(a))).items()]


def _translate(comp: ARComponent, tr: dict, key: int, forward: bool) -> Rep:
    """tau_inv (forward) or tau of the node key: the node that the knit's
    translate table tr holds, else built, at most once per knit."""
    k = tr.get((key, forward))
    return (tau_inv if forward else tau)(comp.nodes[key].rep) if k is None \
        else comp.nodes[k].rep


def _standard_at(comp: ARComponent, tr: dict, key: int, forward: bool):
    """Whether the node key is I_a (forward) or P_a: not when the table holds
    its translate on that side, else read off its (co)presentation."""
    return (key, forward) not in tr and standard_vertex(
        comp.nodes[key].rep, "inj" if forward else "proj") is not None


def _predict_mesh(comp: ARComponent, tr: dict, key: int, forward: bool):
    """(far end, summands in decompose's order, how) of the step from
    (forward) or into the node, or None to compute it: I_b per arrow b -> a
    from I_a, P_b per arrow a -> b into P_a, else the mesh read off the
    node's arrows on the other side, if any, known after an fp node's
    backward step or once the mesh from it is recorded.  A summand is
    (rep, multiplicity, the node it translates, or None)."""
    node, q, F = comp.nodes[key], comp.quiver, comp.nodes[key].rep.field
    if node.is_injective if forward else node.is_projective:
        a = standard_vertex(node.rep, "inj" if forward else "proj")
        far, how = None, f"read off the arrows at {q.vertex_str(a)}"
        parts = _standard(q, F, injective_at if forward else projective_at,
                          a, forward)
    elif (classify_membership(node.rep).has_presentation() if forward
          else tr.get((key, True)) in comp.tau_links):
        parts, sources = [], []
        for (src, dst), mult in comp.arrows.items():
            near, other = (dst, src) if forward else (src, dst)
            if near == key:
                cert = classify_membership(comp.nodes[other].rep)
                if not (cert.has_copresentation() if forward
                        else cert.has_presentation()):
                    return None
                sources.append(other)
                if not _standard_at(comp, tr, other, forward):
                    parts.append((_translate(comp, tr, other, forward), mult,
                                  other))
        if not sources:  # the mesh from a simple projective
            return None
        if forward and node.is_projective:
            parts += _standard(q, F, projective_at,
                               standard_vertex(node.rep, "proj"), True)
        far, how = _translate(comp, tr, key, forward), \
            "predicted from nodes " + ", ".join(map(str, sources))
    else:
        return None
    probe, _ = joint_window([r for r, _, _ in parts])
    return far, sorted(parts, key=lambda p: summand_key(p[0], probe)), how


def knit(seed: Rep, depth: int) -> ARComponent:
    """Breadth-first closure of the seed's component, to the hop depth.
    rrep(Q) has the almost split sequences of rep(Q) (BLP 2013), so a mesh
    is fixed by its arrows on one side (ARS VII.1; ASS IV.4): from X, it
    ends at tau_inv X and has tau_inv Z per arrow Z -> X, Z not injective,
    and P_b per arrow b -> c if X is P_c; into X, tau W per arrow X -> W, W
    not projective.  It is predicted when that side is known and has a
    node, else computed.  The translate table tr holds tau_inv Z = X as
    (Z, True) -> X and (X, False) -> Z (a bijection: ARS IV.1, BLP 2013), so
    a node with a known tau is no P_a, one with a known tau_inv no I_a."""
    q, F = seed.quiver, seed.field
    cert0 = classify_membership(seed)
    if not cert0.is_in_rrep():
        raise ValueError(f"seed is {cert0.verdict}; knitting needs rrep payloads")
    _check_seed(seed, cert0)
    base_window, _ = joint_window([seed])
    fwindow = tuple(sorted(_expand_window(q, base_window, depth + 2),
                           key=vkey))

    comp = ARComponent(q, [], {}, {}, 0, depth, [])
    by_fingerprint: dict = {}  # fingerprint -> node keys, in insertion order
    tr: dict = {}  # (key, forward) -> key of tau_inv (forward) or tau of it

    def find_node(rep: Rep, fp) -> Optional[int]:
        for key in by_fingerprint.get(fp, ()):
            if _iso_indec(comp.nodes[key].rep, rep):
                return key
        return None

    def add_node(rep: Rep, hops: int, of=None, forward=True,
                 create: bool = True) -> Optional[int]:
        """The node of rep, found or made; if rep is tau_inv (forward) or
        tau of the node of, the table answers first and then holds it."""
        key = tr.get((of, forward))
        if key is None:
            fp = _fingerprint(rep, fwindow, classify_membership(rep))
            key = find_node(rep, fp)
            if key is None and create:
                key = len(comp.nodes)
                comp.nodes.append(ARNode(key, rep, False, False, "open",
                                         hops, ()))
                by_fingerprint.setdefault(fp, []).append(key)
            if of is not None and key is not None:
                tr[(of, forward)], tr[(key, not forward)] = key, of
        return key

    def add_arrow(src: int, dst: int, mult: int):
        old = comp.arrows.get((src, dst))
        if old is None:
            comp.arrows[(src, dst)] = mult
        elif old != mult:
            raise AssertionError(
                f"valuation mismatch on arrow {src}->{dst}: {old} vs {mult}")

    meshes: dict = {}  # end -> [(summand, mult)]; tau key: comp.tau_links

    def knit_mesh(key: int, forward: bool) -> str:
        """A node's neighbours on one side, and how they were obtained: the
        first side of a mesh to come up predicts or computes it and records
        it when both ends are nodes; the other side replays the record."""
        node, hops = comp.nodes[key], comp.nodes[key].hops
        end = tr.get((key, True)) if forward else key
        if end in meshes:
            summands = meshes[end]
            far = end if forward else comp.tau_links[end]
            how = "replayed"
        else:
            step = _predict_mesh(comp, tr, key, forward)
            if step is None:
                y = _translate(comp, tr, key, True) if forward else node.rep
                # tau y is node.rep, rebuilt for the bench's ar.tau count
                ses = almost_split_sequence(y, None if forward else
                                            _translate(comp, tr, key, False))
                step = y if forward else ses.sub, None, "computed"
            far_rep, parts, how = step
            # the other end sits two hops out; past the depth it is only
            # linked when its iso class is already present, never created
            far = None if far_rep is None else add_node(
                far_rep, hops + 2, key, forward, create=hops + 2 <= depth)
            end, tkey = (far, key) if forward else (key, far)
            if parts is None:  # computed: decomposed after the far end
                parts = [(s, m, None) for s, m in decompose(ses.middle)]
            summands = [(add_node(rep, hops + 1, of, forward), mult)
                        for rep, mult, of in parts]
            for skey, mult in summands:
                if end is not None:
                    add_arrow(skey, end, mult)
                if tkey is not None:
                    add_arrow(tkey, skey, mult)
            if far is not None:
                comp.tau_links[end] = tkey
                meshes[end] = summands
        near = [(far, hops + 2)] if far is not None else []
        for k, h in near + [(skey, hops + 1) for skey, _ in summands]:
            comp.nodes[k].hops = min(comp.nodes[k].hops, h)
            queue.append(k)
        return how

    comp.seed_key = add_node(seed, 0)
    queue = deque([comp.seed_key])
    while queue:
        key = queue.popleft()
        node = comp.nodes[key]
        if node.status != "open":  # seen
            continue
        if node.hops >= depth or len(comp.nodes) > MAX_NODES:
            node.status, node.notes = "frontier", (
                f"frontier: hop depth {depth} reached" if node.hops >= depth
                else f"frontier: node budget of {MAX_NODES} exhausted",)
            note = "node budget exhausted; frontier left open"
            if node.hops < depth and note not in comp.notes:
                comp.notes.append(note)
            continue
        x = node.rep
        cert = classify_membership(x)
        if is_doubly_infinite(x):
            node.status = "blocked"
            node.notes = ("doubly infinite payload: trivial component member",)
            continue

        # an fp node needs its presentation for tau anyway, an fc node its
        # copresentation for tau_inv, unless the table holds that translate
        fp, fc = cert.has_presentation(), cert.has_copresentation()
        node.is_projective = fp and _standard_at(comp, tr, key, False)
        node.is_injective = fc and _standard_at(comp, tr, key, True)
        node.notes = tuple(
            f"{side} step: {knit_mesh(key, side == 'forward')}" if ok else
            f"no {side} expansion: payload not {need}" for side, ok, need in
            (("backward", fp, "fp"), ("forward", fc, "fc")))
        node.status = "expanded"
    return comp


def _expand_window(q: QuiverBase, verts, radius: int):
    out = set(verts)
    for _ in range(radius):
        out |= {a.dst for v in out for a in q.out_arrows(v)} | \
            {a.src for v in out for a in q.in_arrows(v)}
    return out


# ---------------------------------------------------------------------------
# component classification


class ShapeHypothesis(Record):
    __slots__ = _fields = ("tag", "certificate")


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
