"""Acceptance gate: ten exact (tolerance-zero) end-to-end checks.

Each test prints one PASS line on success; a failure shows up as the usual
pytest assertion.  Expected values come from the independent oracles in
oracles.py (interval model, Coxeter transform, brute-force Hom/Ext, the
combinatorial translation quiver), never from the code under test.
"""

import random

import pytest

from arknit import (
    PRESETS,
    QQ,
    Mat,
    RungFamily,
    VertexSet,
    almost_split_sequence,
    ar_category_kind,
    baer_sum,
    classify_component,
    classify_membership,
    decompose_report,
    dim_vector,
    direct_sum,
    ext_class_to_ses,
    ext_space,
    glue_rep,
    glue_ses,
    hom_space,
    injective_at,
    is_doubly_infinite,
    is_finite_extension,
    iso_test,
    knit,
    projective_at,
    simple_at,
    standard_ext,
    tau,
    tau_inv,
    thin_rep,
    verify_almost_split,
    verify_exact,
)
import arknit.presentations as presentations_mod
from arknit.ar import standard_vertex
from arknit.hom import joint_window

from conftest import random_fd_rep, random_morphism
from oracles import (
    an_almost_split,
    an_ar_arrows,
    an_dims,
    an_intervals,
    an_is_injective,
    an_is_projective,
    an_tau,
    cokernel,
    coxeter_images,
    hom_routes,
    kernel,
    natural_maps_on,
    nqop_truncation,
    route_basis,
    split_ses,
    standard_by_search,
    yoneda_by_paths,
)

V5 = (1, 2, 3, 4, 5)


def ok(num, msg):
    print(f"ACCEPTANCE {num:02d}: PASS - {msg}")


def interval_rep(q, iv):
    a, b = iv
    return thin_rep(q, VertexSet.make(q, tuple(range(a, b + 1)), ()))


def ladder_tails(ladder):
    sub = thin_rep(ladder, VertexSet.make(ladder, (), [("inf", "b", 0)]))
    quot = thin_rep(ladder, VertexSet.make(ladder, (), [("inf", "a", 0)]))
    (end,) = [e for e in ladder.ends() if e.eid == "inf"]
    return sub, quot, end


# ---------------------------------------------------------------------------
# 1. A5 exhaustive suite


def test_criterion_01_a5_exhaustive(a5):
    ivs = an_intervals(5)
    assert len(ivs) == 15
    reps = {iv: interval_rep(a5, iv) for iv in ivs}
    for iv in ivs:
        assert dim_vector(reps[iv], V5) == an_dims(iv, 5)

    battery = [reps[iv] for iv in ivs]
    nonproj = [iv for iv in ivs if not an_is_projective(iv, 5)]
    assert len(nonproj) == 10
    for iv in nonproj:
        ses = almost_split_sequence(reps[iv])
        sub_iv, mids, quot_iv = an_almost_split(iv, 5)
        assert quot_iv == iv
        assert dim_vector(ses.sub, V5) == an_dims(sub_iv, 5)
        want_mid = tuple(sum(an_dims(m, 5)[i] for m in mids) for i in range(5))
        assert dim_vector(ses.middle, V5) == want_mid
        report = verify_almost_split(ses, battery)
        assert report.passed and report.battery_size == 15

    comp = knit(projective_at(a5, 5), 10)
    label = {}
    for n in comp.nodes:
        assert n.status == "expanded"
        supp = [v for v in V5 if n.rep.dim(v)]
        assert all(n.rep.dim(v) == 1 for v in supp)
        label[n.key] = (min(supp), max(supp))
    assert sorted(label.values()) == sorted(ivs)
    got_arrows = {(label[s], label[d]): m for (s, d), m in comp.arrows.items()}
    assert got_arrows == {pair: 1 for pair in an_ar_arrows(5)}
    got_taus = {(label[a], label[b]) for a, b in comp.tau_links.items()}
    assert got_taus == {(iv, an_tau(iv, 5)) for iv in nonproj}
    ok(1, "15 A5 indecomposables, 10 verified sequences, exact triangle")


# ---------------------------------------------------------------------------
# 2. Kronecker preprojective chain against the Coxeter oracle


def test_criterion_02_kronecker_chain(kron):
    arrows_spec = [(a.src, a.dst, a.label) for a in kron.out_arrows(1)]
    comp = knit(projective_at(kron, 2), 5)
    dims = {n.key: dim_vector(n.rep, (1, 2)) for n in comp.nodes}
    assert sorted(dims.values()) == [(k, k + 1) for k in range(6)]
    assert len(comp.arrows) == 5
    assert all(mult == 2 for mult in comp.arrows.values())
    for s, d in comp.arrows:
        assert dims[d][0] == dims[s][0] + 1
    assert len(comp.tau_links) == 4
    for a, b in comp.tau_links.items():
        back = coxeter_images((1, 2), arrows_spec, dims[b], inverse=True)
        assert tuple(int(x) for x in back) == dims[a]
        fwd = coxeter_images((1, 2), arrows_spec, dims[a])
        assert tuple(int(x) for x in fwd) == dims[b]

    m, vec = projective_at(kron, 2), (0, 1)
    for _ in range(2):
        m = tau_inv(m)
        vec = tuple(int(x) for x in
                    coxeter_images((1, 2), arrows_spec, vec, inverse=True))
        assert dim_vector(m, (1, 2)) == vec
    ok(2, "chain (0,1)..(5,6), doubled arrows, Coxeter-exact translate steps")


# ---------------------------------------------------------------------------
# 3. knitting the inward ray reproduces the combinatorial translation quiver


def test_criterion_03_ray_knit_is_translation_quiver(ray_in):
    comp = knit(projective_at(ray_in, 0), 6)
    nodes, arrows, taus = nqop_truncation(6)
    coord = {}
    for n in comp.nodes:
        supp = [v for v in range(14) if n.rep.dim(v)]
        assert all(n.rep.dim(v) == 1 for v in supp)
        a, b = min(supp), max(supp)
        coord[n.key] = (a, b - a)
        assert n.hops == 2 * a + (b - a)
    assert len(set(coord.values())) == len(comp.nodes)
    assert set(coord.values()) == nodes
    assert all(mult == 1 for mult in comp.arrows.values())
    assert {(coord[s], coord[d]) for s, d in comp.arrows} == arrows
    assert {(coord[a], coord[b]) for a, b in comp.tau_links.items()} == taus
    ok(3, "depth-6 knit is isomorphic to the depth-6 translation quiver")


# ---------------------------------------------------------------------------
# 4. the doubly-infinite thin line object: singleton component, standard split


def test_criterion_04_trivial_wing(line, line_full):
    allk = thin_rep(line, line_full)
    comp = knit(allk, 3)
    assert len(comp.nodes) == 1
    assert comp.nodes[0].status == "blocked"
    assert classify_component(comp).tag == "TrivialSingleton"

    omega, ses = standard_ext(allk)
    assert omega.tails == (("neg", "v", 0),) and not omega.explicit
    assert iso_test(ses.sub, projective_at(line, 0)) is not None
    assert iso_test(ses.quot, injective_at(line, 1)) is not None
    verts = range(-10, 10)
    for v in verts:
        assert ses.sub.dim(v) == (1 if v <= 0 else 0)
        assert ses.quot.dim(v) == (1 if v >= 1 else 0)
        assert ses.middle.dim(v) == 1
    assert verify_exact(ses, verts)["exact"]
    ok(4, "singleton component; standard split checked at 20 vertices")


# ---------------------------------------------------------------------------
# 5. finite-extension recognition: dual criteria, basis classes, a witness


def test_criterion_05_finite_extension_suites(a3, a5, kron, zig, line, ladder):
    rng = random.Random(5)
    pools = [(a3, (1, 2, 3)), (a5, V5), (kron, (1, 2)), (zig, (0, 1, 2, 3))]
    p0t = thin_rep(line, VertexSet.make(line, (), [("neg", "v", 0)]))
    i1t = thin_rep(line, VertexSet.make(line, (), [("pos", "v", 1)]))
    allk = thin_rep(line, VertexSet.make(line, (),
                                         [("neg", "v", 0), ("pos", "v", 0)]))
    bsub, aquot, end = ladder_tails(ladder)
    one = Mat.from_rows(QQ, [[1]])

    sess = []
    while len(sess) < 192:
        q, verts = pools[len(sess) % len(pools)]
        x = random_fd_rep(q, rng, verts)
        y = random_fd_rep(q, rng, verts)
        ecb = ext_space(x, y)
        if ecb.dimension:
            coeffs = [rng.randint(-2, 2) for _ in range(ecb.dimension)]
            if not any(coeffs):
                coeffs[0] = 1
            sess.append(ext_class_to_ses(ecb, coeffs))
        else:
            sess.append(split_ses(y, x))
    sess.append(standard_ext(allk)[1])
    sess.append(split_ses(p0t, i1t))
    sess.append(split_ses(i1t, p0t))
    sess.append(glue_ses(bsub, aquot, ((end.crossing_arrow("rung", 0), one),),
                         ())[1])
    sess.append(glue_ses(bsub, aquot, (),
                         (RungFamily("inf", "rung", 0, QQ.one),))[1])
    while len(sess) < 200:
        q, verts = pools[len(sess) % len(pools)]
        sess.append(split_ses(random_fd_rep(q, rng, verts),
                              random_fd_rep(q, rng, verts)))
    assert len(sess) == 200
    finite_count = 0
    for ses in sess:
        finite, _, report = is_finite_extension(ses)
        assert report.vanishing_outside == report.gluing_support
        assert finite == (report.vanishing_outside and report.gluing_support)
        finite_count += finite
    assert finite_count == 199  # only the all-rungs glue is infinite

    # every basis class between an fp and an fc object is a finite extension
    basis_classes = 0
    pairs = [(i1t, p0t), (p0t, i1t), (aquot, bsub),
             (simple_at(line, 1), simple_at(line, 0))]
    for q, verts in pools:
        for _ in range(3):
            pairs.append((random_fd_rep(q, rng, verts),
                          random_fd_rep(q, rng, verts)))
    for quot, sub in pairs:
        ecb = ext_space(quot, sub)
        for i in range(ecb.dimension):
            coeffs = [int(i == j) for j in range(ecb.dimension)]
            finite, _, _ = is_finite_extension(ext_class_to_ses(ecb, coeffs))
            assert finite
            basis_classes += 1
    assert basis_classes >= 10

    # the all-ones rung family is recognized as infinite, with a witness
    # that stays valid over the 20 depths from its start
    _, gses = glue_ses(bsub, aquot, (),
                       (RungFamily("inf", "rung", 0, QQ.one),))
    finite, witness, report = is_finite_extension(gses)
    assert not finite
    assert not report.vanishing_outside and not report.gluing_support
    assert witness and all("for all depths >=" in w for w in witness)
    start = min(int(w.rsplit(">=", 1)[1]) for w in witness)
    for depth in range(start, start + 20):
        c = gses.cocycle_at(end.crossing_arrow("rung", depth))
        assert c is not None and not c.is_zero()
    ok(5, "200 sequences criterion-equivalent; basis classes finite; "
          "all-ones rung family infinite with verified witness")


# ---------------------------------------------------------------------------
# 6. abelian closure: kernels, cokernels, Baer sums stay in the class


def test_criterion_06_abelian_closure(a3, a5, kron, zig, line):
    rng = random.Random(6)
    pools = [(a3, (1, 2, 3)), (a5, V5), (kron, (1, 2)), (zig, (0, 1, 2, 3))]
    p0t = thin_rep(line, VertexSet.make(line, (), [("neg", "v", 0)]))
    allk = thin_rep(line, VertexSet.make(line, (),
                                         [("neg", "v", 0), ("pos", "v", 0)]))

    checked = 0
    i = 0
    while checked < 97:
        q, verts = pools[i % len(pools)]
        i += 1
        m = random_fd_rep(q, rng, verts)
        n = random_fd_rep(q, rng, verts)
        hb = hom_space(m, n)
        if not hb.dimension:
            continue
        f = random_morphism(hb, rng)
        ker, _ = kernel(f)
        cok, _ = cokernel(f)
        assert classify_membership(ker).is_in_rrep()
        assert classify_membership(cok).is_in_rrep()
        checked += 1
    for src, dst in ((p0t, allk), (allk, allk), (p0t, p0t),
                     (simple_at(line, 0), allk)):
        hb = hom_space(src, dst)
        f = random_morphism(hb, rng) if hb.dimension else None
        if f is None:
            continue
        ker, _ = kernel(f)
        cok, _ = cokernel(f)
        assert classify_membership(ker).is_in_rrep()
        assert classify_membership(cok).is_in_rrep()
        checked += 1
    assert checked >= 100

    sums = 0
    while sums < 20:
        q, verts = pools[sums % len(pools)]
        x = random_fd_rep(q, rng, verts)
        y = random_fd_rep(q, rng, verts)
        ecb = ext_space(x, y)
        if ecb.dimension == 0:
            continue
        c1 = [rng.randint(-2, 2) for _ in range(ecb.dimension)]
        c2 = [rng.randint(-2, 2) for _ in range(ecb.dimension)]
        s = baer_sum(ext_class_to_ses(ecb, c1), ext_class_to_ses(ecb, c2))
        finite, _, _ = is_finite_extension(s)
        assert finite
        assert classify_membership(s.middle).is_in_rrep()
        sums += 1
    _, ses0 = standard_ext(allk)
    s = baer_sum(ses0, ses0)
    assert is_finite_extension(s)[0]
    ok(6, "100 kernel/cokernel pairs and 21 Baer sums re-certified")


# ---------------------------------------------------------------------------
# 7. translate round trips


def test_criterion_07_tau_roundtrips(a5, zig):
    for iv in an_intervals(5):
        x = interval_rep(a5, iv)
        if not an_is_projective(iv, 5):
            assert iso_test(tau_inv(tau(x)), x) is not None
        if not an_is_injective(iv, 5):
            assert iso_test(tau(tau_inv(x)), x) is not None

    rng = random.Random(7)
    summands = []
    while len(summands) < 20:
        m = random_fd_rep(zig, rng, (0, 1, 2, 3, 4), max_dim=2)
        for s, _mult in decompose_report(m).items:
            if len(summands) < 20:
                summands.append(s)
    applied = 0
    for x in summands:
        try:
            back = tau_inv(tau(x))
        except ValueError:
            back = None
        if back is not None:
            assert iso_test(back, x) is not None
            applied += 1
        try:
            forth = tau(tau_inv(x))
        except ValueError:
            forth = None
        if forth is not None:
            assert iso_test(forth, x) is not None
            applied += 1
    assert applied >= 20
    ok(7, "exact round trips on A5 and 20 seeded window indecomposables")


# ---------------------------------------------------------------------------
# 8. the zigzag counterexamples stay outside the class


def test_criterion_08_zigzag_counterexamples(zig):
    for i in range(5):
        region = VertexSet.make(
            zig, (), [("inf", "even", (i + 1) // 2), ("inf", "odd", i // 2)])
        cert = classify_membership(thin_rep(zig, region))
        assert cert.verdict == "notInRrep"
        assert any("sources" in w for w in cert.witnesses)
    assert ar_category_kind(zig) == "both"
    ok(8, "M_0..M_4 rejected with infinite-sources witnesses; kind is both")


# ---------------------------------------------------------------------------
# 9. Hom route consistency


def _criterion_09_pairs(a3, a5, kron, zig, line):
    """Four pairs of thin and standard objects on the line, then random fd
    pairs on A3, A5, Kronecker and the zigzag, 100 in all."""
    rng = random.Random(9)
    pools = [(a3, (1, 2, 3)), (a5, V5), (kron, (1, 2)), (zig, (0, 1, 2, 3))]
    p0t = thin_rep(line, VertexSet.make(line, (), [("neg", "v", 0)]))
    allk = thin_rep(line, VertexSet.make(line, (),
                                         [("neg", "v", 0), ("pos", "v", 0)]))
    pairs = [(p0t, simple_at(line, 0)), (p0t, allk),
             (p0t, p0t), (projective_at(line, 2), allk)]
    while len(pairs) < 100:
        q, verts = pools[len(pairs) % len(pools)]
        pairs.append((random_fd_rep(q, rng, verts),
                      random_fd_rep(q, rng, verts)))
    return pairs


def test_criterion_09_hom_route_consistency(a3, a5, kron, zig, line):
    for m, n in _criterion_09_pairs(a3, a5, kron, zig, line):
        # .dimension is one arrow-complex count on every route, so each
        # route is read by the basis it builds
        d = hom_space(m, n).dimension
        for r in hom_routes(m, n):
            assert len(route_basis(m, n, r)[0]) == d, r
        bigger, _ = joint_window((m, n), 3)  # one band past the window route
        assert len(natural_maps_on(m, n, bigger)) == d
    ok(9, "presentation and window bases have the count's size on 100 "
          "pairs, stable under window enlargement, and so does the "
          "copresentation basis wherever the codomain is fd or fc")


def test_criterion_09_presentation_bases_are_yoneda_by_paths(
        a3, a5, kron, zig, line, monkeypatch):
    """Every Yoneda map of a presentation-route basis of criterion 9, and of
    its cover, read by prefix at each vertex of the window, is the map read
    path by path."""
    seen, by_prefix = [], presentations_mod.yoneda_at

    def spy(n, verts, vecs, w, images):
        got = by_prefix(n, verts, vecs, w, images)
        assert got == yoneda_by_paths(n, verts, vecs, w)
        seen.append(w)
        return got
    monkeypatch.setattr(presentations_mod, "yoneda_at", spy)
    for m, n in _criterion_09_pairs(a3, a5, kron, zig, line):
        space = hom_space(m, n)
        if space.route == "presentation":
            for f in space.basis:
                for v in space.window:
                    f.component(v)
    assert len(seen) > 100


PIN_VERTICES = {"line": (-1, 0, 1), "ray_out": (0, 1), "ray_in": (0, 1),
                "zigzag": (0, 1), "ladder": (("a", 0), ("b", 0))}


def test_hom_route_is_read_off_the_two_objects(a3, a5, kron, zig, line):
    """hom_space(m, n).route is presentation iff m is fd or fp, otherwise
    window, whatever n is.  Over the pairs of criterion 9, and over the P_a,
    I_a and thin objects of every preset (one per ray tail, and one on all
    of them) that are in rrep."""
    pairs = _criterion_09_pairs(a3, a5, kron, zig, line)
    for name, verts in PIN_VERTICES.items():
        q = PRESETS[name]()
        tails = [(e.eid, r.rid, 0) for e in q.ends() for r in e.rays]
        objs = [make(q, v) for v in verts
                for make in (projective_at, injective_at)]
        objs += [thin_rep(q, VertexSet.make(q, (), ts))
                 for ts in [[t] for t in tails] + [tails]]
        objs = [m for m in objs if classify_membership(m).is_in_rrep()]
        pairs += [(m, n) for m in objs for n in objs]
    seen = set()
    for m, n in pairs:
        route = "presentation" if classify_membership(m).verdict in (
            "fd", "fp") else "window"
        assert hom_space(m, n).route == route, (m.describe(), n.describe())
        seen.add((route, classify_membership(n).verdict in ("fd", "fc")))
    # the window serves fd and fc targets too
    assert seen == {(r, fc) for r in ("presentation", "window")
                    for fc in (False, True)}


# ---------------------------------------------------------------------------
# 10. taxonomy audit over knitted components from every preset


def test_criterion_10_taxonomy_audit(a3, a5, kron, zig, ray_in, ray_out,
                                     line, ladder, line_full,
                                     single_rung_mid):
    corpus = [
        knit(projective_at(a3, 3), 6),
        knit(projective_at(a5, 5), 10),
        knit(projective_at(kron, 2), 5),
        knit(projective_at(ray_in, 0), 6),
        knit(projective_at(ray_out, 0), 4),
        knit(simple_at(line, 0), 4),
        knit(injective_at(line, 0), 3),
        knit(thin_rep(line, line_full), 3),
        knit(simple_at(ladder, ("b", 1)), 2),
        knit(thin_rep(zig, VertexSet.make(zig, (0, 1, 2, 3), ())), 3),
        knit(single_rung_mid, 3),
    ]
    tags = []
    found = {"proj": 0, "inj": 0}
    for comp in corpus:
        verdict = {n.key: classify_membership(n.rep).verdict
                   for n in comp.nodes}
        # P_a and I_a as read from the minimal (co)presentations agree with
        # the isomorphism search over the probe window
        for n in comp.nodes:
            if n.status != "expanded":  # neither flag is decided
                assert not n.is_projective and not n.is_injective
                continue
            for kind, flag, sides in (("proj", n.is_projective, ("fp", "fd")),
                                      ("inj", n.is_injective, ("fc", "fd"))):
                want = standard_by_search(n.rep, kind)
                assert flag == (want is not None)
                if verdict[n.key] in sides:
                    assert standard_vertex(n.rep, kind) == want
                found[kind] += flag
        for s, d in comp.arrows:
            assert verdict[s] in ("fd", "fc") or verdict[d] in ("fd", "fp")
        hyp = classify_component(comp)
        tags.append(hyp.tag)
        if hyp.tag in ("Wing", "TrivialSingleton"):
            payloads = sum(1 for n in comp.nodes
                           if is_doubly_infinite(n.rep))
            assert payloads == 1
        status = {n.key: n.status for n in comp.nodes}
        for a, b in comp.tau_links.items():
            if status[a] != "expanded":
                continue
            into_a = {x: m for (x, d), m in comp.arrows.items() if d == a}
            out_b = {y: m for (s, y), m in comp.arrows.items() if s == b}
            assert into_a == out_b
    assert "Wing" in tags
    assert tags.count("TrivialSingleton") == 2
    assert found == {"proj": 20, "inj": 15}
    ok(10, "arrow direction, wing payloads, valuation symmetry and the "
           "standard objects hold over 11 components")
