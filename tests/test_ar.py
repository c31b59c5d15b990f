"""Translates, almost split sequences, knitting, component taxonomy."""

import random
import sys
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import arknit.ar as ar
from arknit import (
    GF,
    QQ,
    Mat,
    VertexSet,
    almost_split_sequence,
    ar_category_kind,
    classify_component,
    classify_membership,
    coker_proj,
    component_dot,
    decompose,
    dim_vector,
    direct_sum,
    end_algebra,
    explicit_fd,
    injective_at,
    is_doubly_infinite,
    is_pseudo_projective,
    iso_test,
    ker_inj,
    knit,
    min_inj_copresentation,
    min_proj_presentation,
    nakayama,
    PRESETS,
    projective_at,
    simple_at,
    tau,
    tau_inv,
    thin_rep,
    verify_almost_split,
    verify_exact,
    zero_rep,
    ext_space,
    ext_class_to_ses,
)

from arknit.ar import standard_vertex
from arknit.hom import _columns, joint_window, solve_natural
from arknit.linalg import outside_span
from arknit.quiver import kronecker_quiver, linear_quiver
from conftest import random_fd_rep
from oracles import (
    an_almost_split,
    an_ar_arrows,
    an_dims,
    an_intervals,
    an_is_injective,
    an_is_projective,
    an_tau,
    computed_step,
    coxeter_images,
    minimal_left_almost_split_from,
    minimal_right_almost_split_into,
    nqop_truncation,
    split_ses,
)
from test_periodicity import objects
from test_presentations import criterion_10_knits


def interval_rep(q, iv):
    a, b = iv
    return thin_rep(q, VertexSet.make(q, tuple(range(a, b + 1)), ()))


# ---------------------------------------------------------------------------
# translates against the interval model


def test_tau_matches_interval_model(a5):
    verts = (1, 2, 3, 4, 5)
    for iv in an_intervals(5):
        if an_is_projective(iv, 5):
            continue
        t = tau(interval_rep(a5, iv))
        assert dim_vector(t, verts) == an_dims(an_tau(iv, 5), 5)


def test_tau_inv_matches_interval_model(a5):
    verts = (1, 2, 3, 4, 5)
    for iv in an_intervals(5):
        if an_is_injective(iv, 5):
            continue
        a, b = iv
        t = tau_inv(interval_rep(a5, iv))
        assert dim_vector(t, verts) == an_dims((a - 1, b - 1), 5)


def test_tau_roundtrip(a5):
    for iv in an_intervals(5):
        if an_is_projective(iv, 5):
            continue
        m = interval_rep(a5, iv)
        back = tau_inv(tau(m))
        assert iso_test(m, back) is not None


def test_tau_frozen_values(a3):
    assert dim_vector(tau(simple_at(a3, 2)), (1, 2, 3)) == (0, 0, 1)
    assert dim_vector(tau_inv(simple_at(a3, 2)), (1, 2, 3)) == (1, 0, 0)
    with pytest.raises(ValueError, match="projective"):
        tau(projective_at(a3, 1))
    with pytest.raises(ValueError, match="injective"):
        tau_inv(injective_at(a3, 1))


def test_tau_of_presented_cokernel(a3):
    # coker(P_3 -> P_1) evaluates like I_2; its translate is P_2
    pres = min_proj_presentation(injective_at(a3, 2))
    x = coker_proj(pres.pm)
    t = tau(x)
    assert iso_test(t, projective_at(a3, 2)) is not None


def test_path_matrix_side_is_checked(a3):
    pm = min_proj_presentation(injective_at(a3, 2)).pm
    with pytest.raises(ValueError, match="projective-side"):
        coker_proj(nakayama(pm))
    with pytest.raises(ValueError, match="injective-side"):
        ker_inj(pm)


def test_tau_roundtrip_on_zigzag_window(zig):
    m = thin_rep(zig, VertexSet.make(zig, (0, 1, 2, 3), ()))
    back = tau_inv(tau(m))
    assert iso_test(m, back) is not None


def test_pseudo_projective(ladder, line):
    # tau of the simple at b_1 spreads along the whole a-ray
    assert is_pseudo_projective(simple_at(ladder, ("b", 1)))
    assert not is_pseudo_projective(simple_at(line, 0))


def _translates_invert(x):
    """tau_inv(tau x) = x for x not projective and tau(tau_inv x) = x for x
    not injective, where the translate is fc (fp) in turn.  A predicted mesh
    reads this: the translate of a neighbour is the node at the far end of
    the neighbour's mesh."""
    for kind, there, back, needs in (("proj", tau, tau_inv, ("fp", "fc")),
                                     ("inj", tau_inv, tau, ("fc", "fp"))):
        if classify_membership(x).verdict in ("fd", needs[0]) and \
                standard_vertex(x, kind) is None:
            y = there(x)
            if classify_membership(y).verdict in ("fd", needs[1]):
                assert iso_test(back(y), x) is not None, (kind, x.describe())


TRANSLATE_QUIVERS = {"a3": (linear_quiver(3), (1, 2, 3)),
                     "a5": (linear_quiver(5), (1, 2, 3, 4, 5)),
                     "kronecker": (kronecker_quiver(), (1, 2)),
                     "zigzag": (PRESETS["zigzag"](), (0, 1, 2, 3))}


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_translates_invert_each_other_on_fd_summands(data):
    q, verts = TRANSLATE_QUIVERS[data.draw(st.sampled_from(
        sorted(TRANSLATE_QUIVERS)))]
    field = data.draw(st.sampled_from((QQ, GF(3))))
    m = random_fd_rep(q, random.Random(data.draw(st.integers(0, 2 ** 16))),
                      verts, field=field)
    for summand, _ in decompose(m):
        _translates_invert(summand)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_translates_invert_each_other_on_line(data):
    m = data.draw(objects(PRESETS["line"](), 1))
    assume(classify_membership(m).is_in_rrep())
    for summand, _ in decompose(m):
        _translates_invert(summand)


# ---------------------------------------------------------------------------
# almost split sequences


def test_ass_matches_interval_model(a5):
    verts = (1, 2, 3, 4, 5)
    for iv in an_intervals(5):
        if an_is_projective(iv, 5):
            continue
        ses = almost_split_sequence(interval_rep(a5, iv))
        sub_iv, mids, _ = an_almost_split(iv, 5)
        assert dim_vector(ses.sub, verts) == an_dims(sub_iv, 5)
        want_mid = tuple(
            sum(an_dims(m, 5)[i] for m in mids) for i in range(5))
        assert dim_vector(ses.middle, verts) == want_mid
        assert verify_exact(ses, verts)["exact"]


def test_ass_kronecker_middle(kron):
    ses = almost_split_sequence(tau_inv(projective_at(kron, 2)))
    assert dim_vector(ses.sub, (1, 2)) == (0, 1)
    assert dim_vector(ses.middle, (1, 2)) == (2, 4)
    assert dim_vector(ses.quot, (1, 2)) == (2, 3)


@pytest.mark.parametrize("F", [
    QQ, GF(3), GF(7),
    pytest.param(GF(2), marks=pytest.mark.xfail(
        raises=AssertionError, strict=True,
        reason="the trace-form radical overshoots to all of End in "
               "characteristic 2, so no Ext class survives it")),
], ids=repr)
def test_ass_takes_the_socle_class_of_a_non_simple_end(kron, F):
    """alpha = I, beta = N = [[0, 1], [0, 0]] on Kronecker: End is k[x]/(x^2),
    local of dimension 2, with radical spanned by the endomorphism N at both
    vertices, so the class must be chosen in the socle of Ext(X, tau X)."""
    nil = Mat.from_rows(F, [[0, 1], [0, 0]])
    x = explicit_fd(kron, {1: 2, 2: 2},
                    {"alpha": Mat.identity(F, 2), "beta": nil}, F)
    ses = almost_split_sequence(x)
    E = end_algebra(x)
    assert E.is_local and E.dimension == 2 and len(E.radical) == 1
    verts = (1, 2)
    assert verify_exact(ses, verts)["exact"]
    battery = [make(kron, a, F) for make in (simple_at, projective_at,
                                             injective_at) for a in verts]
    report = verify_almost_split(ses, battery)
    assert report.non_split and report.passed
    # rad End kills the class: N lifts through the middle term, the
    # identity does not (the sequence is non-split)
    lifts = [[ses.proj.component(v).mul(h[v]) for v in verts]
             for h in solve_natural(x, ses.middle, verts)]
    ident = Mat.identity(F, 2)
    assert outside_span(_columns(F, lifts + [[nil, nil], [ident, ident]]),
                        len(lifts)) == (1,)


def test_verify_almost_split_accepts(a3):
    ses = almost_split_sequence(simple_at(a3, 2))
    battery = [projective_at(a3, a) for a in (1, 2, 3)] + \
        [injective_at(a3, a) for a in (1, 2)] + [simple_at(a3, 2)]
    report = verify_almost_split(ses, battery)
    assert report.passed
    assert report.exact and report.non_split


def test_verify_almost_split_rejects_split(a3):
    ses = split_ses(simple_at(a3, 3), simple_at(a3, 2))
    report = verify_almost_split(ses, [projective_at(a3, 2)])
    assert not report.passed
    assert not report.non_split and report.battery_size == 1


def test_verify_almost_split_rejects_wrong_nonsplit(a3):
    # 0 -> S_3 -> P_1 -> I_2 -> 0 is exact and non-split but not almost split
    ecb = ext_space(injective_at(a3, 2), simple_at(a3, 3))
    assert ecb.dimension == 1
    ses = ext_class_to_ses(ecb, (1,))
    assert dim_vector(ses.middle, (1, 2, 3)) == (1, 1, 1)
    battery = [simple_at(a3, 2), projective_at(a3, 2)]
    report = verify_almost_split(ses, battery)
    assert report.exact and report.non_split
    assert not report.passed
    # S_2 -> I_2 does not lift through P_1, S_3 -> P_2 does not factor
    assert report.lift_failures == (("S(2)", "h0"),)
    assert report.factor_failures == (("P(2)", "h0"),)


def test_verify_almost_split_reads_a_generator_battery_once(a3):
    ses = almost_split_sequence(simple_at(a3, 2))
    report = verify_almost_split(
        ses, (projective_at(a3, a) for a in (1, 2, 3)))
    assert report.passed and report.battery_size == 3


# ---------------------------------------------------------------------------
# one-sided minimal almost split maps


def test_right_almost_split_into_projective(a3, kron, line):
    g = minimal_right_almost_split_into(projective_at(a3, 1))
    assert dim_vector(g.src, (1, 2, 3)) == (0, 1, 1)  # rad P_1 = P_2
    g2 = minimal_right_almost_split_into(projective_at(kron, 1))
    assert dim_vector(g2.src, (1, 2)) == (0, 2)  # rad P_1 = P_2 + P_2
    g3 = minimal_right_almost_split_into(projective_at(line, 0))
    assert iso_test(g3.src, projective_at(line, -1)) is not None


def test_left_almost_split_from_injective(a3, line):
    g = minimal_left_almost_split_from(injective_at(a3, 3))
    assert dim_vector(g.dst, (1, 2, 3)) == (1, 1, 0)  # I_3 / soc = I_2
    g2 = minimal_left_almost_split_from(injective_at(line, 0))
    assert iso_test(g2.dst, injective_at(line, 1)) is not None


# the same steps in knitting, read off the arrows at the vertex


def _seed_side(seed, forward):
    """The nodes next to the seed of its depth-1 knit on one side, as
    (rep, multiplicity), and the seed's notes."""
    comp = knit(seed, 1)
    return [(comp.nodes[d if forward else s].rep, m)
            for (s, d), m in comp.arrows.items()
            if (s if forward else d) == comp.seed_key], \
        comp.nodes[comp.seed_key].notes


def test_knit_reads_the_radical_of_a_projective_off_its_arrows(a3, kron,
                                                               line):
    for seed, want, mult in ((projective_at(a3, 1), projective_at(a3, 2), 1),
                             (projective_at(kron, 1), projective_at(kron, 2),
                              2),  # rad P_1 = P_2 + P_2
                             (projective_at(line, 0), projective_at(line, -1),
                              1)):
        (pred,), notes = _seed_side(seed, forward=False)
        assert pred[1] == mult and iso_test(pred[0], want) is not None
        assert notes[0] == "backward step: read off the arrows at " + \
            seed.quiver.vertex_str(seed.vertex)


def test_knit_reads_an_injective_modulo_its_socle_off_its_arrows(a3, line):
    for seed, want in ((injective_at(a3, 3), injective_at(a3, 2)),
                       (injective_at(line, 0), injective_at(line, 1))):
        ((succ, mult),), notes = _seed_side(seed, forward=True)
        assert mult == 1 and iso_test(succ, want) is not None
        assert notes[1] == "forward step: read off the arrows at " + \
            seed.quiver.vertex_str(seed.vertex)


# ---------------------------------------------------------------------------
# knitting


def test_knit_a3_full_component(a3):
    comp = knit(projective_at(a3, 3), 6)
    assert len(comp.nodes) == 6
    dminfo = sorted(dim_vector(n.rep, (1, 2, 3)) for n in comp.nodes)
    want = sorted(an_dims(iv, 3) for iv in an_intervals(3))
    assert dminfo == want
    assert len(comp.tau_links) == 3
    assert sum(comp.arrows.values()) == len(an_ar_arrows(3))


def test_knit_kronecker_chain(kron):
    comp = knit(projective_at(kron, 2), 5)
    assert len(comp.nodes) == 6
    dims = sorted(dim_vector(n.rep, (1, 2)) for n in comp.nodes)
    assert dims == [(k, k + 1) for k in range(6)]
    assert all(mult == 2 for mult in comp.arrows.values())
    assert len(comp.arrows) == 5
    assert len(comp.tau_links) == 4


def test_knit_ray_in_counts(ray_in):
    comp = knit(projective_at(ray_in, 0), 6)
    nodes, arrows, taus = nqop_truncation(6)
    assert len(comp.nodes) == len(nodes)
    assert sum(comp.arrows.values()) == len(arrows)
    assert len(comp.tau_links) == len(taus)


def test_knit_blocked_for_doubly_infinite(line, line_full):
    comp = knit(thin_rep(line, line_full), 3)
    assert len(comp.nodes) == 1
    assert comp.nodes[0].status == "blocked"
    hyp = classify_component(comp)
    assert hyp.tag == "TrivialSingleton"


def test_knit_rejects_bad_seed(zig):
    region = VertexSet.make(zig, (), [("inf", "even", 0), ("inf", "odd", 0)])
    with pytest.raises(ValueError):
        knit(thin_rep(zig, region), 2)


def test_knit_refuses_a_zero_or_decomposable_standard_seed(a3, kron, line):
    # each once reached tau or tau_inv and failed there for the wrong reason,
    # or, at depth 0, was knit as one node
    cases = [
        (direct_sum(projective_at(a3, 1), projective_at(a3, 2)),
         "seed is a sum of 2 projective objects, not indecomposable"),
        (zero_rep(kron), "seed is zero; knitting needs an indecomposable seed"),
        (direct_sum(injective_at(line, 0), injective_at(line, 1)),
         "seed is a sum of 2 injective objects, not indecomposable"),
    ]
    for seed, message in cases:
        for depth in (0, 2):
            with pytest.raises(ValueError, match=message):
                knit(seed, depth)


def test_knit_refuses_a_decomposable_seed_at_every_depth(kron, line):
    # neither P_a nor I_a, so End decides: at depth 0 these were knit as
    # one node, deeper they failed in an almost split sequence whose message
    # did not name the seed
    for seed in (direct_sum(projective_at(kron, 2), simple_at(kron, 1)),
                 direct_sum(simple_at(line, 0), simple_at(line, 0))):
        for depth in (0, 1, 2):
            with pytest.raises(ValueError, match="seed is decomposable; "
                               "knitting needs an indecomposable seed"):
                knit(seed, depth)


def test_knit_meshes_are_additive(a5, line, zig, kron):
    """Each tau link (Z, tau Z) spans an almost split sequence
    0 -> tau Z -> (+) E^m -> Z -> 0, so dim tau Z + dim Z = sum m dim E on
    any window, and the arrows out of tau Z are the arrows into Z, with the
    same multiplicities."""
    comps = [knit(projective_at(a5, 5), 10),
             knit(simple_at(line, 0), 4),
             knit(thin_rep(zig, VertexSet.make(zig, (0, 1, 2, 3), ())), 3),
             knit(projective_at(kron, 2), 5)]
    for comp in comps:
        assert comp.tau_links
        for z, tz in comp.tau_links.items():
            into_z = {e: m for (e, d), m in comp.arrows.items() if d == z}
            out_of_tz = {e: m for (s, e), m in comp.arrows.items() if s == tz}
            assert into_z and into_z == out_of_tz
            reps = [comp.nodes[k].rep for k in (z, tz, *into_z)]
            window, _ = joint_window(reps)
            ends = [a + b for a, b in zip(dim_vector(reps[0], window),
                                          dim_vector(reps[1], window))]
            middle = [0] * len(window)
            for e, m in into_z.items():
                for i, d in enumerate(dim_vector(comp.nodes[e].rep, window)):
                    middle[i] += m * d
            assert ends == middle


def test_knit_computes_each_mesh_once(kron, line, monkeypatch):
    ends = []

    def spy(x, tx=None):
        ends.append(x)
        return almost_split_sequence(x, tx)

    def computed(seed, depth):
        ends.clear()
        comp = knit(seed, depth)
        for i, x in enumerate(ends):
            for y in ends[i + 1:]:
                assert iso_test(x, y) is None
        return len(ends), len(comp.tau_links)

    monkeypatch.setattr(ar, "almost_split_sequence", spy)
    # the mesh from the simple projective P_2 has no node to be predicted
    # from and is computed; every other Kronecker mesh is predicted from the
    # arrows into its start
    assert computed(projective_at(kron, 2), 8) == (1, 7)
    # on ZA-infinity, a backward mesh at a node whose successors are not
    # yet known is computed: at the seed and down the chain of predecessors
    # that the walk reaches first
    assert computed(simple_at(line, 0), 4) == (4, 14)
    monkeypatch.setattr(ar, "_predict_mesh", computed_step)
    # one per tau link, one for a mesh at the frontier
    assert computed(projective_at(kron, 2), 8) == (8, 7)


def test_knit_tests_isomorphism_only_to_find_nodes(monkeypatch):
    callers = []
    iso = ar._iso_indec

    def spy(m, n):
        callers.append(sys._getframe(1).f_code.co_name)
        return iso(m, n)

    monkeypatch.setattr(ar, "_iso_indec", spy)
    knit(projective_at(linear_quiver(3), 3), 6)
    # a translate already made a node is read from the translate table, not
    # built and found again: tau_inv P_2, a summand of the mesh from
    # tau_inv P_3, is the far end of the mesh from P_2
    assert callers == ["find_node"] * 4


def test_kronecker_knit_at_depth_20_computes_one_mesh(kron, monkeypatch):
    # past the mesh from the simple projective P_2, the preprojective
    # component is read off the arrows alone, however deep
    calls = []
    for name in ("almost_split_sequence", "decompose"):
        monkeypatch.setattr(ar, name, lambda *args, name=name,
                            real=getattr(ar, name):
                            calls.append(name) or real(*args))
    comp = knit(projective_at(kron, 2), 20)
    assert (len(comp.nodes), len(comp.tau_links)) == (21, 19)
    assert calls == ["almost_split_sequence", "decompose"]


def test_knit_notes_say_how_each_step_was_obtained(a3, line, monkeypatch):
    notes = [n.notes for n in knit(projective_at(a3, 3), 6).nodes]
    assert notes == [
        ("backward step: read off the arrows at 3", "forward step: computed"),
        ("backward step: replayed", "forward step: predicted from nodes 2"),
        ("backward step: read off the arrows at 2",
         "forward step: predicted from nodes 0"),
        ("backward step: replayed", "forward step: read off the arrows at 1"),
        ("backward step: replayed", "forward step: read off the arrows at 2"),
        ("backward step: read off the arrows at 1",
         "forward step: read off the arrows at 3")]
    notes = [n.notes for n in knit(simple_at(line, 0), 4).nodes]
    assert notes[:2] == [
        ("backward step: computed", "forward step: predicted from nodes 2"),
        ("backward step: predicted from nodes 2", "forward step: replayed")]
    assert knit(injective_at(line, 0), 1).nodes[0].notes == (
        "no backward expansion: payload not fp",
        "forward step: read off the arrows at 0")
    # a frontier node says which bound stopped it
    comp = knit(projective_at(a3, 3), 1)
    assert [(n.status, n.notes) for n in comp.nodes[1:]] == [
        ("frontier", ("frontier: hop depth 1 reached",))]
    assert knit(simple_at(line, 0), 0).nodes[0].notes == (
        "frontier: hop depth 0 reached",)
    monkeypatch.setattr(ar, "MAX_NODES", 2)
    comp = knit(projective_at(a3, 3), 6)
    assert comp.notes == ["node budget exhausted; frontier left open"]
    assert {n.notes for n in comp.nodes if n.status == "frontier"} == {
        ("frontier: node budget of 2 exhausted",)}


def _shape(comp):
    return (len(comp.nodes), comp.arrows, comp.tau_links,
            [classify_membership(n.rep).verdict for n in comp.nodes],
            classify_component(comp).tag, component_dot(comp))


def _fd_seeds():
    """Indecomposable summands of seeded random fd objects."""
    rng = random.Random(23)
    for q, verts in ((linear_quiver(3), (1, 2, 3)),
                     (linear_quiver(5), (1, 2, 3, 4, 5)),
                     (kronecker_quiver(), (1, 2)),
                     (PRESETS["zigzag"](), (0, 1, 2, 3))):
        for _ in range(3):
            for summand, _ in decompose(random_fd_rep(q, rng, verts))[:2]:
                yield summand, 4


def test_predicted_meshes_are_the_computed_ones(monkeypatch):
    """A predicted mesh adds its arrows from both ends at once, so criterion
    10's valuation-symmetry check (the arrows into Z are the arrows out of
    tau Z) holds for it by construction.  That check stays informative
    because the prediction is compared here with the route it replaces,
    where each mesh is an almost split sequence and its middle term is
    decomposed: the same nodes in the same order (isomorphic node by node),
    the same valued arrows, tau links, verdicts, tag and DOT, on the 11
    criterion-10 knits and on knits of seeded random fd seeds."""
    cases = criterion_10_knits() + list(_fd_seeds())
    predicted = [knit(seed, depth) for seed, depth in cases]
    monkeypatch.setattr(ar, "_predict_mesh", computed_step)
    for (seed, depth), comp in zip(cases, predicted):
        computed = knit(seed, depth)
        assert _shape(comp) == _shape(computed), seed.describe()
        for a, b in zip(comp.nodes, computed.nodes):
            assert iso_test(a.rep, b.rep) is not None


def _knit_and_table(monkeypatch, seed, depth):
    """knit(seed, depth) and its translate table, the dict that knit hands
    to every _predict_mesh call ({} when no node is expanded)."""
    tables, predict = [{}], ar._predict_mesh

    def spy(comp, tr, key, forward):
        tables.append(tr)
        return predict(comp, tr, key, forward)

    with monkeypatch.context() as m:
        m.setattr(ar, "_predict_mesh", spy)
        return knit(seed, depth), tables[-1]


def test_translate_table_holds_translates_and_flags(monkeypatch):
    """On the 11 criterion-10 knits and the knits of seeded random fd
    seeds: each entry (Z, forward) -> X of knit's translate table has
    X = tau_inv Z, and (W, backward) -> X has X = tau W, up to isomorphism;
    and each expanded node is P_a (I_a) exactly when its (co)presentation
    says so, though knit reads none for a node whose tau (tau_inv) the
    table holds."""
    entries = 0
    for seed, depth in criterion_10_knits() + list(_fd_seeds()):
        comp, tr = _knit_and_table(monkeypatch, seed, depth)
        entries += len(tr)
        for (z, forward), x in tr.items():
            there = (tau_inv if forward else tau)(comp.nodes[z].rep)
            assert iso_test(there, comp.nodes[x].rep) is not None
        for n in comp.nodes:
            if n.status == "expanded":
                verdict = classify_membership(n.rep).verdict
                for kind, flag, has in (("proj", n.is_projective, "fp"),
                                        ("inj", n.is_injective, "fc")):
                    assert flag == (verdict in ("fd", has) and standard_vertex(
                        n.rep, kind) is not None), (seed.describe(), n.key)
    assert entries > 100


def test_knit_builds_each_translate_at_most_once(monkeypatch):
    """Within one knit, tau and tau_inv each run at most once on a node (on
    its object or one isomorphic to it), on the same knits as above."""
    calls = []
    for name in ("tau", "tau_inv"):
        monkeypatch.setattr(ar, name, lambda x, name=name, real=getattr(
            ar, name): calls.append((name, x)) or real(x))
    for seed, depth in criterion_10_knits() + list(_fd_seeds()):
        calls.clear()
        comp = knit(seed, depth)
        runs = Counter()
        for name, x in calls:
            key = next((n.key for n in comp.nodes if n.rep is x), None)
            if key is None:
                key = next((n.key for n in comp.nodes
                            if iso_test(n.rep, x) is not None), None)
            runs[name, key] += key is not None
        assert max(runs.values(), default=0) <= 1, (seed.describe(), runs)


# ---------------------------------------------------------------------------
# component taxonomy and the category-level kind


def test_component_tags(a3, ray_in, line, line_full):
    assert classify_component(knit(projective_at(a3, 3), 6)).tag == \
        "Preprojective-NQop"
    assert classify_component(knit(projective_at(ray_in, 0), 4)).tag == \
        "Preprojective-NQop"
    assert classify_component(knit(simple_at(line, 0), 4)).tag == \
        "ZAinfinity"
    assert classify_component(knit(injective_at(line, 0), 2)).tag == \
        "Preinjective-NminusQop"


def test_ar_category_kind(a3, kron, zig, ray_in, ray_out, line, ladder):
    assert ar_category_kind(a3) == "both"
    assert ar_category_kind(kron) == "both"
    assert ar_category_kind(zig) == "both"
    assert ar_category_kind(ray_in) == "left"
    assert ar_category_kind(ray_out) == "right"
    assert ar_category_kind(line) == "neither"
    assert ar_category_kind(ladder) == "neither"


# ---------------------------------------------------------------------------
# Coxeter cross-check


def test_coxeter_kronecker_frozen(kron):
    # the oracle that test_coxeter_tracks_tau_inv_chain and criterion 2 read
    arrows = [(a.src, a.dst, a.label) for a in kron.arrows]
    assert coxeter_images((1, 2), arrows, (0, 1), inverse=True) == (2, 3)
    assert coxeter_images((1, 2), arrows, (2, 3)) == (0, 1)
    assert coxeter_images((1, 2), arrows, (1, 2)) == (-1, 0)


def test_coxeter_tracks_tau_inv_chain(kron):
    m = projective_at(kron, 2)
    dims = dim_vector(m, (1, 2))
    for _ in range(4):
        m = tau_inv(m)
        dims = coxeter_images((1, 2),
                              [(a.src, a.dst, a.label) for a in kron.arrows],
                              dims, inverse=True)
        assert dim_vector(m, (1, 2)) == dims


# ---------------------------------------------------------------------------
# refusals that no CLI input reaches: each is a ValueError (exit 1) naming
# its cause


def _api_refusals():
    """(call, message) per refusal, on A3, line, zigzag and Kronecker."""
    a3, line, zig = linear_quiver(3), PRESETS["line"](), PRESETS["zigzag"]()
    kron = kronecker_quiver()
    m0 = thin_rep(zig, VertexSet.make(zig, (), [("inf", "even", 0),
                                                ("inf", "odd", 0)]))
    p1, p2 = projective_at(a3, 1), projective_at(a3, 2)
    i1, i2 = injective_at(a3, 1), injective_at(a3, 2)
    return {
        "copresentation": (lambda: min_inj_copresentation(
            projective_at(line, 0)), "minimal injective copresentation "
            "needs an fc object, got fp"),
        "doubly_infinite": (lambda: is_doubly_infinite(m0),
                            "not an rrep object"),
        "coefficients": (lambda: ext_class_to_ses(ext_space(
            simple_at(kron, 1), simple_at(kron, 2)), [1]),
            "coefficient count does not match Ext dimension"),
        "end_not_local": (lambda: almost_split_sequence(
            direct_sum(simple_at(a3, 2), simple_at(a3, 2))),
            "almost split sequence needs an indecomposable end"),
        "right_not_projective": (lambda: minimal_right_almost_split_into(
            simple_at(a3, 2)), "input is not projective"),
        "right_a_sum": (lambda: minimal_right_almost_split_into(
            direct_sum(p1, p2)), "input is not an indecomposable projective"),
        "left_not_injective": (lambda: minimal_left_almost_split_from(
            simple_at(a3, 2)), "input is not injective"),
        "left_a_sum": (lambda: minimal_left_almost_split_from(
            direct_sum(i1, i2)), "input is not an indecomposable injective"),
    }


@pytest.mark.parametrize("case", ["copresentation", "doubly_infinite",
                                  "coefficients", "end_not_local",
                                  "right_not_projective", "right_a_sum",
                                  "left_not_injective", "left_a_sum"])
def test_api_refusal_names_its_cause(case):
    call, message = _api_refusals()[case]
    with pytest.raises(ValueError) as e:
        call()
    assert str(e.value) == message
