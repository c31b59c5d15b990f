"""Representation construction, membership verdicts, and region splits."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arknit import (
    PRESETS,
    QQ,
    GF,
    Mat,
    ParseError,
    VertexSet,
    RungFamily,
    projective_at,
    injective_at,
    simple_at,
    thin_rep,
    explicit_fd,
    direct_sum,
    dualize,
    restrict,
    glue_rep,
    zero_rep,
    dim_vector,
    equal_on,
    classify_membership,
    end_profile,
    is_doubly_infinite,
    vkey,
)
from arknit.morphism import Morphism, standard_ext
from arknit.quiver import FiniteQuiver
from arknit.rep import (CokerOfRep, KernelOfRep, Rep, incoming_stack,
                        path_matrix, proj_sum_basis, reverse_path)

from oracles import (an_dims, inj_basis_over_q, inj_component_by_stripping,
                     injective_by_stripping, projective_by_tuple_index)
from conftest import random_fd_rep
from test_quiver import PRESET_GRIDS, acyclic_quivers


# ---------------------------------------------------------------------------
# projectives, injectives, simples: dimension = path count


def test_a3_proj_inj_dims(a3):
    assert dim_vector(projective_at(a3, 1), (1, 2, 3)) == (1, 1, 1)
    assert dim_vector(projective_at(a3, 2), (1, 2, 3)) == (0, 1, 1)
    assert dim_vector(projective_at(a3, 3), (1, 2, 3)) == (0, 0, 1)
    assert dim_vector(injective_at(a3, 1), (1, 2, 3)) == (1, 0, 0)
    assert dim_vector(injective_at(a3, 2), (1, 2, 3)) == (1, 1, 0)
    assert dim_vector(injective_at(a3, 3), (1, 2, 3)) == (1, 1, 1)
    assert dim_vector(simple_at(a3, 2), (1, 2, 3)) == (0, 1, 0)


def check_projectives_against_tuple_index(q, grid):
    """ProjRep on every arrow inside grid equals the reference that looks
    each path then the arrow up by its whole arrow tuple."""
    for x in grid:
        proj = projective_at(q, x)
        for u in grid:
            for arrow in q.out_arrows(u):
                if arrow.dst in grid:
                    assert proj.mat(arrow) == \
                        projective_by_tuple_index(q, QQ, x, arrow)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(acyclic_quivers())
def test_projectives_equal_the_tuple_index_on_finite_quivers(spec):
    n, arrows = spec
    check_projectives_against_tuple_index(
        FiniteQuiver.build(range(n), arrows), range(n))


@pytest.mark.parametrize("name", sorted(PRESET_GRIDS))
def test_projectives_equal_the_tuple_index_on_the_presets(name):
    q = PRESETS[name]()
    for quiver in (q, q.opposite()):
        check_projectives_against_tuple_index(quiver, PRESET_GRIDS[name])


@pytest.mark.parametrize("make", [projective_at, injective_at, simple_at])
@pytest.mark.parametrize("vertex", [7, -1, [1], {}])
def test_a_vertex_object_outside_the_quiver_is_refused(a3, make, vertex):
    with pytest.raises(ValueError, match=r"^vertex .* outside the quiver$"):
        make(a3, vertex)


# I_a and maps between sums of injectives are read off the projective side
# of the opposite quiver; the references build them over q, with the paths
# v ~> a in q's order, so the two agree up to that permutation of bases


def _permutation(q, verts, v):
    """old[k]: the index in the basis over q of the k-th basis element of
    (⊕ I_verts)(v) as read off the opposite quiver."""
    old = {(i, p): r for r, (i, p) in enumerate(inj_basis_over_q(q, verts, v))}
    return [old[i, reverse_path(p)]
            for (i, p) in proj_sum_basis(q.opposite(), verts, v)]


def _permuted(m, rows, cols):
    """m with its rows and columns reordered: entry (k, l) is
    m[rows[k]][cols[l]]."""
    return tuple(tuple(m.entries[r][c] for c in cols) for r in rows)


def check_injectives_against_stripping(q, grid, rng):
    """InjRep on every arrow, and the inj-side component of random path
    matrices at every vertex of grid, equal the references under the
    permutation; True if some basis is permuted nontrivially."""
    moved = False
    for a in grid:
        inj = injective_at(q, a)
        for u in grid:
            perm = _permutation(q, [a], u)
            moved |= perm != sorted(perm)
            assert inj.dim(u) == len(perm)
            for arrow in q.out_arrows(u):
                if arrow.dst in grid:
                    want = injective_by_stripping(q, QQ, a, arrow)
                    assert inj.mat(arrow).entries == _permuted(
                        want, _permutation(q, [a], arrow.dst), perm)
    for _ in range(4):
        dom = [rng.choice(grid) for _ in range(rng.randrange(1, 3))]
        cod = [rng.choice(grid) for _ in range(rng.randrange(1, 3))]
        entries = [[[(rng.choice((1, 2, -1)), p)
                     for p in q.paths_between(y, x) if rng.random() < 0.6]
                    for x in dom] for y in cod]
        pm = path_matrix(q, QQ, "inj", dom, cod, entries)
        for v in grid:
            want = inj_component_by_stripping(pm, v)
            assert pm.component(v).entries == _permuted(
                want, _permutation(q, cod, v), _permutation(q, dom, v))
    return moved


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(acyclic_quivers(), st.integers(0, 2**16))
def test_injectives_equal_first_arrow_stripping_on_finite_quivers(spec,
                                                                 seed):
    n, arrows = spec
    q = FiniteQuiver.build(range(n), arrows)
    check_injectives_against_stripping(q, range(n), random.Random(seed))


def test_injectives_equal_first_arrow_stripping_on_the_ladder(ladder):
    grid = PRESET_GRIDS["ladder"]
    assert check_injectives_against_stripping(ladder, grid, random.Random(13))


def test_a5_proj_inj_match_interval_model(a5):
    verts = (1, 2, 3, 4, 5)
    for a in verts:
        assert dim_vector(projective_at(a5, a), verts) == an_dims((a, 5), 5)
        assert dim_vector(injective_at(a5, a), verts) == an_dims((1, a), 5)
        assert dim_vector(simple_at(a5, a), verts) == an_dims((a, a), 5)


def test_kronecker_proj_inj_dims(kron):
    assert dim_vector(projective_at(kron, 1), (1, 2)) == (1, 2)
    assert dim_vector(projective_at(kron, 2), (1, 2)) == (0, 1)
    assert dim_vector(injective_at(kron, 1), (1, 2)) == (1, 0)
    assert dim_vector(injective_at(kron, 2), (1, 2)) == (2, 1)


def test_ladder_proj_dims_count_paths(ladder):
    # |paths(a_m -> b_k)| = min(m, k) + 1
    p = projective_at(ladder, ("a", 2))
    assert [p.dim(("a", t)) for t in range(5)] == [1, 1, 1, 0, 0]
    assert [p.dim(("b", k)) for k in range(5)] == [1, 2, 3, 3, 3]


def test_line_proj_inj_are_thin(line):
    p = projective_at(line, 0)
    i = injective_at(line, 0)
    for v in range(-4, 5):
        assert p.dim(v) == (1 if v <= 0 else 0)
        assert i.dim(v) == (1 if v >= 0 else 0)


def test_proj_action_appends_arrows(a3):
    p = projective_at(a3, 1)
    (a12,) = [a for a in a3.out_arrows(1) if a.dst == 2]
    (a23,) = [a for a in a3.out_arrows(2) if a.dst == 3]
    m12, m23 = p.mat(a12), p.mat(a23)
    assert (m12.rows, m12.cols) == (1, 1) and m12.entries[0][0] == 1
    prod = m23.mul(m12)
    assert prod.entries[0][0] == 1  # the unique path 1 ~> 3


def test_zero_rep_and_direct_sum(a3):
    z = zero_rep(a3)
    assert dim_vector(z, (1, 2, 3)) == (0, 0, 0)
    s = direct_sum(projective_at(a3, 1), simple_at(a3, 2))
    assert dim_vector(s, (1, 2, 3)) == (1, 2, 1)
    assert sorted(s.support().explicit, key=vkey) == [1, 2, 3]


# ---------------------------------------------------------------------------
# explicit finite-dimensional data


def test_explicit_fd_roundtrip(a3):
    (a12,) = [a for a in a3.out_arrows(1) if a.dst == 2]
    mats = {a12.label: Mat.from_rows(QQ, [[1], [0]])}
    m = explicit_fd(a3, {1: 1, 2: 2, 3: 0}, mats)
    assert dim_vector(m, (1, 2, 3)) == (1, 2, 0)
    assert m.mat(a12).entries == ((Fraction(1),), (Fraction(0),))


def test_explicit_fd_rejects_bad_shape(a3):
    (a12,) = [a for a in a3.out_arrows(1) if a.dst == 2]
    with pytest.raises(ParseError) as e:
        explicit_fd(a3, {1: 2, 2: 1, 3: 0},
                    {a12.label: Mat.from_rows(QQ, [[1]])})
    assert str(e.value) == "/mats/1>2: matrix is 1x1, arrow '1>2' needs 1x2"


def test_explicit_fd_rejects_bad_shape_on_a_zero_domain(a3):
    # Rep.mat reads the map on a zero domain off the dimensions, so a given
    # matrix is checked when the object is built: here 1 x 1 for a 1 x 0 map
    (a12,) = [a for a in a3.out_arrows(1) if a.dst == 2]
    with pytest.raises(ParseError) as e:
        explicit_fd(a3, {2: 1}, {a12.label: Mat.from_rows(QQ, [[1]])})
    assert str(e.value) == "/mats/1>2: matrix is 1x1, arrow '1>2' needs 1x0"


def test_a_bad_explicit_summand_is_refused_before_the_sum_reads_it(a3):
    # the sum is 0 at 1, so it would read neither part's map 1 -> 2
    with pytest.raises(ParseError, match="arrow '1>2' needs 1x0"):
        direct_sum(explicit_fd(a3, {2: 1}, {"1>2": Mat.from_rows(QQ, [[1]])}),
                   simple_at(a3, 3))


@pytest.mark.parametrize("build, message", [
    # a label of no arrow at a vertex of dims: its spec would not parse back
    (lambda a3, ladder: explicit_fd(a3, {1: 1}, {
        "2>3": Mat.from_rows(QQ, [[1, 2]])}),
     "/mats/2>3: no arrow '2>3' at a vertex of dims"),
    (lambda a3, ladder: VertexSet.make(a3, (), [("nope", "a", 0)]),
     "/tails/0: no ray 'a' on end 'nope'"),
    (lambda a3, ladder: VertexSet.make(
        ladder, (), [("inf", "a", 0), ("inf", "zz", 0)]),
     "/tails/1: no ray 'zz' on end 'inf'"),
    (lambda a3, ladder: VertexSet.make(ladder, (), [("inf", "a", -1)]),
     "/tails/0/2: tail start must be an integer >= 0, got -1"),
    (lambda a3, ladder: glue_rep(
        thin_rep(ladder, VertexSet.make(ladder, (), [("inf", "b", 0)])),
        thin_rep(ladder, VertexSet.make(ladder, (), [("inf", "a", 0)])),
        (), [RungFamily("inf", "nope", 0, 1)]),
     "/families/0: no crossing 'nope' on end 'inf'"),
    (lambda a3, ladder: explicit_fd(a3, {2: -1}),
     "/dims/2: dim must be an integer >= 0, got -1"),
], ids=["explicit_label", "unknown_end", "unknown_ray", "negative_start",
        "family_on_no_crossing", "negative_dim"])
def test_a_constructor_refuses_its_data_with_a_pointer(a3, ladder, build,
                                                       message):
    with pytest.raises(ParseError) as e:
        build(a3, ladder)
    assert str(e.value) == message


def test_explicit_fd_reads_a_matrix_with_no_rows_into_0_as_zero(a3):
    m = explicit_fd(a3, {1: 2}, {"1>2": Mat(QQ, 0, 0, ())})
    assert (m.mat(a3.out_arrows(1)[0]).rows,
            m.mat(a3.out_arrows(1)[0]).cols) == (0, 2)


@pytest.mark.parametrize("given", [Mat.from_rows(GF(7), [[1], [0]]),
                                   [[1], [0]]], ids=["GF(7)", "list"])
def test_explicit_fd_refuses_a_matrix_that_is_no_mat_over_its_field(a3, given):
    with pytest.raises(ValueError, match="arrow 1>2 is not a Mat over QQ"):
        explicit_fd(a3, {1: 1, 2: 2}, {"1>2": given}, QQ)


def test_glue_family_rejects_a_slot_on_a_zero_domain(ladder):
    # the rung at depth 1 leaves a_1, where the glue is 0; its family's
    # slots are checked when the glue is built
    sub = thin_rep(ladder, VertexSet.make(ladder, (), [("inf", "b", 0)]))
    quot = thin_rep(ladder, VertexSet.make(ladder, (), [("inf", "a", 3)]))
    (end,) = ladder.ends()
    assert quot.dim(end.crossing_arrow("rung", 1).src) == 0
    with pytest.raises(ValueError, match="families need thin slots"):
        glue_rep(sub, quot, families=[RungFamily("inf", "rung", 0, QQ.one)])


def test_a_glue_with_a_bad_family_is_refused_inside_a_sum(ladder):
    # the slots fail only from depth 4 on, past both parts' explicit data;
    # the sum is refused before anything reads the glue
    sub = thin_rep(ladder, VertexSet.make(ladder, [("b", t) for t in range(4)]))
    quot = thin_rep(ladder, VertexSet.make(ladder, (), [("inf", "a", 0)]))
    with pytest.raises(ValueError, match="families need thin slots"):
        direct_sum(glue_rep(sub, quot,
                            families=[RungFamily("inf", "rung", 0, QQ.one)]),
                   quot)


def test_a_zero_codomain_still_checks_commutation(a3, monkeypatch):
    # only a zero domain fixes a map: the kernel of a rule that does not
    # commute is k at 1 and 0 at 2, and its map 1 -> 2 is still solved by
    # coords, whose check catches the rule
    thin = thin_rep(a3, VertexSet.make(a3, (1, 2), ()))
    f = Morphism(thin, thin, lambda v: Mat.from_rows(
        QQ, [[int(v == 2)]] * thin.dim(v)))
    k, seen, coords = KernelOfRep(f), [], KernelOfRep.coords
    monkeypatch.setattr(KernelOfRep, "coords", lambda self, v, vecs, why:
                        seen.append(v) or coords(self, v, vecs, why))
    (a12,) = [a for a in a3.out_arrows(1) if a.dst == 2]
    assert (k.dim(1), k.dim(2)) == (1, 0)
    with pytest.raises(AssertionError, match="does not commute with arrows"):
        k.mat(a12)
    # a cokernel, D of the kernel of the dual map, is 0 at 1 and k at 2; its
    # map 1 -> 2 reads the kernel's map 2 -> 1, whose codomain is 0
    g = Morphism(thin, thin, lambda v: Mat.from_rows(
        QQ, [[int(v == 1)]] * thin.dim(v)))
    c = CokerOfRep(g)
    assert (c.dim(1), c.dim(2)) == (0, 1)
    with pytest.raises(AssertionError, match="does not commute with arrows"):
        c.mat(a12)
    assert seen == [2, 1]


def test_gf_coefficients(a3):
    f5 = GF(5)
    (a12,) = [a for a in a3.out_arrows(1) if a.dst == 2]
    m = explicit_fd(a3, {1: 1, 2: 1, 3: 0},
                    {a12.label: Mat.from_rows(f5, [[7]])}, field=f5)
    assert m.mat(a12).entries == ((2,),)


# ---------------------------------------------------------------------------
# duality and restriction


def test_double_dual_is_identity_on_window(a3, rng_reps):
    for m in rng_reps(a3, (1, 2, 3), count=5):
        dd = dualize(dualize(m))
        assert dd.quiver == a3
        assert equal_on(m, dd, (1, 2, 3))


def test_dual_swaps_proj_inj(a3):
    d = dualize(projective_at(a3, 2))
    assert d.quiver == a3.opposite()
    assert dim_vector(d, (1, 2, 3)) == (0, 1, 1)
    assert equal_on(d, injective_at(a3.opposite(), 2), (1, 2, 3))


def test_restrict_to_successor_closed_region(a3):
    r = restrict(projective_at(a3, 1), VertexSet.make(a3, (2, 3), ()))
    assert dim_vector(r, (1, 2, 3)) == (0, 1, 1)
    assert equal_on(r, projective_at(a3, 2), (2, 3))


# ---------------------------------------------------------------------------
# membership verdicts


def test_verdict_fd(line):
    assert classify_membership(simple_at(line, 0)).verdict == "fd"


def test_verdict_fp(line, ray_out):
    assert classify_membership(projective_at(line, 0)).verdict == "fp"
    assert classify_membership(projective_at(ray_out, 0)).verdict == "fp"


def test_verdict_fc(line, ray_in):
    assert classify_membership(injective_at(line, 1)).verdict == "fc"
    assert classify_membership(injective_at(ray_in, 0)).verdict == "fc"


def test_verdict_rrep_for_all_ones_line(line, line_full):
    m = thin_rep(line, line_full)
    cert = classify_membership(m)
    assert cert.verdict == "rrep"
    assert cert.is_in_rrep()
    assert is_doubly_infinite(m)
    assert not is_doubly_infinite(projective_at(line, 0))


def test_zigzag_tails_fail_membership(zig):
    # thin module on {j >= i}: support meets infinitely many sources
    for i in range(5):
        region = VertexSet.make(
            zig, (), [("inf", "even", (i + 1) // 2), ("inf", "odd", i // 2)])
        cert = classify_membership(thin_rep(zig, region))
        assert cert.verdict == "notInRrep"
        assert any("sources" in w for w in cert.witnesses)


def test_ladder_all_rungs_fail_membership(ladder):
    sub = thin_rep(ladder, VertexSet.make(ladder, (), [("inf", "b", 0)]))
    quot = thin_rep(ladder, VertexSet.make(ladder, (), [("inf", "a", 0)]))
    mid = glue_rep(sub, quot, (), [RungFamily("inf", "rung", 0, QQ.one)])
    cert = classify_membership(mid)
    assert cert.verdict == "notInRrep"
    assert any("rung" in w for w in cert.witnesses)


class _SingularRayOut(Rep):
    """dim 2 on all of ray_out, every arrow [[1, 0], [0, 0]]: periodic from
    depth 0, with a stable transition that is not invertible."""

    def _dim_at(self, v):
        return 2

    def _mat_at(self, a):
        return Mat.from_rows(self.field, [[1, 0], [0, 0]])

    def support(self):
        return VertexSet.make(self.quiver, (), [("inf", "v", 0)])


def test_singular_stable_transition_fails_membership(ray_out):
    cert = classify_membership(_SingularRayOut(ray_out, QQ))
    assert cert.verdict == "notInRrep"
    assert cert.witnesses == (
        "stable transition along ray inf/v is not invertible; the tail "
        "splits into infinitely many summands",)


def test_ladder_single_rung_is_fine(ladder, single_rung_mid):
    assert classify_membership(single_rung_mid).verdict == "rrep"


# ---------------------------------------------------------------------------
# end profiles stabilize


def test_end_profile_thin_tail(line):
    ends = {e.eid: e for e in line.ends()}
    prof = end_profile(injective_at(line, 1), ends["pos"])
    (ray,) = prof.rays
    assert (ray.kind, ray.dim, ray.status) == ("I", 1, "iso")
    prof_neg = end_profile(injective_at(line, 1), ends["neg"])
    (ray_neg,) = prof_neg.rays
    # outside the hint: profiled unread, with no transition
    assert (ray_neg.dim, ray_neg.status, ray_neg.transition) == (0, "zero",
                                                                 None)


def test_end_profile_checks_two_depths(ray_out):
    # the profile holds where the band data at the cutoff and one band
    # deeper agree: each ray has its dimension at both depths
    (end,) = ray_out.ends()
    m = projective_at(ray_out, 0)
    prof = end_profile(m, end)
    assert prof.rays
    for r in prof.rays:
        assert m.dim(end.vertex(r.rid, prof.cutoff)) == r.dim == \
            m.dim(end.vertex(r.rid, prof.cutoff + 1))


def test_incoming_stack_is_the_hstack_of_the_incoming_maps(kron, zig, ladder):
    # vertices with two incoming arrows, with one, with none, and of dim 0
    rng = random.Random(3)
    cases = [(random_fd_rep(kron, rng, (1, 2), field=F), (1, 2))
             for F in (QQ, GF(7)) for _ in range(4)]
    cases += [(random_fd_rep(zig, rng, (0, 1, 2, 3)), (0, 1, 2, 3))
              for _ in range(4)]
    lad = (("a", 0), ("a", 1), ("b", 0), ("b", 1))
    cases += [(make(ladder, v), lad) for make in (projective_at, injective_at)
              for v in lad]
    for m, verts in cases:
        for v in verts:
            mat = Mat.zeros(m.field, m.dim(v), 0)
            for a in sorted(m.quiver.in_arrows(v)):
                mat = mat.hstack(m.mat(a))
            assert incoming_stack(m, v) == mat


class _WideningA(Rep):
    """dim t at ("a", t) and b_dim on ray b of the ladder, zero maps: the
    band data on ray a changes at every depth, that on ray b (b_dim x t
    rungs) only when b_dim is not 0.  Its support hint holds ray b exactly
    when b_dim does, as the hint contract asks."""

    b_dim = 0

    def _dim_at(self, v):
        return v[1] if v[0] == "a" else self.b_dim

    def _mat_at(self, a):
        return self._zero_mat(a)

    def support(self):
        rays = ("a", "b") if self.b_dim else ("a",)
        return VertexSet.make(self.quiver, (), [("inf", r, 0) for r in rays])


def test_end_profile_names_the_rays_that_break_periodicity(ladder):
    (end,) = ladder.ends()
    # structural depth 0, so the band data are compared at depths 3 and 4
    with pytest.raises(AssertionError, match=(
            r"^end inf: band data at depths 3 and 4 differ past structural "
            r"depth 0; rays changing: a$")):
        end_profile(_WideningA(ladder, QQ), end)
    # with dim 1 on ray b its rungs widen with ray a, so both rays move
    both = type("_WideningAB", (_WideningA,), {"b_dim": 1})(ladder, QQ)
    with pytest.raises(AssertionError, match="rays changing: a, b$"):
        end_profile(both, end)


# ---------------------------------------------------------------------------
# region splits


def test_standard_ext_region_on_all_ones(line, line_full):
    m = thin_rep(line, line_full)
    omega, ses = standard_ext(m)
    sub, quot = ses.sub, ses.quot
    assert omega.tails == (("neg", "v", 0),) and not omega.explicit
    assert classify_membership(sub).verdict == "fp"
    assert classify_membership(quot).verdict == "fc"
    for v in range(-3, 4):
        assert sub.dim(v) == (1 if v <= 0 else 0)
        assert quot.dim(v) == (1 if v >= 1 else 0)
        assert sub.dim(v) + quot.dim(v) == m.dim(v)


def test_standard_ext_region_rejects_outsiders(zig):
    region = VertexSet.make(zig, (), [("inf", "even", 1), ("inf", "odd", 0)])
    with pytest.raises(ValueError, match="^standard_ext needs an rrep "
                                         "object, got notInRrep$"):
        standard_ext(thin_rep(zig, region))
