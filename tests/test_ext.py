"""Extension spaces, Baer sums, and the finite-extension criterion."""

import gc
import itertools
import random
import re
import weakref
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import arknit as ak
import arknit.ext as ext_mod
import arknit.hom as hom_mod
import arknit.linalg as linalg
from arknit import (
    QQ,
    RungFamily,
    VertexSet,
    baer_sum,
    dim_vector,
    equiv_ext,
    ext_class_to_ses,
    ext_space,
    glue_ses,
    injective_at,
    is_finite_extension,
    is_split,
    projective_at,
    ses_class_coords,
    simple_at,
    standard_ext,
    thin_rep,
    verify_exact,
)
from arknit.ar import standard_vertex
from arknit.morphism import Morphism
from arknit.quiver import linear_quiver

from arknit.rep import classify_membership, joint_window
from conftest import random_fd_rep
from oracles import (
    dense_arrow_complex,
    dense_window_counts,
    ext_dim_brute,
    ext_dim_via_presentation,
    hom_routes,
    natural_maps_on,
    route_basis,
    split_ses,
)
from test_periodicity import QUIVERS, objects
from test_presentations import criterion_10_knits


def _ambient_cases():
    """(call, message): each call pairs objects over A2 with objects over A3
    or over GF(7), which every two-object constructor refuses."""
    a2, a3, gf7 = linear_quiver(2), linear_quiver(3), ak.GF(7)
    return [
        (lambda: ext_space(simple_at(a2, 1), simple_at(a2, 2, gf7)).dimension,
         "ext_space objects"),
        (lambda: ext_space(simple_at(a2, 1), simple_at(a3, 2)).dimension,
         "ext_space objects"),
        (lambda: ak.hom_space(projective_at(a2, 1),
                              projective_at(a3, 1)).dimension,
         "hom_space objects"),
        (lambda: ak.hom_space(simple_at(a2, 1), simple_at(a2, 1, gf7)),
         "hom_space objects"),
        (lambda: Morphism(simple_at(a2, 1), simple_at(a3, 1), rule=None),
         "morphism endpoints"),
        (lambda: ak.direct_sum(simple_at(a2, 1), simple_at(a2, 2, gf7)),
         "summands"),
        (lambda: glue_ses(simple_at(a3, 1), simple_at(a2, 2)), "glue parts"),
    ]


@pytest.mark.parametrize("index", range(7))
def test_objects_over_different_ambients_are_refused(index):
    # Hom and Ext are counted without a Morphism, so they check for
    # themselves, with the message every other two-object constructor gives
    call, what = _ambient_cases()[index]
    with pytest.raises(ValueError) as e:
        call()
    assert str(e.value) == f"{what} live over different quivers/fields"


# ---------------------------------------------------------------------------
# dimensions against the brute cocycle complex


def test_ext_between_simples_counts_arrows(a3, kron):
    assert ext_space(simple_at(a3, 1), simple_at(a3, 2)).dimension == 1
    assert ext_space(simple_at(a3, 2), simple_at(a3, 1)).dimension == 0
    assert ext_space(simple_at(a3, 2), simple_at(a3, 3)).dimension == 1
    assert ext_space(simple_at(a3, 1), simple_at(a3, 3)).dimension == 0
    assert ext_space(simple_at(kron, 1), simple_at(kron, 2)).dimension == 2


def test_ext_vanishes_on_projective_quot(a3, kron):
    for q, verts in ((a3, (1, 2, 3)), (kron, (1, 2))):
        for a in verts:
            for b in verts:
                e = ext_space(projective_at(q, a), simple_at(q, b))
                assert e.dimension == 0


def test_ext_dims_match_oracle(a3, kron):
    rng = random.Random(29)
    for q, verts in ((a3, (1, 2, 3)), (kron, (1, 2))):
        for _ in range(8):
            x = random_fd_rep(q, rng, verts)
            y = random_fd_rep(q, rng, verts)
            assert ext_space(x, y).dimension == ext_dim_brute(q, x, y, verts)


def test_ext_presentation_route_agrees(a3, kron):
    rng = random.Random(31)
    for q, verts in ((a3, (1, 2, 3)), (kron, (1, 2))):
        for _ in range(5):
            x = random_fd_rep(q, rng, verts)
            y = random_fd_rep(q, rng, verts)
            assert ext_space(x, y).dimension == ext_dim_via_presentation(x, y)


# ---------------------------------------------------------------------------
# classes, sequences, Baer sums


def test_class_to_ses_roundtrip(kron):
    ecb = ext_space(simple_at(kron, 1), simple_at(kron, 2))
    assert ecb.dimension == 2
    for coeffs in ((1, 0), (0, 1), (1, 1), (2, -3)):
        ses = ext_class_to_ses(ecb, coeffs)
        assert verify_exact(ses, (1, 2))["exact"]
        assert ses_class_coords(ses, ecb) == tuple(QQ.of(c) for c in coeffs)
        assert is_split(ses) == all(c == 0 for c in coeffs)


def test_split_ses_is_split(a3):
    ses = split_ses(simple_at(a3, 2), simple_at(a3, 1))
    assert is_split(ses)
    nonsplit = ext_class_to_ses(
        ext_space(simple_at(a3, 1), simple_at(a3, 2)), (1,))
    assert not is_split(nonsplit)
    assert dim_vector(nonsplit.middle, (1, 2, 3)) == (1, 1, 0)


def test_baer_sum_adds_coords(kron):
    ecb = ext_space(simple_at(kron, 1), simple_at(kron, 2))
    s1 = ext_class_to_ses(ecb, (1, 0))
    s2 = ext_class_to_ses(ecb, (0, 1))
    s = baer_sum(s1, s2)
    assert ses_class_coords(s, ecb) == (QQ.one, QQ.one)
    back = baer_sum(s, ext_class_to_ses(ecb, (-1, -1)))
    assert is_split(back)


def test_equiv_ext(a3):
    ecb = ext_space(simple_at(a3, 1), simple_at(a3, 2))
    s1 = ext_class_to_ses(ecb, (1,))
    s2 = ext_class_to_ses(ecb, (2,))
    assert equiv_ext(s1, s1)
    assert not equiv_ext(s1, s2)  # equivalence fixes both end identities


def _kronecker_lines(kron):
    """x1 (alpha = 1, beta = 0) and x2 (beta = 1, alpha = 0): equal dimension
    vectors and the same description, but not isomorphic."""
    one = ak.Mat.from_rows(QQ, [[1]])
    return [ak.explicit_fd(kron, {1: 1, 2: 1}, {lbl: one})
            for lbl in ("alpha", "beta")]


def test_baer_sum_rejects_sequences_whose_ends_differ(kron):
    x1, x2 = _kronecker_lines(kron)
    assert x1.describe() == x2.describe() and ak.iso_test(x1, x2) is None
    s2 = simple_at(kron, 2)
    s1, t1 = (ext_class_to_ses(ext_space(x, s2), (1,)) for x in (x1, x2))
    with pytest.raises(ValueError, match="the quotient ends differ"):
        baer_sum(s1, t1)
    # an equal, separately built end is the same end
    again, _ = _kronecker_lines(kron)
    same = ext_class_to_ses(ext_space(again, s2), (1,))
    assert ses_class_coords(baer_sum(s1, same),
                            ext_space(x1, s2)) == (QQ.of(2),)


def test_equiv_ext_rejects_sequences_whose_ends_differ(kron):
    x1, x2 = _kronecker_lines(kron)
    s2 = simple_at(kron, 2)
    with pytest.raises(ValueError, match="the quotient ends differ"):
        equiv_ext(split_ses(s2, x1), split_ses(s2, x2))
    with pytest.raises(ValueError, match="the sub ends differ"):
        equiv_ext(split_ses(x1, s2), split_ses(x2, s2))
    assert equiv_ext(split_ses(s2, x1), split_ses(simple_at(kron, 2), x1))


# ---------------------------------------------------------------------------
# finite-extension recognition


def test_standard_ext_is_finite(line, line_full):
    m = thin_rep(line, line_full)
    _, ses = standard_ext(m)
    finite, witness, report = is_finite_extension(ses)
    assert finite
    # the witness is the finite interaction set: the single arrow 1 -> 0
    assert [(a.src, a.dst) for a in witness] == [(1, 0)]
    assert report.vanishing_outside and report.gluing_support


def test_single_rung_glue_is_finite(ladder, single_rung_mid):
    sub, quot = single_rung_mid.sub, single_rung_mid.quot
    (end,) = [e for e in ladder.ends() if e.eid == "inf"]
    one = single_rung_mid.cocycle_at(end.crossing_arrow("rung", 0))
    _, ses = glue_ses(sub, quot, ((end.crossing_arrow("rung", 0), one),))
    finite, witness, report = is_finite_extension(ses)
    assert finite
    assert all(hasattr(a, "src") for a in witness)


def test_all_rungs_glue_is_not_finite(ladder):
    sub = thin_rep(ladder, VertexSet.make(ladder, (), [("inf", "b", 0)]))
    quot = thin_rep(ladder, VertexSet.make(ladder, (), [("inf", "a", 0)]))
    _, ses = glue_ses(sub, quot, (),
                      [RungFamily("inf", "rung", 0, QQ.one)])
    finite, witness, report = is_finite_extension(ses)
    assert not finite
    assert any("depth" in w or "depths" in w for w in witness)


def test_baer_sum_adds_rung_families(ladder):
    sub = thin_rep(ladder, VertexSet.make(ladder, (), [("inf", "b", 0)]))
    quot = thin_rep(ladder, VertexSet.make(ladder, (), [("inf", "a", 0)]))

    def glued(start, c):
        fam = RungFamily("inf", "rung", start, QQ.of(c))
        return glue_ses(sub, quot, (), [fam])[1]

    one = glued(0, 1)
    assert baer_sum(one, one).middle.families == (
        RungFamily("inf", "rung", 0, QQ.of(2)),)
    # opposite coefficients cancel to a family-free, finite extension
    cancelled = baer_sum(one, glued(0, -1))
    assert cancelled.middle.families == ()
    assert is_finite_extension(cancelled)[0]
    assert not is_finite_extension(one)[0]
    with pytest.raises(ValueError, match="family starts disagree"):
        baer_sum(one, glued(1, 1))


def test_infinite_interaction_window_is_flagged(ladder):
    quot = thin_rep(ladder, VertexSet.make(ladder, (), [("inf", "a", 0)]))
    sub = thin_rep(ladder, VertexSet.make(ladder, (), [("inf", "b", 0)]))
    ecb = ext_space(quot, sub)
    assert ecb.window_relative
    assert ecb.families
    ses = ext_class_to_ses(ecb, tuple(1 for _ in range(ecb.dimension)))
    # each refusal names the first family that repeats past the window
    first = re.escape(f"first family {ecb.families[0]}")
    with pytest.raises(ValueError, match="splitness undecidable.*" + first):
        is_split(ses)
    with pytest.raises(ValueError, match="equivalence undecidable.*" + first):
        equiv_ext(ses, ses)


def test_is_split_decides_a_projective_quotient_on_line(line):
    # Ext(P(1), P(0)) = 0 and no ray arrow is a family: each sequence with
    # these ends splits, glued at the top or down the ray, and any two are
    # equivalent
    quot, sub = projective_at(line, 1), projective_at(line, 0)
    ecb = ext_space(quot, sub)
    assert (ecb.dimension, ecb.families) == (0, ())
    sequences = [glue_ses(sub, quot, [(a, ak.Mat.from_rows(QQ, [[1]]))])[1]
                 for a in line.out_arrows(1) + line.out_arrows(-3)]
    assert all(map(is_split, sequences))
    assert equiv_ext(*sequences)


def test_window_relative_basis_classes_are_finite(ladder):
    quot = thin_rep(ladder, VertexSet.make(ladder, (), [("inf", "a", 0)]))
    sub = thin_rep(ladder, VertexSet.make(ladder, (), [("inf", "b", 0)]))
    ecb = ext_space(quot, sub)
    coeffs = [0] * ecb.dimension
    coeffs[0] = 1
    ses = ext_class_to_ses(ecb, coeffs)
    finite, witness, report = is_finite_extension(ses)
    assert finite
    assert all(hasattr(a, "src") for a in witness)


# ---------------------------------------------------------------------------
# Euler form: dim Hom(M, N) - dim Ext(M, N) = <dim M, dim N> for finite
# dimensional M, N over a finite acyclic window (hereditary, Ringel LNM 1099)

# (quiver, window vertices, arrows inside the window as (src, dst, label)),
# written out so that the oracle does not read the quiver under test
EULER_POOLS = {
    "A3": (lambda: ak.linear_quiver(3), (1, 2, 3),
           ((1, 2, "1>2"), (2, 3, "2>3"))),
    "A5": (lambda: ak.linear_quiver(5), (1, 2, 3, 4, 5),
           tuple((i, i + 1, f"{i}>{i + 1}") for i in range(1, 5))),
    "kronecker": (ak.kronecker_quiver, (1, 2),
                  ((1, 2, "alpha"), (1, 2, "beta"))),
    "zigzag": (ak.PRESETS["zigzag"], (0, 1, 2, 3),
               ((1, 0, "1>0"), (1, 2, "1>2"), (3, 2, "3>2"))),
}


def euler_form(verts, arrows, dm, dn):
    return (sum(dm[v] * dn[v] for v in verts)
            - sum(dm[s] * dn[t] for s, t, _ in arrows))


@st.composite
def fd_data(draw, verts, arrows):
    """(dims, {label: integer rows}) supported in verts, not all zero."""
    dims = {v: draw(st.integers(0, 2)) for v in verts}
    if not any(dims.values()):
        dims[draw(st.sampled_from(verts))] = 1
    mats = {label: draw(st.lists(
                st.lists(st.integers(-2, 2), min_size=dims[s],
                         max_size=dims[s]),
                min_size=dims[t], max_size=dims[t]))
            for s, t, label in arrows if dims[s] and dims[t]}
    return dims, mats


@st.composite
def euler_cases(draw, kinds=tuple(sorted(EULER_POOLS)), chars=(0, 7)):
    kind = draw(st.sampled_from(kinds))
    _, verts, arrows = EULER_POOLS[kind]
    char = draw(st.sampled_from(chars))
    return (kind, char, draw(fd_data(verts, arrows)),
            draw(fd_data(verts, arrows)))


def _fd(q, field, data):
    dims, mats = data
    return ak.explicit_fd(q, dims, {
        label: ak.Mat(field, len(rows), len(rows[0]),
                      tuple(tuple(field.of(x) for x in r) for r in rows))
        for label, rows in mats.items()}, field)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(euler_cases(chars=(0, 2, 3, 7)), st.booleans())
def test_euler_form_on_random_fd_pairs(case, count_first):
    """dim Ext is rows - rank of the transposed arrow complex; the oracle
    takes the cokernel of relation_matrix of a minimal presentation of M, a
    different matrix.  The class basis, built from its own elimination, has
    the same size whichever is read first."""
    kind, char, dm, dn = case
    make, verts, arrows = EULER_POOLS[kind]
    q, field = make(), ak.GF(char) if char else QQ
    m, n = _fd(q, field, dm), _fd(q, field, dn)
    hb, ecb = ak.hom_space(m, n), ext_space(m, n)
    if count_first:
        ext, built = ecb.dimension, len(ecb.basis)
    else:
        built, ext = len(ecb.basis), ecb.dimension
    assert ext == built == ext_dim_via_presentation(m, n)
    assert hb.dimension - ext == euler_form(verts, arrows, dm[0], dn[0])
    # the kernel of the arrow complex on the whole window is the same Hom
    assert hb.route == "presentation"
    assert len(natural_maps_on(m, n, verts)) == hb.dimension


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(euler_cases())
def test_hom_routes_agree_on_random_fd_pairs(case):
    # an fd domain is fp and an fd codomain is fc, so all three routes run
    kind, char, dm, dn = case
    q, field = EULER_POOLS[kind][0](), ak.GF(char) if char else QQ
    m, n = _fd(q, field, dm), _fd(q, field, dn)
    dims = {r: len(route_basis(m, n, r)[0])
            for r in ("presentation", "copresentation", "window")}
    assert len(set(dims.values())) == 1, dims


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(euler_cases())
def test_hom_count_is_the_basis_size_of_every_route_on_random_fd_pairs(case):
    # dimension is one rank of the arrow complex; each route builds its own
    # basis, with no count read, so neither sees the other
    kind, char, dm, dn = case
    q, field = EULER_POOLS[kind][0](), ak.GF(char) if char else QQ
    m, n = _fd(q, field, dm), _fd(q, field, dn)
    for r in ("presentation", "copresentation", "window"):
        assert ak.hom_space(m, n).dimension == \
            len(route_basis(m, n, r)[0]), r


def test_ext_count_of_an_fd_quotient_builds_no_basis(kron, monkeypatch):
    """Reading only dim Ext(X, Y) is one rank on the window: no interaction
    families, no cokernel projection; reading the basis and then the flag
    finds each, once."""
    calls = []
    for name in ("_crossing_arrows", "coker_projection"):
        def spy(*args, name=name, real=getattr(ext_mod, name)):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(ext_mod, name, spy)
    ecb = ext_space(simple_at(kron, 1), simple_at(kron, 2))
    assert ecb.dimension == 2 and calls == []
    assert len(ecb.basis) == 2 and ecb.arrows and not ecb.window_relative
    assert calls == ["coker_projection", "_crossing_arrows"]


@pytest.mark.parametrize("basis_first", [False, True])
def test_ext_count_that_disagrees_with_the_basis_is_an_internal_error(
        a3, monkeypatch, basis_first):
    count = ext_mod.ExtClassBasis._count
    monkeypatch.setattr(ext_mod.ExtClassBasis, "_count",
                        lambda self: count(self) + 1)
    ecb = ext_space(simple_at(a3, 1), simple_at(a3, 2))
    first, second = ("basis", "dimension") if basis_first \
        else ("dimension", "basis")
    getattr(ecb, first)
    with pytest.raises(AssertionError, match="Ext dimension 2 by the arrow "
                       "complex, but 1 basis classes"):
        getattr(ecb, second)


# The Auslander-Reiten formula Ext(X, Y) = D Hom(Y, tau X) holds for X of
# projective dimension at most 1 (Assem-Simson-Skowronski vol. 1, IV.2.14),
# so for every X over a hereditary algebra such as kQ.  It ties ext_space,
# tau and hom_space to each other, whichever way each is computed.


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(euler_cases(("A3", "A5", "kronecker")))
def test_ar_formula_on_random_fd_pairs(case):
    kind, char, dx, dy = case
    q, field = EULER_POOLS[kind][0](), ak.GF(char) if char else QQ
    x, y = _fd(q, field, dx), _fd(q, field, dy)
    try:
        tx = ak.tau(x)
    except ValueError as e:  # a projective X has tau X = 0
        assert "projective" in str(e)
        tx = ak.zero_rep(q, field)
    assert ext_space(x, y).dimension == ak.hom_space(y, tx).dimension


# simples, projectives and injectives near vertex 0 of each infinite preset,
# and how many (X, Y) pairs of them have X fp and how many Y fc, an fd object
# counting as both
AR_FORMULA_VERTICES = {
    "line": ((-1, 0, 1), 54, 54), "zigzag": ((0, 1, 2), 81, 81),
    "ray_in": ((0, 1, 2), 54, 81), "ray_out": ((0, 1, 2), 81, 54),
    "ladder": ((("a", 0), ("b", 0), ("a", 1), ("b", 1)), 96, 96)}


def _ar_formula_objects(name):
    q, verts = ak.PRESETS[name](), AR_FORMULA_VERTICES[name][0]
    return q, [make(q, v) for v in verts
               for make in (ak.simple_at, ak.projective_at, ak.injective_at)]


@pytest.mark.parametrize("name", sorted(AR_FORMULA_VERTICES))
def test_ar_formula_for_fp_objects_on_the_presets(name):
    """dim Ext(X, Y) = dim Hom(Y, tau X) for fp X, with tau X = 0 for a
    projective X (BLP 2013 for rep+(Q)), over the simples, projectives and
    injectives near vertex 0, X fp and Y any of them, every pair
    compared."""
    q, objs = _ar_formula_objects(name)
    compared = 0
    for x in objs:
        if ak.classify_membership(x).verdict not in ("fp", "fd"):
            continue
        tx = ak.zero_rep(q, x.field) if standard_vertex(x, "proj") \
            is not None else ak.tau(x)
        for y in objs:
            assert ext_space(x, y).dimension == \
                ak.hom_space(y, tx).dimension, (x.describe(), y.describe())
            compared += 1
    assert compared == AR_FORMULA_VERTICES[name][1]


@pytest.mark.parametrize("name", sorted(AR_FORMULA_VERTICES))
def test_ar_formula_for_fc_objects_on_the_presets(name):
    """The dual formula dim Ext(X, Y) = dim Hom(tau_inv Y, X) for fc Y,
    with tau_inv Y = 0 for an injective Y, over the objects of the fp test,
    Y fc and X any of them, every pair compared."""
    q, objs = _ar_formula_objects(name)
    compared = 0
    for y in objs:
        if ak.classify_membership(y).verdict not in ("fc", "fd"):
            continue
        ty = ak.zero_rep(q, y.field) if standard_vertex(y, "inj") \
            is not None else ak.tau_inv(y)
        for x in objs:
            assert ext_space(x, y).dimension == \
                ak.hom_space(ty, x).dimension, (x.describe(), y.describe())
            compared += 1
    assert compared == AR_FORMULA_VERTICES[name][2]


@pytest.mark.parametrize("name", sorted(AR_FORMULA_VERTICES))
def test_hom_count_is_the_basis_size_of_every_route_on_the_presets(name):
    """The fp, fc and fd objects of the AR-formula test: the count of an
    fd domain is taken on its support and the heads of the arrows leaving
    it, any other on the window, and each route's basis has that size.  The
    Ext count and class basis, both on the window, agree on every pair,
    window_relative or not."""
    objs = _ar_formula_objects(name)[1]
    for m in objs:
        for n in objs:
            for r in hom_routes(m, n):
                assert ak.hom_space(m, n).dimension == \
                    len(route_basis(m, n, r)[0]), (
                        m.describe(), n.describe(), r)
            assert ext_space(m, n).dimension == \
                len(ext_space(m, n).basis), (m.describe(), n.describe())


BIG_P = 2 ** 31 - 1


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(("A3", "kronecker")).flatmap(
    lambda kind: st.tuples(st.just(kind),
                           fd_data(*EULER_POOLS[kind][1:]),
                           fd_data(*EULER_POOLS[kind][1:]))))
def test_qq_and_a_large_prime_field_agree_on_integer_data(case):
    """Hom and Ext are the kernel and cokernel of one arrow complex, so their
    dimensions over GF(p) are those over QQ exactly when the complex has the
    same rank, which holds when every minor that is nonzero over QQ is
    nonzero mod p.  Here a row of the complex has at most four nonzero
    entries, each of size at most 2 (dims <= 2, entries in -2..2), so its
    norm is at most 4, and a minor has at most 8 rows (two arrows, each a
    map of at most 2 x 2 entries); by Hadamard's bound every minor is at
    most 4^8 < p = 2^31 - 1 in size."""
    kind, dm, dn = case
    q = EULER_POOLS[kind][0]()
    dims = set()
    for field in (QQ, ak.GF(BIG_P)):
        m, n = _fd(q, field, dm), _fd(q, field, dn)
        dims.add((ak.hom_space(m, n).dimension, ext_space(m, n).dimension))
    assert len(dims) == 1, dims


# ---------------------------------------------------------------------------
# the sparse arrow complex against the dense construction it replaced


def fraction_fd_rep(q, rng, verts, field):
    """A random fd object inside verts, dims up to 3, mostly nonzero
    entries such as -4/3, over GF(p) their images in the field."""
    dims = {v: rng.randrange(4) for v in verts}
    mats = {a.label: ak.Mat(field, dims[a.dst], dims[a.src], tuple(
        tuple(field.of(Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
                       if rng.random() < 0.6 else 0)
              for _ in range(dims[a.src])) for _ in range(dims[a.dst])))
        for a in q.arrows_within(verts) if dims[a.src] and dims[a.dst]}
    return ak.explicit_fd(q, dims, mats, field=field)


@pytest.mark.parametrize("name", ["kronecker", "A3", "zigzag"])
@pytest.mark.parametrize("field", [QQ, ak.GF(7)], ids=["QQ", "GF7"])
def test_the_sparse_arrow_complex_is_the_dense_one(name, field):
    build, verts = {"kronecker": (ak.kronecker_quiver, [1, 2]),
                    "A3": (lambda: linear_quiver(3), [1, 2, 3]),
                    "zigzag": (ak.PRESETS["zigzag"], [0, 1, 2, 3, 4])}[name]
    q, rng = build(), random.Random(35)
    for _ in range(12):
        x, y = (fraction_fd_rep(q, rng, verts, field) for _ in range(2))
        # the window's vertices and a part of them, each with the arrows
        # within it
        for vs in (verts, verts[1:]):
            arrows = q.arrows_within(vs)
            d, offs, rowed = ext_mod.arrow_complex(x, y, vs)
            dense, doffs = dense_arrow_complex(x, y, vs, arrows)
            assert offs == doffs and (d.rows, d.cols) == (dense.rows,
                                                         dense.cols)
            assert rowed == tuple(a for a in arrows
                                  if x.dim(a.src) and y.dim(a.dst))
            got = [[(type(e), e) for e in (r.get(j, 0) for j in range(d.cols))]
                   for r in d.nonzeros]
            assert got == [[(type(e), e) for e in row] for row in dense.entries]
            assert all(e != 0 for r in d.nonzeros for e in r.values())


# ---------------------------------------------------------------------------
# one arrow complex per object pair


@pytest.mark.parametrize("order", [("hom", "ext"), ("ext", "hom")])
def test_hom_and_ext_of_an_fd_pair_share_one_window_complex_and_elimination(
        kron, order, monkeypatch):
    m = ak.direct_sum(simple_at(kron, 1), simple_at(kron, 2))
    n = simple_at(kron, 2)
    for x in (m, n):
        classify_membership(x)
    calls = []
    for module, name in ((ext_mod, "joint_window"), (hom_mod, "joint_window"),
                         (ext_mod, "arrow_complex"), (linalg, "_eliminate")):
        def spy(*args, real=getattr(module, name), name=name):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(module, name, spy)
    read = {"hom": lambda: ak.hom_space(m, n).dimension,
            "ext": lambda: ext_space(m, n).dimension}
    dims = {space: read[space]() for space in order}
    assert dims == {"hom": 1, "ext": 2}
    assert sorted(calls) == ["_eliminate", "arrow_complex", "joint_window"]


def test_hom_and_ext_of_a_line_pair_share_the_counts_at_both_pads(
        line, monkeypatch):
    # a source that is not fd: each count is checked at pad 3, and Ext reads
    # the pair's counts at both pads that Hom's read made
    m, n = injective_at(line, 0), projective_at(line, 0)
    for x in (m, n):
        assert classify_membership(x).verdict != "fd"
    calls, pads = [], []
    for module, name in ((ext_mod, "joint_window"), (hom_mod, "joint_window"),
                         (ext_mod, "arrow_complex"), (linalg, "_eliminate")):
        def spy(*args, real=getattr(module, name), name=name):
            calls.append(name)
            if name == "joint_window":
                pads.append(args[1] if len(args) > 1 else 2)
            return real(*args)
        monkeypatch.setattr(module, name, spy)
    assert (ak.hom_space(m, n).dimension, ext_space(m, n).dimension) == (0, 1)
    assert sorted(calls) == ["_eliminate"] * 2 + ["arrow_complex"] * 2 + \
        ["joint_window"] * 2
    assert pads == [2, 3]


def test_an_ext_count_that_moves_with_the_pad_is_an_engine_bug(
        line, ladder, monkeypatch):
    # past the stable depth no leaving row obstructs, so an Ext count that
    # grows with the pad breaks the contract; a rung family's count grows
    # by design, and its flagged pair is not checked
    quot = thin_rep(ladder, VertexSet.make(ladder, (), [("inf", "a", 0)]))
    sub = thin_rep(ladder, VertexSet.make(ladder, (), [("inf", "b", 0)]))
    pair = ext_mod.arrow_pair(quot, sub)
    assert pair.counts(2)["Ext"] < pair.counts(3)["Ext"]
    assert ext_space(quot, sub).dimension == pair.counts(2)["Ext"]
    real = ext_mod.ArrowPair.counts
    monkeypatch.setattr(ext_mod.ArrowPair, "counts", lambda pair, pad=2: {
        **real(pair, pad), "Ext": real(pair, pad)["Ext"] + pad})
    x, y = injective_at(line, 0), projective_at(line, 0)
    depth = joint_window((x, y))[1]
    with pytest.raises(AssertionError, match=f"window Ext dimension 3 at pad "
                       f"2 and 4 at pad 3, window depth {depth}: "):
        ext_space(x, y).dimension


def test_pair_counts_are_the_dense_ones_where_arrows_leave_the_window():
    # an arrow out of a pair's window where x and y are nonzero at its ends
    # gives the complex no row; over the knits of acceptance criterion 10
    # such pairs are found on ray_out, line and ladder
    leaving = set()
    for seed, depth in criterion_10_knits():
        reps = [node.rep for node in ak.knit(seed, depth).nodes
                if classify_membership(node.rep).is_in_rrep()]
        for x, y in itertools.product(reps, repeat=2):
            pair = ext_mod.arrow_pair(x, y)
            counts, verts = pair.counts(), pair.window[0]
            assert (counts["Hom"], counts["Ext"]) == dense_window_counts(x, y)
            if any(a.dst not in verts for v in verts if x.dim(v)
                   for a in x.quiver.out_arrows(v) if y.dim(a.dst)):
                leaving.add(seed.quiver.name)
    assert leaving == {"ray_out", "line", "ladder"}


def test_pair_counts_take_no_row_of_an_arrow_leaving_the_window(line):
    # the arrow -10 -> -11 leaves the window where x and y are both nonzero
    # at its ends and gives no row; x is fp, so the oracle checks the Ext
    # count against the presentation too
    x = thin_rep(line, VertexSet.make(line, (-1, 0), [("neg", "v", 7)]))
    y = ak.direct_sum(projective_at(line, -1), projective_at(line, -1))
    pair = ext_mod.arrow_pair(x, y)
    verts = pair.window[0]
    assert -10 in verts and -11 not in verts and x.dim(-10) and y.dim(-11)
    assert all(a.dst in verts
               for a in ext_mod.arrow_complex(x, y, verts)[2])
    counts = pair.counts()
    assert (counts["Hom"], counts["Ext"]) == dense_window_counts(x, y) \
        == (2, 2)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_pair_counts_are_the_dense_ones_on_drawn_objects(data):
    q = QUIVERS[data.draw(st.sampled_from(sorted(QUIVERS)))]
    x, y = data.draw(objects(q, 1)), data.draw(objects(q, 1))
    assume(all(classify_membership(m).is_in_rrep() for m in (x, y)))
    counts = ext_mod.arrow_pair(x, y).counts()
    assert (counts["Hom"], counts["Ext"]) == dense_window_counts(x, y)


@pytest.mark.parametrize("case", ["fd", "window", "fp"])
def test_a_pair_keeps_neither_object_alive(kron, line, case):
    # the pair lives in the source's memo, keyed weakly by the target and
    # holding both weakly: no reference cycle, so each object is freed
    # as soon as its last reference goes, with the cyclic GC off
    m = {"fd": lambda: ak.direct_sum(simple_at(kron, 1), simple_at(kron, 2)),
         "window": lambda: injective_at(line, 0),
         "fp": lambda: projective_at(line, 0)}[case]()
    n = simple_at(m.quiver, 2 if case == "fd" else 0)
    gc.disable()
    try:
        ak.hom_space(m, n).dimension, ext_space(m, n).dimension
        gone = weakref.ref(n)
        del n
        assert gone() is None
        ak.hom_space(m, m).dimension, ext_space(m, m).dimension
        gone = weakref.ref(m)
        del m
        assert gone() is None
    finally:
        gc.enable()
