"""Extension spaces, Baer sums, and the finite-extension criterion."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arknit as ak
from arknit import (
    QQ,
    BudgetError,
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
    split_ses,
    standard_ext,
    thin_rep,
    verify_exact,
)
from arknit.hom import solve_natural

from conftest import random_fd_rep
from oracles import ext_dim_brute, ext_dim_via_presentation


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
    with pytest.raises(BudgetError, match="splitness undecidable.*" + first):
        is_split(ses)
    with pytest.raises(BudgetError, match="equivalence undecidable.*" + first):
        equiv_ext(ses, ses)


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
def euler_cases(draw, kinds=tuple(sorted(EULER_POOLS))):
    kind = draw(st.sampled_from(kinds))
    _, verts, arrows = EULER_POOLS[kind]
    char = draw(st.sampled_from((0, 7)))
    return (kind, char, draw(fd_data(verts, arrows)),
            draw(fd_data(verts, arrows)))


def _fd(q, field, data):
    dims, mats = data
    return ak.explicit_fd(q, dims, {
        label: ak.Mat(field, len(rows), len(rows[0]),
                      tuple(tuple(field.of(x) for x in r) for r in rows))
        for label, rows in mats.items()}, field)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(euler_cases())
def test_euler_form_on_random_fd_pairs(case):
    kind, char, dm, dn = case
    make, verts, arrows = EULER_POOLS[kind]
    q, field = make(), ak.GF(char) if char else QQ
    m, n = _fd(q, field, dm), _fd(q, field, dn)
    hb = ak.hom_space(m, n)
    ext = ext_space(m, n).dimension
    assert hb.dimension - ext == euler_form(verts, arrows, dm[0], dn[0])
    # the kernel of the arrow complex on the whole window is the same Hom
    assert hb.route == "presentation"
    assert len(solve_natural(m, n, verts)[1]) == hb.dimension


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(euler_cases())
def test_hom_routes_agree_on_random_fd_pairs(case):
    # an fd domain is fp and an fd codomain is fc, so all three routes run
    kind, char, dm, dn = case
    q, field = EULER_POOLS[kind][0](), ak.GF(char) if char else QQ
    m, n = _fd(q, field, dm), _fd(q, field, dn)
    dims = {r: ak.hom_space(m, n, route=r).dimension
            for r in ("presentation", "copresentation", "window")}
    assert len(set(dims.values())) == 1, dims


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
