"""Minimal projective presentations and injective copresentations."""

import random

import pytest

from arknit import (
    VertexSet,
    coker_proj,
    dim_vector,
    equal_on,
    injective_at,
    ker_inj,
    min_inj_copresentation,
    min_proj_presentation,
    nakayama,
    naturality_defect,
    projective_at,
    simple_at,
    thin_rep,
)
from arknit.linalg import rank
from conftest import random_fd_rep


def _no_trivial_paths(pm):
    return all(p.length >= 1 for row in pm.entries for combo in row
               for (_, p) in combo)


def test_pres_simple_a3(a3):
    pres = min_proj_presentation(simple_at(a3, 2))
    assert pres.pm.side == "proj"
    assert pres.pm.codomain == (2,)
    assert pres.pm.domain == (3,)
    assert _no_trivial_paths(pres.pm)
    assert naturality_defect(pres.cover, (1, 2, 3))
    for v in (1, 2, 3):
        assert rank(pres.cover.component(v)) == pres.obj.dim(v)


def test_pres_injective_a3(a3):
    # I_2 has dims (1,1,0); as a cokernel it is P_1 modulo the socle path
    pres = min_proj_presentation(injective_at(a3, 2))
    assert pres.pm.codomain == (1,)
    assert pres.pm.domain == (3,)
    rebuilt = coker_proj(pres.pm)
    assert dim_vector(rebuilt, (1, 2, 3)) == (1, 1, 0)


def test_pres_simple_kronecker(kron):
    pres = min_proj_presentation(simple_at(kron, 1))
    assert pres.pm.codomain == (1,)
    assert pres.pm.domain == (2, 2)
    cells = [combo for row in pres.pm.entries for combo in row]
    labels = sorted(p.arrows[0].label for combo in cells for (_, p) in combo)
    assert labels == ["alpha", "beta"]


def test_pres_projective_has_no_relations(a3):
    pres = min_proj_presentation(projective_at(a3, 1))
    assert pres.pm.codomain == (1,)
    assert pres.pm.domain == ()


def test_pres_line_tail(line):
    # thin on {v <= 2} is P_2 itself
    region = VertexSet.make(line, (1, 2), [("neg", "v", 0)])
    pres = min_proj_presentation(thin_rep(line, region))
    assert pres.pm.codomain == (2,)
    assert pres.pm.domain == ()


def test_pres_rejects_non_fp(zig, line, line_full):
    region = VertexSet.make(zig, (), [("inf", "even", 0), ("inf", "odd", 0)])
    with pytest.raises(ValueError):
        min_proj_presentation(thin_rep(zig, region))
    with pytest.raises(ValueError):
        min_proj_presentation(thin_rep(line, line_full))  # rrep but not fp


def test_copres_simple_a3(a3):
    cop = min_inj_copresentation(simple_at(a3, 2))
    assert cop.pm.side == "inj"
    assert cop.pm.domain == (2,)
    assert cop.pm.codomain == (1,)
    assert _no_trivial_paths(cop.pm)
    assert naturality_defect(cop.cover, (1, 2, 3))
    for v in (1, 2, 3):
        k = cop.cover.component(v)
        assert rank(k) == cop.obj.dim(v)  # coembedding is mono


def test_copres_projective_kronecker(kron):
    cop = min_inj_copresentation(projective_at(kron, 1))
    assert tuple(sorted(cop.pm.domain)) == (2, 2)
    assert tuple(sorted(cop.pm.codomain)) == (1, 1, 1)
    rebuilt = ker_inj(cop.pm)
    assert dim_vector(rebuilt, (1, 2)) == (1, 2)
    assert equal_on(rebuilt, projective_at(kron, 1), (1, 2))


def test_coembedding_is_natural_mono_and_onto_the_kernel(kron, ladder):
    """The co-embedding, the transposed cover of the dual presentation, on
    objects whose injectives are 2-dimensional at some vertex: natural,
    injective, and its image is the kernel of the path matrix after it."""
    rng = random.Random(5)
    grid = [(t, k) for t in "ab" for k in range(4)]
    cases = [(kron, (1, 2), random_fd_rep(kron, rng, (1, 2)))
             for _ in range(6)]
    cases += [(ladder, grid, mk(ladder, v)) for mk in (injective_at, simple_at)
              for v in (("a", 1), ("b", 1), ("b", 2))]
    for q, verts, w in cases:
        cop = min_inj_copresentation(w)
        assert naturality_defect(cop.cover, verts)
        for v in verts:
            k, d = cop.cover.component(v), cop.pm.component(v)
            assert rank(k) == w.dim(v)
            assert d.mul(k).is_zero()
            assert rank(k) + rank(d) == k.rows


def test_copres_rebuild_roundtrip(a3):
    for a in (1, 2, 3):
        cop = min_inj_copresentation(simple_at(a3, a))
        rebuilt = ker_inj(cop.pm)
        assert dim_vector(rebuilt, (1, 2, 3)) == dim_vector(
            simple_at(a3, a), (1, 2, 3))


def test_pres_rebuild_roundtrip(a3, kron):
    for q, verts, mk in ((a3, (1, 2, 3), simple_at), (kron, (1, 2), simple_at)):
        for a in verts:
            pres = min_proj_presentation(mk(q, a))
            rebuilt = coker_proj(pres.pm)
            assert dim_vector(rebuilt, verts) == dim_vector(mk(q, a), verts)


def test_nakayama_preserves_data(a3):
    pres = min_proj_presentation(simple_at(a3, 2))
    nu = nakayama(pres.pm)
    assert nu.side == "inj"
    assert nu.domain == pres.pm.domain
    assert nu.codomain == pres.pm.codomain
    assert nu.entries == pres.pm.entries
    # on A_3 the translate of S_2 is ker of the flipped matrix: S_3
    t = ker_inj(nu)
    assert dim_vector(t, (1, 2, 3)) == (0, 0, 1)
