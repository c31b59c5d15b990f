"""Decomposition into indecomposable summands, pinned byte for byte.

golden/decompose.txt records the JSON of the `decompose` verb (opaque
labels, window dimensions and matrices, multiplicities, the certificate
flag) for sums of standard objects, middle terms of almost split sequences
and seeded random fd objects.  Regenerate it only for an intended change of
the decomposition:

    PYTHONPATH=src:tests python -c "import test_decompose as t; t.write_golden()"
"""
import json
import random
from pathlib import Path

import arknit as ak
import arknit.ar as ar
import arknit.hom as hom
from arknit import (GF, QQ, almost_split_sequence, decompose_report,
                    dim_vector, direct_sum, injective_at, knit, projective_at,
                    simple_at, tau_inv)
from arknit.cli import build_parser, run
from arknit.io import snapshot_rep
from conftest import random_fd_rep
from oracles import computed_step

GOLDEN = Path(__file__).parent / "golden" / "decompose.txt"


def payload(m) -> dict:
    """What the `decompose` verb prints for m."""
    rep = decompose_report(m)
    return {"schema": ak.SCHEMA,
            "summands": [{"payload": snapshot_rep(r), "multiplicity": k}
                         for r, k in rep.items],
            "indecomposable_certified": not rep.flagged}


def cases():
    """(name, object) pairs, in the order of the golden file."""
    a3, kron = ak.linear_quiver(3), ak.kronecker_quiver()
    for F in (QQ, GF(3)):
        yield f"A3 P(1)+S(2)+S(2) {F!r}", direct_sum(
            projective_at(a3, 1, F), simple_at(a3, 2, F), simple_at(a3, 2, F))
    s1, s2 = simple_at(kron, 1), simple_at(kron, 2)
    yield "Kronecker S1^2+S2^2", direct_sum(s1, s1, s2, s2)
    yield "Kronecker P(1)+P(1)", direct_sum(projective_at(kron, 1),
                                            projective_at(kron, 1))
    for name in ("line", "ray_out"):
        q = ak.PRESETS[name]()
        yield f"{name} P(0)+S(0)+I(0)", direct_sum(
            projective_at(q, 0), simple_at(q, 0), injective_at(q, 0))
    ladder = ak.PRESETS["ladder"]()
    sb1 = simple_at(ladder, ladder.parse_vertex("b1"))
    yield "ladder S(b1)+S(b1)", direct_sum(sb1, sb1)
    yield "ass middle of A3 S(2)", almost_split_sequence(
        simple_at(a3, 2)).middle
    yield "ass middle from Kronecker P(1)", almost_split_sequence(
        tau_inv(projective_at(kron, 1))).middle
    rng = random.Random(53)
    for name, q, verts in (("A3", a3, (1, 2, 3)), ("Kronecker", kron, (1, 2)),
                           ("zigzag", ak.PRESETS["zigzag"](), (0, 1, 2, 3))):
        for i, F in enumerate((QQ, GF(3), QQ, GF(3))):
            yield f"random {name} #{i} {F!r}", random_fd_rep(
                q, rng, verts, max_dim=3 if len(verts) == 2 else 2, field=F)


def golden_text() -> str:
    return "".join(f"# {name}\n" + json.dumps(payload(m), indent=2,
                                               sort_keys=True) + "\n"
                   for name, m in cases())


def write_golden():
    GOLDEN.write_text(golden_text())


def test_decomposition_matches_golden():
    assert golden_text() == GOLDEN.read_text()


def test_payload_is_what_the_verb_prints():
    args = build_parser().parse_args([
        "decompose", "--quiver", '{"preset":"linear","n":3}', "--field", "3",
        "--rep", '{"sum":[{"proj":"1"},{"simple":"2"},{"simple":"2"}]}'])
    a3, F = ak.linear_quiver(3), GF(3)
    m = direct_sum(projective_at(a3, 1, F), simple_at(a3, 2, F),
                   simple_at(a3, 2, F))
    assert run(args) == payload(m)


# ---------------------------------------------------------------------------
# work: a summand whose own End is k builds no End table


def _spy_end_tables(monkeypatch):
    """Record the object of every End table built from now on: each End
    computation that goes past a brick's count (dimension 2 or more)."""
    seen, real = [], hom._end_algebra

    def spy(m):
        E = real(m)
        if E.dimension > 1:
            seen.append(m)
        return E

    monkeypatch.setattr(hom, "_end_algebra", spy)
    return seen


def test_decompose_builds_end_tables_only_past_bricks(a3, monkeypatch):
    seen = _spy_end_tables(monkeypatch)
    p1, s2 = projective_at(a3, 1), simple_at(a3, 2)
    m = direct_sum(p1, s2)
    assert len(decompose_report(m).summands) == 2
    assert seen == [m]
    seen.clear()
    m = direct_sum(p1, s2, s2)
    assert len(decompose_report(m).summands) == 3
    # the whole object, then the piece S(2)^2, whose End is M_2(k)
    assert len(seen) == 2 and seen[0] is m
    assert dim_vector(seen[1], (1, 2, 3)) == (0, 2, 0)


def test_kronecker_knit_builds_four_end_tables(kron, monkeypatch):
    # computed, the five meshes build four End tables, the summands that
    # their known arrows name split off with none; predicted, only the mesh
    # from the simple projective P_2 is computed
    seen = _spy_end_tables(monkeypatch)
    knit(projective_at(kron, 2), 5)
    assert len(seen) == 1
    seen.clear()
    monkeypatch.setattr(ar, "_predict_mesh", computed_step)
    knit(projective_at(kron, 2), 5)
    assert len(seen) == 4
