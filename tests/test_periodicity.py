"""The periodicity contract: every constructor repeats past its structural
depth.

end_profile reads the stable data of an object at the one cutoff c0 =
max(structural depth, 2) + 1, and compares the band data there (dims on
bands c0 and c0 + 1, maps on the arrows between them) with those one depth
further on, once.  That comparison only checks the contract; the verdict is
sound because every constructor is periodic past its structural depth.  So
this suite builds random constructions over the infinite presets line,
zigzag and ladder (sums, kernels and cokernels of path matrices, glues whose
rung families start at depth 5 or more, thin regions with deep tail starts,
duals, restrictions, tau and tau^-1) and asserts equal band data at c0,
c0 + 1, c0 + 2 and c0 + 3 on every end.

The two further depths catch a structural depth that under-reports, where
end_profile's single comparison does not:

- A mutant GlueRep._extra_depth without fam.start gives the glue of thin
  tails from depth 0 along rays b and a of the ladder, with a rung family
  from depth s, structural depth 0 and so c0 = 3.  The band data at c0 and
  c0 + 1 hold the rungs at depths 3 to 5, so for s = 6 or 7 they agree: the
  certificate reads zero rungs and calls the glue rrep, where the rungs make
  it notInRrep.  The band data at c0 + 2 and c0 + 3 hold the rungs at s.
- A mutant Rep._structural_depth without a tail's start t0 gives a thin
  region whose only tail starts at t0 structural depth 0 and so c0 = 3.  For
  t0 = 6 or 7 the band data at c0 and c0 + 1 are zero, and the certificate
  reads the object as fd; those at c0 + 2 or c0 + 3 are not zero.
"""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arknit as ak
from arknit.rep import _band_snapshot

from conftest import random_fd_rep
from test_quiver import PRESET_GRIDS

QUIVERS = {name: ak.PRESETS[name]() for name in ("line", "zigzag", "ladder")}
LEAVES = ("proj", "inj", "simple", "thin", "fd")
COMPOSITES = ("sum", "ker", "coker", "glue", "dual", "restrict", "tau",
              "tau_inv")
COEFFS = st.sampled_from((1, -1, 2))


def _grid(q):
    base = q.base if isinstance(q, ak.OppositeQuiver) else q
    return list(PRESET_GRIDS[base.name])


@st.composite
def regions(draw, q):
    """A few explicit grid vertices and, on each ray, no tail or a tail from
    a start up to depth 9."""
    explicit = draw(st.lists(st.sampled_from(_grid(q)), max_size=3))
    tails = [(e.eid, r.rid, draw(st.integers(0, 9)))
             for e in q.ends() for r in e.rays if draw(st.booleans())]
    return ak.VertexSet.make(q, explicit, tails)


@st.composite
def path_matrices(draw, q, side):
    """Entries that combine up to three of the paths codomain[j] ~>
    domain[i], for one or two grid vertices on either side."""
    verts = st.lists(st.sampled_from(_grid(q)), min_size=1, max_size=2)
    dom, cod = draw(verts), draw(verts)
    entries = [[[(draw(COEFFS), p) for p in q.paths_between(y, x)[:3]
                 if draw(st.booleans())] for x in dom] for y in cod]
    return ak.path_matrix(q, ak.QQ, side, dom, cod, entries)


@st.composite
def glues(draw, q, depth):
    """Where q has a crossing family, thin tails along its two rays glued by
    that family from a depth of 5 to 9; otherwise two objects glued by 0."""
    crossings = [(e.eid, c) for e in q.ends() for c in e.crossings]
    if not crossings or draw(st.booleans()):
        return ak.glue_rep(draw(objects(q, depth)), draw(objects(q, depth)))
    eid, (cid, src, dst) = draw(st.sampled_from(crossings))
    start = draw(st.integers(5, 9))
    sub, quot = (ak.thin_rep(q, ak.VertexSet.make(
        q, (), [(eid, rid, draw(st.integers(0, start)))]))
        for rid in (dst, src))
    return ak.glue_rep(sub, quot, families=[
        ak.RungFamily(eid, cid, start, draw(COEFFS))])


def _translate(m, inverse):
    """tau^-1 m or tau m where it is defined, else m."""
    try:
        return ak.tau_inv(m) if inverse else ak.tau(m)
    except (ValueError, ak.BudgetError):
        return m


@st.composite
def objects(draw, q, depth, kind=None):
    """A construction over q of the given kind, or of a random kind, with
    parts up to depth further constructions deep."""
    kinds = LEAVES + (COMPOSITES if depth else ())
    kind = kind or draw(st.sampled_from(kinds))
    if kind in ("proj", "inj", "simple"):
        make = {"proj": ak.projective_at, "inj": ak.injective_at,
                "simple": ak.simple_at}[kind]
        return make(q, draw(st.sampled_from(_grid(q))))
    if kind == "thin":
        return ak.thin_rep(q, draw(regions(q)))
    if kind == "fd":
        rng = random.Random(draw(st.integers(0, 2 ** 16)))
        return random_fd_rep(q, rng, _grid(q))
    if kind == "ker":
        return ak.ker_inj(draw(path_matrices(q, "inj")))
    if kind == "coker":
        return ak.coker_proj(draw(path_matrices(q, "proj")))
    if kind == "glue":
        return draw(glues(q, depth - 1))
    if kind == "dual":
        return ak.dualize(draw(objects(q.opposite(), depth - 1)))
    part = draw(objects(q, depth - 1))
    if kind == "sum":
        return ak.direct_sum(part, draw(objects(q, depth - 1)))
    if kind == "restrict":
        return ak.restrict(part, draw(regions(q)))
    return _translate(part, kind == "tau_inv")


@pytest.mark.parametrize("kind", LEAVES + COMPOSITES)
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_band_data_repeat_past_the_cutoff(kind, data):
    q = QUIVERS[data.draw(st.sampled_from(sorted(QUIVERS)))]
    m = data.draw(objects(q, 2, kind))
    for end in m.quiver.ends():
        c0 = max(m.structural_depth(), 2) + 1
        snaps = [_band_snapshot(m, end, c0 + k) for k in range(4)]
        assert snaps == snaps[:1] * 4, (m.describe(), end.eid, c0)
        # and end_profile reads its stable data at c0 without complaint
        assert ak.end_profile(m, end).cutoff == c0
