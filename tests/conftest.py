import random
from fractions import Fraction

import pytest

import arknit as ak
from arknit.quiver import VertexSet

from oracles import scaled


@pytest.fixture(scope="session")
def a3():
    return ak.linear_quiver(3)


@pytest.fixture(scope="session")
def a5():
    return ak.linear_quiver(5)


@pytest.fixture(scope="session")
def kron():
    return ak.kronecker_quiver()


@pytest.fixture(scope="session")
def line():
    return ak.PRESETS["line"]()


@pytest.fixture(scope="session")
def zig():
    return ak.PRESETS["zigzag"]()


@pytest.fixture(scope="session")
def ladder():
    return ak.PRESETS["ladder"]()


@pytest.fixture(scope="session")
def ray_in():
    return ak.PRESETS["ray_in"]()


@pytest.fixture(scope="session")
def ray_out():
    return ak.PRESETS["ray_out"]()


@pytest.fixture(scope="session")
def line_full(line):
    return VertexSet.make(line, (), [("neg", "v", 0), ("pos", "v", 0)])


@pytest.fixture(scope="session")
def single_rung_mid(ladder):
    return single_rung(ladder)


def single_rung(ladder):
    """Gluing along one rung only: stays inside the finite-extension class."""
    sub = ak.thin_rep(ladder, VertexSet.make(ladder, (), [("inf", "b", 0)]))
    quot = ak.thin_rep(ladder, VertexSet.make(ladder, (), [("inf", "a", 0)]))
    (end,) = [e for e in ladder.ends() if e.eid == "inf"]
    rung0 = end.crossing_arrow("rung", 0)
    one = ak.Mat.from_rows(ak.QQ, [[1]])
    return ak.glue_rep(sub, quot, ((rung0, one),), ())


@pytest.fixture()
def rng_reps():
    def make(q, verts, count=5, seed=11, max_dim=2):
        rng = random.Random(seed)
        return [random_fd_rep(q, rng, verts, max_dim) for _ in range(count)]
    return make


def random_fd_rep(q, rng, verts, max_dim=2, field=ak.QQ):
    """Seeded random finite dimensional object supported inside verts."""
    dims = {v: rng.randrange(max_dim + 1) for v in verts}
    if all(d == 0 for d in dims.values()):
        dims[rng.choice(list(verts))] = 1
    mats = {}
    vset = set(verts)
    for v in verts:
        for a in q.out_arrows(v):
            if a.dst in vset and dims[v] and dims[a.dst]:
                ent = tuple(tuple(field.of(Fraction(rng.randrange(-2, 3)))
                                  for _ in range(dims[v]))
                            for _ in range(dims[a.dst]))
                mats[a.label] = ak.Mat(field, dims[a.dst], dims[v], ent)
    return ak.explicit_fd(q, dims, mats, field=field)


def random_morphism(h, rng):
    """Random element of a computed Hom space."""
    if h.dimension == 0:
        return None
    f = None
    for b in h.basis:
        g = scaled(b, rng.randrange(-2, 3))
        f = g if f is None else f.add(g)
    return f
