"""Gabriel's theorem as ground truth: on a Dynkin quiver the indecomposables
are one per positive root of the Tits form (Gabriel, Manuscripta Math. 6,
1972), so the knit from a simple projective must close on exactly the
roots, with every projective and every injective among its nodes.

The roots come from tests/oracles.py, by reflections alone; nothing here
reads the engine's own invariants.  E_n branches at vertex 3, D_n at n - 2.
"""
import pytest

from arknit import GF, QQ, FiniteQuiver, dim_vector, knit, projective_at

from oracles import positive_roots


def _chain(n):
    return [(i, i + 1) for i in range(1, n)]


DYNKIN = {**{f"A{n}": (n, _chain(n)) for n in range(2, 9)},
          **{f"D{n}": (n, _chain(n - 1) + [(n - 2, n)]) for n in range(4, 9)},
          **{f"E{n}": (n, _chain(n - 1) + [(3, n)]) for n in range(6, 9)}}
FIELDS = {"QQ": QQ, "GF(2^31-1)": GF(2**31 - 1)}


def orient(edges, orientation):
    """Each edge i - j (i < j) as an arrow: i -> j ("linear"), or from the
    end at even distance from vertex 1 ("alternating")."""
    if orientation == "linear":
        return edges
    parity = {1: 0}
    for a, b in edges:  # each edge meets the tree built so far at a
        parity[b] = 1 - parity[a]
    return [(a, b) if parity[a] == 0 else (b, a) for a, b in edges]


def test_the_root_counts_are_the_known_ones():
    counts = {name: len(positive_roots(*DYNKIN[name])) for name in DYNKIN}
    assert counts == {**{f"A{n}": n * (n + 1) // 2 for n in range(2, 9)},
                      **{f"D{n}": n * (n - 1) for n in range(4, 9)},
                      "E6": 36, "E7": 63, "E8": 120}


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("orientation", ["linear", "alternating"])
@pytest.mark.parametrize("name", sorted(DYNKIN))
def test_the_knit_has_one_node_per_positive_root(name, orientation, field):
    n, edges = DYNKIN[name]
    q = FiniteQuiver.build(range(1, n + 1), orient(edges, orientation))
    sink = max(v for v in q.vertices if not q.out_arrows(v))
    comp = knit(projective_at(q, sink, FIELDS[field]), 40)
    verts = tuple(range(1, n + 1))
    assert sorted(dim_vector(x.rep, verts) for x in comp.nodes) == \
        positive_roots(n, edges)
    assert [x.key for x in comp.nodes if x.status == "frontier"] == []
    assert sum(x.is_projective for x in comp.nodes) == n
    assert sum(x.is_injective for x in comp.nodes) == n
