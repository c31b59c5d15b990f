"""
Representations with finite data
================================

Objects are built from constructors (projectives, injectives, simples,
thin regions, explicit matrices, gluings) rather than from stored infinite
data.  Dimensions and matrices are evaluated lazily, so an object supported
on infinitely many vertices is still exact to work with.
"""

from arknit import (
    QQ,
    Mat,
    VertexSet,
    classify_membership,
    dim_vector,
    explicit_fd,
    injective_at,
    parse_quiver,
    projective_at,
    simple_at,
    thin_rep,
)

a3 = parse_quiver({"preset": "linear", "n": 3})
line = parse_quiver({"preset": "line"})

# Canonical objects: P_a collects the paths out of a, I_a the paths into a.
print("P_1 dims:", dim_vector(projective_at(a3, 1), (1, 2, 3)))
print("I_2 dims:", dim_vector(injective_at(a3, 2), (1, 2, 3)))
print("S_2 dims:", dim_vector(simple_at(a3, 2), (1, 2, 3)))

# Explicit finite-dimensional data: dims per vertex, matrices per arrow
# label (column index = domain coordinate at the arrow's source).
m = explicit_fd(a3, {1: 1, 2: 2},
                {"1>2": Mat.from_rows(QQ, [[1], [0]])}, QQ)
print("explicit dims:", dim_vector(m, (1, 2, 3)))

# Thin regions: dimension one on a vertex set, identity on internal arrows.
# Tails make the region infinite; (end, ray, start) means "the ray from
# position start outward".
p_tail = thin_rep(line, VertexSet.make(line, (), [("neg", "v", 0)]))
both = thin_rep(line, VertexSet.make(line, (),
                                     [("neg", "v", 0), ("pos", "v", 0)]))
print("tail dims at -3..2:", [p_tail.dim(v) for v in range(-3, 3)])

# classify_membership certifies where an object sits: fd, fp (finitely
# presented), fc (finitely co-presented), rrep (a finite extension of an
# fc object by an fp object), or notInRrep.
for name, obj in (("P_1 on A3", projective_at(a3, 1)),
                  ("one-sided tail", p_tail),
                  ("injective tail", injective_at(line, 0)),
                  ("all-one line object", both)):
    cert = classify_membership(obj)
    print(f"{name:20s} -> {cert.verdict}")
