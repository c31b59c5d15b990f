"""
Hom spaces, extensions and Baer sums
====================================

Hom is built on one of two routes, which the domain fixes: through a
projective presentation of an fd or finitely presented domain, else by
solving naturality equations on a certified window.
"""

from arknit import (
    VertexSet,
    baer_sum,
    ext_class_to_ses,
    ext_space,
    hom_space,
    injective_at,
    is_split,
    parse_quiver,
    projective_at,
    simple_at,
    thin_rep,
    verify_exact,
)

a3 = parse_quiver({"preset": "linear", "n": 3})
kron = parse_quiver({"preset": "kronecker"})

# Hom(P_a, N) is N at a; Hom(N, I_a) is the dual statement.
h = hom_space(projective_at(a3, 2), injective_at(a3, 2))
print("Hom(P_2, I_2): dim", h.dimension, "via", h.route)

# The domain fixes the route.  On the line (arrows n+1 -> n), I_0 is
# finitely copresented but not finitely presented, and the thin object that
# is k at every vertex is neither, so only the first of these three pairs
# is built from a presentation.
line = parse_quiver({"preset": "line"})
i0 = injective_at(line, 0)
k = thin_rep(line, VertexSet.make(line, (), [("neg", "v", 0),
                                             ("pos", "v", 0)]))
for name, m, n in (("S_2 -> I_2 on A3", simple_at(a3, 2), injective_at(a3, 2)),
                   ("I_0 -> I_0 on line", i0, i0),
                   ("k -> k on line", k, k)):
    h = hom_space(m, n)
    print(f"  {name:18s} dim {h.dimension} via {h.route}")

# Ext classes parameterize short exact sequences 0 -> sub -> E -> quot -> 0.
# On the Kronecker quiver Ext(S_1, S_2) is two dimensional.
ecb = ext_space(simple_at(kron, 1), simple_at(kron, 2))
print("Ext(S_1, S_2) on Kronecker: dim", ecb.dimension)

ses = ext_class_to_ses(ecb, [1, 0])
print("middle dims:", [ses.middle.dim(v) for v in (1, 2)],
      "split?", is_split(ses))
print("exact on {1,2}:", verify_exact(ses, (1, 2))["exact"])

# The Baer sum adds classes; a class plus its negative is split.
neg = ext_class_to_ses(ecb, [-1, 0])
print("class + (-class) split?", is_split(baer_sum(ses, neg)))
