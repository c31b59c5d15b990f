"""
Membership boundaries and finite-extension witnesses
====================================================

The finite-extension class has sharp edges.  A zigzag with dimension one
everywhere fails membership because infinitely many sources carry nonzero
data.  On the ladder, gluing two rays along one rung stays inside the
class, while gluing along every rung at once does not, and the failure
comes with a checkable witness family.

Every object of the class is such an extension, and `standard_ext` shows
which: the stable tails of its injective rays carry a finitely copresented
quotient, the rest of its support a finitely presented sub.  On the line
with dimension one everywhere the two halves meet in a single arrow.
"""

from arknit import (
    QQ,
    RungFamily,
    VertexSet,
    classify_component,
    classify_membership,
    glue_ses,
    is_finite_extension,
    knit,
    parse_quiver,
    standard_ext,
    thin_rep,
)

zig = parse_quiver({"preset": "zigzag"})
region = VertexSet.make(zig, (), [("inf", "even", 0), ("inf", "odd", 0)])
cert = classify_membership(thin_rep(zig, region))
print("zigzag all-one object:", cert.verdict)
print("witnesses:", list(cert.witnesses))

ladder = parse_quiver({"preset": "ladder"})
bsub = thin_rep(ladder, VertexSet.make(ladder, (), [("inf", "b", 0)]))
aquot = thin_rep(ladder, VertexSet.make(ladder, (), [("inf", "a", 0)]))
(end,) = [e for e in ladder.ends() if e.eid == "inf"]

# One rung: the interaction between the two rays is a single arrow.
from arknit import Mat
one_rung = ((end.crossing_arrow("rung", 0), Mat.from_rows(QQ, [[1]])),)
mid, ses = glue_ses(bsub, aquot, one_rung, ())
finite, witness, report = is_finite_extension(ses)
print("one-rung glue finite:", finite, "interaction:",
      [a.label for a in report.arrows])
print("glued object verdict:", classify_membership(mid).verdict)

# Every rung: the interaction never stops, and the report names the
# symbolic family that proves it.
fam = RungFamily("inf", "rung", 0, QQ.one)
mid2, ses2 = glue_ses(bsub, aquot, (), (fam,))
finite, witness, report = is_finite_extension(ses2)
print("all-rungs glue finite:", finite)
print("witness:", list(witness))

# The one-rung object is a genuine doubly infinite payload: knitting from
# it blocks immediately, giving the trivial wing.
comp = knit(mid, 3)
print("component of the glued object:", classify_component(comp).tag,
      f"({len(comp.nodes)} node, status {comp.nodes[0].status})")

# The standard split of the all-ones line: the sub on Omega is finitely
# presented, the quotient on the injective tail finitely copresented, and
# the sequence glues them along finitely many arrows.
line = parse_quiver({"preset": "line"})
allk = thin_rep(line, VertexSet.make(line, (), [("neg", "v", 0),
                                               ("pos", "v", 0)]))
omega, split = standard_ext(allk)
print("all-ones line:", classify_membership(allk).verdict,
      "Omega:", omega.describe())
print("sub:", split.sub.support().describe(),
      classify_membership(split.sub).verdict,
      "quotient:", split.quot.support().describe(),
      classify_membership(split.quot).verdict)
finite, witness, report = is_finite_extension(split)
print("standard split finite:", finite, "interaction:",
      [a.label for a in report.arrows])
