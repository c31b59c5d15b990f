"""Representations given by finite data: constructor trees and exact evaluation.

A representation is a tree of constructor nodes (projectives, injectives,
explicit finite data, kernels/cokernels of path matrices, glued extensions,
sums, duals, restrictions).  Every node can be evaluated exactly at any
vertex of the quiver; infinite supports are handled symbolically through the
preset end/ray structure of the quiver layer.  The injective and cokernel
sides are the projective and kernel sides of the opposite quiver read
through D: I_a = D P_a, a map between sums of injectives is the transpose
of its dual there, and coker f = D ker(D f).

Membership in the four classes (finite dimensional, finitely presented,
finitely copresented, finite-extension) is read off the data along each ray
at one depth c0 past the object's structural depth.  The contract: every
constructor is periodic past that depth, its dims and arrow maps on bands t
and t + 1 of every end the same for all such t (why, node by node, is in
the _extra_depth docstrings).  So the verdict is a certificate, not a
sample; end_profile checks c0 against c0 + 1 once, and a mismatch is an
engine bug.  The certificate owns the stable depth (its deepest cutoff) and
with it the one finite window every computation reads: `joint_window`, the
certified supports down to a pad past that depth.  The same contract makes
that window decide: past the stable depth restriction between bands is
bijective, so the window Hom route, the deep checks of a presentation and
the recursion of decompose need no budget, and a check of theirs that
fails is an engine bug as well (AssertionError, CLI exit 3).

A Rep is immutable once built, and its derived invariants (structural depth,
membership certificates, minimal presentations) are cached on the instance.
"""
from __future__ import annotations

from functools import cached_property, reduce
from typing import Optional, Sequence

from .linalg import (Field, Mat, QQ, block_matrix, column_span,
                     is_invertible, kernel_span)
from .quiver import (Arrow, Path, QuiverBase, VertexSet, _inside,
                     classify_subquiver, vkey)
from .record import Frozen, ParseError, Record

class EvalRangeError(ValueError):
    """Raised when evaluation is requested outside any computable region."""


def _loc_depth(q: QuiverBase, v) -> int:
    loc = q.locate(v)
    return loc[2] if loc is not None else 0


# ---------------------------------------------------------------------------
# path matrices (maps between finite sums of projectives or of injectives)


class PathMatrix(Frozen):
    """Map between sums of projectives ('proj') or injectives ('inj').

    entries[j][i] is a combination of paths codomain[j] ~> domain[i]; this is
    the canonical identification of Hom(P_x, P_y) and Hom(I_x, I_y) with the
    span of the paths y ~> x.  A path matrix is a morphism src -> dst for
    KernelOfRep and CokerOfRep: .src/.dst are the two sums, .component(v)
    the map between their evaluations at v and .dual its D.
    """

    # entries[j][i] = tuple of (coeff, Path), coeff stored as a field
    # element; __dict__ holds the cached src, dst and dual
    __slots__ = ("quiver", "field", "side", "domain", "codomain", "entries",
                 "__dict__")
    _fields = __slots__[:-1]

    def __init__(self, quiver: QuiverBase, field: Field, side: str,
                 domain: tuple, codomain: tuple, entries: tuple):
        if side not in ("proj", "inj"):
            raise ParseError("", "side must be 'proj' or 'inj'")
        if not all(map(quiver.contains, domain + codomain)):
            for name, verts in (("domain", domain), ("codomain", codomain)):
                for i, v in enumerate(verts):
                    _inside(quiver, v, f"/{name}/{i}")
        if len(entries) != len(codomain):
            raise ParseError("/entries", "row count != codomain length")
        rows = []
        for j, row in enumerate(entries):
            if len(row) != len(domain):
                raise ParseError(f"/entries/{j}",
                                 "column count != domain length")
            cells = []
            for i, combo in enumerate(row):
                cell = []
                for k, (c, p) in enumerate(combo):
                    if p.src != codomain[j] or p.dst != domain[i]:
                        raise ParseError(f"/entries/{j}/{i}", f"entry path "
                                         f"must run codomain[{j}] ~> domain[{i}]")
                    try:  # the pointer is formatted on a refusal only
                        c = field.scalar(c)
                    except ParseError as e:
                        raise ParseError(f"/entries/{j}/{i}/{k}/0",
                                         e.message) from None
                    cell.append((c, p))
                cells.append(tuple(cell))
            rows.append(tuple(cells))
        Record.__init__(self, quiver, field, side, domain, codomain,
                        tuple(rows))

    @classmethod
    def _derived(cls, *values) -> "PathMatrix":
        """Transformed from a checked one (dual, Nakayama): not checked."""
        Record.__init__(pm := object.__new__(cls), *values)
        return pm

    def depth_bound(self) -> int:
        return max((_loc_depth(self.quiver, v)
                    for v in self.domain + self.codomain), default=0)

    @cached_property
    def src(self) -> "Rep":
        return sum_of(self.quiver, self.field, self.side, self.domain)

    @cached_property
    def dst(self) -> "Rep":
        return sum_of(self.quiver, self.field, self.side, self.codomain)

    @cached_property
    def dual(self) -> "PathMatrix":
        """D of this map: over the opposite quiver, where D I_x = P_x and
        D P_x = I_x, the map of the other side from codomain to domain,
        each entry path reversed."""
        entries = tuple(tuple(tuple((c, reverse_path(p)) for (c, p) in row[i])
                              for row in self.entries)
                        for i in range(len(self.domain)))
        return PathMatrix._derived(self.quiver.opposite(), self.field,
                                   "inj" if self.side == "proj" else "proj",
                                   self.codomain, self.domain, entries)

    def component(self, v) -> Mat:
        """The map (⊕ over domain)(v) -> (⊕ over codomain)(v); on the inj
        side the transpose of the dual's component."""
        if self.side == "inj":
            return self.dual.component(v).transpose()
        q, F = self.quiver, self.field
        dom_b = proj_sum_basis(q, self.domain, v)
        cod_b = proj_sum_basis(q, self.codomain, v)
        index = {(j, p.arrows): r for r, (j, p) in enumerate(cod_b)}
        rows = [[F.zero] * len(dom_b) for _ in cod_b]
        for c, (i, p) in enumerate(dom_b):
            for j in range(len(self.codomain)):
                for (coeff, e) in self.entries[j][i]:
                    # codomain[j] ~> domain[i] ~> v
                    r = index[(j, e.arrows + p.arrows)]
                    rows[r][c] = F.add(rows[r][c], coeff)
        return Mat(F, len(cod_b), len(dom_b), tuple(tuple(r) for r in rows))

    def describe(self) -> str:
        q, s = self.quiver, "P" if self.side == "proj" else "I"
        return (f"{s}[{','.join(q.vertex_str(x) for x in self.domain)}] -> "
                f"{s}[{','.join(q.vertex_str(x) for x in self.codomain)}]")

    def spec_dict(self) -> dict:
        return _pm_dict(self)


def path_matrix(quiver, field, side, domain, codomain, entries) -> PathMatrix:
    return PathMatrix(quiver, field, side, tuple(domain), tuple(codomain),
                      entries)


def proj_sum_basis(q: QuiverBase, verts: Sequence, v) -> list:
    """Basis of (⊕_i P_{verts[i]})(v): pairs (i, path verts[i] ~> v); over
    the opposite quiver, the basis of (⊕_i I_{verts[i]})(v) over q."""
    return [(i, p) for i, a in enumerate(verts) for p in q.paths_between(a, v)]


def reverse_path(p: Path) -> Path:
    """p read over the opposite quiver: the same arrows, reversed."""
    return Path(p.dst, p.src, tuple(Arrow(a.dst, a.src, a.label)
                                    for a in reversed(p.arrows)))


def sum_of(quiver, field, side: str, verts) -> "Rep":
    """⊕ P_v ('proj') or ⊕ I_v ('inj') over verts, in order; 0 when empty.
    Its basis at each vertex is proj_sum_basis, over the opposite quiver
    for 'inj'."""
    kind = ProjRep if side == "proj" else InjRep
    return direct_sum(*[kind(quiver, field, v) for v in verts]) if verts \
        else ZeroRep(quiver, field)


# ---------------------------------------------------------------------------
# representation nodes


class Rep:
    """Base class; subclasses implement _dim_at/_mat_at and structure hooks."""

    def __init__(self, quiver: QuiverBase, field: Field):
        self.quiver = quiver
        self.field = field
        self._dims: dict = {}
        self._mats: dict = {}
        self._memo: dict = {}

    def cached(self, key, compute):
        """The derived invariant named key, computed by compute() on first
        use and kept for the lifetime of this object."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    # -- evaluation --
    def dim(self, v) -> int:
        try:  # a cached vertex was checked on first use
            d = self._dims.get(v)
        except TypeError:  # an unhashable id is no vertex
            d = None
        if d is None:
            if not self.quiver.contains(v):
                raise EvalRangeError(f"vertex {v!r} outside the quiver")
            d = self._dims[v] = self._dim_at(v)
        return d

    def mat(self, a: Arrow) -> Mat:
        m = self._mats.get(a)
        if m is None:
            if self._zero_domain(a):  # every check in _mat_at is vacuous
                m = self._zero_mat(a)
            else:
                m = self._mat_at(a)
                if m.rows != self.dim(a.dst) or m.cols != self.dim(a.src):
                    raise AssertionError(f"bad matrix shape for {a}")
            self._mats[a] = m
        return m

    def _zero_domain(self, a: Arrow) -> bool:
        """Whether _mat_at's domain at a is 0 (a zero codomain is read)."""
        return not self.dim(a.src)

    def mat_path(self, p: Path) -> Mat:
        if not p.arrows:
            return Mat.identity(self.field, self.dim(p.src))
        m = self.mat(p.arrows[0])
        for a in p.arrows[1:]:
            m = self.mat(a).mul(m)
        return m

    # -- structure --
    def _dim_at(self, v) -> int:
        raise NotImplementedError

    def _mat_at(self, a: Arrow) -> Mat:
        raise NotImplementedError

    def support(self) -> VertexSet:
        """A vertex set guaranteed to contain the support (end_profile
        relies on it)."""
        raise NotImplementedError

    def _extra_depth(self) -> int:
        """Depth past which this node's data are periodic beyond what its
        support hint shows: 0 for the leaves.  S_a and explicit data vanish
        past their deepest vertex, a thin region is 1 with identity maps on
        each tail from its start, and P_a(v) has the paths a ~> v as basis,
        each path to depth t + 1 of a tail, past the depth of a and of its
        closure's explicit part, being one to depth t followed by the ray
        arrow, in order; I_a is P_a over the opposite quiver."""
        return 0

    def structural_depth(self) -> int:
        return self.cached("structural_depth", self._structural_depth)

    def _structural_depth(self) -> int:
        """The depth past which the dims and maps on bands t and t + 1 of
        every end repeat for all t: the node's _extra_depth, and the probe
        depth of its support hint, past which the support is whole tails."""
        return max(self._extra_depth(), _hint(self).probe_depth())

    def describe(self) -> str:
        return type(self).__name__

    def spec_dict(self) -> dict:
        raise NotImplementedError(f"{type(self).__name__} has no JSON form")

    def _zero_mat(self, a: Arrow) -> Mat:
        return Mat.zeros(self.field, self.dim(a.dst), self.dim(a.src))


def same_ambient(a: Rep, b: Rep, what: str):
    """Refuse two objects over different quivers or fields."""
    if a.quiver != b.quiver or a.field != b.field:
        raise ValueError(f"{what} live over different quivers/fields")


def _fitted(m: Mat, rows: int, cols: int) -> Optional[Mat]:
    """m as a rows x cols map, or None for another shape; a matrix with no
    rows is the zero map into 0 whatever its column count, as the JSON []
    that writes it names none."""
    if (m.rows, m.cols) == (rows, cols):
        return m
    return Mat.zeros(m.field, 0, cols) if m.rows == 0 == rows else None


class ThinRep(Rep):
    """One-dimensional on a region, identity on arrows inside the region."""

    def __init__(self, quiver, field, region: VertexSet):
        super().__init__(quiver, field)
        self.region = region

    def _dim_at(self, v):
        return 1 if self.region.contains(v) else 0

    def _mat_at(self, a):
        if self.region.contains(a.src) and self.region.contains(a.dst):
            return Mat(self.field, 1, 1, ((self.field.one,),))
        return self._zero_mat(a)

    def support(self):
        return self.region

    def describe(self):
        return f"Thin{self.region.describe()}"

    def spec_dict(self):
        return {"thin": _region_dict(self.region)}


class ExplicitFdRep(Rep):
    def __init__(self, quiver, field, dims: dict, mats: dict):
        """dims: vertex -> int >= 0; mats: arrow label -> Mat (only nonzero
        ones), each over field, labelling an arrow at a vertex of dims and
        shaped dims(dst) x dims(src) for it (see _fitted)."""
        super().__init__(quiver, field)
        self.dims = dict(dims)
        self.mats = dict(mats)
        for lbl, m in self.mats.items():
            if not isinstance(m, Mat) or m.field != field:
                raise ParseError(f"/mats/{lbl}", f"matrix for arrow {lbl} "
                                                 f"is not a Mat over {field!r}")
        for v, d in self.dims.items():
            _inside(quiver, v, "/dims")
            if type(d) is not int or d < 0:
                raise ParseError(f"/dims/{quiver.vertex_str(v)}",
                                 f"dim must be an integer >= 0, got {d!r}")
        at = set()  # the labels of the arrows at a vertex of dims
        for v in self.dims:
            for a in quiver.out_arrows(v) + quiver.in_arrows(v):
                at.add(a.label)
                m = self.mats.get(a.label)
                if m is None:
                    continue
                shape = (self._dim_at(a.dst), self._dim_at(a.src))
                self.mats[a.label] = _fitted(m, *shape)
                if self.mats[a.label] is None:
                    raise ParseError(f"/mats/{a.label}",
                                     f"matrix is {m.rows}x{m.cols}, arrow "
                                     f"{a.label!r} needs {shape[0]}x{shape[1]}")
        lbl = next((lbl for lbl in self.mats if lbl not in at), None)
        if lbl is not None:
            raise ParseError(f"/mats/{lbl}",
                             f"no arrow {lbl!r} at a vertex of dims")

    def _dim_at(self, v):
        return self.dims.get(v, 0)

    def _mat_at(self, a):
        m = self.mats.get(a.label)
        return self._zero_mat(a) if m is None else m

    def support(self):
        return VertexSet.make(self.quiver,
                              {v for v, d in self.dims.items() if d > 0})

    def describe(self):
        q = self.quiver
        items = sorted(self.dims.items(), key=lambda kv: vkey(kv[0]))
        inner = ",".join(f"{q.vertex_str(v)}:{d}" for v, d in items if d > 0)
        return f"Fd[{inner}]"

    def spec_dict(self):
        q = self.quiver
        return {"explicit_fd": {
            "dims": {q.vertex_str(v): d for v, d in sorted(
                self.dims.items(), key=lambda kv: vkey(kv[0])) if d > 0},
            "mats": {lbl: _mat_json(m) for lbl, m in sorted(self.mats.items())
                     if not m.is_zero()},
        }}


class DirectSumRep(Rep):
    def __init__(self, parts: Sequence[Rep]):
        parts = tuple(parts)
        if not parts:
            raise ValueError("use ZeroRep for the empty sum")
        super().__init__(parts[0].quiver, parts[0].field)
        for p in parts:
            same_ambient(p, self, "summands")
        self.parts = parts

    def _dim_at(self, v):
        return sum(p.dim(v) for p in self.parts)

    def _mat_at(self, a):
        blocks = [[p.mat(a) if i == j else None for j in range(len(self.parts))]
                  for i, p in enumerate(self.parts)]
        return block_matrix(self.field, blocks,
                            [p.dim(a.dst) for p in self.parts],
                            [p.dim(a.src) for p in self.parts])

    def support(self):
        return reduce(lambda s, p: s.union(p.support()), self.parts,
                      VertexSet.make(self.quiver, ()))

    def _extra_depth(self):
        """The deepest summand's structural depth: a sum is periodic where
        every summand is.  The union of the supports does not show it, since
        a tail of one summand absorbs the deeper explicit vertices and tail
        starts of another."""
        return max(p.structural_depth() for p in self.parts)

    def describe(self):
        return " + ".join(p.describe() for p in self.parts)

    def spec_dict(self):
        return {"sum": [p.spec_dict() for p in self.parts]}


class DualRep(Rep):
    """Pointwise dual over the opposite quiver."""

    def __init__(self, base: Rep):
        super().__init__(base.quiver.opposite(), base.field)
        self.base = base

    def _dim_at(self, v):
        return self.base.dim(v)

    def _mat_at(self, a):
        orig = Arrow(a.dst, a.src, a.label)
        return self.base.mat(orig).transpose()

    def _zero_domain(self, a):  # the base reads the reversed arrow
        return not self.dim(a.dst)

    def support(self):
        s = self.base.support()
        return VertexSet(self.quiver, s.explicit, s.tails)

    def _extra_depth(self):
        """The base's: D transposes the base's maps vertex by vertex, and
        the support hint has the base's explicit part and tails."""
        return self.base._extra_depth()

    def describe(self):
        return f"D({self.base.describe()})"

    def spec_dict(self):
        return {"dual": self.base.spec_dict()}


class _VertexRep:
    """Mixin for an object named by one vertex a of the quiver: P_a, I_a or
    S_a, written with its letter and spec key."""

    def describe(self):
        return f"{self.letter}({self.quiver.vertex_str(self.vertex)})"

    def spec_dict(self):
        return {self.key: self.quiver.vertex_str(self.vertex)}


class ProjRep(_VertexRep, Rep):
    """P_a: the paths a ~> v as the basis of P_a(v)."""

    letter, key = "P", "proj"

    def __init__(self, quiver, field, a):
        super().__init__(quiver, field)
        self.vertex = _inside(quiver, a)

    def basis(self, v) -> tuple:
        return self.quiver.paths_between(self.vertex, v)

    def _dim_at(self, v):
        return len(self.basis(v))

    def _mat_at(self, a):
        """The basis path p of P_a(a.src) goes to p then a: the c-th path
        to a.src goes to the c-th basis path at a.dst that ends in a.  A
        basis is sorted by its arrows, and on an acyclic quiver no path to
        a.src extends another, so appending a keeps their order."""
        F, bw = self.field, self.basis(a.dst)
        ends = [r for r, p in enumerate(bw) if p.arrows and p.arrows[-1] == a]
        rows = [[F.zero] * len(ends) for _ in bw]
        for c, r in enumerate(ends):
            rows[r][c] = F.one
        return Mat(F, len(rows), len(ends), tuple(tuple(r) for r in rows))

    def support(self):
        return self.quiver.succ_closure(self.vertex)


class InjRep(_VertexRep, DualRep):
    """I_a = D P_a of the opposite quiver: I_a(v) has the basis of P_a(v)
    there (the reversed paths v ~> a) and its arrow maps are the transposes
    of P_a's."""

    letter, key = "I", "inj"

    def __init__(self, quiver, field, a):
        super().__init__(ProjRep(quiver.opposite(), field, a))
        self.vertex = a


class SimpleRep(_VertexRep, ExplicitFdRep):
    """S_a: k at a, zero elsewhere."""

    letter, key = "S", "simple"

    def __init__(self, quiver, field, a):
        super().__init__(quiver, field, {_inside(quiver, a): 1}, {})
        self.vertex = a


class ZeroRep(ExplicitFdRep):
    def __init__(self, quiver, field):
        super().__init__(quiver, field, {}, {})

    def describe(self):
        return "0"

    def spec_dict(self):
        return {"zero": True}


class RestrictRep(Rep):
    def __init__(self, base: Rep, region: VertexSet):
        super().__init__(base.quiver, base.field)
        self.base = base
        self.region = region

    def _dim_at(self, v):
        return self.base.dim(v) if self.region.contains(v) else 0

    def _mat_at(self, a):
        if self.region.contains(a.src) and self.region.contains(a.dst):
            return self.base.mat(a)
        return self._zero_mat(a)

    def support(self):
        return self.base.support().intersect(self.region)

    def _extra_depth(self):
        """Past the base's structural depth and the depth of the region's
        explicit part and tail starts, the region holds or misses a whole
        band of each ray, so the restriction repeats the base's data."""
        return max(self.base.structural_depth(), self.region.probe_depth())

    def describe(self):
        return f"({self.base.describe()})|{self.region.describe()}"

    def spec_dict(self):
        return {"restrict": {"rep": self.base.spec_dict(),
                             "region": _region_dict(self.region)}}


class RungFamily(Frozen):
    """Symbolic cocycle on a crossing-arrow family: coeff on every arrow
    crossing_arrow(cid, t) for t >= start.  Requires thin (1-dim) slots."""

    __slots__ = _fields = ("eid", "cid", "start", "coeff")


class GlueRep(Rep):
    """Extension middle: block triangular [[sub, cocycle], [0, quot]]."""

    def __init__(self, sub: Rep, quot: Rep, cocycle=(), families=()):
        same_ambient(sub, quot, "glue parts")
        super().__init__(sub.quiver, sub.field)
        self.sub = sub
        self.quot = quot
        q, fitted = self.quiver, []
        for i, (a, m) in enumerate(cocycle):
            if a not in q.out_arrows(a.src):
                raise ParseError(f"/cocycle/{i}/label", f"no arrow {a.label!r}")
            fitted.append((a, _fitted(m, sub.dim(a.dst), quot.dim(a.src))))
            if fitted[-1][1] is None:
                raise ParseError(
                    "", f"dimension-mismatched cocycle entry at arrow {a.label}: "
                    f"expected {sub.dim(a.dst)}x{quot.dim(a.src)}, got {m.rows}x{m.cols}")
        self.cocycle = tuple(fitted)  # (Arrow, Mat)
        self.families = tuple(
            RungFamily(f.eid, f.cid, f.start,
                       self.field.scalar(f.coeff, f"/families/{i}/3"))
            for i, f in enumerate(families))
        crossings = {(e.eid, c[0]) for e in q.ends() for c in e.crossings} \
            if self.families else ()
        # a family's slots repeat past the deepest of its start and the
        # structural depths of sub and quot, so one band past it is enough
        for i, fam in enumerate(self.families):
            if (fam.eid, fam.cid) not in crossings:
                raise ParseError(f"/families/{i}", f"no crossing {fam.cid!r} "
                                                   f"on end {fam.eid!r}")
            if type(fam.start) is not int or fam.start < 0:
                raise ParseError(f"/families/{i}/2", f"family start must be "
                                 f"an integer >= 0, got {fam.start!r}")
            depth = max(fam.start, sub.structural_depth(),
                        quot.structural_depth())
            for t in range(fam.start, depth + 2):
                a = q._crossing_arrow(fam.eid, fam.cid, t)
                if sub.dim(a.dst) != 1 or quot.dim(a.src) != 1:
                    raise ParseError(f"/families/{i}", "symbolic cocycle "
                                                       "families need thin slots")

    def cocycle_at(self, a: Arrow) -> Optional[Mat]:
        for (arr, m) in self.cocycle:
            if arr == a:
                return m
        for fam in self.families:
            loc = self.quiver.locate(a.src)
            if loc is None or loc[0] != fam.eid:
                continue
            t = loc[2]
            if t >= fam.start and self.quiver._crossing_arrow(fam.eid, fam.cid, t) == a:
                return Mat(self.field, 1, 1, ((fam.coeff,),))
        return None

    def _dim_at(self, v):
        return self.sub.dim(v) + self.quot.dim(v)

    def _mat_at(self, a):
        c = self.cocycle_at(a)
        blocks = [[self.sub.mat(a), c], [None, self.quot.mat(a)]]
        return block_matrix(self.field, blocks,
                            [self.sub.dim(a.dst), self.quot.dim(a.dst)],
                            [self.sub.dim(a.src), self.quot.dim(a.src)])

    def support(self):
        return self.sub.support().union(self.quot.support())

    def _extra_depth(self):
        """Past the structural depths of sub and quot, the deepest explicit
        cocycle arrow and the start of each rung family, every block of
        [[sub, cocycle], [0, quot]] repeats: the explicit cocycle is zero
        there, and a family puts the same coefficient on every rung from
        fam.start on."""
        d = max(self.sub.structural_depth(), self.quot.structural_depth())
        for (a, _) in self.cocycle:
            d = max(d, _loc_depth(self.quiver, a.src), _loc_depth(self.quiver, a.dst))
        for fam in self.families:
            d = max(d, fam.start)
        return d

    def describe(self):
        return f"glue({self.sub.describe()}, {self.quot.describe()})"

    def spec_dict(self):
        q = self.quiver
        return {"glue": {
            "sub": self.sub.spec_dict(),
            "quot": self.quot.spec_dict(),
            "cocycle": [{"src": q.vertex_str(a.src), "dst": q.vertex_str(a.dst),
                         "label": a.label, "mat": _mat_json(m)}
                        for (a, m) in self.cocycle],
            "families": [[f.eid, f.cid, f.start, str(f.coeff)] for f in self.families],
        }}


class KernelOfRep(Rep):
    """Kernel of a map f: a Morphism or a PathMatrix, read through .src,
    .dst, .component(v), .depth_bound(), and .dual for CokerOfRep: the
    subobject of its ambient f.src with basis kernel_span(f(v)) at v, on
    which an arrow acts by the ambient map, read at the identity rows of
    those bases, and named by a PathMatrix f's describe()/spec_dict().  It
    is the one subobject evaluator: kernels and images here, and cokernels
    through D."""

    _span = staticmethod(kernel_span)

    def __init__(self, f):
        super().__init__(f.src.quiver, f.src.field)
        self.f = f
        self.ambient = f.src

    def span(self, v):
        """(basis at v, as columns in ambient(v); its identity rows), empty
        with no component read where ambient(v) is 0."""
        return self.cached(("span", v), lambda: self._span(
            self.f.component(v)) if self.ambient.dim(v) else
            (Mat(self.field, 0, 0, ()), ()))

    def basis(self, v) -> Mat:
        return self.span(v)[0]

    def _dim_at(self, v):
        return self.basis(v).cols

    def coords(self, v, vecs: Mat, failure: str) -> Mat:
        """The coordinates in the basis at v of the columns vecs of
        ambient(v): their entries at its identity rows, checked to give
        vecs back (AssertionError failure when a column lies outside)."""
        basis, units = self.span(v)
        sol = Mat(self.field, len(units), vecs.cols,
                  tuple(vecs.entries[r] for r in units))
        if basis.mul(sol) != vecs:
            raise AssertionError(failure)
        return sol

    def _mat_at(self, a):
        return self.coords(a.dst, self.ambient.mat(a).mul(self.basis(a.src)),
                           "morphism does not commute with arrows")

    def support(self):
        return self.ambient.support()

    def _extra_depth(self):
        """Past the structural depths of f's ends and f.depth_bound(), f(v)
        repeats along every ray: a path matrix's entries are fixed paths,
        extended along the rays as the bases of P_a are, and a morphism is
        read off periodic data past its window.  The basis at v is a function
        of f(v) alone, so the bases and the solved arrow maps repeat too.  A
        cokernel, D of the kernel of f.dual, inherits this through DualRep."""
        return max(self.f.src.structural_depth(), self.f.dst.structural_depth(),
                   self.f.depth_bound())

    def describe(self):
        return f"ker({self.f.describe()})"

    def spec_dict(self):
        return {"ker_inj": self.f.spec_dict()}


class CokerOfRep(DualRep):
    """Cokernel of a map f: D of the kernel of its dual f.dual (a
    PathMatrix.dual or a Morphism.dual), so coker f(v) has the kernel basis
    of f(v)ᵀ, transposed, as its projection from f.dst(v)."""

    def __init__(self, f):
        super().__init__(KernelOfRep(f.dual))
        self.f = f

    def describe(self):
        return f"coker({self.f.describe()})"

    def spec_dict(self):
        return {"coker_proj": self.f.spec_dict()}


class ImageRep(KernelOfRep):
    """Image of a morphism f: the subobject of f.dst with the basis
    column_span(f(v)) at each vertex v.  decompose splits off the
    image of an idempotent endomorphism as a summand."""

    _span = staticmethod(column_span)

    def __init__(self, f):
        super().__init__(f)
        self.ambient = f.dst

    def describe(self):
        return f"summand({self.ambient.describe()})"

    spec_dict = Rep.spec_dict


# ---------------------------------------------------------------------------
# public constructors


def zero_rep(quiver, field=QQ) -> Rep:
    return ZeroRep(quiver, field)


def projective_at(quiver, a, field=QQ) -> Rep:
    return ProjRep(quiver, field, a)


def injective_at(quiver, a, field=QQ) -> Rep:
    return InjRep(quiver, field, a)


def simple_at(quiver, a, field=QQ) -> Rep:
    return SimpleRep(quiver, field, a)


def thin_rep(quiver, region: VertexSet, field=QQ) -> Rep:
    return ThinRep(quiver, field, region)


def explicit_fd(quiver, dims, mats=None, field=QQ) -> Rep:
    return ExplicitFdRep(quiver, field, dims, mats or {})


def direct_sum(*parts: Rep) -> Rep:
    flat = []
    for p in parts:
        if isinstance(p, DirectSumRep):
            flat.extend(p.parts)
        elif not isinstance(p, ZeroRep):
            flat.append(p)
    if not flat:
        if not parts:
            raise ValueError("empty direct sum needs an ambient quiver; use zero_rep")
        return ZeroRep(parts[0].quiver, parts[0].field)
    if len(flat) == 1:
        return flat[0]
    return DirectSumRep(flat)


def dualize(m: Rep) -> Rep:
    """The pointwise dual over the opposite quiver; one instance per object,
    so what is cached on D(m) (its presentation, say) is computed once.  Only
    a plain DualRep is undone: a cokernel, D of a kernel, keeps its name."""
    if type(m) is DualRep:
        return m.base
    return m.cached("dual", lambda: DualRep(m))


def restrict(m: Rep, region: VertexSet) -> Rep:
    return RestrictRep(m, region)


def glue_rep(sub: Rep, quot: Rep, cocycle=(), families=()) -> Rep:
    return GlueRep(sub, quot, cocycle, families)


def coker_proj(pm: PathMatrix) -> Rep:
    if pm.side != "proj":
        raise ParseError("/side",
                         "coker_proj needs a projective-side path matrix")
    return CokerOfRep(pm)


def ker_inj(pm: PathMatrix) -> Rep:
    if pm.side != "inj":
        raise ParseError("/side", "ker_inj needs an injective-side path matrix")
    return KernelOfRep(pm)


# ---------------------------------------------------------------------------
# window helpers


def dim_vector(m: Rep, verts) -> tuple:
    return tuple(m.dim(v) for v in verts)


def equal_on(m1: Rep, m2: Rep, verts) -> bool:
    """Evaluation equality: same dims and same arrow matrices on the region."""
    vs = set(verts)
    return all(m1.dim(v) == m2.dim(v) for v in vs) and all(
        m1.mat(a).entries == m2.mat(a).entries
        for a in m1.quiver.arrows_within(vs))


def incoming_stack(m: Rep, v) -> Mat:
    """The hstack of M(α) over the sorted incoming arrows α, none read at 0."""
    arrows = m.quiver.in_arrows(v)
    mats = [m.mat(a).entries for a in arrows] if m.dim(v) else []
    rows = tuple(sum(r, ()) for r in zip(*mats)) if mats else ((),) * m.dim(v)
    return Mat(m.field, m.dim(v), sum(m.dim(a.src) for a in arrows), rows)


# ---------------------------------------------------------------------------
# stable data along ends and class membership


class RayProfile(Record):
    """A ray's stable data; transition is None on a zero ray."""
    __slots__ = _fields = ("eid", "rid", "kind", "cutoff", "dim", "transition",
                           "status")  # status: 'zero' | 'iso' | 'other'


class CrossingProfile(Record):
    __slots__ = _fields = ("eid", "cid", "cutoff", "nonzero")


class EndProfile(Record):
    __slots__ = _fields = ("eid", "cutoff", "rays", "crossings")


def _hint(m: Rep) -> VertexSet:
    return m.cached("support", m.support)


def _ray_data(m: Rep, end, rid, t):
    """One ray's band data at depth t: its dims at depths t and t + 1 and
    the matrices of the band arrows that touch them."""
    vs, arrows, _ = end.ray_arrows(rid, t)
    return (tuple(m.dim(v) for v in vs),
            tuple(m.mat(a).entries for a in arrows))


def end_profile(m: Rep, end) -> EndProfile:
    """The stable data of m along end, read at cutoff c0 = max(structural
    depth, 2) + 1.  Every constructor is periodic past its structural depth,
    so the band data at c0 and c0 + 1 agree; that one comparison, ray by
    ray (every band arrow touches a ray vertex at depth t or t + 1), checks
    the contract, and a mismatch is an engine bug (AssertionError) naming
    the rays whose data differ.  A ray outside the hint m.support() at c0
    and c0 + 1 is zero unread, as is a crossing arrow with an end outside."""
    cutoff, hint = max(m.structural_depth(), 2) + 1, _hint(m)
    live = {r.rid for r in end.rays if hint.contains(end.vertex(r.rid, cutoff))
            or hint.contains(end.vertex(r.rid, cutoff + 1))}
    moved = [r.rid for r in end.rays if r.rid in live and
             _ray_data(m, end, r.rid, cutoff)
             != _ray_data(m, end, r.rid, cutoff + 1)]
    if moved:
        raise AssertionError(
            f"end {end.eid}: band data at depths {cutoff} and {cutoff + 1} "
            f"differ past structural depth {m.structural_depth()}; rays "
            f"changing: {', '.join(moved)}")
    rays = []
    for r in end.rays:
        d, tm, status = 0, None, "zero"
        if r.rid in live:
            d = m.dim(end.vertex(r.rid, cutoff))
            if d or m.dim(end.vertex(r.rid, cutoff + 1)):
                a = end.transition(r.rid, cutoff)
                tm = m.mat(a) if a is not None else None
                status = ("iso" if tm is not None and tm.rows == tm.cols == d
                          and is_invertible(tm) else "other")
        rays.append(RayProfile(end.eid, r.rid, r.kind, cutoff, d, tm, status))
    crossings = []
    for (cid, src, dst) in end.crossings:
        crossings.append(CrossingProfile(
            end.eid, cid, cutoff, hint.contains(end.vertex(src, cutoff))
            and hint.contains(end.vertex(dst, cutoff))
            and not m.mat(end.crossing_arrow(cid, cutoff)).is_zero()))
    return EndProfile(end.eid, cutoff, tuple(rays), tuple(crossings))


class RepClassCertificate(Frozen):
    # support: the exact support, as support_exact(m, profiles)
    __slots__ = _fields = ("verdict", "witnesses", "profiles", "support")

    def is_in_rrep(self) -> bool:
        return self.verdict in ("fd", "fp", "fc", "rrep")

    def has_presentation(self) -> bool:
        return self.verdict in ("fd", "fp")

    def has_copresentation(self) -> bool:
        return self.verdict in ("fd", "fc")

    @property
    def depth(self) -> int:
        """The stable depth: the deepest profile cutoff, 0 with no ends."""
        return max([p.cutoff for p in self.profiles], default=0)


def joint_window(objs, pad: int = 2):
    """(window, depth): the union of the certified exact supports of objs
    down to depth = (deepest stable depth + pad), sorted."""
    certs = [classify_membership(m) for m in objs]
    depth = max([c.depth for c in certs], default=0) + pad
    verts = set()
    for cert in certs:
        verts.update(cert.support.members(depth))
    return tuple(sorted(verts, key=vkey)), depth


def support_exact(m: Rep, profiles) -> VertexSet:
    """Exact support: evaluated explicit part plus certified nonzero tails;
    the hint itself if it is finite and nonzero at every vertex."""
    q, hint = m.quiver, _hint(m)
    if not hint.tails and all(map(m.dim, hint.explicit)):
        return hint
    depth = max([p.cutoff for p in profiles], default=0)
    expl = {v for v in hint.members(depth) if m.dim(v) > 0}
    tails = []
    for p in profiles:
        for r in p.rays:
            if r.dim > 0:
                tails.append((r.eid, r.rid, r.cutoff + 1))
    return VertexSet.make(q, expl, tails)


def classify_membership(m: Rep) -> RepClassCertificate:
    return m.cached("membership", lambda: _classify(m))


def _classify(m: Rep) -> RepClassCertificate:
    q = m.quiver
    profiles = tuple(end_profile(m, e) for e in q.ends())
    return _certify(q, profiles, support_exact(m, profiles))


def _certify(q, profiles, supp) -> RepClassCertificate:
    witnesses = []

    bad = [r for p in profiles for r in p.rays if r.kind == "bad" and r.dim > 0]
    other = [r for p in profiles for r in p.rays if r.status == "other"]
    cross = [c for p in profiles for c in p.crossings if c.nonzero]

    if bad:
        sq = classify_subquiver(supp)
        witnesses.extend(sq.witnesses)
        for r in bad:
            witnesses.append(
                f"support runs along ray {r.eid}/{r.rid} with no projective or "
                f"injective direction (stable dim {r.dim} from depth {r.cutoff})")
        return RepClassCertificate("notInRrep", tuple(witnesses), profiles, supp)
    if other:
        for r in other:
            witnesses.append(
                f"stable transition along ray {r.eid}/{r.rid} is not invertible; "
                f"the tail splits into infinitely many summands")
        return RepClassCertificate("notInRrep", tuple(witnesses), profiles, supp)
    if cross:
        for c in cross:
            a = q._crossing_arrow(c.eid, c.cid, c.cutoff)
            base = a.label.replace(str(c.cutoff), "n")
            witnesses.append(
                f"nonzero gluing arrows {base} for all n >= {c.cutoff} "
                f"(family {c.eid}/{c.cid}, checked at depths {c.cutoff},{c.cutoff+1})")
        return RepClassCertificate("notInRrep", tuple(witnesses), profiles, supp)

    kinds = {r.kind for p in profiles for r in p.rays if r.dim > 0}
    if not kinds:
        verdict = "fd"
    elif kinds == {"P"}:
        verdict = "fp"
    elif kinds == {"I"}:
        verdict = "fc"
    else:
        verdict = "rrep"
    return RepClassCertificate(verdict, (), profiles, supp)


# ---------------------------------------------------------------------------
# the floor of a stable tail


def _shrunk_tail_start(m: Rep, prof: RayProfile, floor: int) -> int:
    """Walk a stable ray down: smallest t >= floor with periodic band data."""
    q = m.quiver
    end = q.end(prof.eid)
    stable_dim = prof.dim
    stable_tr = prof.transition.entries if prof.transition is not None else None
    t = prof.cutoff
    while t > floor:
        s = t - 1
        if m.dim(end.vertex(prof.rid, s)) != stable_dim:
            break
        a = end.transition(prof.rid, s)
        tr = m.mat(a).entries if a is not None else None
        if tr != stable_tr:
            break
        t = s
    return t


def is_doubly_infinite(m: Rep) -> bool:
    cert = classify_membership(m)
    if not cert.is_in_rrep():
        raise ValueError("not an rrep object")
    return cert.verdict == "rrep"


# ---------------------------------------------------------------------------
# serialization helpers (shared with io)


def _mat_json(m: Mat) -> list:
    return [[str(x) for x in row] for row in m.entries]


def _region_dict(region: VertexSet) -> dict:
    q = region.quiver
    return {"explicit": [q.vertex_str(v) for v in sorted(region.explicit, key=vkey)],
            "tails": [[eid, rid, t0] for (eid, rid, t0) in region.tails]}


def _path_dict(q, p: Path) -> dict:
    return {"src": q.vertex_str(p.src), "arrows": [a.label for a in p.arrows]}


def _pm_dict(pm: PathMatrix) -> dict:
    q = pm.quiver
    return {"side": pm.side,
            "domain": [q.vertex_str(v) for v in pm.domain],
            "codomain": [q.vertex_str(v) for v in pm.codomain],
            "entries": [[[[str(c), _path_dict(q, p)] for (c, p) in combo]
                         for combo in row] for row in pm.entries]}
