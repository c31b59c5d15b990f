"""Quivers: finite user quivers and the infinite presets.

Infinite quivers exist only as presets (line, ray_in, ray_out, zigzag,
ladder): each is one entry of the _PRESETS table, read by PresetQuiver.
Each preset exposes its "ends": periodic bands of vertices going to
infinity, with each ray in a band tagged by how a thin tail on it behaves
(P = projective direction, I = injective direction, bad = neither).  All
symbolic reasoning about infinite supports goes through this band structure.

Vertices are ints for integer-indexed presets, ("a", n)/("b", n) pairs for
the ladder, and arbitrary labels for finite quivers.  All enumerations sort
by vkey so results are deterministic.

Each quiver instance memoizes its closures per vertex (one walk serves
every quiver: the explicit vertices it meets plus the tails of the rays it
steps onto) and its path bases x ~> y (immutable tuples, built from the
bases x ~> u of the arrows' sources u into y, so a sweep out of x holds
each path once); a preset or an opposite also memoizes its arrows per
vertex, and opposite() is one instance per quiver.  There is one path walk:
the bases u ~> y that an injective I_y reads are the paths y ~> u of the
opposite quiver, memoized there.
"""
from __future__ import annotations

from functools import partial

from .record import Frozen, ParseError, Record


def vkey(v):
    """Total order on vertex identifiers across all supported shapes."""
    if isinstance(v, bool):
        raise TypeError("bool is not a vertex")
    if isinstance(v, int):
        return (0, "", v)
    if isinstance(v, str):
        return (1, v, 0)
    if isinstance(v, tuple) and len(v) == 2 and isinstance(v[0], str) and isinstance(v[1], int):
        return (2, v[0], v[1])
    raise TypeError(f"unsupported vertex identifier: {v!r}")


class Arrow(Record):
    """An arrow src -> dst named label; a value like Mat, hashed once (arrows
    key every arrow-matrix cache) and sorted by vkey of its ends, then label,
    that sort key computed when first read and then kept with the arrow."""

    __slots__ = ("src", "dst", "label", "_hash", "_key")
    _fields = __slots__[:-2]

    def __init__(self, src, dst, label: str):
        self.src = src
        self.dst = dst
        self.label = label
        self._hash = hash((src, dst, label))
        self._key = None

    def __hash__(self):
        return self._hash

    def key(self):
        if self._key is None:
            self._key = (vkey(self.src), vkey(self.dst), self.label)
        return self._key

    def __lt__(self, other):
        return self.key() < other.key()


class Path(Frozen):
    """Directed path; arrows listed in traversal order.  Empty = trivial path."""

    __slots__ = _fields = ("src", "dst", "arrows")

    def __init__(self, src, dst, arrows: tuple = ()):
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "arrows", arrows)

    @property
    def length(self):
        return len(self.arrows)

    def key(self):
        return tuple(a.key() for a in self.arrows)


_HOP_BUDGET = ("path search exceeded hop budget; "
               "interval-finiteness violated or cap too small")


class QuiverBase(Frozen):
    """Shared behaviour; concrete quivers implement the local arrow structure.
    A quiver is a value of its fields; == and hash ignore the derived data."""

    __slots__ = ("_outs", "_ins", "_memo", "_end_data", "__weakref__")
    is_finite = False

    def __init__(self, *values):
        Record.__init__(self, *values)
        # derived data, kept for the lifetime of this instance: the arrows
        # out of and into each vertex asked about, and everything else.  Only
        # a memoized opposite refers back to the quiver, so a dropped quiver
        # is otherwise freed at once with its memo, not by the cyclic GC.
        object.__setattr__(self, "_outs", {})
        object.__setattr__(self, "_ins", {})
        object.__setattr__(self, "_memo", {})
        # (eid, rays, crossings) of each end
        object.__setattr__(self, "_end_data", ())

    # ---- local structure ----
    def contains(self, v) -> bool:
        raise NotImplementedError

    def out_arrows(self, v):
        outs = self._outs
        if v not in outs:
            outs[v] = self._arrows(v, True)
        return list(outs[v])

    def in_arrows(self, v):
        ins = self._ins
        if v not in ins:
            ins[v] = self._arrows(v, False)
        return list(ins[v])

    def _arrows(self, v, out):
        """The arrows out of (out) or into v, sorted."""
        raise NotImplementedError

    def arrows_within(self, verts):
        """The arrows with both ends in verts, sorted."""
        vs = set(verts)
        return sorted((a for v in vs for a in self.out_arrows(v) if a.dst in vs),
                      key=Arrow.key)

    def opposite(self) -> "QuiverBase":
        if "opposite" not in self._memo:
            self._memo["opposite"] = OppositeQuiver(self)
        return self._memo["opposite"]

    # ---- ends (empty for finite quivers) ----
    def ends(self):
        return tuple(End(self, *e) for e in self._end_data)

    def end(self, eid):
        for e in self.ends():
            if e.eid == eid:
                return e
        raise KeyError(eid)

    def locate(self, v):
        """(eid, rid, depth) if v sits on an end ray, else None."""
        return None

    # ---- closures ----
    def _reach_test(self, v):
        """Predicate w -> (v reaches w)."""
        s = self.succ_closure(v)
        return s.contains if s.tails else s.explicit.__contains__

    def succ_closure(self, v) -> "VertexSet":
        """v and every vertex reached from it along the arrows (against
        them, over the opposite quiver).  A step onto a P ray, which runs
        away in the walk's direction, records the tail of that ray from
        there and walks no further: on every preset, the arrows out of such
        a vertex go one step deeper along its ray."""
        key = ("closure", v)
        if key in self._memo:
            return VertexSet(self, *self._memo[key])
        runs_away = {(e.eid, r.rid) for e in self.ends() for r in e.rays
                     if r.kind == "P"}
        seen, tails, stack = {v}, [], [v]
        while stack:
            u = stack.pop()
            loc = self.locate(u)
            if loc is not None and loc[:2] in runs_away:
                tails.append(loc)
                continue
            for a in self.out_arrows(u):
                w = a.dst
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        s = VertexSet.make(self, seen, tails)
        self._memo[key] = (s.explicit, s.tails)
        return s

    # ---- paths ----
    def _pathlen_cap(self, x, y) -> int:
        """A bound on the length of every path x ~> y."""
        raise NotImplementedError

    def paths_between(self, x, y) -> tuple:
        """All paths x ~> y, canonically ordered (trivial path first).

        The bases x ~> u on the way are memoized too (P(x) at each vertex),
        so a sweep out of x holds each path once; a sweep into y (I(y) at
        each vertex) is the sweep out of y on the opposite quiver.  The cap
        (_pathlen_cap) bounds every path x ~> y, so only a miss reads it."""
        key = ("paths", x, y)
        if key not in self._memo:
            if not (self.contains(x) and self.contains(y)):
                raise ValueError(f"vertex outside quiver: {x!r} or {y!r}")
            cap = self._pathlen_cap(x, y)
            self._fill_paths(x, y, cap)
            if self._memo[key][1] > cap:
                raise ValueError(_HOP_BUDGET)
        return self._memo[key][0]

    def _fill_paths(self, x, y, cap):
        """Memoize (basis, longest length) of x ~> y and of each missing basis
        x ~> u on the way: the trivial path if u = x, plus each path
        x ~> a.src then a, over the arrows a into u whose source x reaches.
        The work stack finishes those sources before u, so long chains need
        no recursion.  Each item carries its number of hops back from y, a
        lower bound on the length of some path x ~> y, so a cycle or an
        unbounded interval stops at the cap before any basis is built."""
        memo, reach = self._memo, self._reach_test(x)
        todo = [(y, 0, None)]
        while todo:
            u, hops, arrows = todo.pop()
            if ("paths", x, u) in memo:
                continue
            if hops > cap:
                raise ValueError(_HOP_BUDGET)
            if arrows is None:
                arrows = [a for a in self.in_arrows(u) if reach(a.src)]
                todo += [(u, hops, arrows)] + [(a.src, hops + 1, None)
                                               for a in arrows]
                continue
            paths = [Path(x, x)] if u == x else []
            for a in arrows:
                paths += [Path(x, u, p.arrows + (a,))
                          for p in memo["paths", x, a.src][0]]
            if len(paths) > 1:
                paths.sort(key=Path.key)
            memo["paths", x, u] = (tuple(paths),
                                   max((p.length for p in paths), default=0))

    def has_left_infinite_path(self) -> bool:
        return any(r.kind == "I" for e in self.ends() for r in e.rays)

    def has_right_infinite_path(self) -> bool:
        return any(r.kind == "P" for e in self.ends() for r in e.rays)

    # ---- formatting ----
    def vertex_str(self, v) -> str:
        return str(v)

    def parse_vertex(self, s: str):
        raise NotImplementedError

    def spec_dict(self) -> dict:
        raise NotImplementedError


class Ray(Frozen):
    __slots__ = _fields = ("rid", "kind")  # kind: 'P' | 'I' | 'bad'


class End:
    """One periodic infinite direction of a preset quiver.  What it derives
    from the arrows at a depth is memoized on the quiver, as arrows and
    tuples only, so the memo never refers back to the quiver."""

    def __init__(self, quiver, eid, rays, crossings=()):
        self.quiver = quiver
        self.eid = eid
        self.rays = tuple(rays)
        self.crossings = tuple(crossings)  # (cid, src_rid, dst_rid)

    def vertex(self, rid, t):
        return self.quiver._end_vertex(self.eid, rid, t)

    def band(self, t):
        return tuple(self.vertex(r.rid, t) for r in self.rays)

    def band_arrows(self, t) -> tuple:
        """Arrows with both endpoints inside bands t and t+1."""
        key, memo = ("band", self.eid, t), self.quiver._memo
        if key not in memo:
            memo[key] = tuple(self.quiver.arrows_within(
                self.band(t) + self.band(t + 1)))
        return memo[key]

    def ray_arrows(self, rid, t) -> tuple:
        """(vs, arrows, transition): ray rid's vertices at depths t and
        t + 1, the band arrows at depth t that touch them, and the unique
        arrow between the two, or None."""
        key, memo = ("ray", self.eid, rid, t), self.quiver._memo
        if key not in memo:
            vs = (self.vertex(rid, t), self.vertex(rid, t + 1))
            arrows = tuple(a for a in self.band_arrows(t)
                           if a.src in vs or a.dst in vs)
            memo[key] = vs, arrows, next(
                (a for a in arrows if {a.src, a.dst} == set(vs)), None)
        return memo[key]

    def transition(self, rid, t):
        return self.ray_arrows(rid, t)[2]

    def crossing_arrow(self, cid, t) -> Arrow:
        return self.quiver._crossing_arrow(self.eid, cid, t)


# ---------------------------------------------------------------------------
# finite quivers


class FiniteQuiver(QuiverBase):
    __slots__ = _fields = ("vertices", "arrows")
    is_finite = True
    name = "finite"

    def __init__(self, vertices: tuple, arrows: tuple):
        super().__init__(vertices, arrows)
        seen = set()
        outs = {v: [] for v in vertices}
        ins = {v: [] for v in vertices}
        for a in sorted(arrows, key=Arrow.key):
            if a.label in seen:
                raise ParseError("/arrows", f"duplicate arrow label {a.label}")
            seen.add(a.label)
            if a.src not in outs or a.dst not in outs:
                raise ParseError("/arrows",
                                 f"arrow {a.label} endpoint outside vertex set")
            outs[a.src].append(a)
            ins[a.dst].append(a)
        # arrows by source and by target, sorted
        object.__setattr__(self, "_outs", outs)
        object.__setattr__(self, "_ins", ins)
        # interval-finiteness requires acyclicity: iterative depth-first
        # search, color 1 while a vertex is on the stack, 2 once finished
        color = {}
        for root in vertices:
            if root in color:
                continue
            color[root] = 1
            stack = [(root, iter(outs[root]))]
            while stack:
                v, nxt = stack[-1]
                for a in nxt:
                    w = a.dst
                    c = color.get(w)
                    if c == 1:
                        raise ParseError("/arrows", "quiver has an oriented "
                                         "cycle; only interval-finite "
                                         "quivers are supported")
                    if c is None:
                        color[w] = 1
                        stack.append((w, iter(outs[w])))
                        break
                else:
                    color[v] = 2
                    stack.pop()

    @staticmethod
    def build(vertices, arrows) -> "FiniteQuiver":
        """arrows: iterable of (src, dst) or (src, dst, label)."""
        vs = tuple(sorted(vertices, key=vkey))
        out = []
        counts = {}
        for spec in arrows:
            if len(spec) == 2:
                s, d = spec
                k = counts.get((s, d), 0)
                counts[(s, d)] = k + 1
                lbl = f"{s}>{d}" + (f"#{k}" if k else "")
            else:
                s, d, lbl = spec
            out.append(Arrow(s, d, str(lbl)))
        return FiniteQuiver(vs, tuple(sorted(out)))

    def contains(self, v):
        try:
            return v in self._outs
        except TypeError:  # an unhashable id is no vertex
            return False

    def out_arrows(self, v):
        return list(self._outs.get(v, ()))

    def in_arrows(self, v):
        return list(self._ins.get(v, ()))

    def _pathlen_cap(self, x, y):
        return len(self.vertices) + 1

    def parse_vertex(self, s):
        for v in self.vertices:
            if self.vertex_str(v) == s:
                return v
        raise ValueError(f"unknown vertex {s!r}")

    def spec_dict(self):
        return {"vertices": [self.vertex_str(v) for v in self.vertices],
                "arrows": [[self.vertex_str(a.src), self.vertex_str(a.dst), a.label]
                           for a in self.arrows]}


def linear_quiver(n: int) -> FiniteQuiver:
    """Type A_n with linear orientation 1 -> 2 -> ... -> n."""
    return FiniteQuiver.build(range(1, n + 1), [(i, i + 1) for i in range(1, n)])


def kronecker_quiver() -> FiniteQuiver:
    return FiniteQuiver.build([1, 2], [(1, 2, "alpha"), (1, 2, "beta")])


def ar_category_kind(q: QuiverBase) -> str:
    left = not q.has_right_infinite_path()
    right = not q.has_left_infinite_path()
    if left and right:
        return "both"
    if left:
        return "left"
    if right:
        return "right"
    return "neither"


# ---------------------------------------------------------------------------
# infinite presets


# Each preset as data.  An end lists its rays as (rid, kind, place, tail):
# the vertex at depth t is place[0] * t + place[1], or the pair (rid, t)
# when place is None; tail is the text of the ray from depth t on, given t
# and v, the vertex there.  step(v) and back(v) name the far ends of the
# arrows out of and into v, in vkey order; those outside the preset are
# dropped, and an arrow is labelled "src>dst".  crossings lists per end
# the arrows (cid, src rid, dst rid) that join two rays at the same depth.
_PRESETS = {
    "line": {  # Z, arrows n+1 -> n
        "ends": {"neg": [("v", "P", (-1, 0), "n <= {v}")],
                 "pos": [("v", "I", (1, 1), "n >= {v}")]},
        "step": lambda v: (v - 1,),
        "back": lambda v: (v + 1,)},
    "ray_out": {  # N, arrows n -> n+1
        "ends": {"inf": [("v", "P", (1, 0), "n >= {v}")]},
        "step": lambda v: (v + 1,),
        "back": lambda v: (v - 1,)},
    "ray_in": {  # N, arrows n+1 -> n: ... -> 2 -> 1 -> 0
        "ends": {"inf": [("v", "I", (1, 0), "n >= {v}")]},
        "step": lambda v: (v - 1,),
        "back": lambda v: (v + 1,)},
    "zigzag": {  # N, odd vertices are sources: 1->0, 1->2, 3->2, 3->4, ...
        "ends": {"inf": [("even", "bad", (2, 0), "even n >= {v}"),
                         ("odd", "bad", (2, 1), "odd n >= {v}")]},
        "step": lambda v: (v - 1, v + 1) if v % 2 else (),
        "back": lambda v: () if v % 2 else (v - 1, v + 1)},
    "ladder": {  # a_n, b_n (n in N): a_{n+1} -> a_n, b_n -> b_{n+1}, a_n -> b_n
        "ends": {"inf": [("a", "I", None, "a_n, n >= {t}"),
                         ("b", "P", None, "b_n, n >= {t}")]},
        "crossings": {"inf": [("rung", "a", "b")]},
        "step": lambda v: ((("a", v[1] - 1), ("b", v[1])) if v[0] == "a"
                           else (("b", v[1] + 1),)),
        "back": lambda v: ((("a", v[1] + 1),) if v[0] == "a"
                           else (("a", v[1]), ("b", v[1] - 1)))},
}


class PresetQuiver(QuiverBase):
    """The infinite preset named by its _PRESETS entry."""

    __slots__ = ("name", "_spec", "_rays", "_places", "_tagged")
    _fields = ("name",)

    def __init__(self, name: str):
        super().__init__(name)
        spec = _PRESETS[name]
        rays = {(eid, rid): (place, tail)
                for eid, rs in spec["ends"].items()
                for rid, _, place, tail in rs}
        crossings = spec.get("crossings", {})
        object.__setattr__(self, "_spec", spec)
        object.__setattr__(self, "_rays", rays)
        object.__setattr__(self, "_end_data", tuple(
            (eid, [Ray(rid, kind) for rid, kind, _, _ in rs],
             crossings.get(eid, ()))
            for eid, rs in spec["ends"].items()))
        # (eid, rid, slope, offset) of each ray of integer vertices
        object.__setattr__(self, "_places", tuple(
            (eid, rid) + place for (eid, rid), (place, _) in rays.items()
            if place is not None))
        # ladder-style vertices (rid, t) rather than integers
        object.__setattr__(self, "_tagged", not self._places)

    def contains(self, v):
        return self.locate(v) is not None

    def locate(self, v):
        # exact types first: a bool or a float equals and hashes like an int
        # vertex, so only a vertex of the exact type may read the memo
        if not (type(v) is tuple and len(v) == 2 and type(v[0]) is str
                and type(v[1]) is int if self._tagged else type(v) is int):
            return None
        key = ("locate", v)
        if key not in self._memo:
            self._memo[key] = self._place(v)
        return self._memo[key]

    def _place(self, v):
        if self._tagged:
            if v[1] >= 0:
                for eid, rid in self._rays:
                    if rid == v[0]:
                        return (eid, rid, v[1])
            return None
        for eid, rid, slope, offset in self._places:
            t, r = divmod(v - offset, slope)
            if not r and t >= 0:
                return (eid, rid, t)
        return None

    def _arrow(self, src, dst):
        return Arrow(src, dst, f"{self.vertex_str(src)}>{self.vertex_str(dst)}")

    def _arrows(self, v, out):
        far = [w for w in self._spec["step" if out else "back"](v)
               if self.contains(w)]
        return [self._arrow(v, w) if out else self._arrow(w, v) for w in far]

    def _pathlen_cap(self, x, y):
        return self.locate(x)[2] + self.locate(y)[2] + 4

    def _end_vertex(self, eid, rid, t):
        place = self._rays[eid, rid][0]
        return (rid, t) if place is None else place[0] * t + place[1]

    def _crossing_arrow(self, eid, cid, t):
        (src, dst), = [(s, d) for c, s, d in self.end(eid).crossings
                       if c == cid]
        return self._arrow(self._end_vertex(eid, src, t),
                           self._end_vertex(eid, dst, t))

    def _tail_str(self, eid, rid, t0):
        v = self.vertex_str(self._end_vertex(eid, rid, t0))
        return self._rays[eid, rid][1].format(v=v, t=t0)

    def vertex_str(self, v):
        return f"{v[0]}{v[1]}" if self._tagged else str(v)

    def parse_vertex(self, s):
        if self._tagged:
            if s[:1] in {rid for _, rid in self._rays} and s[1:].isdigit():
                return (s[0], int(s[1:]))
            raise ValueError(f"bad {self.name} vertex {s!r}")
        v = int(s)
        if not self.contains(v):
            raise ValueError(f"vertex {v} outside preset {self.name}")
        return v

    def spec_dict(self):
        return {"preset": self.name}


class OppositeQuiver(QuiverBase):
    __slots__ = _fields = ("base",)

    def __init__(self, base: QuiverBase):
        super().__init__(base)
        flip = {"P": "I", "I": "P", "bad": "bad"}
        object.__setattr__(self, "_end_data", tuple(
            (e.eid, [Ray(r.rid, flip[r.kind]) for r in e.rays],
             [(cid, dst, src) for (cid, src, dst) in e.crossings])
            for e in self.base.ends()))

    @property
    def name(self):
        return f"op({self.base.name})"

    @property
    def is_finite(self):
        return self.base.is_finite

    def contains(self, v):
        return self.base.contains(v)

    def _arrows(self, v, out):
        # flipped, the base's lists keep their order: by far end, then label
        base = self.base.in_arrows(v) if out else self.base.out_arrows(v)
        return [Arrow(a.dst, a.src, a.label) for a in base]

    def opposite(self):
        return self.base

    def _pathlen_cap(self, x, y):
        return self.base._pathlen_cap(y, x)

    def _end_vertex(self, eid, rid, t):
        return self.base._end_vertex(eid, rid, t)

    def _crossing_arrow(self, eid, cid, t):
        a = self.base._crossing_arrow(eid, cid, t)
        return Arrow(a.dst, a.src, a.label)

    def locate(self, v):
        return self.base.locate(v)

    def _tail_str(self, eid, rid, t0):
        return self.base._tail_str(eid, rid, t0)

    def vertex_str(self, v):
        return self.base.vertex_str(v)

    def parse_vertex(self, s):
        return self.base.parse_vertex(s)

    def spec_dict(self):
        return {"opposite": self.base.spec_dict()}

    @property
    def vertices(self):
        return self.base.vertices

    @property
    def arrows(self):
        return tuple(sorted(Arrow(a.dst, a.src, a.label) for a in self.base.arrows))


# fresh instances, each with its own memo
PRESETS = {name: partial(PresetQuiver, name) for name in _PRESETS}


# ---------------------------------------------------------------------------
# vertex sets with symbolic tails


def _inside(quiver, v, pointer=""):
    """v, refused at pointer unless it is a vertex of the quiver."""
    if not quiver.contains(v):
        raise ParseError(pointer, f"vertex {v!r} outside the quiver")
    return v


class VertexSet(Frozen):
    """Finite explicit part plus ray tails (eid, rid, from_depth)."""

    __slots__ = _fields = ("quiver", "explicit", "tails")

    @staticmethod
    def make(quiver, explicit=(), tails=()) -> "VertexSet":
        """The set of the explicit vertices and the tails (eid, rid, t0),
        normalized; an explicit vertex must lie in the quiver, or make
        refuses it at /explicit, and a tail must name a ray of an end and
        start at a depth t0 >= 0, or make refuses it at /tails/i."""
        expl, tails = set(explicit), tuple(tails)
        if not all(map(quiver.contains, expl)):
            for v in expl:
                _inside(quiver, v, "/explicit")
        best, ends = {}, {e.eid: e for e in quiver.ends()} if tails else {}
        for i, (eid, rid, t0) in enumerate(tails):
            key, end = (eid, rid), ends.get(eid)
            if key not in best and (end is None or
                                    all(r.rid != rid for r in end.rays)):
                raise ParseError(f"/tails/{i}",
                                 f"no ray {rid!r} on end {eid!r}")
            if type(t0) is not int or t0 < 0:
                raise ParseError(f"/tails/{i}/2", f"tail start must be an "
                                                  f"integer >= 0, got {t0!r}")
            best[key] = min(best.get(key, t0), t0)
        if best:  # with no tail, nothing to absorb or drop
            # absorb explicit vertices that extend a tail downward (one pass:
            # a tail reads only its start and expl, which dropping shrinks)
            for (eid, rid), t0 in best.items():
                end = ends[eid]
                while t0 > 0 and end.vertex(rid, t0 - 1) in expl:
                    t0 -= 1
                best[(eid, rid)] = t0
            # drop explicit vertices already covered by a tail
            for v in list(expl):
                loc = quiver.locate(v)
                if loc is not None:
                    eid, rid, t = loc
                    if (eid, rid) in best and t >= best[(eid, rid)]:
                        expl.discard(v)
        tails_n = tuple(sorted((eid, rid, t0) for (eid, rid), t0 in best.items()))
        return VertexSet(quiver, frozenset(expl), tails_n)

    def contains(self, v) -> bool:
        if v in self.explicit:
            return True
        loc = self.quiver.locate(v)
        if loc is None:
            return False
        eid, rid, t = loc
        return any(e == eid and r == rid and t >= t0 for (e, r, t0) in self.tails)

    @property
    def is_finite(self) -> bool:
        return not self.tails

    def members(self, depth_cap: int = 0):
        """Explicit part plus tail vertices up to depth_cap, sorted."""
        out = set(self.explicit)
        for (eid, rid, t0) in self.tails:
            end = self.quiver.end(eid)
            for t in range(t0, depth_cap + 1):
                out.add(end.vertex(rid, t))
        return sorted(out, key=vkey)

    def union(self, other: "VertexSet") -> "VertexSet":
        return VertexSet.make(self.quiver, set(self.explicit) | set(other.explicit),
                              self.tails + other.tails)

    def intersect(self, other: "VertexSet") -> "VertexSet":
        return self._where(other, lambda a, b: a and b)

    def difference(self, other: "VertexSet") -> "VertexSet":
        return self._where(other, lambda a, b: a and not b)

    def _where(self, other: "VertexSet", keep) -> "VertexSet":
        """The vertices where keep(in self, in other) holds, for a keep that
        fails on two non-members: each member of either set up to d, one
        band past both probe depths, and past d each ray by its two tails."""
        d = max(self.probe_depth(), other.probe_depth()) + 1
        expl = [v for v in {*self.members(d), *other.members(d)}
                if keep(self.contains(v), other.contains(v))]
        mine, theirs = ({t[:2] for t in s.tails} for s in (self, other))
        tails = [ray + (d + 1,) for ray in mine | theirs
                 if keep(ray in mine, ray in theirs)]
        return VertexSet.make(self.quiver, expl, tails)

    def probe_depth(self) -> int:
        depths = [t0 for (_, _, t0) in self.tails]
        for v in self.explicit:
            loc = self.quiver.locate(v)
            if loc is not None:
                depths.append(loc[2])
        return max(depths, default=0)

    def describe(self) -> str:
        q = self.quiver
        parts = [q.vertex_str(v) for v in sorted(self.explicit, key=vkey)]
        parts += [q._tail_str(eid, rid, t0) for (eid, rid, t0) in self.tails]
        return "{" + ", ".join(parts) + "}"


class SubquiverClass(Frozen):
    __slots__ = _fields = ("is_finite", "top_finite", "socle_finite",
                           "witnesses")


def _top_analysis(vset: VertexSet, many: str, one: str):
    """(top_finite, witnesses): whether vset has finitely many sources and
    reaches every vertex from them inside itself; many and one name a
    source in the witnesses.  Over the opposite quiver this is the socle
    analysis, with sinks for sources."""
    q = vset.quiver
    T = vset.probe_depth() + 2

    def boundary_free(v):
        return all(not vset.contains(a.src) for a in q.in_arrows(v))

    extremes = [v for v in vset.members(T) if boundary_free(v)]
    witnesses = []
    infinite = False
    for (eid, rid, t0) in vset.tails:
        end = q.end(eid)
        deep = end.vertex(rid, T + 1)
        if boundary_free(deep):
            infinite = True
            witnesses.append(
                f"infinitely many {many}: {q._tail_str(eid, rid, t0)}")
    if infinite:
        return False, tuple(witnesses)

    # coverage: walk from the extreme vertices inside the set
    seen = set(extremes)
    stack = list(extremes)
    deepcap = T + 3
    while stack:
        v = stack.pop()
        for a in q.out_arrows(v):
            w = a.dst
            if w in seen or not vset.contains(w):
                continue
            loc = q.locate(w)
            if loc is not None and loc[2] > deepcap:
                continue
            seen.add(w)
            stack.append(w)
    uncovered = [v for v in vset.members(deepcap) if v not in seen]
    if uncovered:
        witnesses.append(
            f"vertex {q.vertex_str(uncovered[0])} is not reachable from {one} of the subquiver")
        return False, tuple(witnesses)
    return True, tuple(witnesses)


def classify_subquiver(vset: VertexSet) -> SubquiverClass:
    topf, w1 = _top_analysis(vset, "sources", "a source")
    socf, w2 = _top_analysis(
        VertexSet(vset.quiver.opposite(), vset.explicit, vset.tails),
        "sinks", "a sink")
    return SubquiverClass(vset.is_finite, topf, socf, w1 + w2)
