"""Derived invariants are computed once per object and cached on it.

A Rep is immutable once built, so its membership certificate, structural
depth and minimal (co)presentations are kept in a per-instance memo; a
quiver likewise keeps its path bases, descendant sets and opposite.  These
tests count the work with monkeypatched bodies, not with timers, and scan
the library for caches that would outlive an object.
"""
import ast
import gc
import weakref
from pathlib import Path

import pytest

import arknit as ak
import arknit.presentations as presentations
import arknit.rep as rep
from arknit.quiver import FiniteQuiver


def test_presentations_are_memoized_per_object(a3):
    s = ak.simple_at(a3, 2)
    pres = ak.min_proj_presentation(s)
    assert ak.min_proj_presentation(s) is pres
    cop = ak.min_inj_copresentation(s)
    assert ak.min_inj_copresentation(s) is cop
    assert cop is not pres


def test_structural_depth_is_memoized(line, monkeypatch):
    m = ak.injective_at(line, 0)
    depth = m.structural_depth()

    def again(self):
        raise AssertionError("structural depth computed twice")

    monkeypatch.setattr(type(m), "_structural_depth", again)
    assert m.structural_depth() == depth


def test_separately_built_objects_share_no_memo():
    m1 = ak.projective_at(ak.linear_quiver(3), 3)
    m2 = ak.projective_at(ak.linear_quiver(3), 3)
    c1, c2 = ak.classify_membership(m1), ak.classify_membership(m2)
    p1, p2 = ak.min_proj_presentation(m1), ak.min_proj_presentation(m2)
    assert c1 is not c2 and p1 is not p2
    assert c1.verdict == c2.verdict and p1.pm.domain == p2.pm.domain
    assert m1._memo is not m2._memo
    assert not any(v is w for v in m1._memo.values()
                   for w in m2._memo.values())


@pytest.mark.parametrize("quiver, seed, depth, nodes", [
    (lambda: ak.linear_quiver(3), lambda q: ak.projective_at(q, 3), 6, 6),
    (ak.PRESETS["line"], lambda q: ak.simple_at(q, 0), 3, 14),
], ids=["A3_P3", "line_S0"])
def test_knit_computes_each_profile_and_presentation_once(
        quiver, seed, depth, nodes, monkeypatch):
    runs: dict = {}
    alive = []  # keeps counted objects alive, so no id is reused

    def counting(fn, key_of):
        def wrapper(*args):
            alive.append(args[0])
            key = key_of(*args)
            runs[key] = runs.get(key, 0) + 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(rep, "end_profile", counting(
        rep.end_profile, lambda m, end: (id(m), end.eid)))
    monkeypatch.setattr(presentations, "_min_proj_presentation", counting(
        presentations._min_proj_presentation, lambda x: (id(x), "proj")))
    monkeypatch.setattr(presentations, "_min_inj_copresentation", counting(
        presentations._min_inj_copresentation, lambda w: (id(w), "inj")))

    q = quiver()
    comp = ak.knit(seed(q), depth)
    assert len(comp.nodes) == nodes
    kinds = {key[1] for key in runs}
    assert {"proj", "inj"} <= kinds  # both presentation bodies ran
    # A3 has no ends; on the line both ends are profiled
    assert {e.eid for e in q.ends()} <= kinds
    assert {k: n for k, n in runs.items() if n > 1} == {}


def test_shared_results_are_frozen(a3):
    cert = ak.classify_membership(ak.simple_at(a3, 2))
    pres = ak.min_proj_presentation(ak.simple_at(a3, 2))
    for obj, field in ((cert, "verdict"), (pres, "pm")):
        with pytest.raises(AttributeError):
            setattr(obj, field, None)


# ---------------------------------------------------------------------------
# path bases are memoized per quiver instance


def test_repeated_paths_between_returns_the_same_tuple(kron, line):
    for q, x, y in ((kron, 1, 2), (line, 3, -1), (kron.opposite(), 2, 1)):
        basis = q.paths_between(x, y)
        assert isinstance(basis, tuple) and basis
        assert q.paths_between(x, y) is basis


def test_opposite_is_one_instance(a3, ladder):
    for q in (a3, ladder):
        assert q.opposite() is q.opposite()
        assert q.opposite().opposite() is q
    assert ak.dualize(ak.projective_at(a3, 1)).quiver is a3.opposite()


def test_dual_is_one_instance_per_object(a3, monkeypatch):
    m = ak.injective_at(a3, 2)
    assert ak.dualize(m) is ak.dualize(m)
    assert ak.dualize(ak.dualize(m)) is m
    # so the presentation of D(m) behind min_inj_copresentation(m) also
    # serves the copresentation route of Hom into m
    presented = []
    real = presentations._min_proj_presentation

    def counting(x):
        presented.append(x)
        return real(x)

    monkeypatch.setattr(presentations, "_min_proj_presentation", counting)
    cop = ak.min_inj_copresentation(m)
    hb = ak.hom_space(ak.simple_at(a3, 2), m, route="copresentation")
    assert hb.dimension == 1
    assert hb.certificate["socle"] == list(cop.pm.domain)
    assert presented == [ak.dualize(m)]


def test_separately_built_quivers_share_no_memo():
    q1, q2 = ak.linear_quiver(3), ak.linear_quiver(3)
    assert q1 == q2 and q1._memo is not q2._memo
    basis = q1.paths_between(1, 3)
    assert q1.reaches(1, 3) and q1.opposite().paths_between(3, 1)
    assert q2._memo == {}
    assert q2.paths_between(1, 3) == basis
    assert q2.paths_between(1, 3) is not basis
    assert q2.opposite() is not q1.opposite()


@pytest.mark.parametrize("build, x, y", [
    (lambda: ak.PRESETS["line"](), 5, -2),
    (lambda: ak.PRESETS["ladder"](), ("a", 3), ("b", 2)),
    (lambda: ak.linear_quiver(4), 1, 4),
])
def test_a_dropped_quiver_is_freed_with_its_memo_at_once(build, x, y):
    """The memo refers to nothing that refers back to the quiver, so the
    last reference going frees the quiver and its bases at once."""
    q = build()
    assert q.reaches(x, y) and q.paths_between(x, y)
    q.succ_closure([x]), q.pred_closure([y]), q.ends(), q.out_arrows(x)
    gone = weakref.ref(q)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        del q
        assert gone() is None
    finally:
        if was_enabled:
            gc.enable()


def held_arrows(q) -> int:
    """Arrows held by the path bases in q's memo."""
    return sum(len(p.arrows) for k, v in q._memo.items()
               if isinstance(k, tuple) and k[0] == "paths" for p in v[0])


@pytest.mark.parametrize("side, opposite", [
    ("proj", False), ("inj", False), ("proj", True), ("inj", True)])
def test_long_chain_sweep_holds_each_path_once(monkeypatch, side, opposite):
    """P(first) or I(last) at every vertex of a 2000-vertex chain: each basis
    on the way is built once from its neighbour and shares the fixed end, so
    the memo holds n^2/2 arrows (one path per vertex), not the n^3/6 of one
    memoized basis per (start, end) pair on the way.  I(last) reads its bases
    off P(last) of the opposite quiver, so they sit in that quiver's memo."""
    n = 2000
    base = ak.linear_quiver(n)
    q = base.opposite() if opposite else base
    first, last = (n, 1) if opposite else (1, n)
    reads = []
    for name in ("in_arrows", "out_arrows"):
        def counting(self, v, read=getattr(FiniteQuiver, name)):
            reads.append(v)
            return read(self, v)
        monkeypatch.setattr(FiniteQuiver, name, counting)
    m = ak.projective_at(q, first) if side == "proj" else \
        ak.injective_at(q, last)
    far = last if side == "proj" else first
    assert m.dim(far) == 1  # the deepest basis first: no recursion limit
    assert [m.dim(v) for v in base.vertices] == [1] * n
    assert len(m.basis(far)[0].arrows) == n - 1
    assert len(reads) <= 2 * n
    walked = q if side == "proj" else q.opposite()
    assert held_arrows(walked) == n * (n - 1) // 2
    assert held_arrows(walked.opposite()) == 0


# ---------------------------------------------------------------------------
# no cache outlives its object

MODULES = sorted(p for p in Path(ak.__file__).parent.glob("*.py"))
CACHE_DECORATORS = {"cache", "lru_cache"}
MUTATORS = {"update", "setdefault", "append", "add", "extend", "insert"}
CONTAINER_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict",
                   "Counter", "deque"}


def _is_container(value) -> bool:
    if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                          ast.ListComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        f = value.func
        name = f.id if isinstance(f, ast.Name) else \
            f.attr if isinstance(f, ast.Attribute) else None
        return name in CONTAINER_CALLS
    return False


def _module_containers(tree) -> set:
    names = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
        else:
            continue
        if _is_container(stmt.value):
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def _local_names(fn) -> set:
    """Arguments and names assigned in fn, minus its global declarations."""
    args = fn.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    names |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
    declared = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Global):
            declared.update(node.names)
    return names - declared


def global_cache_writes(source: str) -> list:
    """(line, what) for each functools cache and each write from a function
    body into a module-level dict, list or set."""
    tree = ast.parse(source)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found |= {(node.lineno, f"functools.{a.name}")
                      for a in node.names if a.name in CACHE_DECORATORS}
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id == "functools"
              and node.attr in CACHE_DECORATORS):
            found.add((node.lineno, f"functools.{node.attr}"))
    containers = _module_containers(tree)
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.Lambda)):
            continue
        shared = containers - _local_names(fn)
        for node in ast.walk(fn):
            targets = []
            if isinstance(node, (ast.Assign, ast.Delete)):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for t in targets:
                if (isinstance(t, ast.Subscript)
                        and isinstance(t.value, ast.Name)
                        and t.value.id in shared):
                    found.add((node.lineno, f"{t.value.id}[...] ="))
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in shared
                    and node.func.attr in MUTATORS):
                found.add((node.lineno,
                           f"{node.func.value.id}.{node.func.attr}()"))
    return sorted(found)


def test_detects_global_caches():
    src = ("import functools\n"
           "from functools import lru_cache\n"
           "CACHE = {}\n"
           "SEEN: set = set()\n"
           "OK = {}\n"
           "def f(k):\n"
           "    CACHE[k] = 1\n"
           "    SEEN.add(k)\n"
           "def g(OK):\n"
           "    OK[1] = 2\n"
           "    local = {}\n"
           "    local[1] = OK.get(1)\n"
           "@functools.cache\n"
           "def h():\n"
           "    return OK\n")
    assert global_cache_writes(src) == [
        (2, "functools.lru_cache"), (7, "CACHE[...] ="), (8, "SEEN.add()"),
        (13, "functools.cache")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_global_cache(path):
    assert global_cache_writes(path.read_text()) == []
