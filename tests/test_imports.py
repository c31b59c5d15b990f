"""Every name a library module imports is used in that module, every
function, method and class it defines is used somewhere in the project, so
is every name in a __slots__ (every field of a record), no module
stores to a field of the value types Mat and Arrow after __init__, no
record but Mat has an __init__ without defaults that only stores its
parameters in its fields (Record.__init__ does that), no module imports
sympy, which is a test oracle only, nor dataclasses, whose classes cost
start-up, only linalg names Fraction, only the duals in rep.py and
morphism.py transpose a component, only relation_matrix multiplies a map
out along a whole path, knit builds
each translate through its translate table, every boundary that the
benchmark traces by name exists, every exception a module raises is one
of the classes the CLI maps to an exit code, io.py turns no error of a spec
constructor into an input error, the package's public names are pinned and
load only when read, and a CLI verb imports only what it reads.

No linter ships with the project, so this parses each module with ``ast``:
an imported name that no other part of the module reads is dead weight, and
so is a slot that nothing in src/, tests/, demos/ or bench/ reads as an
attribute or passes as a keyword.  A definition that nothing in src/,
demos/ or bench/ reads is dead, or belongs with the tests, in
tests/oracles.py, but for a short list kept on purpose, each of which some
test must read; that count reads a method only as an attribute, any other
definition also by a bare name in its own module or where it is imported
by name from arknit, and nothing in an attribute of a module from outside
arknit (math.gcd), so a look-alike name keeps no definition alive.
"""
import ast
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import arknit

PACKAGE = Path(arknit.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
PROJECT_DIRS = ("src", "tests", "demos", "bench")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*" or alias.name == "annotations":
                    continue
                name = alias.asname or alias.name.partition(".")[0]
                imported.setdefault(name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= {n.value.id for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_detects_an_unused_import():
    src = "from x import a, b\nimport c\nprint(a)\n"
    assert unused_imports(src) == [(1, "b"), (2, "c")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def definitions(source: str) -> list:
    """(line, name, member) of every function, method and class a module
    defines, member when it sits in a class body; dunders are left out,
    since the language calls them."""
    out = []

    def visit(node, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)) and not (
                    child.name.startswith("__") and child.name.endswith("__")):
                out.append((child.lineno, child.name, in_class))
            visit(child, isinstance(child, ast.ClassDef))

    visit(ast.parse(source), False)
    return out


def referenced_names(source: str) -> set:
    """Names read as a variable or an attribute; an import is no reference,
    so a re-export in __init__ does not keep a definition alive."""
    tree = ast.parse(source)
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


# a definition whose only readers are tests belongs in tests/oracles.py or
# nowhere; these stay in src/ on purpose, each while some test reads it
TEST_ONLY_KEPT = {
    "equiv_ext",  # to decide Ext equivalence on every fp quotient
}


def engine_references(sources) -> tuple:
    """(attributes, imported) that the given sources read: names read as an
    attribute, but not of a module imported from outside arknit (math.gcd),
    or by a dotted string such as "io.emit_quiver", which is how the
    bench's tracer names the functions it wraps; and names read bare after
    an import by name from arknit."""
    attrs, imported = set(), set()
    for source in sources:
        tree = ast.parse(source)
        outside, ours = set(), {}
        for n in ast.walk(tree):
            if isinstance(n, ast.Import):
                outside |= {a.asname or a.name.partition(".")[0]
                            for a in n.names
                            if a.name.partition(".")[0] != "arknit"}
            elif isinstance(n, ast.ImportFrom) and (
                    n.level or n.module.partition(".")[0] == "arknit"):
                ours.update((a.asname or a.name, a.name) for a in n.names)
        for n in ast.walk(tree):
            if isinstance(n, ast.Attribute) and not (
                    isinstance(n.value, ast.Name) and n.value.id in outside):
                attrs.add(n.attr)
            elif isinstance(n, ast.Name) and n.id in ours \
                    and isinstance(n.ctx, ast.Load):
                imported.add(ours[n.id])
            elif isinstance(n, ast.Constant) and isinstance(n.value, str) \
                    and re.fullmatch(r"\w+(\.\w+)+", n.value):
                attrs.add(n.value.rpartition(".")[2])
    return attrs, imported


def unreached_definitions(source: str, references) -> list:
    """(line, name) of each definition in source that references, a pair
    from engine_references, do not read: a member of a class is read only
    as an attribute, any other definition also by a bare name in its own
    module or where it is imported by name from arknit."""
    attrs, imported = references
    own = {n.id for n in ast.walk(ast.parse(source))
           if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted((line, name) for line, name, member in definitions(source)
                  if name not in attrs
                  and (member or name not in imported | own))


def dead_definitions(source: str, engine, tests_read) -> list:
    """(line, name) of each definition in source that nothing reads: not
    engine, a pair from engine_references, nor the tests, whose names
    tests_read holds."""
    return [(line, name)
            for line, name in unreached_definitions(source, engine)
            if name not in tests_read]


def test_detects_a_definition_only_tests_read():
    lib = ("def engine(): ...\n"
           "def traced(): ...\n"
           "def oracle(): ...\n"
           "def kept(): ...\n"
           "def shown(): ...\n"
           "class Component:\n"
           "    def node(self): ...\n"
           "    def frontier(self): ...\n"
           "def gcd(): ...\n"
           "def lcm(): ...\n"
           "def helper(): ...\n"
           "def knit():\n"
           "    return helper(), Component().frontier()\n")
    bench = ('from arknit.lib import engine, knit\nengine(), knit()\n'
             'WRAP = ("lib.traced",)\n')
    demo = "import arknit\nprint(arknit.shown())\n"
    # look-alikes: a local named like a method, and math's own gcd and lcm
    other = ("import math\n"
             "from math import gcd\n"
             "def walk(nodes):\n"
             "    return [gcd(node, 2) + math.lcm(node, 3) for node in nodes]\n")
    test = "oracle()\nkept()\nengine()\nshown()\nc.node()\ngcd()\nlcm()\n"
    refs = engine_references([lib, bench, demo, other])
    assert unreached_definitions(lib, refs) == [
        (3, "oracle"), (4, "kept"), (7, "node"), (9, "gcd"), (10, "lcm")]
    # without the demo, a definition that only it and the tests call is
    # read by the tests alone
    assert unreached_definitions(lib, engine_references([lib, bench])) == [
        (3, "oracle"), (4, "kept"), (5, "shown"), (7, "node"), (9, "gcd"),
        (10, "lcm")]
    # what only the tests read is not dead, and the tests read all of it
    assert dead_definitions(lib, refs, referenced_names(test)) == []


def test_detects_a_dead_definition():
    # a kept definition stays only while some test reads it
    lib = "def used(): ...\ndef kept(): ...\ndef dead(): ...\n"
    engine = engine_references(["from arknit.lib import used\nused()\n"])
    assert dead_definitions(lib, engine, referenced_names("kept()\n")) == [
        (3, "dead")]
    assert dead_definitions(lib, engine, set()) == [(2, "kept"), (3, "dead")]


@pytest.fixture(scope="module")
def references():
    """(engine, tests_read): engine_references of src/, demos/ and bench/,
    and the names that tests/ reads, each file parsed once."""
    root = PACKAGE.parent.parent

    def sources(dirs):
        return (path.read_text()
                for d in dirs for path in (root / d).rglob("*.py"))

    engine = engine_references(sources(set(PROJECT_DIRS) - {"tests"}))
    return engine, set().union(*map(referenced_names, sources(["tests"])))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_definition_only_tests_read(path, references):
    engine, _ = references
    assert [(line, name) for line, name in
            unreached_definitions(path.read_text(), engine)
            if name not in TEST_ONLY_KEPT] == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_dead_definitions(path, references):
    assert dead_definitions(path.read_text(), *references) == []


def dataclass_fields(source: str) -> list:
    """(line, name) of every name in a class body's __slots__, the fields of
    a slotted class such as Mat, Arrow or a record; __dict__ and __weakref__
    are left out, since the language reads them."""
    def is_slots(s):
        return isinstance(s, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__slots__" for t in s.targets)

    fields = []
    for n in ast.walk(ast.parse(source)):
        if not isinstance(n, ast.ClassDef):
            continue
        for s in filter(is_slots, n.body):
            names = getattr(s.value, "elts", [s.value])
            fields += [(e.lineno, e.value) for e in names
                       if isinstance(e, ast.Constant)
                       and e.value not in ("__dict__", "__weakref__")]
    return fields


def field_reads(source: str) -> set:
    """Names read as an attribute or passed as a keyword argument."""
    tree = ast.parse(source)
    return ({n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
             and isinstance(n.ctx, ast.Load)}
            | {n.arg for n in ast.walk(tree) if isinstance(n, ast.keyword)})


@pytest.fixture(scope="module")
def project_field_reads():
    root = PACKAGE.parent.parent
    reads = set()
    for d in PROJECT_DIRS:
        for path in (root / d).rglob("*.py"):
            reads |= field_reads(path.read_text())
    return reads


def test_detects_an_unread_dataclass_field():
    lib = ("class A(Frozen):\n"
           "    __slots__ = _fields = ('read', 'keyword', 'written',\n"
           "                           'unread')\n"
           "class C:\n"
           "    plain: int\n"
           "class D:\n"
           "    __slots__ = ('slot_read', 'slot_unread', '__dict__',\n"
           "                 '__weakref__')\n"
           "    _fields = __slots__[:-2]\n"
           "class E:\n"
           "    __slots__ = 'lone'\n")
    user = ("a = A(1, keyword=2)\n"
            "a.written = a.read\n"
            "unread = plain = C()\n"
            "d = D().slot_read\n")
    reads = field_reads(lib) | field_reads(user)
    assert [(line, name) for line, name in dataclass_fields(lib)
            if name not in reads] == [(2, "written"), (3, "unread"),
                                      (7, "slot_unread"), (11, "lone")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_dataclass_fields(path, project_field_reads):
    assert [(line, name) for line, name in dataclass_fields(path.read_text())
            if name not in project_field_reads] == []


VALUE_FIELDS = ("entries", "rows", "cols", "field", "src", "dst", "label")


def value_field_stores(source: str) -> list:
    """Lines that store to, or delete, an attribute named like a field of Mat
    or Arrow (VALUE_FIELDS), other than self.<name> = ... in an __init__, or
    that set one by setattr other than on self in an __init__ (as a frozen
    record writes its fields): Mat and Arrow are slotted, not frozen, so
    this lint is what keeps them immutable, at no cost when the code runs."""
    tree = ast.parse(source)
    allowed = set()
    for f in ast.walk(tree):
        if isinstance(f, ast.FunctionDef) and f.name == "__init__":
            for s in ast.walk(f):
                if isinstance(s, ast.Call) and s.args \
                        and isinstance(s.args[0], ast.Name) \
                        and s.args[0].id == "self":
                    allowed.add(id(s))
                if isinstance(s, (ast.Assign, ast.AnnAssign)):
                    targets = s.targets if isinstance(s, ast.Assign) \
                        else [s.target]
                    for t in targets:
                        allowed.update(
                            id(e) for e in getattr(t, "elts", [t])
                            if isinstance(e, ast.Attribute)
                            and isinstance(e.value, ast.Name)
                            and e.value.id == "self")
    lines = {n.lineno for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and n.attr in VALUE_FIELDS
             and not isinstance(n.ctx, ast.Load) and id(n) not in allowed}
    lines |= {n.lineno for n in ast.walk(tree)
              if isinstance(n, ast.Call) and id(n) not in allowed
              and getattr(n.func, "id", getattr(n.func, "attr", None))
              in ("setattr", "__setattr__")
              and len(n.args) > 1 and isinstance(n.args[1], ast.Constant)
              and n.args[1].value in VALUE_FIELDS}
    return sorted(lines)


def test_detects_a_value_field_store():
    src = ("class M:\n"
           "    def __init__(self, rows, field, a, b):\n"
           "        self.rows = rows\n"
           "        self.field: object = field\n"
           "        self.src, self.dst = a, b\n"
           "        object.__setattr__(self, 'label', b)\n"
           "        other.cols = 0\n"
           "    def grow(self):\n"
           "        self.rows += 1\n"
           "        self.label = 'x'\n"
           "m.entries = ()\n"
           "del m.src\n"
           "object.__setattr__(m, 'dst', 1)\n"
           "setattr(m, 'name', 1)\n"
           "n = m.entries\n"
           "def __init__(self, m):\n"
           "    object.__setattr__(m, 'src', 1)\n"
           '"""m.entries = () in a docstring"""\n')
    assert value_field_stores(src) == [7, 9, 10, 11, 12, 13, 17]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_value_field_stored_after_init(path):
    assert value_field_stores(path.read_text()) == []


# Mat keeps its straight-line __init__: it is the most built object, and a
# plain store costs a quarter of a store through the slot setters
STRAIGHT_LINE_RECORDS = {"Mat"}


def record_classes(sources) -> set:
    """The names of the classes in sources that derive, by the names of
    their bases, from Record or Frozen."""
    bases = {n.name: {getattr(b, "id", getattr(b, "attr", None))
                      for b in n.bases}
             for s in sources for n in ast.walk(ast.parse(s))
             if isinstance(n, ast.ClassDef)}
    found, grown = set(), {"Record", "Frozen"}
    while grown:
        found |= grown
        grown = {c for c, bs in bases.items() if bs & found} - found
    return found - {"Record", "Frozen"}


def storing_inits(source: str, records: set) -> list:
    """(line, name) of each record class (one of records, less
    STRAIGHT_LINE_RECORDS) whose __init__ takes no default and only stores
    its own parameters, in order or one by one, in the fields of the same
    name: by self.<p> = <p>, object.__setattr__(self, "<p>", <p>), or a
    call of a base's __init__ with them, which is what Record.__init__
    already does."""
    def name(e):
        return e.id if isinstance(e, ast.Name) else None

    def stored(s, self):
        """The parameters s stores in their own fields, or None."""
        if isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant):
            return []  # a docstring
        if isinstance(s, ast.Assign) and len(s.targets) == 1:
            ts = getattr(s.targets[0], "elts", [s.targets[0]])
            vs = getattr(s.value, "elts", [s.value])
            if len(ts) == len(vs) and all(
                    isinstance(t, ast.Attribute) and name(t.value) == self
                    and t.attr == name(v) for t, v in zip(ts, vs)):
                return [t.attr for t in ts]
        if isinstance(s, ast.Expr) and isinstance(s.value, ast.Call) \
                and isinstance(s.value.func, ast.Attribute) \
                and not s.value.keywords:
            f, args = s.value.func, s.value.args
            if f.attr == "__setattr__" and len(args) == 3 \
                    and name(args[0]) == self \
                    and isinstance(args[1], ast.Constant) \
                    and args[1].value == name(args[2]):
                return [args[1].value]
            if f.attr == "__init__" and isinstance(f.value, ast.Call) \
                    and name(f.value.func) == "super":
                args = [ast.Name(self)] + args
            if f.attr == "__init__" and args and name(args[0]) == self \
                    and all(name(a) for a in args[1:]):
                return [name(a) for a in args[1:]]
        return None

    out = []
    for c in ast.walk(ast.parse(source)):
        if not (isinstance(c, ast.ClassDef) and c.name in records) \
                or c.name in STRAIGHT_LINE_RECORDS:
            continue
        for f in c.body:
            if not (isinstance(f, ast.FunctionDef) and f.name == "__init__"):
                continue
            params = [a.arg for a in f.args.args]
            if f.args.defaults or f.args.kwonlyargs or f.args.vararg:
                continue
            stores = [stored(s, params[0]) for s in f.body]
            if None not in stores and \
                    {p for ps in stores for p in ps} <= set(params[1:]):
                out.append((c.lineno, c.name))
    return sorted(out)


def test_detects_a_record_init_that_only_stores():
    src = ("class A(Record):\n"
           "    def __init__(self, x, y):\n"
           "        self.x, self.y = x, y\n"
           "class B(Frozen):\n"
           "    def __init__(self, x, y):\n"
           '        """Two fields."""\n'
           "        object.__setattr__(self, 'x', x)\n"
           "        object.__setattr__(self, 'y', y)\n"
           "class C(mod.B):\n"
           "    def __init__(self, z):\n"
           "        super().__init__(z)\n"
           "class D(Record):\n"
           "    def __init__(self, x, y=0):\n"
           "        self.x, self.y = x, y\n"
           "class E(Record):\n"
           "    def __init__(self, x):\n"
           "        if x < 0:\n"
           "            raise ValueError(x)\n"
           "        Record.__init__(self, x)\n"
           "class F(Record):\n"
           "    def __init__(self, x, y):\n"
           "        self.x, self.y = y, x\n"
           "class G:\n"
           "    def __init__(self, x):\n"
           "        self.x = x\n"
           "class H(Record):\n"
           "    def __init__(self, x):\n"
           "        self.x = x\n"
           "        self._hash = hash(x)\n"
           "class I(C):\n"
           "    def __init__(self, z):\n"
           "        C.__init__(self, z)\n"
           "class Mat(Record):\n"
           "    def __init__(self, field, rows):\n"
           "        self.field = field\n"
           "        self.rows = rows\n")
    records = record_classes([src])
    assert records == {"A", "B", "C", "D", "E", "F", "H", "I", "Mat"}
    assert storing_inits(src, records) == [(1, "A"), (4, "B"), (9, "C"),
                                           (30, "I")]


def test_no_record_init_only_stores_its_fields():
    sources = [p.read_text() for p in MODULES]
    records = record_classes(sources)
    assert {"Mat", "Arrow", "Path", "FiniteQuiver", "RayProfile"} <= records
    assert [x for s in sources for x in storing_inits(s, records)] == []


def cutoff_maxima(source: str) -> list:
    """Lines that call max(...) on anything reading .cutoff: a stable depth
    worked out afresh, where the certificate's own depth is the one answer."""
    return sorted(n.lineno for n in ast.walk(ast.parse(source))
                  if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                  and n.func.id == "max"
                  and any(isinstance(a, ast.Attribute) and a.attr == "cutoff"
                          for a in ast.walk(n)))


def test_detects_a_max_over_cutoffs():
    src = ("d = max([p.cutoff for p in c.profiles], default=0)\n"
           "e = max(c.depth, 2)\n"
           "out = {'cutoff': p.cutoff}\n"
           "f = max(r.cutoff + 1, 3)\n")
    assert cutoff_maxima(src) == [1, 4]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "rep.py"],
                         ids=lambda p: p.name)
def test_only_rep_takes_the_stable_depth(path):
    assert cutoff_maxima(path.read_text()) == []


def _calls(node, name: str) -> bool:
    """Is node a call of name, bare or as an attribute?"""
    f = node.func if isinstance(node, ast.Call) else None
    return (isinstance(f, ast.Name) and f.id == name) or \
        (isinstance(f, ast.Attribute) and f.attr == name)


def certified_windows(source: str) -> list:
    """Lines that call joint_window on arguments that call
    classify_membership: certificates built for the window, which takes
    the objects and classifies them itself."""
    return sorted(n.lineno for n in ast.walk(ast.parse(source))
                  if _calls(n, "joint_window")
                  and any(_calls(c, "classify_membership")
                          for a in n.args + [k.value for k in n.keywords]
                          for c in ast.walk(a)))


def test_detects_a_certificate_passed_to_joint_window():
    src = ("w = joint_window([classify_membership(m)])\n"
           "v = joint_window((m, n), 3)\n"
           "u = rep.joint_window([rep.classify_membership(r) for r in rs], 1)\n"
           "c = classify_membership(m)\n"
           "t = joint_window(objs=[classify_membership(m)])\n")
    assert certified_windows(src) == [1, 3, 5]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_joint_window_takes_objects(path):
    assert certified_windows(path.read_text()) == []


def transposed_components(source: str) -> list:
    """Lines that call .transpose() on a .component(...) result: a morphism
    transposed by hand, where D of it (PathMatrix.dual, Morphism.dual) is
    the one answer."""
    return sorted(n.lineno for n in ast.walk(ast.parse(source))
                  if isinstance(n, ast.Call)
                  and isinstance(n.func, ast.Attribute)
                  and n.func.attr == "transpose"
                  and isinstance(n.func.value, ast.Call)
                  and isinstance(n.func.value.func, ast.Attribute)
                  and n.func.value.func.attr == "component")


def test_detects_a_transposed_component():
    src = ("a = f.component(v).transpose()\n"
           "b = f.component(v)\n"
           "c = b.transpose()\n"
           "d = g(f.component(v).transpose(), C.base.basis(v).transpose())\n"
           '"""f.component(v).transpose() in a docstring"""\n')
    assert transposed_components(src) == [1, 4]


@pytest.mark.parametrize("path", [p for p in MODULES
                                  if p.name not in ("rep.py", "morphism.py")],
                         ids=lambda p: p.name)
def test_only_the_duals_transpose_a_component(path):
    assert transposed_components(path.read_text()) == []


def path_products(source: str) -> list:
    """Lines that call .mat_path(...) outside relation_matrix: a map
    multiplied out along a whole path, where the Yoneda map reads the image
    of each path off that of its prefix."""
    tree = ast.parse(source)
    inside = {id(n) for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
              and f.name == "relation_matrix" for n in ast.walk(f)}
    return sorted(n.lineno for n in ast.walk(tree)
                  if _calls(n, "mat_path") and id(n) not in inside)


def test_detects_a_path_product():
    src = ("def yoneda_at(n, p):\n"
           "    return n.mat_path(p).mul(v)\n"
           "def relation_matrix(pm, n):\n"
           "    return [n.mat_path(p) for p in pm.paths]\n"
           "m = rep.mat_path(q)\n"
           "def mat_path(self, p):\n"
           '    """self.mat_path(p) in a docstring"""\n')
    assert path_products(src) == [2, 5]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_relation_matrix_multiplies_out_a_path(path):
    assert path_products(path.read_text()) == []


EVALUATORS = {"Rep", "ProjRep", "ExplicitFdRep", "ThinRep", "DirectSumRep",
              "DualRep", "RestrictRep", "GlueRep", "KernelOfRep"}


def extra_evaluators(source: str) -> list:
    """Classes outside EVALUATORS that define _dim_at or _mat_at: a leaf
    evaluated a second way, where paths out of a vertex, explicit data, a
    thin region or a duality of one of them already say what it is."""
    def defines(d):
        names = [d.name] if isinstance(d, ast.FunctionDef) else \
            [t.id for t in d.targets if isinstance(t, ast.Name)] \
            if isinstance(d, ast.Assign) else []
        return any(x in ("_dim_at", "_mat_at") for x in names)

    return sorted(n.name for n in ast.walk(ast.parse(source))
                  if isinstance(n, ast.ClassDef) and n.name not in EVALUATORS
                  and any(defines(d) for d in n.body))


def test_detects_an_extra_evaluator():
    src = ("class ProjRep(Rep):\n"
           "    def _mat_at(self, a): pass\n"
           "class SimpleRep(ExplicitFdRep):\n"
           "    def _dim_at(self, v): return 0\n"
           "class ZeroRep(ExplicitFdRep):\n"
           "    def describe(self): return '0'\n"
           "class InjRep(DualRep):\n"
           "    _mat_at = DualRep._mat_at\n"
           "    basis = None\n"
           "class DualRep(Rep):\n"
           "    def _dim_at(self, v): pass\n")
    assert extra_evaluators(src) == ["InjRep", "SimpleRep"]


def test_only_the_evaluators_evaluate():
    assert extra_evaluators((PACKAGE / "rep.py").read_text()) == []


def translate_bypasses(source: str) -> list:
    """Lines in knit or _predict_mesh (nested functions included) that name
    tau or tau_inv: a translate built there, not through _translate, which
    reads knit's translate table first, builds again a node that the knit
    already has."""
    return sorted(n.lineno for f in ast.walk(ast.parse(source))
                  if isinstance(f, ast.FunctionDef)
                  and f.name in ("knit", "_predict_mesh")
                  for n in ast.walk(f)
                  if isinstance(n, ast.Name) and n.id in ("tau", "tau_inv"))


def test_detects_a_translate_outside_the_table():
    src = ("def knit(seed, depth):\n"
           "    def step(x):\n"
           "        return tau_inv(x)\n"
           "    f = tau\n"
           "def _predict_mesh(comp, tr, key, forward):\n"
           "    return _translate(comp, tr, key, forward)\n"
           "def _translate(comp, tr, key, forward):\n"
           "    return tau(comp.nodes[key].rep)\n")
    assert translate_bypasses(src) == [3, 4]


def test_knit_builds_translates_only_through_the_table():
    assert translate_bypasses((PACKAGE / "ar.py").read_text()) == []


def fraction_lines(source: str) -> list:
    """Lines that import the fractions module or name Fraction: a second
    place that decides how a rational is held, where linalg's canonical
    form (an int while integral) is the one answer."""
    lines = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Import):
            if any(a.name == "fractions" for a in n.names):
                lines.add(n.lineno)
        elif isinstance(n, ast.ImportFrom):
            if n.module == "fractions" or any(a.name == "Fraction"
                                              for a in n.names):
                lines.add(n.lineno)
        elif ((isinstance(n, ast.Name) and n.id == "Fraction")
              or (isinstance(n, ast.Attribute) and n.attr == "Fraction")):
            lines.add(n.lineno)
    return sorted(lines)


def test_detects_a_fraction():
    src = ("from fractions import Fraction as F\n"
           "import fractions\n"
           "x = fractions.Fraction(1, 2)\n"
           '"""a Fraction in a docstring"""\n'
           "y = isinstance(x, Fraction)\n"
           "from .linalg import _frac\n")
    assert fraction_lines(src) == [1, 2, 3, 5]


@pytest.mark.parametrize("path", [p for p in sorted(PACKAGE.glob("*.py"))
                                  if p.name != "linalg.py"],
                         ids=lambda p: p.name)
def test_only_linalg_names_fraction(path):
    assert fraction_lines(path.read_text()) == []


# the classes src/ may raise: cli.main maps ValueError (ParseError and
# EvalRangeError among them) to exit 1 and every other exception, KeyError
# and AssertionError among them, to exit 3; the other four mark a
# programming error of the caller, such as a store to a field of a frozen
# record (AttributeError)
RAISABLE = {"ValueError", "ParseError", "EvalRangeError", "KeyError",
            "AssertionError", "NotImplementedError", "TypeError",
            "ZeroDivisionError", "AttributeError"}


def foreign_raises(source: str) -> list:
    """(line, name) of each raise of a class outside RAISABLE: a new
    exception class or a new exit path; a bare re-raise names none."""
    out = []
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Raise) and n.exc is not None:
            exc = n.exc.func if isinstance(n.exc, ast.Call) else n.exc
            name = getattr(exc, "id", getattr(exc, "attr", None))
            if name not in RAISABLE:
                out.append((n.lineno, name))
    return sorted(out)


def test_detects_a_foreign_raise():
    src = ("raise ValueError('x')\n"
           "raise BudgetError('window')\n"
           "raise errors.Custom\n"
           "try:\n"
           "    pass\n"
           "except KeyError as e:\n"
           "    raise\n"
           "raise RuntimeError from None\n"
           '"""raise OSError in a docstring"""\n')
    assert foreign_raises(src) == [(2, "BudgetError"), (3, "Custom"),
                                   (8, "RuntimeError")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_src_raises_only_the_mapped_classes(path):
    assert foreign_raises(path.read_text()) == []


# the constructors that check a spec's data; io.py prefixes the pointer of a
# ParseError of theirs (io._built), and any other error they raise is the
# engine's, which a handler of ValueError or KeyError would pass off as an
# input error with a pointer
SPEC_CONSTRUCTORS = {"explicit_fd", "thin_rep", "glue_rep", "path_matrix",
                     "coker_proj", "ker_inj", "VertexSet.make",
                     "FiniteQuiver.build"}
BROAD = {None, "ValueError", "KeyError", "LookupError", "Exception",
         "BaseException"}


def _called(call) -> str:
    f = call.func
    if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
        return f"{f.value.id}.{f.attr}"
    return getattr(f, "id", None)


def relabelled_refusals(source: str) -> list:
    """(line, name) of each call to a spec constructor inside a try whose
    handler catches ValueError or KeyError (or anything broader)."""
    out = []
    for t in ast.walk(ast.parse(source)):
        if not isinstance(t, ast.Try):
            continue
        caught = set()
        for h in t.handlers:
            types = h.type.elts if isinstance(h.type, ast.Tuple) else [h.type]
            caught |= {getattr(x, "id", getattr(x, "attr", None))
                       for x in types}
        if caught & BROAD:
            out += [(n.lineno, _called(n)) for stmt in t.body
                    for n in ast.walk(stmt) if isinstance(n, ast.Call)
                    and _called(n) in SPEC_CONSTRUCTORS]
    return sorted(out)


def test_detects_a_relabelled_refusal():
    src = ("try:\n"
           "    m = explicit_fd(q, dims, mats)\n"
           "except ValueError as e:\n"
           "    raise ParseError(ptr, str(e))\n"
           "try:\n"
           "    r = VertexSet.make(q, expl, tails)\n"
           "except (KeyError, TypeError):\n"
           "    pass\n"
           "try:\n"
           "    g = glue_rep(sub, quot)\n"
           "except ParseError as e:\n"
           "    raise ParseError(ptr + e.pointer, e.message)\n"
           "try:\n"
           "    v = int(x)\n"
           "except ValueError:\n"
           "    pass\n")
    assert relabelled_refusals(src) == [(2, "explicit_fd"),
                                        (6, "VertexSet.make")]


def test_io_relabels_no_engine_error_as_a_refusal():
    assert relabelled_refusals((PACKAGE / "io.py").read_text()) == []


def names_module(source: str, module: str) -> bool:
    """Does the module import, or refer to, anything called module?"""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            if any(a.name.partition(".")[0] == module for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").partition(".")[0] == module:
                return True
        elif isinstance(node, ast.Name) and node.id == module:
            return True
    return False


def test_detects_a_sympy_import():
    assert names_module("def f():\n    import sympy.polys\n", "sympy")
    assert names_module("from sympy import Poly\n", "sympy")
    assert not names_module('"""sympy in a docstring"""\n', "sympy")


def test_detects_a_dataclasses_import():
    assert names_module("from dataclasses import dataclass\n", "dataclasses")
    assert names_module("import dataclasses as dc\n", "dataclasses")
    assert not names_module("from .record import Frozen\n"
                            '"""once a dataclass"""\n', "dataclasses")


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    # a dataclass compiles its methods by exec when its module loads, and
    # the module pulls in inspect: both cost every CLI process start-up
    assert not names_module(path.read_text(), "dataclasses")


def run_python(code: str) -> str:
    """The stdout of a fresh interpreter that runs code with src/ first on
    its path; the run must succeed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_sympy_is_not_loaded_by_import_or_a_plain_verb():
    # no module names it, and with every import of it blocked the verbs
    # that split endomorphism algebras still run and print the same bytes
    for path in MODULES + [Path(arknit.__file__)]:
        assert not names_module(path.read_text(), "sympy"), path.name
    golden = Path(__file__).parent / "golden" / "kronecker_knit5.dot"
    code = f"""
import contextlib, io, sys
sys.modules["sympy"] = None
import arknit.cli
A3 = '{{"preset":"linear","n":3}}'
SUM = '{{"sum":[{{"proj":"1"}},{{"simple":"2"}},{{"simple":"2"}}]}}'
KNIT5 = ["--quiver", '{{"preset":"kronecker"}}', "--seed", '{{"proj":"2"}}',
         "--depth", "5"]
runs = [["quiver", "--quiver", '{{"preset":"line"}}'],
        ["decompose", "--quiver", A3, "--rep", SUM],
        ["decompose", "--quiver", A3, "--field", "3", "--rep", SUM],
        ["classify"] + KNIT5,
        ["knit"] + KNIT5 + ["--format", "dot"]]
for argv in runs:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = arknit.cli.main(argv)
    assert code == 0, (argv[0], code)
with open({str(golden)!r}) as fh:
    assert out.getvalue() == fh.read(), "knit DOT differs from the golden file"
"""
    run_python(code)


def test_every_boundary_the_benchmark_traces_exists():
    # bench/tracing.py names functions such as hom._iso_indec by module and
    # name, so renaming one would otherwise show only in the bench's own tests
    root = PACKAGE.parent.parent
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", root / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.missing_named(PACKAGE.parent) == []


# the package namespace: these names resolve, each read from its module
PUBLIC_NAMES = [
    "ARComponent", "ARNode", "ASReport", "Arrow", "DecomposeReport", "End",
    "EndAlgebra", "EvalRangeError", "ExtClassBasis", "Field",
    "FiniteExtReport", "FiniteQuiver", "GF", "HomBasis", "Mat", "Morphism",
    "OppositeQuiver", "PRESETS", "ParseError", "Path",
    "PathMatrix", "Presentation", "QQ", "QuiverBase", "Rep",
    "RepClassCertificate", "RungFamily", "SCHEMA", "SES",
    "ShapeHypothesis", "SubquiverClass", "VertexSet",
    "almost_split_sequence", "ar", "ar_category_kind", "baer_sum",
    "classify_component", "classify_membership", "classify_subquiver",
    "coker_proj", "component_dot", "component_json", "decompose",
    "decompose_report", "dim_vector", "direct_sum", "dualize",
    "emit_quiver", "emit_rep", "end_algebra", "end_profile", "equal_on",
    "equiv_ext", "explicit_fd", "ext", "ext_class_to_ses", "ext_space",
    "glue_rep", "glue_ses", "hom", "hom_space", "identity_morphism",
    "image", "injective_at", "io", "is_doubly_infinite",
    "is_finite_extension", "is_pseudo_projective", "is_split", "iso_test",
    "ker_inj", "knit", "kronecker_quiver", "linalg", "linear_quiver",
    "min_inj_copresentation", "min_proj_presentation", "morphism",
    "morphism_from_components", "nakayama", "parse_field", "parse_quiver",
    "parse_rep", "path_matrix", "presentations",
    "projective_at", "quiver", "rep", "restrict", "restriction_ses",
    "ses_class_coords", "simple_at", "standard_ext", "support_exact",
    "tau", "tau_inv", "thin_rep",
    "verify_almost_split", "verify_exact", "vkey", "zero_morphism",
    "zero_rep"
]


def test_the_public_names_are_pinned():
    assert arknit.__all__ == PUBLIC_NAMES


def test_every_public_name_resolves_and_an_unknown_one_does_not():
    star = {}
    exec("from arknit import *", star)
    for name in PUBLIC_NAMES:
        assert getattr(arknit, name) is star[name]
    assert set(PUBLIC_NAMES) <= set(dir(arknit))
    assert not hasattr(arknit, "nope")
    assert getattr(arknit, "nope", None) is None


def test_the_package_reads_a_rebound_name_from_its_module(monkeypatch):
    # the benchmark's tracer rebinds module attributes and later restores
    # them; a copy kept in the package would go stale
    stub = object()
    assert arknit.knit is arknit.ar.knit
    monkeypatch.setattr(arknit.ar, "knit", stub)
    assert arknit.knit is stub
    monkeypatch.undo()
    assert arknit.knit is not stub


def test_importing_the_package_loads_no_module():
    out = run_python("import sys, arknit\n"
                     "print([m for m in sys.modules if 'arknit.' in m])")
    assert out == "[]\n"


ABOVE_REP = ("ar", "hom", "ext", "morphism", "presentations", "poly")
LINE, A3 = '{"preset":"line"}', '{"preset":"linear","n":3}'
VERB_RUNS = [
    (["quiver", "--quiver", LINE], ABOVE_REP),
    (["rep", "--quiver", LINE, "--rep", '{"inj":"0"}'], ABOVE_REP),
    (["member", "--quiver", '{"preset":"zigzag"}', "--rep",
      '{"thin":{"explicit":[],"tails":[["inf","even",0],["inf","odd",0]]}}'],
     ABOVE_REP),
    (["export", "--quiver", LINE, "--rep", '{"proj":"0"}'], ABOVE_REP),
    (["hom", "--quiver", A3, "--src", '{"proj":"2"}', "--dst", '{"inj":"2"}'],
     ("ar",)),
    (["ext", "--quiver", '{"preset":"kronecker"}', "--quot",
      '{"simple":"1"}', "--sub", '{"simple":"2"}'], ("ar",)),
    (["decompose", "--quiver", A3, "--rep",
      '{"sum":[{"proj":"1"},{"simple":"2"},{"simple":"2"}]}'], ("ar",)),
    (["tau", "--quiver", A3, "--rep", '{"simple":"2"}'], ("poly",)),
    (["ass", "--quiver", A3, "--rep", '{"simple":"2"}'], ("poly",)),
    (["classify", "--quiver", '{"preset":"kronecker"}', "--seed",
      '{"proj":"2"}', "--depth", "5"], ()),
    (["knit", "--quiver", '{"preset":"kronecker"}', "--seed",
      '{"proj":"2"}', "--depth", "5", "--format", "dot"], ()),
]
# stdlib modules no verb loads: dataclasses compiles its classes by exec,
# and it loads inspect
HEAVY_STDLIB = ("dataclasses", "inspect")


@pytest.mark.parametrize("argv, unloaded", VERB_RUNS,
                         ids=[argv[0] for argv, _ in VERB_RUNS])
def test_a_verb_imports_only_the_modules_it_reads(argv, unloaded):
    code = f"""
import contextlib, io, sys
import arknit.cli
with contextlib.redirect_stdout(io.StringIO()):
    assert arknit.cli.main({argv!r}) == 0
print(" ".join(m for m in sys.modules
               if m.startswith("arknit.") or m in {HEAVY_STDLIB!r}))
"""
    loaded = set(run_python(code).split())
    assert "arknit.rep" in loaded
    assert loaded.isdisjoint(f"arknit.{m}" for m in unloaded)
    assert loaded.isdisjoint(HEAVY_STDLIB)
