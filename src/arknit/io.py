"""JSON parsing/emission (schema arknit/1) and DOT output.

Vertices are serialized as strings (the quiver's vertex_str form), matrices
as string entries so rationals survive the round trip.  Parsing reads JSON
shapes and names and applies the size caps below; every other fact about a
spec is checked once, by the constructor it is passed to, which refuses it
with a ParseError pointing into its own spec.  Each error carries a
JSON-pointer style path to the offending element.
"""
from __future__ import annotations

from .linalg import GF, QQ, Mat
from .quiver import (FiniteQuiver, Path, PRESETS, QuiverBase, VertexSet,
                     kronecker_quiver, linear_quiver, vkey)
from .record import ParseError
from .rep import (PathMatrix, Rep, RungFamily, _mat_json,
                  classify_membership, coker_proj, direct_sum, dualize,
                  explicit_fd, glue_rep, injective_at, joint_window, ker_inj,
                  path_matrix, projective_at, restrict, simple_at, thin_rep,
                  zero_rep)

SCHEMA = "arknit/1"
# P(1) or I(n) on the linear quiver of n vertices holds n^2/2 arrows in its
# bases; `member` on either peaks near 55 MB of RSS at n = 3000.  The same
# cap bounds the depth of a vertex on a ray of an infinite preset, whose
# closures and bases grow the same way.
MAX_LINEAR_N = 3000
# GF(p) checks p for primality by trial division up to sqrt(p), about 46,000
# steps at this cap; a prime of twenty digits would take hours.
MAX_FIELD_CHAR = 2**31 - 1


def _built(pointer: str, build, *args):
    """build(*args), its refusal pointed from the sub-spec at pointer."""
    try:
        return build(*args)
    except ParseError as e:
        raise ParseError(pointer + e.pointer, e.message) from None


def _need(obj, key, pointer, typ=None):
    if not isinstance(obj, dict) or key not in obj:
        raise ParseError(pointer, f"missing key {key!r}")
    val = obj[key]
    if typ is not None and not isinstance(val, typ):
        raise ParseError(f"{pointer}/{key}", f"expected {typ.__name__}")
    return val


# ---------------------------------------------------------------------------
# quivers


def parse_quiver(obj, pointer: str = "") -> QuiverBase:
    if not isinstance(obj, dict):
        raise ParseError(pointer or "/", "quiver spec must be an object")
    if "preset" in obj:
        name = obj["preset"]
        if name in PRESETS:
            return PRESETS[name]()
        if name == "linear":
            n = _need(obj, "n", pointer)
            if type(n) is not int or n < 0:  # a bool or "3" is no int
                raise ParseError(f"{pointer}/n",
                                 f"n must be an integer >= 0, got {n!r}")
            if not 1 <= n <= MAX_LINEAR_N:
                raise ParseError(f"{pointer}/n",
                                 f"need 1 <= n <= {MAX_LINEAR_N}, got {n}")
            return linear_quiver(n)
        if name == "kronecker":
            return kronecker_quiver()
        raise ParseError(f"{pointer}/preset", f"unknown preset {name!r}")
    if "opposite" in obj:
        return parse_quiver(obj["opposite"], f"{pointer}/opposite").opposite()
    if "vertices" in obj:
        verts = _need(obj, "vertices", pointer, list)
        arrows = obj.get("arrows", [])
        if not isinstance(arrows, list):
            raise ParseError(f"{pointer}/arrows", "expected list")
        vs = [_vertex_id(v, f"{pointer}/vertices/{i}")
              for i, v in enumerate(verts)]
        specs = []
        for i, a in enumerate(arrows):
            if not isinstance(a, list) or len(a) not in (2, 3):
                raise ParseError(f"{pointer}/arrows/{i}",
                                 "arrow must be [src, dst] or [src, dst, label]")
            specs.append(tuple(
                [_vertex_id(a[k], f"{pointer}/arrows/{i}/{k}") for k in (0, 1)]
                + list(a[2:])))
        return _built(pointer, FiniteQuiver.build, vs, specs)
    raise ParseError(pointer or "/",
                     "expected 'preset', 'vertices' or 'opposite'")


def _list(x, pointer: str) -> list:
    if not isinstance(x, list):
        raise ParseError(pointer, "expected list")
    return x


def _start(x, pointer: str, what: str):
    """A start depth on a ray, refused past the cap that _parse_vert puts on
    a vertex's depth, since a support is read down to its deepest start;
    its constructor checks the rest."""
    if type(x) is int and x > MAX_LINEAR_N:
        raise ParseError(pointer, f"{what} {x} is past the cap {MAX_LINEAR_N}")
    return x


def _vertex_id(x, pointer: str):
    """A vertex of a finite quiver spec: an int (digit strings included) or
    a string."""
    if isinstance(x, str) and x.lstrip("-").isdigit():
        return int(x)
    try:
        vkey(x)
    except TypeError as e:
        raise ParseError(pointer, str(e))
    return x


def emit_quiver(q: QuiverBase) -> dict:
    return {"schema": SCHEMA, "quiver": q.spec_dict()}


def _parse_vert(q: QuiverBase, x, pointer: str):
    try:
        v = q.parse_vertex(x) if isinstance(x, str) else x
        # a JSON float or bool equals an int vertex, but names none
        inside = (isinstance(x, str) or type(x) is int) and q.contains(v)
    except (ValueError, TypeError) as e:
        raise ParseError(pointer, str(e))
    if not inside:
        raise ParseError(pointer, f"vertex {x!r} outside the quiver")
    loc = q.locate(v)
    if loc is not None and loc[2] > MAX_LINEAR_N:
        raise ParseError(pointer, f"vertex {q.vertex_str(v)} lies at depth "
                                  f"{loc[2]} on end {loc[0]}, past the cap "
                                  f"{MAX_LINEAR_N}")
    return v


def parse_field(spec):
    if spec in (None, "QQ", "rationals", 0, "0"):
        return QQ
    try:
        p = int(spec)
    except (TypeError, ValueError):
        raise ParseError("/field", f"bad field spec {spec!r}")
    if p < 2:
        raise ParseError("/field", "prime field needs p >= 2")
    if p > MAX_FIELD_CHAR:
        raise ParseError("/field", f"need p <= {MAX_FIELD_CHAR}, got {p}")
    return _built("/field", GF, p)


# ---------------------------------------------------------------------------
# representations


def _parse_mat(F, rows, pointer) -> Mat:
    if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
        raise ParseError(pointer, "matrix must be a list of rows")
    ncols = len(rows[0]) if rows else 0
    if any(len(r) != ncols for r in rows):
        raise ParseError(pointer, "ragged matrix")
    return Mat(F, len(rows), ncols, tuple(
        tuple(F.scalar(x, f"{pointer}/{i}/{j}")
              for j, x in enumerate(r)) for i, r in enumerate(rows)))


def _parse_region(q, obj, pointer) -> VertexSet:
    if not isinstance(obj, dict):
        raise ParseError(pointer, "region must be an object")
    expl = [_parse_vert(q, v, f"{pointer}/explicit/{i}") for i, v in
            enumerate(_list(obj.get("explicit", []), f"{pointer}/explicit"))]
    tails = []
    for i, t in enumerate(_list(obj.get("tails", []), f"{pointer}/tails")):
        if not isinstance(t, list) or len(t) != 3:
            raise ParseError(f"{pointer}/tails/{i}", "tail must be [end, ray, start]")
        tails.append((t[0], t[1],
                      _start(t[2], f"{pointer}/tails/{i}/2", "tail start")))
    return _built(pointer, VertexSet.make, q, expl, tails)


def _parse_path(q, obj, pointer) -> Path:
    src = _parse_vert(q, _need(obj, "src", pointer), f"{pointer}/src")
    cur = src
    arrows = []
    for i, lbl in enumerate(_list(obj.get("arrows", []),
                                  f"{pointer}/arrows")):
        nxt = next((a for a in q.out_arrows(cur) if a.label == lbl), None)
        if nxt is None:
            raise ParseError(f"{pointer}/arrows/{i}",
                             f"no arrow {lbl!r} out of {q.vertex_str(cur)}")
        arrows.append(nxt)
        cur = nxt.dst
    return Path(src, cur, tuple(arrows))


def _parse_pm(q, F, obj, pointer) -> PathMatrix:
    side = _need(obj, "side", pointer, str)
    dom = [_parse_vert(q, v, f"{pointer}/domain/{i}")
           for i, v in enumerate(_need(obj, "domain", pointer, list))]
    cod = [_parse_vert(q, v, f"{pointer}/codomain/{i}")
           for i, v in enumerate(_need(obj, "codomain", pointer, list))]
    entries = []
    for j, row in enumerate(_need(obj, "entries", pointer, list)):
        erow = []
        for i, combo in enumerate(_list(row, f"{pointer}/entries/{j}")):
            ptr = f"{pointer}/entries/{j}/{i}"
            cell = []
            for k, pair in enumerate(_list(combo, ptr)):
                if not isinstance(pair, list) or len(pair) != 2:
                    raise ParseError(f"{ptr}/{k}", "expected [coeff, path]")
                cell.append((pair[0], _parse_path(q, pair[1], f"{ptr}/{k}/1")))
            erow.append(cell)
        entries.append(erow)
    return _built(pointer, path_matrix, q, F, side, dom, cod, entries)


def parse_rep(q: QuiverBase, obj, field=QQ, pointer: str = "") -> Rep:
    F = field
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ParseError(pointer or "/", "rep spec must have exactly one key")
    (key, val), = obj.items()
    ptr = f"{pointer}/{key}"
    if key == "zero":
        return zero_rep(q, F)
    if key == "proj":
        return projective_at(q, _parse_vert(q, val, ptr), F)
    if key == "inj":
        return injective_at(q, _parse_vert(q, val, ptr), F)
    if key == "simple":
        return simple_at(q, _parse_vert(q, val, ptr), F)
    if key == "thin":
        return thin_rep(q, _parse_region(q, val, ptr), F)
    if key == "explicit_fd":
        dims = {_parse_vert(q, k, f"{ptr}/dims"): d
                for k, d in _need(val, "dims", ptr, dict).items()}
        mats = val.get("mats", {})
        if not isinstance(mats, dict):
            raise ParseError(f"{ptr}/mats", "expected dict")
        mats = {lbl: _parse_mat(F, rows, f"{ptr}/mats/{lbl}")
                for lbl, rows in mats.items()}
        return _built(ptr, explicit_fd, q, dims, mats, F)
    if key == "sum":
        parts = [parse_rep(q, p, F, f"{ptr}/{i}")
                 for i, p in enumerate(_list(val, ptr))]
        return direct_sum(*parts) if parts else zero_rep(q, F)
    if key == "dual":
        return dualize(parse_rep(q.opposite(), val, F, ptr))
    if key == "restrict":
        base = parse_rep(q, _need(val, "rep", ptr), F, f"{ptr}/rep")
        region = _parse_region(q, _need(val, "region", ptr), f"{ptr}/region")
        return restrict(base, region)
    if key in ("coker_proj", "ker_inj"):
        return _built(ptr, coker_proj if key == "coker_proj" else ker_inj,
                      _parse_pm(q, F, val, ptr))
    if key == "glue":
        sub = parse_rep(q, _need(val, "sub", ptr), F, f"{ptr}/sub")
        quot = parse_rep(q, _need(val, "quot", ptr), F, f"{ptr}/quot")
        coc = []
        for i, e in enumerate(_list(val.get("cocycle", []),
                                    f"{ptr}/cocycle")):
            eptr = f"{ptr}/cocycle/{i}"
            src = _parse_vert(q, _need(e, "src", eptr), f"{eptr}/src")
            lbl = _need(e, "label", eptr, str)
            arrow = next((a for a in q.out_arrows(src) if a.label == lbl),
                         None)
            if arrow is None:
                raise ParseError(f"{eptr}/label", f"no arrow {lbl!r}")
            coc.append((arrow, _parse_mat(F, _need(e, "mat", eptr),
                                          f"{eptr}/mat")))
        fams = []
        for i, f in enumerate(_list(val.get("families", []),
                                    f"{ptr}/families")):
            if not isinstance(f, list) or len(f) != 4:
                raise ParseError(f"{ptr}/families/{i}",
                                 "family must be [end, crossing, start, coeff]")
            fams.append(RungFamily(
                f[0], f[1],
                _start(f[2], f"{ptr}/families/{i}/2", "family start"), f[3]))
        return _built(ptr, glue_rep, sub, quot, coc, fams)
    raise ParseError(pointer or "/", f"unknown rep constructor {key!r}")


def snapshot_rep(m: Rep) -> dict:
    """Evaluation snapshot: canonical spec when available, else dims plus
    arrow matrices over the certified probe window."""
    try:
        return {"spec": m.spec_dict()}
    except NotImplementedError:
        pass
    cert = classify_membership(m)
    verts, _ = joint_window([m], 1)
    q = m.quiver
    dims = {q.vertex_str(v): m.dim(v) for v in verts}
    mats = {}
    for v in verts:
        for a in q.out_arrows(v):
            if m.dim(a.src) and m.dim(a.dst):
                mats[a.label] = _mat_json(m.mat(a))
    return {"opaque": m.describe(), "verdict": cert.verdict,
            "window_dims": dims, "window_mats": mats,
            "tails": [[t[0], t[1], t[2]] for t in cert.support.tails]}


def emit_rep(m: Rep) -> dict:
    return {"schema": SCHEMA, "rep": snapshot_rep(m)}


# ---------------------------------------------------------------------------
# components


def component_json(comp) -> dict:
    nodes = []
    for n in comp.nodes:
        nodes.append({
            "key": n.key,
            "payload": snapshot_rep(n.rep),
            "projective": n.is_projective,
            "injective": n.is_injective,
            "status": n.status,
            "hops": n.hops,
            "notes": list(n.notes),
        })
    return {
        "schema": SCHEMA,
        "component": {
            "quiver": comp.quiver.spec_dict(),
            "depth": comp.depth,
            "seed": comp.seed_key,
            "nodes": nodes,
            "arrows": [[s, d, m] for (s, d), m in sorted(comp.arrows.items())],
            "tau_links": [[a, b] for a, b in sorted(comp.tau_links.items())],
            "notes": list(comp.notes),
        },
    }


# the vertices a DOT node label lists: the first of the display window
DISPLAY_VERTICES = 14


def _display_window(comp):
    """The joint window of the node certificates at pad 0, its first
    DISPLAY_VERTICES vertices."""
    return joint_window([n.rep for n in comp.nodes], 0)[0][:DISPLAY_VERTICES]


def component_dot(comp) -> str:
    q = comp.quiver
    win = _display_window(comp)
    lines = ["digraph AR {", "  rankdir=LR;", "  node [shape=box];"]
    for n in comp.nodes:
        dims = ",".join(str(n.rep.dim(v)) for v in win)
        tag = ""
        if n.is_projective:
            tag += " P"
        if n.is_injective:
            tag += " I"
        if n.status == "frontier":
            tag += " ?"
        lines.append(f'  n{n.key} [label="{n.key}:[{dims}]{tag}"];')
    for (s, d), mult in sorted(comp.arrows.items()):
        for _ in range(mult):
            lines.append(f"  n{s} -> n{d};")
    for a, b in sorted(comp.tau_links.items()):
        lines.append(f"  n{a} -> n{b} [style=dashed, constraint=false];")
    lines.append("}")
    return "\n".join(lines) + "\n"
