"""JSON parsing/emission (schema arknit/1) and DOT output.

Vertices are serialized as strings (the quiver's vertex_str form), matrices
as string entries so rationals survive the round trip.  Parse errors carry a
JSON-pointer style path to the offending element.
"""
from __future__ import annotations

from .linalg import GF, QQ, Mat
from .quiver import (FiniteQuiver, Path, PRESETS, QuiverBase, VertexSet,
                     kronecker_quiver, linear_quiver, vkey)
from .rep import (PathMatrix, Rep, RungFamily, classify_membership,
                  coker_proj, direct_sum, dualize, explicit_fd, glue_rep,
                  injective_at, joint_window, ker_inj, path_matrix,
                  projective_at, restrict, simple_at, thin_rep, zero_rep)

SCHEMA = "arknit/1"
# P(1) or I(n) on the linear quiver of n vertices holds n^2/2 arrows in its
# bases; `member` on either peaks near 55 MB of RSS at n = 3000.  The same
# cap bounds the depth of a vertex on a ray of an infinite preset, whose
# closures and bases grow the same way.
MAX_LINEAR_N = 3000
# GF(p) checks p for primality by trial division up to sqrt(p), about 46,000
# steps at this cap; a prime of twenty digits would take hours.
MAX_FIELD_CHAR = 2**31 - 1


class ParseError(ValueError):
    def __init__(self, pointer: str, message: str):
        super().__init__(f"{pointer}: {message}")
        self.pointer = pointer


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
            n = _natural(_need(obj, "n", pointer), f"{pointer}/n", "n")
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
        try:
            return FiniteQuiver.build(vs, specs)
        except ValueError as e:
            raise ParseError(f"{pointer}/arrows", str(e))
    raise ParseError(pointer or "/",
                     "expected 'preset', 'vertices' or 'opposite'")


def _list(x, pointer: str) -> list:
    if not isinstance(x, list):
        raise ParseError(pointer, "expected list")
    return x


def _natural(x, pointer: str, what: str) -> int:
    """x when it is a JSON integer >= 0; a bool or a digit string is not."""
    if type(x) is not int or x < 0:
        raise ParseError(pointer, f"{what} must be an integer >= 0, got {x!r}")
    return x


def _start(x, pointer: str, what: str) -> int:
    """A start depth on a ray: a natural number within the cap that
    _parse_vert puts on a vertex's depth, since a support is read down to
    its deepest start."""
    t = _natural(x, pointer, what)
    if t > MAX_LINEAR_N:
        raise ParseError(pointer, f"{what} {t} is past the cap {MAX_LINEAR_N}")
    return t


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
        inside = q.contains(v)
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
    try:
        return GF(p)
    except ValueError as e:
        raise ParseError("/field", str(e))


# ---------------------------------------------------------------------------
# representations


def _parse_scalar(F, x, pointer):
    if type(x) not in (int, str):
        hint = "" if F.char else ', or a rational as a string such as "1/2"'
        raise ParseError(pointer, f"bad scalar {x!r}: write an integer{hint}")
    try:
        return F.of(x)
    except (ValueError, ZeroDivisionError) as e:
        raise ParseError(pointer, f"bad scalar {x!r}: {e}")


def _parse_mat(F, rows, pointer) -> Mat:
    if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
        raise ParseError(pointer, "matrix must be a list of rows")
    ncols = len(rows[0]) if rows else 0
    if any(len(r) != ncols for r in rows):
        raise ParseError(pointer, "ragged matrix")
    return Mat(F, len(rows), ncols, tuple(
        tuple(_parse_scalar(F, x, f"{pointer}/{i}/{j}")
              for j, x in enumerate(r)) for i, r in enumerate(rows)))


def _parse_arrow_mat(q, F, dims, lbl, rows, pointer) -> Mat:
    """The matrix of the arrow labelled lbl at a vertex of dims, shaped
    dims(dst) x dims(src) with a missing dim read as 0."""
    arrow = next((a for v in dims for a in q.out_arrows(v) + q.in_arrows(v)
                  if a.label == lbl), None)
    if arrow is None:
        raise ParseError(pointer, f"no arrow {lbl!r} at a vertex of dims")
    m = _parse_mat(F, rows, pointer)
    shape = (dims.get(arrow.dst, 0), dims.get(arrow.src, 0))
    if m.rows == 0 == shape[0]:  # [] is the one way to write 0 x n
        return Mat.zeros(F, *shape)
    if (m.rows, m.cols) != shape:
        raise ParseError(pointer, f"matrix is {m.rows}x{m.cols}, "
                                  f"arrow {lbl!r} needs {shape[0]}x{shape[1]}")
    return m


def _parse_region(q, obj, pointer) -> VertexSet:
    if not isinstance(obj, dict):
        raise ParseError(pointer, "region must be an object")
    expl = [_parse_vert(q, v, f"{pointer}/explicit/{i}") for i, v in
            enumerate(_list(obj.get("explicit", []), f"{pointer}/explicit"))]
    tails = []
    rays = [(e.eid, r.rid) for e in q.ends() for r in e.rays]
    for i, t in enumerate(_list(obj.get("tails", []), f"{pointer}/tails")):
        if not isinstance(t, list) or len(t) != 3:
            raise ParseError(f"{pointer}/tails/{i}", "tail must be [end, ray, start]")
        if not any(t[0] == eid and t[1] == rid for eid, rid in rays):
            raise ParseError(f"{pointer}/tails/{i}",
                             f"no ray {t[1]!r} on end {t[0]!r}")
        tails.append((t[0], t[1],
                      _start(t[2], f"{pointer}/tails/{i}/2", "tail start")))
    try:
        return VertexSet.make(q, expl, tails)
    except (KeyError, ValueError) as e:
        raise ParseError(f"{pointer}/tails", str(e))


def _parse_path(q, obj, pointer) -> Path:
    src = _parse_vert(q, _need(obj, "src", pointer), f"{pointer}/src")
    cur = src
    arrows = []
    for i, lbl in enumerate(_list(obj.get("arrows", []),
                                  f"{pointer}/arrows")):
        nxt = None
        for a in q.out_arrows(cur):
            if a.label == lbl:
                nxt = a
                break
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
    raw = _need(obj, "entries", pointer, list)
    if len(raw) != len(cod):
        raise ParseError(f"{pointer}/entries", "row count != codomain length")
    entries = []
    for j, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != len(dom):
            raise ParseError(f"{pointer}/entries/{j}",
                             "column count != domain length")
        erow = []
        for i, combo in enumerate(row):
            ptr = f"{pointer}/entries/{j}/{i}"
            cell = []
            for k, pair in enumerate(_list(combo, ptr)):
                if not isinstance(pair, list) or len(pair) != 2:
                    raise ParseError(f"{ptr}/{k}", "expected [coeff, path]")
                c = _parse_scalar(F, pair[0], f"{ptr}/{k}/0")
                p = _parse_path(q, pair[1], f"{ptr}/{k}/1")
                cell.append((c, p))
            erow.append(cell)
        entries.append(erow)
    try:
        return path_matrix(q, F, side, dom, cod, entries)
    except ValueError as e:
        raise ParseError(pointer, str(e))


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
        dims = {_parse_vert(q, k, f"{ptr}/dims"):
                _natural(d, f"{ptr}/dims/{k}", "dim")
                for k, d in _need(val, "dims", ptr, dict).items()}
        mats = val.get("mats", {})
        if not isinstance(mats, dict):
            raise ParseError(f"{ptr}/mats", "expected dict")
        mats = {lbl: _parse_arrow_mat(q, F, dims, lbl, rows,
                                      f"{ptr}/mats/{lbl}")
                for lbl, rows in mats.items()}
        try:
            return explicit_fd(q, dims, mats, F)
        except ValueError as e:
            raise ParseError(ptr, str(e))
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
    if key == "coker_proj":
        return coker_proj(_parse_pm(q, F, val, ptr))
    if key == "ker_inj":
        return ker_inj(_parse_pm(q, F, val, ptr))
    if key == "glue":
        sub = parse_rep(q, _need(val, "sub", ptr), F, f"{ptr}/sub")
        quot = parse_rep(q, _need(val, "quot", ptr), F, f"{ptr}/quot")
        coc = []
        for i, e in enumerate(_list(val.get("cocycle", []),
                                    f"{ptr}/cocycle")):
            eptr = f"{ptr}/cocycle/{i}"
            src = _parse_vert(q, _need(e, "src", eptr), f"{eptr}/src")
            lbl = _need(e, "label", eptr, str)
            arrow = None
            for a in q.out_arrows(src):
                if a.label == lbl:
                    arrow = a
                    break
            if arrow is None:
                raise ParseError(f"{eptr}/label", f"no arrow {lbl!r}")
            coc.append((arrow, _parse_mat(F, _need(e, "mat", eptr),
                                          f"{eptr}/mat")))
        fams = []
        crossings = [(e.eid, c[0]) for e in q.ends() for c in e.crossings]
        for i, f in enumerate(_list(val.get("families", []),
                                    f"{ptr}/families")):
            if not isinstance(f, list) or len(f) != 4:
                raise ParseError(f"{ptr}/families/{i}",
                                 "family must be [end, crossing, start, coeff]")
            if (f[0], f[1]) not in crossings:
                raise ParseError(f"{ptr}/families/{i}",
                                 f"no crossing {f[1]!r} on end {f[0]!r}")
            fams.append(RungFamily(
                f[0], f[1],
                _start(f[2], f"{ptr}/families/{i}/2", "family start"),
                _parse_scalar(F, f[3], f"{ptr}/families/{i}/3")))
        try:
            return glue_rep(sub, quot, coc, fams)
        except ValueError as e:
            raise ParseError(ptr, str(e))
    raise ParseError(pointer or "/", f"unknown rep constructor {key!r}")


def snapshot_rep(m: Rep) -> dict:
    """Evaluation snapshot: canonical spec when available, else dims plus
    arrow matrices over the certified probe window."""
    try:
        return {"spec": m.spec_dict()}
    except NotImplementedError:
        pass
    cert = classify_membership(m)
    verts, _ = joint_window([cert], 1)
    q = m.quiver
    dims = {q.vertex_str(v): m.dim(v) for v in verts}
    mats = {}
    for v in verts:
        for a in q.out_arrows(v):
            if m.dim(a.src) and m.dim(a.dst):
                mats[a.label] = [[str(x) for x in row]
                                 for row in m.mat(a).entries]
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


def _display_window(comp, cap: int = 14):
    verts = set()
    for n in comp.nodes:
        hint = n.rep.support()
        verts.update(hint.members(2))
    out = sorted(verts, key=vkey)
    if len(out) > cap:
        out = out[:cap]
    return out


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
