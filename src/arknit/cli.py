"""Command line interface.

Exit codes: 0 success, 1 domain or parse errors, 2 a computation that the
finite window cannot decide (BudgetError), 3 internal errors (a broken
invariant of the engine, such as a constructor's periodicity contract).
Output is deterministic: identical invocations produce identical bytes.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .ar import (almost_split_sequence, ar_category_kind, classify_component,
                 knit, tau, tau_inv, verify_almost_split)
from .ext import ext_space
from .hom import decompose_report, hom_space
from .io import (SCHEMA, ParseError, component_dot, component_json, emit_rep,
                 parse_field, parse_quiver, parse_rep, snapshot_rep)
from .morphism import verify_exact
from .quiver import vkey
from .rep import (BudgetError, classify_membership, injective_at,
                  joint_window, projective_at, simple_at)

MAX_DEPTH = 32     # knit/classify hop depth
MAX_RADIUS = 1000  # display window radius past the stable cutoffs


def _load_spec(text: str, what: str):
    """A spec argument is either inline JSON or a path to a JSON file."""
    s = text.strip()
    if not s.startswith(("{", "[")):
        if not os.path.exists(text):
            raise ParseError(f"/{what}", f"file not found: {text}")
        with open(text) as fh:
            s = fh.read()
    try:
        obj = json.loads(s)
    except json.JSONDecodeError as e:
        raise ParseError(f"/{what}", f"invalid JSON at line {e.lineno} "
                                     f"column {e.colno}: {e.msg}")
    if isinstance(obj, dict) and obj.get("schema", SCHEMA) != SCHEMA:
        raise ParseError(f"/{what}/schema",
                         f"unsupported schema {obj['schema']!r}")
    if isinstance(obj, dict):
        for key in ("quiver", "rep"):
            if key in obj and "schema" in obj:
                return obj[key]
    return obj


def _common(p, rep_args=(), radius=False):
    p.add_argument("--quiver", required=True,
                   help="quiver spec: inline JSON or a file path")
    for name, hlp in rep_args:
        p.add_argument(f"--{name}", required=True, help=hlp)
    p.add_argument("--field", default="QQ",
                   help="QQ (default) or a prime p for GF(p)")
    if radius:
        p.add_argument("--radius", type=int, default=2,
                       help="display window radius for dimension snapshots")
    p.add_argument("--out", default="-", help="output file, - for stdout")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="arknit",
        description="exact computations with locally finite quiver "
                    "representations of finite-data type")
    sub = ap.add_subparsers(dest="verb", required=True)

    _common(sub.add_parser("quiver", help="inspect a quiver"))
    _common(sub.add_parser("rep", help="parse and classify a representation"),
            [("rep", "representation spec")], radius=True)
    _common(sub.add_parser("member", help="class membership verdict"),
            [("rep", "representation spec")])
    _common(sub.add_parser("hom", help="Hom space between two objects"),
            [("src", "source spec"), ("dst", "target spec")])
    _common(sub.add_parser("ext", help="Ext classes 0 -> sub -> E -> quot -> 0"),
            [("quot", "quotient term spec"), ("sub", "sub term spec")])
    t = sub.add_parser("tau", help="translate of an object")
    _common(t, [("rep", "representation spec")], radius=True)
    t.add_argument("--inverse", action="store_true",
                   help="apply the inverse translate")
    a = sub.add_parser("ass", help="almost split sequence ending at an object")
    _common(a, [("rep", "representation spec")], radius=True)
    a.add_argument("--no-verify", action="store_true",
                   help="skip the lifting/factoring battery")
    k = sub.add_parser("knit", help="grow the AR component of a seed")
    _common(k, [("seed", "seed representation spec")])
    k.add_argument("--depth", type=int, default=4)
    k.add_argument("--format", choices=("json", "dot"), default="json")
    c = sub.add_parser("classify", help="classify the AR component of a seed")
    _common(c, [("seed", "seed representation spec")])
    c.add_argument("--depth", type=int, default=4)
    _common(sub.add_parser("decompose", help="indecomposable decomposition"),
            [("rep", "representation spec")])
    e = sub.add_parser("export", help="canonical JSON for a quiver or object")
    _common(e)
    e.add_argument("--rep", default=None, help="optional representation spec")
    return ap


def _dims(q, m, verts):
    return {q.vertex_str(v): m.dim(v) for v in verts}


def _profiles_json(cert):
    out = []
    for p in cert.profiles:
        out.append({
            "end": p.eid,
            "cutoff": p.cutoff,
            "rays": [{"ray": r.rid, "kind": r.kind, "dim": r.dim,
                      "status": r.status} for r in p.rays],
            "crossings": [{"crossing": c.cid, "nonzero": c.nonzero}
                          for c in p.crossings],
        })
    return out


def _morphism_json(q, f, verts):
    return {q.vertex_str(v): [[str(x) for x in row]
                              for row in f.component(v).entries]
            for v in verts}


def run(args) -> dict | str:
    for name, cap in (("depth", MAX_DEPTH), ("radius", MAX_RADIUS)):
        value = getattr(args, name, None)
        if value is not None and value < 0:
            raise ParseError(f"/{name}", f"must be >= 0, got {value}")
        if value is not None and value > cap:
            raise ParseError(f"/{name}", f"must be <= {cap}, got {value}")
    q = parse_quiver(_load_spec(args.quiver, "quiver"))
    field = parse_field(args.field)

    def rep_of(text, what):
        return parse_rep(q, _load_spec(text, what), field)

    if args.verb == "quiver":
        ends = q.ends()
        return {"schema": SCHEMA, "quiver": q.spec_dict(),
                "kind": ar_category_kind(q),
                "ends": [e.eid for e in ends]}

    if args.verb == "rep":
        m = rep_of(args.rep, "rep")
        cert = classify_membership(m)
        win, _ = joint_window([cert], args.radius)
        return {"schema": SCHEMA, "rep": snapshot_rep(m),
                "verdict": cert.verdict, "dims": _dims(q, m, win)}

    if args.verb == "member":
        m = rep_of(args.rep, "rep")
        cert = classify_membership(m)
        return {"schema": SCHEMA, "verdict": cert.verdict,
                "in_class": cert.is_in_rrep(),
                "witnesses": list(cert.witnesses),
                "profiles": _profiles_json(cert)}

    if args.verb == "hom":
        src = rep_of(args.src, "src")
        dst = rep_of(args.dst, "dst")
        hb = hom_space(src, dst)
        win = sorted(hb.window, key=vkey)
        return {"schema": SCHEMA, "dimension": hb.dimension,
                "route": hb.route,
                "window": [q.vertex_str(v) for v in win],
                "basis": [_morphism_json(q, f, win) for f in hb.basis]}

    if args.verb == "ext":
        quot = rep_of(args.quot, "quot")
        sub = rep_of(args.sub, "sub")
        ecb = ext_space(quot, sub)
        return {"schema": SCHEMA, "dimension": ecb.dimension,
                "window_relative": ecb.window_relative,
                "interaction_arrows": [a.label for a in ecb.arrows],
                "symbolic_families": list(ecb.families)}

    if args.verb == "tau":
        m = rep_of(args.rep, "rep")
        out = tau_inv(m) if args.inverse else tau(m)
        cert = classify_membership(out)
        win, _ = joint_window([cert], args.radius)
        return {"schema": SCHEMA, "rep": snapshot_rep(out),
                "verdict": cert.verdict, "dims": _dims(q, out, win)}

    if args.verb == "ass":
        x = rep_of(args.rep, "rep")
        ses = almost_split_sequence(x)
        cert = classify_membership(ses.middle)
        win, _ = joint_window([cert], args.radius)
        payload = {
            "schema": SCHEMA,
            "sub": snapshot_rep(ses.sub),
            "middle": snapshot_rep(ses.middle),
            "quot": snapshot_rep(ses.quot),
            "dims": {"sub": _dims(q, ses.sub, win),
                     "middle": _dims(q, ses.middle, win),
                     "quot": _dims(q, ses.quot, win)},
            "exact_on_window": verify_exact(ses, win)["exact"],
        }
        if not args.no_verify:
            battery = []
            for v in win:
                battery += [simple_at(q, v, field), projective_at(q, v, field),
                            injective_at(q, v, field)]
            rep = verify_almost_split(ses, battery)
            payload["battery"] = {
                "size": rep.battery_size,
                "exact": rep.exact,
                "non_split": rep.non_split,
                "ends_indecomposable": rep.sub_indecomposable
                and rep.quot_indecomposable,
                "lift_failures": rep.lift_failures,
                "factor_failures": rep.factor_failures,
                "passed": rep.passed,
            }
        return payload

    if args.verb in ("knit", "classify"):
        seed = rep_of(args.seed, "seed")
        comp = knit(seed, args.depth)
        if args.verb == "knit":
            if args.format == "dot":
                return component_dot(comp)
            return component_json(comp)
        hyp = classify_component(comp)
        return {"schema": SCHEMA, "tag": hyp.tag,
                "certificate": hyp.certificate,
                "nodes": len(comp.nodes),
                "arrows": sum(comp.arrows.values()),
                "notes": list(comp.notes)}

    if args.verb == "decompose":
        m = rep_of(args.rep, "rep")
        rep = decompose_report(m)
        return {"schema": SCHEMA,
                "summands": [{"payload": snapshot_rep(r),
                              "multiplicity": k} for r, k in rep.items],
                "indecomposable_certified": not rep.flagged,
                }

    if args.verb == "export":
        if args.rep is not None:
            return emit_rep(rep_of(args.rep, "rep"))
        return {"schema": SCHEMA, "quiver": q.spec_dict()}

    raise ParseError("/verb", f"unknown verb {args.verb!r}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload = run(args)
    except BudgetError as e:
        print(f"arknit: budget exhausted: {e}", file=sys.stderr)
        return 2
    except (ParseError, ValueError, KeyError) as e:
        print(f"arknit: error: {e}", file=sys.stderr)
        return 1
    except AssertionError as e:
        print(f"arknit: internal error: {e}", file=sys.stderr)
        return 3
    if isinstance(payload, str):
        text = payload
    else:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
