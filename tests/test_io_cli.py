"""JSON schema round trips, CLI verbs, exit codes, deterministic output."""

import argparse
import io
import contextlib
import json
import os
import re

import pytest

import arknit.ar as ar_mod
import arknit.cli as cli
import arknit.ext as ext_mod
import arknit.hom as hom_mod
import arknit.io as io_mod
import arknit.presentations as presentations_mod
from arknit import (
    QQ,
    classify_membership,
    decompose,
    dim_vector,
    knit,
    parse_quiver,
    parse_rep,
    emit_quiver,
    emit_rep,
    ext_class_to_ses,
    ext_space,
    simple_at,
    tau,
)
from arknit.io import ParseError, parse_field

from test_presentations import criterion_10_knits
from test_rep import _WideningA

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

LINE = '{"preset":"line"}'
KRON = '{"preset":"kronecker"}'
A3 = '{"preset":"linear","n":3}'
ZIG = '{"preset":"zigzag"}'

ALLK = '{"thin":{"explicit":[],"tails":[["neg","v",0],["pos","v",0]]}}'
M0 = '{"thin":{"explicit":[],"tails":[["inf","even",0],["inf","odd",0]]}}'


def run_cli(argv, env=None):
    out, err = io.StringIO(), io.StringIO()
    old_env = dict(os.environ)
    if env:
        os.environ.update(env)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as e:  # argparse usage errors
                code = e.code
    finally:
        os.environ.clear()
        os.environ.update(old_env)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# quiver and rep round trips


QUIVER_SPECS = (
    {"preset": "line"},
    {"preset": "zigzag"},
    {"preset": "ladder"},
    {"preset": "ray_in"},
    {"preset": "ray_out"},
    {"preset": "kronecker"},
    {"preset": "linear", "n": 4},
    {"vertices": ["1", "2", "3"], "arrows": [["1", "2", "a"], ["1", "3"]]},
    {"opposite": {"preset": "ray_in"}},
)


def test_quiver_roundtrip_canonical():
    for spec in QUIVER_SPECS:
        q = parse_quiver(spec)
        emitted = emit_quiver(q)
        again = emit_quiver(parse_quiver(emitted["quiver"]))
        assert emitted == again


REP_SPECS = (
    ("line", {"zero": True}),
    ("line", {"proj": "0"}),
    ("line", {"inj": "-2"}),
    ("line", {"simple": "3"}),
    ("line", {"thin": {"explicit": [], "tails": [["neg", "v", 0]]}}),
    ("line", {"sum": [{"proj": "0"}, {"simple": "2"}]}),
    ("line", {"dual": {"proj": "0"}}),
    ("line", {"restrict": {"rep": {"proj": "0"},
                           "region": {"explicit": ["0", "-1"], "tails": []}}}),
    ("ladder", {"glue": {"sub": {"thin": {"explicit": [],
                                          "tails": [["inf", "b", 0]]}},
                         "quot": {"thin": {"explicit": [],
                                           "tails": [["inf", "a", 0]]}},
                         "families": [["inf", "rung", 0, "1"]]}}),
)


def test_rep_roundtrip_canonical():
    for qspec, rspec in REP_SPECS:
        q = parse_quiver({"preset": qspec})
        m = parse_rep(q, rspec, QQ)
        emitted = emit_rep(m)
        again = emit_rep(parse_rep(q, emitted["rep"]["spec"], QQ))
        assert emitted == again


def test_explicit_fd_rep_roundtrip(a3):
    spec = {"explicit_fd": {"dims": {"1": 1, "2": 2},
                            "mats": {"1>2": [["1"], ["-2/3"]]}}}
    m = parse_rep(a3, spec, QQ)
    assert dim_vector(m, (1, 2, 3)) == (1, 2, 0)
    again = parse_rep(a3, emit_rep(m)["rep"]["spec"], QQ)
    assert emit_rep(again) == emit_rep(m)


def test_glue_cocycle_roundtrip(a3):
    # the middle of the nonsplit 0 -> S(2) -> M -> S(1) -> 0 is glued along
    # the arrow 1 -> 2, so its spec lists one cocycle entry
    mid = ext_class_to_ses(ext_space(simple_at(a3, 1), simple_at(a3, 2)),
                           (1,)).middle
    spec = emit_rep(mid)["rep"]["spec"]
    assert [(e["src"], e["label"]) for e in spec["glue"]["cocycle"]] == \
        [("1", "1>2")]
    again = parse_rep(a3, spec, QQ)
    assert emit_rep(again) == emit_rep(mid)
    assert dim_vector(again, (1, 2, 3)) == (1, 1, 0)
    assert again.mat(a3.out_arrows(1)[0]) == mid.mat(a3.out_arrows(1)[0])
    spec["glue"]["cocycle"][0]["label"] = "zzz"
    with pytest.raises(ParseError) as e:
        parse_rep(a3, spec, QQ)
    assert str(e.value) == "/glue/cocycle/0/label: no arrow 'zzz'"


def test_pm_rep_roundtrip(a3):
    spec = {"coker_proj": {"side": "proj", "domain": ["3"], "codomain": ["1"],
                           "entries": [[[["1", {"src": "1",
                                                "arrows": ["1>2", "2>3"]}]]]]}}
    m = parse_rep(a3, spec, QQ)
    assert dim_vector(m, (1, 2, 3)) == (1, 1, 0)
    assert emit_rep(parse_rep(a3, emit_rep(m)["rep"]["spec"], QQ)) == emit_rep(m)


def test_tau_spec_roundtrip(a3):
    t = tau(simple_at(a3, 2))
    spec = json.loads(json.dumps(t.spec_dict()))
    assert list(spec) == ["ker_inj"]
    back = parse_rep(a3, spec, QQ)
    assert dim_vector(back, (1, 2, 3)) == dim_vector(t, (1, 2, 3)) == (0, 0, 1)
    assert back.spec_dict() == t.spec_dict()


def test_parse_errors_carry_pointers(a3):
    with pytest.raises(ParseError) as e:
        parse_quiver({"preset": "nope"})
    assert "/preset" in str(e.value)
    with pytest.raises(ParseError):
        parse_rep(a3, {"wat": 1}, QQ)
    with pytest.raises(ParseError) as e:
        parse_field(6)
    assert "/field" in str(e.value)
    assert parse_field("7").char == 7
    assert parse_field(None) is QQ


@pytest.mark.parametrize("tail, message", [
    (["neg", "w", 0], "no ray 'w' on end 'neg'"),
    (["zzz", "v", 2], "no ray 'v' on end 'zzz'"),
])
def test_region_tails_name_a_ray(line, tail, message):
    with pytest.raises(ParseError) as e:
        parse_rep(line, {"thin": {"tails": [["pos", "v", 0], tail]}}, QQ)
    assert str(e.value) == f"/thin/tails/1: {message}"


@pytest.mark.parametrize("quiver, rep, message", [
    (KRON, {"explicit_fd": {"dims": {"1": 1, "2": 1}, "mats": {"zzz": [[1]]}}},
     "/explicit_fd/mats/zzz: no arrow 'zzz' at a vertex of dims"),
    (KRON, {"explicit_fd": {"dims": {"1": 1, "2": 1},
                            "mats": {"alpha": [[1, 0], [0, 1]]}}},
     "/explicit_fd/mats/alpha: matrix is 2x2, arrow 'alpha' needs 1x1"),
    (KRON, {"explicit_fd": {"dims": {"1": 1}, "mats": {"beta": [[1]]}}},
     "/explicit_fd/mats/beta: matrix is 1x1, arrow 'beta' needs 0x1"),
    (KRON, {"explicit_fd": {"dims": {"1": 1}, "mats": [[1]]}},
     "/explicit_fd/mats: expected dict"),
    (KRON, {"explicit_fd": {"dims": {"1": -1, "2": 1}}},
     "/explicit_fd/dims/1: dim must be an integer >= 0, got -1"),
    (KRON, {"explicit_fd": {"dims": {"1": "x", "2": 1}}},
     "/explicit_fd/dims/1: dim must be an integer >= 0, got 'x'"),
    (KRON, {"explicit_fd": {"dims": {"1": True}}},
     "/explicit_fd/dims/1: dim must be an integer >= 0, got True"),
    (LINE, {"explicit_fd": {"dims": {"0": 1}, "mats": {"2>1": []}}},
     "/explicit_fd/mats/2>1: no arrow '2>1' at a vertex of dims"),
    (LINE, {"thin": {"tails": [["neg", "v", "x"]]}},
     "/thin/tails/0/2: tail start must be an integer >= 0, got 'x'"),
    (LINE, {"thin": {"tails": [["neg", "v", -3]]}},
     "/thin/tails/0/2: tail start must be an integer >= 0, got -3"),
    ('{"preset":"ladder"}',
     {"glue": {"sub": {"thin": {"tails": [["inf", "b", 0]]}},
               "quot": {"thin": {"tails": [["inf", "a", 0]]}},
               "families": [["inf", "rung", -3, "1"]]}},
     "/glue/families/0/2: family start must be an integer >= 0, got -3"),
    (LINE, {"sum": [{"simple": "0"},
                    {"restrict": {"rep": {"proj": "0"},
                                  "region": {"tails": [["neg", "v", 1.5]]}}}]},
     "/sum/1/restrict/region/tails/0/2: tail start must be an integer >= 0, "
     "got 1.5"),
    # a start past the vertex depth cap would have the support of the other
    # tail read down to it
    (LINE, {"thin": {"tails": [["neg", "v", 0], ["pos", "v", 100000000]]}},
     "/thin/tails/1/2: tail start 100000000 is past the cap 3000"),
    ('{"preset":"ladder"}',
     {"glue": {"sub": {"thin": {"tails": [["inf", "b", 0]]}},
               "quot": {"thin": {"tails": [["inf", "a", 0]]}},
               "families": [["inf", "rung", 100000000, "1"]]}},
     "/glue/families/0/2: family start 100000000 is past the cap 3000"),
])
def test_cli_rejects_bad_explicit_fd_and_starts(quiver, rep, message):
    code, out, err = run_cli(["rep", "--quiver", quiver,
                              "--rep", json.dumps(rep)])
    assert (code, out, err) == (1, "", f"arknit: error: {message}\n")


def test_explicit_fd_accepts_every_arrow_at_its_dims(line):
    spec = {"explicit_fd": {"dims": {"0": 1, "-1": 2, "-2": 0},
                            "mats": {"0>-1": [["1"], ["2"]], "-1>-2": []}}}
    m = parse_rep(line, spec, QQ)
    assert dim_vector(m, (0, -1, -2)) == (1, 2, 0)
    assert [(a.label, m.mat(a).rows, m.mat(a).cols)
            for a in line.out_arrows(-1)] == [("-1>-2", 0, 2)]
    assert emit_rep(parse_rep(line, emit_rep(m)["rep"]["spec"], QQ)) == \
        emit_rep(m)


RATIONAL_HINT = ', or a rational as a string such as "1/2"'


@pytest.mark.parametrize("field, hint", [("QQ", RATIONAL_HINT), ("3", "")])
@pytest.mark.parametrize("x, shown", [
    ("0.1", "0.1"), ("1.5", "1.5"), ("2.0", "2.0"), ("true", "True"),
    ("null", "None"), ("[1]", "[1]"), ('"abc"', "'abc'")])
def test_cli_rejects_non_integer_json_scalars(field, hint, x, shown):
    # a JSON float or boolean is no exact scalar: 0.1 is not 1/10 and
    # GF(3) would truncate 1.5 to 1, so only ints and strings are read,
    # and a string must name an integer (over QQ, or a rational)
    rep = ('{"explicit_fd":{"dims":{"1":1,"2":1},"mats":{"alpha":[[%s]]}}}'
           % x)
    code, out, err = run_cli(["rep", "--quiver", KRON, "--field", field,
                              "--rep", rep])
    assert (code, out, err) == (
        1, "", f"arknit: error: /explicit_fd/mats/alpha/0/0: bad scalar "
               f"{shown}: write an integer{hint}\n")


@pytest.mark.parametrize("field, x, shown", [
    ("3", '"1/2"', "'1/2'"), ("7", '"1/0"', "'1/0'")])
def test_cli_reads_no_fraction_over_a_prime_field(field, x, shown):
    rep = ('{"explicit_fd":{"dims":{"1":1,"2":1},"mats":{"alpha":[[%s]]}}}'
           % x)
    assert run_cli(["rep", "--quiver", KRON, "--field", field, "--rep",
                    rep]) == (1, "", "arknit: error: /explicit_fd/mats/alpha/"
                                     f"0/0: bad scalar {shown}: write an "
                                     "integer\n")


@pytest.mark.parametrize("field, x, entry", [
    ("QQ", '"1/2"', "1/2"), ("QQ", '"4/2"', "2"), ("QQ", "-3", "-3"),
    ("3", '"5"', "2"), ("3", "-1", "2")])
def test_cli_reads_integer_and_string_scalars(field, x, entry):
    rep = ('{"explicit_fd":{"dims":{"1":1,"2":1},"mats":{"alpha":[[%s]]}}}'
           % x)
    code, out, _ = run_cli(["rep", "--quiver", KRON, "--field", field,
                            "--rep", rep])
    assert code == 0
    spec = json.loads(out)["rep"]["spec"]["explicit_fd"]
    assert spec["mats"]["alpha"] == [[entry]]


def test_cyclic_quiver_rejected():
    with pytest.raises(ParseError):
        parse_quiver({"vertices": ["1", "2"],
                      "arrows": [["1", "2"], ["2", "1"]]})


# ---------------------------------------------------------------------------
# CLI verbs


def test_cli_quiver_inspect():
    code, out, _ = run_cli(["quiver", "--quiver", LINE])
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "neither"
    assert sorted(payload["ends"]) == ["neg", "pos"]
    assert payload["quiver"] == {"preset": "line"}


def test_cli_member_zigzag_example():
    code, out, _ = run_cli(["member", "--quiver", ZIG, "--rep", M0])
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "notInRrep"
    assert not payload["in_class"]
    assert any("sources" in w for w in payload["witnesses"])


def test_cli_ass_with_battery():
    code, out, _ = run_cli(["ass", "--quiver", A3, "--rep", '{"simple":"2"}'])
    assert code == 0
    payload = json.loads(out)
    assert payload["exact_on_window"]
    assert payload["battery"]["passed"]
    assert payload["dims"]["sub"]["3"] == 1
    code2, out2, _ = run_cli(["ass", "--quiver", A3, "--rep",
                              '{"simple":"2"}', "--no-verify"])
    assert code2 == 0
    assert "battery" not in json.loads(out2)


@pytest.mark.parametrize("quiver, rep, golden", [
    (A3, '{"simple":"2"}', "ass_a3_simple2.json"),
    (KRON, '{"inj":"2"}', "ass_kronecker_inj2.json"),
])
def test_cli_ass_matches_golden(quiver, rep, golden):
    # the sequence, its dims and the whole battery report, byte for byte
    code, out, err = run_cli(["ass", "--quiver", quiver, "--rep", rep])
    assert (code, err) == (0, "")
    with open(os.path.join(GOLDEN, golden), newline="") as f:
        assert out == f.read()


def test_cli_tau_and_inverse():
    code, out, _ = run_cli(["tau", "--quiver", A3, "--rep", '{"simple":"2"}'])
    assert code == 0
    assert json.loads(out)["dims"] == {"3": 1}
    code, out, _ = run_cli(["tau", "--quiver", A3, "--rep", '{"simple":"2"}',
                            "--inverse"])
    assert code == 0
    assert json.loads(out)["dims"] == {"1": 1}


def test_cli_hom_ext():
    code, out, _ = run_cli(["hom", "--quiver", A3,
                            "--src", '{"proj":"2"}', "--dst", '{"inj":"2"}'])
    assert code == 0
    assert json.loads(out)["dimension"] == 1
    code, out, _ = run_cli(["ext", "--quiver", KRON,
                            "--quot", '{"simple":"1"}',
                            "--sub", '{"simple":"2"}'])
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 2
    assert not payload["window_relative"]


def test_cli_knit_json_and_classify():
    code, out, _ = run_cli(["knit", "--quiver", KRON,
                            "--seed", '{"proj":"2"}', "--depth", "5"])
    assert code == 0
    comp = json.loads(out)["component"]
    assert len(comp["nodes"]) == 6
    assert all(mult == 2 for (_, _, mult) in comp["arrows"])
    code, out, _ = run_cli(["classify", "--quiver", KRON,
                            "--seed", '{"proj":"2"}', "--depth", "5"])
    assert code == 0
    assert json.loads(out)["tag"] == "Preprojective-NQop"


def test_cli_classify_closes_the_e8_component_within_the_depth_cap():
    # from P_7 the E8 component needs 35 hops to close: 120 nodes, nothing
    # left on the frontier
    e8 = ('{"vertices":[1,2,3,4,5,6,7,8],"arrows":[[1,2],[2,3],[3,4],[4,5],'
          '[5,6],[6,7],[3,8]]}')
    code, out, err = run_cli(["classify", "--quiver", e8, "--seed",
                              '{"proj":"7"}', "--depth", "35"])
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["nodes"] == payload["certificate"]["nodes"] == 120
    assert payload["certificate"]["frontier"] == []


def test_cli_knit_dot_matches_golden():
    code, out, _ = run_cli(["knit", "--quiver", KRON,
                            "--seed", '{"proj":"2"}', "--depth", "5",
                            "--format", "dot"])
    assert code == 0
    with open(os.path.join(GOLDEN, "kronecker_knit5.dot")) as fh:
        assert out == fh.read()


def test_dot_labels_show_each_certified_support_in_the_window():
    # no label omits a vertex of its node's certified support down to the
    # node's stable depth (no window is capped on this corpus)
    for seed, depth in criterion_10_knits():
        comp = knit(seed, depth)
        win = io_mod._display_window(comp)
        labels = dict(re.findall(r'n(\d+) \[label="\d+:\[([\d,]*)\]',
                                 io_mod.component_dot(comp)))
        for n in comp.nodes:
            cert = classify_membership(n.rep)
            shown = dict(zip(win, map(int, labels[str(n.key)].split(","))))
            assert len(shown) == len(win) < 14
            for v in cert.support.members(cert.depth):
                assert shown.get(v) == n.rep.dim(v) > 0, (n.key, v)


def test_cli_decompose():
    spec = '{"sum":[{"proj":"1"},{"simple":"2"},{"simple":"2"}]}'
    code, out, _ = run_cli(["decompose", "--quiver", A3, "--rep", spec])
    assert code == 0
    payload = json.loads(out)
    assert sorted(s["multiplicity"] for s in payload["summands"]) == [1, 2]
    assert payload["indecomposable_certified"]


def test_cli_export_roundtrip():
    code, out, _ = run_cli(["export", "--quiver", LINE, "--rep", ALLK])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "arknit/1"
    q = parse_quiver({"preset": "line"})
    m = parse_rep(q, payload["rep"]["spec"], QQ)
    assert emit_rep(m)["rep"] == payload["rep"]
    code, out, _ = run_cli(["export", "--quiver", LINE])
    assert code == 0
    assert json.loads(out)["quiver"] == {"preset": "line"}


def test_cli_gf_field_flag():
    code, out, _ = run_cli(["hom", "--quiver", A3, "--field", "5",
                            "--src", '{"proj":"2"}', "--dst", '{"inj":"2"}'])
    assert code == 0
    assert json.loads(out)["dimension"] == 1


def test_cli_out_file(tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(["member", "--quiver", LINE, "--rep", ALLK,
                            "--out", str(target)])
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["verdict"] == "rrep"


@pytest.mark.parametrize("where, reason", [
    ("missing/out.json", "No such file or directory"),
    ("", "Is a directory"),
    ("/dev/full", "No space left on device"),
], ids=["missing_dir", "a_directory", "full_device"])
def test_cli_out_file_errors_name_the_pointer(tmp_path, where, reason):
    if where.startswith("/") and not os.path.exists(where):
        pytest.skip(f"{where} does not exist here")
    target = str(tmp_path / where) if not where.startswith("/") else where
    code, out, err = run_cli(["quiver", "--quiver", LINE, "--out", target])
    assert code == 1 and out == ""
    assert err == f"arknit: error: /out: cannot write {target}: {reason}\n"


@pytest.mark.parametrize("flag", ["quiver", "rep"])
def test_cli_unreadable_spec_files_name_the_pointer(tmp_path, flag):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"preset": "line", "note": "\xe9"}')
    specs = {"quiver": LINE, "rep": '{"proj":"0"}'}
    for path, reason in ((tmp_path / "none.json", "No such file or directory"),
                         (tmp_path, "Is a directory"),
                         (bad, "'utf-8' codec can't decode byte 0xe9")):
        specs[flag] = str(path)
        code, out, err = run_cli(["rep", "--quiver", specs["quiver"],
                                  "--rep", specs["rep"]])
        assert code == 1 and out == ""
        assert err.startswith(f"arknit: error: /{flag}: cannot read {path}: "
                              f"{reason}")


# objects of the kinds that the demos build, each with a spec: export writes
# them as a snapshot {"spec": ...}, which a spec argument reads back
EXPORTABLE = (
    (A3, '{"proj":"1"}'), (A3, '{"inj":"2"}'), (A3, '{"simple":"2"}'),
    (A3, '{"explicit_fd":{"dims":{"1":1,"2":2},"mats":{"1>2":[[1],[0]]}}}'),
    (A3, '{"sum":[{"proj":"1"},{"simple":"2"},{"simple":"2"}]}'),
    (LINE, '{"thin":{"explicit":[],"tails":[["neg","v",0]]}}'),
    (LINE, ALLK), (LINE, '{"inj":"0"}'), (LINE, '{"proj":"0"}'),
    (KRON, '{"simple":"1"}'), (ZIG, '{"inj":"2"}'),
)


@pytest.mark.parametrize("quiver, rep", EXPORTABLE)
def test_cli_export_of_an_object_parses_back(tmp_path, quiver, rep):
    code, exported, _ = run_cli(["export", "--quiver", quiver, "--rep", rep])
    assert code == 0
    path = tmp_path / "rep.json"
    path.write_text(exported)
    assert run_cli(["export", "--quiver", quiver, "--rep", str(path)]) == \
        (0, exported, "")
    assert run_cli(["member", "--quiver", quiver, "--rep", str(path)]) == \
        run_cli(["member", "--quiver", quiver, "--rep", rep])


def test_cli_reads_the_object_that_a_verb_printed(tmp_path):
    # tau prints the translate as a snapshot beside its verdict and dims
    code, out, _ = run_cli(["tau", "--quiver", A3, "--rep", '{"simple":"2"}'])
    assert code == 0
    path = tmp_path / "tau.json"
    path.write_text(out)
    code, again, _ = run_cli(["export", "--quiver", A3, "--rep", str(path)])
    assert code == 0
    assert json.loads(again)["rep"] == json.loads(out)["rep"]


def test_cli_refuses_an_opaque_snapshot(tmp_path):
    # a summand split off by decompose has no spec, only window data
    m = parse_rep(parse_quiver(json.loads(A3)), json.loads(
        '{"sum":[{"proj":"1"},{"simple":"2"},{"simple":"2"}]}'))
    piece = next(r for r, _ in decompose(m) if "opaque" in emit_rep(r)["rep"])
    path = tmp_path / "opaque.json"
    path.write_text(json.dumps(emit_rep(piece)))
    assert run_cli(["member", "--quiver", A3, "--rep", str(path)]) == \
        (1, "", "arknit: error: /: rep spec must have exactly one key\n")


@pytest.mark.parametrize("flag", ["quiver", "rep"])
def test_cli_refuses_an_unsupported_schema(tmp_path, flag):
    path = tmp_path / "old.json"
    path.write_text(json.dumps({"schema": "arknit/0", "quiver": {
        "preset": "line"}, "rep": {"proj": "0"}}))
    specs = {"quiver": LINE, "rep": '{"proj":"0"}', flag: str(path)}
    assert run_cli(["member", "--quiver", specs["quiver"], "--rep",
                    specs["rep"]]) == (1, "", f"arknit: error: /{flag}/schema: "
                                              f"unsupported schema 'arknit/0'\n")


# a coker_proj spec of the map P(2) -> P(1) on A3, its fields replaceable
def _pm_spec(**fields):
    pm = {"side": "proj", "domain": ["2"], "codomain": ["1"],
          "entries": [[[[1, {"src": "1", "arrows": ["1>2"]}]]]]}
    return json.dumps({"coker_proj": {**pm, **fields}})


def _fd(mats, dims='{"1":1,"2":1}'):
    return f'{{"explicit_fd":{{"dims":{dims},"mats":{{"alpha":{mats}}}}}}}'


GLUE_A3 = '{"glue":{"sub":{"simple":"2"},"quot":{"simple":"1"},"cocycle":'
REFUSALS = {
    # domain errors: an object outside rrep, a decomposable end
    "hom_not_in_rrep": (["hom", "--quiver", ZIG, "--src", M0, "--dst", M0],
                        "hom_space needs finite-data objects; domain is "
                        "notInRrep"),
    "ext_not_in_rrep": (["ext", "--quiver", ZIG, "--quot", M0, "--sub", M0],
                        "ext_space needs finite-data objects; quotient is "
                        "notInRrep"),
    "decompose_not_in_rrep": (["decompose", "--quiver", ZIG, "--rep", M0],
                              "decompose needs a finite-data object, got "
                              "notInRrep"),
    "ass_of_a_sum": (["ass", "--quiver", A3, "--rep",
                      '{"sum":[{"simple":"2"},{"simple":"2"}]}'],
                     "almost split sequence needs an indecomposable end"),
    # parse errors, each with its pointer
    "missing_key": (["rep", "--quiver", A3, "--rep",
                     '{"glue":{"quot":{"simple":"1"}}}'],
                    "/glue: missing key 'sub'"),
    "wrong_type": (["rep", "--quiver", A3, "--rep",
                    '{"explicit_fd":{"dims":[1]}}'],
                   "/explicit_fd/dims: expected dict"),
    "quiver_not_an_object": (["quiver", "--quiver", "[1]"],
                             "/: quiver spec must be an object"),
    "arrow_not_a_pair": (["quiver", "--quiver",
                          '{"vertices":[1,2],"arrows":[[1]]}'],
                         "/arrows/0: arrow must be [src, dst] or [src, dst, "
                         "label]"),
    "quiver_of_no_kind": (["quiver", "--quiver", '{"vertex":[1]}'],
                          "/: expected 'preset', 'vertices' or 'opposite'"),
    "null_vertex": (["rep", "--quiver", A3, "--rep", '{"simple":null}'],
                    "/simple: vertex None outside the quiver"),
    "bad_field": (["quiver", "--quiver", A3, "--field", "x"],
                  "/field: bad field spec 'x'"),
    "field_below_2": (["quiver", "--quiver", A3, "--field", "1"],
                      "/field: prime field needs p >= 2"),
    "bad_scalar": (["rep", "--quiver", KRON, "--rep", _fd('[["1/0"]]')],
                   "/explicit_fd/mats/alpha/0/0: bad scalar '1/0': "
                   "zero denominator"),
    "matrix_not_rows": (["rep", "--quiver", KRON, "--rep", _fd("5")],
                        "/explicit_fd/mats/alpha: matrix must be a list of "
                        "rows"),
    "ragged_matrix": (["rep", "--quiver", KRON, "--rep",
                       _fd("[[1],[1,2]]", '{"1":1,"2":2}')],
                      "/explicit_fd/mats/alpha: ragged matrix"),
    "tail_not_a_triple": (["rep", "--quiver", LINE, "--rep",
                           '{"thin":{"tails":[["neg","v"]]}}'],
                          "/thin/tails/0: tail must be [end, ray, start]"),
    "path_without_the_arrow": (["rep", "--quiver", A3, "--rep", _pm_spec(
        entries=[[[[1, {"src": "1", "arrows": ["zzz"]}]]]])],
        "/coker_proj/entries/0/0/0/1/arrows/0: no arrow 'zzz' out of 1"),
    "path_matrix_rows": (["rep", "--quiver", A3, "--rep",
                          _pm_spec(entries=[])],
                         "/coker_proj/entries: row count != codomain length"),
    "path_matrix_columns": (["rep", "--quiver", A3, "--rep",
                             _pm_spec(entries=[[]])],
                            "/coker_proj/entries/0: column count != domain "
                            "length"),
    "path_matrix_pair": (["rep", "--quiver", A3, "--rep",
                          _pm_spec(entries=[[[[1]]]])],
                         "/coker_proj/entries/0/0/0: expected [coeff, path]"),
    "path_matrix_side": (["rep", "--quiver", A3, "--rep", _pm_spec(side="x")],
                         "/coker_proj: side must be 'proj' or 'inj'"),
    "coker_proj_of_injectives": (
        ["rep", "--quiver", A3, "--rep", _pm_spec(side="inj")],
        "/coker_proj/side: coker_proj needs a projective-side path matrix"),
    "ker_inj_of_projectives": (
        ["rep", "--quiver", A3, "--rep",
         _pm_spec().replace("coker_proj", "ker_inj")],
        "/ker_inj/side: ker_inj needs an injective-side path matrix"),
    "several_keys": (["rep", "--quiver", A3, "--rep",
                      '{"proj":"1","inj":"1"}'],
                     "/: rep spec must have exactly one key"),
    "family_not_a_4_list": (["rep", "--quiver", '{"preset":"ladder"}',
                             "--rep", '{"glue":{"sub":{"simple":"a0"},'
                             '"quot":{"simple":"b0"},"families":[[1]]}}'],
                            "/glue/families/0: family must be [end, crossing, "
                            "start, coeff]"),
    "cocycle_shape": (["rep", "--quiver", A3, "--rep", GLUE_A3 +
                       '[{"src":"1","label":"1>2","mat":[[1,2]]}]}}'],
                      "/glue: dimension-mismatched cocycle entry at arrow "
                      "1>2: expected 1x1, got 1x2"),
    "cocycle_arrow": (["rep", "--quiver", A3, "--rep", GLUE_A3 +
                       '[{"src":"1","label":"zzz","mat":[[1]]}]}}'],
                      "/glue/cocycle/0/label: no arrow 'zzz'"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_cli_refusal_exits_1_with_its_message(case):
    argv, message = REFUSALS[case]
    assert run_cli(argv) == (1, "", f"arknit: error: {message}\n")


# ---------------------------------------------------------------------------
# exit codes


def test_cli_exit_1_on_bad_json():
    code, _, err = run_cli(["member", "--quiver", '{"preset":', "--rep", ALLK])
    assert code == 1
    assert "line" in err and "column" in err


def test_cli_exit_1_on_domain_error():
    code, _, err = run_cli(["tau", "--quiver", LINE, "--rep", ALLK])
    assert code == 1
    assert "rrep" in err
    code, _, err = run_cli(["member", "--quiver", LINE,
                            "--rep", '{"simple":"x"}'])
    assert code == 1


@pytest.mark.parametrize("quiver,seed,message", [
    (A3, '{"sum":[{"proj":"1"},{"proj":"2"}]}',
     "seed is a sum of 2 projective objects, not indecomposable"),
    (KRON, '{"zero":true}',
     "seed is zero; knitting needs an indecomposable seed"),
    (LINE, '{"sum":[{"inj":"0"},{"inj":"1"}]}',
     "seed is a sum of 2 injective objects, not indecomposable"),
])
def test_cli_knit_refuses_a_zero_or_decomposable_standard_seed(
        quiver, seed, message):
    code, out, err = run_cli(["knit", "--quiver", quiver, "--seed", seed,
                              "--depth", "2"])
    assert (code, out, err) == (1, "", f"arknit: error: {message}\n")


@pytest.mark.parametrize("depth", ["0", "1", "2"])
def test_cli_knit_refuses_a_decomposable_seed_at_every_depth(depth):
    # at depth 0 this seed was knit as one node; deeper, it failed in an
    # almost split sequence whose message did not name the seed
    code, out, err = run_cli(["knit", "--quiver", KRON, "--seed",
                              '{"sum":[{"proj":"2"},{"simple":"1"}]}',
                              "--depth", depth])
    assert (code, out, err) == (1, "", "arknit: error: seed is decomposable; "
                                "knitting needs an indecomposable seed\n")


@pytest.mark.parametrize("depth", ["0", "1", "2"])
def test_cli_knit_refuses_a_decomposable_doubly_infinite_seed(depth):
    # the sum of two full thin objects on line was knit as one node
    code, out, err = run_cli(["knit", "--quiver", LINE, "--seed",
                              f'{{"sum":[{ALLK},{ALLK}]}}', "--depth", depth])
    assert (code, out, err) == (1, "", "arknit: error: seed is decomposable; "
                                "knitting needs an indecomposable seed\n")


def test_cli_hom_exits_3_when_the_count_and_the_basis_disagree(monkeypatch):
    # the hom verb reads both the counted dimension and the route's basis
    count = hom_mod.HomBasis._count
    monkeypatch.setattr(hom_mod.HomBasis, "_count",
                        lambda self: count(self) + 1)
    code, out, err = run_cli(["hom", "--quiver", A3,
                              "--src", '{"proj":"2"}', "--dst", '{"inj":"2"}'])
    assert (code, out) == (3, "")
    assert err == ("arknit: internal error: Hom dimension 2 by the arrow "
                   "complex, but 1 basis morphisms on the presentation route\n")


@pytest.mark.parametrize("fault, shown", [
    (KeyError("x"), "KeyError: 'x'"), (IndexError("x"), "IndexError: x")],
    ids=["KeyError", "IndexError"])
def test_cli_exits_3_on_an_engine_fault_other_than_a_value_error(
        monkeypatch, fault, shown):
    # a stray lookup error in engine code is the engine's fault, not the
    # input's: exit 3 and one line naming the exception, no traceback
    def broken(m, head):
        raise fault

    monkeypatch.setattr(ext_mod, "ranks", broken)
    code, out, err = run_cli(["hom", "--quiver", A3,
                              "--src", '{"proj":"2"}', "--dst", '{"inj":"2"}'])
    assert (code, out) == (3, "")
    assert err == f"arknit: internal error: {shown}\n"


def test_cli_hom_on_the_window_route_reads_each_window_once(monkeypatch):
    # the count, the printed window and the window route's basis share one
    # pad-2 window and one pad-3 count: the pair's window and elimination
    # (ext.arrow_pair) at pad 2, hom's own at pad 3
    pads, ranks = [], []

    def spy(module, name, calls, read):
        real = getattr(module, name)

        def wrapped(*args):
            calls.append(read(*args))
            return real(*args)

        monkeypatch.setattr(module, name, wrapped)

    for module in (hom_mod, ext_mod):
        spy(module, "joint_window", pads, lambda objs, pad=2: pad)
    spy(ext_mod, "ranks", ranks, lambda m, head: m)
    spy(hom_mod, "rank", ranks, lambda m: m)
    code, out, err = run_cli(["hom", "--quiver", LINE, "--src", ALLK,
                              "--dst", ALLK])
    assert (code, err) == (0, "") and json.loads(out)["route"] == "window"
    assert pads == [2, 3] and len(ranks) == 2


def test_cli_ext_reads_one_window(monkeypatch):
    pads = []
    window = ext_mod.joint_window

    def spy(objs, pad=2):
        pads.append(pad)
        return window(objs, pad)

    monkeypatch.setattr(ext_mod, "joint_window", spy)
    code, out, err = run_cli(["ext", "--quiver", LINE, "--quot", ALLK,
                              "--sub", ALLK])
    assert (code, err) == (0, "") and pads == [2]


def test_cli_ass_computes_each_end_algebra_once(monkeypatch):
    # six End reads over four objects, three of them on one object
    reads, built = [], []
    end, compute = hom_mod.end_algebra, hom_mod._end_algebra

    def spy_read(m):
        reads.append(m)
        return end(m)

    def spy_compute(m):
        built.append(m)
        return compute(m)

    for mod in (hom_mod, ar_mod):
        monkeypatch.setattr(mod, "end_algebra", spy_read)
    monkeypatch.setattr(hom_mod, "_end_algebra", spy_compute)
    code, _, err = run_cli(["ass", "--quiver", A3, "--rep", '{"simple":"2"}'])
    assert (code, err) == (0, "")
    assert (len(reads), len(built)) == (6, 4)
    assert len({id(m) for m in built}) == 4


# a cokernel spec whose domain names the vertex 2 as the JSON float 2.0
COKER_2_0 = ('{"coker_proj":{"side":"proj","domain":[2.0],"codomain":[1],'
             '"entries":[[[[1,{"src":1,"arrows":["1>2"]}]]]]}}')


@pytest.mark.parametrize("argv, pointer, shown", [
    (["rep", "--quiver", A3, "--rep", '{"simple":1.0}'], "/simple", "1.0"),
    (["member", "--quiver", A3, "--rep", '{"simple":true}'], "/simple",
     "True"),
    (["hom", "--quiver", KRON, "--src", '{"proj":1.0}', "--dst",
      '{"proj":"1"}'], "/proj", "1.0"),
    (["rep", "--quiver", A3, "--rep", COKER_2_0], "/coker_proj/domain/0",
     "2.0"),
], ids=["rep_float", "member_bool", "hom_float", "coker_domain_float"])
def test_cli_refuses_a_float_or_bool_vertex_of_a_finite_quiver(argv, pointer,
                                                                shown):
    # 1.0 == True == 1, but only the JSON integer 1 names a vertex
    assert run_cli(argv) == (1, "", f"arknit: error: {pointer}: vertex "
                                    f"{shown} outside the quiver\n")


def test_cli_reads_an_int_vertex_of_a_finite_quiver():
    code, out, _ = run_cli(["rep", "--quiver", A3, "--rep",
                            COKER_2_0.replace("2.0", "2")])
    assert code == 0
    assert json.loads(out)["rep"]["spec"]["coker_proj"]["domain"] == ["2"]
    code, out, _ = run_cli(["member", "--quiver", A3, "--rep",
                            '{"simple":1}'])
    assert code == 0 and json.loads(out)["verdict"] == "fd"


EXT_STDOUT = (
    # the README example
    (KRON, '{"simple":"1"}', '{"simple":"2"}',
     '{\n  "dimension": 2,\n  "interaction_arrows": [\n    "alpha",\n'
     '    "beta"\n  ],\n  "schema": "arknit/1",\n'
     '  "symbolic_families": [],\n  "window_relative": false\n}\n'),
    # an fp quotient, counted and built on the window, flagged
    (LINE, '{"proj":"1"}', '{"proj":"0"}',
     '{\n  "dimension": 1,\n  "interaction_arrows": [\n    "-5>-6",\n'
     '    "-4>-5",\n    "-3>-4",\n    "-2>-3",\n    "-1>-2",\n'
     '    "0>-1",\n    "1>0"\n  ],\n  "schema": "arknit/1",\n'
     '  "symbolic_families": [\n    "-6->-7 repeating for depth >= 6"\n'
     '  ],\n  "window_relative": true\n}\n'),
    # an fd pair on an infinite quiver, counted on supp I(2)
    (ZIG, '{"inj":"2"}', '{"proj":"1"}',
     '{\n  "dimension": 1,\n  "interaction_arrows": [\n    "1>0",\n'
     '    "1>2",\n    "3>2"\n  ],\n  "schema": "arknit/1",\n'
     '  "symbolic_families": [],\n  "window_relative": false\n}\n'),
)


@pytest.mark.parametrize("quiver,quot,sub,stdout", EXT_STDOUT,
                         ids=("readme", "line_window", "zigzag_fd"))
def test_cli_ext_stdout_is_pinned(quiver, quot, sub, stdout):
    # the ext verb reads the count and the class basis, so they are checked
    # to agree, and prints the same bytes as when both came from one basis
    assert run_cli(["ext", "--quiver", quiver, "--quot", quot,
                    "--sub", sub]) == (0, stdout, "")


def test_cli_ext_exits_3_when_the_count_and_the_basis_disagree(monkeypatch):
    count = ext_mod.ExtClassBasis._count
    monkeypatch.setattr(ext_mod.ExtClassBasis, "_count",
                        lambda self: count(self) - 1)
    code, out, err = run_cli(["ext", "--quiver", KRON, "--quot",
                              '{"simple":"1"}', "--sub", '{"simple":"2"}'])
    assert (code, out) == (3, "")
    assert err == ("arknit: internal error: Ext dimension 1 by the arrow "
                   "complex, but 2 basis classes on the interaction window\n")


def test_cli_exit_3_on_internal_error(monkeypatch):
    def broken(args):
        raise AssertionError("morphism does not commute with arrows")

    monkeypatch.setattr(cli, "run", broken)
    code, out, err = run_cli(["quiver", "--quiver", LINE])
    assert code == 3
    assert out == ""
    assert err == ("arknit: internal error: "
                   "morphism does not commute with arrows\n")


def test_cli_exit_3_on_a_broken_periodicity_contract(monkeypatch):
    # an object whose band data on ray a change at every depth
    monkeypatch.setattr(cli, "parse_rep",
                        lambda q, spec, field: _WideningA(q, field))
    code, out, err = run_cli(["member", "--quiver", '{"preset":"ladder"}',
                              "--rep", '{"zero":true}'])
    assert (code, out) == (3, "")
    assert err == ("arknit: internal error: end inf: band data at depths 3 "
                   "and 4 differ past structural depth 0; rays changing: a\n")


def test_cli_exit_3_on_a_window_hom_dimension_that_moves(monkeypatch):
    # a Hom dimension that grows with the pad of the window route
    monkeypatch.setattr(hom_mod, "solve_natural",
                        lambda src, dst, verts: [{}] * len(verts))
    code, out, err = run_cli(["hom", "--quiver", LINE,
                              "--src", ALLK, "--dst", ALLK])
    assert (code, out) == (3, "")
    assert err.startswith("arknit: internal error: window Hom dimension ")
    assert "at pad 2 and " in err and "at pad 3, window depth " in err


def test_cli_exit_3_on_a_presentation_that_breaks_the_contract(monkeypatch):
    # a cover that misses the top of S(-2)
    monkeypatch.setattr(presentations_mod, "top_generators",
                        lambda m, region: [])
    code, out, err = run_cli(["hom", "--quiver", LINE, "--src",
                              '{"simple":"-2"}', "--dst", '{"simple":"-2"}'])
    assert (code, out) == (3, "")
    assert err == ("arknit: internal error: the cover of a finitely presented "
                   "object is not onto at -2 (end neg, ray v, depth 2)\n")


def test_cli_large_linear_quiver():
    code, out, _ = run_cli(["quiver", "--quiver",
                            '{"preset":"linear","n":3000}'])
    assert code == 0
    assert len(json.loads(out)["quiver"]["vertices"]) == 3000


def test_cli_member_on_large_linear_quiver():
    code, out, _ = run_cli(["member", "--quiver",
                            '{"preset":"linear","n":2000}',
                            "--rep", '{"proj":"1"}'])
    assert code == 0
    assert json.loads(out)["verdict"] == "fd"


@pytest.mark.parametrize("spec, pointer", [
    ('{"vertices":[[1]]}', "/vertices/0"),
    ('{"vertices":[1, 2.5]}', "/vertices/1"),
    ('{"vertices":[1, true]}', "/vertices/1"),
    ('{"vertices":[1, 2],"arrows":[[1, [2]]]}', "/arrows/0/1"),
    ('{"vertices":[1],"arrows":5}', "/arrows"),
])
def test_cli_rejects_non_scalar_vertex_ids(spec, pointer):
    code, out, err = run_cli(["quiver", "--quiver", spec])
    assert code == 1
    assert out == ""
    assert f"{pointer}:" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, env", [
    (["knit", "--seed", '{"proj":"1"}', "--depth", "-2"], None),
    (["rep", "--rep", '{"proj":"1"}', "--radius", "-1"], None),
])
def test_cli_rejects_negative_depth_and_radius(monkeypatch, argv, env):
    def boom(*a, **k):
        raise RuntimeError("computation started")

    monkeypatch.setattr(cli, "parse_quiver", boom)
    code, out, err = run_cli(argv[:1] + ["--quiver", A3] + argv[1:], env=env)
    assert code == 1
    assert out == ""
    assert "must be >= 0" in err


@pytest.mark.parametrize("argv, env, pointer", [
    (["knit", "--depth", str(cli.MAX_DEPTH + 1)], None, "/depth"),
    (["classify", "--depth", "100000"], None, "/depth"),
])
def test_cli_caps_depth(monkeypatch, argv, env, pointer):
    def boom(*a, **k):
        raise RuntimeError("knit started")

    monkeypatch.setattr(ar_mod, "knit", boom)
    code, out, err = run_cli(argv[:1] + ["--quiver", KRON, "--seed",
                                         '{"proj":"2"}'] + argv[1:], env=env)
    assert code == 1
    assert out == ""
    assert err.startswith(f"arknit: error: {pointer}:")
    assert "Traceback" not in err and "invalid literal" not in err


def test_cli_caps_admit_their_bounds(monkeypatch):
    seen = {}

    def stop(seed, depth):
        seen.update(depth=depth)
        raise ValueError("stopped before knitting")

    monkeypatch.setattr(ar_mod, "knit", stop)
    code, _, err = run_cli(["knit", "--quiver", KRON, "--seed", '{"proj":"2"}',
                            "--depth", str(cli.MAX_DEPTH)])
    assert code == 1 and "stopped before knitting" in err
    assert seen == {"depth": cli.MAX_DEPTH}
    # the largest depth a library test knits
    assert cli.MAX_DEPTH >= 10


@pytest.mark.parametrize("radius, message", [
    (-3, "/radius: must be >= 0, got -3"),
    (cli.MAX_RADIUS + 1, f"/radius: must be <= {cli.MAX_RADIUS}, got "
                         f"{cli.MAX_RADIUS + 1}"),
    (1000000, f"/radius: must be <= {cli.MAX_RADIUS}, got 1000000"),
])
def test_cli_caps_radius(monkeypatch, radius, message):
    def boom(*a, **k):
        raise RuntimeError("computation started")

    monkeypatch.setattr(cli, "parse_quiver", boom)
    code, out, err = run_cli(["rep", "--quiver", LINE, "--rep",
                              '{"proj":"0"}', "--radius", str(radius)])
    assert code == 1
    assert out == ""
    assert err == f"arknit: error: {message}\n"


@pytest.mark.parametrize("n", [0, io_mod.MAX_LINEAR_N + 1, 10 ** 9])
def test_cli_caps_linear_n(monkeypatch, n):
    def boom(*a, **k):
        raise RuntimeError("quiver built")

    monkeypatch.setattr(io_mod, "linear_quiver", boom)
    code, out, err = run_cli(["member", "--quiver",
                              f'{{"preset":"linear","n":{n}}}',
                              "--rep", '{"proj":"1"}'])
    assert code == 1
    assert out == ""
    assert err == (f"arknit: error: /n: need 1 <= n <= {io_mod.MAX_LINEAR_N}, "
                   f"got {n}\n")


LADDER = '{"preset":"ladder"}'
THIN_A = {"thin": {"tails": [["inf", "a", 0]]}}
THIN_B = {"thin": {"tails": [["inf", "b", 0]]}}


def _glue(family, sub=THIN_B, quot=THIN_A):
    return json.dumps({"glue": {"sub": sub, "quot": quot,
                                "families": [family]}})


@pytest.mark.parametrize("argv, message", [
    (["rep", "--quiver", LINE, "--rep", '{"thin":[]}'],
     "/thin: region must be an object"),
    (["rep", "--quiver", LINE, "--rep",
      '{"restrict":{"rep":{"proj":"0"},"region":[]}}'],
     "/restrict/region: region must be an object"),
    (["rep", "--quiver", LINE, "--rep", '{"thin":{"explicit":"0"}}'],
     "/thin/explicit: expected list"),
    (["rep", "--quiver", LINE, "--rep", '{"thin":{"tails":{"neg":0}}}'],
     "/thin/tails: expected list"),
    (["rep", "--quiver", LADDER, "--rep", _glue(["inf", "nope", 0, "1"])],
     "/glue/families/0: no crossing 'nope' on end 'inf'"),
    (["rep", "--quiver", LADDER, "--rep", _glue(["zz", "rung", 0, "1"])],
     "/glue/families/0: no crossing 'rung' on end 'zz'"),
    (["rep", "--quiver", KRON, "--rep",
      _glue(["inf", "rung", 0, "1"], {"simple": "2"}, {"simple": "1"})],
     "/glue/families/0: no crossing 'rung' on end 'inf'"),
    (["rep", "--quiver", LINE, "--rep", '{"sum":5}'], "/sum: expected list"),
    (["rep", "--quiver", LADDER, "--rep",
      json.dumps({"glue": {"sub": THIN_B, "quot": THIN_A, "cocycle": 5}})],
     "/glue/cocycle: expected list"),
    (["rep", "--quiver", LADDER, "--rep",
      json.dumps({"glue": {"sub": THIN_B, "quot": THIN_A, "families": 5}})],
     "/glue/families: expected list"),
    (["rep", "--quiver", LINE, "--rep", json.dumps(
        {"coker_proj": {"side": "proj", "domain": ["1"], "codomain": ["0"],
                        "entries": [[5]]}})],
     "/coker_proj/entries/0/0: expected list"),
    (["rep", "--quiver", LINE, "--rep", json.dumps(
        {"coker_proj": {"side": "proj", "domain": ["1"], "codomain": ["0"],
                        "entries": [[[["1", {"src": "1", "arrows": 5}]]]]}})],
     "/coker_proj/entries/0/0/0/1/arrows: expected list"),
    (["quiver", "--quiver", '{"preset":"linear","n":true}'],
     "/n: n must be an integer >= 0, got True"),
    (["quiver", "--quiver", '{"preset":"linear","n":"3"}'],
     "/n: n must be an integer >= 0, got '3'"),
])
def test_cli_rejects_malformed_regions_families_and_n(argv, message):
    code, out, err = run_cli(argv)
    assert (code, out, err) == (1, "", f"arknit: error: {message}\n")
    assert "Traceback" not in err


@pytest.mark.parametrize("p", [io_mod.MAX_FIELD_CHAR + 1, 2**61 - 1,
                               10**40 + 121])
def test_cli_rejects_field_characteristic_past_the_cap(p):
    code, out, err = run_cli(["quiver", "--quiver", LINE, "--field", str(p)])
    assert (code, out) == (1, "")
    assert err == (f"arknit: error: /field: need p <= "
                   f"{io_mod.MAX_FIELD_CHAR}, got {p}\n")


def test_field_cap_admits_its_bound():
    # 2^31 - 1 is prime: the largest characteristic accepted
    assert parse_field(str(io_mod.MAX_FIELD_CHAR)).char == 2**31 - 1
    code, out, _ = run_cli(["quiver", "--quiver", LINE, "--field",
                            str(io_mod.MAX_FIELD_CHAR)])
    assert code == 0 and json.loads(out)["quiver"] == {"preset": "line"}


CAP = io_mod.MAX_LINEAR_N


@pytest.mark.parametrize("quiver, rep, message", [
    (LINE, '{"inj":"-1000000000"}', "/inj: vertex -1000000000 lies at depth "
                                    f"1000000000 on end neg, past the cap {CAP}"),
    (LINE, '{"proj":"30000"}',
     f"/proj: vertex 30000 lies at depth 29999 on end pos, past the cap {CAP}"),
    (LINE, f'{{"thin":{{"explicit":["0", "{CAP + 2}"]}}}}',
     f"/thin/explicit/1: vertex {CAP + 2} lies at depth {CAP + 1} on end pos, "
     f"past the cap {CAP}"),
    ('{"preset":"ladder"}', f'{{"simple":"b{CAP + 1}"}}',
     f"/simple: vertex b{CAP + 1} lies at depth {CAP + 1} on end inf, past "
     f"the cap {CAP}"),
    ('{"opposite":{"preset":"zigzag"}}', f'{{"proj":{2 * CAP + 3}}}',
     f"/proj: vertex {2 * CAP + 3} lies at depth {CAP + 1} on end inf, past "
     f"the cap {CAP}"),
])
def test_cli_caps_preset_depth(monkeypatch, quiver, rep, message):
    def boom(*a, **k):
        raise RuntimeError("computation started")

    monkeypatch.setattr(cli, "classify_membership", boom)
    code, out, err = run_cli(["member", "--quiver", quiver, "--rep", rep])
    assert code == 1
    assert out == ""
    assert err == f"arknit: error: {message}\n"


def test_preset_depth_cap_admits_its_bound(line, ladder):
    assert parse_rep(line, {"simple": str(-CAP)}).vertex == -CAP
    assert parse_rep(line, {"inj": str(CAP + 1)}).vertex == CAP + 1
    assert parse_rep(ladder, {"proj": f"a{CAP}"}).vertex == ("a", CAP)
    # so do a region tail and a glue family starting at the cap
    assert parse_rep(line, {"thin": {"tails": [["pos", "v", CAP]]}}) \
        .region.tails == (("pos", "v", CAP),)
    glued = parse_rep(ladder, {"glue": {
        "sub": {"thin": {"tails": [["inf", "b", 0]]}},
        "quot": {"thin": {"tails": [["inf", "a", 0]]}},
        "families": [["inf", "rung", CAP, "1"]]}})
    assert [f.start for f in glued.families] == [CAP]


def test_cli_radius_and_n_caps_admit_their_bounds(monkeypatch):
    seen = {}

    def stop(m):
        seen["n"] = len(m.quiver.vertices)
        raise ValueError("stopped before classifying")

    monkeypatch.setattr(cli, "classify_membership", stop)
    code, _, err = run_cli(["rep", "--quiver",
                            f'{{"preset":"linear","n":{io_mod.MAX_LINEAR_N}}}',
                            "--rep", '{"proj":"1"}',
                            "--radius", str(cli.MAX_RADIUS)])
    assert code == 1 and "stopped before classifying" in err
    assert seen == {"n": io_mod.MAX_LINEAR_N}
    # the default radius, and the largest n a test builds
    assert cli.MAX_RADIUS >= 2 and io_mod.MAX_LINEAR_N >= 3000


def test_cli_usage_error_on_unknown_verb():
    code, _, _ = run_cli(["frobnicate"])
    assert code == 2  # argparse usage failure


@pytest.mark.parametrize("argv", [
    ["hom", "--quiver", A3, "--src", '{"proj":"2"}', "--dst", '{"inj":"2"}',
     "--format", "dot"],
    ["classify", "--quiver", KRON, "--seed", '{"proj":"2"}',
     "--format", "dot"],
    ["hom", "--quiver", A3, "--src", '{"proj":"2"}', "--dst", '{"inj":"2"}',
     "--radius", "3"],
    ["knit", "--quiver", KRON, "--seed", '{"proj":"2"}', "--radius", "3"],
    ["hom", "--quiver", A3, "--src", '{"proj":"2"}', "--dst", '{"inj":"2"}',
     "--budget", "5"],
], ids=["hom_format", "classify_format", "hom_radius", "knit_radius",
        "hom_budget"])
def test_cli_verbs_reject_flags_they_do_not_read(argv):
    code, out, err = run_cli(argv)
    assert code == 2  # argparse usage failure
    assert out == "" and "unrecognized arguments" in err


COMMON = {"--quiver", "--field", "--out"}
CLI_OPTIONS = {
    "quiver": COMMON,
    "rep": COMMON | {"--rep", "--radius"},
    "member": COMMON | {"--rep"},
    "hom": COMMON | {"--src", "--dst"},
    "ext": COMMON | {"--quot", "--sub"},
    "tau": COMMON | {"--rep", "--radius", "--inverse"},
    "ass": COMMON | {"--rep", "--radius", "--no-verify"},
    "knit": COMMON | {"--seed", "--depth", "--format"},
    "classify": COMMON | {"--seed", "--depth"},
    "decompose": COMMON | {"--rep"},
    "export": COMMON | {"--rep"},
}


def test_cli_options_are_pinned():
    """Every option of every verb: a new knob is a change to this table."""
    (verbs,) = [a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)]
    options = {verb: {s for a in p._actions for s in a.option_strings}
               for verb, p in verbs.choices.items()}
    assert options == {verb: opts | {"-h", "--help"}
                       for verb, opts in CLI_OPTIONS.items()}


# ---------------------------------------------------------------------------
# determinism


def test_cli_outputs_bit_identical():
    for argv in (
        ["member", "--quiver", LINE, "--rep", ALLK],
        ["knit", "--quiver", KRON, "--seed", '{"proj":"2"}', "--depth", "4",
         "--format", "dot"],
        ["ass", "--quiver", A3, "--rep", '{"simple":"2"}'],
    ):
        _, out1, _ = run_cli(argv)
        _, out2, _ = run_cli(argv)
        assert out1 == out2
