"""JSON schema round trips, CLI verbs, exit codes, deterministic output."""

import argparse
import io
import contextlib
import json
import os

import pytest

import arknit.cli as cli
import arknit.io as io_mod
from arknit import (
    QQ,
    dim_vector,
    parse_quiver,
    parse_rep,
    emit_quiver,
    emit_rep,
    simple_at,
    tau,
)
from arknit.io import ParseError, parse_field

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
    ("null", "None"), ("[1]", "[1]")])
def test_cli_rejects_non_integer_json_scalars(field, hint, x, shown):
    # a JSON float or boolean is no exact scalar: 0.1 is not 1/10 and
    # GF(3) would truncate 1.5 to 1, so only ints and strings are read
    rep = ('{"explicit_fd":{"dims":{"1":1,"2":1},"mats":{"alpha":[[%s]]}}}'
           % x)
    code, out, err = run_cli(["rep", "--quiver", KRON, "--field", field,
                              "--rep", rep])
    assert (code, out, err) == (
        1, "", f"arknit: error: /explicit_fd/mats/alpha/0/0: bad scalar "
               f"{shown}: write an integer{hint}\n")


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


def test_cli_knit_dot_matches_golden():
    code, out, _ = run_cli(["knit", "--quiver", KRON,
                            "--seed", '{"proj":"2"}', "--depth", "5",
                            "--format", "dot"])
    assert code == 0
    with open(os.path.join(GOLDEN, "kronecker_knit5.dot")) as fh:
        assert out == fh.read()


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


def test_cli_exit_2_on_budget(monkeypatch):
    from arknit.rep import BudgetError

    def boom(*a, **k):
        raise BudgetError("window did not stabilize")

    monkeypatch.setattr(cli, "hom_space", boom)
    code, _, err = run_cli(["hom", "--quiver", A3,
                            "--src", '{"proj":"1"}', "--dst", '{"proj":"1"}'])
    assert code == 2
    assert "budget" in err


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
def test_cli_rejects_negative_depth_and_budget(monkeypatch, argv, env):
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
def test_cli_caps_depth_and_budget(monkeypatch, argv, env, pointer):
    def boom(*a, **k):
        raise RuntimeError("knit started")

    monkeypatch.setattr(cli, "knit", boom)
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

    monkeypatch.setattr(cli, "knit", stop)
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
