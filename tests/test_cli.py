import gc
import hashlib
import json
import math
from pathlib import Path

import pytest
from mpmath import mp

from arakelov.cli import main


@pytest.fixture()
def field_file(tmp_path):
    def write(name, doc):
        p = tmp_path / name
        p.write_text(json.dumps(doc), encoding="utf-8")
        return str(p)

    return write


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info_q7(field_file, capsys):
    f = field_file("f7.json", {"min_poly": [-7, 0, 1]})
    code, out, _ = run(capsys, ["info", "--field", f])
    assert code == 0
    doc = json.loads(out)
    assert doc["disc"] == 28
    assert doc["fundamental_units"] == [[8, 3]]
    assert abs(float(doc["partial_constant"]) - math.sqrt(28)) < 1e-12
    assert abs(float(doc["regulator"]) - math.log(8 + 3 * math.sqrt(7))) < 1e-12


def test_info_gaussian(field_file, capsys):
    f = field_file("fi.json", {"min_poly": [1, 0, 1]})
    code, out, _ = run(capsys, ["info", "--field", f])
    assert code == 0
    doc = json.loads(out)
    assert abs(float(doc["partial_constant"]) - 4 / math.pi) < 1e-12
    assert doc["fundamental_units"] == []


def test_info_missing_file(capsys):
    code, _, err = run(capsys, ["info", "--field", "/nonexistent/field.json"])
    assert code == 2
    assert "cannot read" in err


def test_info_supplied_units_cubic(field_file, capsys):
    f = field_file("fc.json", {"min_poly": [-2, 0, 0, 1], "units": [[-1, 1, 0]]})
    code, out, _ = run(capsys, ["info", "--field", f])
    assert code == 0
    doc = json.loads(out)
    assert abs(float(doc["regulator"]) - 1.3473773483908166) < 1e-9


def test_info_rank_two_regulator(field_file, capsys):
    # x^3 - 3x + 1 is totally real with units theta and theta - 1
    f = field_file("f81.json", {"min_poly": [1, -3, 0, 1], "units": [[0, 1, 0], [-1, 1, 0]]})
    code, out, _ = run(capsys, ["info", "--field", f])
    assert code == 0
    with mp.workprec(200):
        roots = mp.polyroots([1, 0, -3, 1], maxsteps=100, extraprec=200)
        expect = abs(mp.det(mp.matrix(
            [[mp.log(abs(x)), mp.log(abs(x - 1))] for x in roots[:2]])))
        assert abs(expect - mp.mpf("0.849287450646192528")) < 1e-17
    assert abs(float(json.loads(out)["regulator"]) - float(expect)) < 1e-12
    # x^3 - 2 has unit rank one: two supplied units are a usage error
    f = field_file("fc.json", {"min_poly": [-2, 0, 0, 1], "units": [[-1, 1, 0]] * 2})
    code, _, err = run(capsys, ["info", "--field", f])
    assert code == 2 and "unit rank is 1" in err


def test_check_plain_lattice_exit_codes(field_file, capsys):
    f = field_file("f7.json", {"min_poly": [-7, 0, 1]})
    lat = field_file("plain.json", {"plain_basis": [[1, 0], [[1, 4], [1, 4]]]})
    code, out, _ = run(capsys, ["check", "--field", f, "--ideal", lat, "--C", "1"])
    assert code == 1
    doc = json.loads(out)
    assert doc["strongly_reduced"] is False
    assert doc["witness"] == [[1, 4], [1, 4]]  # the short vector alpha
    code, _, _ = run(capsys, ["check", "--field", f, "--ideal", lat, "--C", "2"])
    assert code == 0
    code, _, _ = run(capsys, ["check", "--field", f, "--ideal", lat, "--C", "sqrt2"])
    assert code == 0


def test_check_unit_ideal(field_file, capsys):
    f = field_file("f7.json", {"min_poly": [-7, 0, 1]})
    ideal = field_file("of.json", {"den": 1, "hnf": [[1, 0], [0, 1]]})
    code, _, _ = run(capsys, ["check", "--field", f, "--ideal", ideal, "--C", "1"])
    assert code == 0


def test_check_bad_c(field_file, capsys):
    f = field_file("f7.json", {"min_poly": [-7, 0, 1]})
    ideal = field_file("of.json", {"den": 1, "hnf": [[1, 0], [0, 1]]})
    code, _, err = run(capsys, ["check", "--field", f, "--ideal", ideal, "--C", "0.5"])
    assert code == 2
    assert "bad C parameter" in err


def test_check_malformed_ideal(field_file, capsys):
    f = field_file("f7.json", {"min_poly": [-7, 0, 1]})
    # not an O_F-module: Z/2 + Z*sqrt7 is not closed under the ring
    ideal = field_file("bad.json", {"den": 2, "hnf": [[1, 0], [0, 2]]})
    code, _, err = run(capsys, ["check", "--field", f, "--ideal", ideal, "--C", "1"])
    assert code == 2
    assert "not a canonical ideal record" in err


def test_reduce_identity(field_file, capsys):
    f = field_file("f7.json", {"min_poly": [-7, 0, 1]})
    div = field_file("d0.json", {"ideal": {"den": 1, "hnf": [[1, 0], [0, 1]]},
                                 "u": [1.0, 1.0]})
    code, out, _ = run(capsys, ["reduce", "--field", f, "--divisor", div, "--C", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["k"] == 0
    assert doc["final"]["hnf"] == [[1, 0], [0, 1]]
    assert float(doc["distance"]) <= float(doc["distance_bound"])


def test_reduce_q73_lands_in_census(field_file, capsys):
    f = field_file("f73.json", {"min_poly": [-73, 0, 1]})
    e = math.e
    div = field_file("d.json", {"ideal": {"den": 1, "hnf": [[1, 0], [0, 1]]},
                                "u": [e, 1 / e]})
    code, out, _ = run(capsys, ["reduce", "--field", f, "--divisor", div,
                                "--C", "sqrt2"])
    assert code == 0
    doc = json.loads(out)
    assert float(doc["distance"]) < float(doc["distance_bound"])
    code, out, _ = run(capsys, ["census", "--field", f, "--C", "sqrt2",
                                "--format", "json"])
    census = json.loads(out)
    finals = [(r["den"], r["hnf"]) for r in census["entries"]]
    assert (doc["final"]["den"], doc["final"]["hnf"]) in finals


def test_reduce_usage_error_on_degree(field_file, capsys):
    f = field_file("f7.json", {"min_poly": [-7, 0, 1]})
    div = field_file("bad.json", {"ideal": {"den": 1, "hnf": [[1, 0], [0, 1]]},
                                  "u": [2.0, 2.0]})
    code, _, err = run(capsys, ["reduce", "--field", f, "--divisor", div, "--C", "2"])
    assert code == 2
    assert "degree" in err


def test_reduce_rejects_non_finite_weights(field_file, capsys):
    f = field_file("f7.json", {"min_poly": [-7, 0, 1]})
    for u in (["nan", "nan"], ["inf", "1"], [1.0, "-inf"]):
        div = field_file("bad.json", {"ideal": {"den": 1, "hnf": [[1, 0], [0, 1]]},
                                      "u": u})
        code, _, err = run(capsys, ["reduce", "--field", f, "--divisor", div, "--C", "2"])
        assert code == 2
        assert "one positive real per infinite place" in err


def test_census_q73_counts_and_determinism(field_file, capsys):
    f = field_file("f73.json", {"min_poly": [-73, 0, 1]})
    code, out1, _ = run(capsys, ["census", "--field", f, "--C", "sqrt2",
                                 "--format", "csv"])
    assert code == 0
    rows = out1.strip().splitlines()[1:]
    assert len(rows) == 11
    assert sum(1 for r in rows if r.split(",")[4] == "1") == 9
    code, out2, _ = run(capsys, ["census", "--field", f, "--C", "sqrt2",
                                 "--format", "csv"])
    assert out1 == out2  # byte-identical across runs


def test_census_monotone_via_cli(field_file, capsys):
    f = field_file("f73.json", {"min_poly": [-73, 0, 1]})
    _, out1, _ = run(capsys, ["census", "--field", f, "--C", "1", "--format", "json"])
    _, out2, _ = run(capsys, ["census", "--field", f, "--C", "sqrt2",
                              "--format", "json"])
    k1 = {(r["den"], json.dumps(r["hnf"])) for r in json.loads(out1)["entries"]}
    k2 = {(r["den"], json.dumps(r["hnf"])) for r in json.loads(out2)["entries"]}
    assert k1 <= k2


def test_census_refusal_exit_code(field_file, capsys):
    f = field_file("f197.json", {"min_poly": [-197, 0, 1]})
    code, _, err = run(capsys, ["census", "--field", f, "--C", "12"])
    assert code == 3
    assert "refused" in err


def test_census_exact_tie_exits_at_precision_cap(capsys):
    """On x^3 - 2 at C = 1 some divisor's lambda_1^2 equals the threshold
    n / C^2 exactly, so no precision of its inexact Gram decides it: the
    census gives up with exit 3 and the precision message, and no output."""
    field = str(Path(__file__).resolve().parent.parent / "fields" / "cubic2.json")
    code, out, err = run(capsys, ["census", "--C", "1", "--field", field])
    assert code == 3
    assert out == ""
    assert err == "error: gram matrix refinement exceeded precision cap\n"


@pytest.mark.parametrize("exc", ["PrecisionExhausted", "UndecidedPrincipality"])
def test_internal_limit_exit_code(field_file, capsys, monkeypatch, exc):
    import arakelov.cli as cli

    error = getattr(cli, exc)

    def give_up(*args, **kwargs):
        raise error("limit reached")

    monkeypatch.setattr(cli, "enumerate_sred", give_up)
    f = field_file("f73.json", {"min_poly": [-73, 0, 1]})
    code, out, err = run(capsys, ["census", "--field", f, "--C", "sqrt2"])
    assert code == 3
    assert out == ""
    assert err == "error: limit reached\n"


def test_cycle_svg_and_csv(field_file, capsys, tmp_path):
    f = field_file("f73.json", {"min_poly": [-73, 0, 1]})
    code, svg, _ = run(capsys, ["cycle", "--field", f, "--C", "sqrt2"])
    assert code == 0
    assert svg.startswith("<svg")
    assert svg.count("<circle") == 12  # the circle plus 11 marks
    assert "D0" in svg and "D10" in svg
    out_file = tmp_path / "cycle.csv"
    code, _, _ = run(capsys, ["cycle", "--field", f, "--C", "sqrt2",
                              "--format", "csv", "--out", str(out_file)])
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "index,position,angle"
    assert len(lines) == 12
    assert lines[1].startswith("D0,0.0,")


def test_verify_report(field_file, capsys):
    f = field_file("f7.json", {"min_poly": [-7, 0, 1]})
    code, out, _ = run(capsys, ["verify", "--field", f, "--C", "sqrt2",
                                "--seed", "3", "--trials", "5"])
    assert code == 0
    doc = json.loads(out)
    assert doc["separation"]["ok"]
    assert doc["counts"]["ok"]
    assert doc["reduction_trials"]["violations"] == 0


def test_verify_deterministic_for_seed(field_file, capsys):
    f = field_file("f7.json", {"min_poly": [-7, 0, 1]})
    args = ["verify", "--field", f, "--C", "2", "--seed", "11", "--trials", "4"]
    _, out1, _ = run(capsys, args)
    _, out2, _ = run(capsys, args)
    assert out1 == out2


def test_verify_skips_cycle_positions(field_file, capsys, monkeypatch):
    import arakelov.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("verify does not print cycle positions")

    monkeypatch.setattr(cli, "cycle_positions", refuse)
    f = field_file("f7.json", {"min_poly": [-7, 0, 1]})
    code, _, _ = run(capsys, ["verify", "--field", f, "--C", "sqrt2", "--trials", "2"])
    assert code == 0


def test_verify_large_regulator(field_file, capsys):
    """Q(sqrt10007) has a 30-digit fundamental unit; C = 1 compares 46
    divisors against it."""
    f = field_file("f10007.json", {"min_poly": [-10007, 0, 1]})
    code, out, _ = run(capsys, ["verify", "--field", f, "--C", "1"])
    assert code in (0, 1)
    assert json.loads(out)["census_count"] == 46


def test_precision_flag(field_file, capsys):
    f = field_file("f7.json", {"min_poly": [-7, 0, 1]})
    code, out, _ = run(capsys, ["info", "--field", f, "--precision", "256"])
    assert code == 0
    assert run(capsys, ["info", "--field", f, "--precision", "4096"])[0] == 0
    for bad in ("32", "8192"):
        code, _, err = run(capsys, ["info", "--field", f, "--precision", bad])
        assert code == 2
        assert "precision must be between 64 and 4096 bits" in err


Q7 = {"min_poly": [-7, 0, 1]}
UNIT_IDEAL = {"den": 1, "hnf": [[1, 0], [0, 1]]}


@pytest.mark.parametrize("field,ideal,divisor", [
    ({"min_poly": 5}, None, None),
    ({"min_poly": [-73, 0, 1.9]}, None, None),
    ({"min_poly": [-7, 0, 1], "integral_basis": [[1, 0], [[1, 0], 1]]}, None, None),
    ([-7, 0, 1], None, None),
    (Q7, {"gens": [[[1, 0], 0]]}, None),
    (Q7, {"gens": 7}, None),
    (Q7, {"den": 1, "hnf": [[1, 0]]}, None),
    (Q7, None, {"u": [1, 1]}),
    (Q7, None, {"ideal": UNIT_IDEAL, "u": 5}),
    (Q7, None, {"ideal": {"gens": [[1, [2, 0]]]}, "u": [1, 1]}),
])
def test_malformed_specs_are_usage_errors(field_file, capsys, field, ideal, divisor):
    """A malformed field, ideal or divisor file exits 2 with an error line,
    never with a traceback or the negative-result code 1."""
    argv = ["info", "--field", field_file("f.json", field)]
    if ideal is not None:
        argv = ["check", *argv[1:], "--C", "1", "--ideal", field_file("i.json", ideal)]
    if divisor is not None:
        argv = ["reduce", *argv[1:], "--C", "1", "--divisor", field_file("d.json", divisor)]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err


def test_quadratic_fields_isolate_no_roots(field_file, capsys, monkeypatch):
    """Quadratic embeddings, signs and comparisons come from the surd pair:
    census, check, reduce and verify never isolate a root."""
    from arakelov.numfield import NumberField

    def no_roots(self, prec=None):
        raise AssertionError("root isolation in a quadratic field")

    monkeypatch.setattr(NumberField, "_try_roots", no_roots)
    monkeypatch.setattr(NumberField, "places_mpf", no_roots)
    e = math.e
    # verify reports need a real quadratic field: Q(i) exits 2 before any work
    for name, u, verify_code in (("gaussian.json", [1.0], 2), ("q73.json", [e, 1 / e], 0)):
        f = str(FIELDS_DIR / name)
        div = field_file("d.json", {"ideal": UNIT_IDEAL, "u": u})
        ideal = field_file("i.json", {"gens": [[2, 0], [1, 1]]})
        assert run(capsys, ["census", "--field", f, "--C", "sqrt2"])[0] == 0
        assert run(capsys, ["check", "--field", f, "--C", "sqrt2", "--ideal", ideal])[0] in (0, 1)
        assert run(capsys, ["reduce", "--field", f, "--C", "sqrt2", "--divisor", div])[0] == 0
        code = run(capsys, ["verify", "--field", f, "--C", "sqrt2", "--trials", "3"])[0]
        assert code == verify_code


FIELDS_DIR = Path(__file__).resolve().parent.parent / "fields"
# sha256 of stdout on the sample fields; the lattice core may be rewritten,
# but these bytes must not move
CLI_DIGESTS = {
    ("cubic2.json", "census --C sqrt2"): "cfabaa7bd778bbcab26b8b71eeb92d71051b9f226de7aa32dc883c978883a6c5",
    ("cubic2.json", "info"): "14f6dea60b2717240d2abe70fdc9ff6b1fa8e2f0ab3504566c03d69e66c19620",
    ("cubic2.json", "reduce --C sqrt2 --divisor cubic2_div_o.json"): "e146af09784f2aa9daf0e6f397fac904a6a66837d895976d547f04ccdb4d6590",
    ("cubic2.json", "reduce --C sqrt2 --divisor cubic2_div_p3.json"): "d68288a91841dced18c2371f72621bb674d00a0339aac130a08f6af14b678863",
    ("cubic2.json", "reduce --C sqrt2 --divisor cubic2_div_p5.json"): "8802e3a7154a2fb125686b180695dbd5685d36cceb1709080ff041a8b4964faf",
    ("gaussian.json", "census --C sqrt2"): "cf0f564fb86c1725be4fe0efbe117dfe6514d41f5ab117cb4d5ad68300650aa5",
    ("gaussian.json", "info"): "a73077baa835e12a15bfa77fc19052b3ca0d0ed623e81167dbcfd89662efc598",
    ("q7.json", "census --C 2"): "9944cd6986da11bf93144673a66d5d0d17e0e8fcc55ea9ebcb20eca6f9d50394",
    ("q7.json", "census --C sqrt2"): "602620e09a3bb976675bd96ffd325d79bf3681b5a4526aafa3467f0bd5d1a1e3",
    ("q7.json", "cycle"): "e22513e4c3972803aedc981bc05ecb2d02e8721ad86393ce39ed58e0860340b5",
    ("q7.json", "info"): "d16f8c0112be5eea284d8ff72fae59b6020f604af5cd67263025e86b46e41eb8",
    ("q7.json", "verify --C 1"): "678599c823396bb1d77e6995a0ee6de491210782779f8f43c864d1afe2a9fa32",
    ("q7.json", "verify --C 2"): "8bbcdc159e0cd9fc159ae8cf76539faeb4cd995a85860f02237248f128cbdf74",
    ("q7.json", "verify --C 3"): "66f0f9429d2e894070cdb2799a5aece964ecfeaea6a4630f2c157d0a07bf5aac",
    ("q7.json", "verify --C sqrt2"): "ea6e9b3a57f2db4b02d57270b9eaf0613839a32a92940a724ff0d7891b5361fa",
    ("q73.json", "census --C 2"): "ee595c55c52e99ba9b84dcb9448948147ce8a3c4ef288ee89790964c4dffd6e9",
    ("q73.json", "census --C sqrt2"): "0708417a13352a588828c1c1e7849f9cc721f80971e1f12cfb8462e7709724b9",
    ("q73.json", "cycle"): "7949c69a9117d7657f784b62579fdc38fafa67b9b4da1c51053871624d991033",
    ("q73.json", "info"): "e63ed8d1b9fb72c34a37fb5ac07b79fb0825402d78940c5dea384ecda273f68c",
    ("q73.json", "verify --C 1"): "b9b943bb0427397ac11074a07bd536dd8572a54bed60f42dd656a801bf3e16b2",
    ("q73.json", "verify --C 2"): "65b7bc35ba7fdc138dfea29748cc3b03bedad238860a604aad0ec90342fbc6a7",
    ("q73.json", "verify --C 3"): "2ccb961c5913d160fb63be054aaddb9e2a530d0d1018a7af584a8f6b24f0035f",
    ("q73.json", "verify --C sqrt2"): "6c3a01964fcf56779361740de1c50889ec40603f60edcbc9291dc6bdd65f1a24",
    ("q79.json", "census --C 2"): "84b28f741c0f89ee57b5e9f11c6f02a60622d02768d263e5ebc5d4f3bf0d3de8",
    ("q79.json", "census --C sqrt2"): "c602b4366db44536d04248a70abc2ccd2d3788ffef57edc2f444c165620a3f4b",
    ("q79.json", "cycle"): "e22513e4c3972803aedc981bc05ecb2d02e8721ad86393ce39ed58e0860340b5",
    ("q79.json", "info"): "2eac09d751bfe1e953e457ba22ac6e6ec7762a64e4f93bf7bbab58ea40f635b4",
    ("q79.json", "verify --C 1"): "ddc31d4a995ba0faf0b011ec7c0512570315cf287cce5b900a4784fad528b5d3",
    ("q79.json", "verify --C 2"): "b9da33943db573239507951d2fe7c5f4320cfdc7bd888daf812f7cb3da2427c7",
    ("q79.json", "verify --C 3"): "5d12b383389eebfd730a195f82d4835b2cf575e3b7820df70cf85d139d958a5b",
    ("q79.json", "verify --C sqrt2"): "101209bc82c1a0be953d694d737cba3dc147d46ef41c3f5bd7cd8da1010b8b94",
}


def _digest_cases():
    for path in sorted(FIELDS_DIR.glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        if "min_poly" not in doc:
            continue  # an ideal or divisor file, not a field
        cmds = ["info", "census --C sqrt2"]
        poly = doc["min_poly"]
        if len(poly) == 3 and poly[1] ** 2 - 4 * poly[0] * poly[2] > 0:
            # real quadratic
            cmds += ["census --C 2", "cycle", "verify --C 1", "verify --C sqrt2",
                     "verify --C 2", "verify --C 3"]
        # twisted divisors <field>_div_*.json are reduced on their field
        for div in sorted(FIELDS_DIR.glob(f"{path.stem}_div_*.json")):
            cmds.append(f"reduce --C sqrt2 --divisor {div.name}")
        for cmd in cmds:
            yield path.name, cmd


@pytest.mark.parametrize("name,cmd", list(_digest_cases()))
def test_cli_stdout_bytes_pinned(capsys, name, cmd):
    sub, *rest = cmd.split()
    if sub == "reduce":
        rest[-1] = str(FIELDS_DIR / rest[-1])
    code, out, _ = run(capsys, [sub, "--field", str(FIELDS_DIR / name), *rest])
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CLI_DIGESTS[(name, cmd)]


def test_main_leaves_no_cyclic_garbage(capsys):
    """The parser is built once per process and reports are indented without
    closures, so a second info call leaves nothing for the collector."""
    argv = ["info", "--field", str(FIELDS_DIR / "q7.json")]
    assert run(capsys, argv)[0] == 0
    gc.collect()
    gc.disable()
    try:
        assert run(capsys, argv)[0] == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
