"""End-to-end CLI flows through main(): construct -> verify -> recheck,
exit codes, and the search-table reproduction."""

import json
import subprocess
import sys
from unittest import mock

import pytest

from sumrank import block_codes
from sumrank.cli import (
    EXIT_FALSE,
    EXIT_INFEASIBLE,
    EXIT_PARSE,
    EXIT_TRUE,
    build_parser,
    main,
)
from sumrank.block_codes import (
    SystematicBlockCode,
    construct_gabidulin,
    systematic_form,
    transformed_parity,
)
from sumrank.conv_codes import EncoderError, PolyEncoder, construct_frobenius, systematize
from sumrank.field import FieldError, base_field, field
from sumrank.matrix import Matrix, minor
from sumrank.metrics import (
    DEFAULT_MESSAGE_BUDGET,
    LengthPartition,
    column_distances,
    free_distance_bound,
)
from sumrank.report import VerificationReport
from sumrank.superregular import DEFAULT_SELECTION_BUDGET

F4 = field(2, 2)
F8 = field(2, 3)
F9 = field(3, 2)


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def _run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out) if out.strip().startswith("{") else out


def _gabidulin_code_json(n, k, f):
    parity = systematic_form(construct_gabidulin(n, k, f))
    code = SystematicBlockCode(LengthPartition([n]), (k,), parity)
    return code.to_json()


def test_construct_gabidulin(tmp_path, capsys):
    out_path = tmp_path / "code.json"
    rc = main(
        [
            "construct", "--kind", "gabidulin", "--field", "2^3",
            "--n", "3", "--k", "2", "--out", str(out_path),
        ]
    )
    capsys.readouterr()
    assert rc == EXIT_TRUE
    report = json.loads(out_path.read_text())
    assert report["object"]["partition"] == [3]
    assert report["field"] == "2^3/1011"


def test_construct_then_verify_block(tmp_path, capsys):
    out_path = tmp_path / "code.json"
    assert main(
        [
            "construct", "--kind", "gabidulin", "--field", "2^3",
            "--n", "3", "--k", "2", "--out", str(out_path),
        ]
    ) == EXIT_TRUE
    capsys.readouterr()
    code_path = _write(tmp_path, "c.json", json.loads(out_path.read_text())["object"])
    for check in ("mds", "mrd-systematic", "mrd-transforms",
                  "msrd-systematic", "msrd-transforms"):
        rc, report = _run(
            capsys, ["verify-block", "--code", code_path, "--check", check]
        )
        assert rc == EXIT_TRUE, check
        assert report["verdict"] is True
        assert report["agreement"] is True


def test_verify_block_false_and_recheck(tmp_path, capsys):
    code = SystematicBlockCode(
        LengthPartition([4]), (2,), Matrix.from_rows([[1, 1], [1, 1]], F4)
    )
    code_path = _write(tmp_path, "bad.json", code.to_json())
    report_path = str(tmp_path / "report.json")
    rc = main(
        [
            "verify-block", "--code", code_path, "--check", "mrd-systematic",
            "--out", report_path,
        ]
    )
    capsys.readouterr()
    assert rc == EXIT_FALSE
    # a False report's checked_count and witness follow the transform order
    assert json.loads(open(report_path).read())["enumeration_order"] == (
        "size-ascending then lexicographic; messages by ascending mixed-radix "
        "index; B, A~ in product order, C and A in reflected Gray order")
    rc, rep = _run(capsys, ["recheck", "--report", report_path, "--code", code_path])
    assert rc == EXIT_TRUE
    assert rep["reverifies"] is True


@pytest.mark.parametrize(
    "check",
    ["mds", "mrd-systematic", "mrd-transforms", "msrd-systematic", "msrd-transforms"],
)
def test_recheck_two_block_code_witnesses(tmp_path, capsys, check):
    # the MDS check sees P itself, the MRD checks one block of length 4, the
    # MSRD checks two blocks; recheck must test each witness against the
    # family its check enumerated
    code = SystematicBlockCode(
        LengthPartition([2, 2]), (1, 1), Matrix.from_rows([[1, 1], [1, 1]], F4)
    )
    code_path = _write(tmp_path, "two.json", code.to_json())
    report_path = str(tmp_path / "report.json")
    rc = main(["verify-block", "--code", code_path, "--check", check, "--no-oracle",
               "--out", report_path])
    capsys.readouterr()
    assert rc == EXIT_FALSE
    # a False report's checked_count and witness follow the transform order
    assert json.loads(open(report_path).read())["enumeration_order"] == (
        "size-ascending then lexicographic; messages by ascending mixed-radix "
        "index; B, A~ in product order, C and A in reflected Gray order")
    rc, rep = _run(capsys, ["recheck", "--report", report_path, "--code", code_path])
    assert rc == EXIT_TRUE
    assert rep["reverifies"] is True


def test_recheck_forged_witness_exits_false(tmp_path, capsys):
    # an all-zero B makes every minor vanish, but it is not a transform
    code_path = _write(tmp_path, "gab.json", _gabidulin_code_json(3, 2, F8))
    forged = {"witness": {"transform": {"B": [[[0, 0], [0, 0]]], "A": [[[1]]],
                                        "C": [[[0], [0]]]}, "rows": [0], "cols": [0]}}
    report_path = _write(tmp_path, "forged.json", forged)
    rc, rep = _run(capsys, ["recheck", "--report", report_path, "--code", code_path])
    assert rc == EXIT_FALSE
    assert rep["reverifies"] is False


def test_recheck_accepts_diagonally_rescaled_odd_q_witnesses(tmp_path, capsys):
    # the checkers enumerate unit upper-triangular B and A~, but a recheck
    # accepts any nonsingular upper-triangular ones: (D B, A~ D', D C D')
    # gives D T D', whose minors vanish where T's do
    code = SystematicBlockCode(
        LengthPartition([4]), (2,), Matrix.from_rows([[1, 1], [1, 2]], F9))
    code_path = _write(tmp_path, "f9.json", code.to_json())
    report_path = str(tmp_path / "report.json")
    rc = main(["verify-block", "--code", code_path, "--check", "msrd-systematic",
               "--no-oracle", "--out", report_path])
    capsys.readouterr()
    assert rc == EXIT_FALSE
    report = json.loads((tmp_path / "report.json").read_text())
    w = report["witness"]
    tr = w["transform"]
    f3 = base_field(3)
    d, d2 = Matrix.from_rows([[2, 0], [0, 1]], f3), Matrix.from_rows([[1, 0], [0, 2]], f3)
    b = d @ Matrix.from_rows(tr["B"][0], f3)
    a = Matrix.from_rows(tr["A"][0], f3) @ d2
    c = d @ Matrix.from_rows(tr["C"][0], f3) @ d2
    scaled = {"B": [b.to_rows()], "A": [a.to_rows()], "C": [c.to_rows()]}
    assert b[0, 0] == 2 and a[1, 1] == 2
    # a zero on B's diagonal leaves the witnessed minor vanishing, but the
    # tuple is outside the family
    singular = Matrix.from_rows([[0, b[0, 1]], [0, b[1, 1]]], f3)
    assert minor(transformed_parity(code.parity, singular, a, c),
                 w["rows"], w["cols"]) == 0
    for transform, expect in ((scaled, EXIT_TRUE),
                              (dict(scaled, B=[singular.to_rows()]), EXIT_FALSE)):
        witness = dict(w, transform=transform)
        path = _write(tmp_path, "scaled.json", dict(report, witness=witness))
        rc, rep = _run(capsys, ["recheck", "--report", path, "--code", code_path])
        assert (rc, rep["reverifies"]) == (expect, expect == EXIT_TRUE)


def test_recheck_forged_oracle_witness_exits_false(tmp_path, capsys):
    # a zero column makes det(G_1^c A*) vanish on the m-MSR [2,1,1]/F_4 code
    enc_path = _write(tmp_path, "enc.json", construct_frobenius(2, 1, 1, F4).to_json())
    forged = {"oracle": {"witness": {"profile": [1, 1],
                                     "blocks": [[[0], [0]], [[1], [0]]]}}}
    report_path = _write(tmp_path, "forged.json", forged)
    rc, rep = _run(capsys, ["recheck", "--report", report_path, "--encoder", enc_path])
    assert rc == EXIT_FALSE
    assert rep["reverifies"] is False


# -- the witness schema ---------------------------------------------------------

# blocks (4, 2) with dims (2, 1): B, A~ and C have 2 x 2 and 1 x 1 blocks
# on the systematic side, A has 4 x 4 and 2 x 2 blocks on the transform
# side; every 2 x 2 minor of the all-ones parity vanishes
_TWO_BLOCKS = SystematicBlockCode(LengthPartition([4, 2]), (2, 1),
                                  Matrix.from_rows([[1, 1, 1]] * 3, F4))
# P(D) = 1 + D over F_2 is not 1-MSR, by the engine and by the oracle
_NOT_MSR = PolyEncoder.from_parity([Matrix.from_rows([[1]], base_field(2))] * 2)


def _false_report(tmp_path, capsys, argv, name="report.json"):
    path = tmp_path / name
    rc = main(argv + ["--out", str(path)])
    capsys.readouterr()
    assert rc == EXIT_FALSE
    return json.loads(path.read_text())


@pytest.mark.parametrize("kind, names, blocks", [
    ("mds", None, None),
    ("mrd-systematic", {"B", "A", "C"}, 1),
    ("mrd-transforms", {"A"}, 1),
    ("msrd-systematic", {"B", "A", "C"}, 2),
    ("msrd-transforms", {"A"}, 2),
    ("m-MSR", {"B", "A", "C"}, 2),
    ("oracle", None, None),
])
def test_every_false_witness_rechecks(tmp_path, capsys, kind, names, blocks):
    # each check writes its witness in the one schema, and recheck reads it
    if kind in ("m-MSR", "oracle"):
        subject = ["--encoder", _write(tmp_path, "enc.json", _NOT_MSR.to_json())]
        report = _false_report(tmp_path, capsys, ["verify-conv", *subject])
    else:
        subject = ["--code", _write(tmp_path, "code.json", _TWO_BLOCKS.to_json())]
        report = _false_report(tmp_path, capsys, ["verify-block", *subject, "--check", kind,
                                                  "--no-oracle"])
    if kind == "oracle":
        report = {"oracle": report["oracle"]}
        assert set(report["oracle"]["witness"]) == {"profile", "blocks"}
    else:
        w = report["witness"]
        assert set(w.get("transform", {})) == (names or set())
        if names:
            assert {len(b) for b in w["transform"].values()} == {blocks}
        assert ("level" in w) == (kind == "m-MSR")
    path = _write(tmp_path, "witness.json", report)
    rc, rep = _run(capsys, ["recheck", "--report", path, *subject])
    assert (rc, rep["reverifies"]) == (EXIT_TRUE, True)


@pytest.mark.parametrize("check, forge", [
    ("msrd-systematic", {"B": lambda bs: bs[:1]}),
    ("msrd-systematic", {"C": lambda bs: [bs[0], [[0, 0]]]}),
    ("msrd-systematic", {"B": lambda bs: [[[0, 1], [0, 1]], bs[1]]}),
    ("msrd-systematic", {"A": lambda bs: [[[1, 0], [1, 1]], bs[1]]}),
    ("msrd-systematic", {"rows": lambda rows: [rows[0]] * len(rows)}),
    ("msrd-transforms", {"A": lambda bs: bs + bs}),
    ("msrd-transforms", {"A": lambda bs: [bs[0], [[1, 0], [1, 1]]]}),
    # G's columns 2 and 3 agree, but a transform witness is full size
    ("msrd-transforms", {"rows": lambda rows: rows[:2], "cols": lambda cols: [2, 3]}),
], ids=["block-count", "c-shape", "singular", "lower-triangular", "repeated-row",
        "transform-block-count", "transform-lower-triangular", "transform-not-full-size"])
def test_recheck_forgeries_exit_false(tmp_path, capsys, check, forge):
    code_path = _write(tmp_path, "code.json", _TWO_BLOCKS.to_json())
    report = _false_report(tmp_path, capsys, ["verify-block", "--code", code_path,
                                              "--check", check, "--no-oracle"])
    w = report["witness"]
    for name, change in forge.items():
        where = w["transform"] if name in w["transform"] else w
        where[name] = change(where[name])
    path = _write(tmp_path, "forged.json", report)
    rc, rep = _run(capsys, ["recheck", "--report", path, "--code", code_path])
    assert (rc, rep["reverifies"]) == (EXIT_FALSE, False)


@pytest.mark.parametrize("case", ["parity-entry", "coefficient", "partition", "level",
                                  "B", "rows", "transform", "oracle-blocks",
                                  "coeffs", "encoder-list", "recheck-encoder"])
def test_malformed_json_exits_2_with_one_error_line(tmp_path, capsys, case):
    code, enc = _TWO_BLOCKS.to_json(), _NOT_MSR.to_json()
    on_code = ["--code", _write(tmp_path, "code.json", code)]
    on_enc = ["--encoder", _write(tmp_path, "enc.json", enc)]
    block = _false_report(tmp_path, capsys, ["verify-block", *on_code, "--check",
                                             "msrd-systematic"], "block.json")
    conv = _false_report(tmp_path, capsys, ["verify-conv", *on_enc], "conv.json")
    bw, cw, ow = block["witness"], conv["witness"], conv["oracle"]["witness"]
    recheck_code = ["recheck", *on_code, "--report"]
    recheck_enc = ["recheck", *on_enc, "--report"]
    # each case: a command, and the malformed JSON its last argument names
    argv, obj = {
        "parity-entry": (["verify-block", "--code"],
                         dict(code, parity=dict(code["parity"], data=[["x"] * 3] * 3))),
        "coefficient": (["verify-conv", "--encoder"],
                        dict(enc, coeffs=[enc["coeffs"][0], None])),
        # a string of digits would read as the partition (4, 2)
        "partition": (["verify-block", "--code"], dict(code, partition="42")),
        "level": (recheck_enc, dict(conv, witness=dict(cw, level="1"))),
        "B": (recheck_code,
              dict(block, witness=dict(bw, transform=dict(bw["transform"], B=5)))),
        "rows": (recheck_code, dict(block, witness=dict(bw, rows=list(map(str, bw["rows"]))))),
        "transform": (recheck_code, dict(block, witness=dict(bw, transform=[7]))),
        "oracle-blocks": (recheck_enc, {"oracle": {"witness": dict(ow, blocks=3)}}),
        "coeffs": (["verify-conv", "--encoder"], {"n": 3, "k": 1, "coeffs": 5}),
        "encoder-list": (["verify-conv", "--encoder"], [enc]),
        "recheck-encoder": (["recheck", "--report", str(tmp_path / "conv.json"),
                             "--encoder"], {"n": 3, "k": 1, "coeffs": 5}),
    }[case]
    assert main(argv + [_write(tmp_path, "bad.json", obj)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_a_field_above_the_table_limit_exits_2_with_one_error_line(tmp_path, capsys):
    # x^21 + x^2 + 1 is primitive, but every field is tabled, orders up to 2^20
    desc = "2^21/1" + "0" * 18 + "101"
    code = _gabidulin_code_json(3, 2, F8)
    code = dict(code, field=desc, parity=dict(code["parity"], field=desc))
    assert main(["verify-block", "--code", _write(tmp_path, "c.json", code)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "TABLE_LIMIT" in err


def test_verify_block_msrd_all_unit_blocks_matches_mds(tmp_path, capsys):
    code = SystematicBlockCode(
        LengthPartition([1, 1, 1]), (1, 1, 0), Matrix.from_rows([[1], [1]], F4)
    )
    code_path = _write(tmp_path, "units.json", code.to_json())
    rc_mds, rep_mds = _run(
        capsys, ["verify-block", "--code", code_path, "--check", "mds"]
    )
    rc_msrd, rep_msrd = _run(
        capsys, ["verify-block", "--code", code_path, "--check", "msrd-systematic"]
    )
    assert rc_mds == rc_msrd == EXIT_TRUE
    assert rep_mds["verdict"] == rep_msrd["verdict"] is True


def test_construct_then_verify_conv(tmp_path, capsys):
    out_path = tmp_path / "enc.json"
    assert main(
        [
            "construct", "--kind", "frobenius", "--field", "2^2",
            "--n", "2", "--k", "1", "--m", "1", "--out", str(out_path),
        ]
    ) == EXIT_TRUE
    capsys.readouterr()
    enc_path = _write(tmp_path, "e.json", json.loads(out_path.read_text())["object"])
    rc, report = _run(capsys, ["verify-conv", "--encoder", enc_path])
    assert rc == EXIT_TRUE
    assert report["verdict"] is True
    assert report["agreement"] is True
    assert report["column_distances"] == [2, 3]


def test_verify_conv_false_and_recheck(tmp_path, capsys):
    enc = PolyEncoder.from_parity(
        [Matrix.from_rows([[1]], base_field(2)), Matrix.from_rows([[1]], base_field(2))]
    )
    enc_path = _write(tmp_path, "bad_enc.json", enc.to_json())
    report_path = str(tmp_path / "report.json")
    rc = main(["verify-conv", "--encoder", enc_path, "--out", report_path])
    capsys.readouterr()
    assert rc == EXIT_FALSE
    rc, rep = _run(
        capsys, ["recheck", "--report", report_path, "--encoder", enc_path]
    )
    assert rc == EXIT_TRUE
    assert rep["reverifies"] is True


def test_verify_conv_systematizes_input(tmp_path, capsys):
    f = F8
    # scale the [2,1,1] construction by 1 + D so G_0 is not the identity
    from sumrank.conv_codes import construct_frobenius

    sys_enc = construct_frobenius(2, 1, 1, F4)
    lifted = [g.lift(F4) for g in sys_enc.coeffs]
    g0, g1 = lifted
    scaled = PolyEncoder(2, 1, [g0, g1.add(g0).add(Matrix(1, 2, F4))])
    del f
    enc_path = _write(tmp_path, "nonsys.json", scaled.to_json())
    rc, report = _run(capsys, ["verify-conv", "--encoder", enc_path])
    assert report["systematized"] is True
    assert rc in (EXIT_TRUE, EXIT_FALSE)


def test_exit_infeasible(tmp_path, capsys):
    code_path = _write(tmp_path, "c.json", _gabidulin_code_json(3, 2, F8))
    rc = main(
        [
            "verify-block", "--code", code_path, "--check", "mrd-systematic",
            "--budget", "2",
        ]
    )
    capsys.readouterr()
    assert rc == EXIT_INFEASIBLE


def test_exit_parse_errors(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["verify-block", "--code", missing]) == EXIT_PARSE
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert main(["verify-block", "--code", str(bad)]) == EXIT_PARSE
    assert main(["construct", "--kind", "frobenius", "--field", "2^2",
                 "--n", "2", "--k", "1"]) == EXIT_PARSE  # missing --m
    assert main(["table1", "--rows", "9,9,9"]) == EXIT_PARSE
    capsys.readouterr()


def test_distance_command(tmp_path, capsys):
    code_path = _write(tmp_path, "c.json", _gabidulin_code_json(3, 2, F8))
    rc, report = _run(capsys, ["distance", "--code", code_path])
    assert rc == EXIT_TRUE
    assert report["distance"] == 2
    assert report["bounds"]["classical"] == 2

    from sumrank.conv_codes import construct_frobenius

    enc_path = _write(
        tmp_path, "e.json", construct_frobenius(2, 1, 1, F4).to_json()
    )
    rc, report = _run(capsys, ["distance", "--encoder", enc_path])
    assert rc == EXIT_TRUE
    assert report["column_distances"] == [2, 3]
    assert report["column_distance_bounds"] == [2, 3]


def _one_plus_d_encoder(tmp_path):
    # G(D) = (1 + D)[1, alpha] over F_8: memory 1 as given, memory 0 once
    # systematized, as the factor 1 + D cancels
    g = Matrix.from_rows([[1, F8.alpha_pow(1)]], F8)
    return _write(tmp_path, "one_plus_d.json", PolyEncoder(2, 1, [g, g]).to_json())


def test_distance_decides_the_encoder_verify_conv_decides(tmp_path, capsys):
    enc_path = _one_plus_d_encoder(tmp_path)
    rc, report = _run(capsys, ["verify-conv", "--encoder", enc_path])
    assert (rc, report["systematized"], report["j"]) == (EXIT_TRUE, True, 0)
    # verify-conv refuses a level past the systematized memory
    assert main(["verify-conv", "--encoder", enc_path, "--j", "1"]) == EXIT_PARSE
    capsys.readouterr()
    rc, report = _run(capsys, ["distance", "--encoder", enc_path])
    assert rc == EXIT_TRUE
    assert report["systematized"] is True
    assert report["j"] == 0
    assert report["column_distances"] == report["column_distance_bounds"] == [2]
    assert report["free_distance_bound"] == 2
    # column distances exist at any level: past m = 0 no block adds weight
    rc, report = _run(capsys, ["distance", "--encoder", enc_path, "--j", "1"])
    assert rc == EXIT_TRUE
    assert report["column_distances"] == [2, 2]
    assert report["column_distance_bounds"] == [2, 3]
    enc_path = _write(tmp_path, "sys.json", construct_frobenius(2, 1, 1, F4).to_json())
    rc, report = _run(capsys, ["distance", "--encoder", enc_path])
    assert report["systematized"] is False


def test_distance_past_the_files_memory_reads_the_code(tmp_path, capsys):
    # G(D) = [1 + D, alpha, alpha^2] over F_8 (m = 1): S(D)^-1 Q(D) =
    # (alpha, alpha^2)(1 + D + D^2 + ...) never ends, so the systematic
    # form cut at m = 1 is another code from level 2 on (its d^2 reads 5)
    a = F8.alpha_pow(1)
    given = PolyEncoder(3, 1, [Matrix.from_rows([[1, a, F8.mul(a, a)]], F8),
                               Matrix.from_rows([[1, 0, 0]], F8)])
    enc_path = _write(tmp_path, "one_plus_d_3.json", given.to_json())
    rc, report = _run(capsys, ["distance", "--encoder", enc_path, "--j", "2"])
    assert (rc, report["systematized"], report["j"]) == (EXIT_TRUE, True, 2)
    # u = 1 + D: blocks of weight 3, 1 and 0
    assert report["column_distances"] == [3, 4, 4]
    # column distances do not depend on the encoder of the code
    assert report["column_distances"] == column_distances(given, 2)[0]
    assert column_distances(systematize(given), 2)[0] == [3, 4, 5]
    assert report["free_distance_bound"] == free_distance_bound(1, 3, 1)


def test_distance_measures_an_encoder_with_singular_s0_as_given(tmp_path, capsys):
    # G(D) = [D, 1] over F_8: G_0 = [0, 1] has full rank, S_0 = 0 does not
    given = PolyEncoder(2, 1, [Matrix.from_rows([[0, 1]], F8),
                               Matrix.from_rows([[1, 0]], F8)])
    enc_path = _write(tmp_path, "d_one.json", given.to_json())
    # verify-conv decides the systematic form, which this encoder has not
    assert main(["verify-conv", "--encoder", enc_path]) == EXIT_PARSE
    capsys.readouterr()
    rc, report = _run(capsys, ["distance", "--encoder", enc_path, "--j", "2"])
    assert (rc, report["systematized"], report["j"]) == (EXIT_TRUE, False, 2)
    assert report["column_distances"] == [1, 2, 2]
    assert report["column_distance_bounds"] == [2, 3, 4]


@pytest.mark.parametrize("extra", [
    ["--encoder", "e.json", "--partition", "1,1"],
    ["--code", "c.json", "--j", "3"],
    ["--code", "c.json", "--encoder", "e.json"],
], ids=["partition-with-encoder", "j-with-code", "code-and-encoder"])
def test_distance_refuses_options_that_do_not_apply(tmp_path, capsys, monkeypatch,
                                                    extra):
    monkeypatch.chdir(tmp_path)
    _write(tmp_path, "c.json", _gabidulin_code_json(3, 2, F8))
    _write(tmp_path, "e.json", construct_frobenius(2, 1, 1, F4).to_json())
    assert main(["distance", *extra]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_negative_level_or_memory_exits_2_with_one_error_line(tmp_path, capsys):
    enc_path = _write(tmp_path, "e.json", construct_frobenius(2, 1, 1, F4).to_json())
    for argv in (["distance", "--encoder", enc_path, "--j", "-1"],
                 ["construct", "--kind", "frobenius", "--field", "2^3",
                  "--n", "3", "--k", "1", "--m", "-1"]):
        assert main(argv) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["verify-block", "--code", "c.json"],
    ["verify-conv", "--encoder", "e.json"],
    ["construct", "--kind", "gabidulin", "--field", "2^3", "--n", "3", "--k", "2"],
    ["table1"],
    ["recheck", "--report", "r.json"],
    ["distance"],
], ids=lambda argv: argv[0])
def test_workers_accepts_only_1(argv, capsys):
    # every search runs in-process; callers may still pass --workers 1
    assert build_parser().parse_args(argv + ["--workers", "1"]).workers == 1
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--workers", "2"])
    assert exc.value.code == EXIT_PARSE
    assert "--workers" in capsys.readouterr().err


@pytest.mark.parametrize("check, partition", [
    ("mds", [1] * 6), ("mrd-systematic", [6]), ("mrd-transforms", [6]),
    ("msrd-systematic", [4, 2]), ("msrd-transforms", [4, 2]),
])
def test_verify_block_oracle_reads_the_partition_its_check_decides(
        tmp_path, capsys, check, partition):
    # the Hamming metric is blocks of length 1, the MRD checks read the
    # whole length as one block, the MSRD checks the code's own partition;
    # the report's code is the code as given
    code_path = _write(tmp_path, "two.json", _TWO_BLOCKS.to_json())
    _, report = _run(capsys, ["verify-block", "--code", code_path, "--check", check])
    assert report["code"] == _TWO_BLOCKS.to_json()
    assert report["oracle"]["partition"] == partition
    assert report["oracle"]["target"] == _TWO_BLOCKS.n - _TWO_BLOCKS.k + 1


def _budget_argvs(tmp_path):
    """One cheap run of every subcommand, without --budget."""
    code = _write(tmp_path, "c.json", _gabidulin_code_json(3, 2, F8))
    enc = _write(tmp_path, "e.json", construct_frobenius(2, 1, 1, F4).to_json())
    # det [[1, 1], [1, 1]] vanishes in characteristic 2
    square = SystematicBlockCode(LengthPartition([4]), (2,),
                                 Matrix.from_rows([[1, 1], [1, 1]], F4))
    report = _write(tmp_path, "r.json",
                    {"check": "mds", "witness": {"rows": [0, 1], "cols": [0, 1]}})
    return {
        "verify-block": ["verify-block", "--code", code, "--check", "mds"],
        "verify-conv": ["verify-conv", "--encoder", enc],
        "construct": ["construct", "--kind", "gabidulin", "--field", "2^3",
                      "--n", "3", "--k", "2"],
        "table1": ["table1", "--rows", "2,1,1"],
        "recheck": ["recheck", "--report", report,
                    "--code", _write(tmp_path, "sq.json", square.to_json())],
        "distance": ["distance", "--encoder", enc],
    }


@pytest.mark.parametrize("command", ["verify-block", "verify-conv", "construct",
                                     "table1", "recheck", "distance"])
def test_every_subcommand_reports_its_default_budget(tmp_path, capsys, command):
    argv = _budget_argvs(tmp_path)[command]
    rc, report = _run(capsys, argv)
    assert rc == EXIT_TRUE
    assert report["budget"] == (DEFAULT_MESSAGE_BUDGET if command == "distance"
                                else DEFAULT_SELECTION_BUDGET)
    assert main(argv + ["--budget", "0"]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_table1_subset(capsys):
    rc, report = _run(capsys, ["table1", "--rows", "2,1,1;2,1,2"])
    assert rc == EXIT_TRUE
    rows = {(r["n"], r["k"], r["m"]): r for r in report["rows"]}
    assert rows[(2, 1, 1)]["verdict"] is True
    assert rows[(2, 1, 1)]["field"] == "2^2/111"
    assert rows[(2, 1, 1)]["nontrivial_minors"] == 1
    assert rows[(2, 1, 2)]["verdict"] is True
    assert rows[(2, 1, 2)]["nontrivial_minors"] == 7


def test_table1_exit_code_reads_every_row(capsys):
    # over budget, [4,2,1] reads infeasible; a False row decides the exit
    # even next to an infeasible one ([6,4,1] is over the default budget)
    rc, report = _run(capsys, ["table1", "--rows", "4,2,1", "--budget", "1000"])
    assert [r["verdict"] for r in report["rows"]] == ["infeasible"]
    assert rc == EXIT_INFEASIBLE
    rc, report = _run(capsys, ["table1", "--rows", "4,2,2;6,4,1"])
    assert [r["verdict"] for r in report["rows"]] == [False, "infeasible"]
    assert rc == EXIT_FALSE


def test_table1_rows_count_sampled_pairs(capsys):
    # [4,2,1]/F_64 has at most 2^8 C per pair, so by default every C is
    # enumerated; with two random C per pair, pairs that pass the filter
    # sample
    rc, report = _run(capsys, ["table1", "--rows", "4,2,1"])
    assert rc == EXIT_TRUE and report["rows"][0]["sampled_pairs"] == 0
    with mock.patch.object(block_codes, "FILTER_RESAMPLE_COUNT", 2):
        rc, report = _run(capsys, ["table1", "--rows", "4,2,1"])
    assert rc == EXIT_TRUE and report["rows"][0]["sampled_pairs"] > 0


def test_table1_rows_report_their_cost(capsys):
    # the decided level's T swept, minors evaluated and charge, equal on an
    # exact True
    rc, report = _run(capsys, ["table1", "--rows", "4,2,1", "--mode", "exact"])
    row = report["rows"][0]
    assert rc == EXIT_TRUE and row["verdict"] is True
    assert (row["checked_count"], row["minors"], row["charge"]) == (4096, 66112, 66112)


def test_table1_csv(capsys):
    rc = main(["table1", "--rows", "2,1,1", "--csv", "--out", "/dev/null"])
    out = capsys.readouterr().out
    assert rc == EXIT_TRUE
    lines = out.strip().splitlines()
    assert lines[0].startswith("n,k,m,field,verdict")
    assert lines[1].startswith("2,1,1,2^2/111,True")


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # together about 1 MB of resident memory in every CLI process
    code = ("import sys, sumrank.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_plain_value_classes_compare_by_fields():
    parity = systematic_form(construct_gabidulin(5, 3, field(2, 5)))
    code = SystematicBlockCode(LengthPartition([5]), (3,), parity)
    same = SystematicBlockCode(LengthPartition([5]), [3], parity)
    assert code == same and same.dim_partition == (3,)
    assert code != SystematicBlockCode(LengthPartition([3, 2]), (2, 1), parity)
    enc = construct_frobenius(3, 1, 2, field(2, 4))
    assert enc == PolyEncoder(enc.n, enc.k, list(enc.coeffs))
    assert enc != PolyEncoder(enc.n, enc.k, enc.coeffs[:1])
    rep = VerificationReport(True, checked_count=3)
    assert rep == VerificationReport(True, None, 3, {})
    assert rep != VerificationReport(True, checked_count=4)
    assert VerificationReport(False).detail is not VerificationReport(False).detail
    with pytest.raises(TypeError):
        hash(rep)


# -- reports, encoders and fields read from outside ----------------------------


def test_cli_reports_carry_the_checker_calls_wall_time(tmp_path, capsys):
    code_path = _write(tmp_path, "c.json", _gabidulin_code_json(3, 2, F8))
    enc_path = _write(tmp_path, "e.json", construct_frobenius(2, 1, 1, F4).to_json())
    reports = [_run(capsys, ["verify-block", "--code", code_path])[1],
               _run(capsys, ["verify-conv", "--encoder", enc_path])[1]]
    reports += _run(capsys, ["table1", "--rows", "2,1,1;2,1,2;4,2,2"])[1]["rows"]
    for report in reports:
        assert type(report["elapsed"]) is float and report["elapsed"] >= 0


def _scaled_f64_encoder():
    # the [3,1,2]/F_64 construction at alpha, every coefficient scaled by
    # alpha^5: G_0 is not [I_1 | P_0], so verify-conv systematizes it
    f = field(2, 6)
    enc = construct_frobenius(3, 1, 2, f, f.alpha_pow(1))
    return PolyEncoder(3, 1, [g.scale(f.alpha_pow(5)) for g in enc.coeffs])


def test_recheck_systematizes_the_encoder_verify_conv_decided(tmp_path, capsys):
    enc_path = _write(tmp_path, "scaled.json", _scaled_f64_encoder().to_json())
    report = _false_report(tmp_path, capsys, ["verify-conv", "--encoder", enc_path])
    assert report["systematized"] is True
    assert "profile" in report["oracle"]["witness"]
    # the engine's witness, then the oracle's alone
    oracle_only = _write(tmp_path, "oracle.json", {"oracle": report["oracle"]})
    for path in (str(tmp_path / "report.json"), oracle_only):
        rc, rep = _run(capsys, ["recheck", "--report", path, "--encoder", enc_path])
        assert (rc, rep["reverifies"]) == (EXIT_TRUE, True)


def _exits_2_with_one_error_line(argv, capsys):
    assert main(argv) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
    return captured.err


def test_an_encoder_needs_0_lt_k_le_n(tmp_path, capsys):
    rows = Matrix.from_rows([[1, 0], [0, 1], [1, 1]], F4)
    for k, g in ((3, rows), (0, Matrix(0, 2, F4))):
        with pytest.raises(EncoderError):
            PolyEncoder(2, k, [g])
    # k = n: the parity is empty and every level is maximal
    square = _write(tmp_path, "k2n2.json", PolyEncoder(2, 2, [Matrix.identity(2, F4)]).to_json())
    rc, report = _run(capsys, ["verify-conv", "--encoder", square])
    assert (rc, report["verdict"], report["agreement"]) == (EXIT_TRUE, True, True)
    wide = _write(tmp_path, "k3n2.json", {"field": F4.descriptor(), "n": 2, "k": 3,
                                          "coeffs": [rows.to_json()]})
    enc_path = _write(tmp_path, "e.json", _NOT_MSR.to_json())
    _false_report(tmp_path, capsys, ["verify-conv", "--encoder", enc_path])
    for argv in (["verify-conv"], ["distance"],
                 ["recheck", "--report", str(tmp_path / "report.json")]):
        err = _exits_2_with_one_error_line(argv + ["--encoder", wide], capsys)
        assert "k=3, n=2" in err


def test_from_json_refuses_a_field_other_than_the_matrices(tmp_path):
    for obj, cls in ((_TWO_BLOCKS.to_json(), SystematicBlockCode),
                     (_NOT_MSR.to_json(), PolyEncoder)):
        assert cls.from_json(obj).to_json() == obj
        assert cls.from_json({k: v for k, v in obj.items() if k != "field"}) == \
            cls.from_json(obj)
        with pytest.raises(FieldError):
            cls.from_json(dict(obj, field=F8.descriptor()))


@pytest.mark.parametrize("command", ["verify-block", "verify-conv", "distance",
                                     "recheck-code", "recheck-encoder"])
def test_a_field_key_other_than_the_matrices_exits_2(tmp_path, capsys, command):
    # named F_8, but the matrices are over F_4 (code) and F_2 (encoder)
    code = _write(tmp_path, "code.json", dict(_TWO_BLOCKS.to_json(), field=F8.descriptor()))
    enc = _write(tmp_path, "enc.json", dict(_NOT_MSR.to_json(), field=F8.descriptor()))
    report = _write(tmp_path, "report.json", {"witness": {"rows": [0], "cols": [0]}})
    argv = {
        "verify-block": ["verify-block", "--code", code],
        "verify-conv": ["verify-conv", "--encoder", enc],
        "distance": ["distance", "--encoder", enc],
        "recheck-code": ["recheck", "--report", report, "--code", code],
        "recheck-encoder": ["recheck", "--report", report, "--encoder", enc],
    }[command]
    assert F8.descriptor() in _exits_2_with_one_error_line(argv, capsys)
