import ast
import importlib
import json
import os
import pkgutil
import signal
import subprocess
import sys
import threading
import time

import pytest

import augq
from augq import AugmentedRing, AugqError, ValidationReport, abgroup, constructors
from augq import stabilize
from augq import cli
from augq.cli import main
from augq.stabilize import StabilizationReport, build_report, report_to_dict
from conftest import corpus_ring_specs

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_dual_numbers(path):
    spec = {
        "basis": ["1", "x"],
        "identity": 0,
        "structure": [[0, 0, 0, 1], [0, 1, 1, 1]],
        "augmentation": [1, 0],
    }
    path.write_text(json.dumps(spec))


def test_validate_group_ring(capsys):
    code, out, _ = run(capsys, "validate", "--group", "C2")
    assert code == 0
    assert "result: valid" in out


def test_validate_failure_exit_code(capsys, tmp_path):
    ring = tmp_path / "dual.json"
    write_dual_numbers(ring)
    code, out, _ = run(capsys, "validate", "--ring", str(ring))
    assert code == 1
    assert "torsion: FAIL" in out
    code, out, _ = run(capsys, "validate", "--ring", str(ring), "--format", "json")
    assert code == 1
    data = json.loads(out)
    assert data["passed"] is False and data["checks"]["torsion"] is False


def test_qn_frozen_csv(capsys):
    code, out, _ = run(capsys, "qn", "--ring", "C2", "--max-n", "3", "--format", "csv")
    assert code == 0
    assert out == (
        "ring_id,n,invariants,order\n"
        "group-ring:C2,1,2,2\n"
        "group-ring:C2,2,2,2\n"
        "group-ring:C2,3,2,2\n"
    )
    code, out, err = run(capsys, "qn", "--ring", "C2", "--max-n", "3")
    assert (code, err) == (0, "")
    assert out == (
        "ring: group-ring:C2\n"
        "n  invariants  order\n"
        "1  [2]         2\n"
        "2  [2]         2\n"
        "3  [2]         2\n"
    )
    code, out, err = run(capsys, "qn", "--ring", "C2", "--max-n", "3", "--format", "json")
    assert (code, err) == (0, "")
    quotients = [{"n": n, "group": [2], "order": 2, "ideal_rank": 1} for n in (1, 2, 3)]
    assert out == json.dumps(
        {"ring_id": "group-ring:C2", "max_n": 3, "quotients": quotients}, indent=2
    ) + "\n"


def test_qn_rejects_nonpositive_max_n(capsys):
    for max_n in ("0", "١_2", "1_2", "+3", " 3", "²"):
        with pytest.raises(SystemExit) as exc:
            main(["qn", "--ring", "C2", "--max-n", max_n])
        assert exc.value.code == 2


@pytest.mark.parametrize("command", ["qn", "stabilize", "corpus"])
def test_max_n_has_a_ceiling_of_1000(capsys, tmp_path, command):
    if command == "corpus":
        corpus = tmp_path / "rings.txt"
        corpus.write_text("group-ring C2\n")
        argv = [command, str(corpus)]
    else:
        argv = [command, "--group", "C2"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--max-n", "1001"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith(f"augq {command}: error: argument --max-n: must be at most 1000\n")
    code, out, err = run(capsys, *argv, "--max-n", "1000")
    assert (code, err) == (0, "")
    assert "1000" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["--group", "C²"],
        ["--group", "D²"],
        ["--group", "D³", "--family", "rep"],
        ["--group", "C2xC١٢"],
        ["--group", "C" + "1" * 5000],
    ],
)
def test_qn_rejects_non_decimal_group_spec(capsys, argv):
    code, out, err = run(capsys, "qn", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("augq: group spec: ")


def test_validate_csv_is_frozen(capsys):
    code, out, err = run(capsys, "validate", "--group", "C2", "--format", "csv")
    assert (code, err) == (0, "")
    assert out == (
        "check,passed\n"
        "commutativity,true\n"
        "associativity,true\n"
        "identity,true\n"
        "augmentation_multiplicative,true\n"
        "augmentation_unit,true\n"
        "torsion,true\n"
    )
    checks = [
        "commutativity",
        "associativity",
        "identity",
        "augmentation_multiplicative",
        "augmentation_unit",
        "torsion",
    ]
    code, out, err = run(capsys, "validate", "--group", "C2")
    assert (code, err) == (0, "")
    assert out == (
        "ring: group-ring:C2\n"
        + "".join(f"{check}: pass\n" for check in checks)
        + "result: valid\n"
    )
    code, out, err = run(capsys, "validate", "--group", "C2", "--format", "json")
    assert (code, err) == (0, "")
    assert out == json.dumps(
        {
            "ring_id": "group-ring:C2",
            "checks": {check: True for check in checks},
            "failures": [],
            "passed": True,
        },
        indent=2,
    ) + "\n"


def test_stabilize_csv_is_frozen(capsys):
    code, out, err = run(
        capsys, "stabilize", "--group", "C2xC4", "--max-n", "8", "--format", "csv"
    )
    assert (code, err) == (0, "")
    assert out == (
        "ring_id,n,invariants,order,bound_ok\n"
        "group-ring:C2xC4,1,2|4,8,true\n"
        "group-ring:C2xC4,2,2|2|4,16,true\n"
        + "".join(f"group-ring:C2xC4,{n},2|2|2|4,32,true\n" for n in range(3, 9))
    )
    code, out, err = run(
        capsys, "stabilize", "--group", "C2xC4", "--max-n", "8", "--format", "json"
    )
    assert (code, err) == (0, "")
    groups = [[2, 4], [2, 2, 4]] + [[2, 2, 2, 4]] * 6
    assert out == json.dumps(
        {
            "ring_id": "group-ring:C2xC4",
            "max_n": 8,
            "d": 4,
            "r": 7,
            "quotients": [
                {"n": n, "group": g, "order": 2 ** len(g) * 2, "ideal_rank": 7}
                for n, g in enumerate(groups, 1)
            ],
            "n0_candidate": 3,
            "window": 6,
            "certified": False,
            "bound_ok": [True] * 8,
            "lambda_table": {
                "2,0": [3, 4, 5, 5, 5, 5, 5, 5],
                "2,1": [1] * 8,
                **{f"2,{s}": [0] * 8 for s in range(2, 15)},
            },
        },
        indent=2,
    ) + "\n"


def test_stabilize_table_names_the_detected_tail(capsys):
    code, out, err = run(capsys, "stabilize", "--group", "C2xC4", "--max-n", "8")
    assert (code, err) == (0, "")
    assert out == (
        "ring: group-ring:C2xC4\n"
        "torsion exponent d: 4   free rank r: 7   bound d^r: 16384\n"
        "stable from n0 = 3 (window 6, certified: no)\n"
        "n  invariants    order  bound\n"
        "1  [2, 4]        8      yes\n"
        "2  [2, 2, 4]     16     yes\n"
        + "".join(f"{n}  [2, 2, 2, 4]  32     yes\n" for n in range(3, 9))
        + "valuation rows v_p(|p^s Q_n|), n = 1..N:\n"
        "  p=2 s=0: 3 4 5 5 5 5 5 5\n"
        "  p=2 s=1: 1 1 1 1 1 1 1 1\n"
    )


def test_stabilize_json_is_the_report_dict(capsys):
    code, out, _ = run(
        capsys, "stabilize", "--group", "C2xC2", "--max-n", "8", "--format", "json"
    )
    assert code == 0
    ring = constructors.group_ring(augq.FinAbGroup([2, 2]))
    report = build_report(ring, "group-ring:C2xC2", max_n=8, min_window=5)
    data = json.loads(out)
    assert data == report_to_dict(report)
    assert tuple(data) == StabilizationReport.__slots__
    assert data["n0_candidate"] == 2
    assert data["certified"] is False


def test_stabilize_builds_only_the_chosen_format(capsys, tmp_path):
    # x*x = N x and y*y = y with N = 2^10000: every Q_n is Z/N, which writes,
    # but the table's bound d^r = N^2 has 6,021 digits, past the writer's limit
    path = tmp_path / "wide-bound.json"
    path.write_text(
        json.dumps(
            {
                "basis": ["1", "x", "y"],
                "identity": 0,
                "structure": [
                    [0, 0, 0, 1], [0, 1, 1, 1], [0, 2, 2, 1],
                    [1, 1, 1, str(2**10000)], [2, 2, 2, 1],
                ],
                "augmentation": [1, 0, 0],
            }
        )
    )
    argv = ["stabilize", "--ring", str(path), "--max-n", "3", "--window", "2"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "augq: integer of 20001 bits is too long to write in decimal\n"
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["d"] == str(2**10000)
    code, out, err = run(capsys, *argv, "--format", "csv")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == f"ring:wide-bound,3,{2**10000},{2**10000},true"


@pytest.mark.parametrize("command", ["qn", "stabilize"])
def test_invalid_ring_exits_1_naming_each_failure(capsys, tmp_path, command):
    path = tmp_path / "dual.json"
    write_dual_numbers(path)
    code, out, err = run(capsys, command, "--ring", str(path))
    assert (code, out) == (1, "")
    assert err == (
        "augq: ring:dual: torsion: I/I^2 has free rank 1, so it is not finite\n"
        "augq: ring:dual failed validation\n"
    )


def test_stabilize_inconclusive_exit_code(capsys):
    code, out, err = run(
        capsys, "stabilize", "--group", "C2xC4", "--max-n", "3", "--window", "3"
    )
    assert (code, err) == (3, "")
    assert out == (
        "ring: group-ring:C2xC4\n"
        "torsion exponent d: 4   free rank r: 7   bound d^r: 16384\n"
        "no stable tail of length >= 3 within n <= 3\n"
        "n  invariants    order  bound\n"
        "1  [2, 4]        8      yes\n"
        "2  [2, 2, 4]     16     yes\n"
        "3  [2, 2, 2, 4]  32     yes\n"
        "valuation rows v_p(|p^s Q_n|), n = 1..N:\n"
        "  p=2 s=0: 3 4 5\n"
        "  p=2 s=1: 1 1 1\n"
    )


def test_stabilize_window_exceeding_max_n(capsys):
    code, _, err = run(capsys, "stabilize", "--group", "C2", "--max-n", "3", "--window", "5")
    assert code == 2
    assert "--window" in err


def test_classify_inline_profile(capsys):
    profile = '{"2,0": 3, "2,1": 1}'
    code, out, _ = run(capsys, "classify", "--profile", profile)
    assert code == 0
    assert out.strip() == "[2,4]"
    code, out, err = run(capsys, "classify", "--profile", profile, "--format", "json")
    assert (code, err) == (0, "")
    assert out == '{\n  "invariant_factors": [\n    2,\n    4\n  ]\n}\n'
    code, out, err = run(capsys, "classify", "--profile", profile, "--format", "csv")
    assert (code, out, err) == (0, "invariants\n2|4\n", "")


def test_classify_profile_file(capsys, tmp_path):
    prof = tmp_path / "prof.json"
    prof.write_text('{"3,0": 1}')
    code, out, _ = run(capsys, "classify", "--profile", str(prof), "--format", "json")
    assert code == 0
    assert json.loads(out) == {"invariant_factors": [3]}


def test_classify_json_encodes_big_invariant_factors(capsys):
    # the profile of Z/2^70: one factor past the 64-bit range, written as a
    # decimal string like every integer of that size in qn and stabilize JSON
    profile = json.dumps({f"2,{s}": 70 - s for s in range(70)})
    code, out, err = run(capsys, "classify", "--profile", profile, "--format", "json")
    assert (code, err) == (0, "")
    assert out == '{\n  "invariant_factors": [\n    "1180591620717411303424"\n  ]\n}\n'
    code, out, err = run(capsys, "classify", "--profile", profile)
    assert (code, out, err) == (0, "[1180591620717411303424]\n", "")


def test_classify_profile_file_must_hold_an_object(capsys, tmp_path):
    prof = tmp_path / "prof.json"
    prof.write_text("[1, 2]")
    code, out, err = run(capsys, "classify", "--profile", str(prof))
    assert (code, out, err) == (2, "", "augq: profile must be a JSON object\n")


def test_classify_empty_profile(capsys):
    code, out, _ = run(capsys, "classify", "--profile", "{}")
    assert code == 0
    assert out.strip() == "[]"


def test_classify_inconsistent_profile(capsys):
    code, _, err = run(capsys, "classify", "--profile", '{"2,1": 1}')
    assert code == 1
    assert err
    # increasing in s is impossible for a valuation profile
    code, _, err = run(capsys, "classify", "--profile", '{"2,0": 1, "2,1": 2}')
    assert code == 1


def test_classify_undecidable_prime_key(capsys):
    # 10^30 + 57 is past the range where the primality test is exact
    code, out, err = run(
        capsys, "classify", "--profile", '{"1000000000000000000000000000057,0": 1}'
    )
    assert code == 2
    assert out == ""
    assert "1000000000000000000000000000057" in err


def test_classify_malformed_json(capsys):
    code, _, _ = run(capsys, "classify", "--profile", "{not json")
    assert code == 2


def test_marks_csv_frozen(capsys):
    code, out, _ = run(capsys, "marks", "--group", "S3", "--format", "csv")
    assert code == 0
    assert out == (
        "class,order,marks\n"
        "H0,1,6|0|0|0\n"
        "H1,2,3|1|0|0\n"
        "H2,3,2|0|2|0\n"
        "H3,6,1|1|1|1\n"
    )
    code, out, err = run(capsys, "marks", "--group", "S3")
    assert (code, err) == (0, "")
    assert out == (
        "class  |H|  H0  H1  H2  H3\n"
        "H0     1    6   0   0   0\n"
        "H1     2    3   1   0   0\n"
        "H2     3    2   0   2   0\n"
        "H3     6    1   1   1   1\n"
    )
    code, out, err = run(capsys, "marks", "--group", "S3", "--format", "json")
    assert (code, err) == (0, "")
    assert out == json.dumps(
        {
            "group_order": 6,
            "labels": ["H0", "H1", "H2", "H3"],
            "subgroup_orders": [1, 2, 3, 6],
            "marks": [[6, 0, 0, 0], [3, 1, 0, 0], [2, 0, 2, 0], [1, 1, 1, 1]],
        },
        indent=2,
    ) + "\n"


def test_marks_cayley_file(capsys, tmp_path):
    table = tmp_path / "c2.json"
    table.write_text(json.dumps({"order": 2, "table": [[0, 1], [1, 0]]}))
    code, out, _ = run(capsys, "marks", "--group", str(table), "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["marks"] == [[2, 0], [1, 1]]


def test_marks_trivial_group(capsys):
    code, out, _ = run(capsys, "marks", "--group", "1", "--format", "csv")
    assert code == 0
    assert out == "class,order,marks\nH0,1,1\n"


def test_marks_guard_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("AUGQ_MAX_ORDER", "4")
    code, _, err = run(capsys, "marks", "--group", "D4")
    assert code == 1
    assert "guard" in err


def test_qn_trivial_ring(capsys):
    code, out, _ = run(capsys, "qn", "--ring", "1", "--max-n", "2", "--format", "csv")
    assert code == 0
    assert out == "ring_id,n,invariants,order\ngroup-ring:1,1,,1\ngroup-ring:1,2,,1\n"


def test_marks_bad_table(capsys, tmp_path):
    table = tmp_path / "bad.json"
    table.write_text(json.dumps({"order": 2, "table": [[0, 1], [0, 1]]}))
    code, _, err = run(capsys, "marks", "--group", str(table))
    assert code == 2
    assert err


@pytest.mark.parametrize("row", [5, None, True, 1.5, "01"])
def test_marks_table_rows_must_be_arrays(capsys, tmp_path, row):
    table = tmp_path / "bad.json"
    table.write_text(json.dumps({"order": 2, "table": [[0, 1], row]}))
    code, out, err = run(capsys, "marks", "--group", str(table))
    assert (code, out) == (2, "")
    assert err == f"augq: {table}: multiplication table rows must be arrays\n"


def test_marks_order_must_not_be_a_boolean(capsys, tmp_path):
    table = tmp_path / "bad.json"
    table.write_text(json.dumps({"order": True, "table": [[0]]}))
    code, out, err = run(capsys, "marks", "--group", str(table))
    assert (code, out) == (2, "")
    assert err == f"augq: {table}: 'order' must be a positive integer\n"


def test_ring_group_mutually_exclusive(capsys):
    code, _, err = run(capsys, "validate", "--ring", "C2", "--group", "C2")
    assert code == 2
    code, _, err = run(capsys, "validate")
    assert code == 2


def test_group_ring_family_rejects_nonabelian(capsys):
    code, _, err = run(capsys, "qn", "--group", "D4")
    assert code == 2
    assert "abelian" in err


def test_rep_family_rejects_symmetric(capsys):
    code, _, err = run(capsys, "qn", "--group", "S3", "--family", "rep")
    assert code == 2


def test_missing_ring_file(capsys):
    code, _, err = run(capsys, "validate", "--ring", "/nonexistent/x.json")
    assert code == 2
    assert "cannot read" in err


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "out.csv"
    code, out, _ = run(
        capsys, "qn", "--ring", "C2", "--max-n", "2", "--format", "csv",
        "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("ring_id,n,invariants,order\n")


def test_output_is_deterministic(capsys):
    args = ("stabilize", "--group", "C2xC4", "--family", "burnside",
            "--max-n", "6", "--format", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


# -- corpus ------------------------------------------------------------------


def test_corpus_small(capsys, tmp_path):
    corpus = tmp_path / "rings.txt"
    corpus.write_text(
        "# comment line\n"
        "\n"
        "group-ring C2\n"
        "burnside C2\n"
        "rep D3\n"
    )
    code, out, _ = run(capsys, "corpus", str(corpus), "--max-n", "8", "--window", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "ring_id,status,d,r,n0_candidate,window,bound_ok,tail,error"
    assert lines[1].startswith("group-ring:C2,ok,2,1,1,8,true,2,")
    assert lines[2].startswith("burnside:C2,ok,2,1,1,8,true,2,")
    assert lines[3].startswith("rep:D3,ok,6,2,1,8,true,6,")


def test_corpus_empty(capsys, tmp_path):
    corpus = tmp_path / "empty.txt"
    corpus.write_text("# nothing here\n")
    code, out, _ = run(capsys, "corpus", str(corpus))
    assert code == 0
    assert out == "ring_id,status,d,r,n0_candidate,window,bound_ok,tail,error\n"


def test_corpus_window_exceeding_max_n(capsys, tmp_path):
    corpus = tmp_path / "rings.txt"
    corpus.write_text("group-ring C2\n")
    code, out, err = run(capsys, "corpus", str(corpus), "--max-n", "3", "--window", "4")
    assert (code, out, err) == (2, "", "augq: --window cannot exceed --max-n\n")


def test_corpus_invalid_ring_row(capsys, tmp_path):
    ring = tmp_path / "dual.json"
    write_dual_numbers(ring)
    corpus = tmp_path / "rings.txt"
    corpus.write_text(f"group-ring C2\nring {ring.name}\n")
    code, out, _ = run(capsys, "corpus", str(corpus), "--max-n", "6", "--window", "3")
    assert code == 1
    lines = out.splitlines()
    assert lines[1].split(",")[1] == "ok"
    row = lines[2].split(",")
    assert row[0] == "ring:dual" and row[1] == "invalid"
    assert "torsion" in lines[2]


def test_corpus_relative_paths_resolve_against_corpus_file(capsys, tmp_path):
    sub = tmp_path / "sub"
    sub.mkdir()
    ring = sub / "dual.json"
    write_dual_numbers(ring)
    corpus = sub / "rings.txt"
    corpus.write_text("ring dual.json\n")
    code, out, _ = run(capsys, "corpus", str(corpus))
    assert code == 1
    assert "ring:dual" in out


def test_corpus_non_decimal_spec_is_an_error_row(capsys, tmp_path):
    corpus = tmp_path / "rings.txt"
    corpus.write_text("group-ring C2\ngroup-ring C²\nburnside C2\n")
    code, out, _ = run(capsys, "corpus", str(corpus), "--max-n", "6", "--window", "3")
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[1].startswith("group-ring:C2,ok,")
    assert lines[2].startswith("group-ring:C²,error,") and "expected C<n>" in lines[2]
    assert lines[3].startswith("burnside:C2,ok,")


def test_corpus_path_with_a_nul_byte_is_an_error_row(capsys, tmp_path):
    corpus = tmp_path / "rings.txt"
    corpus.write_text("ring a\0b.json\ngroup-ring C2\n")
    code, out, _ = run(capsys, "corpus", str(corpus), "--max-n", "6", "--window", "3")
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[1] == (
        f"ring:a\0b,error,,,,,,,cannot read {tmp_path / 'a'}\0b.json: "
        "embedded null byte"
    )
    assert lines[2].startswith("group-ring:C2,ok,")


@pytest.mark.parametrize(
    "text", ["[" * 100_000, '{"basis": ' + "1" * 5000 + "}"], ids=["deep", "long-int"]
)
def test_json_past_the_parser_limits_is_malformed(capsys, tmp_path, text):
    path = tmp_path / "ring.json"
    path.write_text(text)
    code, out, err = run(capsys, "validate", "--ring", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"augq: {path}: malformed JSON: ")
    code, out, err = run(capsys, "classify", "--profile", "{" + text[1:])
    assert (code, out) == (2, "")
    assert err.startswith("augq: malformed profile JSON: ")


def test_corpus_bad_line(capsys, tmp_path):
    corpus = tmp_path / "rings.txt"
    corpus.write_text("group-ring C2 extra\n")
    code, _, err = run(capsys, "corpus", str(corpus))
    assert code == 2
    assert "expected" in err


# -- corpus over forked processes ---------------------------------------------


def mixed_corpus_args(tmp_path):
    """``corpus`` arguments for eight rings with a row of every status at
    --max-n 6: ok, inconclusive, invalid, and error (a missing ring file, a
    bad group spec)."""
    write_dual_numbers(tmp_path / "dual.json")
    corpus = tmp_path / "rings.txt"
    corpus.write_text(
        "group-ring C2\n"
        "group-ring C2xC2xC2xC2\n"
        "ring dual.json\n"
        "ring missing.json\n"
        "group-ring C²\n"
        "burnside C2xC2\n"
        "rep D4\n"
        "group-ring C4xC4\n"
    )
    return ["corpus", str(corpus), "--max-n", "6", "--window", "5"]


@pytest.mark.parametrize("jobs", [2, 3, 9])
def test_corpus_pool_output_matches_one_process(capsys, tmp_path, jobs):
    argv = mixed_corpus_args(tmp_path)
    one = run(capsys, *argv)
    statuses = {line.split(",")[1] for line in one[1].splitlines()[1:]}
    assert one[0] == 1 and statuses == {"ok", "inconclusive", "invalid", "error"}
    assert "cannot read" in one[1]  # a CliError, raised in whichever process
    code = main(argv, jobs=jobs)
    out = capsys.readouterr()
    assert (code, out.out, out.err) == one


def test_corpus_program_output_matches_in_process_on_the_53_ring_corpus(
    capsys, tmp_path
):
    corpus = tmp_path / "rings.txt"
    corpus.write_text("".join(f"{f} {s}\n" for f, s in corpus_ring_specs()))
    code, out, err = run(capsys, "corpus", str(corpus))
    assert (code, err) == (0, "")
    done = subprocess.run(
        [sys.executable, "-m", "augq.cli", "corpus", str(corpus)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC),
        timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, out, "")


@pytest.mark.parametrize(
    "rings",
    ["", "group-ring C2\n", "group-ring C2\nburnside S3\nrep D4\n"],
    ids=["empty", "one-ring", "three-rings"],
)
def test_program_never_imports_multiprocessing(tmp_path, rings):
    corpus = tmp_path / "rings.txt"
    corpus.write_text(rings)
    script = (
        "import os, sys\n"
        "from augq import cli\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "code = cli._program()\n"
        "assert 'multiprocessing' not in sys.modules\n"
        "sys.exit(code)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, "corpus", str(corpus)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC),
        timeout=20,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert len(done.stdout.splitlines()) == 1 + len(rings.splitlines())


def spy_on_fork(monkeypatch):
    """The list of the pids ``os.fork`` returns in this process."""
    calls = []
    fork = os.fork

    def spy():
        pid = fork()
        if pid:
            calls.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return calls


@pytest.mark.parametrize(
    "platform,forks",
    [("no-fork", False), ("no-affinity-one-cpu", False), ("no-affinity-two-cpus", True)],
)
def test_program_falls_back_to_one_process(capsys, monkeypatch, tmp_path, platform, forks):
    argv = mixed_corpus_args(tmp_path)
    one = run(capsys, *argv)
    calls = spy_on_fork(monkeypatch)
    if platform == "no-fork":
        monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        cpus = 1 if platform == "no-affinity-one-cpu" else 2
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(sys, "argv", ["augq"] + argv)
    code = cli._program()
    out = capsys.readouterr()
    assert (code, out.out, out.err) == one
    assert len(calls) == (1 if forks else 0)


def test_corpus_forks_nothing_from_a_threaded_process(capsys, monkeypatch, tmp_path):
    argv = mixed_corpus_args(tmp_path)
    one = run(capsys, *argv)
    calls = spy_on_fork(monkeypatch)
    parked = threading.Event()
    thread = threading.Thread(target=parked.wait, daemon=True)
    thread.start()
    try:
        code = main(argv, jobs=2)
    finally:
        parked.set()
        thread.join(timeout=5)
    assert not thread.is_alive()
    out = capsys.readouterr()
    assert (code, out.out, out.err) == one
    assert calls == []


def test_corpus_claims_more_rings_than_one_pipe_buffer_holds(capsys, tmp_path):
    # 20,000 claims of 4 bytes each are past a 64 KiB pipe buffer; the forked
    # sweep runs in a subprocess, so a claim write that blocks fails the test
    corpus = tmp_path / "rings.txt"
    corpus.write_text("group-ring 1\n" * 20000)
    argv = ["corpus", str(corpus), "--max-n", "2", "--window", "2"]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "") and len(out.splitlines()) == 20001
    script = "import sys; from augq.cli import main; sys.exit(main(sys.argv[1:], jobs=2))"
    done = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC),
        timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, out, "")


def test_corpus_reports_children_that_exit_non_zero(capsys, monkeypatch, tmp_path):
    argv = mixed_corpus_args(tmp_path)

    def fail(lifeline, out, claim_rows):
        raise RuntimeError("no rows sent")

    monkeypatch.setattr(cli, "_corpus_child", fail)
    children = spy_on_fork(monkeypatch)
    code = main(argv, jobs=3)
    out = capsys.readouterr()
    assert len(children) == 2 and (code, out.out) == (1, "")
    assert out.err == "augq: " + "; ".join(
        f"corpus worker {pid} exited with status 1" for pid in children
    ) + "\n"


def live_group_members(pgid):
    """Pids of the processes in group ``pgid`` that have not exited."""
    pids = []
    for name in os.listdir("/proc"):
        try:
            with open(f"/proc/{name}/stat") as fh:
                state, _, pgrp = fh.read().rsplit(")", 1)[1].split()[:3]
        except (OSError, IndexError, ValueError):
            continue  # not a process, or one that just exited
        if int(pgrp) == pgid and state not in "ZX":
            pids.append(int(name))
    return pids


def start_heavy_sweep(tmp_path, jobs):
    """A ``jobs``-process sweep in a new session, with its stdout and
    stderr piped, once all its processes are up; each of its four C2xC2xC8
    group rings takes about a second at --max-n 600, almost all of it in
    the chain steps, which have no period on this ring."""
    corpus = tmp_path / "rings.txt"
    corpus.write_text("group-ring C2xC2xC8\n" * 4)
    script = f"import sys; from augq.cli import main; sys.exit(main(sys.argv[1:], jobs={jobs}))"
    proc = subprocess.Popen(
        [sys.executable, "-c", script, "corpus", str(corpus), "--max-n", "600"],
        env=dict(os.environ, PYTHONPATH=SRC),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    )
    deadline = time.monotonic() + 20
    while len(live_group_members(proc.pid)) < jobs:
        if proc.poll() is not None or time.monotonic() > deadline:
            end_session(proc)
            pytest.fail("the sweep's children did not start")
        time.sleep(0.01)
    time.sleep(0.3)  # every process into its first ring
    return proc


def end_session(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
def test_killed_corpus_sweep_takes_its_workers_with_it(tmp_path):
    jobs = 2
    proc = start_heavy_sweep(tmp_path, jobs)
    try:
        proc.kill()
        proc.wait(timeout=5)
        killed = time.monotonic()
        while live_group_members(proc.pid):
            assert time.monotonic() - killed < 1, "the children outlived the sweep"
            time.sleep(0.01)
        _, err = proc.communicate(timeout=1)
        assert err == b""
    finally:
        end_session(proc)


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
def test_a_killed_child_ends_the_sweep(tmp_path):
    proc = start_heavy_sweep(tmp_path, 2)
    try:
        (child,) = set(live_group_members(proc.pid)) - {proc.pid}
        os.kill(child, signal.SIGKILL)
        out, err = proc.communicate(timeout=10)
        assert (proc.returncode, out) == (1, b"")
        assert err == f"augq: corpus worker {child} was killed by SIGKILL\n".encode()
        assert live_group_members(proc.pid) == []
    finally:
        end_session(proc)


def test_marks_guard_rejects_non_integer_env(capsys, monkeypatch):
    for value in ("abc", "1_0", "+64", " 64", "٦٤", "6.4e1"):
        monkeypatch.setenv("AUGQ_MAX_ORDER", value)
        code, _, err = run(capsys, "marks", "--group", "S3")
        assert code == 2
        assert "AUGQ_MAX_ORDER" in err


def test_qn_json_encodes_big_invariant_factors(capsys, tmp_path):
    # x*x = (2^64 + 1) x, so Q_n = Z/(2^64 + 1) for every n
    big = 2**64 + 1
    spec = {
        "basis": ["1", "x"],
        "identity": 0,
        "structure": [[0, 0, 0, 1], [0, 1, 1, 1], [1, 1, 1, str(big)]],
        "augmentation": [1, 0],
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run(capsys, "qn", "--ring", str(path), "--max-n", "2", "--format", "json")
    assert code == 0
    quotients = json.loads(out)["quotients"]
    assert [q["group"] for q in quotients] == [[str(big)], [str(big)]]
    assert [q["order"] for q in quotients] == [str(big), str(big)]


def test_qn_factors_a_semiprime_invariant_factor(capsys, tmp_path):
    # x*x = N x with N a product of two primes near 2^31: Q_1 = Z/N
    big = (2**31 - 1) * (2**31 + 11)
    spec = {
        "basis": ["1", "x"],
        "identity": 0,
        "structure": [[0, 0, 0, 1], [0, 1, 1, 1], [1, 1, 1, big]],
        "augmentation": [1, 0],
    }
    path = tmp_path / "semiprime.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run(capsys, "qn", "--ring", str(path), "--max-n", "1")
    assert code == 0
    assert out.splitlines()[-1].split() == ["1", "[4611686039902224373]", str(big)]


def test_qn_factors_a_large_prime_power_invariant_factor(capsys, tmp_path):
    # x*x = 101^13 x: Q_1 = Z/101^13, past the bound where Miller-Rabin is exact
    big = 101**13
    spec = {
        "basis": ["1", "x"],
        "identity": 0,
        "structure": [[0, 0, 0, 1], [0, 1, 1, 1], [1, 1, 1, big]],
        "augmentation": [1, 0],
    }
    path = tmp_path / "prime_power.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run(capsys, "qn", "--ring", str(path), "--max-n", "1")
    assert code == 0
    assert out.splitlines()[-1].split() == ["1", f"[{big}]", str(big)]


def test_qn_does_not_factor_its_quotients(capsys, monkeypatch, tmp_path):
    # x*x = N x with N a product of two 16-digit primes: Q_n = Z/N for every
    # n, and only the valuation table of stabilize needs the primes of N
    big = 1125899906842679 * 2251799813685269
    spec = {
        "basis": ["1", "x"],
        "identity": 0,
        "structure": [[0, 0, 0, 1], [0, 1, 1, 1], [1, 1, 1, big]],
        "augmentation": [1, 0],
    }
    path = tmp_path / "semiprime.json"
    path.write_text(json.dumps(spec))
    monkeypatch.setattr(abgroup, "_RHO_MAX_STEPS", 64)
    argv = ["--ring", str(path), "--max-n", "3"]
    code, out, _ = run(capsys, "qn", *argv, "--format", "csv")
    assert code == 0
    assert out == "ring_id,n,invariants,order\n" + "".join(
        f"ring:semiprime,{n},{big},{big}\n" for n in (1, 2, 3)
    )
    code, out, err = run(capsys, "stabilize", *argv, "--window", "2")
    assert (code, out) == (2, "")
    assert err == (
        f"augq: cannot factor {big}: Pollard rho found no divisor within 64 steps\n"
    )


def test_out_flag_unwritable_path(capsys, tmp_path):
    target = tmp_path / "missing" / "x"
    code, out, err = run(capsys, "qn", "--ring", "C4", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith(f"augq: cannot write {target}: ")


@pytest.mark.parametrize("value", ["null", "1.5", "true", '"x"'])
def test_classify_rejects_non_integer_profile_values(capsys, value):
    code, out, err = run(capsys, "classify", "--profile", '{"2,0": %s}' % value)
    assert code == 2
    assert out == ""
    assert "'2,0'" in err and "must be an integer" in err


@pytest.mark.parametrize("key", ["٣,0", "3,0_0", "+3,0", " 3,0", "3", "3,0,0"])
def test_classify_rejects_non_decimal_profile_keys(capsys, key):
    code, out, err = run(capsys, "classify", "--profile", json.dumps({key: 1}))
    assert code == 2
    assert out == ""
    assert f"profile key {key!r}" in err


def test_classify_rejects_a_far_rise_at_once():
    # the rise sits at s = 10^12: a walk over every shift up to it runs for hours
    argv = ["-m", "augq.cli", "classify", "--profile", '{"2,1000000000000": 1}']
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=20
    )
    assert done.returncode == 1
    assert "not non-increasing at p=2, s=1000000000000" in done.stderr


def test_classify_bounds_the_rank_of_a_profile(capsys, monkeypatch):
    # every Q_n augq computes has rank below the ring dimension, which the
    # order guard bounds; a larger rank would be listed factor by factor
    code, out, err = run(capsys, "classify", "--profile", '{"2,0": 3000000}')
    assert (code, out) == (1, "")
    assert err == "augq: 2-rank 3000000 exceeds the order guard 64 (AUGQ_MAX_ORDER)\n"
    code, out, _ = run(capsys, "classify", "--profile", '{"3,0": 64, "2,0": 1}')
    assert code == 0
    assert json.loads(out) == [3] * 63 + [6]
    monkeypatch.setenv("AUGQ_MAX_ORDER", "63")
    code, out, err = run(capsys, "classify", "--profile", '{"3,0": 64}')
    assert (code, out) == (1, "")
    assert err == "augq: 3-rank 64 exceeds the order guard 63 (AUGQ_MAX_ORDER)\n"
    code, out, _ = run(capsys, "classify", "--profile", '{"3,0": 64, "3,1": 1}')
    assert code == 0
    assert json.loads(out) == [3] * 62 + [9]


def first_primes(count):
    primes = []
    k = 2
    while len(primes) < count:
        if all(k % p for p in primes if p * p <= k):
            primes.append(k)
        k += 1
    return primes


def test_classify_many_primes_in_linear_time(capsys):
    # every p-rank is at the guard, so the profile passes it: 64,000 cyclic
    # orders whose invariant factors are 64 copies of an 11,400-bit number
    primes = first_primes(1000)
    profile = json.dumps({f"{p},0": 64 for p in primes})
    start = time.perf_counter()
    code, out, _ = run(capsys, "classify", "--profile", profile)
    elapsed = time.perf_counter() - start
    assert code == 0
    assert json.loads(out) == [augq.FinAbGroup(primes).order()] * 64
    assert elapsed < 5, f"classify took {elapsed:.1f} s"


# N = 2^13000 has 3,914 digits, under the 4,300 that read_decimal accepts
WIDE_N = 2**13000


def write_wide_idempotents(path, generators=("x", "y")):
    # x*x = N x, y*y = N y, x*y = 0: every Q_n is Z/N + Z/N, so |Q_1| = N^2
    # has 7,827 digits, d = N and the 2-rows run up to s = 26,000; with k
    # generators, Q_n is k copies of Z/N and the rows run up to 13,000·k
    n = str(WIDE_N)
    m = len(generators) + 1
    spec = {
        "basis": ["1", *generators],
        "identity": 0,
        "structure": [[0, 0, 0, 1]]
        + [[0, i, i, 1] for i in range(1, m)]
        + [[i, i, i, n] for i in range(1, m)],
        "augmentation": [1] + [0] * (m - 1),
    }
    path.write_text(json.dumps(spec))


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_qn_order_too_long_to_write_is_an_error(capsys, tmp_path, fmt):
    path = tmp_path / "wide.json"
    write_wide_idempotents(path)
    argv = ["qn", "--ring", str(path), "--max-n", "2", "--format", fmt]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "augq: integer of 26001 bits is too long to write in decimal\n"


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_classify_factor_too_long_to_write_is_an_error(capsys, tmp_path, fmt):
    # the profile of Z/2^15000, whose one factor has 4,516 digits
    path = tmp_path / "profile.json"
    path.write_text(json.dumps({f"2,{s}": 15000 - s for s in range(15000)}))
    code, out, err = run(capsys, "classify", "--profile", str(path), "--format", fmt)
    assert (code, out) == (1, "")
    assert err == "augq: integer of 15001 bits is too long to write in decimal\n"


def test_corpus_on_a_ring_with_many_valuation_rows_is_fast(tmp_path):
    # 26,001 valuation rows for p = 2; finding the exponents of 2 again for
    # every row ran for more than 45 minutes
    write_wide_idempotents(tmp_path / "wide.json")
    corpus = tmp_path / "rings.txt"
    corpus.write_text("ring wide.json\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "augq.cli", "corpus", str(corpus)],
        capture_output=True, text=True, env=env, timeout=20,
    )
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stderr
    row = done.stdout.splitlines()[1].split(",")
    assert row[:4] == ["ring:wide", "ok", str(WIDE_N), "2"]
    assert row[7] == f"{WIDE_N}|{WIDE_N}"
    assert elapsed < 5, f"corpus took {elapsed:.1f} s"


def test_corpus_on_a_ring_with_a_long_valuation_table_is_fast(tmp_path):
    # 32 generators: 416,001 rows for p = 2, each exponent 13,000; counting
    # the rows by p^s <= d^r one multiplication at a time and finding each
    # exponent by 13,000 divisions took about 9 s
    generators = [f"x{i}" for i in range(1, 33)]
    write_wide_idempotents(tmp_path / "wide.json", generators)
    corpus = tmp_path / "rings.txt"
    corpus.write_text("ring wide.json\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "augq.cli", "corpus", str(corpus), "--max-n", "6"],
        capture_output=True, text=True, env=env, timeout=30,
    )
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stderr
    row = done.stdout.splitlines()[1].split(",")
    assert row[:4] == ["ring:wide", "ok", str(WIDE_N), "32"]
    assert row[7] == "|".join([str(WIDE_N)] * 32)
    assert elapsed < 5, f"corpus took {elapsed:.1f} s"


def test_marks_guard_rejects_non_positive_env(capsys, monkeypatch):
    monkeypatch.setenv("AUGQ_MAX_ORDER", "-5")
    code, _, err = run(capsys, "qn", "--group", "S3", "--family", "burnside")
    assert code == 2
    assert "AUGQ_MAX_ORDER" in err


NOT_UTF8 = b'{"order": 1, "table": [[0]]} \xff\xfe'


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--ring", "{path}"],
        ["marks", "--group", "{path}"],
        ["classify", "--profile", "{path}"],
        ["corpus", "{path}"],
    ],
)
def test_non_utf8_input_file(capsys, tmp_path, argv):
    path = tmp_path / "bad.json"
    path.write_bytes(NOT_UTF8)
    code, out, err = run(capsys, *[a.format(path=path) for a in argv])
    assert code == 2
    assert out == ""
    assert err.startswith(f"augq: cannot read {path}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "family,spec,order",
    [
        ("burnside", "C100000", 100000),
        ("burnside", "D100000", 200000),
        ("burnside", "C99999999999999999999", 99999999999999999999),
        ("group-ring", "C5000", 5000),
        ("group-ring", "C99999999999999999999", 99999999999999999999),
        ("group-ring", "C2xC2xC2xC2xC2xC2xC2", 128),
        ("rep", "C5000", 5000),
        ("rep", "D5000", 10000),
    ],
)
def test_order_guard_fires_before_any_table(capsys, family, spec, order):
    code, out, err = run(capsys, "qn", "--group", spec, "--family", family)
    assert code == 1
    assert out == ""
    assert err == (
        f"augq: group order {order} exceeds the order guard 64 (AUGQ_MAX_ORDER)\n"
    )


@pytest.mark.parametrize("family", ["group-ring", "rep", "burnside"])
def test_order_guard_fires_before_any_factoring(capsys, monkeypatch, family):
    # a product of two 16-digit primes: Pollard rho spends seconds on it
    spec = "C1000000000000128000000000003367"

    def no_factoring(n):
        raise AssertionError(f"factored {n} before the order guard")

    monkeypatch.setattr(abgroup, "_factorint", no_factoring)
    code, out, err = run(capsys, "qn", "--group", spec, "--family", family)
    assert (code, out) == (1, "")
    assert err == (
        f"augq: group order {spec[1:]} exceeds the order guard 64 (AUGQ_MAX_ORDER)\n"
    )


@pytest.mark.parametrize("factor,count", [("C2", 40000), ("C6", 30000)])
def test_order_guard_on_a_long_product_spec(capsys, factor, count):
    # building the group is near-linear in the number of factors, and an
    # order past Python's int-to-str digit limit is named by its bit length
    spec = "x".join([factor] * count)
    bits = (int(factor[1:]) ** count).bit_length()
    start = time.perf_counter()
    code, out, err = run(capsys, "qn", "--group", spec, "--family", "group-ring")
    elapsed = time.perf_counter() - start
    assert (code, out) == (1, "")
    assert err == (
        f"augq: group order of {bits} bits exceeds the order guard 64 (AUGQ_MAX_ORDER)\n"
    )
    assert elapsed < 5, f"qn took {elapsed:.1f} s"


def test_order_guard_covers_ring_specs(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("AUGQ_MAX_ORDER", "65")
    path = tmp_path / "c65.json"
    path.write_text(json.dumps(constructors.group_ring(augq.FinAbGroup([65])).to_dict()))
    monkeypatch.delenv("AUGQ_MAX_ORDER")
    code, out, err = run(capsys, "validate", "--ring", str(path))
    assert (code, out) == (1, "")
    assert err == (
        "augq: ring dimension 65 exceeds the order guard 64 (AUGQ_MAX_ORDER)\n"
    )
    monkeypatch.setenv("AUGQ_MAX_ORDER", "65")
    code, out, _ = run(capsys, "validate", "--ring", str(path))
    assert code == 0
    assert "result: valid" in out


@pytest.mark.parametrize("family", ["group-ring", "rep", "burnside"])
def test_order_guard_follows_the_env_on_every_family(capsys, monkeypatch, family):
    monkeypatch.setenv("AUGQ_MAX_ORDER", "4")
    code, _, err = run(capsys, "qn", "--group", "C5", "--family", family)
    assert code == 1
    assert "order guard 4" in err
    code, _, _ = run(capsys, "qn", "--group", "C4", "--family", family, "--max-n", "2")
    assert code == 0
    monkeypatch.setenv("AUGQ_MAX_ORDER", "abc")
    code, _, err = run(capsys, "qn", "--group", "C4", "--family", family)
    assert code == 2
    assert "AUGQ_MAX_ORDER" in err


def test_seed_option_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["qn", "--ring", "C2", "--seed", "1"])
    assert exc.value.code == 2


# -- one exit code per exception class ------------------------------------------


def _raise_from_quotient_sequence(exc):
    def setup(monkeypatch, tmp_path):
        def fail(ring, max_n):
            raise exc

        monkeypatch.setattr(cli, "quotient_sequence", fail)
        return ["qn", "--group", "C2"]

    return setup


def _parse_error(monkeypatch, tmp_path):
    return ["qn", "--group", "C1"]


def _ring_spec_error(monkeypatch, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"basis": ["1"]}')
    return ["qn", "--ring", str(path)]


def _cayley_table_error(monkeypatch, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"order": 2, "table": [[0, 1], [0, 1]]}))
    return ["marks", "--group", str(path)]


def _bad_parameter_error(monkeypatch, tmp_path):
    monkeypatch.setenv("AUGQ_MAX_ORDER", "abc")
    return ["marks", "--group", "S3"]


def _too_large_error(monkeypatch, tmp_path):
    monkeypatch.setenv("AUGQ_MAX_ORDER", "4")
    return ["marks", "--group", "D4"]


def _rank_drop_error(monkeypatch, tmp_path):
    path = tmp_path / "dual.json"
    write_dual_numbers(path)
    monkeypatch.setattr(AugmentedRing, "validate", lambda self: ValidationReport({}, []))
    return ["qn", "--ring", str(path)]


def _inconsistent_profile_error(monkeypatch, tmp_path):
    return ["classify", "--profile", '{"2,1": 1}']


def _not_prime_error(monkeypatch, tmp_path):
    return ["classify", "--profile", '{"4,0": 1}']


def _report_inconsistency_error(monkeypatch, tmp_path):
    monkeypatch.setattr(
        stabilize, "verify_bound", lambda quotients, d, r: [False] * len(quotients)
    )
    return ["stabilize", "--group", "C2"]


EXIT_CODE_CASES = {
    "ParseError": (_parse_error, 2, "group spec: "),
    "RingSpecError": (_ring_spec_error, 2, ""),
    "CayleyTableError": (_cayley_table_error, 2, ""),
    "BadParameterError": (_bad_parameter_error, 2, ""),
    "DimensionMismatchError": (
        _raise_from_quotient_sequence(augq.DimensionMismatchError("length 3")),
        2,
        "",
    ),
    "TooLargeError": (_too_large_error, 1, ""),
    "RankDropError": (_rank_drop_error, 1, ""),
    "InconsistentProfileError": (_inconsistent_profile_error, 1, ""),
    "NotPrimeError": (_not_prime_error, 1, ""),
    "ReportInconsistencyError": (
        _report_inconsistency_error,
        1,
        "INTERNAL INVARIANT VIOLATION: ",
    ),
    "NotASublatticeError": (
        _raise_from_quotient_sequence(augq.NotASublatticeError("outside")),
        1,
        "",
    ),
}


@pytest.mark.parametrize("name", sorted(EXIT_CODE_CASES))
def test_exit_code_per_exception_class(capsys, monkeypatch, tmp_path, name):
    setup, want, prefix = EXIT_CODE_CASES[name]
    argv = setup(monkeypatch, tmp_path)
    code, _, err = run(capsys, *argv)
    assert code == want == getattr(augq, name).exit_code
    assert err.startswith("augq: " + prefix) and err.endswith("\n")


def test_exported_exceptions_share_the_exit_code_map():
    exported = {
        name: getattr(augq, name)
        for name in augq.__all__
        if isinstance(getattr(augq, name), type)
        and issubclass(getattr(augq, name), BaseException)
    }
    assert set(exported) == set(EXIT_CODE_CASES) | {"AugqError"}
    for name, cls in exported.items():
        assert issubclass(cls, AugqError), name
        assert cls.exit_code in (1, 2), name
    # the CLI's own usage errors exit 2 by class, as the library's do
    assert issubclass(cli.CliError, AugqError) and cli.CliError.exit_code == 2
    assert "__init__" not in vars(cli.CliError)


def test_each_exported_name_is_declared_once_by_its_defining_module():
    declared = {}
    for info in pkgutil.iter_modules(augq.__path__):
        module = importlib.import_module(f"augq.{info.name}")
        for name in module.__all__:
            declared.setdefault(name, []).append(module)
    assert len(set(augq.__all__)) == len(augq.__all__)
    assert set(augq.__all__) == set(declared) - set(cli.__all__)
    for name in augq.__all__:
        (module,) = declared[name]
        obj = getattr(module, name)
        assert obj.__module__ == module.__name__, name
        assert getattr(augq, name) is obj, name


def test_every_imported_name_is_read():
    # pkgutil lists the submodules, so __init__'s star imports are not read
    for info in pkgutil.iter_modules(augq.__path__):
        path = importlib.import_module(f"augq.{info.name}").__file__
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {a.asname or a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom):
                imported |= {a.asname or a.name for a in node.names}
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        assert imported <= read, (info.name, sorted(imported - read))
