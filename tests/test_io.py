import ast
import json
import os
import pathlib

import numpy as np
import pytest

from dsmkit import gen_pencil
from dsmkit.cli import main as cli_main
from dsmkit.errors import IoFormatError
from dsmkit.io import (
    format_imaginary,
    load_json,
    open_output,
    matrix_from_doc,
    matrix_to_doc,
    parse_imaginary,
    pencil_from_doc,
    pencil_to_doc,
    save_json,
    sweep_rows_to_csv,
    vector_from_doc,
    vector_to_doc,
)
from helpers import crandn


def test_matrix_round_trip():
    rng = np.random.default_rng(0)
    a = crandn(rng, 3, 4)
    doc = matrix_to_doc(a)
    back = matrix_from_doc(doc)
    assert np.array_equal(a, back)  # value-identical, not just close


def test_vector_round_trip_and_shape_check():
    rng = np.random.default_rng(1)
    v = crandn(rng, 5)
    assert np.array_equal(vector_from_doc(vector_to_doc(v)), v)
    with pytest.raises(IoFormatError):
        vector_from_doc(matrix_to_doc(crandn(rng, 2, 2)))


def test_matrix_doc_errors_name_the_field():
    with pytest.raises(IoFormatError) as err:
        matrix_from_doc({"rows": 2, "cols": 2, "re": [[1, 0], [0, 1]]}, "x")
    assert "im" in err.value.field
    with pytest.raises(IoFormatError) as err:
        matrix_from_doc({"rows": 2, "cols": 2, "re": [[1, 0]], "im": [[0, 0]]}, "x")
    assert err.value.field.startswith("x")
    with pytest.raises(IoFormatError):
        matrix_from_doc(
            {"rows": 1, "cols": 1, "re": [[float("nan")]], "im": [[0.0]]}, "x"
        )


def test_pencil_round_trip():
    p = gen_pencil(3, 2, seed=6)
    doc = pencil_to_doc(p)
    back = pencil_from_doc(doc)
    for blk in ("J", "R", "E", "B", "S"):
        assert np.array_equal(getattr(p, blk), getattr(back, blk))
    doc["n"] = 5
    with pytest.raises(IoFormatError):
        pencil_from_doc(doc)


def test_parse_imaginary():
    assert parse_imaginary("0.5i") == 0.5j
    assert parse_imaginary("-2i") == -2j
    assert parse_imaginary("1.25e-3i") == 1.25e-3j
    for bad in ("0.5", "i", "1+2i", "abc"):
        with pytest.raises(IoFormatError):
            parse_imaginary(bad)


def test_imaginary_round_trip():
    lam = 0.1 + 0.0j
    lam = 1j * 0.30000000000000004
    assert parse_imaginary(format_imaginary(lam)) == lam


def test_csv_round_trip_binary_equal():
    rows = [
        {"lam": 0.5j, "eta_lower": 1.2345678901234567, "eta_upper": 2.000000000000001,
         "finite": True, "conditions": "u3_zero=True"},
        {"lam": 1.5j, "eta_lower": float("inf"), "eta_upper": float("inf"),
         "finite": False, "conditions": "", "error": "lambda rejected, details"},
    ]
    text = sweep_rows_to_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "lambda,eta_lower,eta_upper,finite,conditions"
    cells = lines[1].split(",")
    assert parse_imaginary(cells[0]) == 0.5j
    assert float(cells[1]) == rows[0]["eta_lower"]  # binary-equal reparse
    assert float(cells[2]) == rows[0]["eta_upper"]
    assert cells[3] == "true"
    cells2 = lines[2].split(",")
    assert float(cells2[1]) == float("inf")
    assert ";" in cells2[4] and len(cells2) == 5  # commas sanitized away


# ---------------------------------------------------------------------------
# the output writer


def _pinned(doc):
    return (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")


@pytest.mark.parametrize("doc", [
    pencil_to_doc(gen_pencil(3, 2, seed=6)),
    vector_to_doc(crandn(np.random.default_rng(2), 4)),
], ids=["pencil", "vector"])
def test_save_json_bytes_are_the_pinned_format(tmp_path, doc):
    path = tmp_path / "doc.json"
    save_json(str(path), doc)
    assert path.read_bytes() == _pinned(doc)


@pytest.mark.parametrize("old_size", [0, 10, 100_000], ids=["empty", "shorter", "longer"])
def test_save_json_over_an_existing_file_leaves_exactly_the_new_bytes(tmp_path, old_size):
    doc = vector_to_doc(crandn(np.random.default_rng(3), 6))
    path = tmp_path / "doc.json"
    path.write_bytes(b"#" * old_size)
    save_json(str(path), doc)
    assert path.read_bytes() == _pinned(doc)
    assert load_json(str(path)) == doc


def test_save_json_writes_to_a_non_regular_file():
    save_json(os.devnull, {"a": list(range(5000))})


def test_an_encoder_error_leaves_no_old_tail(tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(b"#" * 200_000)
    doc = {"a": list(range(5000)), "z": object()}  # the encoder fails on the last key
    with pytest.raises(TypeError):
        save_json(str(path), doc)
    assert path.read_bytes() == b""  # the document is encoded in full before the first write


def test_a_new_file_gets_the_mode_of_open_w(tmp_path):
    old = os.umask(0o027)
    try:
        with open_output(str(tmp_path / "new.txt")) as fh:
            fh.write("x")
        with open(tmp_path / "ref.txt", "w") as fh:
            fh.write("x")
    finally:
        os.umask(old)
    mode = (tmp_path / "new.txt").stat().st_mode & 0o777
    assert mode == 0o666 & ~0o027 == (tmp_path / "ref.txt").stat().st_mode & 0o777


SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "dsmkit"


def _write_opens(tree):
    """Line numbers of the calls in ``tree`` that open a file for writing outside ``open_output``."""
    allowed = {id(node) for fn in ast.walk(tree)
               if isinstance(fn, ast.FunctionDef) and fn.name == "open_output" for node in ast.walk(fn)}
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in allowed:
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else ""
        if name != "open":
            continue
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id == "os":
            lines.append(node.lineno)  # os.open takes flags: every call is a raw writer
            continue
        mode = node.args[1] if len(node.args) > 1 else next(
            (kw.value for kw in node.keywords if kw.arg == "mode"), ast.Constant("r"))
        if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)) or set(mode.value) & set("wax+"):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("source, found", [
    ('open(p, "w")', 1), ('open(p, mode="a", encoding="utf-8")', 1), ("io.open(p, 'x')", 1),
    ("open(p, m)", 1), ("os.open(p, os.O_WRONLY)", 1), ("open(p, 'r+')", 1),
    ("open(p)", 0), ('open(p, "r", encoding="utf-8")', 0), ("open(p, 'rb')", 0),
    ("def open_output(p):\n    fd = os.open(p, 1)\n    return open(fd, 'w')", 0),
])
def test_write_open_scanner(source, found):
    assert len(_write_opens(ast.parse(source))) == found


def test_every_output_file_goes_through_open_output():
    files = sorted(SRC.glob("*.py"))
    assert files
    offenders = [f"{f.name}:{line}" for f in files for line in _write_opens(ast.parse(f.read_text()))]
    assert offenders == []


def _verify(capsys, path):
    code = cli_main(["verify", "--result", str(path)])
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("command", ["backerr", "map"])
def test_verify_reads_a_document_in_the_old_indented_layout_alike(capsys, tmp_path, command):
    # documents were once written with indent=2: only whitespace differs, so verify must agree on both
    if command == "backerr":
        path = str(tmp_path / "P.json")
        save_json(path, pencil_to_doc(gen_pencil(4, 1, seed=3)))
        argv = ["backerr", "--pencil", path, "--lambda", "0.5i", "--blocks", "JREB", "--seed", "1"]
        claimed = ("bounds", "eta_upper")
    else:
        path = str(tmp_path / "x.json")  # y = x: the identity is a Hermitian solution
        save_json(path, vector_to_doc(crandn(np.random.default_rng(5), 3)))
        argv = ["map", "solve", "--family", "hermitian", "--x", path, "--y", path]
        claimed = ("norms", "upper")
    assert cli_main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    tampered = json.loads(json.dumps(doc))
    tampered[claimed[0]][claimed[1]] *= 1.5
    for claim, want in ((doc, 0), (tampered, 1)):
        compact, indented = tmp_path / "compact.json", tmp_path / "indented.json"
        save_json(str(compact), claim)
        indented.write_text(json.dumps(claim, indent=2, sort_keys=True) + "\n")
        assert compact.read_text().count("\n") == 1 < indented.read_text().count("\n")
        code, report = _verify(capsys, compact)
        assert code == want and report["ok"] is (want == 0)
        assert _verify(capsys, indented) == (code, report)
