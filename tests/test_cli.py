import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from dsmkit import gen_pencil
from dsmkit.maps import StructureFamily as F
from dsmkit.cli import main
from dsmkit.io import load_json, pencil_from_doc, pencil_to_doc, save_json, vector_to_doc
from helpers import crandn, dsm_instance, two_sided_instance, type1_instance, type2_instance


def write_vec(path, v):
    save_json(str(path), vector_to_doc(np.asarray(v, dtype=complex)))
    return str(path)


@pytest.fixture
def herm_files(tmp_path):
    return {
        "x": write_vec(tmp_path / "x.json", [1, 1]),
        "y": write_vec(tmp_path / "y.json", [2]),
        "z": write_vec(tmp_path / "z.json", [1]),
        "w": write_vec(tmp_path / "w.json", [1, 1]),
    }


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_map_solve_dsm_end_to_end(capsys, tmp_path, herm_files):
    code, out, _ = run(
        capsys, "map", "solve", "--family", "hermitian",
        "--x", herm_files["x"], "--y", herm_files["y"],
        "--z", herm_files["z"], "--w", herm_files["w"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "dsm" and doc["feasible"] and doc["norms"]["exact"]
    assert doc["norms"]["upper"] == pytest.approx(np.sqrt(2), abs=1e-9)
    assert doc["residuals"]["ok"]
    result = tmp_path / "result.json"
    result.write_text(out)
    code, out, _ = run(capsys, "verify", "--result", str(result))
    assert code == 0 and json.loads(out)["ok"]


def test_verify_catches_tampering(capsys, tmp_path, herm_files):
    code, out, _ = run(
        capsys, "map", "solve", "--family", "hermitian",
        "--x", herm_files["x"], "--y", herm_files["y"],
        "--z", herm_files["z"], "--w", herm_files["w"],
    )
    doc = json.loads(out)
    doc["solution"]["H1"]["re"][0][0] += 0.25
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "--result", str(bad))
    assert code == 1


def test_map_solve_infeasible_exit_2(capsys, tmp_path):
    x = write_vec(tmp_path / "x.json", [1, 0])
    y = write_vec(tmp_path / "y.json", [-1, 0])
    code, out, _ = run(capsys, "map", "solve", "--family", "psd", "--x", x, "--y", y)
    assert code == 2
    assert not json.loads(out)["feasible"]


def test_map_solve_missing_file_exit_1(capsys, tmp_path, herm_files):
    code, _, err = run(
        capsys, "map", "solve", "--family", "psd",
        "--x", herm_files["x"], "--y", herm_files["y"],
        "--z", herm_files["z"], "--w", str(tmp_path / "nope.json"),
    )
    assert code == 1


def test_map_solve_malformed_json_exit_1(capsys, tmp_path, herm_files):
    bad = tmp_path / "bad.json"
    bad.write_text('{"rows": 1}')
    code, _, err = run(
        capsys, "map", "solve", "--family", "hermitian",
        "--x", str(bad), "--y", herm_files["y"],
    )
    assert code == 1 and "cols" in err


def test_map_solve_one_sided_and_unstructured(capsys, tmp_path):
    x = write_vec(tmp_path / "x.json", [1, 0])
    y = write_vec(tmp_path / "y.json", [0, 2])
    code, out, _ = run(capsys, "map", "solve", "--family", "unstructured", "--x", x, "--y", y)
    assert code == 0
    assert json.loads(out)["norms"]["upper"] == pytest.approx(2.0)


def test_map_solve_dissipative_type_routes(capsys, tmp_path):
    # m = 0: square dissipative route
    rng = np.random.default_rng(0)
    x = crandn(rng, 3)
    yv = crandn(rng, 3)
    if np.vdot(x, yv).real < 0.3:
        yv = yv + (0.5 - np.vdot(x, yv).real) / np.vdot(x, x).real * x
    alpha = crandn(rng)
    z = alpha * x
    w = crandn(rng, 3)
    w = w + ((np.vdot(yv, z) - np.vdot(x, w)) / np.vdot(x, x)) * x
    files = [write_vec(tmp_path / f"{k}.json", v) for k, v in
             zip("xyzw", [x, yv, z, w])]
    code, out, _ = run(
        capsys, "map", "solve", "--family", "dissipative",
        "--x", files[0], "--y", files[1], "--z", files[2], "--w", files[3],
    )
    assert code == 0 and json.loads(out)["kind"] == "dsdm-type1"


def _solve_and_verify(capsys, tmp_path, family, x, y, z, w):
    files = [write_vec(tmp_path / f"{k}.json", v) for k, v in zip("xyzw", [x, y, z, w])]
    code, out, _ = run(
        capsys, "map", "solve", "--family", family,
        "--x", files[0], "--y", files[1], "--z", files[2], "--w", files[3],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["norms"]["exact"]
    result = tmp_path / "result.json"
    result.write_text(out)
    code, out, err = run(capsys, "verify", "--result", str(result))
    return doc, code, out, err


def test_verify_accepts_exact_anti_dissipative_type1(capsys, tmp_path):
    # the dissipative route's data reflected (y, w) -> (-y, -w); m = 0
    rng = np.random.default_rng(0)
    x = crandn(rng, 3)
    yv = crandn(rng, 3)
    if np.vdot(x, yv).real < 0.3:
        yv = yv + (0.5 - np.vdot(x, yv).real) / np.vdot(x, x).real * x
    z = crandn(rng) * x
    w = crandn(rng, 3)
    w = w + ((np.vdot(yv, z) - np.vdot(x, w)) / np.vdot(x, x)) * x
    doc, code, out, err = _solve_and_verify(capsys, tmp_path, "anti-dissipative", x, -yv, z, -w)
    assert doc["kind"] == "dsdm-type1"
    assert code == 0, (out, err)
    report = json.loads(out)
    assert report["ok"]
    assert report["oracle_norm"] == pytest.approx(doc["norms"]["upper"], rel=1e-6)


def test_verify_accepts_exact_anti_dissipative_type2(capsys, tmp_path):
    # exact dissipative data (y, w1 colinear with z, z orthogonal to x1), reflected
    p = type2_instance(np.random.default_rng(4), 3, 2, exact=True)
    doc, code, out, err = _solve_and_verify(
        capsys, tmp_path, "anti-dissipative", p.x, -p.y, p.z, -p.w
    )
    assert doc["kind"] == "dsdm-type2"
    assert code == 0, (out, err)
    assert json.loads(out)["ok"]


def test_pencil_gen_validate_round_trip(capsys, tmp_path):
    out_path = tmp_path / "P.json"
    code, out, _ = run(capsys, "pencil", "gen", "--n", "3", "--m", "2",
                       "--seed", "11", "-o", str(out_path))
    assert code == 0
    code, out, _ = run(capsys, "pencil", "validate", str(out_path))
    assert code == 0 and "pass" in out
    # same seed twice: byte-identical files
    out2 = tmp_path / "P2.json"
    run(capsys, "pencil", "gen", "--n", "3", "--m", "2", "--seed", "11", "-o", str(out2))
    assert out_path.read_bytes() == out2.read_bytes()


def test_a_non_integer_dsmkit_seed_is_one_error_line_where_a_seed_is_needed(capsys, tmp_path, herm_files,
                                                                          monkeypatch):
    monkeypatch.setenv("DSMKIT_SEED", "abc")
    code, out, err = run(capsys, "pencil", "gen", "--n", "3", "--m", "2", "-o", str(tmp_path / "P.json"))
    assert code == 1 and out == "" and not (tmp_path / "P.json").exists()
    assert err.splitlines() == ["error: DSMKIT_SEED must be an integer, got 'abc'"]
    ppath = tmp_path / "Q.json"
    save_json(str(ppath), pencil_to_doc(gen_pencil(3, 2, seed=3)))
    code, _, err = run(capsys, "backerr", "--pencil", str(ppath), "--lambda", "0.5i", "--blocks", "JREB")
    assert code == 1 and err.splitlines() == ["error: DSMKIT_SEED must be an integer, got 'abc'"]
    # --seed wins over the environment, and a command without a seed never reads it
    code, _, _ = run(capsys, "pencil", "gen", "--n", "3", "--m", "2", "--seed", "4", "-o", str(ppath))
    assert code == 0
    code, out, _ = run(capsys, "map", "solve", "--family", "hermitian", "--x", herm_files["x"],
                       "--y", herm_files["y"], "--z", herm_files["z"], "--w", herm_files["w"])
    assert code == 0 and json.loads(out)["feasible"]


def test_dsmkit_seed_gives_the_output_of_the_same_seed_option(capsys, tmp_path, monkeypatch):
    by_option, by_env = tmp_path / "option.json", tmp_path / "env.json"
    backerr = ("backerr", "--pencil", str(by_option), "--lambda", "0.5i", "--blocks", "JREB")
    run(capsys, "pencil", "gen", "--n", "4", "--m", "2", "--seed", "5", "-o", str(by_option))
    _, want, _ = run(capsys, *backerr, "--seed", "5")
    monkeypatch.setenv("DSMKIT_SEED", "5")
    run(capsys, "pencil", "gen", "--n", "4", "--m", "2", "-o", str(by_env))
    assert by_env.read_bytes() == by_option.read_bytes()
    code, out, _ = run(capsys, *backerr)
    assert code == 0 and out == want and json.loads(out)["seed"] == 5


def test_pencil_validate_names_broken_block(capsys, tmp_path):
    p = gen_pencil(3, 2, seed=1)
    doc = pencil_to_doc(p)
    doc["R"]["re"][0][0] -= 100.0  # breaks PSD
    path = tmp_path / "bad.json"
    save_json(str(path), doc)
    code, out, _ = run(capsys, "pencil", "validate", str(path))
    assert code == 1 and "R_psd: FAIL" in out


def test_backerr_single_and_verify(capsys, tmp_path):
    ppath = tmp_path / "P.json"
    run(capsys, "pencil", "gen", "--n", "3", "--m", "2", "--seed", "3", "-o", str(ppath))
    code, out, _ = run(
        capsys, "backerr", "--pencil", str(ppath), "--lambda", "0.5i",
        "--blocks", "JREB", "--variant", "sd", "--seed", "7",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["bounds"]["finite"]
    assert doc["bounds"]["eta_lower"] <= doc["bounds"]["eta_upper"]
    rpath = tmp_path / "be.json"
    rpath.write_text(out)
    code, out, _ = run(capsys, "verify", "--result", str(rpath))
    assert code == 0 and json.loads(out)["ok"]


def test_backerr_rejects_real_lambda(capsys, tmp_path):
    ppath = tmp_path / "P.json"
    run(capsys, "pencil", "gen", "--n", "2", "--m", "1", "--seed", "3", "-o", str(ppath))
    code, _, err = run(capsys, "backerr", "--pencil", str(ppath),
                       "--lambda", "0.5", "--blocks", "JREB")
    assert code == 1 and "decimal" in err


def test_backerr_rejects_a_lambda_beyond_the_float_range(capsys, tmp_path):
    # 1e400i parses to inf i: it printed NaN entries under "finite": true, and a sweep row infi,nan,nan,true
    ppath, csv_path = tmp_path / "P.json", tmp_path / "sweep.csv"
    run(capsys, "pencil", "gen", "--n", "3", "--m", "2", "--seed", "3", "-o", str(ppath))
    single = ["backerr", "--pencil", str(ppath), "--lambda", "1e400i", "--blocks", "JREB"]
    sweep = ["backerr", "sweep", "--pencil", str(ppath), "--lambdas", "1e400i,0.5i", "--blocks", "JREB",
             "--csv", str(csv_path)]
    for argv in (single, sweep):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == "error: lambda must be finite, got '1e400i'\n"
    assert not csv_path.exists()


def test_backerr_prior_work_exit_1(capsys, tmp_path):
    ppath = tmp_path / "P.json"
    run(capsys, "pencil", "gen", "--n", "2", "--m", "1", "--seed", "3", "-o", str(ppath))
    code, _, err = run(capsys, "backerr", "--pencil", str(ppath),
                       "--lambda", "0.5i", "--blocks", "JR", "--variant", "s")
    assert code == 1 and "prior work" in err
    code, _, err = run(capsys, "backerr", "--pencil", str(ppath),
                       "--lambda", "0.5i", "--blocks", "JE", "--variant", "sd")
    assert code == 1 and "prior work" in err


def test_backerr_sweep_csv(capsys, tmp_path):
    ppath = tmp_path / "P.json"
    run(capsys, "pencil", "gen", "--n", "4", "--m", "2", "--seed", "3", "-o", str(ppath))
    csv_path = tmp_path / "sweep.csv"
    lams = "0.138i,0.51i,0.895i,1.048i,1.321i,1.908i,2.508i"
    code, out, _ = run(
        capsys, "backerr", "sweep", "--pencil", str(ppath), "--lambdas", lams,
        "--blocks", "JREB", "--seed", "7", "--csv", str(csv_path),
    )
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "lambda,eta_lower,eta_upper,finite,conditions"
    assert len(lines) == 8
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[3] == "true"
        assert float(cells[1]) <= float(cells[2]) + 1e-12


def test_pencil_gen_rewrites_a_longer_file(capsys, tmp_path):
    out_path = tmp_path / "P.json"
    for n, m in ((4, 2), (2, 1)):
        code, _, _ = run(capsys, "pencil", "gen", "--n", str(n), "--m", str(m), "--seed", "5",
                         "-o", str(out_path))
        assert code == 0
    p, want = pencil_from_doc(load_json(str(out_path))), gen_pencil(2, 1, 5)
    for blk in "JREBS":
        assert np.array_equal(getattr(p, blk), getattr(want, blk))


def test_backerr_sweep_rewrites_a_longer_csv(capsys, tmp_path):
    ppath = tmp_path / "P.json"
    run(capsys, "pencil", "gen", "--n", "3", "--m", "2", "--seed", "3", "-o", str(ppath))
    csv_path = tmp_path / "sweep.csv"
    for lams in ("0.2i,0.5i,0.9i,1.3i,1.7i", "0.4i,1.1i"):
        code, _, _ = run(capsys, "backerr", "sweep", "--pencil", str(ppath), "--lambdas", lams,
                         "--blocks", "JREB", "--seed", "7", "--csv", str(csv_path))
        assert code == 0
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 3 and lines[1].startswith("0.4i,") and lines[2].startswith("1.1i,")


@pytest.mark.parametrize("argv", [
    ["pencil", "gen", "--n", "2", "--m", "1", "-o", "{dir}"],
    ["pencil", "validate", "{dir}"],
], ids=["gen", "validate"])
def test_a_directory_path_is_one_error_line(capsys, tmp_path, argv):
    code, out, err = run(capsys, *[a.format(dir=tmp_path) for a in argv])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "directory" in err and err.count("\n") == 1


def test_usage_error_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["map", "solve", "--family", "bogus", "--x", "a", "--y", "b"])
    assert exc.value.code == 1


def test_tolerance_overrides(capsys, tmp_path, herm_files):
    code, out, _ = run(
        capsys, "--tol-residual", "1e-6", "map", "solve", "--family", "hermitian",
        "--x", herm_files["x"], "--y", herm_files["y"],
        "--z", herm_files["z"], "--w", herm_files["w"],
    )
    assert code == 0


def test_import_leaves_scipy_unloaded():
    # dsmkit needs numpy alone: neither the import nor a run of every cone oracle loads scipy
    code = """
import sys
import numpy as np
sys.path.insert(0, "tests")
import dsmkit, dsmkit.cli
from dsmkit import gen_eigpair, gen_pencil, oracle_eta, oracle_min_structured
from dsmkit.maps import StructureFamily as F
from helpers import dsm_instance, type2_instance
rng = np.random.default_rng(1)
oracle_min_structured(dsm_instance(F.PSD, rng, 3, 1, exact=True), F.PSD)
oracle_min_structured(type2_instance(rng, 3, 1), F.DISSIPATIVE)
pencil = gen_pencil(3, 1, 2)
assert oracle_eta(pencil, gen_eigpair(pencil, 3, "JREB"), "JREB", "sd").converged
print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))
"""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(root, "src"), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True,
                         cwd=root, env=env)
    assert out.stdout.strip() == "[]"


def test_bad_selection_or_field_is_one_error_line(capsys, tmp_path):
    ppath = tmp_path / "P.json"
    run(capsys, "pencil", "gen", "--n", "2", "--m", "1", "--seed", "3", "-o", str(ppath))
    code, _, err = run(capsys, "backerr", "--pencil", str(ppath), "--lambda", "0.5i", "--blocks", "JQ")
    assert code == 1 and err.startswith("error: invalid block selection 'JQ'") and err.count("\n") == 1
    code, out, _ = run(capsys, "backerr", "--pencil", str(ppath), "--lambda", "0.5i", "--blocks", "JREB", "--seed", "7")
    result = json.loads(out)
    x = write_vec(tmp_path / "x.json", [1, 0])
    y = write_vec(tmp_path / "y.json", [0, 2])
    code, out, _ = run(capsys, "map", "solve", "--family", "hermitian", "--x", x, "--y", y)
    for doc, field, value in ((result, "blocks", "JQ"), (json.loads(out), "family", "bogus")):
        doc["problem"][field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run(capsys, "verify", "--result", str(bad))
        assert code == 1 and err.startswith("error: ") and repr(value) in err and err.count("\n") == 1


@pytest.mark.parametrize("kind,field,value", [
    ("map-min", "problem", [1, 2]), ("map-min", "problem", "x"), ("map-min", "solution", 5), ("map-min", "norms", 5),
    ("map-min", "norms", [1]), ("backerr", "problem", [1, 2]), ("backerr", "bounds", 5), ("backerr", "bounds", None),
])
def test_verify_a_field_that_is_not_an_object_is_one_error_line(capsys, tmp_path, kind, field, value):
    # a field of another type is one error line, as a missing field is, not a TypeError or AttributeError traceback
    if kind == "backerr":
        ppath = tmp_path / "P.json"
        run(capsys, "pencil", "gen", "--n", "2", "--m", "1", "--seed", "3", "-o", str(ppath))
        _, out, _ = run(capsys, "backerr", "--pencil", str(ppath), "--lambda", "0.5i", "--blocks", "JREB", "--seed", "7")
    else:
        x, y = write_vec(tmp_path / "x.json", [1, 1]), write_vec(tmp_path / "y.json", [2, 1])
        _, out, _ = run(capsys, "map", "solve", "--family", "hermitian", "--x", x, "--y", y)
    doc = json.loads(out)
    assert doc["kind"] == kind and field in doc
    doc[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--result", str(bad))
    assert code == 1 and out == ""
    assert err == f"error: result document field {field!r} is not an object\n"


def _verify_doc(capsys, tmp_path, doc):
    path = tmp_path / "claim.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "--result", str(path))
    return code, json.loads(out)


def test_verify_compares_map_two_sided_with_its_oracle(capsys, tmp_path):
    x, y, z, w = two_sided_instance(np.random.default_rng(21), 3, 2)
    doc, code, out, _ = _solve_and_verify(capsys, tmp_path, "unstructured", x, y, z, w)
    report = json.loads(out)
    assert doc["kind"] == "map-two-sided" and code == 0 and report["ok"]
    assert report["oracle_norm"] == pytest.approx(doc["norms"]["upper"], rel=1e-12)
    doc["norms"]["upper"] *= 1.01
    code, report = _verify_doc(capsys, tmp_path, doc)
    assert code == 1 and not report["ok"]


@pytest.mark.parametrize("factor", [0.99, 1.01])
@pytest.mark.parametrize("case", ["dsdm-type1", "dsm-psd"])
def test_verify_rejects_a_claimed_minimum_off_on_either_side(capsys, tmp_path, case, factor):
    # the residuals of the stored minimizer still pass; only the oracle can reject the number
    rng = np.random.default_rng(22)
    if case == "dsdm-type1":
        q, _ = type1_instance(rng, 3, 1)
        family, data = "dissipative", (q.X[:, 0], q.Y[:, 0], q.Z[:, 0], q.W[:, 0])
    else:
        p = dsm_instance(F.PSD, rng, 3, 2, exact=True)
        family, data = "psd", (p.x, p.y, p.z, p.w)
    doc, code, out, _ = _solve_and_verify(capsys, tmp_path, family, *data)
    assert doc["kind"] == case.removesuffix("-psd") and code == 0 and json.loads(out)["ok"]
    doc["norms"]["upper"] *= factor
    code, report = _verify_doc(capsys, tmp_path, doc)
    assert code == 1 and not report["ok"] and report["residuals"]["ok"]


def test_verify_checks_a_psd_result_at_n_64_against_the_oracle(capsys, tmp_path):
    # the certified oracle solves on the span of the data, so verify reaches n = 64
    p = dsm_instance(F.PSD, np.random.default_rng(23), 64, 2, exact=True)
    doc, code, out, _ = _solve_and_verify(capsys, tmp_path, "psd", p.x, p.y, p.z, p.w)
    report = json.loads(out)
    assert doc["kind"] == "dsm" and code == 0 and report["ok"]
    assert report["oracle_norm"] == pytest.approx(doc["norms"]["upper"], rel=1e-8)


def test_verify_accepts_an_infinite_backward_error(capsys, tmp_path):
    # a random u for RB and variant s: finite false and eta = inf, which verify must recompute as equal
    ppath, upath = tmp_path / "P.json", tmp_path / "u.json"
    run(capsys, "pencil", "gen", "--n", "3", "--m", "2", "--seed", "3", "-o", str(ppath))
    write_vec(upath, np.concatenate([crandn(np.random.default_rng(23), 6), np.zeros(2)]))
    code, out, _ = run(capsys, "backerr", "--pencil", str(ppath), "--lambda", "0.5i",
                       "--blocks", "RB", "--variant", "s", "--u", str(upath))
    doc = json.loads(out)
    assert code == 0 and not doc["bounds"]["finite"] and doc["bounds"]["eta_upper"] == float("inf")
    code, report = _verify_doc(capsys, tmp_path, doc)
    assert code == 0 and report["ok"]
    doc["bounds"]["finite"] = True
    code, report = _verify_doc(capsys, tmp_path, doc)
    assert code == 1 and not report["ok"]


def test_backerr_draws_a_kernel_r_eigenpair_at_n_64_and_verify_accepts_it(capsys, tmp_path):
    # JEB needs u1 in ker R: the draw goes through the range basis of R, then the CLI and verify
    from dsmkit import eta_s, gen_eigpair

    p = gen_pencil(64, 8, 31, r_rank=32)
    ppath = tmp_path / "P.json"
    save_json(str(ppath), pencil_to_doc(p))
    code, out, _ = run(capsys, "backerr", "--pencil", str(ppath), "--lambda", "0.7i",
                       "--blocks", "JEB", "--variant", "s", "--seed", "5")
    doc = json.loads(out)
    assert code == 0 and doc["bounds"]["finite"] and doc["bounds"]["exact"]
    want = eta_s(p, gen_eigpair(p, 5, "JEB", lam=0.7j), "JEB")
    assert doc["bounds"]["eta_upper"] == pytest.approx(want.eta_upper, rel=1e-12)
    code, report = _verify_doc(capsys, tmp_path, doc)
    assert code == 0 and report["ok"] is True


def test_backerr_rejects_bounds_that_overflow(capsys, tmp_path):
    # 1e160i is finite, but the bounds overflow: it printed NaN bounds under "finite": true
    ppath = tmp_path / "P.json"
    run(capsys, "pencil", "gen", "--n", "4", "--m", "2", "--seed", "3", "-o", str(ppath))
    # and numpy's overflow warnings came before the error line
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "backerr", "--pencil", str(ppath), "--lambda", "1e160i", "--blocks", "JREB")
    assert code == 1 and out == "" and caught == []
    assert err.splitlines() == ["error: backward-error bounds overflow the floating-point range (|lambda| = 1e+160)"]
