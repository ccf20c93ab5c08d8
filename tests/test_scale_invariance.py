"""Every verdict is measured against its own data's scale.

The existence conditions of Delta x = y and Delta* z = w are homogeneous: they
hold for s (x, y, z, w) exactly when they hold for (x, y, z, w), and for
(x, s y, z, s w) with the free parameters scaled by s.  So every solver and
evaluator must give the same verdict (feasible, exact, boundary, or the error
it raises) at every scale, and the backward errors must not move under
u -> c u and must scale with the pencil.  ``ToleranceConfig`` states the rule
that makes this hold; the source scan at the end keeps unit floors,
underflow guards and literal thresholds out of the package.

The scales stop at 1e+-75: beyond about 1e+-100 the Frobenius norms of
products such as X* W overflow or underflow.  ``dsdm_type1`` forms its
products from the data pairs (X, Y) and (Z, W) scaled to norm 1, so its
verdicts hold to 1e+-140.
"""

import ast
import pathlib

import numpy as np
import pytest

from dsmkit import (
    DsmProblem,
    EigenPair,
    PHPencil,
    ScalarProduct,
    ToleranceConfig,
    Type1Problem,
    dsdm_type1,
    dsdm_type1_vec,
    dsdm_type2,
    dsm_characterize,
    dsm_characterize_type2,
    dsm_solve,
    eta_s,
    eta_sd,
    gen_eigpair,
    gen_pencil,
    jordan_lie_reduce,
    map_characterize,
    map_min,
    map_two_sided,
    pinv,
)
from dsmkit.cli import main
from dsmkit.errors import ConstraintViolationError, DsmkitError
from dsmkit.maps import StructureFamily as F
from dsmkit.pencil import ETA_S_COMBOS, ETA_SD_COMBOS, blocks_to_string
from helpers import (
    crandn,
    dsm_instance,
    dsm_instance_psd_spectrum,
    fix_compat,
    map_instance,
    two_sided_instance,
    type1_instance,
    type1_vec_instance,
    type2_instance,
)

SCALES = (1e-75, 1e-12, 1e-6, 1e6, 1e12, 1e75)
DSM_FAMILIES = (F.HERMITIAN, F.SKEW_HERMITIAN, F.SYMMETRIC, F.SKEW_SYMMETRIC, F.PSD, F.NSD)


def verdict(call):
    """What a call decided: the error type it raised, or its feasible/exact/boundary flags."""
    try:
        out = call()
    except DsmkitError as exc:
        return type(exc).__name__
    if isinstance(out, np.ndarray):
        return "evaluated"
    return tuple(getattr(out, flag, None) for flag in ("feasible", "exact", "boundary"))


def scaled_problem(p, sall, sy):
    """The DsmProblem sall * (x, sy y, z, sy w)."""
    return DsmProblem(sall * p.x1, sall * p.x2, sall * sy * p.y, sall * p.z, sall * sy * p.w1, sall * sy * p.w2)


# ---------------------------------------------------------------------------
# the cases: name -> f(sall, sy) running one call on sall * (x, sy y, z, sy w), free parameters times sy


def _map_cases(rng):
    cases = {}
    for family in F:
        data = {"feasible": map_instance(family, rng, 4), "generic": (crandn(rng, 4), crandn(rng, 4))}
        if family in (F.DISSIPATIVE, F.ANTI_DISSIPATIVE):
            x, y = crandn(rng, 4), crandn(rng, 4)
            data["boundary"] = (x, y - (np.vdot(x, y).real / np.vdot(x, x).real) * x)
        for tag, (x, y) in data.items():
            cases[f"map_min/{family.value}/{tag}"] = (
                lambda a, b, f=family, x=x, y=y: map_min(f, a * x, a * b * y))
    x, y, z, w = two_sided_instance(rng, 4, 3)
    for tag, ww in (("consistent", w), ("inconsistent", w + crandn(rng, 3))):
        cases[f"map_two_sided/{tag}"] = (
            lambda a, b, ww=ww: map_two_sided(a * x, a * b * y, a * z, a * b * ww))
    return cases


def _structured(rng, family, n):
    h = crandn(rng, n, n)
    return {
        F.HERMITIAN: h + h.conj().T, F.SKEW_HERMITIAN: h - h.conj().T,
        F.SYMMETRIC: h + h.T, F.SKEW_SYMMETRIC: h - h.T,
    }.get(family, h @ h.conj().T)


def _map_characterize_cases(rng):
    cases = {}
    for family in F:
        x, y = map_instance(family, rng, 4)
        if family is F.UNSTRUCTURED:
            params = {"Z": crandn(rng, 4, 4)}
        elif family in (F.DISSIPATIVE, F.ANTI_DISSIPATIVE):
            sign = -1.0 if family is F.ANTI_DISSIPATIVE else 1.0
            zz, gg, low = crandn(rng, 4, 4), crandn(rng, 4, 4), crandn(rng, 4, 4)
            q = 2.0 * sign * y + zz.conj().T @ x
            kk = np.outer(q, q.conj()) / (4.0 * abs(np.vdot(x, y).real)) + low @ low.conj().T
            params = {"Z": zz, "K": kk, "G": gg - gg.conj().T}
        else:
            params = {"K" if family in (F.PSD, F.NSD) else "H": _structured(rng, family, 4)}
        bad = {name: crandn(rng, 4, 4) for name in params}  # breaks every structure but Z's
        for tag, pp in (("admissible", params), ("generic", bad)):
            cases[f"map_characterize/{family.value}/{tag}"] = (
                lambda a, b, f=family, x=x, y=y, pp=pp: map_characterize(
                    f, a * x, a * b * y, {k: b * v for k, v in pp.items()}))
    return cases


def _dsm_cases(rng):
    cases = {}
    for family in DSM_FAMILIES:
        ps = {"generic": dsm_instance(family, rng, 4, 2), "exact": dsm_instance(family, rng, 4, 2, exact=True)}
        p = ps["generic"]
        ps["incompatible"] = DsmProblem(p.x1, p.x2, p.y + crandn(rng, 4), p.z, p.w1, p.w2)
        w1 = crandn(rng, 4)
        ps["structural"] = DsmProblem(p.x1, p.x2, fix_compat(p.x, np.concatenate([w1, p.w2]), p.z, p.y),
                                      p.z, w1, p.w2)
        if family in (F.PSD, F.NSD):
            q = dsm_instance_psd_spectrum(rng, 4, 2)
            sign = 1.0 if family is F.PSD else -1.0
            ps["spectrum"] = DsmProblem(q.x1, q.x2, sign * q.y, q.z, sign * q.w1, sign * q.w2)
        kk, rr = _structured(rng, family if family is not F.NSD else F.PSD, 4), crandn(rng, 4, 2)
        if family is F.NSD:
            kk = -kk
        for tag, q in ps.items():
            cases[f"dsm_solve/{family.value}/{tag}"] = (
                lambda a, b, f=family, q=q: dsm_solve(f, scaled_problem(q, a, b)))
            cases[f"dsm_characterize/{family.value}/{tag}"] = (
                lambda a, b, f=family, q=q, kk=kk, rr=rr: dsm_characterize(f, scaled_problem(q, a, b), b * kk, b * rr))
        cases[f"dsm_characterize/{family.value}/generic-K"] = (
            lambda a, b, f=family, q=ps["generic"], kk=crandn(rng, 4, 4), rr=rr: dsm_characterize(
                f, scaled_problem(q, a, b), b * kk, b * rr))
    return cases


def _dissipative_cases(rng):
    cases = {}
    for n, m, definite in ((4, 2, True), (4, 2, False), (3, 3, True)):
        q, _ = type1_instance(rng, n, m, definite=definite)
        data = {"data": (q.Y, q.W), "reflected": (-q.Y, -q.W), "negated-Y": (-q.Y, q.W)}
        for tag, (y, w) in data.items():
            for anti in (False, True):
                cases[f"dsdm_type1/n{n}m{m}/{definite}/{tag}/anti{int(anti)}"] = (
                    lambda a, b, q=q, y=y, w=w, anti=anti: dsdm_type1(
                        Type1Problem(a * q.X, a * b * y, a * q.Z, a * b * w), anti=anti))
    x, y, z, w = type1_vec_instance(rng, 4)
    vec = {"data": (y, z, w), "reflected": (-y, z, -w), "incompatible": (y, z, w + x),
           "not-colinear": (y, crandn(rng, 4), w)}
    for tag, (yy, zz, ww) in vec.items():
        cases[f"dsdm_type1_vec/{tag}"] = (
            lambda a, b, yy=yy, zz=zz, ww=ww: dsdm_type1_vec(a * x, a * b * yy, a * zz, a * b * ww))
    ps = {"generic": type2_instance(rng, 4, 2), "exact": type2_instance(rng, 4, 2, exact=True),
          "paper-exact": type2_instance(rng, 4, 2, paper_exact_only=True)}
    p = ps["generic"]
    for tag, w1 in (("negative", p.w1 - (2.0 * np.vdot(p.z, p.w1).real / np.vdot(p.z, p.z).real) * p.z),
                    ("boundary", p.w1 - (np.vdot(p.z, p.w1).real / np.vdot(p.z, p.z).real) * p.z)):
        ps[tag] = DsmProblem(p.x1, p.x2, fix_compat(p.x, np.concatenate([w1, p.w2]), p.z, p.y), p.z, w1, p.w2)
    for tag, q in ps.items():
        for anti in (False, True):
            cases[f"dsdm_type2/{tag}/anti{int(anti)}"] = (
                lambda a, b, q=q, anti=anti: dsdm_type2(scaled_problem(q, a, b), anti=anti))
    # dsm_characterize_type2: an admissible tuple, the proof's base point (q = 2 w1 + Z* z cancels), no Schur margin
    zz, gg, low = crandn(rng, 4, 4), crandn(rng, 4, 4), crandn(rng, 4, 4)
    qv = 2.0 * p.w1 + zz.conj().T @ p.z
    kk = np.outer(qv, qv.conj()) / (4.0 * np.vdot(p.z, p.w1).real) + low @ low.conj().T
    zero = np.zeros((4, 4))
    tuples = {
        "admissible": (zz, kk, gg - gg.conj().T, crandn(rng, 4, 2)),
        "base-point": (-2.0 * np.outer(p.w1, pinv(p.z)).conj().T, zero, zero, np.zeros((4, 2))),
        "no-margin": (zz, zero, zero, np.zeros((4, 2))),
    }
    for tag, (zz, kk, gg, rr) in tuples.items():
        # Z maps z to w1, so it scales with y and w; z itself scales with the data
        cases[f"dsm_characterize_type2/{tag}"] = (
            lambda a, b, zz=zz, kk=kk, gg=gg, rr=rr: dsm_characterize_type2(
                scaled_problem(p, a, b), b * zz, b * kk, b * gg, b * rr))
    return cases


def _jordan_lie_cases(rng):
    cases = {}
    sigma = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
    jmat = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]]).astype(complex)
    for mname, mm in (("sigma", sigma), ("J", jmat)):
        for form in ("sesquilinear", "bilinear"):
            for algebra in ("jordan", "lie"):
                sp = ScalarProduct(mm, form, algebra)
                r = dsm_instance(sp.target_family(), rng, 4, 2)
                for tag, q in (("feasible", DsmProblem(r.x1, r.x2, mm.conj().T @ r.y, mm.conj().T @ r.z, r.w1, r.w2)),
                               ("generic", dsm_instance(F.SYMMETRIC, rng, 4, 2))):
                    cases[f"jordan_lie_reduce/{mname}/{form}/{algebra}/{tag}"] = (
                        lambda a, b, sp=sp, q=q: jordan_lie_reduce(sp, scaled_problem(q, a, b)))
    return cases


def _all_cases():
    rng = np.random.default_rng(9101)
    cases = {}
    for build in (_map_cases, _map_characterize_cases, _dsm_cases, _dissipative_cases, _jordan_lie_cases):
        cases.update(build(rng))
    return cases


CASES = _all_cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_verdict_does_not_depend_on_the_scale_of_the_data(name):
    call = CASES[name]
    base = verdict(lambda: call(1.0, 1.0))
    for s in SCALES:
        assert verdict(lambda: call(s, 1.0)) == base, f"s * data, s = {s:g}"
        assert verdict(lambda: call(1.0, s)) == base, f"(x, s y, z, s w), s = {s:g}"


@pytest.mark.parametrize("name", sorted(name for name in CASES if name.startswith("dsdm_type1")))
def test_type1_verdict_holds_past_1e100(name):
    call = CASES[name]
    base = verdict(lambda: call(1.0, 1.0))
    for s in (1e-140, 1e-100, 1e100, 1e140):
        assert verdict(lambda: call(s, 1.0)) == base, f"s * data, s = {s:g}"
        assert verdict(lambda: call(1.0, s)) == base, f"(x, s y, z, s w), s = {s:g}"


def test_the_cases_cover_every_verdict():
    verdicts = {verdict(lambda: call(1.0, 1.0)) for call in CASES.values()}
    flags = {v for v in verdicts if isinstance(v, tuple)}
    assert {v[0] for v in flags} == {True, False}
    assert {v[1] for v in flags} >= {True, False}
    assert (True, None, True) in flags  # the dissipative boundary of map_min
    assert {"evaluated", "ConstraintViolationError", "DegenerateInputError", "NotColinearError"} <= verdicts


# ---------------------------------------------------------------------------
# backward errors


def _eta_cases():
    full = gen_pencil(5, 2, 9102)
    low = gen_pencil(5, 2, 9103, r_rank=2, b_rank=1)
    rng = np.random.default_rng(9104)
    cases = []
    for variant, combos in (("sd", ETA_SD_COMBOS | ETA_S_COMBOS), ("s", ETA_S_COMBOS)):
        for blocks in sorted(blocks_to_string(b) for b in combos):
            kernel = blocks in ("JR", "RE", "JRE", "JB", "EB", "JEB")
            pen = low if kernel else full
            drawn = gen_eigpair(pen, 31, blocks, lam=0.8j)
            rand = EigenPair(-1.3j, crandn(rng, 5), crandn(rng, 5), np.zeros(2, complex))
            cases += [(variant, blocks, pen, drawn, "drawn"), (variant, blocks, pen, rand, "random")]
    return cases


def _eta(variant, pen, ep, blocks):
    try:
        return (eta_sd if variant == "sd" else eta_s)(pen, ep, blocks)
    except DsmkitError as exc:
        return type(exc).__name__


def _same_bounds(a, b, factor=1.0):
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if (a.finite, a.exact) != (b.finite, b.exact):
        return False
    return all(np.isclose(x, factor * y, rtol=1e-8, atol=0.0) or x == factor * y
               for x, y in ((a.eta_lower, b.eta_lower), (a.eta_upper, b.eta_upper)))


@pytest.mark.parametrize("variant, blocks, pen, ep, tag", _eta_cases(),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_eta_is_unchanged_by_u_scaling_and_scales_with_the_pencil(variant, blocks, pen, ep, tag):
    base = _eta(variant, pen, ep, blocks)
    for s in SCALES:
        c = s * np.exp(0.3j)
        assert _same_bounds(_eta(variant, pen, ep.scaled(c), blocks), base), f"u -> c u, |c| = {s:g}"
        spen = PHPencil(s * pen.J, s * pen.R, s * pen.E, s * pen.B, s * pen.S)
        assert _same_bounds(_eta(variant, spen, ep, blocks), base, factor=s), f"pencil -> s pencil, s = {s:g}"


KERNEL_SELECTIONS = ("JR", "RE", "JRE", "JB", "EB", "JEB")


def _draw(pen, blocks):
    try:
        return gen_eigpair(pen, 12, blocks)
    except DsmkitError as exc:
        return str(exc)


@pytest.mark.parametrize("blocks", KERNEL_SELECTIONS)
@pytest.mark.parametrize("pen", [gen_pencil(16, 4, 9105, r_rank=7), gen_pencil(16, 4, 9106, r_rank=7, b_rank=1),
                                 gen_pencil(8, 10, 9107)], ids=["kernels", "b-rank-1", "trivial"])
def test_kernel_draw_does_not_depend_on_the_pencil_scale_past_1e100(blocks, pen):
    # the kernel's rank rules read the scale of B and of R; a trivial kernel raises the same error at every scale
    ref = _draw(pen, blocks)
    for s in (1e-100, 1e100):
        got = _draw(PHPencil(s * pen.J, s * pen.R, s * pen.E, s * pen.B, s * pen.S), blocks)
        if isinstance(ref, str):
            assert got == ref
            continue
        assert got.lam == ref.lam
        assert np.linalg.norm(got.u1 - ref.u1) <= 1e-12 * np.linalg.norm(ref.u1)
        assert np.linalg.norm(got.u2 - ref.u2) <= 1e-12 * np.linalg.norm(ref.u2)


# ---------------------------------------------------------------------------
# verdicts that depended on the scale before every site took its data's scale


def test_type1_with_negated_y_is_infeasible_at_small_scale():
    q, _ = type1_instance(np.random.default_rng(9105), 3, 1)
    s = 1e-6
    sol = dsdm_type1(Type1Problem(s * q.X, -s * q.Y, s * q.Z, s * q.W))
    assert not sol.feasible
    assert not sol.conditions["XY_plus_YX_psd"] and not sol.conditions["XW_eq_YZ"]


def test_skew_hermitian_type1_member_is_feasible_at_large_scale():
    q, _ = type1_instance(np.random.default_rng(9106), 4, 2, definite=False)
    s = 1e6
    sol = dsdm_type1(Type1Problem(s * q.X, s * q.Y, s * q.Z, s * q.W))
    assert sol.feasible and sol.conditions["XY_plus_YX_psd"]


def test_tiny_non_hermitian_h_is_rejected():
    x, y = map_instance(F.HERMITIAN, np.random.default_rng(9107), 4)
    h = 1e-12 * np.triu(np.ones((4, 4)))
    with pytest.raises(ConstraintViolationError) as err:
        map_characterize("hermitian", x, y, {"H": h})
    assert err.value.constraint == "H_hermitian"


def test_tiny_indefinite_k_is_rejected():
    p = dsm_instance(F.PSD, np.random.default_rng(9108), 4, 2)
    with pytest.raises(ConstraintViolationError) as err:
        dsm_characterize("psd", p, 1e-12 * np.diag([1.0, -1.0, 1.0, 1.0]), np.zeros((4, 2)))
    assert err.value.constraint == "K_psd"


def test_colinearity_reads_residual_tol():
    x, y, z, w = type1_vec_instance(np.random.default_rng(9109), 4)
    z = z + 1e-6 * np.linalg.norm(z) * crandn(np.random.default_rng(9110), 4)  # colinear to 1e-6 relative
    assert dsdm_type1_vec(x, y, z, w, ToleranceConfig(residual_tol=1e-4)).conditions["colinear"]
    assert verdict(lambda: dsdm_type1_vec(x, y, z, w)) == "NotColinearError"
    with pytest.raises(TypeError):
        ToleranceConfig(colinearity_tol=1e-10)
    with pytest.raises(SystemExit) as exc:
        main(["--tol-colinearity", "1e-10", "verify", "--result", "r.json"])
    assert exc.value.code == 1


# ---------------------------------------------------------------------------
# source scan: no unit floors, no underflow guards, no literal thresholds

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "dsmkit"


def _tolerance_literals(tree, module: str):
    """Lines of ``tree`` that hold a ``max(1.0, ...)`` outside ``pencil._bounds``, a 1e-300, or a
    float literal below 1e-6 outside ``config.py`` and the module-level named constants."""
    def inside(pred):
        return {id(node) for top in ast.walk(tree) if pred(top) for node in ast.walk(top)}

    bounds = inside(lambda n: module == "pencil.py" and isinstance(n, ast.FunctionDef) and n.name == "_bounds")
    constants = {id(node) for top in tree.body if isinstance(top, (ast.Assign, ast.AnnAssign))
                 for node in ast.walk(top)}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "max":
            if id(node) not in bounds and any(
                    isinstance(a, ast.Constant) and type(a.value) in (int, float) and a.value == 1 for a in node.args):
                lines.append(node.lineno)
        elif isinstance(node, ast.Constant) and type(node.value) is float and 0.0 < node.value < 1e-6:
            if node.value == 1e-300 or (module != "config.py" and id(node) not in constants):
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("source, module, found", [
    ("t = tol * max(1.0, fro(a))", "dsm.py", 1), ("t = max(fro(a), 1)", "maps.py", 1),
    ("def _bounds(h):\n    return h / max(1.0, h)", "pencil.py", 0),
    ("def _bounds(h):\n    return h / max(1.0, h)", "dsm.py", 1),
    ("s = max(s, 1e-300)", "dsm.py", 1), ("TINY = 1e-300", "oracle.py", 1), ("TINY = 1e-300", "config.py", 1),
    ("def f(r, s):\n    return r <= 1e-10 * s", "pencil.py", 1), ("def f(r, s):\n    return r <= 1e-6 * s", "dsm.py", 0),
    ("_STEP = 1e-12", "oracle.py", 0), ("tol: float = 1e-12", "config.py", 0), ("ok = r <= 0.0", "pencil.py", 0),
    ("x = max(a, b)", "dsm.py", 0),
])
def test_tolerance_literal_scanner(source, module, found):
    assert len(_tolerance_literals(ast.parse(source), module)) == found


def test_every_threshold_reads_tolerance_config():
    files = sorted(SRC.glob("*.py"))
    assert files
    offenders = [f"{f.name}:{line}" for f in files for line in _tolerance_literals(ast.parse(f.read_text()), f.name)]
    assert offenders == []
