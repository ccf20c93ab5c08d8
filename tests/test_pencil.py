import dataclasses
import re

import numpy as np
import pytest

from dsmkit import (
    EigenPair,
    PHPencil,
    ToleranceConfig,
    eta_s,
    eta_sd,
    experiment_table,
    gen_eigpair,
    gen_pencil,
    mapping_data,
    parse_blocks,
    reconstruct_perturbation,
)
from dsmkit.errors import (
    DegenerateInputError,
    DsmkitError,
    GenerationError,
    HypothesisViolationError,
    ReconstructionError,
    StructureError,
)
from dsmkit.linalg import _complement_map
from dsmkit.pencil import ETA_S_COMBOS, ETA_SD_COMBOS, blocks_to_string
from helpers import crandn, watch_linalg

WORKED = PHPencil(J=[[1j]], R=[[1]], E=[[1]], B=[[1]], S=[[1]])
EP = EigenPair(1j, [1], [1], [0])


def pencil_for(blocks, seed=5, n=3, m=2):
    if blocks in ("JB", "EB", "JEB"):
        return gen_pencil(n, m, seed=seed, r_rank=n - 1)
    return gen_pencil(n, m, seed=seed)


def test_mapping_data_worked_example():
    x, y, z, w = mapping_data(WORKED, EP)
    assert np.allclose(x, [1, 0])
    assert np.allclose(y, [-1 + 2j])
    assert np.allclose(z, [1])
    assert np.allclose(w, [-1 - 2j, 1])


def test_mapping_data_zero_pencil():
    p = PHPencil(J=np.zeros((2, 2)), R=np.zeros((2, 2)), E=np.zeros((2, 2)),
                 B=np.zeros((2, 1)), S=np.eye(1))
    ep = EigenPair(0.5j, [1, 0], [0, 1], [0])
    x, y, z, w = mapping_data(p, ep)
    assert np.allclose(y, 0) and np.allclose(w[:2], 0)


def test_mapping_data_compatibility_identity():
    # u3 = 0 forces x*w = y*z by the pencil symmetries
    rng = np.random.default_rng(0)
    for seed in range(10):
        p = gen_pencil(4, 2, seed=seed)
        u1, u2 = crandn(rng, 4), crandn(rng, 4)
        ep = EigenPair(1j * rng.uniform(0.2, 2.0), u1, u2, np.zeros(2))
        x, y, z, w = mapping_data(p, ep)
        assert abs(np.vdot(x, w) - np.vdot(y, z)) <= 1e-10 * max(
            1.0, np.linalg.norm(x) * np.linalg.norm(w)
        )


def test_eta_sd_jreb_worked_example():
    res = eta_sd(WORKED, EP, "JREB")
    assert res.finite
    assert res.eta_lower == pytest.approx(np.sqrt(3.5), abs=1e-12)
    # H1 = -1 + 2i: dR = 1, and the skew part 2i is dJ + i dE at dJ = i, dE = 1
    assert res.eta_upper == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(res.H1, [[-1 + 2j]]) and np.allclose(res.H2, [[1]])


def test_eta_sd_jr_worked_example():
    p0 = PHPencil(J=[[1j]], R=[[1]], E=[[1]], B=[[0]], S=[[1]])
    res = eta_sd(p0, EP, "JR")
    assert res.finite and res.exact
    assert res.eta_lower == pytest.approx(np.sqrt(5), abs=1e-12)
    assert res.eta_upper == pytest.approx(np.sqrt(5), abs=1e-12)


def test_eta_s_jb_worked_example():
    # J=i, E=1 so that lam E contributes i: ty = 2i, w1 = -2i
    p = PHPencil(J=[[1j]], R=[[0]], E=[[1]], B=[[1]], S=[[1]])
    res = eta_s(p, EP, "JB")
    assert res.finite and res.exact
    assert np.allclose(res.H1, [[2j]]) and np.allclose(res.H2, [[1]])
    assert res.eta_lower == pytest.approx(np.sqrt(5), abs=1e-12)


def test_eta_infinite_cases():
    ep3 = EigenPair(1j, [1], [1], [0.5])
    res = eta_sd(WORKED, ep3, "JREB")
    assert not res.finite and res.eta_lower == np.inf and res.eta_upper == np.inf
    # EB needs R u1 = 0
    res = eta_s(WORKED, EP, "EB")
    assert not res.finite and not res.conditions_report["R_u1_zero"]
    # RB needs u1*(J + lam E) u1 = 0
    res = eta_sd(WORKED, EP, "RB")
    assert not res.finite and not res.conditions_report["u1_isotropic"]
    # JR needs B* u1 = 0
    res = eta_sd(WORKED, EP, "JR")
    assert not res.finite and not res.conditions_report["B_adj_u1_zero"]


def test_eta_rejects_zero_lambda_and_prior_work():
    with pytest.raises(DegenerateInputError):
        eta_sd(WORKED, EigenPair(0, [1], [1], [0]), "JREB")
    with pytest.raises(ValueError):
        eta_s(WORKED, EP, "JR")
    with pytest.raises(ValueError):
        eta_sd(WORKED, EP, "JE")
    with pytest.raises(ValueError):
        parse_blocks("JX")


@pytest.mark.parametrize("bad", [frozenset("JX"), frozenset("JEBX"), {"J", "R", "Q"}, ["JR"], frozenset()])
def test_a_selection_given_as_letters_is_validated_like_a_string(bad):
    # a set of letters names the same selection as the string of them, and a bad one raises the same error
    with pytest.raises(ValueError, match="invalid block selection"):
        parse_blocks(bad)
    assert parse_blocks(frozenset("JEB")) == parse_blocks(("B", "E", "J")) == parse_blocks("jeb") == frozenset("JEB")
    p = pencil_for("JEB")
    ep = gen_eigpair(p, 3, "JEB")
    sol = eta_s(p, ep, "JEB")
    with pytest.raises(ValueError, match="invalid block selection"):
        gen_eigpair(p, 3, bad)
    with pytest.raises(ValueError, match="invalid block selection"):
        reconstruct_perturbation(p, ep, bad, sol)
    assert reconstruct_perturbation(p, ep, frozenset("JEB"), sol).norm() == reconstruct_perturbation(p, ep, "JEB", sol).norm()


def test_delegation_identity():
    for blocks in ("JB", "EB", "JEB"):
        p = pencil_for(blocks)
        ep = gen_eigpair(p, 3, blocks)
        a = eta_sd(p, ep, blocks)
        b = eta_s(p, ep, blocks)
        assert a.eta_lower == b.eta_lower and a.eta_upper == b.eta_upper
        assert np.array_equal(a.H1, b.H1)
        assert a.variant == "sd" and b.variant == "s"


def test_eta_scaling_invariance():
    for blocks, variant in [("JREB", "sd"), ("JR", "sd"), ("RB", "sd"), ("JEB", "s")]:
        p = pencil_for(blocks, seed=9)
        ep = gen_eigpair(p, 21, blocks)
        compute = eta_sd if variant == "sd" else eta_s
        a = compute(p, ep, blocks)
        rng = np.random.default_rng(1)
        c = crandn(rng)
        b = compute(p, ep.scaled(c), blocks)
        assert b.eta_lower == pytest.approx(a.eta_lower, rel=1e-10)
        assert b.eta_upper == pytest.approx(a.eta_upper, rel=1e-10)


def test_gen_pencil_determinism_and_validity():
    a = gen_pencil(4, 2, seed=123)
    b = gen_pencil(4, 2, seed=123)
    for blk in ("J", "R", "E", "B", "S"):
        assert np.array_equal(getattr(a, blk), getattr(b, blk))
    assert not np.array_equal(a.J, gen_pencil(4, 2, seed=124).J)
    for seed in range(100):
        rep = gen_pencil(4, 2, seed=seed).validate()
        assert all(rep.values()), rep


def test_gen_pencil_rank_knobs():
    p = gen_pencil(4, 2, seed=1, r_rank=2)
    assert np.linalg.matrix_rank(p.R, tol=1e-10) == 2
    assert all(p.validate().values())


def test_pencil_validate_catches_bad_blocks():
    p = gen_pencil(3, 2, seed=0)
    bad = PHPencil(J=p.J, R=p.R - 10 * np.eye(3), E=p.E, B=p.B, S=p.S)
    rep = bad.validate()
    assert not rep["R_psd"] and rep["J_skew_hermitian"]


def test_eigenpair_validation():
    with pytest.raises(StructureError):
        EigenPair(1.0 + 0.5j, [1], [1], [0])
    ep = EigenPair(2j, [1], [1], [0])
    assert ep.lam == 2j
    with pytest.raises(DegenerateInputError):
        EigenPair(1j, [0], [0], [0])


def test_eigenpair_tests_lambda_under_the_callers_tolerance():
    # |Re lambda| / |lambda| = 1e-9: rejected at the default residual_tol 1e-10, accepted at 1e-8
    with pytest.raises(StructureError):
        EigenPair(1j + 1e-9, [1], [1], [0])
    ep = EigenPair(1j + 1e-9, [1], [1], [0], ToleranceConfig(residual_tol=1e-8))
    assert ep.lam == 1j
    assert "cfg" not in {f.name for f in dataclasses.fields(ep)}  # the corpus encoding is unchanged


NON_FINITE_LAMS = {"inf": complex(np.inf, 0.0), "inf-i": complex(0.0, np.inf), "-inf-i": complex(0.0, -np.inf),
                   "nan-i": complex(0.0, np.nan)}


@pytest.mark.parametrize("lam", NON_FINITE_LAMS.values(), ids=NON_FINITE_LAMS.keys())
def test_eigenpair_rejects_a_non_finite_lambda(lam):
    # inf + 0i passed |Re| <= residual_tol |lambda| (inf <= inf) and was projected to lambda = 0
    with pytest.raises(DsmkitError, match="lambda must be finite"):
        EigenPair(lam, [1], [1], [0])


@pytest.mark.parametrize("blocks", sorted(blocks_to_string(b) for b in ETA_SD_COMBOS | ETA_S_COMBOS))
def test_gen_eigpair_produces_finite(blocks):
    p = pencil_for(blocks, seed=2)
    variantset = ETA_S_COMBOS if parse_blocks(blocks) in ETA_S_COMBOS else ETA_SD_COMBOS
    for seed in range(10):
        ep = gen_eigpair(p, seed, blocks)
        assert np.linalg.norm(ep.u3) == 0
        res = eta_sd(p, ep, blocks) if parse_blocks(blocks) in ETA_SD_COMBOS else eta_s(p, ep, blocks)
        assert res.finite


def test_gen_eigpair_unsatisfiable():
    p = gen_pencil(2, 2, seed=0)  # R nonsingular: ker(R) empty
    with pytest.raises(GenerationError):
        gen_eigpair(p, 0, "EB")


def test_reconstruction_worked_example():
    res = eta_sd(WORKED, EP, "JREB")
    pb = reconstruct_perturbation(WORKED, EP, "JREB", res)
    assert np.allclose(pb.dR, [[1.0]])  # minus the Hermitian part of -1+2i
    assert np.allclose(pb.dJ, [[1j]]) and np.allclose(pb.dE, [[1.0]]) and np.allclose(pb.dB, [[1.0]])
    m_mat, n_mat = WORKED.assemble()
    dm, dn = pb.delta_mn(1, 1)
    resid = ((m_mat - dm) + 1j * (n_mat - dn)) @ EP.u
    assert np.linalg.norm(resid) <= 1e-12
    assert pb.norm() == pytest.approx(res.eta_upper, abs=1e-12)


def test_reconstruction_hits_upper_on_every_selection():
    for blocks, variant in [("JR", "sd"), ("JRB", "sd"), ("RB", "sd"), ("RE", "sd"), ("JRE", "sd"),
                            ("REB", "sd"), ("JREB", "sd"), ("JB", "s"), ("RB", "s"), ("EB", "s"), ("JEB", "s")]:
        for seed, ep_seed in ((11, 31), (13, 33)):
            p = pencil_for(blocks, seed=seed)
            ep = gen_eigpair(p, ep_seed, blocks)
            res = (eta_sd if variant == "sd" else eta_s)(p, ep, blocks)
            pb = reconstruct_perturbation(p, ep, blocks, res)
            assert res.eta_lower <= pb.norm() * (1 + 1e-12)
            assert pb.norm() == pytest.approx(res.eta_upper, rel=1e-10)
            for name in "JREB":
                if name not in blocks:
                    assert np.all(getattr(pb, "d" + name) == 0)


def test_experiment_table_shapes():
    p = gen_pencil(4, 2, seed=3)
    lams = [0.138j, 0.51j, 0.895j]
    rows = experiment_table(p, lams, 7, "JREB")
    assert len(rows) == 3
    assert all(r["finite"] for r in rows)
    assert all(r["eta_lower"] <= r["eta_upper"] + 1e-12 for r in rows)
    assert experiment_table(p, [], 7, "JREB") == []
    rows = experiment_table(p, [0.0], 7, "JREB")
    assert not rows[0]["finite"] and rows[0]["error"]


def test_experiment_table_rejects_an_unknown_variant():
    p = gen_pencil(6, 2, 3, r_rank=3)
    for variant in ("SD", "S", "", "psd"):
        with pytest.raises(ValueError, match="variant"):
            experiment_table(p, [0.5j], 7, "RB", variant=variant)
    rows = {v: experiment_table(p, [0.5j], 7, "RB", variant=v)[0] for v in ("s", "sd")}
    assert rows["s"]["eta_upper"] != rows["sd"]["eta_upper"]


def test_experiment_table_fixed_u_across_lambdas():
    p = gen_pencil(4, 2, seed=3)
    rows = experiment_table(p, [0.5j, 1.5j], 7, "JR")
    assert all(r["finite"] for r in rows)


# ---------------------------------------------------------------------------
# the factored core against a dense, projector-based reference

ALL_SELECTIONS = [(b, "sd") for b in ("JR", "RB", "RE", "JRE", "JRB", "REB", "JREB", "JB", "EB", "JEB")] + [
    (b, "s") for b in ("JB", "RB", "EB", "JEB")
]


def _dense_reference(p, ep, blocks, variant, tol=1e-10, rank_tol=1e-12):
    """eta by dense n x n projectors and pseudoinverses; every predicate takes the data's own scale.

    Returns (finite, lower, upper, H1, H2, report, exact).
    """
    blocks = parse_blocks(blocks)
    if variant == "sd" and blocks in (parse_blocks("JB"), parse_blocks("EB"), parse_blocks("JEB")):
        variant = "s"
    fro = np.linalg.norm
    lam, u1, u2, u3 = ep.lam, ep.u1, ep.u2, ep.u3
    n, m = p.n, p.m
    eye = np.eye(n)

    def vpinv(x):  # the row x+ = x* / ||x||^2
        nx = fro(x)
        return np.zeros(n, complex) if nx == 0 else x.conj() / nx**2

    def proj(x):
        return eye - np.outer(x, vpinv(x))

    rb = blocks == parse_blocks("RB")
    report = {"u3_zero": fro(u3) <= tol * fro(ep.u)}
    if rb:
        iso = np.vdot(u1, (p.J + lam * p.E) @ u1)
        report["u1_isotropic"] = abs(iso) <= tol * (fro(p.J) + abs(lam) * fro(p.E)) * fro(u1) ** 2
        if variant == "sd":
            report["R_u1_nonzero"] = fro(p.R @ u1) > tol * fro(p.R) * fro(u1)
    elif variant == "s":
        report["R_u1_zero"] = fro(p.R @ u1) <= tol * fro(p.R) * fro(u1)
    elif blocks in (parse_blocks("JR"), parse_blocks("RE"), parse_blocks("JRE")):
        report["B_adj_u1_zero"] = fro(p.B.conj().T @ u1) <= tol * fro(p.B) * fro(u1)
    if not all(report.values()):
        return False, np.inf, np.inf, None, None, report, False
    ty = (p.J - p.R + lam * p.E) @ u2
    w1 = -(p.J + p.R + lam * p.E) @ u1
    h2 = np.outer(u1, vpinv(u1)) @ p.B if "B" in blocks else np.zeros((n, m), complex)
    alpha = np.vdot(u1, u2) / np.vdot(u1, u1) if fro(u1) > 0 else 0
    colinear = bool(alpha != 0 and fro(u2 - alpha * u1) <= tol * fro(u2))
    X = np.column_stack([u2, u1])
    if variant == "s":
        Y = np.column_stack([ty, w1 if rb else -w1])
        xd = np.linalg.pinv(X, rcond=rank_tol)
        sign = 1 if rb else -1
        report["interp_YXdX"] = fro(Y @ xd @ X - Y) <= tol * fro(Y)
        xy = X.conj().T @ Y
        report["cross_gram"] = fro(xy - sign * xy.conj().T) <= tol * fro(xy)
        report["u2_colinear_u1"] = colinear
        h1 = Y @ xd + sign * (Y @ xd).conj().T - X @ xd @ Y @ xd
        exact = report["interp_YXdX"] and report["cross_gram"]
    elif rb:
        Y = np.column_stack([ty, w1])
        xd = np.linalg.pinv(X, rcond=rank_tol)
        report["interp_YXdX"] = fro(Y @ xd @ X - Y) <= tol * fro(Y)
        xy = X.conj().T @ Y
        herm = fro(xy - xy.conj().T) <= tol * fro(xy)
        if not (herm and np.linalg.eigvalsh(-(xy + xy.conj().T) / 2)[0] > tol * fro(xy)):
            raise HypothesisViolationError("X*Y is not Hermitian negative definite")
        report["XY_negative_definite"] = True
        h1 = Y @ np.linalg.inv(Y.conj().T @ X) @ Y.conj().T
        exact = report["interp_YXdX"]
    else:
        report["u2_colinear_u1"] = colinear
        report["R_u2_nonzero"] = fro(p.R @ u2) > tol * fro(p.R) * fro(u2)
        pu2 = proj(u2)
        h1 = np.outer(ty, vpinv(u2)) + np.outer(w1, vpinv(u1)).conj().T @ pu2
        rexy = np.vdot(u2, ty).real
        if report["R_u2_nonzero"] and colinear and rexy < 0:
            v = ty + alpha / abs(alpha) ** 2 * w1
            h1 = h1 + pu2 @ np.outer(v, v.conj()) @ pu2 / (4 * rexy)
        exact = blocks in (parse_blocks("JR"), parse_blocks("JRB")) and colinear and report["R_u2_nonzero"]
    # the upper bound is the norm of the perturbation, formed densely: dR = -herm(H1), and the skew
    # part (all of H1 without R) is dJ + lam dE at the least ||dJ||^2 + ||dE||^2
    al2 = abs(lam) ** 2
    hh = (h1 + h1.conj().T) / 2 if "R" in blocks else np.zeros_like(h1)
    hs = h1 - hh
    if "J" in blocks and "E" in blocks:
        dj, de = hs / (1 + al2), np.conj(lam) * hs / (1 + al2)
    elif "E" in blocks:
        dj, de = np.zeros_like(hs), hs / lam
    else:  # J alone, or RB, whose H1 is Hermitian: its rounding-level skew part is counted as it is
        dj, de = hs, np.zeros_like(hs)
    up = np.sqrt(sum(fro(blk) ** 2 for blk in (hh, dj, de, h2)))
    name = blocks_to_string(blocks)
    if variant == "s" or name in ("JR", "JRB", "RB"):
        lo = up
    elif name in ("RE", "REB"):
        lo = np.sqrt(fro(h1) ** 2 / max(1.0, al2) + fro(h2) ** 2)
    else:  # JRE, JREB
        lo = np.sqrt(fro(h1) ** 2 / (1 + al2) + fro(h2) ** 2)
    return True, lo, up, h1, h2, report, exact


def _equivalence_cases(blocks, n):
    """(pencil, eigenpair, c) for one selection at size n: eta is evaluated at c u.

    c is 1, 1e-100 and 1e100; then u2 = 0 and, for n > 1, a generic u2:
    nonzero and not colinear with u1, which no drawn pair but RB's has, and
    the only u whose eight products (``pencil._Products``) span min(n, 8)
    dimensions.  Every output is homogeneous of degree zero in u, so the
    reference is always evaluated at u itself, where its squared norms
    cannot overflow.
    """
    m = 2
    if blocks in ("JB", "EB", "JEB"):
        p = gen_pencil(n, m, seed=40 + n, r_rank=n - 1)
    elif blocks in ("JR", "RE", "JRE"):
        p = gen_pencil(n, m, seed=40 + n, b_rank=min(n, m) - 1)
    else:
        p = gen_pencil(n, m, seed=40 + n)
    if blocks == "RB" and n == 1:  # (J + lam E)/i is 1 x 1: no isotropic vector but u1 = 0
        ep = EigenPair(0.8j, [0], [1 + 1j], [0, 0])
    else:
        ep = gen_eigpair(p, 3, blocks)
    cases = [(p, ep, 1.0), (p, ep, 1e-100), (p, ep, 1e100)]
    if np.linalg.norm(ep.u1) > 0:
        cases.append((p, EigenPair(ep.lam, ep.u1, np.zeros(n), ep.u3), 1.0))
    if n > 1:
        generic = EigenPair(ep.lam, ep.u1, crandn(np.random.default_rng(n), n), ep.u3)
        cases += [(p, generic, 1.0), (p, generic, 1e-100)]
    return cases


def _assert_close(a, b, rel=1e-12):
    assert np.linalg.norm(a - b) <= rel * np.linalg.norm(b), (np.linalg.norm(a - b), np.linalg.norm(b))


@pytest.mark.parametrize("n", [1, 3, 64])
@pytest.mark.parametrize("blocks,variant", ALL_SELECTIONS)
def test_factored_eta_matches_dense_reference(blocks, variant, n):
    compute = eta_sd if variant == "sd" else eta_s
    finite_seen = 0
    for p, ep, c in _equivalence_cases(blocks, n):
        try:
            finite, lo, up, h1, h2, report, exact = _dense_reference(p, ep, blocks, variant)
        except HypothesisViolationError:  # e.g. RB with u2 = 0: X*Y is singular
            with pytest.raises(HypothesisViolationError):
                compute(p, ep.scaled(c), blocks)
            continue
        res = compute(p, ep.scaled(c), blocks)
        assert {k: bool(v) for k, v in res.conditions_report.items()} == {k: bool(v) for k, v in report.items()}
        assert res.finite == finite
        if not finite:
            assert res.eta_lower == res.eta_upper == np.inf and res.H1 is None
            continue
        finite_seen += 1
        assert res.exact == exact
        assert res.eta_lower == pytest.approx(lo, rel=1e-12, abs=0)
        assert res.eta_upper == pytest.approx(up, rel=1e-12, abs=0)
        _assert_close(res.H1, h1)
        if np.linalg.norm(h2) > 0:
            _assert_close(res.H2, h2)
        else:
            assert np.linalg.norm(res.H2) == 0
    # the generated pair and both of its rescalings; at n = 1 the RB pair has
    # u1 = 0, which the semidefinite variant rejects (R u1 = 0)
    assert finite_seen >= (0 if (blocks, variant, n) == ("RB", "sd", 1) else 3)


#: lambda from 1e-3 to 1e3 on both halves of the axis, with a zero and a non-imaginary row among them
TABLE_LAMS = [1e-3j, -0.5j, 2j, -1e3j, 0.0, 0.3 + 1j, -1e-3j, 0.5j, -2j, 1e3j]
INVALID_LAMBDA = "lambda must be nonzero purely imaginary"


def _table_cases():
    for n in (4, 64, 256):
        m = 2 if n == 4 else 16
        p = gen_pencil(n, m, seed=8 + n)
        p_kernel_r = gen_pencil(n, m, seed=8 + n, r_rank=n // 2)
        p_kernel_b = gen_pencil(n, m, seed=8 + n, b_rank=1)
        for blocks, variant in ALL_SELECTIONS:
            if blocks in ("JB", "EB", "JEB"):
                yield p_kernel_r, blocks, variant
            elif blocks in ("JR", "RE", "JRE"):
                yield p_kernel_b, blocks, variant
            else:
                yield p, blocks, variant


def _expected_row(p, blocks, variant, i, lam, first):
    """What ``eta_*`` gives for row i of a table, or the error the row must carry."""
    if lam == 0 or lam.real != 0:
        return INVALID_LAMBDA
    try:
        ep = gen_eigpair(p, 17 + i, blocks, lam=lam) if blocks == "RB" else EigenPair(lam, first.u1, first.u2, first.u3)
        return (eta_sd if variant == "sd" else eta_s)(p, ep, blocks)
    except (GenerationError, HypothesisViolationError) as exc:
        return str(exc)


@pytest.mark.parametrize("case", list(_table_cases()), ids=lambda c: f"n{c[0].n}-{c[1]}-{c[2]}")
def test_experiment_table_rows_equal_eta(case):
    # every row of one stack equals eta_* on its own eigenpair (a stack of one) under ==: a core that
    # formed a row's inner products as one 2-D (B, n) @ (n,) product would change their last bits
    p, blocks, variant = case
    rows = experiment_table(p, TABLE_LAMS, 17, blocks, variant=variant)
    first = None if blocks == "RB" else gen_eigpair(p, 17, blocks, lam=TABLE_LAMS[0])
    finite = 0
    for i, (lam, row) in enumerate(zip(TABLE_LAMS, rows)):
        want = _expected_row(p, blocks, variant, i, complex(lam), first)
        if isinstance(want, str):
            assert row["error"] == want and not row["finite"] and row["conditions"] == ""
            assert row["eta_lower"] == row["eta_upper"] == np.inf
            continue
        assert row["error"] == ""
        assert row["finite"] == want.finite
        assert row["eta_lower"] == want.eta_lower and row["eta_upper"] == want.eta_upper
        assert row["conditions"] == ";".join(f"{k}={v}" for k, v in want.conditions_report.items())
        finite += want.finite
    assert rows[4]["error"] == rows[5]["error"] == INVALID_LAMBDA
    assert finite >= (4 if blocks == "RB" and p.n < 256 else 8)


@pytest.mark.parametrize("blocks", ["JREB", "RB", "JR"])
def test_table_records_a_non_finite_lambda_as_a_row_error(blocks):
    p = gen_pencil(4, 2, seed=12, b_rank=1)  # ker B* is nontrivial for JR
    rows = experiment_table(p, [NON_FINITE_LAMS["inf-i"], 0.5j, NON_FINITE_LAMS["inf"], NON_FINITE_LAMS["nan-i"]],
                            7, blocks)
    for i in (0, 2, 3):
        assert rows[i]["error"] == "lambda must be finite" and not rows[i]["finite"]
        assert rows[i]["eta_lower"] == rows[i]["eta_upper"] == np.inf and rows[i]["conditions"] == ""
    # the finite row is the one a table of it alone gives: RB draws row i with seed ep_seed + i, a fixed
    # eigenvector is drawn at the first valid lambda
    assert rows[1] == experiment_table(p, [0.5j], 8 if blocks == "RB" else 7, blocks)[0]
    assert rows[1]["finite"]


HUGE_LAMS = (1e160j, 1e200j, 1e300j)  # finite, but |lambda|^2 and the sums of squares of the bounds overflow


def _overflow(lam):
    return f"backward-error bounds overflow the floating-point range (|lambda| = {abs(lam):.3g})"

#: every selection of eta_sd (with those it delegates to eta_s) and of eta_s
SELECTION_VARIANTS = sorted((blocks_to_string(b), v) for v, combos in (("sd", ETA_SD_COMBOS | ETA_S_COMBOS),
                                                                      ("s", ETA_S_COMBOS)) for b in combos)


def _huge_lambda_case(blocks):
    """A pencil and an eigenvector whose side conditions hold at every |lambda| >= 1e100.

    The eigenvector is drawn at 0.5i (its kernel conditions do not depend on lambda); for RB, whose
    isotropy u1*(J + lambda E) u1 = 0 does, u1 is E-isotropic for a diagonal indefinite E, so that
    u1* J u1 is within the tolerance, which grows with |lambda|."""
    if blocks == "RB":
        p = gen_pencil(4, 2, seed=3)
        p = PHPencil(p.J, p.R, np.diag([1.0, -1.0, 2.0, 3.0]), p.B, p.S)
        return p, (np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2.0), np.array([0.3, -0.2j, 1.0, 0.5]), np.zeros(2))
    p = pencil_for(blocks, seed=3, n=4)
    ep = gen_eigpair(p, 5, blocks, lam=0.5j)
    return p, (ep.u1, ep.u2, ep.u3)


@pytest.mark.parametrize("blocks,variant", SELECTION_VARIANTS, ids=[f"{b}-{v}" for b, v in SELECTION_VARIANTS])
def test_bounds_that_overflow_at_a_finite_lambda_raise(blocks, variant):
    # at 1e160i and beyond every selection returned finite=True with eta_lower = eta_upper = nan
    from dsmkit.errors import BoundsOverflowError

    eta = eta_sd if variant == "sd" else eta_s
    p, u = _huge_lambda_case(blocks)
    for lam in HUGE_LAMS:
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(BoundsOverflowError, match=re.escape(_overflow(lam))):
                eta(p, EigenPair(lam, *u), blocks)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            res = eta(p, EigenPair(1e100j, *u), blocks)
        except HypothesisViolationError:  # RB's X*Y is not negative definite here: refused, as before
            assert (blocks, variant) == ("RB", "sd")
            return
    assert res.finite and np.isfinite(res.eta_lower) and np.isfinite(res.eta_upper) and res.eta_lower <= res.eta_upper


def test_bounds_that_overflow_for_a_scaled_pencil_raise():
    # a moderate lambda: the pencil's scale, not |lambda|, overflows the sums of squares
    from dsmkit.errors import BoundsOverflowError

    p = gen_pencil(4, 2, 3)
    ep = gen_eigpair(p, 5, "JREB", lam=0.5j)
    big = PHPencil(*(getattr(p, name) * 1e160 for name in "JREBS"))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BoundsOverflowError) as err:
            eta_sd(big, ep, "JREB")
    assert str(err.value) == "backward-error bounds overflow the floating-point range (|lambda| = 0.5)"


@pytest.mark.parametrize("blocks,variant", SELECTION_VARIANTS, ids=[f"{b}-{v}" for b, v in SELECTION_VARIANTS])
def test_bounds_that_overflow_raise_with_no_warning(blocks, variant, monkeypatch):
    # the verdicts and the bounds are taken inside np.errstate: the typed error, and no RuntimeWarning before
    # it, is all a caller sees.  Every row whose verdicts overflow (a norm of inf or nan: those of eta_s's
    # formulas and RB's) raises it, so no verdict read from an overflow reaches a caller; a refused RB "sd"
    # row is still judged by ||X*Y||, and the rows at 1e100i keep the values of eta_*
    import warnings

    import dsmkit.pencil as pencil_mod
    from dsmkit.errors import BoundsOverflowError

    eta = eta_sd if variant == "sd" else eta_s
    p, u = _huge_lambda_case(blocks)
    norm, overflowed = pencil_mod._norm, []

    def watched(*args):
        out = norm(*args)
        overflowed.append(not np.isfinite(out).all())
        return out

    monkeypatch.setattr(pencil_mod, "_norm", watched)
    verdicts_overflow = variant == "s" or blocks in ("EB", "JB", "JEB", "RB")  # the formulas of eta_s, and RB's
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lam in HUGE_LAMS:
            overflowed.clear()
            with pytest.raises(BoundsOverflowError, match=re.escape(_overflow(lam))):
                eta(p, EigenPair(lam, *u), blocks)
            assert any(overflowed) == verdicts_overflow
        overflowed.clear()
        try:
            res = eta(p, EigenPair(1e100j, *u), blocks)
        except HypothesisViolationError:  # RB's X*Y is not negative definite here: refused by ||X*Y||
            assert (blocks, variant) == ("RB", "sd")
        else:
            assert res.finite
        assert not any(overflowed)
        if blocks == "RB":  # RB draws each row's eigenvector at its lambda (see the table test below)
            return
        rows = experiment_table(p, [0.5j, *HUGE_LAMS, 1e100j], 7, blocks, variant=variant)
    assert [row["error"] for row in rows[1:4]] == [_overflow(lam) for lam in HUGE_LAMS]
    ep = gen_eigpair(p, 7, blocks, lam=0.5j)
    for row in (rows[0], rows[4]):
        res = eta(p, EigenPair(row["lam"], ep.u1, ep.u2, ep.u3), blocks)
        assert (row["eta_lower"], row["eta_upper"]) == (res.eta_lower, res.eta_upper)


def test_bounds_at_1e100i_keep_their_values():
    p = gen_pencil(4, 2, 3)
    res = eta_sd(p, gen_eigpair(p, 5, "JREB", lam=1e100j), "JREB")
    assert res.finite
    assert abs(res.eta_lower - 4.356552227156368) <= 1e-12 * 4.356552227156368
    assert abs(res.eta_upper - 1.7122745627958586e+85) <= 1e-12 * 1.7122745627958586e+85


@pytest.mark.parametrize("blocks,variant", [sv for sv in SELECTION_VARIANTS if sv[0] != "RB"],
                         ids=[f"{b}-{v}" for b, v in SELECTION_VARIANTS if b != "RB"])
def test_table_records_bounds_that_overflow_as_a_row_error(blocks, variant):
    # RB draws each row's eigenvector at its lambda, and finds none at these; every other selection keeps
    # the one drawn at the first lambda, 0.5i
    eta = eta_sd if variant == "sd" else eta_s
    p, _ = _huge_lambda_case(blocks)
    lams = [0.5j, *HUGE_LAMS, 1e100j]
    with np.errstate(over="ignore", invalid="ignore"):
        rows = experiment_table(p, lams, 7, blocks, variant=variant)
    for row, lam in zip(rows[1:4], HUGE_LAMS):
        assert row["error"] == _overflow(lam)
        assert not row["finite"] and row["eta_lower"] == row["eta_upper"] == np.inf and row["conditions"] == ""
    ep = gen_eigpair(p, 7, blocks, lam=0.5j)
    for row in (rows[0], rows[4]):
        res = eta(p, EigenPair(row["lam"], ep.u1, ep.u2, ep.u3), blocks)
        assert row["finite"] and row["error"] == ""
        assert (row["eta_lower"], row["eta_upper"]) == (res.eta_lower, res.eta_upper)


def test_experiment_table_raises_bugs_and_records_data_errors(monkeypatch):
    import dsmkit.pencil as pencil_mod

    p = gen_pencil(4, 2, seed=3)
    rows = experiment_table(p, [0.0, 0.5j], 7, "JREB")
    assert rows[0]["error"] and not rows[0]["finite"]
    assert rows[1]["error"] == "" and rows[1]["finite"]

    def broken(*args, **kwargs):
        raise ZeroDivisionError("a bug in the core")

    monkeypatch.setattr(pencil_mod, "_solve", broken)
    with pytest.raises(ZeroDivisionError):
        experiment_table(p, [0.5j], 7, "JREB")
    rows = experiment_table(p, [0.0], 7, "JREB")  # rejected before the core is reached
    assert rows[0]["error"]


def test_experiment_table_rejects_unsupported_selection():
    with pytest.raises(ValueError):
        experiment_table(gen_pencil(4, 2, seed=3), [0.5j], 7, "JR", variant="s")


@pytest.mark.parametrize("variant", ["sd", "s"])
def test_rb_table_takes_no_square_decomposition(variant, monkeypatch):
    seen = watch_linalg(monkeypatch)
    p = gen_pencil(24, 4, seed=8)
    lams = [0.45j, -1.2j, 0.9j, -0.35j, 1.7j, 0.6j]
    rows = experiment_table(p, lams, 5, "RB", variant=variant)
    assert all(r["error"] == "" and r["finite"] for r in rows)
    # thin factorizations only: the n x 8 QR of each draw's products, then coordinates (_assert_core_shapes)
    assert [c for c in seen if min(c[1][-2:]) > 8] == []
    _assert_core_shapes(seen)
    assert [c for c in seen if c[0] == "eigvalsh"]  # min_eig_herm of X*Y, stacked in the generator and the core


def _assert_core_shapes(calls):
    """Every QR has at most 8 columns (of the eight products, or of the coordinates of H1's factors), every
    SVD is of at most 8 x 2 (the coordinates of X = [u2 u1]) and every other call is of 2 x 2 (X*Y)."""
    for name, shape, *_ in calls:
        if name == "qr":
            assert shape[-1] <= 8, (name, shape)
        elif name == "svd":
            assert shape[-2] <= 8 and shape[-1] <= 2, (name, shape)
        else:
            assert shape[-2:] == (2, 2), (name, shape)


def _grid(k):
    """k imaginary lambda alternating between +[0.3, 2]i and -[0.3, 2]i, as in the sweep benchmark."""
    return [(-1) ** j * 1j * (0.3 + 1.7 * j / max(k - 1, 1)) for j in range(k)]


def _count_passes(monkeypatch, names=("_probe", "_products")):
    """Record the rows of every call of the generator's stacked passes, by name (the second argument of
    either has a row each: the lambdas of ``_probe``, the u1 of ``_products``)."""
    import dsmkit.pencil as pencil_mod

    calls = {name: [] for name in names}

    def counted(name, fn):
        def wrapped(P, rows, *args, **kwargs):
            calls[name].append(len(rows))
            return fn(P, rows, *args, **kwargs)
        return wrapped

    for name in names:
        monkeypatch.setattr(pencil_mod, name, counted(name, getattr(pencil_mod, name)))
    return calls


def test_rb_table_draws_its_rows_in_lockstep_rounds(monkeypatch):
    # one stacked probe pass per probe block and one products pass per round, each over the pending rows;
    # a generator that drew row by row would make one pass per draw
    from dsmkit.pencil import _PROBE_BLOCK, _PROBES

    calls = _count_passes(monkeypatch)
    p = gen_pencil(24, 4, seed=8)
    rows = experiment_table(p, [0.45j, -1.2j, 0.9j, -0.35j, 1.7j, 0.6j], 5, "RB")
    assert all(r["error"] == "" and r["finite"] for r in rows)
    products, probes = calls["_products"], calls["_probe"]
    assert products[0] == 6 and products == sorted(products, reverse=True)  # the pending rows only shrink
    assert 1 <= len(products) < sum(products)  # fewer passes than draws: a rejected draw waits for the next round
    assert probes[0] == 6 and len(probes) <= len(products) * (_PROBES // _PROBE_BLOCK)


def test_rb_table_rows_are_the_pairs_gen_eigpair_draws(monkeypatch):
    # with E shifted towards definite, row 0 of this table has a rejected draw, row 1 needs a second
    # probe block, and the rows at larger |lambda| find one sign only and fall back to an eigh each
    import dsmkit.pencil as pencil_mod

    base = gen_pencil(24, 4, seed=8)
    p = PHPencil(base.J, base.R, base.E + 4.0 * np.eye(24), base.B, base.S)
    lams = _grid(8)
    tables = []
    gen = pencil_mod._gen_rb

    def recorded(*args, **kwargs):
        tables.append(gen(*args, **kwargs))
        return tables[-1]

    monkeypatch.setattr(pencil_mod, "_gen_rb", recorded)
    rows = experiment_table(p, lams, 3, "RB")
    (drawn, _), = tables
    calls = _count_passes(monkeypatch)
    seen = watch_linalg(monkeypatch)
    paths = []
    for i, lam in enumerate(lams):
        before = len(seen)
        ep = gen_eigpair(p, 3 + i, "RB", lam=lam)  # a stack of one
        probes, products = len(calls["_probe"]), len(calls["_products"])
        for c in calls.values():
            c.clear()
        paths.append((probes, products, [c[:2] for c in seen[before:] if c[0] == "eigh"]))
        assert drawn[i][0] == lam and np.array_equal(drawn[i][1], ep.u1) and np.array_equal(drawn[i][2], ep.u2)
        assert rows[i]["eta_upper"] == eta_sd(p, ep, "RB").eta_upper
    assert any(products > 1 for _, products, _ in paths)  # a rejected draw
    assert any(probes > products and not eighs for probes, products, eighs in paths)  # a second probe block
    fallback = [eighs for _, _, eighs in paths if eighs]
    assert fallback and all(eighs == [("eigh", (24, 24))] for eighs in fallback)  # one row alone, once


def test_fixed_eigenvector_table_draws_once_when_the_draw_fails(monkeypatch):
    import dsmkit.pencil as pencil_mod

    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return _complement_map(*args, **kwargs)

    monkeypatch.setattr(pencil_mod, "_complement_map", counted)
    p = gen_pencil(256, 64, 5)  # R nonsingular: ker R is trivial
    lams = _grid(25)
    rows = experiment_table(p, lams[:3] + [0.0] + lams[3:], 7, "JEB", variant="s")
    assert calls == [(256, 256)]  # one draw, not one per row
    nonsingular = "R is nonsingular; ker(R) is trivial for this selection"
    assert [row["error"] for row in rows] == 3 * [nonsingular] + [INVALID_LAMBDA] + 22 * [nonsingular]


@pytest.mark.parametrize("blocks,variant", ALL_SELECTIONS)
def test_table_core_calls_do_not_grow_with_the_rows(blocks, variant, monkeypatch):
    # one stack of 5 rows and one of 50 take the same np.linalg calls in the core; outside it only the
    # RB generator (per lockstep round, whatever the rows: one stacked QR of the products and one stacked
    # 2 x 2 eigvalsh) and, for a fixed eigenvector, its one draw and one QR of its products make any
    import dsmkit.pencil as pencil_mod

    seen = watch_linalg(monkeypatch)
    inside, rounds = [], []
    solve, products = pencil_mod._solve, pencil_mod._products

    def counted(*args, **kwargs):
        before = len(seen)
        out = solve(*args, **kwargs)
        inside.append([c[0] for c in seen[before:]])
        _assert_core_shapes(seen[before:])
        return out

    def products_counted(*args, **kwargs):
        rounds[-1] += 1
        return products(*args, **kwargs)

    monkeypatch.setattr(pencil_mod, "_solve", counted)
    monkeypatch.setattr(pencil_mod, "_products", products_counted)
    p = gen_pencil(24, 4, seed=8, r_rank=12)
    outside = []
    for k in (5, 50):
        before = len(seen)
        rounds.append(0)
        rows = experiment_table(p, _grid(k), 5, blocks, variant=variant)
        assert sum(row["finite"] for row in rows) >= k - 2
        outside.append(len(seen) - before - len(inside[-1]))
    assert len(inside) == 2 and inside[0] == inside[1] and len(inside[0]) <= 5
    assert outside == [2 * r for r in rounds] if blocks == "RB" else outside[0] == outside[1]


def test_table_peak_memory_does_not_grow_with_the_number_of_lambda():
    import tracemalloc

    p = gen_pencil(512, 16, seed=2)

    def peak(k):
        tracemalloc.start()
        try:
            rows = experiment_table(p, _grid(k), 7, "JREB")
            return tracemalloc.get_traced_memory()[1], rows
        finally:
            tracemalloc.stop()

    small, _ = peak(25)
    big, rows = peak(1000)
    assert len(rows) == 1000 and all(row["finite"] for row in rows)
    assert big <= 2 * small, (big, small)


@pytest.mark.parametrize("blocks,variant", [("JREB", "sd"), ("JEB", "s")])
def test_core_memory_per_row_is_bounded(blocks, variant, monkeypatch):
    # a fixed eigenvector's row costs the core about 5-6 kB (coordinates and the 8 x 8 F C F*) whatever n
    # and however many lambda: at n = 512 one complex n-vector per row alone would be 8 kB
    import tracemalloc

    import dsmkit.pencil as pencil_mod

    p = gen_pencil(512, 16, seed=2, r_rank=256)
    calls, solve = [], pencil_mod._solve

    def traced(blocks, variant, lams, *args, **kwargs):
        tracemalloc.start()
        try:
            return solve(blocks, variant, lams, *args, **kwargs)
        finally:
            calls.append((len(lams), tracemalloc.get_traced_memory()[1]))
            tracemalloc.stop()

    monkeypatch.setattr(pencil_mod, "_solve", traced)
    per_row = {}
    for k in (25, 1000):
        calls.clear()
        rows = experiment_table(p, _grid(k), 7, blocks, variant=variant)
        assert len(rows) == k and all(row["finite"] for row in rows)
        assert sum(r for r, _ in calls) == k
        per_row[k] = max(peak / r for r, peak in calls)
        assert per_row[k] <= 8 * 1024, (k, per_row[k])
    assert per_row[1000] <= 1.25 * per_row[25], per_row


@pytest.mark.parametrize("blocks,variant", [("JREB", "sd"), ("JEB", "s")])
def test_core_memory_per_lambda_does_not_grow_with_n(blocks, variant, monkeypatch):
    # a fixed eigenvector's rows read coordinates only: at n = 4096 with 1000 lambda no call of the core
    # holds as much as one (1000, n) complex array, the size of a single n-vector per row, nor indeed as
    # much as eight n-vectors, whatever its rows
    import tracemalloc

    import dsmkit.pencil as pencil_mod

    n, k = 4096, 1000
    # np.zeros maps pages it never writes, so these blocks, zero but for a 2 x 2 corner, cost little memory
    J, R, E = (np.zeros((n, n), dtype=complex) for _ in range(3))
    J[:2, :2], R[:2, :2], E[:2, :2] = [[1j, 1.0], [-1.0, 2j]], [[2.0, 1.0], [1.0, 1.0]], [[1.0, 1j], [-1j, 3.0]]
    p = PHPencil(J, R, E, crandn(np.random.default_rng(4), n, 2), np.eye(2))
    peaks, solve = [], pencil_mod._solve

    def traced(*args, **kwargs):
        tracemalloc.start()
        try:
            return solve(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(pencil_mod, "_solve", traced)
    rows = experiment_table(p, _grid(k), 7, blocks, variant=variant)
    assert len(rows) == k and all(row["finite"] for row in rows)
    assert len(peaks) > 1 and max(peaks) < k * n * 16, (len(peaks), max(peaks))
    assert max(peaks) < 8 * n * 16, (len(peaks), max(peaks))


@pytest.mark.parametrize("n", [4, 64, 256])
def test_products_of_a_stack_are_its_stacks_of_one(n):
    # M @ U[..., None] is one matrix-vector product per row: each row has the bits of M @ u alone,
    # which eta_* (a stack of one) and the tables and the RB generator (stacks of many) all rely on
    from dsmkit.config import DEFAULT_TOL
    from dsmkit.pencil import _products

    p = gen_pencil(n, 3, seed=n)
    rng = np.random.default_rng(n)
    u1, u2, u3 = crandn(rng, 6, n), crandn(rng, 6, n), crandn(rng, 6, 3)
    u2[1] = np.exp(0.3j) * u1[1]  # colinear
    u3[2:] = 0.0
    v = _products(p, u1, u2, u3, DEFAULT_TOL)
    for i in range(6):
        one = _products(p, u1[i : i + 1], u2[i : i + 1], u3[i : i + 1], DEFAULT_TOL)
        for name, field in vars(v).items():
            assert np.array_equal(field[i : i + 1] if np.ndim(field) else field, getattr(one, name)), (i, name)
        u1_i, u2_i, ju1, ru2 = v.vecs[i, 0], v.vecs[i, 1], v.vecs[i, 2], v.vecs[i, 6]  # in _VECTORS' order
        assert np.array_equal(ju1, p.J @ u1_i) and np.array_equal(ru2, p.R @ u2_i)
        assert np.array_equal(v.Bu1[i], p.B.conj().T @ u1_i)
    assert v.colinear.tolist() == [False, True] + 4 * [False] and v.u3_zero.tolist() == 2 * [False] + 4 * [True]


def _hermitian_form(p, lam):
    return (p.J + lam * p.E) / 1j


@pytest.mark.parametrize("n", [3, 64, 256])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_rb_generator_draws_isotropic_admissible_pairs(n, sign):
    p = gen_pencil(n, 2, seed=n)
    lam = sign * 0.8j
    h = _hermitian_form(p, lam)
    for seed in range(3):
        ep = gen_eigpair(p, seed, "RB", lam=lam)
        assert ep.lam == lam and np.all(ep.u3 == 0)
        for u in (ep.u1, ep.u2):
            hu = h @ u
            assert abs(np.vdot(u, hu)) <= 1e-10 * np.linalg.norm(hu) * np.linalg.norm(u)
        res = eta_sd(p, ep, "RB")
        assert res.finite and np.isfinite(res.eta_upper)
    # a random lambda keeps its sign rule and stays admissible
    ep = gen_eigpair(p, 7, "RB")
    assert 0.3 <= abs(ep.lam.imag) <= 2.0 and eta_sd(p, ep, "RB").finite


def _pencil_with_e(e, seed=2):
    n = e.shape[0]
    base = gen_pencil(n, 3, seed=seed)
    return PHPencil(np.zeros((n, n)), base.R, e, base.B, base.S)


@pytest.mark.parametrize("lam", [0.7j, -0.7j])
def test_rb_generator_falls_back_to_one_eigh_on_lopsided_inertia(lam, monkeypatch):
    # (J + lam E)/i = Im(lam) E with one eigenvalue of one sign among 64:
    # a Gaussian probe takes the other sign with probability about 2^-63
    rng = np.random.default_rng(1)
    n = 64
    q, _ = np.linalg.qr(crandn(rng, n, n))
    d = -np.ones(n)
    d[0] = 1.0
    e = (q * d) @ q.conj().T
    p = _pencil_with_e((e + e.conj().T) / 2)
    h = _hermitian_form(p, lam)
    seen = watch_linalg(monkeypatch)
    ep = gen_eigpair(p, 3, "RB", lam=lam)
    assert [c[:2] for c in seen if c[0] == "eigh"] == [("eigh", (n, n))]
    for u in (ep.u1, ep.u2):
        hu = h @ u
        assert abs(np.vdot(u, hu)) <= 1e-10 * np.linalg.norm(hu) * np.linalg.norm(u)
    assert eta_sd(p, ep, "RB").finite


def test_rb_generator_rejects_a_semidefinite_form():
    # J = 0 and E > 0: (J + lam E)/i is definite, no isotropic vector exists
    rng = np.random.default_rng(4)
    g = crandn(rng, 6, 6)
    p = _pencil_with_e(g @ g.conj().T + np.eye(6))
    for lam in (0.9j, -0.9j):
        with pytest.raises(GenerationError, match="semidefinite"):
            gen_eigpair(p, 0, "RB", lam=lam)
    with pytest.raises(GenerationError, match="no admissible eigenpair"):
        gen_eigpair(p, 0, "RB", max_tries=5)
    rows = experiment_table(p, [0.9j], 0, "RB")
    assert "semidefinite" in rows[0]["error"] and not rows[0]["finite"]


@pytest.mark.parametrize("blocks,variant", ALL_SELECTIONS)
def test_eta_makes_no_projector_and_no_square_lapack_call(blocks, variant, monkeypatch):
    import dsmkit.linalg as linalg_mod
    import dsmkit.pencil as pencil_mod

    n = 64
    p, ep, _ = _equivalence_cases(blocks, n)[0]

    def refuse(*args, **kwargs):
        raise AssertionError("null_projector called")

    monkeypatch.setattr(pencil_mod, "null_projector", refuse, raising=False)  # pencil no longer imports it
    monkeypatch.setattr(linalg_mod, "null_projector", refuse, raising=False)
    seen = watch_linalg(monkeypatch)
    res = (eta_sd if variant == "sd" else eta_s)(p, ep, blocks)
    assert res.finite
    assert [c for c in seen if min(c[1][-2:]) >= n] == []
    _assert_core_shapes(seen)


def test_eta_s_rb_infinite_whatever_the_pencil_scale():
    # u1 is not isotropic for (J + lam E)/i, so eta is infinite at every scale
    rng = np.random.default_rng(0)
    p = gen_pencil(8, 2, 1)
    u1, u2 = crandn(rng, 8), crandn(rng, 8)
    ep = EigenPair(0.7j, u1, u2, np.zeros(2))
    for s in (1.0, 1e-12):
        ps = PHPencil(s * p.J, s * p.R, s * p.E, s * p.B, s * p.S)
        res = eta_s(ps, ep, "RB")
        assert not res.finite and not res.conditions_report["u1_isotropic"]


def test_eta_sd_jre_invariant_under_small_u():
    p = gen_pencil(8, 2, 0, b_rank=1)
    ep = gen_eigpair(p, 10, "JRE")
    a = eta_sd(p, ep, "JRE")
    assert a.eta_upper == pytest.approx(28.2469, rel=1e-5)
    for c in (1e-12, 1e-150, 1e150):
        b = eta_sd(p, ep.scaled(c), "JRE")
        assert b.conditions_report == a.conditions_report
        assert b.eta_lower == pytest.approx(a.eta_lower, rel=1e-12)
        assert b.eta_upper == pytest.approx(a.eta_upper, rel=1e-12)


def _scaled_pencil(p, s):
    return PHPencil(s * p.J, s * p.R, s * p.E, s * p.B, s * p.S)


def test_reconstruction_rejects_a_wrong_block_whatever_the_pencil_scale():
    p = gen_pencil(6, 2, 4)
    ep = gen_eigpair(p, 1, "JREB")
    for s in (1.0, 1e-12, 1e12):
        ps = _scaled_pencil(p, s)
        assert all(ps.validate().values())
        res = eta_sd(ps, ep, "JREB")
        reconstruct_perturbation(ps, ep, "JREB", res)  # the correct block is accepted
        res.H1 = 1.5 * res.H1
        with pytest.raises(ReconstructionError, match="residual too large"):
            reconstruct_perturbation(ps, ep, "JREB", res)


# ---------------------------------------------------------------------------
# kernel-constrained draws: one range projection for ker R and ker B*

KERNEL_R_SELECTIONS = ("JB", "EB", "JEB")
KERNEL_B_SELECTIONS = ("JR", "RE", "JRE")


def _first_gaussian(seed, n):
    # with lambda fixed, the first draw of the generator's stream is g
    return crandn(np.random.default_rng(seed), n)


@pytest.mark.parametrize("blocks", KERNEL_R_SELECTIONS)
def test_kernel_r_draw_of_a_zero_r_is_the_gaussian_itself(blocks):
    base = gen_pencil(6, 2, seed=1)
    p = PHPencil(base.J, np.zeros((6, 6)), base.E, base.B, base.S)
    ep = gen_eigpair(p, 9, blocks, lam=0.7j)
    assert np.array_equal(ep.u1, _first_gaussian(9, 6))


@pytest.mark.parametrize("blocks", KERNEL_R_SELECTIONS)
@pytest.mark.parametrize("n,r_rank", [(4, 1), (16, 8), (64, 63), (256, 128)])
def test_kernel_r_draw_lies_in_ker_r(blocks, n, r_rank):
    p = gen_pencil(n, 3, seed=n, r_rank=r_rank)
    tol = ToleranceConfig().residual_tol
    for seed in range(3):
        ep = gen_eigpair(p, seed, blocks)
        assert np.linalg.norm(p.R @ ep.u1) <= tol * np.linalg.norm(p.R) * np.linalg.norm(ep.u1)
        assert np.linalg.norm(p.R @ ep.u2) <= tol * np.linalg.norm(p.R) * np.linalg.norm(ep.u2)
        assert eta_s(p, ep, blocks).finite


@pytest.mark.parametrize("blocks", KERNEL_R_SELECTIONS + KERNEL_B_SELECTIONS)
def test_kernel_draw_does_not_depend_on_the_pencil_scale(blocks):
    p = gen_pencil(12, 3, seed=6, r_rank=5)
    ref = gen_eigpair(p, 4, blocks)
    for s in (1e-75, 1e75):
        ep = gen_eigpair(_scaled_pencil(p, s), 4, blocks)
        assert ep.lam == ref.lam
        assert np.linalg.norm(ep.u1 - ref.u1) <= 1e-12 * np.linalg.norm(ref.u1)
        assert np.linalg.norm(ep.u2 - ref.u2) <= 1e-12 * np.linalg.norm(ref.u2)


@pytest.mark.parametrize("blocks", KERNEL_B_SELECTIONS)
@pytest.mark.parametrize("b_rank", [None, 1])
def test_kernel_b_draw_is_the_projected_gaussian(blocks, b_rank):
    # the same g as the dense projector I - B B+ took, so the draw is unchanged up to rounding
    from dense_reference import null_projector

    p = gen_pencil(10, 4, seed=3, b_rank=b_rank)
    ep = gen_eigpair(p, 5, blocks, lam=-0.4j)
    want = null_projector(p.B) @ _first_gaussian(5, 10)
    assert np.linalg.norm(ep.u1 - want) <= 1e-12 * np.linalg.norm(want)
    assert np.linalg.norm(p.B.conj().T @ ep.u1) <= 1e-12 * np.linalg.norm(p.B) * np.linalg.norm(ep.u1)


TRIVIAL_KERNEL = {"B": "B* has trivial kernel; the selection's side condition is unsatisfiable",
                  "R": "R is nonsingular; ker(R) is trivial for this selection"}


def _check_kernel_draws(p, a, basis, selections, trivial):
    """Each selection's draw is the first Gaussian projected by the dense I - basis basis+, and a* u1 = 0.

    range(basis) = range(a); a kernel that the reference finds trivial must raise ``trivial``, word for word."""
    n, cfg = p.n, ToleranceConfig()
    ref = np.eye(n) - basis @ np.linalg.pinv(basis, rcond=cfg.rank_tol)
    rank = np.linalg.matrix_rank(basis, rtol=cfg.rank_tol) if basis.size else 0
    for blocks in selections:
        if rank == n:
            with pytest.raises(GenerationError) as exc:
                gen_eigpair(p, 5, blocks, lam=-0.4j)
            assert str(exc.value) == trivial
            continue
        ep = gen_eigpair(p, 5, blocks, lam=-0.4j)
        want = ref @ _first_gaussian(5, n)
        assert np.linalg.norm(ep.u1 - want) <= 1e-12 * np.linalg.norm(want)
        assert np.linalg.norm(a.conj().T @ ep.u1) <= cfg.residual_tol * np.linalg.norm(a) * np.linalg.norm(ep.u1)


@pytest.mark.parametrize("n", [1, 3, 64, 256])
@pytest.mark.parametrize("rank", ["1", "half", "full", "wide", "wide-1"])
def test_kernel_b_draw_matches_a_dense_reference(n, rank):
    # m < n but at n = 1; a wide B (m > n) has a trivial kernel at full rank
    m = {1: 1, 3: 2, 64: 16, 256: 64}[n] if not rank.startswith("wide") else n + 2
    b_rank = {"1": 1, "half": max(1, m // 2), "wide-1": 1}.get(rank)
    p = gen_pencil(n, m, seed=n + m, b_rank=b_rank)
    _check_kernel_draws(p, p.B, p.B, KERNEL_B_SELECTIONS, TRIVIAL_KERNEL["B"])


@pytest.mark.parametrize("n", [1, 3, 64, 256])
@pytest.mark.parametrize("rank", ["1", "half", "n-1", "n"])
def test_kernel_r_draw_matches_a_dense_reference(n, rank):
    # R = A A* with A's singular values in [1, 2], so that ker R is fixed to rounding: with gen_pencil's
    # R of rank n - 1 (condition about 1e6 on its range at n = 256) it moves by about 1e-10 under a
    # perturbation of R of one rounding unit, for every method
    r = {"1": 1, "half": n // 2, "n-1": n - 1, "n": n}[rank]
    rng = np.random.default_rng(n + r)
    a = (np.linalg.qr(crandn(rng, n, r))[0] if r else np.zeros((n, 0))) * np.linspace(1.0, 2.0, r)
    base = gen_pencil(n, 2, seed=n + r)
    p = PHPencil(base.J, a @ a.conj().T, base.E, base.B, base.S)
    _check_kernel_draws(p, p.R, a, KERNEL_R_SELECTIONS, TRIVIAL_KERNEL["R"])


@pytest.mark.parametrize("blocks", KERNEL_R_SELECTIONS + KERNEL_B_SELECTIONS)
def test_gen_eigpair_raises_on_a_trivial_kernel_at_n_64(blocks):
    p = gen_pencil(64, 80, seed=2)  # R nonsingular, B of full row rank
    with pytest.raises(GenerationError, match="nonsingular" if blocks in KERNEL_R_SELECTIONS else "trivial kernel"):
        gen_eigpair(p, 0, blocks)


KERNEL_TABLES = [c for c in ALL_SELECTIONS if c[0] in KERNEL_R_SELECTIONS + KERNEL_B_SELECTIONS]


#: (n, m, rank of R, certified) by id suffix: a full-rank pencil, one that fails the Gram certificate, and
#: the sweep benchmark's shape, whose draws must stay on the Gram path
KERNEL_INPUTS = {"": (64, 16, 32, True), "-fallback": (64, 16, 32, False), "-sweep": (256, 64, 128, True)}


@pytest.mark.parametrize("blocks,variant,n,m,r,certified",
                         [pytest.param(b, v, *shape, id=f"{b}-{v}{tag}")
                          for tag, shape in KERNEL_INPUTS.items() for b, v in KERNEL_TABLES])
def test_kernel_table_takes_no_square_decomposition(blocks, variant, n, m, r, certified, monkeypatch):
    import dsmkit.pencil as pencil_mod

    assert not hasattr(pencil_mod, "null_projector") and not hasattr(pencil_mod, "svd_split")
    kernel_r = blocks in KERNEL_R_SELECTIONS
    p = gen_pencil(n, m, seed=8, r_rank=r, b_rank=None if certified or kernel_r else m // 2)
    if kernel_r and not certified:
        # R = A A* of rank n - 1 as ``_check_kernel_draws`` takes it, but with A's singular values spread over
        # 1 .. 1e-5: its Cholesky factor has condition 1e5, which the Gram certificate must not pass
        r = n - 1
        a = np.linalg.qr(crandn(np.random.default_rng(r), n, r))[0] * np.geomspace(1.0, 1e-5, r)
        p = PHPencil(p.J, a @ a.conj().T, p.E, p.B, p.S)
    seen = watch_linalg(monkeypatch)
    rows = experiment_table(p, [0.45j, -1.2j, 0.9j, -0.35j, 1.7j], 5, blocks, variant=variant)
    assert all(row["error"] == "" and row["finite"] for row in rows)
    assert [c for c in seen if c[0] in ("svd", "eigh", "eigvalsh") and c[1][-2:] == (n, n)] == []
    # one map per table, on B or on the n x k Cholesky factor of R (k = m or r): one Cholesky of the k x k
    # Gram matrix, which certifies a full-rank B or factor, then two k x k solves for the one draw and no Q;
    # where it fails, one orthonormal basis: the thin SVD of B (svd_range) or the reduced QR of the factor
    k = r if kernel_r else m
    wide = [c for c in seen if min(c[1][-2:]) > 8]
    if certified:
        assert wide == [("cholesky", (k, k), False, None)] + 2 * [("solve", (k, k), False, None)]
    else:
        assert wide == [("cholesky", (k, k), False, None)] + ([("qr", (n, k), False, "reduced")] if kernel_r
                                                              else [("svd", (n, m), False, True)])
    _assert_core_shapes([c for c in seen if c not in wide])


#: fault: (selection, the fields of its eta result to replace, the error that result must raise)
_RECONSTRUCTION_FAULTS = {
    "not-finite": ("JREB", lambda res, n: {"finite": False}, "cannot reconstruct from an infinite backward error$"),
    "hermitian-part-without-R": ("JB", lambda res, n: {"H1": res.H1 + np.eye(n)},  # H1 was skew-Hermitian
                                 "square block has a Hermitian part but R is not selected$"),
    "skew-part-without-J-or-E": ("RB", lambda res, n: {"H1": res.H1 + 1j * np.eye(n)},  # H1 was Hermitian
                                 "square block has a skew part but neither J nor E is selected$"),
    # -(Hermitian part) stays Hermitian but is no longer semidefinite
    "dR-not-psd": ("JREB", lambda res, n: {"H1": res.H1 + 10.0 * np.linalg.norm(res.H1) * np.eye(n)},
                   "perturbation invariants failed: dR_psd$"),
    "norm-not-eta-upper": ("JREB", lambda res, n: {"eta_upper": 2.0 * res.eta_upper},
                           "reconstructed norm .* != eta_upper "),
}


@pytest.mark.parametrize("fault", list(_RECONSTRUCTION_FAULTS))
def test_reconstruction_refuses_an_altered_result(fault):
    blocks, alter, message = _RECONSTRUCTION_FAULTS[fault]
    p = pencil_for(blocks)
    ep = gen_eigpair(p, 21, blocks)
    res = (eta_s if blocks == "JB" else eta_sd)(p, ep, blocks)
    reconstruct_perturbation(p, ep, blocks, res)  # the result as computed passes
    with pytest.raises(ReconstructionError, match=f"^{message}"):
        reconstruct_perturbation(p, ep, blocks, dataclasses.replace(res, **alter(res, p.n)))


def test_eta_sd_warns_on_a_colinearity_factor_that_is_not_unit_modulus():
    p = pencil_for("JREB")
    u1 = crandn(np.random.default_rng(8), p.n)
    res = eta_sd(p, EigenPair(0.7j, u1, 2.0 * u1, np.zeros(p.m)), "JREB")
    assert res.finite and res.conditions_report["u2_colinear_u1"]
    assert res.warnings == ["colinearity factor is not unit-modulus; the Gram-vector weighting "
                            "is only certified for |alpha| = 1"]


def test_gen_eigpair_raises_after_max_tries_when_r_is_zero():
    # JREB needs R u2 != 0: with R = 0 every draw is rejected
    p = gen_pencil(3, 2, seed=0, r_rank=0)
    assert not p.R.any()
    with pytest.raises(GenerationError, match="^no admissible eigenpair found in 5 tries$"):
        gen_eigpair(p, 0, "JREB", max_tries=5)


@pytest.mark.xfail(strict=True, raises=ReconstructionError,
                   reason="eta_sd off the colinear branch returns a dR that is not semidefinite, finite and "
                          "unwarned: ROADMAP item 25, whose fix removes this marker")
@pytest.mark.parametrize("blocks", ["JR", "JRB", "JRE", "JREB", "RE", "REB"])
def test_eta_sd_with_a_generic_u2_is_reconstructible_unless_flagged(blocks):
    # gen_eigpair draws u2 colinear with u1; a generic u2 leaves that branch, which no other test reaches
    rng = np.random.default_rng(25)
    for _ in range(40):
        n = int(rng.choice([3, 4, 6, 8]))
        p = gen_pencil(n, 2, seed=int(rng.integers(2**31)), r_rank=int(rng.integers(1, n + 1)))
        lam = 1j * rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 3)
        ep = gen_eigpair(p, int(rng.integers(2**31)), blocks, lam=lam)
        ep = EigenPair(ep.lam, ep.u1, crandn(rng, n), ep.u3)
        res = eta_sd(p, ep, blocks)
        if res.finite and not res.warnings:
            reconstruct_perturbation(p, ep, blocks, res)
