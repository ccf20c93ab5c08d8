"""Each benchmark checker accepts a real output and rejects a corrupted one."""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import checks as ck  # noqa: E402
import workloads as wl  # noqa: E402
from checks import CheckError  # noqa: E402

import dsmkit  # noqa: E402


def _dsm_output(case):
    return wl.normalize("dsm_solve", dsmkit.dsm_solve(case["family"], wl._problem(case)))


@pytest.mark.parametrize("family", ["hermitian", "skew-symmetric", "psd"])
def test_mapping_rejects_one_perturbed_entry(family):
    rng = np.random.default_rng(3)
    case = wl.two_block_case(rng, family, 8, 2, "exact")
    out = _dsm_output(case)
    ck.check_mapping(case, out, rng)
    bad = dict(out, H=out["H"].copy())
    bad["H"][1, 2] += 1e-3 * ck.fro(out["H"])
    with pytest.raises(CheckError):
        ck.check_mapping(case, bad, rng)


def test_mapping_rejects_wrong_verdict_and_norms():
    rng = np.random.default_rng(4)
    case = wl.two_block_case(rng, "hermitian", 8, 2)
    out = _dsm_output(case)
    ck.check_mapping(case, out, rng)
    for bad in (dict(out, feasible=False), dict(out, upper=out["upper"] * 1.01),
                dict(out, lower=out["upper"] * 1.01)):
        with pytest.raises(CheckError):
            ck.check_mapping(case, bad, rng)


def test_mapping_rejects_indefinite_psd_block():
    rng = np.random.default_rng(5)
    case = wl.one_sided_case(rng, "psd", 6)
    out = wl.normalize("map_min", dsmkit.map_min("psd", case["x"], case["y"]))
    ck.check_mapping(case, out, rng)
    # a Hermitian indefinite block with the same action on x
    p = np.eye(6) - np.outer(case["x"], case["x"].conj()) / np.vdot(case["x"], case["x"]).real
    k = p @ np.diag([-5.0, 0, 0, 0, 0, 0]) @ p
    bad = dict(out, H=out["H"] + k)
    bad["upper"] = bad["lower"] = ck.fro(bad["H"])
    with pytest.raises(CheckError, match="cone"):
        ck.check_mapping(case, bad, rng)


def test_minimality_rejects_a_feasible_non_minimal_point():
    rng = np.random.default_rng(6)
    case = wl.two_block_case(rng, "hermitian", 8, 2, "exact")
    out = _dsm_output(case)
    n = case["n"]
    k = ck.tangent_two_block(rng, "hermitian", case["x"][:n], case["x"][n:], case["z"])
    ck.check_orthogonal(out["H"], k)
    h = out["H"] + 0.3 * k  # still feasible and structured, no longer minimal
    ck.check_mapping(case, dict(out, H=h, upper=ck.fro(h), exact=False), rng)
    with pytest.raises(CheckError, match="minimal"):
        ck.check_orthogonal(h, k)


def _row_setup(blocks="JRB", variant="sd"):
    P = dsmkit.gen_pencil(6, 2, 1, r_rank=3)
    ep = dsmkit.gen_eigpair(P, 2, blocks)
    eta = dsmkit.eta_sd if variant == "sd" else dsmkit.eta_s
    return P, ep, eta(P, ep, blocks)


def test_bounds_reject_lower_above_upper():
    ck.check_bounds(1.0, 2.0)
    with pytest.raises(CheckError, match="order"):
        ck.check_bounds(2.0, 1.0)
    with pytest.raises(CheckError, match="finite"):
        ck.check_bounds(1.0, float("inf"))


def test_rebuilt_row_rejects_perturbed_block_and_indefinite_dr():
    P, ep, res = _row_setup()
    pd = wl.pencil_dict(P)
    ck.check_rebuilt_row(pd, res.H1, res.H2, ep.lam, ep.u, "JRB", "sd",
                         res.eta_lower, res.eta_upper, res.exact)
    h1 = res.H1.copy()
    h1[0, 1] += 1e-3 * ck.fro(h1)
    with pytest.raises(CheckError):
        ck.check_rebuilt_row(pd, h1, res.H2, ep.lam, ep.u, "JRB", "sd",
                             res.eta_lower, res.eta_upper, res.exact)
    dJ, dR, dE = ck.split_square_block(res.H1, "JRB", ep.lam)
    ck.check_perturbation(pd, dJ, dR, dE, res.H2, ep.lam, ep.u, "JRB", "sd")
    # a negative direction q orthogonal to u1 and u2 leaves (L - dL)(lam) u unchanged
    n = P.n
    u12 = np.column_stack([ep.u[:n], ep.u[n:2 * n]])
    q = np.linalg.svd(u12.conj().T)[2][-1].conj()
    assert np.abs(u12.conj().T @ q).max() < 1e-12
    bad_dR = dR - (2 * ck.fro(dR) + 1) * np.outer(q, q.conj())
    assert ck.pencil_residual(pd, dJ, bad_dR, dE, res.H2, ep.lam, ep.u[:n], ep.u[n:2 * n], ep.u[2 * n:]) \
        <= ck.TOL
    with pytest.raises(CheckError, match="dR_psd"):
        ck.check_perturbation(pd, dJ, bad_dR, dE, res.H2, ep.lam, ep.u, "JRB", "sd")


def test_rebuilt_row_rejects_a_wrong_exact_norm():
    P, ep, res = _row_setup("JEB", "s")
    pd = wl.pencil_dict(P)
    ck.check_rebuilt_row(pd, res.H1, res.H2, ep.lam, ep.u, "JEB", "s",
                         res.eta_lower, res.eta_upper, res.exact)
    with pytest.raises(CheckError, match="rebuilt_vs"):
        ck.check_rebuilt_row(pd, res.H1, res.H2, ep.lam, ep.u, "JEB", "s",
                             res.eta_lower * 1.1, res.eta_upper * 1.1, True)


def test_rows_reject_errors_and_bad_bounds():
    lams = [0.5j, -1.0j]
    good = [{"lam": lam, "finite": True, "eta_lower": 1.0, "eta_upper": 2.0, "error": ""} for lam in lams]
    ck.check_rows(good, lams)
    for change in ({"error": "boom"}, {"eta_lower": 3.0}, {"finite": False}):
        rows = [dict(good[0], **change), good[1]]
        with pytest.raises(CheckError):
            ck.check_rows(rows, lams)
    with pytest.raises(CheckError, match="row_count"):
        ck.check_rows(good[:1], lams)


def test_scaling_rejects_a_changed_eta():
    ck.check_scaling((1.0, 2.0), (2.5, 5.0), 2.5, "scale")
    with pytest.raises(CheckError, match="scale"):
        ck.check_scaling((1.0, 2.0), (2.5, 4.0), 2.5, "scale")


def test_pencil_blocks_reject_indefinite_s():
    P = dsmkit.gen_pencil(5, 2, 0)
    pd = wl.pencil_dict(P)
    ck.check_pencil_blocks(pd)
    with pytest.raises(CheckError):
        ck.check_pencil_blocks(dict(pd, S=-pd["S"]))
    with pytest.raises(CheckError):
        ck.check_pencil_blocks(dict(pd, J=pd["J"] + np.eye(5)))
