"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time

import numpy as np
import pytest

from dsmkit import (
    DEFAULT_TOL,
    DsmProblem,
    EigenPair,
    PHPencil,
    Type1Problem,
    dsdm_type1,
    dsdm_type2,
    dsm_solve,
    eta_s,
    eta_sd,
    experiment_table,
    gen_eigpair,
    gen_pencil,
    map_min,
    map_two_sided,
    oracle_eta,
    oracle_least_norm,
    oracle_min_structured,
    pinv,
    reconstruct_perturbation,
)
from dsmkit.io import sweep_rows_to_csv
from dsmkit.maps import StructureFamily as F
from helpers import (
    block_semidefinite,
    crandn,
    dsm_instance,
    dsm_instance_psd_spectrum,
    map_instance,
    semidefinite_by_eigs,
    two_sided_instance,
    type1_instance,
    type1_vec_instance,
    type2_instance,
)


def _report(num, desc):
    def deco(fn):
        import functools

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL  criterion {num}: {desc}")
                raise
            print(f"PASS  criterion {num}: {desc}")

        return wrapped

    return deco


@_report(1, "worked-example regression suite (1e-9 absolute)")
def test_criterion_1_worked_examples():
    tol = 1e-9
    sol = dsm_solve(F.HERMITIAN, DsmProblem([1], [1], [2], [1], [1], [1]))
    assert sol.exact and abs(sol.norm_upper - np.sqrt(2)) <= tol

    sol = dsm_solve(F.SKEW_HERMITIAN, DsmProblem([1], [1], [1 + 1j], [1], [1j], [1 - 2j]))
    assert sol.exact and abs(sol.norm_upper - np.sqrt(6)) <= tol

    sol = dsm_solve(F.PSD, DsmProblem([1], [1], [2], [1], [1], [1]))
    assert sol.exact and abs(sol.norm_upper - np.sqrt(2)) <= tol

    sol = dsdm_type2(DsmProblem([0], [1], [2], [1], [1], [2]))
    assert sol.exact and abs(sol.norm_upper - np.sqrt(5)) <= tol

    e1 = np.array([1.0, 0.0])
    t1 = dsdm_type1(Type1Problem(e1, e1, e1, e1))
    assert t1.feasible and abs(t1.min_norm - 1.0) <= tol
    from dsmkit import dsdm_type1_vec

    vec = dsdm_type1_vec(e1, e1, e1, e1)
    assert abs(vec.min_norm - 1.0) <= tol

    pencil = PHPencil(J=[[1j]], R=[[1]], E=[[1]], B=[[1]], S=[[1]])
    ep = EigenPair(1j, [1], [1], [0])
    res = eta_sd(pencil, ep, "JREB")
    assert res.finite
    assert abs(res.eta_lower - np.sqrt(3.5)) <= tol
    assert abs(res.eta_upper - 2.0) <= tol  # dR = 1, dJ = i, dE = 1, dB = 1
    orc = oracle_eta(pencil, ep, "JREB", "sd")
    assert abs(orc.value - 2.0) <= tol and orc.lower <= orc.value

    pencil0 = PHPencil(J=[[1j]], R=[[1]], E=[[1]], B=[[0]], S=[[1]])
    res = eta_sd(pencil0, ep, "JR")
    assert res.exact and abs(res.eta_lower - np.sqrt(5)) <= tol


@_report(2, "closed forms match the exact vectorized least-norm oracle (1e-8 rel, < 10 s)")
def test_criterion_2_closed_form_vs_exact_oracle():
    start = time.time()
    rng = np.random.default_rng(202)
    one_sided = [F.UNSTRUCTURED, F.HERMITIAN, F.SKEW_HERMITIAN, F.SYMMETRIC, F.SKEW_SYMMETRIC]
    for family in one_sided:
        for _ in range(100):
            n = int(rng.integers(2, 7))
            x, y = map_instance(family, rng, n)
            sol = map_min(family, x, y)
            assert sol.feasible
            _, oracle_norm = oracle_least_norm(
                [("mul", x, y)], None if family is F.UNSTRUCTURED else family
            )
            assert abs(sol.min_norm - oracle_norm) <= 1e-8 * max(1.0, oracle_norm)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(2, 7))
        x, y, z, w = two_sided_instance(rng, n, m)
        sol = map_two_sided(x, y, z, w)
        assert sol.feasible
        _, oracle_norm = oracle_least_norm([("mul", x, y), ("adj", z, w)], None)
        assert abs(sol.min_norm - oracle_norm) <= 1e-8 * max(1.0, oracle_norm)
    elapsed = time.time() - start
    assert elapsed < 10.0, f"criterion 2 took {elapsed:.1f}s"


@_report(3, "certified oracle neither undercuts nor exceeds certified-exact minima (1e-6 rel, 50/family)")
def test_criterion_3_minimality_no_undercut():
    rng = np.random.default_rng(303)

    def no_undercut(claimed, oracle_norm):
        assert oracle_norm * (1 - 1e-6) <= claimed <= oracle_norm * (1 + 1e-6), (oracle_norm, claimed)

    for family in (F.HERMITIAN, F.SKEW_HERMITIAN, F.SYMMETRIC, F.SKEW_SYMMETRIC):
        for _ in range(50):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(1, 3))
            p = dsm_instance(family, rng, n, m, exact=True)
            sol = dsm_solve(family, p)
            assert sol.exact
            _, onorm = oracle_min_structured(p, family)
            no_undercut(sol.norm_upper, onorm)

    for k in range(50):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 3))
        if k % 2:
            p = dsm_instance(F.PSD, rng, n, m, exact=True)  # colinearity condition
        else:
            p = dsm_instance_psd_spectrum(rng, n, m)  # numerical-range condition
        sol = dsm_solve(F.PSD, p)
        assert sol.exact
        _, onorm = oracle_min_structured(p, F.PSD)
        no_undercut(sol.norm_upper, onorm)

    for _ in range(50):
        p = dsm_instance(F.NSD, rng, int(rng.integers(2, 6)), int(rng.integers(1, 3)), exact=True)
        sol = dsm_solve(F.NSD, p)
        assert sol.exact
        _, onorm = oracle_min_structured(p, F.NSD)
        no_undercut(sol.norm_upper, onorm)

    for _ in range(50):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, n + 1))
        q, _member = type1_instance(rng, n, m)
        sol = dsdm_type1(q)
        assert sol.exact
        _, onorm = oracle_min_structured(q, F.DISSIPATIVE)
        no_undercut(sol.min_norm, onorm)

    from dsmkit import dsdm_type1_vec

    for _ in range(50):
        x, y, z, w = type1_vec_instance(rng, int(rng.integers(2, 6)))
        vec = dsdm_type1_vec(x, y, z, w)
        assert vec.feasible and vec.exact
        _, onorm = oracle_min_structured(Type1Problem(x, y, z, w), F.DISSIPATIVE)
        no_undercut(vec.min_norm, onorm)

    for _ in range(50):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 3))
        p = type2_instance(rng, n, m, exact=True)
        sol = dsdm_type2(p)
        assert sol.exact
        _, onorm = oracle_min_structured(p, F.DISSIPATIVE)
        no_undercut(sol.norm_upper, onorm)


@_report(4, "interpolation/membership over 200 random feasible instances per family")
def test_criterion_4_interpolation_membership():
    def audit(d, p, h1, kind):
        scale = max(1.0, np.linalg.norm(d) * np.linalg.norm(p.x) + np.linalg.norm(p.y))
        assert np.linalg.norm(d @ p.x - p.y) <= 1e-10 * scale
        assert np.linalg.norm(d.conj().T @ p.z - p.w) <= 1e-10 * scale
        s = max(1.0, np.linalg.norm(h1))
        if kind is F.HERMITIAN:
            assert np.linalg.norm(h1 - h1.conj().T) <= 1e-10 * s
        elif kind is F.SKEW_HERMITIAN:
            assert np.linalg.norm(h1 + h1.conj().T) <= 1e-10 * s
        elif kind is F.SYMMETRIC:
            assert np.linalg.norm(h1 - h1.T) <= 1e-10 * s
        elif kind is F.SKEW_SYMMETRIC:
            assert np.linalg.norm(h1 + h1.T) <= 1e-10 * s
        elif kind is F.PSD:
            assert np.linalg.eigvalsh((h1 + h1.conj().T) / 2)[0] >= -1e-8 * s
        elif kind is F.NSD:
            assert np.linalg.eigvalsh((h1 + h1.conj().T) / 2)[-1] <= 1e-8 * s
        else:  # dissipative square block
            assert np.linalg.eigvalsh(h1 + h1.conj().T)[0] >= -1e-8 * s

    for family in (F.HERMITIAN, F.SKEW_HERMITIAN, F.SYMMETRIC, F.SKEW_SYMMETRIC, F.PSD, F.NSD):
        rng = np.random.default_rng(hash(family.value) % 2**31 + 4)
        n_min = 2 if family is F.SKEW_SYMMETRIC else 1
        for k in range(200):
            n = int(rng.integers(n_min, 7))
            m = int(rng.integers(1, 4))
            p = dsm_instance(family, rng, n, m, exact=bool(k % 2))
            sol = dsm_solve(family, p)
            assert sol.feasible, sol.reason
            assert sol.norm_lower <= sol.norm_upper + 1e-12
            audit(sol.H, p, sol.H1, family)

    rng = np.random.default_rng(404)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, n + 1))
        q, _ = type1_instance(rng, n, m)
        sol = dsdm_type1(q)
        assert sol.feasible
        h = sol.minimizer
        assert np.linalg.norm(h @ q.X - q.Y) <= 1e-10 * max(1.0, np.linalg.norm(h) * np.linalg.norm(q.X))
        assert np.linalg.norm(h.conj().T @ q.Z - q.W) <= 1e-10 * max(1.0, np.linalg.norm(h) * np.linalg.norm(q.Z))
        assert np.linalg.eigvalsh(h + h.conj().T)[0] >= -1e-8 * max(1.0, np.linalg.norm(h))

    for k in range(200):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        p = type2_instance(rng, n, m, exact=bool(k % 3 == 0))
        sol = dsdm_type2(p)
        assert sol.feasible, sol.reason
        assert sol.norm_lower <= sol.norm_upper + 1e-12
        audit(sol.H, p, sol.H1, F.DISSIPATIVE)


def _pencil_for_combo(blocks, seed, n=3, m=2):
    if blocks in ("JB", "EB", "JEB"):
        return gen_pencil(n, m, seed=seed, r_rank=n - 1)
    return gen_pencil(n, m, seed=seed)


@_report(5, "backward-error oracle sandwich + reconstruction (50 per combination)")
def test_criterion_5_backward_error_sandwich():
    combos = [
        ("JR", "sd"), ("RB", "sd"), ("RE", "sd"), ("JRE", "sd"),
        ("JRB", "sd"), ("REB", "sd"), ("JREB", "sd"),
        ("JB", "s"), ("RB", "s"), ("EB", "s"), ("JEB", "s"),
    ]
    for blocks, variant in combos:
        compute = eta_sd if variant == "sd" else eta_s
        for i in range(50):
            pencil = _pencil_for_combo(blocks, seed=1000 + 7 * i)
            ep = gen_eigpair(pencil, 2000 + i, blocks)
            res = compute(pencil, ep, blocks)
            assert res.finite, (blocks, variant, i)
            assert res.eta_lower <= res.eta_upper + 1e-12
            oracle = oracle_eta(pencil, ep, blocks, variant)
            assert oracle.converged, (blocks, variant, i)
            assert res.eta_lower - 1e-4 <= oracle.value <= res.eta_upper + 1e-4, (
                blocks, variant, i, res.eta_lower, oracle.value, res.eta_upper)
            # reconstruction (raises on residual/invariant failure)
            pb = reconstruct_perturbation(pencil, ep, blocks, res)
            m_mat, n_mat = pencil.assemble()
            dm, dn = pb.delta_mn(pencil.n, pencil.m)
            resid = ((m_mat - dm) + ep.lam * (n_mat - dn)) @ ep.u
            scale = (np.linalg.norm(m_mat) + abs(ep.lam) * np.linalg.norm(n_mat)) * np.linalg.norm(ep.u)
            assert np.linalg.norm(resid) <= 1e-10 * scale
            assert pb.norm() == pytest.approx(res.eta_upper, rel=1e-10)  # every selection: one split rule


@_report(6, "preliminary-lemma suite (block PSD, shared-range, trace sign, monotonicity)")
def test_criterion_6_lemma_suite():
    rng = np.random.default_rng(606)
    # block test == eigenvalue test, 100 Hermitian matrices, every split
    for _ in range(100):
        n = int(rng.integers(4, 9))
        g = crandn(rng, n, n)
        r = g @ g.conj().T
        if rng.uniform() < 0.4:
            r = r - np.eye(n) * rng.uniform(0.0, 2.0) * np.linalg.norm(r) / n
        r = (r + r.conj().T) / 2
        full = semidefinite_by_eigs(r)
        for s in range(1, n):
            assert block_semidefinite(r[:s, :s], r[s:, :s], r[s:, s:]) == full

    # shared-range pseudoinverse identity, 50 cases, 1e-10
    for _ in range(50):
        n, m = 6, 3
        x = crandn(rng, n, m)
        u, sv, _ = np.linalg.svd(x)
        rank = int(np.sum(sv > DEFAULT_TOL.rank_tol * sv[0]))
        u1 = u[:, :rank]
        d = np.diag(rng.uniform(0.5, 2.0, rank))
        q = np.linalg.qr(crandn(rng, m, rank))[0]
        z = u1 @ d @ q.conj().T
        y = crandn(rng, n, m)
        w = np.linalg.lstsq(x.conj().T, y.conj().T @ z, rcond=None)[0]
        yxd = y @ pinv(x)
        wzd = w @ pinv(z)
        for sign in (+1, -1):
            lhs = u1.conj().T @ (yxd + sign * yxd.conj().T) @ u1
            rhs = u1.conj().T @ (yxd + sign * wzd) @ u1
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(1.0, np.linalg.norm(lhs))

    # trace sign for 100 left-shifted pairs (Hermitian-part shift: the
    # spectrum-only version of the statement is false, see the ledger)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        a = crandn(rng, n, n)
        shift = max(float(np.linalg.eigvalsh((a + a.conj().T) / 2)[-1]), 0.0)
        a = a - (shift + 1e-6) * np.eye(n)
        assert np.linalg.eigvals(a).real.max() <= 0.0
        g = crandn(rng, n, n)
        b = g @ g.conj().T
        assert np.trace(a @ b).real <= 1e-10 * max(1.0, np.linalg.norm(a) * np.linalg.norm(b))

    # norm monotonicity under the semidefinite order, 100 cases
    for _ in range(100):
        n = int(rng.integers(2, 6))
        g1, g2 = crandn(rng, n, n), crandn(rng, n, n)
        b = g1 @ g1.conj().T
        assert np.linalg.norm(b + g2 @ g2.conj().T) >= np.linalg.norm(b) - 1e-12


@_report(7, "seeded lambda sweep: 7 finite rows, ordered bounds, CSV, < 5 s")
def test_criterion_7_table_shaped_sweep(tmp_path):
    start = time.time()
    pencil = gen_pencil(4, 2, seed=42)
    lams = [0.138j, 0.51j, 0.895j, 1.048j, 1.321j, 1.908j, 2.508j]
    rows = experiment_table(pencil, lams, ep_seed=7, blocks="JREB")
    assert len(rows) == 7
    for row in rows:
        assert row["finite"], row
        assert row["eta_lower"] <= row["eta_upper"] + 1e-12
    csv_text = sweep_rows_to_csv(rows)
    out = tmp_path / "sweep.csv"
    out.write_text(csv_text)
    assert out.exists() and len(csv_text.strip().splitlines()) == 8
    elapsed = time.time() - start
    assert elapsed < 5.0, f"criterion 7 took {elapsed:.1f}s"
