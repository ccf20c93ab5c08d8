import os
import sys
import tracemalloc

import numpy as np
import pytest

from dense_reference import null_projector
from dsmkit import (
    DEFAULT_TOL,
    DsmProblem,
    ScalarProduct,
    ToleranceConfig,
    Type1Problem,
    dsdm_type1,
    dsdm_type1_vec,
    dsdm_type2,
    dsm_characterize,
    dsm_characterize_type2,
    dsm_solve,
    jordan_lie_reduce,
    map_characterize,
    map_min,
    pinv,
)
from dsmkit.errors import (
    ConstraintViolationError,
    DegenerateInputError,
    NonFiniteEntriesError,
    NotColinearError,
    StructureError,
)
from dsmkit.maps import StructureFamily as F
from helpers import (
    NON_FINITE,
    crandn,
    dsm_instance,
    dsm_instance_psd_spectrum,
    type1_instance,
    type1_vec_instance,
    type2_instance,
    watch_linalg,
)

ALL_DSM = [F.HERMITIAN, F.SKEW_HERMITIAN, F.SYMMETRIC, F.SKEW_SYMMETRIC, F.PSD, F.NSD]


def test_hermitian_worked_example():
    p = DsmProblem([1], [1], [2], [1], [1], [1])
    sol = dsm_solve(F.HERMITIAN, p)
    assert sol.feasible and sol.exact
    assert np.allclose(sol.H1, [[1.0]]) and np.allclose(sol.H2, [[1.0]])
    assert sol.norm_upper == pytest.approx(np.sqrt(2), abs=1e-12)
    assert sol.norm_lower == pytest.approx(sol.norm_upper)


def test_skew_hermitian_worked_example():
    p = DsmProblem([1], [1], [1 + 1j], [1], [1j], [1 - 2j])
    sol = dsm_solve(F.SKEW_HERMITIAN, p)
    assert sol.feasible and sol.exact
    assert np.allclose(sol.H1, [[-1j]]) and np.allclose(sol.H2, [[1 + 2j]])
    assert sol.norm_upper == pytest.approx(np.sqrt(6), abs=1e-12)
    d = sol.H
    assert np.allclose(d @ p.x, p.y) and np.allclose(d.conj().T @ p.z, p.w)


def test_psd_worked_example_and_infeasible():
    p = DsmProblem([1], [1], [2], [1], [1], [1])
    sol = dsm_solve(F.PSD, p)
    assert sol.feasible and sol.exact
    assert np.allclose(sol.H1, [[1.0]]) and np.allclose(sol.H2, [[1.0]])
    assert sol.norm_upper == pytest.approx(np.sqrt(2), abs=1e-12)
    bad = DsmProblem([1], [1], [2], [1], [1j], [1])
    assert not dsm_solve(F.HERMITIAN, bad).feasible


def test_degenerate_inputs():
    with pytest.raises(DegenerateInputError):
        dsm_solve(F.HERMITIAN, DsmProblem([1], [1], [1], [0], [1], [1]))
    with pytest.raises(DegenerateInputError):
        dsm_solve(F.HERMITIAN, DsmProblem([1], [0], [1], [1], [1], [1]))
    with pytest.raises(DegenerateInputError):
        dsm_solve(F.PSD, DsmProblem([1], [1], [1], [1], [1], [0]))


@pytest.mark.parametrize("family", ALL_DSM)
def test_interpolation_and_membership(family):
    rng = np.random.default_rng(hash(family.value) % 2**31)
    # 1x1 skew-symmetric matrices are zero, so that family needs n >= 2
    n_min = 2 if family is F.SKEW_SYMMETRIC else 1
    for k in range(40):
        n = int(rng.integers(n_min, 7))
        m = int(rng.integers(1, 4))
        p = dsm_instance(family, rng, n, m, exact=bool(k % 2))
        sol = dsm_solve(family, p)
        assert sol.feasible, sol.reason
        d = sol.H
        scale = max(1.0, np.linalg.norm(d) * np.linalg.norm(p.x) + np.linalg.norm(p.y))
        assert np.linalg.norm(d @ p.x - p.y) <= 1e-10 * scale
        assert np.linalg.norm(d.conj().T @ p.z - p.w) <= 1e-10 * scale
        h1 = sol.H1
        s = max(1.0, np.linalg.norm(h1))
        if family is F.HERMITIAN:
            assert np.linalg.norm(h1 - h1.conj().T) <= 1e-10 * s
        elif family is F.SKEW_HERMITIAN:
            assert np.linalg.norm(h1 + h1.conj().T) <= 1e-10 * s
        elif family is F.SYMMETRIC:
            assert np.linalg.norm(h1 - h1.T) <= 1e-10 * s
        elif family is F.SKEW_SYMMETRIC:
            assert np.linalg.norm(h1 + h1.T) <= 1e-10 * s
        elif family is F.PSD:
            assert np.linalg.eigvalsh((h1 + h1.conj().T) / 2)[0] >= -1e-8 * s
        else:
            assert np.linalg.eigvalsh((h1 + h1.conj().T) / 2)[-1] <= 1e-8 * s
        assert sol.norm_lower <= sol.norm_upper + 1e-12
        if k % 2:
            assert sol.exact and sol.norm_lower == pytest.approx(sol.norm_upper)


def test_psd_numerical_range_exactness():
    rng = np.random.default_rng(23)
    for _ in range(10):
        p = dsm_instance_psd_spectrum(rng, 4, 2)
        sol = dsm_solve(F.PSD, p)
        assert sol.feasible and sol.exact
        assert "numerical range" in sol.sufficiency_note
        assert sol.diagnostics["rightmost_real_part"] <= 1e-8


@pytest.mark.parametrize("n", [1, 2, 16])
def test_psd_diagnostic_closed_forms_match_eigensolvers(n):
    from dsmkit.dsm import _rank_one_rightmost

    rng = np.random.default_rng(n)
    x = crandn(rng, n)
    for a in (crandn(rng, n), crandn(rng) * x, -x + 1e-9 * crandn(rng, n), np.zeros(n, complex)):
        m = np.outer(a, x.conj())
        rightmost, herm_right = _rank_one_rightmost(a, x, np.linalg.norm(a), np.linalg.norm(x))
        scale = max(np.linalg.norm(a) * np.linalg.norm(x), 1e-300)
        assert abs(rightmost - np.max(np.linalg.eigvals(m).real)) <= 1e-12 * scale
        assert abs(herm_right - np.linalg.eigvalsh((m + m.conj().T) / 2)[-1]) <= 1e-12 * scale


def test_psd_diagnostics_keep_their_keys():
    rng = np.random.default_rng(23)
    sol = dsm_solve(F.PSD, dsm_instance_psd_spectrum(rng, 16, 3))
    for key in ("left_spectrum_factors", "rightmost_real_part", "rightmost_numerical_range"):
        assert key in sol.diagnostics
    a, x1 = sol.diagnostics["left_spectrum_factors"]
    m = np.outer(a, x1.conj())
    assert sol.diagnostics["rightmost_numerical_range"] == pytest.approx(
        np.linalg.eigvalsh((m + m.conj().T) / 2)[-1], abs=1e-12 * np.linalg.norm(m)
    )


def test_nsd_reflection():
    rng = np.random.default_rng(29)
    p = dsm_instance(F.NSD, rng, 4, 2, exact=True)
    sol = dsm_solve(F.NSD, p)
    assert sol.feasible
    d = sol.H
    assert np.linalg.norm(d @ p.x - p.y) <= 1e-10 * max(1.0, np.linalg.norm(p.y))
    assert np.linalg.eigvalsh((sol.H1 + sol.H1.conj().T) / 2)[-1] <= 1e-10
    bad = dsm_instance(F.PSD, rng, 3, 2)  # z*w1 > 0 makes the NSD problem infeasible
    assert not dsm_solve(F.NSD, bad).feasible


def test_characterize_base_point_and_audit():
    rng = np.random.default_rng(31)
    for family in ALL_DSM:
        n, m = 4, 2
        p = dsm_instance(family, rng, n, m)
        sol = dsm_solve(family, p)
        base = dsm_characterize(family, p, np.zeros((n, n)), np.zeros((n, m)))
        assert np.linalg.norm(base - sol.H) <= 1e-12 * max(1.0, sol.norm_upper)
        for _ in range(10):
            k = crandn(rng, n, n)
            if family is F.HERMITIAN:
                k = k + k.conj().T
            elif family is F.SKEW_HERMITIAN:
                k = k - k.conj().T
            elif family is F.SYMMETRIC:
                k = k + k.T
            elif family is F.SKEW_SYMMETRIC:
                k = k - k.T
            else:
                k = k @ k.conj().T
            r = crandn(rng, n, m)
            d = dsm_characterize(family, p, k, r)
            scale = max(1.0, np.linalg.norm(d) * np.linalg.norm(p.x) + np.linalg.norm(p.y))
            assert np.linalg.norm(d @ p.x - p.y) <= 1e-9 * scale
            assert np.linalg.norm(d.conj().T @ p.z - p.w) <= 1e-9 * scale
            assert np.linalg.norm(d) >= sol.norm_upper - 1e-9 if sol.exact else True


def test_characterize_one_dimensional_projector_degeneracy():
    # n = 1 makes P_z = 0, so the K-term cannot move the solution
    p = DsmProblem([1], [1], [2], [1], [1], [1])
    d = dsm_characterize(F.HERMITIAN, p, np.eye(1), np.zeros((1, 1)))
    sol = dsm_solve(F.HERMITIAN, p)
    assert np.allclose(d, sol.H)


def test_characterize_rejects_bad_k():
    rng = np.random.default_rng(37)
    p = dsm_instance(F.HERMITIAN, rng, 3, 2)
    with pytest.raises(ConstraintViolationError):
        dsm_characterize(F.HERMITIAN, p, crandn(rng, 3, 3), np.zeros((3, 2)))


def test_characterize_completeness_spot():
    # build a member from admissible parameters, re-solve, recover parameters
    rng = np.random.default_rng(41)
    n, m = 4, 2
    p = dsm_instance(F.HERMITIAN, rng, n, m)
    k = crandn(rng, n, n)
    k = k + k.conj().T
    r = crandn(rng, n, m)
    member = dsm_characterize(F.HERMITIAN, p, k, r)
    sol = dsm_solve(F.HERMITIAN, p)
    # the K-component of the member is P_z (member1 - H1) P_z up to kernel
    pz = null_projector(p.z)
    k_eff = pz @ (member[:, :n] - sol.H1) @ pz
    rebuilt = dsm_characterize(F.HERMITIAN, p, k_eff, r)
    # R enters only through P_z R P_x2, recover similarly
    assert np.linalg.norm(rebuilt[:, :n] - member[:, :n]) <= 1e-10 * max(1.0, np.linalg.norm(member))


# ---------------------------------------------------------------------------
# dissipative types


def test_type1_worked_example():
    e1 = np.array([1.0, 0.0])
    q = Type1Problem(e1, e1, e1, e1)
    sol = dsdm_type1(q)
    assert sol.feasible and sol.exact
    assert sol.min_norm == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(sol.minimizer, np.outer(e1, e1))
    vec = dsdm_type1_vec(e1, e1, e1, e1)
    assert vec.min_norm == pytest.approx(1.0, abs=1e-12)


def test_type1_infeasible():
    e1 = np.array([1.0, 0.0])
    sol = dsdm_type1(Type1Problem(e1, -e1, e1, -e1))
    assert not sol.feasible and "XY_plus_YX_psd" in sol.reason


def test_type1_constructive_oracle():
    rng = np.random.default_rng(43)
    for _ in range(20):
        n, m = 5, 2
        q, member = type1_instance(rng, n, m)
        sol = dsdm_type1(q)
        assert sol.feasible and sol.hypothesis_ok
        h = sol.minimizer
        assert np.linalg.norm(h @ q.X - q.Y) <= 1e-9 * max(1.0, np.linalg.norm(q.Y))
        assert np.linalg.norm(h.conj().T @ q.Z - q.W) <= 1e-9 * max(1.0, np.linalg.norm(q.W))
        assert np.linalg.eigvalsh(h + h.conj().T)[0] >= -1e-8 * max(1.0, np.linalg.norm(h))
        assert sol.min_norm <= np.linalg.norm(member) + 1e-9
        assert np.linalg.eigvalsh((sol.gram + sol.gram.conj().T) / 2)[0] >= -1e-10
        assert sol.min_norm**2 == pytest.approx(sol.diagnostics["norm_identity_sq"], rel=1e-10)


def test_type1_anti_variant():
    rng = np.random.default_rng(47)
    q, member = type1_instance(rng, 4, 2)
    anti = Type1Problem(q.X, -q.Y, q.Z, -q.W)
    sol = dsdm_type1(anti, anti=True)
    assert sol.feasible
    h = sol.minimizer
    assert np.linalg.norm(h @ q.X + q.Y) <= 1e-9 * max(1.0, np.linalg.norm(q.Y))
    assert np.linalg.eigvalsh(h + h.conj().T)[-1] <= 1e-8 * max(1.0, np.linalg.norm(h))


def test_type1_hypothesis_violation_flagged():
    rng = np.random.default_rng(53)
    n, m = 4, 2
    x = crandn(rng, n, m)
    z = crandn(rng, n, m)  # ranges differ
    s = crandn(rng, n, n)
    s = s - s.conj().T
    g = crandn(rng, n, n)
    member = s + 0.5 * (g @ g.conj().T)
    q = Type1Problem(x, member @ x, z, member.conj().T @ z)
    sol = dsdm_type1(q)
    assert not sol.hypothesis_ok and not sol.exact
    assert sol.warnings


def test_type1_vec_consistency_with_matrix_case():
    rng = np.random.default_rng(59)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        x, y, z, w = type1_vec_instance(rng, n)
        vec = dsdm_type1_vec(x, y, z, w)
        mat = dsdm_type1(Type1Problem(x, y, z, w))
        assert vec.feasible == mat.feasible
        if vec.feasible:
            assert vec.min_norm == pytest.approx(mat.min_norm, rel=1e-10)
            assert np.linalg.norm(vec.minimizer - mat.minimizer) <= 1e-10 * max(1.0, vec.min_norm)


@pytest.mark.parametrize("n", [3, 8, 32])
@pytest.mark.parametrize("anti", [False, True])
def test_type1_on_one_column_equals_the_vector_case(n, anti):
    # the Gram block of the matrix solver is basis-free: P_x gram P_x, as the vector solver returns it
    x, y, z, w = type1_vec_instance(np.random.default_rng(61 + n), n)
    if anti:
        y, w = -y, -w
    vec = dsdm_type1_vec(x, y, z, w, anti=anti)
    mat = dsdm_type1(Type1Problem(x, y, z, w), anti=anti)
    assert vec.feasible and mat.feasible
    assert mat.min_norm == pytest.approx(vec.min_norm, rel=1e-12)
    for a, b in ((mat.minimizer, vec.minimizer), (mat.gram, vec.gram)):
        assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)


@pytest.mark.parametrize("n,m,definite", [(3, 1, True), (5, 2, True), (6, 3, False), (16, 4, True)])
def test_type1_gram_is_a_psd_block_on_the_complement_of_range_x(n, m, definite):
    q, _ = type1_instance(np.random.default_rng(67 + n), n, m, definite=definite)
    sol = dsdm_type1(q)
    gram, tol = sol.gram, DEFAULT_TOL.residual_tol
    assert sol.feasible and gram.shape == (n, n)
    scale = np.linalg.norm(gram)
    assert np.linalg.norm(gram - gram.conj().T) <= tol * scale
    assert np.linalg.eigvalsh((gram + gram.conj().T) / 2)[0] >= -tol * scale
    assert np.linalg.norm(q.X.conj().T @ gram) <= tol * scale * np.linalg.norm(q.X)
    assert np.linalg.norm(gram @ q.X) <= tol * scale * np.linalg.norm(q.X)


@pytest.mark.parametrize("n,m", [(1, 1), (3, 3), (3, 5)])
@pytest.mark.parametrize("anti", [False, True])
def test_type1_gram_is_zero_when_x_has_full_row_rank(n, m, anti):
    # range(X) is all of C^n, so U2 is empty: the Gram block is 0 exactly, not rounding
    q, member = type1_instance(np.random.default_rng(73 + n + m), n, m)
    sign = -1.0 if anti else 1.0
    q = Type1Problem(q.X, sign * q.Y, q.Z, sign * q.W)
    sol = dsdm_type1(q, anti=anti)
    assert sol.feasible and sol.exact
    assert sol.gram.shape == (n, n) and np.all(sol.gram == 0)
    # Delta X = Y with X of full row rank has one solution
    assert np.linalg.norm(sol.minimizer - sign * member) <= 1e-10 * np.linalg.norm(member)
    if m == 1:
        vec = dsdm_type1_vec(q.X[:, 0], q.Y[:, 0], q.Z[:, 0], q.W[:, 0], anti=anti)
        assert vec.feasible and np.all(vec.gram == 0)


def test_type1_takes_only_thin_decompositions(monkeypatch):
    n, m = 64, 3
    q, member = type1_instance(np.random.default_rng(71), n, m)
    seen = watch_linalg(monkeypatch)
    sol = dsdm_type1(q)
    assert sol.feasible and sol.exact and sol.min_norm <= np.linalg.norm(member)
    assert [c for c in seen if c[2]] == []  # no SVD with full matrices
    assert [c for c in seen if min(c[1][-2:]) > m] == []  # nothing n x n


def _type1_data(rng, n, m):
    """Feasible (X, Y, X, W) with Y = D X, W = D* X for D = A B* - B A* + G G*/2, D not formed."""
    a, b, g, x = crandn(rng, n, 2), crandn(rng, n, 2), crandn(rng, n, m), crandn(rng, n, m)
    skew = a @ (b.conj().T @ x) - b @ (a.conj().T @ x)
    psd = 0.5 * g @ (g.conj().T @ x)
    return x, skew + psd, x, psd - skew


@pytest.mark.parametrize("vec,m", [(False, 1), (False, 4), (True, 1)])
def test_type1_keeps_no_n_by_n_temporary(vec, m):
    # minimizer and gram are held as factors of at most 3m columns: nothing n x n until one is read
    n = 1024
    x, y, z, w = _type1_data(np.random.default_rng(73), n, m)
    if vec:
        alpha = 0.6 - 1.3j
        x, y, z, w = x[:, 0], y[:, 0], alpha * z[:, 0], alpha * w[:, 0]
    solve = (lambda: dsdm_type1_vec(x, y, z, w)) if vec else (lambda: dsdm_type1(Type1Problem(x, y, z, w)))
    tracemalloc.start()
    try:
        sol = solve()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sol.feasible and sol.exact
    assert peak <= 64 * n * m * 16, f"traced peak {peak / (n * 16):.1f} complex vectors of length n"


def test_type1_vec_errors():
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    with pytest.raises(NotColinearError):
        dsdm_type1_vec(e1, e1, e2, e1)
    sol = dsdm_type1_vec(e1, -e1, e1, -e1)
    assert not sol.feasible and "XY_plus_YX_psd" in sol.reason


def test_type2_worked_example():
    p = DsmProblem([0], [1], [2], [1], [1], [2])
    sol = dsdm_type2(p)
    assert sol.feasible and sol.exact
    assert np.allclose(sol.H1, [[1.0]]) and np.allclose(sol.H2, [[2.0]])
    assert sol.norm_upper == pytest.approx(np.sqrt(5), abs=1e-12)
    d = sol.H
    assert np.allclose(d @ p.x, [2.0]) and np.allclose(d.conj().T @ p.z, [1.0, 2.0])


def test_type2_infeasible_negative_re():
    p = DsmProblem([0], [1], [-2], [1], [-1], [-2])
    sol = dsdm_type2(p)
    assert not sol.feasible and "Re(z*w1)" in sol.reason


def test_type2_feasible_point_and_bracket():
    rng = np.random.default_rng(61)
    for k in range(30):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        p = type2_instance(rng, n, m, exact=bool(k % 2))
        sol = dsdm_type2(p)
        assert sol.feasible, sol.reason
        d = sol.H
        scale = max(1.0, np.linalg.norm(d) * np.linalg.norm(p.x) + np.linalg.norm(p.y))
        assert np.linalg.norm(d @ p.x - p.y) <= 1e-10 * scale
        assert np.linalg.norm(d.conj().T @ p.z - p.w) <= 1e-10 * scale
        assert np.linalg.eigvalsh(sol.H1 + sol.H1.conj().T)[0] >= -1e-8 * max(1.0, np.linalg.norm(sol.H1))
        assert sol.norm_lower <= sol.norm_upper + 1e-12
        if k % 2:
            assert sol.exact


def test_type2_paper_condition_not_certified():
    rng = np.random.default_rng(67)
    p = type2_instance(rng, 3, 2, paper_exact_only=True)
    sol = dsdm_type2(p)
    assert sol.feasible and not sol.exact
    assert any("not certified" in w for w in sol.warnings)


def test_type2_anti_variant():
    rng = np.random.default_rng(71)
    p = type2_instance(rng, 3, 2)
    refl = DsmProblem(p.x1, p.x2, -p.y, p.z, -p.w1, -p.w2)
    sol = dsdm_type2(refl, anti=True)
    assert sol.feasible
    assert np.linalg.eigvalsh(sol.H1 + sol.H1.conj().T)[-1] <= 1e-8 * max(1.0, np.linalg.norm(sol.H1))


def test_characterize_type2():
    rng = np.random.default_rng(73)
    p = type2_instance(rng, 4, 2)
    n, m = 4, 2
    # base point of the proof: Z = -2 (w1 z+)*, K = 0, G = 0, R = 0
    zd = pinv(p.z)
    zpar = -2.0 * np.outer(p.w1, zd).conj().T
    base = dsm_characterize_type2(p, zpar, np.zeros((n, n)), np.zeros((n, n)), np.zeros((n, m)))
    sol = dsdm_type2(p)
    assert np.linalg.norm(base - sol.H) <= 1e-10 * max(1.0, sol.norm_upper)
    # missing Schur margin must be rejected
    with pytest.raises(ConstraintViolationError) as err:
        dsm_characterize_type2(p, np.zeros((n, n)), np.zeros((n, n)), np.zeros((n, n)), np.zeros((n, m)))
    assert err.value.constraint == "K_shifted_psd"
    # audit random admissible tuples
    for _ in range(15):
        z = crandn(rng, n, n)
        g = crandn(rng, n, n)
        g = g - g.conj().T
        l = crandn(rng, n, n)
        q = 2 * p.w1 + z.conj().T @ p.z
        k = np.outer(q, q.conj()) / (4 * np.vdot(p.z, p.w1).real) + l @ l.conj().T
        r = crandn(rng, n, m)
        d = dsm_characterize_type2(p, z, k, g, r)
        scale = max(1.0, np.linalg.norm(d) * np.linalg.norm(p.x) + np.linalg.norm(p.y))
        assert np.linalg.norm(d @ p.x - p.y) <= 1e-9 * scale
        assert np.linalg.norm(d.conj().T @ p.z - p.w) <= 1e-9 * scale
        d1 = d[:, :n]
        assert np.linalg.eigvalsh(d1 + d1.conj().T)[0] >= -1e-8 * max(1.0, np.linalg.norm(d1))
        assert np.linalg.norm(d) >= sol.norm_lower - 1e-9


# ---------------------------------------------------------------------------
# scalar-product reduction


def test_identity_sesquilinear_jordan_equals_hermitian():
    rng = np.random.default_rng(79)
    p = dsm_instance(F.HERMITIAN, rng, 3, 2, exact=True)
    sp = ScalarProduct(np.eye(3), "sesquilinear", "jordan")
    red = jordan_lie_reduce(sp, p)
    direct = dsm_solve(F.HERMITIAN, p)
    assert red.feasible and direct.feasible
    assert np.linalg.norm(red.H - direct.H) <= 1e-12 * max(1.0, direct.norm_upper)
    assert red.norm_upper == pytest.approx(direct.norm_upper, rel=1e-12)


def test_scalar_product_tests_m_under_the_callers_tolerance():
    # M*M - I of norm about 1e-9 * ||M||^2: unitary at residual_tol 1e-8, not at the default 1e-10
    m_mat = np.eye(3) * (1.0 + 1.5e-9)
    with pytest.raises(StructureError):
        ScalarProduct(m_mat, "sesquilinear", "jordan")
    loose = ToleranceConfig(residual_tol=1e-8)
    sp = ScalarProduct(m_mat, "sesquilinear", "jordan", loose)
    p = dsm_instance(F.HERMITIAN, np.random.default_rng(80), 3, 2, exact=True)
    assert jordan_lie_reduce(sp, p, loose).feasible
    with pytest.raises(StructureError):  # jordan_lie_reduce tests M again under its own cfg
        jordan_lie_reduce(sp, p)


def _consistent_problem_for_algebra(rng, sp, n, m):
    # build data from a random member of the algebra
    h = crandn(rng, n, n)
    if sp.target_family() is F.HERMITIAN:
        h = h + h.conj().T
    elif sp.target_family() is F.SKEW_HERMITIAN:
        h = h - h.conj().T
    elif sp.target_family() is F.SYMMETRIC:
        h = h + h.T
    else:
        h = h - h.T
    d1 = sp.M.conj().T @ h  # M d1 lands in the base family
    d2 = crandn(rng, n, m)
    d = np.hstack([d1, d2])
    x1, x2 = crandn(rng, n), crandn(rng, m)
    z = crandn(rng, n)
    x = np.concatenate([x1, x2])
    y = d @ x
    w = d.conj().T @ z
    return DsmProblem(x1, x2, y, z, w[:n], w[n:]), d


def test_bilinear_lie_adjoint_identity():
    rng = np.random.default_rng(83)
    m_mat = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
    sp = ScalarProduct(m_mat, "bilinear", "lie")
    assert sp.target_family() is F.SKEW_SYMMETRIC
    p, member = _consistent_problem_for_algebra(rng, sp, 3, 2)
    sol = jordan_lie_reduce(sp, p)
    assert sol.feasible
    adj = sp.adjoint(sol.H1)
    assert np.linalg.norm(adj + sol.H1) <= 1e-9 * max(1.0, np.linalg.norm(sol.H1))
    assert np.linalg.norm(sol.H @ p.x - p.y) <= 1e-9 * max(1.0, np.linalg.norm(p.y))


def test_pseudo_hermitian_adjoint_identity_and_isometry():
    rng = np.random.default_rng(89)
    m_mat = np.diag([1.0, -1.0, 1.0]).astype(complex)
    sp = ScalarProduct(m_mat, "sesquilinear", "jordan")
    assert sp.target_family() is F.HERMITIAN
    p, member = _consistent_problem_for_algebra(rng, sp, 3, 2)
    sol = jordan_lie_reduce(sp, p)
    assert sol.feasible
    adj = sp.adjoint(sol.H1)
    assert np.linalg.norm(adj - sol.H1) <= 1e-9 * max(1.0, np.linalg.norm(sol.H1))
    # lifted norm equals the reduced problem's norm (M unitary)
    reduced = DsmProblem(p.x1, p.x2, sp.M @ p.y, sp.M @ p.z, p.w1, p.w2)
    direct = dsm_solve(F.HERMITIAN, reduced)
    assert sol.norm_upper == pytest.approx(direct.norm_upper, rel=1e-12)
    assert np.linalg.norm(sol.H) == pytest.approx(np.linalg.norm(direct.H), rel=1e-12)
    assert sol.min_norm if hasattr(sol, "min_norm") else True
    assert np.linalg.norm(sol.H) <= np.linalg.norm(member) + 1e-9


@pytest.mark.parametrize("scale", [1.0, 1e-100, 1e100])
def test_psd_exactness_verdict_independent_of_data_scale(scale):
    # generic psd points: the diagnostic's numerical range is not in the left
    # half-plane, so none is exact, whatever the scale of (x, y, z, w)
    flips = 0
    for seed in range(40):
        p = dsm_instance(F.PSD, np.random.default_rng(seed), 8, 2)
        base = dsm_solve(F.PSD, p)
        ps = DsmProblem(*(scale * v for v in (p.x1, p.x2, p.y, p.z, p.w1, p.w2)))
        sol = dsm_solve(F.PSD, ps)
        assert sol.feasible and base.feasible
        flips += (sol.exact, sol.sufficiency_note, sol.warnings) != (base.exact, base.sufficiency_note, base.warnings)
        assert sol.norm_upper == pytest.approx(base.norm_upper, rel=1e-12)  # H is homogeneous of degree 0
    assert flips == 0


PROBLEM_ARRAYS = ("x1", "x2", "y", "z", "w1", "w2")


@pytest.mark.parametrize("path", ["hermitian", "nsd", "anti-dissipative", "jordan"])
@pytest.mark.parametrize("name", PROBLEM_ARRAYS)
def test_every_solve_path_rejects_a_non_finite_array_by_name(path, name):
    # the reflections and the Jordan/Lie reduction validate nothing of the caller's again, so the problem,
    # built at the boundary, is what must reject every form of a non-finite entry
    p = dsm_instance(F.HERMITIAN, np.random.default_rng(7), 4, 2)
    sp = ScalarProduct(np.eye(4), "sesquilinear", "jordan")
    solve = {
        "hermitian": lambda q: dsm_solve(F.HERMITIAN, q),
        "nsd": lambda q: dsm_solve(F.NSD, q),
        "anti-dissipative": lambda q: dsdm_type2(q, anti=True),
        "jordan": lambda q: jordan_lie_reduce(sp, q),
    }[path]
    for spoil in NON_FINITE.values():
        data = {k: getattr(p, k) for k in PROBLEM_ARRAYS}
        with pytest.raises(NonFiniteEntriesError, match=f"^{name} contains"):
            solve(DsmProblem(**{**data, name: spoil(data[name])}))


@pytest.mark.parametrize("kind", list(NON_FINITE))
def test_the_type1_and_scalar_product_entry_points_name_a_non_finite_array(kind):
    rng = np.random.default_rng(8)
    spoil = NON_FINITE[kind]
    q, _ = type1_instance(rng, 4, 2)
    for name in "XYZW":
        with pytest.raises(NonFiniteEntriesError, match=f"^{name} contains"):
            dsdm_type1(Type1Problem(**{**{k: getattr(q, k) for k in "XYZW"}, name: spoil(getattr(q, name))}), anti=True)
    vec = dict(zip("xyzw", type1_vec_instance(rng, 4)))
    for name in vec:
        with pytest.raises(NonFiniteEntriesError, match=f"^{name} contains"):
            dsdm_type1_vec(**{**vec, name: spoil(vec[name])}, anti=True)
    with pytest.raises(NonFiniteEntriesError, match="^M contains"):
        ScalarProduct(spoil(np.eye(3, dtype=complex)), "bilinear", "lie")


def test_jordan_lie_reduce_validates_the_products_it_forms():
    # M and y are finite but M y overflows: the reduction validates M y and M z, the only arrays it forms
    sp = ScalarProduct(np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0), "sesquilinear", "jordan")
    with np.errstate(over="ignore", invalid="ignore"):
        p = DsmProblem(np.ones(2), np.ones(1), np.full(2, 1.5e308), np.ones(2), np.ones(2), np.ones(1))
        with pytest.raises(NonFiniteEntriesError, match="^M y contains"):
            jordan_lie_reduce(sp, p)


def _count_validations_and_norms(monkeypatch):
    """Count ``as_complex`` and ``fro`` wherever ``linalg``, ``maps`` and ``dsm`` look them up.

    Returns the names ``as_complex`` was given and copies of the arrays ``fro`` was given, in call order.
    """
    import dsmkit.dsm as dsm_mod
    import dsmkit.linalg as linalg_mod
    import dsmkit.maps as maps_mod

    validated, normed = [], []
    as_complex, fro = linalg_mod.as_complex, linalg_mod.fro

    def counted_as_complex(a, name="array"):
        validated.append(name)
        return as_complex(a, name)

    def counted_fro(a):
        normed.append(np.array(a))
        return fro(a)

    for mod in (linalg_mod, maps_mod, dsm_mod):
        monkeypatch.setattr(mod, "as_complex", counted_as_complex)
        monkeypatch.setattr(mod, "fro", counted_fro)
    return validated, normed


def _budget_case(call, rng):
    """(the call, with its inputs built inside it; the names it validates; the most norms it may take)."""
    n, m = 16, 4
    if call == "map_min nsd":
        x, y = crandn(rng, n), crandn(rng, n)
        y = y - (np.vdot(x, y) / np.vdot(x, x) + 1.0) * x  # x*y = -||x||^2: nsd-feasible
        # ||x|| and ||y||: ||Delta|| comes from the factors' Gram cores, not from ``fro``
        return (lambda: map_min(F.NSD, x, y)), ["x", "y"], 2
    if call == "jordan_lie_reduce":
        mm = np.linalg.qr(crandn(rng, n, n))[0]
        mm = mm @ np.diag(np.sign(rng.standard_normal(n))) @ mm.conj().T  # Hermitian and unitary
        p, _ = _consistent_problem_for_algebra(rng, ScalarProduct(mm, "sesquilinear", "jordan"), n, m)
    elif call == "dsdm_type2 anti":
        p = type2_instance(rng, n, m)
    else:
        p = dsm_instance(F.NSD if call == "dsm_solve nsd" else F.HERMITIAN, rng, n, m)
    data = [getattr(p, k) for k in PROBLEM_ARRAYS]
    if call == "dsdm_type2 anti":
        data = [v if k in ("x1", "x2", "z") else -v for k, v in zip(PROBLEM_ARRAYS, data)]
        # the eight data norms (x1, x2, y, z, w1, w2 and the stacked x, w) and two colinearity residuals
        return (lambda: dsdm_type2(DsmProblem(*data), anti=True)), list(PROBLEM_ARRAYS), 10
    if call == "dsm_solve hermitian":
        # seven data norms (||w2|| is read by the cone families only) and one colinearity residual
        return (lambda: dsm_solve(F.HERMITIAN, DsmProblem(*data))), list(PROBLEM_ARRAYS), 8
    if call == "dsm_solve nsd":
        # eight data norms, one colinearity residual, ||a|| and one residual of the rank-one diagnostic
        return (lambda: dsm_solve(F.NSD, DsmProblem(*data))), list(PROBLEM_ARRAYS), 11
    # ||M*M - I||, ||M||, ||M - M*||; seven data norms and ||M y||, ||M z||; one residual
    return (
        lambda: jordan_lie_reduce(ScalarProduct(mm, "sesquilinear", "jordan"), DsmProblem(*data)),
        ["M", *PROBLEM_ARRAYS, "M y", "M z"],
        13,
    )


@pytest.mark.parametrize(
    "call", ["dsm_solve hermitian", "dsm_solve nsd", "dsdm_type2 anti", "jordan_lie_reduce", "map_min nsd"]
)
def test_each_caller_array_is_validated_once_and_each_norm_taken_once(call, monkeypatch):
    # a reflection or reduction that went back through a public entry point, or a helper that took a
    # norm the call already has, shows up here as a second validation or a second norm of the same array
    solve, names, most_norms = _budget_case(call, np.random.default_rng(11))
    validated, normed = _count_validations_and_norms(monkeypatch)
    sol = solve()
    assert sol.feasible
    assert validated == names
    assert len(normed) <= most_norms
    seen = [(a.shape, a.tobytes()) for a in normed]
    assert len(set(seen)) == len(seen), "an array was normed twice"


def test_the_characterizations_validate_once_when_they_reflect(monkeypatch):
    # nsd evaluates the psd characterization on -y (and -R): the negated arrays are not validated again
    rng = np.random.default_rng(12)
    p = dsm_instance(F.NSD, rng, 4, 2)
    x, y = crandn(rng, 4), crandn(rng, 4)
    y = y - (np.vdot(x, y) / np.vdot(x, x) + 1.0) * x
    validated, _ = _count_validations_and_norms(monkeypatch)
    map_characterize(F.NSD, x, y, {"K": np.eye(4)})
    assert validated == ["x", "y", "K"]
    validated.clear()
    dsm_characterize(F.NSD, p, np.zeros((4, 4)), np.zeros((4, 2)))
    assert validated == ["K", "R"]


@pytest.mark.xfail(strict=True, reason="x*w - y*z overflows at 1e160 (gap nan): ROADMAP item 1, after item 8")
def test_dsm_solve_is_feasible_on_the_benchmarks_1e160_problem():
    # the Hermitian problem (n = 16, m = 4) that perfbench's solve workload scales by 1e160
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))
    import workloads as wl

    case = wl.huge_case(np.random.default_rng(wl.HUGE_SEED))
    with np.errstate(over="ignore", invalid="ignore"):
        sol = dsm_solve(F.HERMITIAN, wl._problem(case))
    assert sol.feasible, sol.reason
    x, y = case["x"] / wl.HUGE_SCALE, case["y"] / wl.HUGE_SCALE
    h = sol.H
    assert np.linalg.norm(h @ x - y) <= 1e-10 * (np.linalg.norm(h) * np.linalg.norm(x) + np.linalg.norm(y))
