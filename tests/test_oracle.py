import numpy as np
import pytest

from dsmkit import (
    DsmProblem,
    EigenPair,
    PHPencil,
    Type1Problem,
    dsdm_type1,
    dsm_solve,
    eta_sd,
    gen_eigpair,
    gen_pencil,
    map_min,
    oracle_eta,
    oracle_least_norm,
    oracle_min_structured,
    verify_solution,
)
from dsmkit.errors import CertificationError, InconsistentConstraintsError
from dsmkit.maps import StructureFamily as F
from helpers import crandn, dsm_instance, type1_instance

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def test_least_norm_unstructured_example():
    delta, norm = oracle_least_norm([("mul", E1, 2 * E2)], None)
    assert norm == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(delta, [[0, 0], [2, 0]], atol=1e-12)


def test_least_norm_hermitian_example():
    delta, norm = oracle_least_norm([("mul", E1, E1)], F.HERMITIAN)
    assert norm == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(delta, np.outer(E1, E1), atol=1e-12)


def test_least_norm_inconsistent():
    with pytest.raises(InconsistentConstraintsError):
        oracle_least_norm([("mul", E1, E1), ("mul", E1, 2 * E1)], None)
    # 1 x 1 skew-symmetric matrices: the basis is empty and only y = 0 is met
    delta, norm = oracle_least_norm([("mul", [1.0], [0.0])], F.SKEW_SYMMETRIC)
    assert delta.shape == (1, 1) and not delta.any() and norm == 0.0
    with pytest.raises(InconsistentConstraintsError):
        oracle_least_norm([("mul", [1.0], [1.0])], F.SKEW_SYMMETRIC)


def test_least_norm_rejects_cone_families():
    with pytest.raises(ValueError):
        oracle_least_norm([("mul", E1, E1)], F.PSD)


def test_block_split_least_norm_matches_dsm():
    rng = np.random.default_rng(3)
    p = dsm_instance(F.HERMITIAN, rng, 4, 2, exact=True)
    sol = dsm_solve(F.HERMITIAN, p)
    _, norm = oracle_min_structured(p, F.HERMITIAN)
    assert norm == pytest.approx(sol.norm_upper, rel=1e-10)


def test_min_structured_type1_and_budget():
    rng = np.random.default_rng(5)
    q, member = type1_instance(rng, 4, 2)
    sol = dsdm_type1(q)
    delta, norm = oracle_min_structured(q, F.DISSIPATIVE)
    assert norm == pytest.approx(sol.min_norm, rel=1e-8)
    assert np.linalg.norm(delta @ q.X - q.Y) <= 1e-8 * max(1.0, np.linalg.norm(q.Y))


def test_min_structured_requires_known_problem_type():
    with pytest.raises(TypeError):
        oracle_min_structured(np.eye(2), F.HERMITIAN)


def test_oracle_eta_exact_linear_path():
    p = gen_pencil(3, 2, seed=4, r_rank=2)
    ep = gen_eigpair(p, 8, "JEB")
    res = oracle_eta(p, ep, "JEB", "s")
    assert res.converged and res.constraint_residual <= 1e-10
    bounds = eta_sd(p, ep, "JEB")
    assert res.value == pytest.approx(bounds.eta_upper, rel=1e-9)


def test_oracle_eta_rejects_inadmissible():
    p = gen_pencil(3, 2, seed=4)
    rng = np.random.default_rng(0)
    ep = EigenPair(1j, crandn(rng, 3), crandn(rng, 3), np.zeros(2))
    # JR needs B* u1 = 0, which a random u1 violates: constraints inconsistent
    with pytest.raises(InconsistentConstraintsError):
        oracle_eta(p, ep, "JR", "sd")


def test_verify_solution_reports():
    rng = np.random.default_rng(7)
    p = dsm_instance(F.HERMITIAN, rng, 3, 2)
    sol = dsm_solve(F.HERMITIAN, p)
    rep = verify_solution(sol.H, p, F.HERMITIAN)
    assert rep.ok and rep.interp_resid <= 1e-12
    tampered = sol.H.copy()
    tampered[0, 0] += 1e-3
    rep2 = verify_solution(tampered, p, F.HERMITIAN)
    assert not rep2.ok
    assert rep2.interp_resid == pytest.approx(1e-3 * np.linalg.norm(p.x1[:1]) / max(
        1.0, np.linalg.norm(tampered) * np.linalg.norm(p.x) + np.linalg.norm(p.y)), rel=0.5)


def test_verify_solution_psd_mineig():
    rng = np.random.default_rng(9)
    p = dsm_instance(F.PSD, rng, 3, 2, exact=True)
    sol = dsm_solve(F.PSD, p)
    rep = verify_solution(sol.H, p, F.PSD)
    assert rep.ok and rep.min_eig >= -1e-10
    report_dict = rep.as_dict()
    assert set(report_dict) >= {"interp_resid", "adjoint_resid", "structure_dev", "min_eig", "ok"}


@pytest.mark.parametrize("scale", [1.0, 1e-12, 1e12])
@pytest.mark.parametrize("blocks", ["JE", "JEB"])
def test_oracle_eta_rejects_an_inadmissible_pair_whatever_the_pencil_scale(blocks, scale):
    # u1, u2 are not an eigenvector for either selection: the residual rows
    # that no selected block reaches stay nonzero at every scale of the pencil
    p = gen_pencil(3, 2, seed=4)
    ps = PHPencil(scale * p.J, scale * p.R, scale * p.E, scale * p.B, scale * p.S)
    rng = np.random.default_rng(0)
    ep = EigenPair(1j, crandn(rng, 3), crandn(rng, 3), np.zeros(2))
    with pytest.raises(InconsistentConstraintsError):
        oracle_eta(ps, ep, blocks, "s")


@pytest.mark.parametrize("scale", [1.0, 1e-12, 1e12])
def test_verify_solution_rejects_a_wrong_minimizer_whatever_the_scale(scale):
    # the unstructured minimizer times 1.5 misses y by half of y; no unit floor may hide that for small data
    rng = np.random.default_rng(12)
    x, y = crandn(rng, 4), scale * crandn(rng, 4)
    sol = map_min(F.UNSTRUCTURED, x, y)
    assert verify_solution(sol.minimizer, (x, y), F.UNSTRUCTURED).ok
    rep = verify_solution(1.5 * sol.minimizer, (x, y), F.UNSTRUCTURED)
    assert not rep.ok and rep.interp_resid == pytest.approx(0.5 / 2.5, rel=1e-9)


def test_certified_oracle_rejects_a_claimed_minimum_one_percent_high():
    # the barrier oracle starts from no closed form, so a minimum claimed 1 % too high fails criterion 3's check
    rng = np.random.default_rng(31)
    q, _ = type1_instance(rng, 4, 2)
    p = dsm_instance(F.PSD, rng, 4, 2, exact=True)
    for problem, family, claimed in ((q, F.DISSIPATIVE, dsdm_type1(q).min_norm),
                                     (p, F.PSD, dsm_solve(F.PSD, p).norm_upper)):
        _, onorm = oracle_min_structured(problem, family)
        for factor, accepted in ((1.0, True), (1.01, False)):
            assert (onorm * (1 - 1e-6) <= factor * claimed <= onorm * (1 + 1e-6)) is accepted


@pytest.mark.parametrize("family", [F.PSD, F.DISSIPATIVE])
def test_cone_oracle_raises_without_a_strictly_feasible_point(family):
    # Delta1* z = w1 with z*w1 = 0 leaves no Delta1 whose Hermitian part is definite
    rng = np.random.default_rng(41)
    x1, x2, y, z, w1, w2 = crandn(rng, 3), crandn(rng, 1), crandn(rng, 3), crandn(rng, 3), crandn(rng, 3), crandn(rng, 1)
    w1 -= np.vdot(z, w1) / np.vdot(z, z) * z
    w2 += (np.vdot(y, z) - np.vdot(x1, w1) - np.vdot(x2, w2)) / np.vdot(x2, x2).real * x2  # x*w = y*z
    with pytest.raises(CertificationError):
        oracle_min_structured(DsmProblem(x1, x2, y, z, w1, w2), family)
