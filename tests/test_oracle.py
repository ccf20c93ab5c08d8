import math

import numpy as np
import pytest

from dsmkit import (
    DsmProblem,
    EigenPair,
    PerturbationBlocks,
    PHPencil,
    Type1Problem,
    dsdm_type1,
    dsm_solve,
    eta_sd,
    mapping_data,
    gen_eigpair,
    gen_pencil,
    map_min,
    oracle_eta,
    oracle_least_norm,
    oracle_min_structured,
    verify_solution,
)
from dsmkit import oracle
from dsmkit.errors import CertificationError, DimensionMismatchError, InconsistentConstraintsError
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


def test_least_norm_rejects_a_structured_family_on_non_square_data():
    rng = np.random.default_rng(51)
    for constraint in (("mul", crandn(rng, 3), crandn(rng, 2)), ("adj", crandn(rng, 2), crandn(rng, 3))):
        with pytest.raises(ValueError, match="the structured block must be square"):
            oracle_least_norm([constraint], F.HERMITIAN)
    delta, _ = oracle_least_norm([constraint], None)  # no structure: any shape
    assert delta.shape == (2, 3)


def test_least_norm_rejects_no_constraint():
    with pytest.raises(DimensionMismatchError, match="at least one constraint"):
        oracle_least_norm([])


@pytest.mark.parametrize("family", [None, F.HERMITIAN])
def test_least_norm_names_the_constraint_that_gives_delta_another_shape(family):
    # Delta's rows are the y of "mul" and the z of "adj", its columns the x of "mul" and the w of "adj"; the
    # last case is square in constraint 0, which the structured check once read alone
    rng = np.random.default_rng(52)
    x3, y3, v2 = crandn(rng, 3), crandn(rng, 3), crandn(rng, 2)
    for second in (("mul", v2, y3), ("mul", x3, v2), ("adj", v2, x3), ("adj", y3, v2)):
        with pytest.raises(DimensionMismatchError, match="constraint 1 gives Delta"):
            oracle_least_norm([("mul", x3, y3), second], family)


@pytest.mark.parametrize("family", [F.UNSTRUCTURED, F.HERMITIAN, F.SKEW_HERMITIAN, F.SYMMETRIC, F.PSD, F.NSD])
def test_min_structured_takes_only_the_dissipative_families_of_a_type1_problem(family):
    # D = A A* is Hermitian and dissipative, x*y = x* D x > 0: no skew-Hermitian Delta maps x to y, yet every
    # family used to get the same dissipative solve, a Hermitian Delta
    rng = np.random.default_rng(0)
    a = crandn(rng, 4, 4)
    d = a @ a.conj().T
    x = crandn(rng, 4, 1)
    q = Type1Problem(x, d @ x, x, d.conj().T @ x)
    with pytest.raises(ValueError, match="dissipative and anti-dissipative families only"):
        oracle_min_structured(q, family)
    delta, norm = oracle_min_structured(q, F.DISSIPATIVE)
    assert np.linalg.norm(delta @ x - d @ x) <= 1e-9 * np.linalg.norm(d @ x)
    assert np.linalg.eigvalsh(delta + delta.conj().T)[0] >= -1e-9 * norm
    neg, neg_norm = oracle_min_structured(Type1Problem(x, -d @ x, x, -d.conj().T @ x), F.ANTI_DISSIPATIVE)
    assert neg_norm == norm and np.array_equal(neg, -delta)


def test_oracle_eta_validates_a_selection_given_as_letters():
    p = gen_pencil(4, 2, seed=4, r_rank=2)
    ep = gen_eigpair(p, 1, "JEB")
    with pytest.raises(ValueError, match="invalid block selection"):
        oracle_eta(p, ep, frozenset("JEBX"), "s")
    assert oracle_eta(p, ep, frozenset("JEB"), "s").value == oracle_eta(p, ep, "JEB", "s").value


def test_oracle_eta_names_the_selection_of_an_inadmissible_pair():
    p = gen_pencil(4, 2, seed=4, r_rank=2)
    rng = np.random.default_rng(0)
    ep = EigenPair(0.7j, crandn(rng, 4), crandn(rng, 4), np.zeros(2))
    with pytest.raises(InconsistentConstraintsError, match=r"^eigenpair not admissible for BEJ \(residual "):
        oracle_eta(p, ep, "JEB", "s")


def _rows_residual(p, ep, pert: PerturbationBlocks, blocks):
    """||(D u2 - y, D* u1 - w1, dB* u1 - w2)|| with D = dJ - dR + lam dE: the rows the oracle solves."""
    _, y, _, w = mapping_data(p, ep)
    d = pert.dJ - pert.dR + ep.lam * pert.dE
    rows = [d @ ep.u2 - y, d.conj().T @ ep.u1 - w[: p.n]]
    if "B" in blocks:
        rows.append(pert.dB.conj().T @ ep.u1 - w[p.n:])
    return np.linalg.norm(np.concatenate(rows))


@pytest.mark.parametrize("blocks, variant", [("JEB", "s"), ("EB", "s"), ("RB", "s"), ("RB", "sd")])
def test_constraint_residual_is_the_residual_of_the_returned_perturbation(blocks, variant):
    # an eigenvector moved off by a small multiple of a random vector leaves data that the audit
    # accepts and no perturbation meets: the reported residual is that of the perturbation returned,
    # and grows with the distance
    p = gen_pencil(5, 2, seed=8, r_rank=3, b_rank=1)
    ep = gen_eigpair(p, 2, blocks, lam=0.7j)
    rng = np.random.default_rng(3)
    g1, g2 = crandn(rng, 5), crandn(rng, 5)
    got = []
    for eps in (1e-11, 1e-10):
        moved = EigenPair(ep.lam, ep.u1 + eps * g1, ep.u2 + eps * g2, ep.u3)
        res = oracle_eta(p, moved, blocks, variant)
        direct = _rows_residual(p, moved, res.perturbation, blocks)
        assert res.constraint_residual == pytest.approx(direct, rel=1e-3)
        got.append(res.constraint_residual)
    assert 5.0 < got[1] / got[0] < 20.0


def test_constraint_residual_counts_the_data_outside_the_span(monkeypatch):
    # the residual of the lift is the compressed residual and the part of the data outside the span,
    # added in quadrature: a part the compression reports is in the audited residual
    p = gen_pencil(4, 2, seed=4, r_rank=2)
    ep = gen_eigpair(p, 1, "JEB")
    base = oracle_eta(p, ep, "JEB", "s").constraint_residual
    compressed = oracle._compressed
    for outside in (1e-12, 3e-12):
        def with_outside(*args, extra=outside, **kw):
            q, s, reduced, out = compressed(*args, **kw)
            return q, s, reduced, math.hypot(out, extra)

        monkeypatch.setattr(oracle, "_compressed", with_outside)
        res = oracle_eta(p, ep, "JEB", "s")
        assert res.constraint_residual == pytest.approx(math.hypot(base, outside), rel=1e-6)


@pytest.mark.parametrize("variant", ["SD", "S", "bogus", ""])
def test_oracle_eta_rejects_an_unknown_variant(variant):
    # "SD" and "bogus" used to get the exact "s" solve (12.364) without an error
    p = gen_pencil(4, 2, 3, r_rank=2)
    ep = gen_eigpair(p, 1, "JR", lam=0.7j)
    assert oracle_eta(p, ep, "JR", "sd").value == pytest.approx(13.3823, abs=1e-4)
    assert oracle_eta(p, ep, "JR", "s").value == pytest.approx(12.3643, abs=1e-4)
    with pytest.raises(ValueError, match="variant must be 's' or 'sd'"):
        oracle_eta(p, ep, "JR", variant)
