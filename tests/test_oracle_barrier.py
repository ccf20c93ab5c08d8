"""The certified barrier of ``dsmkit.oracle`` away from the generators' usual eigenvalues.

``gen_eigpair`` draws |lambda| in [0.3, 2] unless lambda is given.  At
lambda = 1e-3i and 1e3i the free coefficients of the semidefinite backward
error include directions that do not move dR; the barrier runs on the row
space of its cone map, so those directions carry no Newton system.  Every
solve here is checked against the closed-form bracket of ``eta_sd``, to
the certified gap.  The symmetry-only selections of ``eta_s`` are exact
over the same lambda range: the oracle's one least-norm solve matches
``eta_upper`` to the certified gap.  Every closed form is also rebuilt by
``reconstruct_perturbation``, whose perturbation has the norm ``eta_upper``.
"""

import numpy as np
import pytest

from dsmkit import eta_s, eta_sd, gen_eigpair, gen_pencil, oracle_eta, reconstruct_perturbation
from dsmkit import oracle
from dsmkit.config import DEFAULT_TOL
from dsmkit.errors import CertificationError, GenerationError
from dsmkit.oracle import GAP_FACTOR

GAP = GAP_FACTOR * DEFAULT_TOL.residual_tol

SD_SELECTIONS = ("RE", "REB", "JRE", "JREB", "JR", "JRB", "RB")
S_SELECTIONS = ("JB", "EB", "JEB")  # and RB, on the draws of the sd RB loop
LAMBDAS = (1e-3j, 0.5j, 2j, 1e3j)


def _draws(blocks, lam):
    """The admissible eigenpairs drawn for ``blocks`` at ``lam``, 60 tries over n, the rank of B and seeds."""
    for n in (3, 4, 8):
        for b_rank in (None, 1):
            for seed in range(10):
                P = gen_pencil(n, 2, seed, r_rank=n // 2, b_rank=b_rank)
                try:
                    yield P, gen_eigpair(P, seed, blocks, lam=lam)
                except GenerationError:  # no admissible eigenvector for this selection and lambda
                    continue


def _assert_rebuilt(P, ep, blocks, closed):
    norm = reconstruct_perturbation(P, ep, blocks, closed).norm()
    assert abs(norm - closed.eta_upper) <= DEFAULT_TOL.residual_tol * closed.eta_upper


def _assert_certified(P, ep, blocks):
    res = oracle_eta(P, ep, blocks, "sd")
    closed = eta_sd(P, ep, blocks)
    assert res.lower <= res.value <= res.lower * (1.0 + GAP)
    assert closed.eta_lower <= res.value * (1.0 + GAP)
    assert res.lower <= closed.eta_upper * (1.0 + GAP)
    dr = res.perturbation.dR
    assert np.linalg.eigvalsh(dr)[0] >= -DEFAULT_TOL.psd_tol * np.linalg.norm(dr)
    _assert_rebuilt(P, ep, blocks, closed)


def _assert_exact_s(P, ep, blocks):
    closed = eta_s(P, ep, blocks)
    res = oracle_eta(P, ep, blocks, "s")
    assert closed.exact
    assert abs(res.value - closed.eta_upper) <= GAP * closed.eta_upper
    _assert_rebuilt(P, ep, blocks, closed)


@pytest.mark.parametrize("n,seed", [(4, 0), (4, 1), (8, 3), (8, 6), (8, 20), (8, 26)])
def test_sd_oracle_certifies_re_at_small_lambda(n, seed):
    # the cone map of these problems has rank 4-5 of 8-16 free coefficients: the
    # barrier's Newton systems were singular in phase I
    P = gen_pencil(n, 2, seed, r_rank=n // 2, b_rank=1)
    ep = gen_eigpair(P, seed, "RE", lam=1e-3j)
    _assert_certified(P, ep, "RE")


@pytest.mark.parametrize("lam", LAMBDAS, ids=lambda lam: f"{lam.imag:g}i")
@pytest.mark.parametrize("blocks", SD_SELECTIONS)
def test_sd_oracle_brackets_over_the_lambda_range(blocks, lam):
    solves = 0
    for P, ep in _draws(blocks, lam):
        _assert_certified(P, ep, blocks)
        if blocks == "RB":  # RB draws are slow at 1e3i, so eta_s(RB) is checked on these
            _assert_exact_s(P, ep, blocks)
        solves += 1
    assert solves  # RB at 1e3i admits 4 of its 60 draws


@pytest.mark.parametrize("lam", LAMBDAS, ids=lambda lam: f"{lam.imag:g}i")
@pytest.mark.parametrize("blocks", S_SELECTIONS)
def test_s_oracle_matches_the_closed_form_over_the_lambda_range(blocks, lam):
    solves = 0
    for P, ep in _draws(blocks, lam):
        _assert_exact_s(P, ep, blocks)
        solves += 1
    assert solves == 60  # a kernel-constrained u1 exists for every draw


@pytest.mark.parametrize("name", ["solve", "inv"])
def test_a_singular_barrier_step_raises_a_certification_error(monkeypatch, name):
    P = gen_pencil(3, 1, 11)
    ep = gen_eigpair(P, 12, "JRB")
    calls = []
    real = getattr(np.linalg, name)

    def singular(*args, **kwargs):
        calls.append(name)
        if len(calls) > 1:  # the first call passes, so that the barrier is under way
            raise np.linalg.LinAlgError("Singular matrix")
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, singular)
    with pytest.raises(CertificationError):
        oracle_eta(P, ep, "JRB", "sd")
    assert len(calls) > 1


def test_sd_oracle_newton_steps_per_call(monkeypatch):
    # 48 problems as the benchmark's certify round draws them: n = 3, m = 1,
    # 16 each of JREB, JRB and JR; every call of ``done`` is one Newton step
    rng = np.random.default_rng(0)
    problems = []
    for blocks in ("JREB", "JRB", "JR"):
        for _ in range(16):
            P = gen_pencil(3, 1, int(rng.integers(2**31)))
            problems.append((P, gen_eigpair(P, int(rng.integers(2**31)), blocks), blocks))
    steps = []
    path = oracle._central_path

    def counted(c0, flat, x, t, done, *args, **kwargs):
        def step(*a):
            steps.append(1)
            return done(*a)

        return path(c0, flat, x, t, step, *args, **kwargs)

    monkeypatch.setattr(oracle, "_central_path", counted)
    for P, ep, blocks in problems:
        oracle_eta(P, ep, blocks, "sd")
    assert len(steps) / len(problems) <= 24.0
