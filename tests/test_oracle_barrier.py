"""The certified cone solves of ``dsmkit.oracle`` (closed form and barrier), also away from the usual lambda.

``gen_eigpair`` draws |lambda| in [0.3, 2] unless lambda is given.  At
lambda = 1e-3i and 1e3i the free coefficients of the semidefinite backward
error include directions that do not move dR; the cone solve runs on the
row space of its cone map, so those directions carry no Newton system.  Every
solve here is checked against the closed-form bracket of ``eta_sd``, to
the certified gap.  The symmetry-only selections of ``eta_s`` are exact
over the same lambda range: the oracle's one least-norm solve matches
``eta_upper`` to the certified gap.  Every closed form is also rebuilt by
``reconstruct_perturbation``, whose perturbation has the norm ``eta_upper``.
"""

import os
import sys

import numpy as np
import pytest

from dsmkit import dsm_solve, eta_s, eta_sd, gen_eigpair, gen_pencil, oracle_eta, oracle_min_structured
from dsmkit import oracle, reconstruct_perturbation
from dsmkit.config import DEFAULT_TOL
from dsmkit.errors import CertificationError, GenerationError
from dsmkit.maps import StructureFamily as F
from dsmkit.oracle import GAP_FACTOR
from helpers import dsm_instance

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
    # certify's type-2 problem: its block of order 3 has 8 directions, so the barrier solves it
    problem, family = _central_path_problems()[0]
    calls = []
    real = getattr(np.linalg, name)

    def singular(*args, **kwargs):
        calls.append(name)
        if len(calls) > 1:  # the first call passes, so that the barrier is under way
            raise np.linalg.LinAlgError("Singular matrix")
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, singular)
    with pytest.raises(CertificationError):
        oracle_min_structured(problem, family)
    assert len(calls) > 1


def _certify_problems():
    """48 problems as the benchmark's certify round draws them: n = 3, m = 1, 16 each of JREB, JRB and JR."""
    rng = np.random.default_rng(0)
    problems = []
    for blocks in ("JREB", "JRB", "JR"):
        for _ in range(16):
            P = gen_pencil(3, 1, int(rng.integers(2**31)))
            problems.append((P, gen_eigpair(P, int(rng.integers(2**31)), blocks), blocks))
    return problems


def _central_path_problems():
    """Cone problems that the closed form does not solve, drawn by the benchmark's own generator.

    Certify's two type-2 problems (dissipative, n = 3, m = 1: a block of order 3 moved in 8 directions),
    then 8 psd problems at n = 4, m = 1 (a block of order 3 moved in 9 directions, whose minimum has rank
    above the fixed corner's, so its multiplier is not semidefinite).
    """
    bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    import workloads as wl

    fixed, rng = np.random.default_rng(wl.TYPE2_SEED), np.random.default_rng(0)
    draws = [(fixed, "dissipative", 3, F.DISSIPATIVE)] * wl.CERTIFY_TYPE2 + [(rng, "psd", 4, F.PSD)] * 8
    return [(wl._problem(wl.two_block_case(r, name, n, 1)), family) for r, name, n, family in draws]


def _counted_steps(monkeypatch):
    """The Newton steps of every ``_central_path`` run, one entry per call of ``done``."""
    steps = []
    path = oracle._central_path

    def counted(c0, flat, x, t, done, *args, **kwargs):
        def step(*a):
            steps.append(1)
            return done(*a)

        return path(c0, flat, x, t, step, *args, **kwargs)

    monkeypatch.setattr(oracle, "_central_path", counted)
    return steps


def test_sd_oracle_newton_steps_per_call(monkeypatch):
    # every call of ``done`` is one Newton step: the minimum of these blocks is the zero block, solved in
    # closed form with none
    problems = _certify_problems()
    steps = _counted_steps(monkeypatch)
    for P, ep, blocks in problems:
        oracle_eta(P, ep, blocks, "sd")
    assert len(steps) == 0


@pytest.mark.parametrize("shape", ["certify-sd", "certify-type2"])
def test_certify_cone_problems_keep_their_path(monkeypatch, shape):
    # the benchmark's cone problems: every sd eta block in closed form, with no Newton step; the type-2
    # blocks (8 directions on a block of order 3) on the barrier's central path
    taken = []
    zero_block = oracle._zero_block

    def recorded(*args):
        out = zero_block(*args)
        taken.append(out is not None)
        return out

    monkeypatch.setattr(oracle, "_zero_block", recorded)
    steps = _counted_steps(monkeypatch)
    if shape == "certify-sd":
        for P, ep, blocks in _certify_problems():
            oracle_eta(P, ep, blocks, "sd")
        assert taken == [True] * 48 and steps == []
    else:
        for problem, family in _central_path_problems()[:2]:
            before = len(steps)
            oracle_min_structured(problem, family)
            assert len(steps) > before
        assert taken == [False, False]


def test_cone_oracle_newton_steps_and_reuse_at_a_grown_t(monkeypatch):
    # backtracking from s = 1 takes 30.6 Newton steps per call on these problems (both phases), 51 at most;
    # and a step at a grown t, x unchanged, reuses L^-1 and all after it
    problems = _central_path_problems()
    log, in_barrier = [], []
    barrier, path = oracle._barrier, oracle._central_path
    inv = np.linalg.inv

    def counted_barrier(*args, **kwargs):
        in_barrier.append(True)
        try:
            return barrier(*args, **kwargs)
        finally:
            in_barrier.pop()

    def counted_inv(*args, **kwargs):
        if in_barrier:
            log.append("inv")
        return inv(*args, **kwargs)

    def watched(c0, flat, x, t, done, *args, **kwargs):
        def step(x, t, *a):
            log.append(("done", t))
            return done(x, t, *a)

        log.append("path")
        return path(c0, flat, x, t, step, *args, **kwargs)

    monkeypatch.setattr(oracle, "_barrier", counted_barrier)
    monkeypatch.setattr(oracle, "_central_path", watched)
    monkeypatch.setattr(np.linalg, "inv", counted_inv)
    steps = []
    for problem, family in problems:
        start = len(log)
        oracle_min_structured(problem, family)
        steps.append(sum(isinstance(entry, tuple) for entry in log[start:]))
    assert sum(steps) / len(problems) <= 30.6 and max(steps) <= 51
    grown, last = 0, None
    for i, entry in enumerate(log):
        if entry == "path":
            last = None
        elif isinstance(entry, tuple):
            if last is not None and entry[1] > log[last][1]:
                grown += 1
                assert "inv" not in log[last + 1 : i]  # t grew at the same x: no new L^-1
            last = i
    assert grown >= 4 * len(problems)  # phase II grows t four times on each


def test_psd_barrier_certifies_130_problems_with_a_small_fixed_corner():
    # every M_j of these problems fixes a direction u0 with u0* C0 u0 small against C's entries (1.1e-4
    # against 1840 at n = 1024, seed 1600), so lambda_min(C) on the path sinks to rounding: phase II must
    # run on the Schur complement to certify them all, each within the closed form's bracket
    solved = 0
    for n, seeds in ((16, 40), (64, 40), (256, 40), (1024, 10)):
        for seed in range(1600, 1600 + seeds):
            problem = dsm_instance(F.PSD, np.random.default_rng(seed), n, 2)
            closed = dsm_solve(F.PSD, problem)
            _, norm = oracle_min_structured(problem, F.PSD)
            assert closed.norm_lower * (1.0 - GAP) <= norm <= closed.norm_upper * (1.0 + GAP), (n, seed)
            solved += 1
    assert solved == 130


def test_schur_complement_keeps_the_barrier_and_the_cone():
    # a block with one direction u0 that no M_j moves: logdet C(phi) = logdet A + logdet S(phi), and
    # C(phi) is definite exactly when S(phi) is (A > 0)
    from dsmkit.config import DEFAULT_TOL

    rng = np.random.default_rng(5)
    k = 3
    q = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))[0]
    u1 = q[:, :2]
    ms = []
    for _ in range(4):
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        ms.append(u1 @ (h + h.conj().T) @ u1.conj().T)
    flat = np.array(ms).reshape(4, k * k)
    a = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    c0 = a @ a.conj().T * 0.1 - 0.5 * u1 @ u1.conj().T  # indefinite, with q[:, 2]* C0 q[:, 2] > 0
    s0, reduced = oracle._schur_complement(c0, flat, DEFAULT_TOL)
    assert s0.shape == (2, 2) and reduced.shape == (4, 4)
    u0 = q[:, 2:]
    logdet_a = np.log(np.linalg.eigvalsh(u0.conj().T @ c0 @ u0)).sum()
    definite = 0
    for _ in range(50):
        phi = rng.standard_normal(4) * 2.0
        c = c0 + (phi @ flat).reshape(k, k)
        s = s0 + (phi @ reduced).reshape(2, 2)
        ec, es = np.linalg.eigvalsh(c), np.linalg.eigvalsh(s)
        assert (ec[0] > 0) == (es[0] > 0)
        if ec[0] > 0:
            definite += 1
            assert abs(np.log(ec).sum() - logdet_a - np.log(es).sum()) <= 1e-10 * (1.0 + abs(np.log(ec).sum()))
    assert 0 < definite < 50
    every = np.concatenate([flat, np.eye(k).reshape(1, -1)])  # the identity moves every direction
    same = oracle._schur_complement(c0, every, DEFAULT_TOL)
    assert same[0] is c0 and same[1] is every
    negative = c0 - 2.0 * np.exp(logdet_a) * u0 @ u0.conj().T  # A = u0* C0 u0 becomes -A: no fixed corner
    same = oracle._schur_complement(negative, flat, DEFAULT_TOL)
    assert same[0] is negative and same[1] is flat


def _hermitian_coordinates(k):
    """A cone basis (``oracle._hermitian_parts``) of the k x k Hermitian matrices, and the coordinates of one."""
    elements = []
    for i in range(k):
        for j in range(i, k):
            for z in (1.0,) if i == j else (1.0, 1j):
                elements.append(np.zeros((k, k), dtype=complex))
                elements[-1][i, j] = z
    basis = np.array(elements)

    def coordinates(h):
        out = []
        for i in range(k):
            for j in range(i, k):
                out += [h[i, i].real] if i == j else [2.0 * h[i, j].real, -2.0 * h[i, j].imag]
        return np.array(out)

    return basis, coordinates


def _leaky_barrier_problem(seed, leak):
    """(theta0, N, cone) whose M_j move a direction u0 only by ``leak``: C0 is indefinite, u0* C0 u0 > 0."""
    rng = np.random.default_rng(seed)
    k = 3
    basis, coordinates = _hermitian_coordinates(k)
    q = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))[0]
    u1, u0 = q[:, :2], q[:, 2:]
    ms = []
    for _ in range(3):
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        v = rng.standard_normal((k, 1)) + 1j * rng.standard_normal((k, 1))
        ms.append(coordinates(u1 @ (h + h.conj().T) @ u1.conj().T + leak * (u0 @ v.conj().T + v @ u0.conj().T)))
    null = np.linalg.qr(np.array(ms).T)[0]
    a = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    theta = coordinates(a @ a.conj().T / 10.0 - 2.0 * u1 @ u1.conj().T + u0 @ u0.conj().T / 20.0)
    return theta - null @ (null.T @ theta), null, (0, basis)


def test_a_barrier_whose_rank_rule_drops_a_moving_direction_stays_certified(monkeypatch):
    # the M_j move u0 by 1e-4 of their norm, which rank_tol = 1e-3 drops: phase II stays on C, as it does
    # when rank_tol keeps u0; and where the reduction is forced, its bound still bounds the minimum on C
    # (S is a congruence of C) and a point that leaves C's cone raises
    import dataclasses

    loose = dataclasses.replace(DEFAULT_TOL, rank_tol=1e-3)
    schur = oracle._schur_complement
    forced = lambda c0, flat, cfg: schur(c0, flat, dataclasses.replace(cfg, residual_tol=1.0))  # noqa: E731
    solved = raised = 0
    for seed in range(12):
        theta0, null, cone = _leaky_barrier_problem(seed, 1e-4)
        k = 3
        try:
            exact, _ = oracle._barrier(theta0, null, cone, DEFAULT_TOL)
        except CertificationError:  # no strictly feasible point
            continue
        solved += 1
        value = float(np.linalg.norm(exact))
        for cfg, force in ((loose, False), (loose, True)):
            monkeypatch.setattr(oracle, "_schur_complement", forced if force else schur)
            try:
                theta, lower = oracle._barrier(theta0, null, cone, cfg)
            except CertificationError as err:
                assert force and "leaves the cone" in str(err)
                raised += 1
                continue
            c = (theta @ oracle._hermitian_parts(cone[1])).reshape(k, k)
            assert np.linalg.eigvalsh(c)[0] >= -DEFAULT_TOL.psd_tol * np.linalg.norm(c)
            assert lower <= value * (1.0 + 1e-12)  # the least norm over C is at most value
            if not force:
                assert abs(np.linalg.norm(theta) - value) <= GAP * value
        monkeypatch.setattr(oracle, "_schur_complement", schur)
    assert solved >= 8 and raised >= 1


def _kkt_problem(seed, k, p, signs):
    """(theta0, N, cone): a block of order k moved in p directions, whose point phi = M*(Z) / 2 for a Z with
    eigenvalues of ``signs`` makes C(phi) the zero block, the KKT point when Z >= 0."""
    rng = np.random.default_rng(seed)
    basis, coordinates = _hermitian_coordinates(k)
    null = np.linalg.qr(rng.standard_normal((2 * k * k, p)))[0]  # k^2 cone coefficients, k^2 others
    flat = null[: k * k].T @ oracle._hermitian_parts(basis)
    u = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))[0]
    z = u @ np.diag(np.array(signs) * rng.uniform(0.5, 2.0, k)) @ u.conj().T
    phi = (flat.conj() @ z.ravel()).real / 2.0
    c = coordinates(-(phi @ flat).reshape(k, k).conj())  # C0 = -M(phi): ``coordinates`` maps h to conj(h)
    rest = np.linalg.lstsq(null[k * k :].T, -null[: k * k].T @ c, rcond=None)[0]  # theta0 orthogonal to N
    return np.concatenate([c, rest]), null, (0, basis)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("case", ["zero-block", "indefinite-multiplier", "fewer-directions"])
def test_closed_form_cone_minimum_against_the_forced_barrier(monkeypatch, k, case):
    # a zero-block minimum with a definite multiplier takes the closed form; a multiplier that is not
    # semidefinite, or p < k^2 directions, falls through to the barrier.  Either way the answer brackets
    # the barrier's, forced, to the certified gap
    zero_block = oracle._zero_block
    signs = [1.0] + [-1.0 if case == "indefinite-multiplier" else 1.0] * (k - 1)
    solved = 0
    for seed in range(6):
        theta0, null, cone = _kkt_problem(seed, k, k * k - (case == "fewer-directions"), signs)
        taken = []

        def recorded(*args):
            out = zero_block(*args)
            taken.append(out is not None)
            return out

        monkeypatch.setattr(oracle, "_zero_block", recorded)
        theta, lower = oracle._barrier(theta0, null, cone, DEFAULT_TOL)
        monkeypatch.setattr(oracle, "_zero_block", lambda *args: None)
        forced, forced_lower = oracle._barrier(theta0, null, cone, DEFAULT_TOL)
        if not taken:  # C0 is semidefinite: theta0 is the answer
            continue
        solved += 1
        assert taken == [case == "zero-block"]
        value, forced_value = np.linalg.norm(theta), np.linalg.norm(forced)
        assert lower <= forced_value and value <= forced_lower * (1.0 + GAP)
        # the bound may round an ulp above the value (``oracle_eta`` caps it there)
        assert lower <= value * (1.0 + 4e-16) and value <= lower * (1.0 + GAP)
        c = (theta[: k * k] @ oracle._hermitian_parts(cone[1])).reshape(k, k)
        scale = np.linalg.norm((theta0[: k * k] @ oracle._hermitian_parts(cone[1]))) + np.linalg.norm(c)
        assert np.linalg.eigvalsh(c)[0] >= -DEFAULT_TOL.psd_tol * scale
        if case == "zero-block":
            assert np.linalg.norm(c) <= 1e-12 * scale
    assert solved >= 5
