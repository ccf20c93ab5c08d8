"""The oracles on the span of their data, against the uncompressed reference, and their reach.

Every oracle solves its problem on the span of the data (the lemma of the
``dsmkit.oracle`` docstring); ``uncompressed_oracle_reference.py`` solves the
same problems on every coefficient of Delta.  Both norms are certified to lie
within ``GAP_FACTOR * residual_tol`` above the one minimum, so they must agree
to that; the minimizer is unique, so the two Delta must agree to the square
root of it.  The reach guards hold the solve at a fixed size whatever n is.
"""

import math
import tracemalloc

import numpy as np
import pytest

import uncompressed_oracle_reference as ref
from dsmkit import DsmProblem, Type1Problem, gen_eigpair, gen_pencil, mapping_data, oracle
from dsmkit import oracle_eta, oracle_least_norm, oracle_min_structured
from dsmkit.config import DEFAULT_TOL
from dsmkit.maps import LINEAR_FAMILIES
from dsmkit.maps import StructureFamily as F
from dsmkit.pencil import ETA_S_COMBOS, ETA_SD_COMBOS, blocks_to_string
from helpers import dsm_instance, map_instance, two_sided_instance, type1_instance, type2_instance

GAP = oracle.GAP_FACTOR * DEFAULT_TOL.residual_tol
LINEAR = sorted(LINEAR_FAMILIES - {F.UNSTRUCTURED}, key=lambda f: f.value)
SELECTIONS = sorted(blocks_to_string(c) for c in ETA_S_COMBOS | ETA_SD_COMBOS)  # those of eta_s and eta_sd


def _blocks(pert):
    return pert.dJ, pert.dR, pert.dE, pert.dB


def _agree(norm, want):
    assert abs(norm - want) <= GAP * want, (norm, want)


def _below(lower, norm):
    # a lower bound of one solve against the feasible norm of the other; two exact solves round apart
    assert lower <= norm * (1.0 + 1e-12), (lower, norm)


def _same_minimizer(delta, want, norm, exact):
    # ||D||^2 >= ||D*||^2 + ||D - D*||^2 for every feasible D and the minimizer D*, so two points
    # certified within GAP of the minimum lie within 2 sqrt(2 GAP) ||D*|| of each other
    tol = 1e-10 if exact else 2.0 * math.sqrt(2.0 * GAP)
    assert np.linalg.norm(delta - want) <= tol * norm


@pytest.mark.parametrize("n,m", [(3, 1), (7, 3), (12, 2)])
def test_linear_problems_match_the_uncompressed_solve(n, m):
    rng = np.random.default_rng(1200 + n)
    for family in LINEAR:
        p = dsm_instance(family, rng, n, m)
        delta, norm = oracle_min_structured(p, family)
        want, want_norm = ref.least_norm([("mul", p.x, p.y), ("adj", p.z, p.w)], family, (n, n + m), split=n)
        _agree(norm, want_norm)
        _same_minimizer(delta, want, want_norm, exact=True)
        x, y = map_instance(family, rng, n)
        delta, norm = oracle_least_norm([("mul", x, y)], family)
        want, want_norm = ref.least_norm([("mul", x, y)], family, (n, n))
        _agree(norm, want_norm)
        _same_minimizer(delta, want, want_norm, exact=True)
    x, y, z, w = two_sided_instance(rng, n, m)  # unstructured n x m: compressed on both sides
    delta, norm = oracle_least_norm([("mul", x, y), ("adj", z, w)])
    want, want_norm = ref.least_norm([("mul", x, y), ("adj", z, w)], None, (n, m))
    _agree(norm, want_norm)
    _same_minimizer(delta, want, want_norm, exact=True)


def _negated(p):
    return DsmProblem(p.x1, p.x2, -p.y, p.z, -p.w1, -p.w2)


def _cone_cases(rng, n, m):
    p = dsm_instance(F.PSD, rng, n, m)
    d = type2_instance(rng, n, m)
    q, _ = type1_instance(rng, n, 2)
    return [(p, F.PSD), (_negated(p), F.NSD), (d, F.DISSIPATIVE), (_negated(d), F.ANTI_DISSIPATIVE),
            (q, F.DISSIPATIVE), (Type1Problem(q.X, -q.Y, q.Z, -q.W), F.ANTI_DISSIPATIVE)]


@pytest.mark.parametrize("n,m", [(3, 1), (6, 3), (8, 2)])
def test_cone_problems_match_the_uncompressed_solve(n, m):
    rng = np.random.default_rng(1300 + n)
    for problem, family in _cone_cases(rng, n, m):
        delta, norm = oracle_min_structured(problem, family)
        want, want_norm = ref.min_structured(problem, family)
        _agree(norm, want_norm)
        _same_minimizer(delta, want, want_norm, exact=False)


@pytest.mark.parametrize("variant", ["s", "sd"])
@pytest.mark.parametrize("blocks", SELECTIONS)
def test_oracle_eta_matches_the_uncompressed_solve(blocks, variant):
    # m = 3 with B selected compresses dB on the right, onto w2
    P = gen_pencil(6, 3, seed=17, r_rank=3, b_rank=1)
    ep = gen_eigpair(P, 23, blocks)
    res = oracle_eta(P, ep, blocks, variant)
    value, lower, pert = ref.eta(P, ep, blocks, variant)
    _agree(res.value, value)
    _below(res.lower, value)  # each bound lies below the other's feasible norm
    _below(lower, res.value)
    for got, want in zip(_blocks(res.perturbation), _blocks(pert)):
        _same_minimizer(got, want, value, exact=variant == "s" or "R" not in blocks)


@pytest.mark.parametrize("blocks", ["JRB", "RB"])
def test_oracle_eta_matches_the_uncompressed_solve_at_n_12(blocks):
    P = gen_pencil(12, 2, seed=19, r_rank=6, b_rank=1)
    ep = gen_eigpair(P, 29, blocks)
    res = oracle_eta(P, ep, blocks, "sd")
    value, lower, _ = ref.eta(P, ep, blocks, "sd")
    _agree(res.value, value)
    _below(res.lower, value)
    _below(lower, res.value)


def test_the_spans_are_those_of_the_lemma():
    rng = np.random.default_rng(1400)
    n, m = 12, 3
    p = dsm_instance(F.PSD, rng, n, m)
    q, s, _, outside = oracle._compressed([("mul", p.x, p.y), ("adj", p.z, p.w)], n, DEFAULT_TOL)
    assert q.shape == (n, 4) and s.shape == (m, 2) and outside <= 1e-14 * np.linalg.norm(p.w)
    # the symmetric classes close the span under conjugation: a real basis of twice the order
    q, _, _, _ = oracle._compressed([("mul", p.x, p.y), ("adj", p.z, p.w)], n, DEFAULT_TOL, real=True)
    assert q.shape == (n, 8) and not np.iscomplexobj(q)
    # the eigenpair rows: u1, u2, y and w1 on the left, w2 alone on the right of dB
    P = gen_pencil(n, m, seed=3, r_rank=6)
    ep = gen_eigpair(P, 5, "JREB")
    _, y, _, w = mapping_data(P, ep)
    x = np.concatenate([ep.u2, np.zeros(m)])
    q, s, _, _ = oracle._compressed([("mul", x, y), ("adj", ep.u1, w)], n, DEFAULT_TOL)
    assert q.shape == (n, 3) and s.shape == (m, 1)  # u2 = alpha u1 for JREB draws


@pytest.mark.parametrize("blocks", ["JREB", "JRB", "JR", "RB"])
@pytest.mark.parametrize("n", [3, 64])
def test_oracle_eta_brackets_the_backward_error(blocks, n):
    P = gen_pencil(n, 2, seed=n, r_rank=max(1, n // 2), b_rank=1)
    for seed in range(2):
        ep = gen_eigpair(P, 40 + seed, blocks)
        res = oracle_eta(P, ep, blocks, "sd")
        assert res.lower <= res.value <= res.lower * (1.0 + GAP)
        exact = oracle_eta(P, ep, blocks, "s")  # no cone: the least-norm solve, lower = value
        assert exact.lower == exact.value


def _traced_peak(call):
    tracemalloc.start()
    try:
        out = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def test_psd_oracle_at_n_1024_takes_memory_of_its_output():
    n, m = 1024, 2
    p = dsm_instance(F.PSD, np.random.default_rng(1500), n, m)
    (delta, norm), peak = _traced_peak(lambda: oracle_min_structured(p, F.PSD))
    out_bytes = delta.nbytes
    assert peak <= 3 * out_bytes, f"traced peak {peak / 2**20:.1f} MB, output {out_bytes / 2**20:.1f} MB"
    assert np.linalg.norm(delta @ p.x - p.y) <= 1e-9 * np.linalg.norm(p.y)
    assert abs(np.linalg.norm(delta) - norm) <= 1e-12 * norm


def test_eta_oracle_at_n_256_takes_memory_of_its_output():
    n = 256
    P = gen_pencil(n, 4, seed=7, r_rank=n // 2)
    ep = gen_eigpair(P, 8, "JREB")
    res, peak = _traced_peak(lambda: oracle_eta(P, ep, "JREB", "sd"))
    out_bytes = sum(b.nbytes for b in _blocks(res.perturbation))
    assert peak <= 3 * out_bytes, f"traced peak {peak / 2**20:.1f} MB, output {out_bytes / 2**20:.1f} MB"
    assert res.lower <= res.value <= res.lower * (1.0 + GAP)


def _solve_sizes(monkeypatch, call):
    # the shape of the stacked basis of each least-norm solve, and the directions, the block's order and that of
    # the block solved (closed form or barrier) of each cone solve
    sizes = []
    affine, schur = oracle._affine, oracle._schur_complement

    def recorded_affine(basis, *args):
        sizes.append(basis.shape)
        return affine(basis, *args)

    def recorded_schur(c0, flat, cfg):
        out = schur(c0, flat, cfg)
        sizes.append((flat.shape[0], c0.shape[0], out[0].shape[0]))
        return out

    monkeypatch.setattr(oracle, "_affine", recorded_affine)
    monkeypatch.setattr(oracle, "_schur_complement", recorded_schur)
    call()
    monkeypatch.setattr(oracle, "_affine", affine)
    monkeypatch.setattr(oracle, "_schur_complement", schur)
    assert sizes, "no solve ran"
    return sizes


def test_barrier_size_does_not_grow_with_n(monkeypatch):
    # the dense basis is sized by the span of the data alone
    def least_norm(n):
        x, y = map_instance(F.HERMITIAN, np.random.default_rng(1600), n)
        return _solve_sizes(monkeypatch, lambda: oracle_least_norm([("mul", x, y)], F.HERMITIAN))

    def psd(n):
        p = dsm_instance(F.PSD, np.random.default_rng(1600), n, 2)
        return _solve_sizes(monkeypatch, lambda: oracle_min_structured(p, F.PSD))

    def eta(n):
        P = gen_pencil(n, 2, seed=9, r_rank=n // 2)
        ep = gen_eigpair(P, 10, "JREB")
        return _solve_sizes(monkeypatch, lambda: oracle_eta(P, ep, "JREB", "sd"))

    for sizes in (least_norm, psd, eta):
        small = sizes(16)
        assert len(small[0]) == 3 and small == sizes(1024), sizes.__name__
