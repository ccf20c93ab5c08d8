"""The one reflection rule: a negated family is its base family on (x, -y, z, -w), negated.

Delta is in -S iff -Delta is in S, so every solver, evaluator and oracle
must give F_neg(x, y, z, w) = -F(x, -y, z, -w) for nsd/psd and
anti-dissipative/dissipative, bit for bit, and ``verify_solution`` must give
both sides the same verdict.  An infeasible negated problem states its own
condition at the caller's value.
"""

import numpy as np
import pytest

from dsmkit import (
    DsmProblem,
    Type1Problem,
    dsdm_type1,
    dsdm_type1_vec,
    dsdm_type2,
    dsm_characterize,
    dsm_solve,
    map_characterize,
    map_min,
    oracle_min_structured,
    verify_solution,
)
from dsmkit.maps import StructureFamily as F
from helpers import (
    crandn,
    dsm_instance,
    map_instance,
    type1_instance,
    type1_vec_instance,
    type2_instance,
)

PAIRS = [(F.NSD, F.PSD), (F.ANTI_DISSIPATIVE, F.DISSIPATIVE)]
SIZES = [(1, 1), (3, 2), (8, 3)]


def _reflected(p):
    return DsmProblem(p.x1, p.x2, -p.y, p.z, -p.w1, -p.w2)


def _negated_equal(a, b):
    """a = -b bit for bit (both None allowed)."""
    assert (a is None) == (b is None)
    if a is not None:
        assert np.array_equal(a, -b)


def _same_solution(neg, base, blocks):
    assert neg.feasible == base.feasible
    for name in blocks:
        _negated_equal(getattr(neg, name), getattr(base, name))
    for name in ("min_norm", "norm_lower", "norm_upper", "exact", "warnings", "boundary"):
        if hasattr(base, name):
            assert getattr(neg, name) == getattr(base, name), name


def _same_verdict(delta, data, family, base_delta, base_data, base_family):
    if delta is not None:
        assert verify_solution(delta, data, family).ok == verify_solution(base_delta, base_data, base_family).ok


@pytest.mark.parametrize("neg, base", PAIRS)
def test_map_min_is_the_reflected_base(neg, base):
    rng = np.random.default_rng(601)
    for n in (1, 3, 8):
        for family in (neg, base):  # feasible for the negated family, then for the base one
            x, y = map_instance(family, rng, n)
            a, b = map_min(neg, x, y), map_min(base, x, -y)
            _same_solution(a, b, ["minimizer"])
            _same_verdict(a.minimizer, (x, y), neg, b.minimizer, (x, -y), base)


@pytest.mark.parametrize("neg, base", PAIRS)
def test_map_characterize_is_the_reflected_base(neg, base):
    rng = np.random.default_rng(602)
    for n in (1, 3, 8):
        x, y = map_instance(neg, rng, n)
        if base is F.PSD:
            g = crandn(rng, n, n)
            params = {"K": g @ g.conj().T}
        else:  # admissible for the base problem (x, -y)
            z, g, low = crandn(rng, n, n), crandn(rng, n, n), crandn(rng, n, n)
            q = -2.0 * y + z.conj().T @ x
            k = np.outer(q, q.conj()) / (4.0 * np.vdot(x, -y).real) + low @ low.conj().T
            params = {"Z": z, "K": k, "G": g - g.conj().T}
        _negated_equal(map_characterize(neg, x, y, params), map_characterize(base, x, -y, params))


def test_dsm_solve_and_characterize_nsd_are_the_reflected_psd():
    rng = np.random.default_rng(603)
    for n, m in SIZES:
        for family in (F.NSD, F.PSD):
            for exact in (False, True):
                p = dsm_instance(family, rng, n, m, exact=exact)
                a, b = dsm_solve(F.NSD, p), dsm_solve(F.PSD, _reflected(p))
                _same_solution(a, b, ["H1", "H2"])
                assert list(a.diagnostics) == list(b.diagnostics)
                if a.feasible:
                    _same_verdict(a.H, p, F.NSD, b.H, _reflected(p), F.PSD)
                    g = crandn(rng, n, n)
                    k, r = g @ g.conj().T, crandn(rng, n, m)
                    # R is reflected with the data: it enters both sets as P_z R P_x2
                    _negated_equal(dsm_characterize(F.NSD, p, k, r), dsm_characterize(F.PSD, _reflected(p), k, -r))


def test_dissipative_solvers_with_anti_are_the_reflected_base():
    rng = np.random.default_rng(604)
    for n, m in ((3, 1), (3, 2)):
        q, _ = type1_instance(rng, n, m)
        for data in ((q.Y, q.W), (-q.Y, -q.W)):
            neg_q, base_q = Type1Problem(q.X, data[0], q.Z, data[1]), Type1Problem(q.X, -data[0], q.Z, -data[1])
            a, b = dsdm_type1(neg_q, anti=True), dsdm_type1(base_q)
            _same_solution(a, b, ["minimizer"])
            _same_verdict(a.minimizer, neg_q, F.ANTI_DISSIPATIVE, b.minimizer, base_q, F.DISSIPATIVE)
    for n in (1, 3, 8):
        x, y, z, w = type1_vec_instance(rng, n)
        for sign in (1.0, -1.0):
            a, b = dsdm_type1_vec(x, sign * y, z, sign * w, anti=True), dsdm_type1_vec(x, -sign * y, z, -sign * w)
            _same_solution(a, b, ["minimizer"])
            _same_verdict(a.minimizer, (x, sign * y, z, sign * w), F.ANTI_DISSIPATIVE,
                          b.minimizer, (x, -sign * y, z, -sign * w), F.DISSIPATIVE)
    for n, m in SIZES:
        for p in (type2_instance(rng, n, m), type2_instance(rng, n, m, exact=True)):
            for q in (p, _reflected(p)):
                a, b = dsdm_type2(q, anti=True), dsdm_type2(_reflected(q))
                _same_solution(a, b, ["H1", "H2"])
                if a.feasible:
                    _same_verdict(a.H, q, F.ANTI_DISSIPATIVE, b.H, _reflected(q), F.DISSIPATIVE)


def test_anti_dissipative_gram_is_the_negated_base_gram():
    # the anti-dissipative minimizer holds -P_Z U2 J U2* P_X with J >= 0 the base problem's gram
    rng = np.random.default_rng(607)
    q, _ = type1_instance(rng, 3, 1)
    x, y, z, w = type1_vec_instance(rng, 3)
    pairs = [
        (dsdm_type1(Type1Problem(q.X, -q.Y, q.Z, -q.W), anti=True), dsdm_type1(q)),
        (dsdm_type1_vec(x, -y, z, -w, anti=True), dsdm_type1_vec(x, y, z, w)),
    ]
    for neg, base in pairs:
        _negated_equal(neg.gram, base.gram)
        assert np.linalg.eigvalsh((base.gram + base.gram.conj().T) / 2)[0] >= -1e-12 * np.linalg.norm(base.gram)
        assert np.linalg.norm(base.gram) > 0


def test_oracle_is_the_reflected_base():
    rng = np.random.default_rng(605)
    p = dsm_instance(F.NSD, rng, 2, 1, exact=True)
    cases = [(p, F.NSD, _reflected(p), F.PSD)]
    p = type2_instance(rng, 2, 1, exact=True)
    cases.append((_reflected(p), F.ANTI_DISSIPATIVE, p, F.DISSIPATIVE))
    q, _ = type1_instance(rng, 2, 1)
    cases.append((Type1Problem(q.X, -q.Y, q.Z, -q.W), F.ANTI_DISSIPATIVE, q, F.DISSIPATIVE))
    for neg_problem, neg, base_problem, base in cases:
        (d_neg, norm_neg), (d_base, norm_base) = (
            oracle_min_structured(neg_problem, neg), oracle_min_structured(base_problem, base)
        )
        _negated_equal(d_neg, d_base)
        assert norm_neg == norm_base


# ---------------------------------------------------------------------------
# infeasible negated problems state their own condition at the caller's value


def test_nsd_and_anti_reasons_state_the_callers_value():
    rng = np.random.default_rng(606)
    x, y = map_instance(F.PSD, rng, 4)
    s = np.vdot(x, y)
    assert map_min(F.NSD, x, y).reason == f"x*y not real negative ({s:.3e})"
    g = crandn(rng, 4, 4)
    d = (g - g.conj().T) + 0.5 * g @ g.conj().T  # D + D* >= 0
    x = crandn(rng, 4)
    s = np.vdot(x, d @ x)
    assert s.real > 0
    assert map_min(F.ANTI_DISSIPATIVE, x, d @ x).reason == f"Re(x*y) positive ({s.real:.3e})"

    p = dsm_instance(F.PSD, rng, 3, 2)
    assert dsm_solve(F.NSD, p).reason == f"z*w1 not negative ({np.vdot(p.z, p.w1):.3e})"
    p = type2_instance(rng, 3, 2)
    assert dsdm_type2(p, anti=True).reason == f"Re(z*w1) positive ({np.vdot(p.z, p.w1).real:.3e})"
    # the compatibility gap does not change sign under reflection
    broken = DsmProblem(p.x1, p.x2, p.y + crandn(rng, 3), p.z, p.w1, p.w2)
    assert dsdm_type2(broken, anti=True).reason == dsdm_type2(broken).reason
