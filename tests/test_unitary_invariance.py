"""A unitary similarity leaves the norms of the Hermitian families unchanged.

For a unitary Q, H -> Q H Q* maps each Hermitian family (Hermitian,
skew-Hermitian, psd, nsd) onto itself and keeps the Frobenius norm, so:

- ``map_min`` on (Q x, Q y) has the verdict and the minimal norm of (x, y);
- ``dsm_solve`` on (Q x1, x2, Q y, Q z, Q w1, w2) has the verdict and the
  bracket of the original problem (Delta = [H1 H2] -> [Q H1 Q*, Q H2]);
- ``eta_sd``/``eta_s`` on the pencil (Q J Q*, Q R Q*, Q E Q*, Q B, S) and the
  vector (Q u1, Q u2, u3) give the backward errors and the verdicts of the
  original eigenpair, for every selection (L(lambda) -> U L(lambda) U* with
  U = diag(Q, Q, I)).

The examples come from the derandomized hypothesis profile in ``conftest.py``.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dsmkit import DsmProblem, EigenPair, PHPencil, dsm_solve, eta_s, eta_sd, gen_eigpair, gen_pencil, map_min
from dsmkit.errors import DsmkitError
from dsmkit.maps import StructureFamily as F
from dsmkit.pencil import ETA_S_COMBOS, ETA_SD_COMBOS, blocks_to_string
from helpers import crandn, dsm_instance, map_instance

FAMILIES = (F.HERMITIAN, F.SKEW_HERMITIAN, F.PSD, F.NSD)
RTOL = 1e-8
SEEDS = st.integers(0, 2**32 - 1)


def _unitary(rng, n):
    q, r = np.linalg.qr(crandn(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))  # Haar distributed


def _close(a, b):
    return a == b or abs(a - b) <= RTOL * abs(b)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.value)
@given(seed=SEEDS, n=st.integers(1, 8), feasible=st.booleans())
def test_map_min_norm_is_unitarily_invariant(family, seed, n, feasible):
    rng = np.random.default_rng(seed)
    x, y = map_instance(family, rng, n) if feasible else (crandn(rng, n), crandn(rng, n))
    q = _unitary(rng, n)
    a, b = map_min(family, x, y), map_min(family, q @ x, q @ y)
    assert (b.feasible, b.boundary) == (a.feasible, a.boundary)
    assert _close(b.min_norm, a.min_norm)
    if a.feasible:  # the minimizer is unique, so it moves with the data
        assert np.linalg.norm(b.minimizer - q @ a.minimizer @ q.conj().T) <= RTOL * np.linalg.norm(a.minimizer)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.value)
@given(seed=SEEDS, n=st.integers(1, 6), m=st.integers(1, 3), exact=st.booleans())
def test_dsm_solve_bracket_is_unitarily_invariant(family, seed, n, m, exact):
    rng = np.random.default_rng(seed)
    p = dsm_instance(family, rng, n, m, exact=exact)
    q = _unitary(rng, n)
    a = dsm_solve(family, p)
    b = dsm_solve(family, DsmProblem(q @ p.x1, p.x2, q @ p.y, q @ p.z, q @ p.w1, p.w2))
    assert (b.feasible, b.exact, b.reason) == (a.feasible, a.exact, a.reason)
    assert _close(b.norm_lower, a.norm_lower) and _close(b.norm_upper, a.norm_upper)


SELECTIONS = [(blocks_to_string(b), "sd") for b in ETA_SD_COMBOS | ETA_S_COMBOS] + [
    (blocks_to_string(b), "s") for b in ETA_S_COMBOS]


def _eta(variant, p, ep, blocks):
    try:
        return (eta_sd if variant == "sd" else eta_s)(p, ep, blocks)
    except DsmkitError as exc:
        return type(exc).__name__


@pytest.mark.parametrize("blocks,variant", sorted(SELECTIONS))
@given(seed=SEEDS, n=st.integers(3, 7), m=st.integers(1, 2), drawn=st.booleans())
def test_eta_is_unitarily_invariant(blocks, variant, seed, n, m, drawn):
    rng = np.random.default_rng(seed)
    p = gen_pencil(n, m, int(rng.integers(2**31)), r_rank=n - 1 if blocks in ("JB", "EB", "JEB") else None)
    if drawn:
        ep = gen_eigpair(p, int(rng.integers(2**31)), blocks, lam=0.8j)
    else:
        ep = EigenPair(-1.3j, crandn(rng, n), crandn(rng, n), crandn(rng, m))
    q = _unitary(rng, n)
    qp = PHPencil(q @ p.J @ q.conj().T, q @ p.R @ q.conj().T, q @ p.E @ q.conj().T, q @ p.B, p.S)
    a = _eta(variant, p, ep, blocks)
    b = _eta(variant, qp, EigenPair(ep.lam, q @ ep.u1, q @ ep.u2, ep.u3), blocks)
    if isinstance(a, str) or isinstance(b, str):
        assert a == b
        return
    assert a.finite or not drawn  # a drawn eigenpair is admissible, so the comparison is not vacuous
    assert (b.finite, b.exact, b.conditions_report) == (a.finite, a.exact, a.conditions_report)
    assert _close(b.eta_lower, a.eta_lower) and _close(b.eta_upper, a.eta_upper)
