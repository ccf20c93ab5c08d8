"""The oracle's sparse linear layer against the dense basis it replaced.

``family_basis`` returns each element as its (at most two) nonzero entries;
``dense_oracle_reference.py`` builds the same basis as a list of n x n
matrices.  The elements must be identical in order and value, and the
least-norm solves built on either must agree to 1e-12 relative.
"""

import tracemalloc

import numpy as np
import pytest

import dense_oracle_reference as ref
from dsmkit import gen_eigpair, gen_pencil, oracle_eta, oracle_least_norm, oracle_min_structured
from dsmkit.maps import LINEAR_FAMILIES, map_min
from dsmkit.maps import StructureFamily as F
from dsmkit.oracle import family_basis
from helpers import dsm_instance, map_instance

RTOL = 1e-12
FAMILIES = sorted(LINEAR_FAMILIES, key=lambda f: f.value)


def _dense(r, k, c, n):
    out = np.zeros((n, n), dtype=complex)
    out[r[0], k[0]] += c[0]
    out[r[1], k[1]] += c[1]
    return out


def _close(a, b):
    assert a.shape == b.shape
    assert np.linalg.norm(a - b) <= RTOL * max(np.linalg.norm(b), 1e-300)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_sparse_basis_equals_dense_loops(family, n):
    r, k, c = family_basis(family, n)
    dense = ref.family_basis(family, n)
    assert r.shape == k.shape == c.shape == (len(dense), 2)
    for b, expect in enumerate(dense):
        assert np.array_equal(_dense(r[b], k[b], c[b], n), expect), (family, n, b)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_assembly_equals_the_add_at_sums(family, n):
    # the fancy-indexed sums of _hermitian_parts and the bincount of _assemble add what np.add.at added, in
    # its order: the same bits
    from dsmkit.oracle import _assemble, _hermitian_parts

    r, k, c = basis = family_basis(family, n)
    b = np.repeat(np.arange(c.shape[0])[:, None], 2, axis=1)
    parts = np.zeros((c.shape[0], n, n), dtype=complex)
    np.add.at(parts, (b, r, k), c / 2.0)
    np.add.at(parts, (b, k, r), c.conj() / 2.0)
    assert np.array_equal(_hermitian_parts(basis, n), parts.reshape(c.shape[0], n * n))
    theta = np.random.default_rng(n).standard_normal(c.shape[0]) * np.logspace(-20, 20, c.shape[0])
    summed = np.zeros((n, n), dtype=complex)
    np.add.at(summed, (r.ravel(), k.ravel()), (theta[:, None] * c).ravel())
    assert np.array_equal(_assemble(basis, theta, (n, n)), summed)


@pytest.mark.parametrize("family", FAMILIES)
def test_least_norm_matches_dense_basis(family):
    rng = np.random.default_rng(501)
    for n in (1, 2, 3, 5):
        if family is F.SKEW_SYMMETRIC and n == 1:
            continue  # the empty basis, which the dense solve cannot stack
        x, y = map_instance(family, rng, n)
        member = map_min(family, x, y).minimizer
        for cons in ([("mul", x, y)], [("adj", x, member.conj().T @ x)]):
            delta, norm = oracle_least_norm(cons, family)
            want, want_norm = ref.least_norm(cons, family, (n, n))
            _close(delta, want)
            assert norm == pytest.approx(want_norm, rel=RTOL)
    if family is F.UNSTRUCTURED:
        return
    for n, m in ((2, 1), (3, 2), (4, 3)):
        p = dsm_instance(family, rng, n, m)
        delta, norm = oracle_min_structured(p, family)
        cons = [("mul", p.x, p.y), ("adj", p.z, p.w)]
        want, want_norm = ref.least_norm(cons, family, (n, n + m), split=n)
        _close(delta, want)
        assert norm == pytest.approx(want_norm, rel=RTOL)


@pytest.mark.parametrize("blocks,variant", [
    ("JB", "s"), ("EB", "s"), ("JEB", "s"), ("RB", "s"), ("JR", "sd"), ("JRB", "sd"),
])
def test_oracle_eta_matches_dense_basis(blocks, variant):
    P = gen_pencil(3, 2, seed=4, r_rank=2)
    ep = gen_eigpair(P, 8, blocks)
    res = oracle_eta(P, ep, blocks, variant)
    pb = res.perturbation
    # the semidefinite search fixes dR; the other blocks are its least-norm solve
    want = ref.eta_blocks(P, ep, blocks, pb.dR if variant == "sd" else None)
    for got, name in ((pb.dJ, "J"), (pb.dR, "R"), (pb.dE, "E"), (pb.dB, "B")):
        scale = max(np.linalg.norm(want[k]) for k in "JREB")
        assert np.linalg.norm(got - want[name]) <= RTOL * scale, name


def test_least_norm_memory_is_one_constraint_matrix():
    # Hermitian map at n = 48: the real constraint matrix is 2n x n^2 float64
    n = 48
    rng = np.random.default_rng(502)
    x, y = map_instance(F.HERMITIAN, rng, n)
    tracemalloc.start()
    try:
        delta, _ = oracle_least_norm([("mul", x, y)], F.HERMITIAN)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    matrix_bytes = 2 * n * n * n * 8
    assert peak <= 4 * matrix_bytes, f"traced peak {peak / 2**20:.1f} MB, matrix {matrix_bytes / 2**20:.2f} MB"
    assert np.linalg.norm(delta @ x - y) <= 1e-10 * np.linalg.norm(y)
