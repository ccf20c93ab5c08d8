"""The oracle's linear layer against the loops that define its basis.

``family_basis`` builds the basis of each linear family by one rule from its
row of ``maps.FAMILIES``; ``dense_oracle_reference.py`` builds it by the
loops that define it, one n x n matrix per element.  The elements must be
identical in order and value, and the least-norm solves built on either
must agree to 1e-12 relative.
"""

import tracemalloc

import numpy as np
import pytest

import dense_oracle_reference as ref
from dsmkit import gen_eigpair, gen_pencil, oracle_eta, oracle_least_norm, oracle_min_structured
from dsmkit.config import DEFAULT_TOL
from dsmkit.maps import FAMILIES as ROWS
from dsmkit.maps import LINEAR_FAMILIES, _in_family, map_min
from dsmkit.maps import StructureFamily as F
from dsmkit.oracle import family_basis
from helpers import dsm_instance, map_instance

RTOL = 1e-12
FAMILIES = sorted(LINEAR_FAMILIES, key=lambda f: f.value)


def _close(a, b):
    assert a.shape == b.shape
    assert np.linalg.norm(a - b) <= RTOL * max(np.linalg.norm(b), 1e-300)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_sparse_basis_equals_dense_loops(family, n):
    basis = family_basis(family, n)
    dense = ref.family_basis(family, n)
    assert isinstance(basis, np.ndarray) and not basis.flags.writeable
    assert np.array_equal(basis, np.array(dense, dtype=complex).reshape(len(dense), n, n)), (family, n)


@pytest.mark.parametrize("family", sorted((f for f, row in ROWS.items() if row.cone is None), key=lambda f: f.value))
@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_family_basis_is_an_orthonormal_basis_of_the_family(family, n):
    # every linear row of the family table, by the one rule: a new row is covered with no new case
    basis = family_basis(family, n)
    flat = basis.reshape(basis.shape[0], n * n)
    assert np.abs((flat.conj() @ flat.T).real - np.eye(basis.shape[0])).max(initial=0.0) <= 1e-15  # Re tr(B* A)
    assert all(_in_family(family, b, DEFAULT_TOL) for b in basis)
    spec = ROWS[family]
    size = 2 * n * n if spec.form is None else n * n if spec.form == "sesquilinear" else n * (n + spec.sign)
    assert basis.shape == (size, n, n)


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
    # every linear family at n = 1024: the solve is on the span of the data, so the n x n Delta it returns
    # is the one large array
    n = 1024
    rng = np.random.default_rng(502)
    for family in FAMILIES:
        x, y = map_instance(family, rng, n)
        tracemalloc.start()
        try:
            delta, _ = oracle_least_norm([("mul", x, y)], family)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * delta.nbytes, f"{family.value}: traced peak {peak / 2**20:.1f} MB, Delta 16 MB"
        assert np.linalg.norm(delta @ x - y) <= 1e-10 * np.linalg.norm(y)
