import numpy as np
import pytest

from dsmkit import dsm_characterize, dsm_characterize_type2, map_characterize, map_min, map_two_sided, oracle_least_norm
from dsmkit.errors import ConstraintViolationError, DegenerateInputError, DimensionMismatchError, NonFiniteEntriesError
from dsmkit.maps import StructureFamily as F
from helpers import NON_FINITE, crandn, dsm_instance, map_instance, map_params, two_sided_instance, type2_instance

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def test_hermitian_examples():
    sol = map_min(F.HERMITIAN, E1, E1)
    assert sol.feasible and np.allclose(sol.minimizer, np.outer(E1, E1))
    assert sol.min_norm == pytest.approx(1.0)
    assert not map_min(F.HERMITIAN, E1, 1j * E1).feasible


def test_psd_examples():
    assert not map_min(F.PSD, E1, -E1).feasible
    sol = map_min(F.NSD, E1, -E1)
    assert sol.feasible and np.allclose(sol.minimizer, -np.outer(E1, E1))


def test_unstructured_example():
    sol = map_min(F.UNSTRUCTURED, E1, 2 * E2)
    assert np.allclose(sol.minimizer, [[0, 0], [2, 0]])
    assert sol.min_norm == pytest.approx(2.0)


def test_zero_vectors_rejected():
    with pytest.raises(DegenerateInputError):
        map_min(F.HERMITIAN, np.zeros(2), E1)


def test_skew_symmetric_feasibility():
    rng = np.random.default_rng(2)
    x, y = map_instance(F.SKEW_SYMMETRIC, rng, 4)
    sol = map_min(F.SKEW_SYMMETRIC, x, y)
    assert sol.feasible
    d = sol.minimizer
    assert np.linalg.norm(d + d.T) <= 1e-10
    x2 = crandn(rng, 3)
    y2 = crandn(rng, 3) + x2  # x^T y generically nonzero
    if abs(x2 @ y2) > 1e-6:
        assert not map_min(F.SKEW_SYMMETRIC, x2, y2).feasible


@pytest.mark.parametrize(
    "family",
    [F.UNSTRUCTURED, F.HERMITIAN, F.SKEW_HERMITIAN, F.SYMMETRIC, F.SKEW_SYMMETRIC],
)
def test_min_norm_matches_least_norm_oracle(family):
    rng = np.random.default_rng(hash(family.value) % 2**32)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        x, y = map_instance(family, rng, n)
        sol = map_min(family, x, y)
        assert sol.feasible
        _, oracle_norm = oracle_least_norm(
            [("mul", x, y)],
            None if family is F.UNSTRUCTURED else family,
        )
        assert sol.min_norm == pytest.approx(oracle_norm, rel=1e-8)
        assert np.linalg.norm(sol.minimizer @ x - y) <= 1e-9 * max(1.0, np.linalg.norm(y))


def test_scaling_invariance():
    rng = np.random.default_rng(5)
    for family in (F.HERMITIAN, F.PSD, F.DISSIPATIVE, F.SYMMETRIC, F.UNSTRUCTURED):
        x, y = map_instance(family, rng, 5)
        c = crandn(rng)
        a = map_min(family, x, y)
        b = map_min(family, c * x, c * y)
        assert b.min_norm == pytest.approx(a.min_norm, rel=1e-12)
        assert np.linalg.norm(a.minimizer - b.minimizer) <= 1e-10 * max(1.0, a.min_norm)


def test_two_sided_examples():
    sol = map_two_sided(E1, E1, E1, E1)
    assert np.allclose(sol.minimizer, np.outer(E1, E1)) and sol.min_norm == pytest.approx(1.0)
    assert not map_two_sided(E1, E1, 2 * E1, E1).feasible


def test_two_sided_matches_oracle():
    rng = np.random.default_rng(8)
    for _ in range(25):
        x, y, z, w = two_sided_instance(rng, 3, 3)
        sol = map_two_sided(x, y, z, w)
        assert sol.feasible
        _, oracle_norm = oracle_least_norm([("mul", x, y), ("adj", z, w)], None)
        assert sol.min_norm == pytest.approx(oracle_norm, rel=1e-8)
        d = sol.minimizer
        assert np.linalg.norm(d @ x - y) <= 1e-9 * max(1.0, np.linalg.norm(y))
        assert np.linalg.norm(d.conj().T @ z - w) <= 1e-9 * max(1.0, np.linalg.norm(w))


def test_dissipative_minimizer_and_norm_identity():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        x, y = map_instance(F.DISSIPATIVE, rng, n)
        sol = map_min(F.DISSIPATIVE, x, y)
        assert sol.feasible and not sol.boundary
        d = sol.minimizer
        assert np.linalg.norm(d @ x - y) <= 1e-10 * max(1.0, np.linalg.norm(y))
        lam_min = np.linalg.eigvalsh(d + d.conj().T)[0]
        assert lam_min >= -1e-10 * max(1.0, np.linalg.norm(d))
        s = np.vdot(x, y)
        display = (
            2 * np.linalg.norm(y) ** 2 / np.linalg.norm(x) ** 2
            - abs(s) ** 2 / np.linalg.norm(x) ** 4
        )
        assert sol.min_norm**2 == pytest.approx(display, rel=1e-10)


def test_dissipative_boundary_flag():
    rng = np.random.default_rng(12)
    x = crandn(rng, 4)
    y = crandn(rng, 4)
    y = y - (np.vdot(x, y).real / np.vdot(x, x).real) * x  # Re(x*y) = 0
    sol = map_min(F.DISSIPATIVE, x, y)
    assert sol.feasible and sol.boundary
    d = sol.minimizer
    assert np.linalg.norm(d @ x - y) <= 1e-10 * max(1.0, np.linalg.norm(y))
    assert np.linalg.eigvalsh(d + d.conj().T)[0] >= -1e-10 * max(1.0, np.linalg.norm(d))


def test_characterize_hermitian_identity_example():
    d = map_characterize(F.HERMITIAN, E1, E1, {"H": np.eye(2)})
    assert np.allclose(d, np.eye(2))


def test_characterize_dissipative_base_point():
    rng = np.random.default_rng(14)
    x, y = map_instance(F.DISSIPATIVE, rng, 4)
    z = -2.0 * np.outer(y, np.conj(x) / np.vdot(x, x)).conj().T
    d = map_characterize(
        F.DISSIPATIVE, x, y, {"Z": z, "K": np.zeros((4, 4)), "G": np.zeros((4, 4))}
    )
    sol = map_min(F.DISSIPATIVE, x, y)
    assert np.linalg.norm(d - sol.minimizer) <= 1e-12 * max(1.0, sol.min_norm)


def test_characterize_constraint_violations():
    with pytest.raises(ConstraintViolationError) as err:
        map_characterize(F.HERMITIAN, E1, E1, {"H": np.array([[0, 1], [0, 0]])})
    assert err.value.constraint == "H_hermitian"
    rng = np.random.default_rng(15)
    x, y = map_instance(F.DISSIPATIVE, rng, 3)
    with pytest.raises(ConstraintViolationError) as err:
        map_characterize(
            F.DISSIPATIVE, x, y,
            {"Z": np.zeros((3, 3)), "K": np.zeros((3, 3)), "G": np.zeros((3, 3))},
        )
    assert err.value.constraint == "K_shifted_psd"

    # K = t I + (S - S*) has a semidefinite Hermitian part but is not Hermitian, so it is not psd;
    # t clears the shifted condition of the dissipative characterizations (with Z = 0, q = 2y or 2w1)
    skew = crandn(rng, 3, 3)
    skew = skew - skew.conj().T

    def not_hermitian(q=np.zeros(3), re=1.0):
        return (1.0 + np.vdot(q, q).real / (4.0 * re)) * np.eye(3) + skew

    zero = np.zeros((3, 3))
    k = not_hermitian(2 * y, np.vdot(x, y).real)
    calls = [(map_characterize, F.DISSIPATIVE, x, y, {"Z": zero, "K": k, "G": zero})]
    for family in (F.PSD, F.NSD):
        calls.append((map_characterize, family, *map_instance(family, rng, 3), {"K": not_hermitian()}))
        calls.append((dsm_characterize, family, dsm_instance(family, rng, 3, 2), not_hermitian(), np.zeros((3, 2))))
    p = type2_instance(rng, 3, 2)
    k = not_hermitian(2 * p.w1, np.vdot(p.z, p.w1).real)
    calls.append((dsm_characterize_type2, p, zero, k, zero, np.zeros((3, 2))))
    for fn, *args in calls:
        with pytest.raises(ConstraintViolationError) as err:
            fn(*args)
        assert (err.value.constraint, str(err.value)) == ("K_psd", "K must be positive semidefinite")


@pytest.mark.parametrize("family", list(F))
def test_characterize_membership_audit(family):
    rng = np.random.default_rng(hash(family.value) % 2**31)
    base = None
    for _ in range(50):
        n = int(rng.integers(2, 6))
        x, y = map_instance(family, rng, n)
        d = map_characterize(family, x, y, map_params(family, rng, x, y, n))
        assert np.linalg.norm(d @ x - y) <= 1e-9 * max(1.0, np.linalg.norm(d) * np.linalg.norm(x))
        d1 = d
        if family is F.HERMITIAN:
            assert np.linalg.norm(d1 - d1.conj().T) <= 1e-9 * max(1.0, np.linalg.norm(d1))
        elif family is F.SKEW_HERMITIAN:
            assert np.linalg.norm(d1 + d1.conj().T) <= 1e-9 * max(1.0, np.linalg.norm(d1))
        elif family is F.SYMMETRIC:
            assert np.linalg.norm(d1 - d1.T) <= 1e-9 * max(1.0, np.linalg.norm(d1))
        elif family is F.SKEW_SYMMETRIC:
            assert np.linalg.norm(d1 + d1.T) <= 1e-9 * max(1.0, np.linalg.norm(d1))
        elif family is F.PSD:
            assert np.linalg.eigvalsh((d1 + d1.conj().T) / 2)[0] >= -1e-8 * max(1.0, np.linalg.norm(d1))
        elif family is F.NSD:
            assert np.linalg.eigvalsh((d1 + d1.conj().T) / 2)[-1] <= 1e-8 * max(1.0, np.linalg.norm(d1))
        elif family is F.DISSIPATIVE:
            assert np.linalg.eigvalsh(d1 + d1.conj().T)[0] >= -1e-8 * max(1.0, np.linalg.norm(d1))
        elif family is F.ANTI_DISSIPATIVE:
            assert np.linalg.eigvalsh(d1 + d1.conj().T)[-1] <= 1e-8 * max(1.0, np.linalg.norm(d1))
        # optimality certificate: samples never beat the reported minimum
        sol = map_min(family, x, y)
        assert np.linalg.norm(d) >= sol.min_norm - 1e-9


@pytest.mark.parametrize("family", list(F))
def test_map_characterize_refuses_unequal_lengths_as_map_min_does(family):
    # unstructured once broadcast x of length 3 and y of length 1 into a 3 x 3 matrix, and the
    # symmetric and Hermitian families raised numpy's own ValueError
    rng = np.random.default_rng(15)
    params = {name: np.zeros((3, 3)) for name in "ZHKG"}  # the right shape for x, every family's names
    for x, y in ((crandn(rng, 3), crandn(rng, 1)), (crandn(rng, 1), crandn(rng, 3))):
        with pytest.raises(DimensionMismatchError) as expected:
            map_min(family, x, y)
        with pytest.raises(DimensionMismatchError) as err:
            map_characterize(family, x, y, {name: a[:len(x), :len(x)] for name, a in params.items()})
        assert str(err.value) == str(expected.value) == f"x and y must share a dimension, got {x.shape} vs {y.shape}"


@pytest.mark.parametrize("kind", list(NON_FINITE))
@pytest.mark.parametrize("family", list(F))
def test_map_min_rejects_a_non_finite_vector_by_name(family, kind):
    # nsd and anti-dissipative reflect onto -y without validating again: map_min itself is the boundary
    x, y = map_instance(family, np.random.default_rng(3), 5)
    for name, args in (("x", (NON_FINITE[kind](x), y)), ("y", (x, NON_FINITE[kind](y)))):
        with pytest.raises(NonFiniteEntriesError, match=f"^{name} contains"):
            map_min(family, *args)


@pytest.mark.parametrize("kind", list(NON_FINITE))
def test_map_two_sided_and_the_least_norm_oracle_name_a_non_finite_vector(kind):
    data = dict(zip("xyzw", two_sided_instance(np.random.default_rng(4), 4, 3)))
    for name in data:
        with pytest.raises(NonFiniteEntriesError, match=f"^{name} contains"):
            map_two_sided(**{**data, name: NON_FINITE[kind](data[name])})
    x, y = data["x"], crandn(np.random.default_rng(5), 3)
    with pytest.raises(NonFiniteEntriesError, match="^constraint 1: v contains"):
        oracle_least_norm([("mul", x, y), ("adj", NON_FINITE[kind](y), x)])
    with pytest.raises(NonFiniteEntriesError, match="^constraint 0: r contains"):
        oracle_least_norm([("mul", x, NON_FINITE[kind](y))])


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, -np.inf), np.float64(np.nan)])
def test_map_min_rejects_a_non_finite_scalar(value):
    with pytest.raises(NonFiniteEntriesError, match="^x contains"):
        map_min(F.HERMITIAN, value, 1.0)
    with pytest.raises(NonFiniteEntriesError, match="^y contains"):
        map_min(F.NSD, 1.0, value)


def test_map_min_takes_an_empty_vector_as_zero():
    with pytest.raises(DegenerateInputError, match="^x must be nonzero"):
        map_min(F.HERMITIAN, [], [])
