import numpy as np
import pytest

from dsmkit import DEFAULT_TOL, EigenPair, PHPencil, gen_pencil, pinv
from dsmkit.errors import NonFiniteEntriesError
from dsmkit.linalg import as_complex
from helpers import NON_FINITE, crandn, watch_linalg


def test_pinv_scalar():
    assert np.allclose(pinv(np.array([[2.0]])), [[0.5]])


def test_pinv_zero_matrix():
    out = pinv(np.zeros((2, 3)))
    assert out.shape == (3, 2)
    assert np.all(out == 0)


def test_pinv_unit_vector():
    e1 = np.array([1.0, 0.0])
    assert np.allclose(pinv(e1), np.array([[1.0, 0.0]]))


@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
def test_vector_pinv_matches_svd_at_extreme_scales(scale):
    rng = np.random.default_rng(3)
    for x in (crandn(rng, 7), crandn(rng, 7, 1), crandn(rng, 1, 7)):
        got = pinv(scale * x)
        want = np.linalg.pinv(scale * (x[:, None] if x.ndim == 1 else x))
        assert got.shape == want.shape
        assert np.all(np.isfinite(got))
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


def test_pinv_rejects_nan():
    with pytest.raises(NonFiniteEntriesError):
        pinv(np.array([[np.nan, 0.0]]))


@pytest.mark.parametrize("kind", list(NON_FINITE))
@pytest.mark.parametrize("shape", [(5,), (3, 4)])
def test_every_form_of_a_non_finite_entry_is_rejected_by_name(kind, shape):
    # one pass over the complex array must see a NaN or an Inf in either part, whatever the caller passed
    bad = NON_FINITE[kind](crandn(np.random.default_rng(1), *shape))
    with pytest.raises(NonFiniteEntriesError, match="^data contains NaN/Inf entries$"):
        as_complex(bad, "data")
    with pytest.raises(NonFiniteEntriesError):
        pinv(bad)


@pytest.mark.parametrize("value", [np.nan, -np.inf, complex(0.0, np.nan), complex(1.0, np.inf), np.float64(np.inf)])
def test_a_non_finite_scalar_is_rejected(value):
    with pytest.raises(NonFiniteEntriesError, match="^s contains"):
        as_complex(value, "s")
    with pytest.raises(NonFiniteEntriesError):
        pinv(value)


@pytest.mark.parametrize("empty", [np.zeros(0), [], np.zeros((0, 3), dtype=complex)])
def test_an_empty_array_is_finite(empty):
    out = as_complex(empty, "e")
    assert out.dtype == complex and out.size == 0


@pytest.mark.parametrize("kind", list(NON_FINITE))
def test_the_pencil_entry_points_name_a_non_finite_array(kind):
    P = gen_pencil(4, 2, seed=3)
    blocks = {name: getattr(P, name) for name in "JREBS"}
    for name in blocks:
        with pytest.raises(NonFiniteEntriesError, match=f"^{name} contains"):
            PHPencil(**{**blocks, name: NON_FINITE[kind](blocks[name])})
    u = {name: crandn(np.random.default_rng(4), n) for name, n in (("u1", 4), ("u2", 4), ("u3", 2))}
    for name in u:
        with pytest.raises(NonFiniteEntriesError, match=f"^{name} contains"):
            EigenPair(1j, **{**u, name: NON_FINITE[kind](u[name])})


def test_penrose_identities_random():
    rng = np.random.default_rng(42)
    for _ in range(100):
        rows = rng.integers(1, 9)
        cols = rng.integers(1, 9)
        a = crandn(rng, rows, cols)
        ad = pinv(a)
        scale = max(1.0, np.linalg.norm(a))
        assert np.linalg.norm(a @ ad @ a - a) <= 1e-10 * scale
        assert np.linalg.norm(ad @ a @ ad - ad) <= 1e-10 * scale
        assert np.linalg.norm((a @ ad).conj().T - a @ ad) <= 1e-10
        assert np.linalg.norm((ad @ a).conj().T - ad @ a) <= 1e-10


def test_shared_range_pinv_identity():
    # X, Z with a common left factor U1: U1*(YX+ +- (YX+)*)U1 == U1*(YX+ +- WZ+)U1
    rng = np.random.default_rng(11)
    for _ in range(50):
        n, m = 6, 3
        x = crandn(rng, n, m)
        u, sv, _ = np.linalg.svd(x)
        rank = int(np.sum(sv > DEFAULT_TOL.rank_tol * sv[0]))
        u1 = u[:, :rank]
        d = np.diag(rng.uniform(0.5, 2.0, rank))
        q = np.linalg.qr(crandn(rng, m, rank))[0]
        z = u1 @ d @ q.conj().T  # same left range as x
        y = crandn(rng, n, m)
        # choose W consistent with X*W = Y*Z
        w = np.linalg.lstsq(x.conj().T, y.conj().T @ z, rcond=None)[0]
        assert np.linalg.norm(x.conj().T @ w - y.conj().T @ z) <= 1e-8
        yxd = y @ pinv(x)
        wzd = w @ pinv(z)
        for sign in (+1, -1):
            lhs = u1.conj().T @ (yxd + sign * yxd.conj().T) @ u1
            rhs = u1.conj().T @ (yxd + sign * wzd) @ u1
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(1.0, np.linalg.norm(lhs))


def test_left_spectrum_trace_sign():
    # Re(trace(A B)) <= 0 for B PSD and A shifted into the left half-plane.
    # The shift is by the Hermitian-part extreme (numerical range), which
    # also moves the spectrum left; a spectrum-only shift does NOT give the
    # sign property for non-normal A (see test below).
    rng = np.random.default_rng(13)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        a = crandn(rng, n, n)
        shift = max(float(np.linalg.eigvalsh((a + a.conj().T) / 2)[-1]), 0.0)
        a = a - (shift + 1e-3) * np.eye(n)
        assert np.linalg.eigvals(a).real.max() <= 0.0  # stated hypothesis holds
        g = crandn(rng, n, n)
        b = g @ g.conj().T
        assert np.trace(a @ b).real <= 1e-10 * max(1.0, np.linalg.norm(a) * np.linalg.norm(b))


def test_trace_sign_needs_numerical_range_not_spectrum():
    # counterexample kept as a regression: left spectrum alone is not enough
    a = np.array([[-1e-3, 10.0], [0.0, -1e-3]])
    b = np.array([[0.5, 0.5], [0.5, 0.5]])
    assert np.linalg.eigvals(a).real.max() < 0
    assert np.trace(a @ b).real > 1.0


def test_psd_order_norm_monotonicity():
    # B PSD and A - B PSD imply ||A||_F >= ||B||_F
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        g1 = crandn(rng, n, n)
        g2 = crandn(rng, n, n)
        b = g1 @ g1.conj().T
        a = b + g2 @ g2.conj().T
        assert np.linalg.norm(a) >= np.linalg.norm(b) - 1e-12


def test_fro_matches_numpy_on_views_and_strided_input():
    import math

    from dsmkit.linalg import fro

    rng = np.random.default_rng(21)
    mat = crandn(rng, 256, 256)
    cases = [crandn(rng, 7), crandn(rng, 4096), crandn(rng, 64, 64), mat, mat[:, ::3], mat.T,
             mat[:8].astype(">c16"), rng.standard_normal(50), np.zeros((0, 3), complex), np.array(3 + 4j)]
    assert not mat[:, ::3].flags.c_contiguous and not mat.T.flags.c_contiguous
    for a in cases:
        want = np.linalg.norm(a)
        assert abs(fro(a) - want) <= 1e-15 * want
        flat = np.asarray(a, complex).ravel()
        exact = math.sqrt(math.fsum(np.concatenate([flat.real**2, flat.imag**2])))
        assert abs(fro(a) - exact) <= 1e-15 * exact
    assert fro([1.0, 2.0, 2.0]) == 3.0


def _applied(project, a):
    """project applied to every column of a."""
    return np.stack([project(c) for c in a.T], axis=1)


@pytest.mark.parametrize("n", [4, 16, 64, 256])
@pytest.mark.parametrize("rank", ["1", "half", "n-1", "full"])
def test_psd_factor_rank_matches_svd_split(n, rank):
    from dsmkit.linalg import _complement_map, _psd_factor

    r_rank = {"1": 1, "half": n // 2, "n-1": n - 1, "full": None}[rank]
    p = gen_pencil(n, 2, seed=n + 3, r_rank=r_rank)
    f = _psd_factor(p.R)
    sv = np.linalg.svd(p.R, compute_uv=False)
    r = int(np.sum(sv > DEFAULT_TOL.rank_tol * sv[0]))
    assert f.shape == (n, r)
    rank_out, project = _complement_map(f)
    assert rank_out == r and (project is None) == (r == n)
    if project is not None:
        # range(R) has no part outside the factor's range, and the map is an orthogonal projector
        rng = np.random.default_rng(n)
        inside = p.R @ crandn(rng, n, 3)
        assert np.linalg.norm(_applied(project, inside)) <= 1e-12 * np.linalg.norm(inside)
        g, h = crandn(rng, n), crandn(rng, n)
        pg = project(g)
        assert np.linalg.norm(project(pg) - pg) <= 1e-12 * np.linalg.norm(g)
        assert abs(np.vdot(pg, h) - np.vdot(g, project(h))) <= 1e-12 * np.linalg.norm(g) * np.linalg.norm(h)


@pytest.mark.parametrize("n,m,rank", [(6, 3, 1), (16, 8, 3), (64, 16, 5), (5, 5, 0)])
def test_svd_range_rank_matches_matrix_rank(n, m, rank):
    from dsmkit.linalg import svd_range

    rng = np.random.default_rng(n + rank)
    x = crandn(rng, n, rank) @ crandn(rng, rank, m)
    q = svd_range(x)
    assert q.shape == (n, np.linalg.matrix_rank(x))
    assert np.linalg.norm(q.conj().T @ q - np.eye(q.shape[1])) <= 1e-12
    assert np.linalg.norm(x - q @ (q.conj().T @ x)) <= 1e-12 * np.linalg.norm(x)
    assert svd_range(crandn(rng, n, m) * 1e-150).shape == (n, min(n, m))  # the rank rule is relative


def test_psd_factor_of_zero_and_of_a_scaled_matrix():
    from dsmkit.linalg import _complement_map, _psd_factor

    rng = np.random.default_rng(4)
    for n in (0, 1, 5):
        f = _psd_factor(np.zeros((n, n)))
        assert f.shape == (n, 0)
        rank, project = _complement_map(f)
        assert rank == 0 and (project is None) == (n == 0)
        if n:
            g = crandn(rng, n)
            assert np.array_equal(project(g), g)  # nothing to remove: the identity, exactly
    g = crandn(rng, 7, 3)
    r = g @ g.conj().T
    x = crandn(rng, 7)
    ref = _complement_map(_psd_factor(r))[1](x)
    for s in (1e-75, 1e75):
        f = _psd_factor(s * r)
        assert f.shape == (7, 3)  # the stopping rule reads the scale of the data
        assert np.linalg.norm(_complement_map(f)[1](x) - ref) <= 1e-12 * np.linalg.norm(ref)


COMPLEMENT_CASES = [
    (6, 3, 1, None, 0), (16, 8, 3, None, 0), (64, 16, 5, None, 0), (5, 5, 0, None, 0), (6, 3, 3, None, 0),
    (4, 9, 2, None, 0), (4, 9, 4, None, 0),
    # full column rank of a set condition: certified on the Gram path up to 1e3, not from 1e5 on
    (64, 16, 16, 1e2, 0), (64, 16, 16, 1e3, 0), (64, 16, 16, 1e5, 0), (64, 16, 16, 1e10, 0),
    # scaled by 2^+-500: on either path nothing overflows or underflows
    (64, 16, 16, 1e2, 500), (64, 16, 16, 1e2, -500), (64, 16, 5, None, 500), (64, 16, 5, None, -500),
]
# a full-column-rank x is also taken without cfg, as a psd factor is: r = m, and one reduced QR where the
# Gram path fails
COMPLEMENT_CASES = [(*c, DEFAULT_TOL) for c in COMPLEMENT_CASES] + [(*c, None) for c in COMPLEMENT_CASES if c[3]]


@pytest.mark.parametrize("n,m,rank,cond,scale,cfg", COMPLEMENT_CASES,
                         ids=[f"{n}-{m}-{rank}" + (f"-cond{c:g}" if c else "") + (f"-2^{s}" if s else "")
                              + ("" if cfg is not None else "-nocfg") for n, m, rank, c, s, cfg in COMPLEMENT_CASES])
def test_complement_map_takes_svd_ranges_rank_rule(n, m, rank, cond, scale, cfg, monkeypatch):
    import warnings

    from dsmkit.linalg import _complement_map, svd_range

    rng = np.random.default_rng(n + m + rank)
    if cond is None:
        x = crandn(rng, n, rank) @ crandn(rng, rank, m)
    else:
        u, v = np.linalg.qr(crandn(rng, n, m))[0], np.linalg.qr(crandn(rng, m, m))[0]
        x = (u * np.geomspace(1.0, 1.0 / cond, m)) @ v.conj().T
    x *= 2.0**scale
    q, rank_x = svd_range(x), np.linalg.matrix_rank(x)
    g = crandn(rng, n, 4)
    seen = watch_linalg(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r, project = _complement_map(x, cfg)
        got = None if project is None else _applied(project, g)
    assert r == q.shape[1] == rank_x
    assert (project is None) == (r == n)
    if project is not None:
        want = g - q @ (q.conj().T @ g)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    # the Gram path is one Cholesky and no QR or SVD; it never runs where svd_range drops a direction
    gram = [c[0] for c in seen if c[0] in ("cholesky", "qr", "svd")] == ["cholesky"]
    assert not (gram and r < m)
    if cond is not None:
        assert gram == (cond < 1e4)
    if cfg is None:  # untruncated: one reduced QR where the certificate fails, no SVD
        assert [c[:1] + c[3:] for c in seen if c[0] in ("qr", "svd")] == ([] if gram else [("qr", "reduced")])
    assert _complement_map(crandn(rng, n, m) * 1e-150, DEFAULT_TOL)[0] == min(n, m)  # the rank rule is relative
