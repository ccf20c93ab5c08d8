"""The factored closed forms of ``maps`` and ``dsm`` against the dense reference.

The solvers build every dense block once from vector factors; the reference
in ``dense_reference.py`` writes the same closed forms with n x n projectors
and matrix products.  They must agree on every verdict, flag, message and
diagnostic key, and on blocks and norms to 1e-12 relative, over sizes,
data scales and feasible, exact and infeasible data.
"""

import tracemalloc

import numpy as np
import pytest

import dense_reference as ref
from dsmkit import (
    DsmProblem,
    dsdm_type1_vec,
    dsdm_type2,
    dsm_characterize,
    dsm_characterize_type2,
    dsm_solve,
    map_characterize,
    map_min,
    map_two_sided,
)
from dsmkit.errors import DsmkitError
from dsmkit.maps import StructureFamily as F
from helpers import (
    crandn,
    dsm_instance,
    dsm_instance_psd_spectrum,
    fix_compat,
    map_instance,
    two_sided_instance,
    type1_vec_instance,
    type2_instance,
)

RTOL = 1e-12
SCALES = (1.0, 1e-100, 1e100)
SIZES = [(n, m) for n in (1, 3, 64) for m in (1, 16)]
DSM_FAMILIES = [F.HERMITIAN, F.SKEW_HERMITIAN, F.SYMMETRIC, F.SKEW_SYMMETRIC, F.PSD, F.NSD]


def _same_block(a, b, scale=None):
    """a = b to RTOL relative to ||b|| (or to ``scale``), in units that cannot overflow."""
    if b is None:
        assert a is None
        return
    assert a.shape == b.shape
    unit = np.max(np.abs(b), initial=0.0) or 1.0
    size = np.linalg.norm(b / unit) if scale is None else scale / unit
    assert np.linalg.norm((a - b) / unit) <= RTOL * size


def _same_value(a, b):
    if isinstance(b, np.ndarray):
        _same_block(a, b)
    elif isinstance(b, tuple):  # factors (f, g) of the rank-one matrix f g*
        _same_block(np.outer(a[0], a[1].conj()), np.outer(b[0], b[1].conj()))
    else:
        assert a == pytest.approx(b, rel=RTOL, abs=0.0)


def _same_fields(a, b, blocks, values, equal):
    for name in blocks:
        _same_block(getattr(a, name), getattr(b, name))
    for name in values:
        _same_value(getattr(a, name), getattr(b, name))
    for name in equal:
        assert getattr(a, name) == getattr(b, name), name
    if hasattr(b, "diagnostics"):
        assert list(a.diagnostics) == list(b.diagnostics)
        for key, value in b.diagnostics.items():
            _same_value(a.diagnostics[key], value)


def _agree(new_call, ref_call, compare):
    """Run both; they raise the same error type or their results agree."""
    try:
        expected = ref_call()
    except DsmkitError as err:
        with pytest.raises(type(err)):
            new_call()
        return None
    got = new_call()
    compare(got, expected)
    return got


def _same_map(a, b):
    equal = ["family", "feasible", "reason", "boundary", "free_param_shapes"]
    _same_fields(a, b, ["minimizer"], ["min_norm"], equal)


def _same_dsm(a, b):
    _same_fields(
        a, b, ["H1", "H2"], ["norm_lower", "norm_upper"],
        ["family", "feasible", "exact", "sufficiency_note", "reason", "warnings"],
    )


def _same_type1_vec(a, b):
    """The vector formula of the reference against dsdm_type1 on one column.

    ``conditions`` and ``reason`` are dsdm_type1's own; the golden corpus pins them.
    """
    for name in ("feasible", "exact", "hypothesis_ok", "warnings"):
        assert getattr(a, name) == getattr(b, name), name
    assert a.conditions["colinear"]
    _same_value(a.diagnostics["alpha"], b.diagnostics["alpha"])
    if b.feasible:  # P_x gram P_x is a term of the minimizer; at n = 1 it is rounding noise
        _same_block(a.minimizer, b.minimizer)
        _same_value(a.min_norm, b.min_norm)
        _same_block(a.gram, b.gram, scale=max(np.linalg.norm(b.gram), b.min_norm))


def _same_matrix(a, b):
    _same_block(a, b)


def _scaled(p: DsmProblem, c: float) -> DsmProblem:
    return DsmProblem(c * p.x1, c * p.x2, c * p.y, c * p.z, c * p.w1, c * p.w2)


def _break_one_sided(family, x, y):
    """Data no member of the family maps x to (None: the family is always feasible)."""
    if family in (F.UNSTRUCTURED, F.SYMMETRIC):
        return None
    if family is F.HERMITIAN:
        return y + 1j * x
    if family is F.SKEW_HERMITIAN:
        return y + x
    if family is F.SKEW_SYMMETRIC:
        return y + x.conj()
    return -y  # the cone families: the sign of x*y (or of Re x*y) flips


def _broken_dsm(family, p, structural):
    """Infeasible data: x*w != y*z, or the family's condition on z*w1 broken with x*w = y*z kept."""
    if not structural or family is F.SYMMETRIC:
        return DsmProblem(p.x1, p.x2, p.y + p.z, p.z, p.w1, p.w2)
    w1 = {
        F.HERMITIAN: p.w1 + 1j * p.z,
        F.SKEW_HERMITIAN: p.w1 + p.z,
        F.SKEW_SYMMETRIC: p.w1 + p.z.conj(),
    }.get(family, -p.w1)
    y = fix_compat(np.concatenate([p.x1, p.x2]), np.concatenate([w1, p.w2]), p.z, p.y)
    return DsmProblem(p.x1, p.x2, y, p.z, w1, p.w2)


def _dsm_cases(family, rng, n, m):
    base = dsm_instance(family, rng, n, m)
    cases = [base, dsm_instance(family, rng, n, m, exact=True)]
    if family is F.PSD:
        cases.append(dsm_instance_psd_spectrum(rng, n, m))
    return cases + [_broken_dsm(family, base, False), _broken_dsm(family, base, True)]


@pytest.mark.parametrize("family", list(F))
def test_map_min_matches_dense_reference(family):
    rng = np.random.default_rng(401)
    for n in (1, 3, 64):
        x, y = map_instance(family, rng, n)
        data = [(x, y)]
        broken = _break_one_sided(family, x, y)
        if broken is not None:
            data.append((x, broken))
        for x0, y0 in data:
            for c in SCALES:
                args = (family, c * x0, c * y0)
                _agree(lambda: map_min(*args), lambda: ref.map_min(*args), _same_map)


def test_map_two_sided_matches_dense_reference():
    rng = np.random.default_rng(402)
    for n, m in SIZES:
        x, y, z, w = two_sided_instance(rng, n, m)
        for w0 in (w, w + x):
            for c in SCALES:
                args = (c * x, c * y, c * z, c * w0)
                _agree(lambda: map_two_sided(*args), lambda: ref.map_two_sided(*args), _same_map)


@pytest.mark.parametrize("family", DSM_FAMILIES)
def test_dsm_solve_matches_dense_reference(family):
    rng = np.random.default_rng(403)
    verdicts = set()
    for n, m in SIZES:
        for p in _dsm_cases(family, rng, n, m):
            for c in SCALES:
                q = _scaled(p, c)
                sol = _agree(lambda: dsm_solve(family, q), lambda: ref.dsm_solve(family, q), _same_dsm)
                if sol is not None:
                    verdicts.add((sol.feasible, sol.exact))
    assert {(True, True), (True, False), (False, False)} <= verdicts


def test_type1_vec_matches_dense_reference():
    rng = np.random.default_rng(404)
    for n in (1, 3, 64):
        x, y, z, w = type1_vec_instance(rng, n)
        for data in ((x, y, z, w), (x, y, z, w + x), (x, -y, z, -w)):
            for anti in (False, True):
                for c in SCALES:
                    args = [c * v for v in data]
                    _agree(
                        lambda: dsdm_type1_vec(*args, anti=anti),
                        lambda: ref.dsdm_type1_vec(*args, anti=anti),
                        _same_type1_vec,
                    )


def test_type2_matches_dense_reference():
    rng = np.random.default_rng(405)
    for n, m in SIZES:
        cases = [
            type2_instance(rng, n, m),
            type2_instance(rng, n, m, exact=True),
            type2_instance(rng, n, m, paper_exact_only=True),
        ]
        p = cases[0]
        cases.append(_broken_dsm(F.SYMMETRIC, p, False))  # x*w != y*z
        w1 = p.w1 - (2.0 * np.vdot(p.z, p.w1).real / np.vdot(p.z, p.z).real) * p.z  # Re(z*w1) < 0
        y = fix_compat(np.concatenate([p.x1, p.x2]), np.concatenate([w1, p.w2]), p.z, p.y)
        cases.append(DsmProblem(p.x1, p.x2, y, p.z, w1, p.w2))
        for p in cases:
            reflected = DsmProblem(p.x1, p.x2, -p.y, p.z, -p.w1, -p.w2)
            for q, anti in ((p, False), (reflected, True), (p, True)):
                for c in SCALES:
                    qs = _scaled(q, c)
                    _agree(lambda: dsdm_type2(qs, anti=anti), lambda: ref.dsdm_type2(qs, anti=anti), _same_dsm)


def _structured(family, rng, n):
    h = crandn(rng, n, n)
    if family is F.HERMITIAN:
        return h + h.conj().T
    if family is F.SKEW_HERMITIAN:
        return h - h.conj().T
    if family is F.SYMMETRIC:
        return h + h.T
    if family is F.SKEW_SYMMETRIC:
        return h - h.T
    return h @ h.conj().T  # psd, and nsd through its reflection


def _dissipative_params(rng, x, y, n, sign=1.0):
    """(Z, K, G) with G skew-Hermitian and K - q q*/(4 Re x*y) PSD, q = 2 sign y + Z* x."""
    z = crandn(rng, n, n)
    g = crandn(rng, n, n)
    low = crandn(rng, n, n)
    q = 2.0 * sign * y + z.conj().T @ x
    k = np.outer(q, q.conj()) / (4.0 * abs(np.vdot(x, y).real)) + low @ low.conj().T
    return z, k, g - g.conj().T


def _map_params(family, rng, x, y, n):
    """Admissible free matrices of map_characterize for the family."""
    if family is F.UNSTRUCTURED:
        return {"Z": crandn(rng, n, n)}
    if family in (F.DISSIPATIVE, F.ANTI_DISSIPATIVE):
        sign = -1.0 if family is F.ANTI_DISSIPATIVE else 1.0
        return dict(zip("ZKG", _dissipative_params(rng, x, y, n, sign)))
    return {"K" if family in (F.PSD, F.NSD) else "H": _structured(family, rng, n)}


@pytest.mark.parametrize("family", list(F))
def test_map_characterize_matches_dense_reference(family):
    rng = np.random.default_rng(406)
    for n in (1, 3, 64):
        x0, y0 = map_instance(family, rng, n)
        for c in SCALES:
            x, y = c * x0, c * y0
            params = _map_params(family, rng, x, y, n)
            _agree(
                lambda: map_characterize(family, x, y, params),
                lambda: ref.map_characterize(family, x, y, params),
                _same_matrix,
            )


@pytest.mark.parametrize("family", DSM_FAMILIES)
def test_dsm_characterize_matches_dense_reference(family):
    rng = np.random.default_rng(407)
    for n, m in SIZES:
        p0 = dsm_instance(family, rng, n, m)
        for c in SCALES:
            p = _scaled(p0, c)
            k, r = _structured(family, rng, n), crandn(rng, n, m)
            _agree(
                lambda: dsm_characterize(family, p, k, r),
                lambda: ref.dsm_characterize(family, p, k, r),
                _same_matrix,
            )


def test_type2_characterize_matches_dense_reference():
    rng = np.random.default_rng(408)
    for n, m in SIZES:
        p0 = type2_instance(rng, n, m)
        for c in SCALES:
            p = _scaled(p0, c)
            z, k, g = _dissipative_params(rng, p.z, p.w1, n)
            r = crandn(rng, n, m)
            _agree(
                lambda: dsm_characterize_type2(p, z, k, g, r),
                lambda: ref.dsm_characterize_type2(p, z, k, g, r),
                _same_matrix,
            )


# ---------------------------------------------------------------------------
# no n x n temporaries and no projector


def _large_calls():
    """The six large solver calls, at n = 1024 and m = 8, with the arrays each one keeps.

    ``map_min nsd`` goes through ``maps._reflect``, which negates the base solver's result in place.
    """
    n, m = 1024, 8
    rng = np.random.default_rng(409)
    psd = dsm_instance(F.PSD, rng, n, m)
    herm = dsm_instance(F.HERMITIAN, rng, n, m)
    sym = dsm_instance(F.SYMMETRIC, rng, n, m)
    t2 = type2_instance(rng, n, m)
    xyzw = two_sided_instance(rng, n, n)
    nsd = map_instance(F.NSD, rng, n)
    return {
        "dsm_solve psd": (
            lambda: dsm_solve(F.PSD, psd),
            lambda s: [s.H1, s.H2, *s.diagnostics["left_spectrum_factors"]],
        ),
        "dsm_solve hermitian": (lambda: dsm_solve(F.HERMITIAN, herm), lambda s: [s.H1, s.H2]),
        "dsm_solve symmetric": (lambda: dsm_solve(F.SYMMETRIC, sym), lambda s: [s.H1, s.H2]),
        "dsdm_type2": (lambda: dsdm_type2(t2), lambda s: [s.H1, s.H2]),
        "map_two_sided": (lambda: map_two_sided(*xyzw), lambda s: [s.minimizer]),
        "map_min nsd": (lambda: map_min(F.NSD, *nsd), lambda s: [s.minimizer]),
    }


@pytest.mark.parametrize("name", list(_large_calls()))
def test_large_call_allocates_little_beyond_its_output(name):
    call, kept = _large_calls()[name]
    tracemalloc.start()
    try:
        sol = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sol.feasible
    out_bytes = sum(a.nbytes for a in kept(sol))
    assert peak <= 1.25 * out_bytes, f"traced peak {peak / 2**20:.1f} MB, output {out_bytes / 2**20:.1f} MB"


def test_maps_and_dsm_form_no_projector(monkeypatch):
    import dsmkit.dsm as dsm_mod
    import dsmkit.linalg as linalg_mod
    import dsmkit.maps as maps_mod

    def refuse(*args, **kwargs):
        raise AssertionError("null_projector called")

    for mod in (dsm_mod, linalg_mod, maps_mod):
        monkeypatch.setattr(mod, "null_projector", refuse, raising=False)
    rng = np.random.default_rng(410)
    n, m = 8, 3
    for family in F:
        x, y = map_instance(family, rng, n)
        assert map_min(family, x, y).feasible
        map_characterize(family, x, y, _map_params(family, rng, x, y, n))
    assert map_two_sided(*two_sided_instance(rng, n, m)).feasible
    for family in DSM_FAMILIES:
        p = dsm_instance(family, rng, n, m)
        assert dsm_solve(family, p).feasible
        dsm_characterize(family, p, _structured(family, rng, n), crandn(rng, n, m))
    assert dsdm_type1_vec(*type1_vec_instance(rng, n)).feasible
    p = type2_instance(rng, n, m)
    assert dsdm_type2(p).feasible and dsdm_type2(p, anti=True).feasible is False
    z, k, g = _dissipative_params(rng, p.z, p.w1, n)
    dsm_characterize_type2(p, z, k, g, crandn(rng, n, m))
