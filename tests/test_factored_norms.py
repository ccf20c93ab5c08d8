"""Norms taken from factors equal the Frobenius norms of the blocks read densely.

The vector solvers hold every block as a ``linalg.Factored`` and take each
norm and bracket from its Gram cores, never from a dense block.  Here the
norm of every held block, and every norm a solution reports, is compared with
the Frobenius norm of the block read densely, to ``residual_tol`` relative:
on the inputs of the golden corpus, and on hypothesis draws over the range of
``test_scale_invariance`` (the data scaled by 1e-75 to 1e75, and the y and w
parts by as much again) in which one term of a block nearly cancels: y close
to its part along x, w close to its part along x, y close to H1 x1.  Warnings
are errors (numpy reports overflow as a RuntimeWarning), so a Gram core that
overflows fails.
"""

import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsmkit import DEFAULT_TOL, DsmProblem, DsmSolution, dsdm_type1_vec, dsdm_type2, dsm_solve, map_min, map_two_sided
from dsmkit.errors import DsmkitError
from dsmkit.linalg import Factored
from dsmkit.maps import FAMILIES
from dsmkit.maps import StructureFamily as F
from helpers import dsm_instance, map_instance, two_sided_instance, type1_vec_instance, type2_instance

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "golden"))
import generate  # noqa: E402

TOL = DEFAULT_TOL.residual_tol
BLOCKS = ("minimizer", "gram", "H1", "H2")
SOLVERS = ("map_min", "map_two_sided", "dsm_solve", "dsdm_type1", "dsdm_type1_vec", "dsdm_type2",
           "jordan_lie_reduce", "eta_s", "eta_sd")

SEEDS = st.integers(0, 2**32 - 1)
#: log10 of a scale, the ends of the range drawn often: at 1e-75 twice over a factor's squared norm underflows
LOG_SCALES = st.sampled_from((-75.0, 75.0)) | st.floats(-75.0, 75.0)
LOG_CANCEL = st.sampled_from((-14.0, 0.0)) | st.floats(-14.0, 0.0)
DRAWS = settings(max_examples=100, deadline=None)


def _fro(a) -> float:
    """||a||_F in units of its largest entry, which cannot overflow or underflow."""
    unit = float(np.max(np.abs(a), initial=0.0))
    return unit * float(np.linalg.norm(a / unit)) if unit else 0.0


def _close(got: float, want: float, what: str) -> None:
    assert abs(got - want) <= TOL * want, f"{what}: {got!r} from factors, {want!r} dense"


def _solved(solve, *args, **kwargs):
    """The solution, or None where the data are degenerate (the solver raises; ``test_scale_invariance`` pins that)."""
    try:
        return solve(*args, **kwargs)
    except DsmkitError:
        return None


def _check_norms(sol) -> int:
    """Compare every held block's norm and the solution's reported norms with the dense blocks; the number of blocks."""
    if sol is None:
        return 0
    held = {name: vars(sol)[name] for name in BLOCKS if isinstance(vars(sol).get(name), Factored)}
    for name, block in held.items():
        _close(block.norm(), _fro(block.dense()), name)
    if not getattr(sol, "feasible", False):
        return len(held)
    if isinstance(sol, DsmSolution):
        _close(sol.norm_upper, _fro(sol.H), "norm_upper")
        if not sol.exact and FAMILIES[sol.family].form is not None:  # dsdm_type2's lower bound is from the data
            _close(sol.norm_lower, _fro(sol.H1), "norm_lower")
    elif hasattr(sol, "min_norm"):
        _close(sol.min_norm, _fro(sol.minimizer), "min_norm")
    return len(held)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_norms_from_factors_on_the_golden_inputs():
    held = set()
    for case in generate.load():
        if case["call"] in SOLVERS:
            try:
                sol = generate._run(case["call"], generate.decode(case["args"]))
            except (DsmkitError, ValueError):
                continue  # the corpus pins the error; there is no block
            if _check_norms(sol):
                held.add(case["call"])
    assert held == set(SOLVERS)


def _shrink_off(u, v, eps):
    """v's part along u, plus eps times the rest of v: v*u and u*v are kept."""
    along = (np.vdot(u, v) / np.vdot(u, u)) * u
    return along + eps * (v - along)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@DRAWS
@given(seed=SEEDS, family=st.sampled_from(list(F)), n=st.integers(1, 12), cancel=LOG_CANCEL,
       sall=LOG_SCALES, sy=LOG_SCALES)
def test_map_min_norms_from_factors(seed, family, n, cancel, sall, sy):
    x, y = map_instance(family, np.random.default_rng(seed), n)
    # the bilinear forms' condition is on x^T y, the part along conj(x); skew-symmetric has none, so y shrinks
    y = _shrink_off(x.conj() if FAMILIES[family].form == "bilinear" else x, y, 10.0**cancel)
    a, b = 10.0**sall, 10.0**sy
    _check_norms(_solved(map_min, family, a * x, a * b * y))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@DRAWS
@given(seed=SEEDS, n=st.integers(1, 12), m=st.integers(1, 12), cancel=LOG_CANCEL, sall=LOG_SCALES, sy=LOG_SCALES)
def test_map_two_sided_norms_from_factors(seed, n, m, cancel, sall, sy):
    x, y, z, w = two_sided_instance(np.random.default_rng(seed), n, m)
    w = _shrink_off(x, w, 10.0**cancel)  # P_x w small; x*w and so x*w = y*z kept
    a, b = 10.0**sall, 10.0**sy
    _check_norms(_solved(map_two_sided, a * x, a * b * y, a * z, a * b * w))


DSM_CALLS = {
    **{family.value: (lambda f: lambda p: dsm_solve(f, p))(family)
       for family in (F.HERMITIAN, F.SKEW_HERMITIAN, F.SYMMETRIC, F.SKEW_SYMMETRIC, F.PSD, F.NSD)},
    "dissipative": dsdm_type2,
    "anti-dissipative": lambda p: dsdm_type2(p, anti=True),
}


def _dsm_data(family, rng, n, m):
    if family == "dissipative":
        return type2_instance(rng, n, m)
    if family == "anti-dissipative":
        p = type2_instance(rng, n, m)
        return DsmProblem(p.x1, p.x2, -p.y, p.z, -p.w1, -p.w2)
    return dsm_instance(F(family), rng, n, m)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@DRAWS
@given(seed=SEEDS, family=st.sampled_from(list(DSM_CALLS)), n=st.integers(1, 12), m=st.integers(1, 4),
       cancel=LOG_CANCEL, sall=LOG_SCALES, sy=LOG_SCALES)
def test_dsm_norms_from_factors(seed, family, n, m, cancel, sall, sy):
    solve, p = DSM_CALLS[family], _dsm_data(family, np.random.default_rng(seed), n, m)
    # H1* z = w1, so y -> H1 x1 + eps (y - H1 x1) with w2 -> eps w2 keeps x*w = y*z: H2's first factor nearly cancels
    base = _solved(solve, p)
    if base is None or not base.feasible:  # n = 1 leaves some families no data: w1 = 0, or z^T w1 != 0
        return
    h1x1 = vars(base)["H1"] @ p.x1
    eps, a, b = 10.0**cancel, 10.0**sall, 10.0**sy
    y = h1x1 + eps * (p.y - h1x1)
    q = DsmProblem(a * p.x1, a * p.x2, a * b * y, a * p.z, a * b * p.w1, a * b * eps * p.w2)
    _check_norms(_solved(solve, q))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@DRAWS
@given(seed=SEEDS, n=st.integers(1, 12), anti=st.booleans(), sall=LOG_SCALES, sy=LOG_SCALES)
def test_type1_vec_norms_from_factors(seed, n, anti, sall, sy):
    x, y, z, w = type1_vec_instance(np.random.default_rng(seed), n)
    a, b = 10.0**sall, 10.0**sy * (-1.0 if anti else 1.0)
    assert _check_norms(dsdm_type1_vec(a * x, a * b * y, a * z, a * b * w, anti=anti)) == 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_block_whose_factors_leave_the_gram_range_keeps_its_norm():
    # columns scaled by 1e-170 and 1e+170: a factor's squared norm underflows or overflows, the block does not
    rng = np.random.default_rng(5)
    f, g = (rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2)) for _ in range(2))
    f, g = f * [1e-170, 1.0], g * [1e170, 1.0]
    for core in (None, rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))):
        dense = f @ (np.eye(2) if core is None else core) @ g.T
        _close(Factored(f, g, core).norm(), _fro(dense), "rescaled")


def test_an_eta_block_reports_the_norm_its_bounds_took():
    # pencil takes ||H1|| from the QR core of its stack; the H1 that eta_* returns reports that value
    from dsmkit import eta_s, eta_sd, gen_eigpair, gen_pencil

    for blocks, variant in (("JR", eta_sd), ("JREB", eta_sd), ("RB", eta_sd), ("JB", eta_s), ("EB", eta_s)):
        p = gen_pencil(6, 2, seed=17, r_rank=5) if blocks in ("JB", "EB") else gen_pencil(6, 2, seed=17)
        res = variant(p, gen_eigpair(p, 23, blocks), blocks)
        h1 = vars(res)["H1"]
        assert h1.norm() == Factored.part_norms(h1.F[None], h1.C[None])[0][0]
        _close(h1.norm(), _fro(res.H1), f"eta H1 {blocks}")
