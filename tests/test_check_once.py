"""Check once, reflect once, build once.

Every public solver and characterization of ``maps`` and ``dsm`` checks the
caller's data once, reflects a negated family once and builds on the base
family with no second check.  Each check and build below is wrapped in every
module of ``dsmkit`` that binds it, so a call through an import is counted
too, and the calls of one solve or characterization are counted by name:
- ``_check_degenerate``, ``_incompatible``, ``_violation``, ``_two_sided``
  and ``_min_factors`` run at most once;
- a characterization runs no exactness diagnostic (``_colinear_coeff``,
  ``_rank_one_rightmost``), and a dissipative one no ``_min_factors``: its
  member is not the minimal map plus a free part.
"""

import collections
import functools
import importlib
import pkgutil

import numpy as np
import pytest

import dsmkit
from dsmkit import (
    ScalarProduct,
    dsdm_type2,
    dsm_characterize,
    dsm_characterize_type2,
    dsm_solve,
    jordan_lie_reduce,
    map_characterize,
    map_min,
    map_two_sided,
)
from dsmkit.dsm import DSM_FAMILIES, DsmProblem
from dsmkit.maps import FAMILIES
from dsmkit.maps import StructureFamily as F
from helpers import crandn, dsm_instance, map_instance, map_params, two_sided_instance, type2_instance

ONCE = ("_check_degenerate", "_incompatible", "_violation", "_two_sided", "_min_factors")
DIAGNOSTICS = ("_colinear_coeff", "_rank_one_rightmost")
N, M = 4, 2


@pytest.fixture
def counted(monkeypatch):
    """A Counter of the calls of ``ONCE`` and ``DIAGNOSTICS``, by name, through every module's binding."""
    calls = collections.Counter()
    modules = [importlib.import_module(f"dsmkit.{info.name}") for info in pkgutil.iter_modules(dsmkit.__path__)]

    def wrap(name, fn):
        @functools.wraps(fn)
        def counting(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counting

    bindings = collections.Counter()
    for name in ONCE + DIAGNOSTICS:
        for module in modules:
            if name in vars(module):
                monkeypatch.setattr(module, name, wrap(name, vars(module)[name]))
                bindings[name] += 1
    assert bindings["_min_factors"] >= 2 and set(bindings) == set(ONCE + DIAGNOSTICS)  # maps' and dsm's bindings
    return calls


def _reflected(p):
    """The anti-dissipative data of a dissipative problem: y and w negated."""
    return DsmProblem(p.x1, p.x2, -p.y, p.z, -p.w1, -p.w2)


def _cases():
    """(id, call, is a characterization, is dissipative), every call on feasible data off the boundary."""
    rng = np.random.default_rng(36)
    cases = []
    for family in F:
        x, y = map_instance(family, rng, N)
        params = map_params(family, rng, x, y, N)
        dissipative = FAMILIES[family].cone == "dissipative"
        cases.append((f"map_min {family.value}", functools.partial(map_min, family, x, y), False, dissipative))
        cases.append((f"map_characterize {family.value}", functools.partial(map_characterize, family, x, y, params),
                      True, dissipative))
    cases.append(("map_two_sided", functools.partial(map_two_sided, *two_sided_instance(rng, N, M)), False, False))
    for family in DSM_FAMILIES:
        for exact in (False, True):
            p = dsm_instance(family, rng, N, M, exact=exact)
            cases.append((f"dsm_solve {family.value} exact={exact}", functools.partial(dsm_solve, family, p),
                          False, False))
        k = map_params(family, rng, p.z, p.w1, N).popitem()[1]
        cases.append((f"dsm_characterize {family.value}",
                      functools.partial(dsm_characterize, family, p, k, crandn(rng, N, M)), True, False))
    for exact in (False, True):
        p = type2_instance(rng, N, M, exact=exact)
        cases.append((f"dsdm_type2 exact={exact}", functools.partial(dsdm_type2, p), False, True))
        cases.append((f"dsdm_type2 anti exact={exact}", functools.partial(dsdm_type2, _reflected(p), anti=True),
                      False, True))
    params = map_params(F.DISSIPATIVE, rng, p.z, p.w1, N)
    cases.append(("dsm_characterize_type2",
                  functools.partial(dsm_characterize_type2, p, params["Z"], params["K"], params["G"],
                                    crandn(rng, N, M)), True, True))
    mm = np.linalg.qr(crandn(rng, N, N))[0]
    mm = mm @ np.diag(np.sign(rng.standard_normal(N))) @ mm.conj().T  # Hermitian and unitary: Jordan reduces
    sp = ScalarProduct(mm, "sesquilinear", "jordan")
    p = dsm_instance(sp.target_family(), rng, N, M)
    lifted = DsmProblem(p.x1, p.x2, mm.conj().T @ p.y, mm.conj().T @ p.z, p.w1, p.w2)  # M y, M z are p's y, z
    cases.append(("jordan_lie_reduce", functools.partial(jordan_lie_reduce, sp, lifted), False, False))
    return cases


CASES = _cases()


@pytest.mark.parametrize("call, characterization, dissipative", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_each_check_and_build_runs_at_most_once(call, characterization, dissipative, counted):
    result = call()
    assert getattr(result, "feasible", True)
    over = {name: counted[name] for name in ONCE if counted[name] > 1}
    assert over == {}, f"run more than once: {over}"
    if characterization:
        assert {name: counted[name] for name in DIAGNOSTICS if counted[name]} == {}
        assert counted["_min_factors"] == (0 if dissipative else 1)
    else:
        assert counted["_min_factors"] <= 1
