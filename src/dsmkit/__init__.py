"""dsmkit: doubly structured matrix mappings and pencil backward errors.

Public names resolve on first access (PEP 562), so ``import dsmkit`` loads
no solver module and each caller pays only for the modules it uses.
"""

import importlib

__version__ = "0.1.0"

#: every public name, by the module that defines it
_HOMES = {
    "config": ("DEFAULT_TOL", "ToleranceConfig"),
    "dsm": (
        "DSM_FAMILIES",
        "DsmProblem",
        "DsmSolution",
        "ScalarProduct",
        "Type1Problem",
        "Type1Solution",
        "VerificationReport",
        "dsdm_type1",
        "dsdm_type1_vec",
        "dsdm_type2",
        "dsm_characterize",
        "dsm_characterize_type2",
        "dsm_solve",
        "jordan_lie_reduce",
        "verify_solution",
    ),
    "linalg": ("pinv",),
    "maps": ("MapSolution", "StructureFamily", "map_characterize", "map_min", "map_two_sided"),
    "oracle": ("OracleEtaResult", "oracle_eta", "oracle_least_norm", "oracle_min_structured"),
    "pencil": (
        "BackwardErrorBounds",
        "EigenPair",
        "PerturbationBlocks",
        "PHPencil",
        "blocks_to_string",
        "eta_s",
        "eta_sd",
        "experiment_table",
        "gen_eigpair",
        "gen_pencil",
        "mapping_data",
        "parse_blocks",
        "reconstruct_perturbation",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads are plain attribute lookups
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
