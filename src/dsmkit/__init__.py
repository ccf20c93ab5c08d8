"""dsmkit: doubly structured matrix mappings and pencil backward errors."""

from .config import DEFAULT_TOL, ToleranceConfig
from .dsm import (
    DSM_FAMILIES,
    DsmProblem,
    DsmSolution,
    ScalarProduct,
    Type1Problem,
    Type1Solution,
    dsdm_type1,
    dsdm_type1_vec,
    dsdm_type2,
    dsm_characterize,
    dsm_characterize_type2,
    dsm_solve,
    jordan_lie_reduce,
)
from .linalg import herm_skew_parts, pinv
from .maps import MapSolution, StructureFamily, map_characterize, map_min, map_two_sided
from .oracle import (
    OracleEtaResult,
    VerificationReport,
    oracle_eta,
    oracle_least_norm,
    oracle_min_structured,
    verify_solution,
)
from .pencil import (
    BackwardErrorBounds,
    EigenPair,
    PerturbationBlocks,
    PHPencil,
    blocks_to_string,
    eta_s,
    eta_sd,
    experiment_table,
    gen_eigpair,
    gen_pencil,
    mapping_data,
    parse_blocks,
    reconstruct_perturbation,
)

__version__ = "0.1.0"
