"""Exact-arithmetic engine for limit-series skeletons on chains of elliptic
components: parameter classification, explicit construction, combinatorial
certification, and the dimension audit against the Brill-Noether number."""

from .construct import construct
from .errors import (
    EngineError,
    HypothesisFailed,
    KLERegime,
    ParameterError,
)
from .ledger import AuditResult, DimensionLedger, LedgerRow, audit_equals_rho, ledger
from .oracle import (
    CrossValidation,
    cross_validate,
    exists_feasible_pairing,
    min_sum_pairing_exists,
)
from .params import (
    Case,
    HypothesisCheck,
    Params,
    classify,
    layout,
    rho_value,
)
from .skeleton import (
    ComponentBundle,
    LimitSeriesSkeleton,
    VanishingTable,
    canonical_dumps,
    degree_balance,
    minimal_boundary_table,
    skeleton_from_json_dict,
    skeleton_to_canonical_json,
    skeleton_to_json_dict,
)
from .verify import (
    VerificationReport,
    check_boundary,
    check_component_feasibility,
    merge_runs,
    verify,
)

__version__ = "0.1.0"
