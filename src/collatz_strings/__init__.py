"""Exact-integer library for the conjugated Collatz dynamics.

The package verifies, at desk scale and with exact arithmetic, the
structural claims about the accelerated Collatz map transported to
odd-integer positions: the equivalence x ~ 4x-1, the power-of-two branch
recurrences, the chain ("string") partition of the positions, the
forward/backward progression evolutions with their counting identities,
and the 3n+p generalization.
"""

from .core import (
    DEFAULT_WALK_LIMIT,
    MAX_VALUE,
    WidthExceededError,
    base_equivalent,
    conjugate_step,
    higher_equivalent,
    inverse_lower_step,
    lower_step,
    restriction_index,
    trajectory_report,
)
from .family import (
    CASE_SYSTEM_PARAMS,
    CASE_SYSTEMS,
    CaseRule,
    Family,
    NonpositiveImageError,
    audit_case_system,
    case_system,
    exceptional_positions,
    family_equivalent,
    family_step,
    find_cycles,
    lower_preimages,
    string_scan,
    two_to_one_audit,
)
from .progressions import (
    Progression,
    Signature,
    backward_signature,
    first_recurrence_backward,
    first_recurrence_forward,
    forward_signature,
)
from .strings import (
    SweepReport,
    coverage_count,
    expected_coverage,
    partition_audit,
    passage_sweep,
)

__version__ = "0.1.0"
