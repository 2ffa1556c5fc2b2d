"""Exact-integer library for the conjugated Collatz dynamics.

The package verifies, at desk scale and with exact arithmetic, the
structural claims about the accelerated Collatz map transported to
odd-integer positions: the equivalence x ~ 4x-1, the power-of-two branch
recurrences, the chain ("string") partition of the positions, the
forward/backward progression evolutions with their counting identities,
and the 3n+p generalization.

The public names are imported from their modules on first access (PEP
562), so that a command-line run compiles only the modules it uses.
"""

__version__ = "0.1.0"

# module -> the public names it defines
_PUBLIC = {
    "audits": ("CaseRule", "audit_case_system", "case_system", "partition_audit",
               "two_to_one_audit"),
    "core": ("DEFAULT_WALK_LIMIT", "MAX_VALUE", "Progression", "WidthExceededError",
             "base_equivalent", "conjugate_step", "higher_equivalent", "inverse_lower_step",
             "lower_step", "restriction_index", "trajectory_report"),
    "family": ("CASE_SYSTEM_PARAMS", "CASE_SYSTEMS", "Family", "NonpositiveImageError",
               "exceptional_positions", "family_equivalent", "family_step", "lower_preimages"),
    "progressions": ("Signature", "coverage_count", "expected_coverage", "signature_class"),
    "strings": ("SweepReport", "passage_sweep"),
    "walks": ("find_cycles", "string_scan"),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, unlike importlib.import_module, shows in -X importtime,
    # which the CI start-up step reads
    value = getattr(__import__(f"{__name__}.{_MODULE_OF[name]}", fromlist=[name]), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
