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
    "audits": ("CaseRule", "audit_case_system", "partition_audit", "two_to_one_audit"),
    "core": ("Progression", "WidthExceededError", "base_equivalent", "conjugate_step",
             "higher_equivalent", "inverse_lower_step", "lower_step", "restriction_index"),
    "family": ("CASE_SYSTEM_PARAMS", "Family", "NonpositiveImageError", "family_step"),
    "progressions": ("coverage_count", "expected_coverage"),
    "recurrence": ("Signature", "signature_class"),
    "strings": ("SweepReport", "passage_sweep"),
    "walks": ("find_cycles", "string_scan"),
}
__all__ = sorted(name for names in _PUBLIC.values() for name in names)


def _loader(namespace: dict, *tables: dict):
    """The PEP 562 `__getattr__` of the module whose globals are `namespace`:
    a name in one of the tables (layer module -> names) is imported from
    its layer on first access and kept in `namespace`, where a test or a
    tracer can replace it."""
    layer_of = {name: layer for table in tables for layer, names in table.items()
                for name in names}

    def __getattr__(name: str):
        if name not in layer_of:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        # __import__, unlike importlib.import_module, shows in -X importtime,
        # which the CI start-up step reads
        value = getattr(__import__(f"{__name__}.{layer_of[name]}", fromlist=[name]), name)
        namespace[name] = value
        return value

    return __getattr__


__getattr__ = _loader(globals(), _PUBLIC)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
