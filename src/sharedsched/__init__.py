"""Exact toolkit for shared-processor overlap scheduling.

Divisible jobs run from time zero on their own private processor and may
simultaneously use one of m shared processors; overlapping execution
shortens completion, and the objective is the total weighted overlap.
The package evaluates, validates, canonicalizes and optimizes such
schedules in exact dyadic-rational arithmetic: no floats anywhere.
"""

import importlib

# public name -> submodule defining it; resolved on first access (PEP 562),
# so a process imports only the modules it uses
_EXPORTS = {
    "Dyadic": "dyadic",
    "as_dyadic": "dyadic",
    "Job": "model",
    "Instance": "model",
    "InstanceError": "model",
    "parse_instance": "model",
    "serialize_instance": "model",
    "SyncSchedule": "engine",
    "EvalReport": "engine",
    "InfeasibleScheduleError": "engine",
    "start_times": "engine",
    "check_feasible": "engine",
    "evaluate": "engine",
    "evaluate_sequence": "engine",
    "evaluate_matrix": "engine",
    "suffix_weight": "engine",
    "exchange_delta": "engine",
    "is_processing_time_inclusive": "engine",
    "is_weight_inclusive": "engine",
    "is_v_shaped": "engine",
    "reverse_dual": "engine",
    "parse_sync_schedule": "engine",
    "serialize_sync_schedule": "engine",
    "GeneralSchedule": "transforms",
    "JobPlacement": "transforms",
    "value_general": "transforms",
    "synchronize": "transforms",
    "synchronize_detailed": "transforms",
    "parse_general_schedule": "transforms",
    "serialize_general_schedule": "transforms",
    "SearchLimits": "solvers",
    "brute_force": "solvers",
    "solve_equal_weights": "solvers",
    "search_backend": "solvers",
}


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))


__version__ = "0.1.0"

__all__ = [*_EXPORTS, "__version__"]
