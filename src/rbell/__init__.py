"""Bell-test simulation and inequality evaluation with retarded settings.

Subpackages by responsibility:

- :mod:`rbell.spacetime`: geometry, setting schedules, intervention
  streams, simple and predictive retarded settings.
- :mod:`rbell.models`: local hidden-variable models (including the
  half-circle singlet model) and the quantum singlet reference.
- :mod:`rbell.inequalities`: four-correlation and probability-form
  inequality evaluation with verdicts and statistical margins.
- :mod:`rbell.estimation`: closed-form / quadrature / Monte Carlo
  correlation estimates, trial logs, their counts and correlation tables.
- :mod:`rbell.scenarios`: end-to-end reproducible experiment runs.
- :mod:`rbell.optimizer`: derivative-free search over setting angles.
- :mod:`rbell.cli`: the ``rbell`` command.

``import rbell`` loads only this package and :mod:`rbell.errors`.  Every
other public name below, and every subpackage, is imported from its
defining module on first access, so numpy loads with the first layer
that needs it.
"""

import importlib

from .errors import (
    CellError,
    ConfigError,
    InsufficientCellError,
    MissingCellError,
    RbellError,
    StreamFormatError,
    UndefinedTimeError,
    UnknownModelError,
    UnsupportedModelError,
    UnsupportedObjectiveError,
)

#: Defining module of each public name that is imported on first access.
_EXPORTS = {
    "spacetime": ("EqualityClass", "Geometry", "InterventionStream", "SettingLabel",
                  "SettingSchedule", "SwitchTable", "load_interventions", "normalize_angle",
                  "parse_angle"),
    "models": ("DeterministicLHV", "HiddenSpace", "QuantumSinglet", "StochasticLHV", "get_model",
               "hardy_closed_form_E", "hardy_outcome_A", "hardy_outcome_B", "quantum_E",
               "quantum_joint_probs", "register_model"),
    "inequalities": ("Correlation", "CorrelationInput", "InequalityReport", "averaged_chsh",
                     "both_equal_reduction", "ch_identity_check", "chsh_identity_check",
                     "local_bounds", "one_end_equal_chsh", "retarded_ch", "retarded_chsh",
                     "same_retarded_chsh"),
    "estimation": ("TrialCounts", "TrialLog", "build_table", "mc_E", "quadrature_E",
                   "quadrature_ch_probs"),
    "scenarios": ("ScenarioConfig", "ScenarioResult", "StationConfig", "load_config",
                  "make_schedule", "run_scenario"),
    "optimizer": ("ObjectiveSpec", "Optimum", "optimize"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}

__all__ = [
    "CellError", "ConfigError", "InsufficientCellError", "MissingCellError", "RbellError",
    "StreamFormatError", "UndefinedTimeError", "UnknownModelError", "UnsupportedModelError",
    "UnsupportedObjectiveError", *_MODULE_OF,
]

__version__ = "0.1.0"


def __getattr__(name: str):
    # Looked up on every access and never stored in globals(): a wrapper
    # patched into the defining module, and its removal, show through here.
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
