"""Bell-test simulation and inequality evaluation with retarded settings.

Subpackages by responsibility:

- :mod:`rbell.spacetime`: geometry, setting schedules, intervention
  streams, simple and predictive retarded settings.
- :mod:`rbell.models`: local hidden-variable models (including the
  half-circle singlet model) and the quantum singlet reference.
- :mod:`rbell.inequalities`: four-correlation and probability-form
  inequality evaluation with verdicts and statistical margins.
- :mod:`rbell.estimation`: closed-form / quadrature / Monte Carlo
  correlation estimates, trial logs and correlation tables.
- :mod:`rbell.scenarios`: end-to-end reproducible experiment runs.
- :mod:`rbell.optimizer`: derivative-free search over setting angles.
- :mod:`rbell.cli`: the ``rbell`` command.
"""

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
from .spacetime import (
    EqualityClass,
    Geometry,
    InterventionStream,
    SettingLabel,
    SettingSchedule,
    SwitchTable,
    load_interventions,
    normalize_angle,
    parse_angle,
)
from .models import (
    DeterministicLHV,
    HiddenSpace,
    QuantumSinglet,
    StochasticLHV,
    get_model,
    hardy_closed_form_E,
    hardy_outcome_A,
    hardy_outcome_B,
    quantum_E,
    quantum_joint_probs,
    register_model,
)
from .inequalities import (
    Correlation,
    CorrelationInput,
    InequalityReport,
    averaged_chsh,
    both_equal_reduction,
    ch_identity_check,
    chsh_identity_check,
    one_end_equal_chsh,
    retarded_ch,
    retarded_chsh,
    same_retarded_chsh,
)
from .estimation import (
    TrialLog,
    build_table,
    mc_E,
    quadrature_E,
    quadrature_ch_probs,
)
from .scenarios import (
    ScenarioConfig,
    ScenarioResult,
    StationConfig,
    load_config,
    make_schedule,
    run_scenario,
)
from .optimizer import ObjectiveSpec, Optimum, optimize

__version__ = "0.1.0"
