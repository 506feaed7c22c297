"""Run-time effectiveness monitoring of cyber-physical systems.

The library scores timestamped input/output traces against a model of
expected behavior whose tolerances are belief functions built from
possibility curves.  Each observation step combines an input-conditioned
state prediction with an output-conditioned emission belief; the
conflict of that combination, accumulated multiplicatively, is the
degree of effectiveness of the observed behavior.

Layers, bottom up:

``evimon.belief``
    exact belief-function algebra over powerset bitmask tables
``evimon.possibility``
    tolerance curves and their conversion to belief assignments
``evimon.iohmm``
    the state model, conditional transition rows, crisp reduction
``evimon.forward``
    the forward pass, effectiveness products, sliding windows
``evimon.modelfile`` / ``evimon.trace`` / ``evimon.report``
    JSON model documents, CSV traces, report emission
``evimon.generate``
    synthetic traces with known zone classes
``evimon.cli``
    the ``evimon`` command (eval / demo / gen-trace)
"""

from .belief import (
    Frame,
    MassFunction,
    SetFunction,
    categorical,
    combine_conjunctive,
    combine_conjunctive_normalized,
    combine_disjunctive,
    commonality_to_mass,
    conflict_mass,
    mass_to_belief,
    mass_to_commonality,
    mass_to_plausibility,
    normalize,
    plausibility_to_mass,
    vacuous,
)
from .errors import (
    AllZeroLikelihood,
    EmptyLog,
    EvimonError,
    FrameMismatch,
    GenerationError,
    InvalidSetFunction,
    LengthMismatch,
    MissingVariable,
    ParseError,
    TotalConflict,
    TraceTooShort,
    ValidationError,
)
from .forward import (
    EffectivenessReport,
    ForwardState,
    effectiveness,
    forward_init,
    forward_step,
    predict,
    run_forward,
    sliding_effectiveness,
)
from .iohmm import (
    ConditionalTransitionBBAs,
    EvIohmm,
    best_deterministic_test,
    build_transition_rows,
    deterministic_test,
    emission_bba,
)
from .possibility import (
    Constraint,
    ConstraintVector,
    PossibilityDistribution,
    constant,
    crisp_above,
    crisp_below,
    crisp_interval,
    evaluate,
    evaluate_constraint_vector,
    normal_likelihood,
    ramp_down,
    ramp_up,
    singleton_likelihoods_to_bba,
    singleton_possibilities_to_bba,
    trapezoid,
)
from .generate import generate_trace
from .modelfile import model_from_dict, model_to_dict, parse_model, write_model
from .trace import Trace, TraceRecord, read_trace, write_trace

__version__ = "0.1.0"
