"""Upper semigroup envelopes of families of Markov transition operators.

Build a family of discretized linear transition semigroups, take their
pointwise one-step supremum, compose it over time partitions, and refine
dyadically: the limit is the least semigroup dominating every member, the
value function of worst-case switching between them.  The package verifies
the structural facts this construction rests on (monotone refinement,
dynamic programming, contraction, generator consistency, an HJB-type
residual), realizes the dual control representation with explicit policies,
and cross-checks values by exact-increment Monte Carlo.
"""

from .control import (ControlPolicy, GreedyResult, duality_gap, greedy_policy,
                      policy_value, random_policy)
from .diagnostics import (cutoff_decay_probe, cutoff_family, property_suite,
                          strong_continuity_probe, viscosity_residual)
from .envelope import (NisioResult, Partition, dpp_check, envelope_step,
                       envelope_step_argmax, nisio_value, partition_apply,
                       quadrature_tolerance, upper_bound_check)
from .errors import (ConfigurationError, InvalidInputError,
                     NumericalDegeneracyError, ResolutionError)
from .grids import GridFunction, WeightedGrid, lip_seminorm, weighted_norm
from .montecarlo import SamplerSpec, mc_compare, mc_value, sample_terminal_states
from .operators import (ChainOperator, FamilyBounds, GBMOperator, GeneratorResult,
                        HeatOperator, KoopmanOperator, OUOperator, ScaledOperator,
                        SemigroupFamily, StableOperator, TransitionOperator)
from .probes import probe_function

__version__ = "0.1.0"

__all__ = [
    "ChainOperator", "ConfigurationError", "ControlPolicy", "FamilyBounds",
    "GBMOperator", "GeneratorResult", "GreedyResult", "GridFunction",
    "HeatOperator", "InvalidInputError", "KoopmanOperator", "NisioResult",
    "NumericalDegeneracyError", "OUOperator", "Partition", "ResolutionError",
    "SamplerSpec", "ScaledOperator", "SemigroupFamily", "StableOperator",
    "TransitionOperator", "WeightedGrid",
    "cutoff_decay_probe", "cutoff_family", "dpp_check", "duality_gap",
    "envelope_step", "envelope_step_argmax", "greedy_policy",
    "lip_seminorm", "mc_compare", "mc_value", "nisio_value", "partition_apply",
    "policy_value", "probe_function", "property_suite", "quadrature_tolerance",
    "random_policy", "sample_terminal_states",
    "strong_continuity_probe", "upper_bound_check", "viscosity_residual",
    "weighted_norm",
]
