"""formkit: exact finite-dimensional calculus for sesquilinear forms.

Forms on C^n are represented by matrices (linear in the first argument).
The library constructs scale/factor representations of a form relative to
a reference positive form, Lebesgue-type regular/singular splittings with
checkable witnesses, and solvability certificates driven by the numerical
range, together with generators for the standard diagonal, discrete
measure, and operator-pair example families.
"""

from .errors import (
    FormkitError,
    IncompatibleNorm,
    MathematicalRefusal,
    NoConvergence,
    NotAbsolutelyContinuous,
    NotHermitian,
    NotInClassM,
    NotPSD,
    NotSectorial,
    NotSolvable,
    ParseError,
    PreconditionFails,
    TheoremViolation,
    ValidationError,
    WitnessResidualTooLarge,
)
from .forms import (
    Form,
    PositiveForm,
    QuotientEmbedding,
    identity_form,
    quotient_embedding,
    re_im_split,
)
from .lebesgue import (
    LebesgueSplit,
    is_mutually_singular,
    lebesgue_decompose,
    maximality_check,
    parallel_sum,
    parallel_sum_limit,
    positive_lebesgue,
    singularity_witness,
)
from .numerics import (
    DEFAULT_RANK_TOL,
    HermEig,
    hermitian_eig,
    pinv,
)
from .regularity import (
    Membership,
    RNRepresentation,
    SectorialityCertificate,
    canonical_majorant,
    dominated_sequence,
    dominated_sequence_stabilization,
    in_class_M,
    is_absolutely_continuous,
    kato_S,
    membership,
    radon_nikodym,
    representation_residuals,
    sectorial_parameters,
)
from .solvable import (
    NormGram,
    NumericalRangeHull,
    SolvabilityReport,
    numerical_radius_bounds,
    numerical_range_hull,
    represent_operator,
    scalar_solvability,
    solvability_with,
)
from .trunclab import (
    Instance,
    convergence_report,
    diag_family,
    measure_family,
    operator_pair_family,
)

__version__ = "0.1.0"

__all__ = [
    "FormkitError",
    "IncompatibleNorm",
    "MathematicalRefusal",
    "NoConvergence",
    "NotAbsolutelyContinuous",
    "NotHermitian",
    "NotInClassM",
    "NotPSD",
    "NotSectorial",
    "NotSolvable",
    "ParseError",
    "PreconditionFails",
    "TheoremViolation",
    "ValidationError",
    "WitnessResidualTooLarge",
    "Form",
    "PositiveForm",
    "QuotientEmbedding",
    "identity_form",
    "quotient_embedding",
    "re_im_split",
    "LebesgueSplit",
    "is_mutually_singular",
    "lebesgue_decompose",
    "maximality_check",
    "parallel_sum",
    "parallel_sum_limit",
    "positive_lebesgue",
    "singularity_witness",
    "DEFAULT_RANK_TOL",
    "HermEig",
    "hermitian_eig",
    "pinv",
    "Membership",
    "RNRepresentation",
    "SectorialityCertificate",
    "canonical_majorant",
    "dominated_sequence",
    "dominated_sequence_stabilization",
    "in_class_M",
    "is_absolutely_continuous",
    "kato_S",
    "membership",
    "radon_nikodym",
    "representation_residuals",
    "sectorial_parameters",
    "NormGram",
    "NumericalRangeHull",
    "SolvabilityReport",
    "numerical_radius_bounds",
    "numerical_range_hull",
    "represent_operator",
    "scalar_solvability",
    "solvability_with",
    "Instance",
    "convergence_report",
    "diag_family",
    "measure_family",
    "operator_pair_family",
    "__version__",
]
