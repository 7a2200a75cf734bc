"""Exact counting of squarefree tuples in short intervals, with certified
density brackets, optimal sieve-weight upper bounds and removal-ledger
decompositions."""

from .arith import (
    MAX_SUPPORTED,
    OffsetTuple,
    as_offsets,
    is_prime,
    is_tuple_squarefree,
    mobius_up_to,
    primes_up_to,
    residue_class_count,
    residue_class_count_squarefree,
    squarefree_prime_factors,
    squarefull_product,
    squarefull_radical,
)
from .buchstab import (
    AsymptoticParameters,
    BuchstabReport,
    MainTermEstimate,
    SquareMultipleQuery,
    asymptotic_parameters,
    base_main_term,
    buchstab_decompose,
    count_square_hits,
    count_square_hits_split,
    count_square_multiples,
)
from .density import (
    DEFAULT_PRIME_CUTOFF,
    EulerEstimate,
    InverseDensityBound,
    certify_inverse_bound,
    density_constant,
    inverse_density_cap,
)
from .errors import ContractViolation, DegenerateTupleError, MemoryBudgetError
from .selberg import (
    MomentBounds,
    SelbergSystem,
    UpperBoundCertificate,
    UpperBoundParameters,
    excess_exponent,
    moment_cap,
    normalizing_sum,
    optimal_weights,
    quadratic_form_bound,
    sieve_level,
    squarefree_moment,
    upper_bound_parameters,
    weight_moment_bounds,
)
from .sieve import (
    CongruentMainTerm,
    Window,
    as_window,
    count_congruent,
    count_squarefree,
    count_tuples,
    verify_congruent_asymptotic,
)

__version__ = "0.1.0"
