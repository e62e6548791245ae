"""tauhunt: exact newform coefficients, defective Lucas sequences, and
bounded Diophantine searches deciding whether an odd prime power can be
a Fourier coefficient."""

from .arith import (
    DomainError,
    Factorization,
    continued_fraction_convergents,
    factor,
    is_perfect_square,
    is_prime,
    prime_power_root,
    sigma,
)
from .bounds import weight_bound_M
from .curves import CurveSpec, search_points, verify_tables
from .lehmer import (
    AdmissibilityReport,
    SearchBounds,
    check_admissibility,
    decompose_odd_target,
    enumerate_conditions,
    omega_lower_bound,
    unit_set,
)
from .lucas import (
    LucasPair,
    classify_defects,
    lucas_terms,
    rank_of_apparition,
    sigma_hat,
)
from .newform import (
    NewformSpec,
    coeff,
    coeff_prime_power,
    delta_expansion,
    delta_newform,
)
from .thue import ThueForm, build_form, build_reduced_form, evaluate, solve_bounded

__version__ = "1.0.0"
