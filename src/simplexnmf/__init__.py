"""KL-divergence NMF, PLSA, and LDA solvers with simplex constraints.

The package provides four multiplicative-update steppers (alternating,
joint with normalized topics, joint with normalized topics and weights,
and l1-penalized), two responsibility-free variational steppers (Dirichlet
and Gamma topic weights), the objective/bound evaluators they share, and
the columnwise rescaling maps that carry solutions, iterates, and fixed
points between all of these formulations.
"""

from .errors import (
    DataError,
    DeadTopicError,
    DegenerateColumnError,
    EntryError,
    InfiniteDivergenceError,
    MonotonicityError,
    NumericalError,
    UnrepresentableTermError,
)
from .specfun import digamma, log_gamma
from .types import (
    ConstraintMode,
    Factorization,
    FitConfig,
    FitTrace,
    METHODS,
    MU_METHODS,
    Priors,
    TermDocMatrix,
    VariationalState,
    VI_METHODS,
    normalize_columns,
    reconstruct_nonzeros,
    reconstruction_column_sums,
    reconstruction_total,
)
from .objectives import (
    expected_log_h_dirichlet,
    expected_log_h_gamma,
    gap_elbo,
    joint_aux,
    kl_divergence,
    lda_elbo,
    multinomial_marginal_loglik,
    plsa_log_likelihood,
    poisson_marginal_loglik,
    sparse_objective,
)
from .mu import (
    StepOutcome,
    fit,
    initialize_factorization,
    mu_step_alternating,
    mu_step_joint_bothnorm,
    mu_step_joint_wnorm,
    mu_step_sparse,
)
from .vi import (
    dp_vi_step,
    fit_vi,
    gap_vi_step,
    initialize_variational,
)
from .reference import lda_vi_step_reference, plsa_step_reference
from .equivalence import (
    absorb_penalty_general,
    absorb_scaling,
    fixed_point_residual,
    map_c1_to_c2,
    map_c2_to_c1,
    map_gap_lda_state,
    map_sparse_solution,
)
from .io import (
    ModelFile,
    Vocabulary,
    ingest_corpus,
    load_matrix_market,
    load_model,
    load_vocabulary,
    save_matrix_market,
    save_model,
    save_trace_csv,
    save_vocabulary,
)

__version__ = "0.1.0"
