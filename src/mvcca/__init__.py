"""Structured sum-of-correlations multiview CCA on large sparse data."""

from .errors import (ConfigError, EmptyViewError, InputError, NumericError,
                     RankDeficiencyError, RegularityError, StepSizeError)
from .linalg import (SparseView, load_dense_csv, load_matrix_market,
                     polar_factor, save_dense_csv, save_matrix_market,
                     spectral_norm_sq, spmm_left_t, spmm_right)
from .regularizers import Regularizer, penalty_value, prox
from .retrieval import (HashSpec, RetrievalResult, aroc, cross_distances,
                        evaluate_pairs, hash_corpus, nn_freq, project,
                        split_rows)
from .solver import (SolverConfig, SolverState, Trace, init_random,
                     lagrangian_value, primal_residual, run_pdd,
                     run_subsolver, validate_dimensions)
from .synth import (SynthSpec, gen_shared_factor, gen_with_outliers,
                    metric1, metric2, time_to_fraction, total_correlation)

__version__ = "0.1.0"
