"""Quadratically accelerated Monte Carlo estimation, simulated exactly.

Mean estimators driven by an exact amplitude-estimation outcome law, Gibbs
model oracles with cooling-schedule partition estimation, Szegedy walk
contracts, and total-variation-distance estimation -- all metered through a
query ledger so accuracy/cost scaling can be measured instead of assumed.
"""

__version__ = "1.0.0"

from .outcome import (QueryLedger, ValueDistribution, from_arrays,
                      make_distribution, truncate, transform,
                      classical_sample_block)
from .amplitude import (ae_outcome_distribution, ae_sample, ae_median,
                        ae_circuit_distribution, arcsin_gap_bound,
                        measurement_tv_bound, outcome_interval_halfwidth,
                        interval_coverage)
from .mean import (Estimate, estimate_mean_bounded,
                   estimate_mean_l2, estimate_mean_variance,
                   estimate_mean_relative, power_median, powering_reps,
                   bounded_mean_constant, l2_constant, t_for_additive_error)
from .gibbs import (Graph, GibbsModel, read_graph, ising_model,
                    colouring_model, matching_model, exact_partition,
                    gibbs_distribution, chi_squared, overlap_squared)
from .chains import (MarkovChain, glauber_chain, matching_chain, chain_for,
                     relaxation_time)
from .walk import (WalkOperator, QuantumSample, ReflectionSpec, szegedy_walk,
                   approx_reflection, warm_start_prepare,
                   spectral_correspondence_residual)
from .partition import (CoolingSchedule, PartitionEstimate, ratio_variable,
                        reversed_ratio_variable, build_schedule,
                        verify_schedule, estimate_partition,
                        classical_baseline)
from .tvd import (TvdInstance, exact_tvd, tvd_subroutine_distribution,
                  estimate_tvd, ratio_stability_check, tvd_query_budget)
