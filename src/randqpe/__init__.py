"""Randomized statistical phase estimation toolkit."""

from ._rng import derive_rng, splitmix64
from .backend import (SpectralData, StateVector, exact_cdf, exact_spectrum,
                      expectation, hadamard_sample, prepare_state)
from .estimator import (GroundEnergyResult, Plan, SampleSet, acdf_estimate,
                        acdf_exact, build_plan, collect_samples, ground_energy,
                        threshold_query)
from .heaviside import (ApproxParams, FourierSeries, build_fourier,
                        certification_report, eval_fourier, optimize_split,
                        select_parameters)
from .lcu import (LcuUnitary, PauliOp, PauliRotation, Phase, SegmentDistribution,
                  parse_lcu, sample_unitary, segment_distribution,
                  truncation_bias_bound, truncation_order, weight_mu)
from .pauli import (Hamiltonian, PauliString, SignedPauli, parse_hamiltonian,
                    pauli_multiply)
from .resources import (ResourcePoint, hwp_toffoli, hwp_toffoli_per_gate,
                        toffoli_per_sample, tradeoff_curve)
from .runtime import (Complexities, FeasibilityError, complexity_report,
                      constant_weight, minimize_samples, minimize_total)

__version__ = "0.1.0"
