"""Boson sampling with optical feedback: Fock-space engines, channels, tensors.

The package simulates an M-mode linear interferometer whose last L output
modes are fed back to its last L inputs, with fresh photons injected into
the external modes each iteration.  It provides three mutually verifying
evolution engines, the unique stationary loop state via the channel
superoperator, a correlation-tensor formalism for the stationary regime, and
density-matrix/distribution reconstruction from moments.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .channels import (QuantumChannel, StationaryResult, compose, loop_channel,
                       loss_channel, stationary_state)
from .errors import (BosonLoopError, ConfigError, ConvergenceError,
                     DegenerateFixedPointError, OutOfBasisError, OutputError,
                     ReconstructionError, SizeCapError, SpectralRadiusError,
                     TruncationError)
from .evolve import (AverageStationaryResult, EvolutionTrace, ExperimentConfig,
                     LossSpec, UnfoldResult, average_stationary, detection_pass,
                     effective_transfer_matrix, evolve_kraus, evolve_pdm,
                     stabilization_samples, stabilization_time,
                     stationary_loop_iterate, stationary_loop_state, unfold,
                     unfolded_distribution)
from .fock import (FockBasis, enumerate_sector, sector_size, tensor_index_map,
                   total_size)
from .lift import LiftedUnitary, lift_apply_fock
from .matrixkit import (Interferometer, haar_random_unitary, load_matrix,
                        permanent, spectral_radius, unvec, vec)
from .qstate import (DensityMatrix, ProbabilityDistribution, classical_fidelity,
                     diagonal_distribution, fock_state_dm, partial_trace,
                     random_density_matrix, trace_distance, uhlmann_fidelity)
from .reconstruct import (MomentSystem, PhotonStatisticsFit, build_moment_system,
                          coherent_pmf, fit_photon_statistics, project_psd,
                          project_simplex, reconstruct_analytic,
                          reconstruct_convex, reconstruct_distribution,
                          thermal_pmf)
from .tensors import (CorrelationTensor, TensorSet, estimate_n_max,
                      expectations_from_dm, moments_from_tensor_set,
                      recursive_stationary, stationary_order,
                      stationary_output_tensor, tensor_set_from_dm, transform)

# the relative imports above also bind each submodule, which is not exported
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
