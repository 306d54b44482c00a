import inspect
import re
from pathlib import Path

import bosonloop

README = Path(__file__).resolve().parents[1] / "README.md"

# every name `from bosonloop import *` binds, by the module that defines it
EXPORTED = {
    # channels
    "QuantumChannel", "StationaryResult", "compose", "loop_channel", "loss_channel",
    "stationary_state",
    # errors
    "BosonLoopError", "ConfigError", "ConvergenceError", "DegenerateFixedPointError",
    "OutOfBasisError", "OutputError", "ReconstructionError", "SizeCapError",
    "SpectralRadiusError", "TruncationError",
    # evolve
    "AverageStationaryResult", "EvolutionTrace", "ExperimentConfig", "LossSpec",
    "UnfoldResult", "average_stationary", "detection_pass", "effective_transfer_matrix",
    "evolve_kraus", "evolve_pdm", "stabilization_samples", "stabilization_time",
    "stationary_loop_iterate", "stationary_loop_state", "unfold", "unfolded_distribution",
    # fock
    "FockBasis", "enumerate_sector", "sector_size", "tensor_index_map", "total_size",
    # lift
    "LiftedUnitary", "lift_apply_fock",
    # matrixkit
    "Interferometer", "haar_random_unitary", "load_matrix", "permanent",
    "spectral_radius", "unvec", "vec",
    # qstate
    "DensityMatrix", "ProbabilityDistribution", "classical_fidelity",
    "diagonal_distribution", "fock_state_dm", "partial_trace", "random_density_matrix",
    "trace_distance", "uhlmann_fidelity",
    # reconstruct
    "MomentSystem", "PhotonStatisticsFit", "build_moment_system", "coherent_pmf",
    "fit_photon_statistics", "project_psd", "project_simplex", "reconstruct_analytic",
    "reconstruct_convex", "reconstruct_distribution", "thermal_pmf",
    # tensors
    "CorrelationTensor", "TensorSet", "estimate_n_max", "expectations_from_dm",
    "moments_from_tensor_set", "recursive_stationary", "stationary_order",
    "stationary_output_tensor", "tensor_set_from_dm", "transform",
}


# the parameter names of every exported callable, so that adding an option
# is a deliberate edit; None for an error that keeps Exception's (*args)
SIGNATURES = {
    # channels
    "QuantumChannel": ("basis", "nonzeros", "valid_max_photons", "max_photon_gain"),
    "StationaryResult": ("rho", "eigenvalue", "_second_modulus"),
    "compose": ("outer", "inner"),
    "loop_channel": ("lifted", "rho_ext"),
    "loss_channel": ("transmission", "modes", "n_max"),
    "stationary_state": ("channel",),
    # errors
    "BosonLoopError": None, "ConfigError": None, "ConvergenceError": None,
    "DegenerateFixedPointError": None, "OutOfBasisError": None, "OutputError": None,
    "SpectralRadiusError": None,
    "ReconstructionError": ("message", "missing_moment"),
    "SizeCapError": ("message", "cap", "required"),
    "TruncationError": ("message", "required_n_max"),
    # evolve
    "AverageStationaryResult": ("rho", "samples_used", "skipped"),
    "EvolutionTrace": ("rho_det", "iteration_distributions", "max_leaked_weight", "n_max"),
    "ExperimentConfig": ("modes", "looped", "iterations", "unitary", "haar_seed",
                         "input_occupation", "input_state", "n_max", "losses"),
    "LossSpec": ("t_in", "t_out", "loop_transmission"),
    "UnfoldResult": ("input_occupation", "joint_distribution", "iteration_distributions",
                     "rho_det"),
    "average_stationary": ("config", "samples", "seed"),
    "detection_pass": ("config", "rho_line"),
    "effective_transfer_matrix": ("u", "losses", "n_looped"),
    "evolve_kraus": ("config",),
    "evolve_pdm": ("config",),
    "stabilization_samples": ("config", "samples", "seed", "tolerance"),
    "stabilization_time": ("config", "tolerance"),
    "stationary_loop_iterate": ("config",),
    "stationary_loop_state": ("config",),
    "unfold": ("config",),
    "unfolded_distribution": ("config",),
    # fock
    "FockBasis": ("modes", "n_max"),
    "enumerate_sector": ("modes", "total"),
    "sector_size": ("modes", "total"),
    "tensor_index_map": ("basis_a", "basis_b", "joint"),
    "total_size": ("modes", "n_max"),
    # lift
    "LiftedUnitary": ("matrix", "basis", "blocks"),
    "lift_apply_fock": ("matrix", "occupation"),
    # matrixkit
    "Interferometer": ("matrix",),
    "haar_random_unitary": ("dim", "seed"),
    "load_matrix": ("path",),
    "permanent": ("a",),
    "spectral_radius": ("a",),
    "unvec": ("v", "rows", "cols"),
    "vec": ("a",),
    # qstate
    "DensityMatrix": ("basis", "mat", "check"),
    "ProbabilityDistribution": ("basis", "probabilities", "check"),
    "classical_fidelity": ("p", "q"),
    "diagonal_distribution": ("rho",),
    "fock_state_dm": ("basis", "occupation"),
    "partial_trace": ("rho", "keep"),
    "random_density_matrix": ("basis", "seed"),
    "trace_distance": ("rho", "sigma"),
    "uhlmann_fidelity": ("rho", "sigma"),
    # reconstruct
    "MomentSystem": ("basis", "moments"),
    "PhotonStatisticsFit": ("thermal_mean", "thermal_residual", "coherent_mean",
                            "coherent_residual"),
    "build_moment_system": ("basis", "tensor_set"),
    "coherent_pmf": ("mean", "n_max"),
    "fit_photon_statistics": ("dist",),
    "project_psd": ("h", "basis"),
    "project_simplex": ("v",),
    "reconstruct_analytic": ("system", "n_max"),
    "reconstruct_convex": ("system", "n_max"),
    "reconstruct_distribution": ("system", "n_max"),
    "thermal_pmf": ("mean", "n_max"),
    # tensors
    "CorrelationTensor": ("k", "l", "modes", "values"),
    "TensorSet": ("modes",),
    "estimate_n_max": ("c11", "c22"),
    "expectations_from_dm": ("rho", "k", "l"),
    "moments_from_tensor_set": ("tensor_set",),
    "recursive_stationary": ("matrix", "rho_ext", "rank_cap"),
    "stationary_order": ("k", "l", "matrix", "rho_ext", "loop_set", "context"),
    "stationary_output_tensor": ("k", "l", "matrix", "rho_ext", "loop_set", "block"),
    "tensor_set_from_dm": ("rho", "rank_cap"),
    "transform": ("tensor", "matrix"),
}


def _parameters(obj) -> tuple | None:
    try:
        return tuple(inspect.signature(obj).parameters)
    except ValueError:  # a class that keeps BaseException's constructor
        return None


def test_star_import_binds_the_public_names_and_no_module():
    assert len(bosonloop.__all__) == len(EXPORTED)
    assert set(bosonloop.__all__) == EXPORTED
    namespace = {}
    exec("from bosonloop import *", namespace)
    assert set(namespace) - {"__builtins__"} == EXPORTED


def test_every_exported_callable_keeps_its_parameter_names():
    assert set(SIGNATURES) == EXPORTED
    got = {name: _parameters(getattr(bosonloop, name)) for name in EXPORTED}
    assert got == SIGNATURES


def test_a_submodule_is_reachable_by_its_name():
    import bosonloop.lift
    assert bosonloop.lift.LiftedUnitary is bosonloop.LiftedUnitary


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    moment = namespace["tensors"].get(1, 1).values.real
    assert moment.shape == (1, 1)
    assert capsys.readouterr().out == f"{moment}\n"
