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


def test_star_import_binds_the_public_names_and_no_module():
    assert len(bosonloop.__all__) == len(EXPORTED)
    assert set(bosonloop.__all__) == EXPORTED
    namespace = {}
    exec("from bosonloop import *", namespace)
    assert set(namespace) - {"__builtins__"} == EXPORTED


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
