import gc
import json
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonloop import evolve
from bosonloop.channels import QuantumChannel
from bosonloop.cli import main
from bosonloop.errors import (DENSE_DIM_CAP, ConvergenceError,
                              DegenerateFixedPointError, SizeCapError,
                              TruncationError)
from bosonloop.evolve import (ExperimentConfig, LossSpec, _LoopSetup,
                              average_stationary, detection_pass,
                              effective_transfer_matrix, evolve_kraus,
                              evolve_pdm, stabilization_samples,
                              stabilization_time, stationary_loop_iterate,
                              stationary_loop_state, unfold,
                              unfolded_distribution)
from bosonloop.fock import FockBasis, enumerate_sector
from bosonloop.lift import LiftedUnitary, lift
from bosonloop.matrixkit import haar_random_unitary
from bosonloop.qstate import (fock_state_dm, trace_distance, uhlmann_fidelity)

from oracles import stabilization_time_stepwise

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def _tv(p, q):
    return 0.5 * np.abs(p.probabilities - q.probabilities).sum()


def haar_config(modes, looped, iterations, seed, occupation=None, **kw):
    occupation = occupation or (1,) + (0,) * (modes - looped - 1)
    return ExperimentConfig(modes=modes, looped=looped, iterations=iterations,
                            haar_seed=seed, input_occupation=occupation, **kw)


def test_config_validation():
    with pytest.raises(ValueError):
        haar_config(2, 2, 1, 0)  # L must stay below M
    with pytest.raises(ValueError):
        haar_config(2, 1, 0, 0)  # at least one iteration
    with pytest.raises(ValueError):
        ExperimentConfig(modes=2, looped=1, iterations=1, haar_seed=0,
                         input_occupation=(1, 0))  # occupation length mismatch
    with pytest.raises(ValueError):
        ExperimentConfig(modes=2, looped=1, iterations=1,
                         input_occupation=(1,))  # no unitary source


@pytest.mark.parametrize("matrix", [
    np.diag([0.5, 1.0]),                 # unfolding it once gave distributions summing to 1/16
    haar_random_unitary(3, 0),           # unitary, but not M x M
    np.array([[1.0, 0.0], [np.nan, 1.0]]),
])
def test_a_given_matrix_is_refused_when_the_config_is_made(matrix):
    with pytest.raises(ValueError):
        ExperimentConfig(modes=2, looped=1, iterations=2, unitary=matrix,
                         input_occupation=(1,))


def test_config_resolves_losses_and_keeps_read_only_matrices():
    u = haar_random_unitary(2, 19)
    cfg = ExperimentConfig(modes=2, looped=1, iterations=1, unitary=u, input_occupation=(1,),
                           losses=LossSpec(loop_transmission=0.5))
    np.testing.assert_array_equal(cfg.losses.t_in, np.ones(2))
    np.testing.assert_array_equal(cfg.losses.t_out, np.ones(2))
    assert not cfg.losses.trivial and haar_config(2, 1, 1, 0).losses.trivial
    # the config holds a checked copy: writing the source changes nothing
    u[0, 0] = 5.0
    assert cfg.transfer_matrix()[0, 0] != 5.0
    for matrix in (cfg.transfer_matrix(), cfg.m_eff, haar_config(2, 1, 1, 4).transfer_matrix()):
        assert not matrix.flags.writeable
    np.testing.assert_array_equal(
        cfg.m_eff, effective_transfer_matrix(cfg.transfer_matrix(), cfg.losses, 1))


def test_config_draws_its_haar_matrix_once(monkeypatch):
    draws = []

    def counted(dim, seed):
        draws.append(seed)
        return haar_random_unitary(dim, seed)
    monkeypatch.setattr(evolve, "haar_random_unitary", counted)
    cfg = haar_config(2, 1, 2, 20, n_max=10)
    assert draws == []  # drawn on first use
    stationary_loop_state(cfg)
    evolve_pdm(cfg)
    unfolded_distribution(cfg)
    assert draws == [20]


def test_injected_state_is_the_input_on_its_smallest_basis():
    cfg = ExperimentConfig(modes=4, looped=1, iterations=3, haar_seed=0,
                           input_occupation=(1, 0, 1), n_max=9)
    assert cfg.injected_state.basis == FockBasis(3, 2)
    np.testing.assert_array_equal(cfg.injected_state.mat,
                                  fock_state_dm(FockBasis(3, 2), (1, 0, 1)).mat)
    assert haar_config(2, 1, 1, 0, occupation=(0,)).injected_state.basis == FockBasis(1, 1)
    rho = fock_state_dm(FockBasis(1, 3), (2,))
    assert ExperimentConfig(modes=2, looped=1, iterations=1, haar_seed=0,
                            input_state=rho).injected_state is rho


def test_n_max_default_without_a_loop_is_one_pass():
    cfg = ExperimentConfig(modes=3, looped=0, iterations=4, haar_seed=5,
                           input_occupation=(1, 1, 0))
    assert cfg.resolve_n_max() == 2
    assert evolve_pdm(cfg).n_max == 2
    vacuum = replace(cfg, input_occupation=(0, 0, 0))
    assert vacuum.resolve_n_max() == 1


def test_three_way_engine_agreement():
    for modes, looped, seed in [(2, 1, 3), (3, 1, 4), (3, 2, 5)]:
        cfg = haar_config(modes, looped, 3, seed)
        t_pdm = evolve_pdm(cfg)
        t_kraus = evolve_kraus(cfg)
        t_unf = unfolded_distribution(cfg)
        for i in range(3):
            assert _tv(t_pdm.iteration_distributions[i],
                       t_kraus.iteration_distributions[i]) < 1e-10
            assert _tv(t_pdm.iteration_distributions[i],
                       t_unf.iteration_distributions[i]) < 1e-10
        assert trace_distance(t_pdm.rho_det, t_kraus.rho_det) < 1e-10
        assert trace_distance(t_pdm.rho_det, t_unf.rho_det) < 1e-10


def test_swap_matrix_dynamics():
    cfg = ExperimentConfig(modes=2, looped=1, iterations=3, unitary=SWAP,
                           input_occupation=(1,))
    trace = evolve_pdm(cfg, record_loop=True)
    one = fock_state_dm(trace.loop_states[1].basis, (1,))
    for rho in trace.loop_states[1:]:
        assert trace_distance(rho, one) < 1e-12
    det_one = fock_state_dm(trace.rho_det.basis, (1,))
    assert trace_distance(trace.rho_det, det_one) < 1e-12


def test_single_pass_when_not_looped():
    u = haar_random_unitary(3, 6)
    cfg = ExperimentConfig(modes=3, looped=0, iterations=3, unitary=u,
                           input_occupation=(1, 1, 0))
    trace = evolve_pdm(cfg)
    basis = FockBasis(3, 2)
    rho_in = fock_state_dm(basis, (1, 1, 0))
    expected = lift(u, basis).conjugate(rho_in.mat)
    np.testing.assert_allclose(trace.rho_det.mat, expected, atol=1e-12)
    for dist in trace.iteration_distributions:
        assert _tv(dist, trace.iteration_distributions[-1]) == 0.0
    # the kraus engine shares the L=0 path
    np.testing.assert_allclose(evolve_kraus(cfg).rho_det.mat, expected, atol=1e-12)


def test_unfold_matrix_shape_and_input():
    cfg = haar_config(3, 1, 4, 8)
    u_total, occ = unfold(cfg)
    assert u_total.shape == (2 * 4 + 1,) * 2
    assert occ == (1, 0) * 4 + (0,)
    assert np.abs(u_total.conj().T @ u_total - np.eye(9)).max() < 1e-12
    result = unfolded_distribution(cfg)
    assert result.joint_distribution.probabilities.sum() == pytest.approx(1.0)
    assert result.joint_distribution.basis.modes == 8


def test_unfold_single_iteration_is_single_pass():
    u = haar_random_unitary(3, 9)
    cfg = ExperimentConfig(modes=3, looped=1, iterations=1, unitary=u,
                           input_occupation=(1, 1))
    result = unfolded_distribution(cfg)
    ref = evolve_pdm(cfg)
    assert _tv(result.iteration_distributions[0], ref.iteration_distributions[0]) < 1e-12


def test_unfold_rejects_losses_and_mixed_input():
    cfg = haar_config(2, 1, 2, 10,
                      losses=LossSpec(loop_transmission=0.5))
    with pytest.raises(ValueError):
        unfold(cfg)
    from bosonloop.qstate import random_density_matrix
    cfg2 = ExperimentConfig(modes=2, looped=1, iterations=2, haar_seed=1,
                            input_state=random_density_matrix(FockBasis(1, 1), 3))
    with pytest.raises(ValueError):
        unfold(cfg2)


def test_unfold_refuses_an_oversized_matrix_before_building_it(monkeypatch):
    # M=3, L=1 over 10^4 iterations unfolds to 20001 modes
    def eye(*args, **kwargs):
        raise AssertionError("the unfolded transfer matrix was built before the size check")
    monkeypatch.setattr(evolve.np, "eye", eye)
    cfg = haar_config(3, 1, 10_000, 8)
    with pytest.raises(SizeCapError) as err:
        unfold(cfg)
    assert (err.value.cap, err.value.required) == (DENSE_DIM_CAP, 20_001)


def test_lossy_engines_agree():
    losses = LossSpec(t_in=np.array([0.9, 0.8]), t_out=np.array([1.0, 0.95]),
                      loop_transmission=0.85)
    cfg = haar_config(2, 1, 4, 11, losses=losses, n_max=4)
    t_pdm = evolve_pdm(cfg, record_loop=True)
    t_kraus = evolve_kraus(cfg, record_loop=True)
    for a, b in zip(t_pdm.loop_states, t_kraus.loop_states):
        assert trace_distance(a, b) < 1e-10
    for a, b in zip(t_pdm.iteration_distributions, t_kraus.iteration_distributions):
        assert _tv(a, b) < 1e-10


def _count_loop_channels(monkeypatch) -> list:
    """Record the lifted unitary of every `loop_channel` that `evolve` builds."""
    built, build = [], evolve.loop_channel

    def counted(lifted, rho_ext):
        built.append(lifted)
        return build(lifted, rho_ext)

    monkeypatch.setattr(evolve, "loop_channel", counted)
    return built


@pytest.mark.parametrize("iterations", [1, 3])
@pytest.mark.parametrize("record_loop", [False, True])
def test_the_kraus_route_steps_the_line_only_where_it_is_read(monkeypatch, iterations,
                                                              record_loop):
    # lossless, so the loop-update channel is the one channel applied; the
    # line after the last detection is read only by the record, and the
    # channel is built only when some step reads it
    cfg = haar_config(2, 1, iterations, 11, n_max=4)
    applied, apply = [], QuantumChannel.apply

    def counted(self, rho, *args, **kwargs):
        applied.append(self)
        return apply(self, rho, *args, **kwargs)

    monkeypatch.setattr(QuantumChannel, "apply", counted)
    built = _count_loop_channels(monkeypatch)
    trace = evolve_kraus(cfg, record_loop=record_loop)
    assert len(applied) == iterations - 1 + record_loop
    assert len(set(map(id, applied))) <= 1
    assert len(built) == (0 if iterations == 1 and not record_loop else 1)
    assert (trace.loop_states is None) != record_loop
    reference = evolve_pdm(cfg, record_loop=record_loop)
    for a, b in zip(reference.iteration_distributions, trace.iteration_distributions):
        assert _tv(a, b) < 1e-10


@st.composite
def _small_lossy_configs(draw, max_photons=4):
    """M <= 4, L in {1, 2}, k <= 3, random losses, and a Fock input with at
    most `max_photons` photons over the k injections (the default n_max)."""
    looped = draw(st.integers(1, 2))
    modes = draw(st.integers(looped + 1, 4))
    iterations = draw(st.integers(1, 3))
    n_ext = modes - looped
    occupation = draw(st.lists(st.integers(0, 2), min_size=n_ext, max_size=n_ext)
                      .filter(lambda occ: sum(occ) * iterations <= max_photons))
    amplitudes = st.lists(st.floats(0.0, 1.0), min_size=modes, max_size=modes)
    losses = LossSpec(t_in=np.array(draw(amplitudes)), t_out=np.array(draw(amplitudes)),
                      loop_transmission=draw(st.floats(0.0, 1.0)))
    return haar_config(modes, looped, iterations, draw(st.integers(0, 2 ** 31)),
                       occupation=tuple(occupation), losses=losses)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(cfg=_small_lossy_configs())
def test_pdm_and_kraus_agree_on_random_small_configs(cfg):
    t_pdm = evolve_pdm(cfg, record_loop=True)
    t_kraus = evolve_kraus(cfg, record_loop=True)
    for a, b in zip(t_pdm.iteration_distributions, t_kraus.iteration_distributions):
        assert _tv(a, b) < 1e-10
    for state in t_pdm.loop_states + t_kraus.loop_states:
        assert abs(np.trace(state.mat).real - 1.0) < 1e-10


@settings(max_examples=100, derandomize=True, deadline=None)
@given(cfg=_small_lossy_configs())
def test_loop_update_channel_is_complete_on_its_valid_sectors(cfg):
    chan = _LoopSetup(cfg).channel
    d_ok = sum(len(enumerate_sector(chan.basis.modes, n))
               for n in range(chan.valid_max_photons + 1))
    comp = chan.completeness_operator()[:d_ok, :d_ok]
    assert np.abs(comp - np.eye(d_ok)).max() < 1e-9


def test_joint_pass_memory_stays_near_the_state_size():
    # joint dimension 2002: the np.kron of the two factors alone would hold
    # 146M complex entries (2.3 GB), the joint state holds 4.0M (64 MB)
    cfg = haar_config(5, 2, 3, 1, occupation=(1, 1, 1))
    tracemalloc.start()
    try:
        t_pdm = evolve_pdm(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 2 ** 20
    t_kraus = evolve_kraus(cfg)
    for a, b in zip(t_pdm.iteration_distributions, t_kraus.iteration_distributions):
        assert _tv(a, b) < 1e-10


def test_second_joint_pass_peak_stays_below_the_joint_matrix():
    # M=6, L=2: a dense 924 x 924 joint matrix is 13.7 MB on its own; the pass
    # holds the sector-pair blocks of the product (12.8 MB) and one conjugated
    # block at a time, gathered straight into both reduced states
    setup = _LoopSetup(haar_config(6, 2, 2, 7, occupation=(1, 1, 1, 0)))
    setup.lifted.block(setup.n_max)
    _, line, _ = setup.step(setup.vacuum_line())
    tracemalloc.start()
    try:
        setup.step(line)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


def test_full_loop_loss_resets_line():
    # a dead feedback line makes every iteration an independent single pass
    losses = LossSpec(loop_transmission=0.0)
    cfg = haar_config(2, 1, 3, 12, losses=losses, n_max=3)
    trace = evolve_pdm(cfg)
    first = trace.iteration_distributions[0]
    for dist in trace.iteration_distributions[1:]:
        assert _tv(dist, first) < 1e-12


def test_vacuum_input_identity_loop():
    cfg = ExperimentConfig(modes=2, looped=1, iterations=3, unitary=np.eye(2),
                           input_occupation=(0,), n_max=1)
    trace = evolve_pdm(cfg, record_loop=True)
    vac = fock_state_dm(trace.loop_states[0].basis, (0,))
    for rho in trace.loop_states:
        assert trace_distance(rho, vac) < 1e-14


def test_photon_number_ceiling():
    cfg = haar_config(2, 1, 4, 13)
    trace = evolve_pdm(cfg, record_loop=True)
    for i, rho in enumerate(trace.loop_states):
        assert rho.max_populated_sector() <= i


def test_truncation_guard_reports_required_bound():
    cfg = haar_config(2, 1, 6, 14, n_max=2)
    with pytest.raises(TruncationError) as err:
        evolve_pdm(cfg)
    assert err.value.required_n_max == 6


def test_truncation_guard_without_a_loop_names_the_input_size():
    # without a loop every iteration is one pass of the two-photon input
    cfg = ExperimentConfig(modes=3, looped=0, iterations=3, haar_seed=5,
                           input_occupation=(1, 1, 0), n_max=1)
    with pytest.raises(TruncationError, match="the sound bound is N_env = 2") as err:
        evolve_pdm(cfg)
    assert err.value.required_n_max == 2
    trace = evolve_pdm(replace(cfg, n_max=2))
    assert len(trace.iteration_distributions) == 3


def test_a_leaking_stationary_pass_names_a_bound_above_its_n_max():
    # iterations * N_env = 1 is below n_max = 8, so the bound named is the
    # sum of the injected and line states' top populated sectors, 1 + 8
    cfg = ExperimentConfig(modes=4, looped=2, iterations=1, haar_seed=3,
                           input_occupation=(1, 0), n_max=8)
    rho_stat = stationary_loop_state(cfg).rho
    with pytest.raises(TruncationError, match="required n_max is at least 9") as err:
        detection_pass(cfg, rho_stat)
    assert err.value.required_n_max == 9


def test_n_max_default_is_iterations_times_input():
    cfg = haar_config(2, 1, 5, 15)
    assert cfg.resolve_n_max() == 5
    cfg2 = ExperimentConfig(modes=3, looped=1, iterations=3, haar_seed=0,
                            input_occupation=(1, 1))
    assert cfg2.resolve_n_max() == 6


def test_stationary_fixed_point_and_methods_agree():
    cfg = haar_config(2, 1, 1, 23, n_max=14)
    result = stationary_loop_state(cfg)
    iterated = stationary_loop_iterate(cfg)
    assert trace_distance(result.rho, iterated) < 1e-7
    assert result.second_modulus < 1.0 - 1e-6


def test_stationary_swap_is_injected_state():
    cfg = ExperimentConfig(modes=2, looped=1, iterations=1, unitary=SWAP,
                           input_occupation=(1,), n_max=3)
    result = stationary_loop_state(cfg)
    assert trace_distance(result.rho, fock_state_dm(result.rho.basis, (1,))) < 1e-10


def test_stabilization_swap_is_one():
    cfg = ExperimentConfig(modes=2, looped=1, iterations=1, unitary=SWAP,
                           input_occupation=(1,), n_max=3)
    assert stabilization_time(cfg) == 1


def test_stabilization_decoupled_raises(monkeypatch):
    # the charge-0 block alone holds the extra unit eigenvalues, so the rung
    # raises before its first step
    u = np.diag([1.0, np.exp(0.4j)])
    cfg = ExperimentConfig(modes=2, looped=1, iterations=1, unitary=u,
                           input_occupation=(1,), n_max=4)
    calls = _count_steps(monkeypatch)
    with pytest.raises(DegenerateFixedPointError):
        stabilization_time(cfg)
    assert calls == []


def test_stabilization_iteration_cap():
    cfg = haar_config(2, 1, 1, 20, n_max=10)
    with pytest.raises(ConvergenceError):
        stabilization_time(cfg, tolerance=1e-12, max_iterations=2)


def test_infidelity_eventually_monotone():
    # matrices with a well-contracting loop block settle monotonically
    for seed in range(30, 36):
        u = haar_random_unitary(2, seed)
        if abs(u[1, 1]) >= 0.9:
            continue
        cfg = ExperimentConfig(modes=2, looped=1, iterations=1, unitary=u,
                               input_occupation=(1,), n_max=12)
        setup_tau = stabilization_time(cfg)
        from bosonloop.evolve import _LoopSetup
        setup = _LoopSetup(cfg)
        chan = setup.channel
        stat = stationary_loop_state(cfg).rho
        rho = setup.vacuum_line()
        infids = []
        for _ in range(max(6, setup_tau + 2)):
            infids.append(1 - uhlmann_fidelity(rho, stat))
            rho = chan.apply(rho, leak_tolerance=1e-9)
        tail = infids[len(infids) // 2:]
        assert all(a >= b - 1e-12 for a, b in zip(tail, tail[1:]))


def test_stabilization_vacuum_fixed_point_is_zero():
    # SWAP injects the vacuum into the loop, which starts at its fixed point
    cfg = ExperimentConfig(modes=2, looped=1, iterations=1, unitary=SWAP,
                           input_occupation=(0,), n_max=1)
    assert stabilization_time(cfg) == 0


_STEP = QuantumChannel.apply


def _count_steps(monkeypatch, fail_at=None):
    """Count QuantumChannel.apply calls; call number `fail_at` raises a
    TruncationError instead of stepping."""
    calls = []

    def counted(self, rho, leak_tolerance=0.0):
        calls.append(rho)
        if len(calls) == fail_at:
            raise TruncationError(f"injected at step {fail_at}")
        return _STEP(self, rho, leak_tolerance)

    monkeypatch.setattr(QuantumChannel, "apply", counted)
    return calls


def _outcome(solve, cfg, **kw):
    try:
        return solve(cfg, **kw)
    except (TruncationError, ConvergenceError) as err:
        return type(err).__name__


def test_stabilization_truncation_past_tau_is_overshoot(monkeypatch):
    # tau = 13 lies in the second chunk, so the trajectory steps past it;
    # a failure at step tau + 1 is not the result's, one at or before step
    # tau is raised as the step-by-step loop raises it
    cfg = haar_config(2, 1, 1, 22, n_max=14)
    tau = stabilization_time(cfg)
    assert tau == 13
    for fail_at in (tau - 1, tau, tau + 1, tau + 2):
        _count_steps(monkeypatch, fail_at)
        got = _outcome(stabilization_time, cfg)
        _count_steps(monkeypatch, fail_at)
        assert got == _outcome(stabilization_time_stepwise, cfg)
        assert got == (tau if fail_at > tau else "TruncationError")


@pytest.mark.parametrize("max_iterations", [0, 2, 9, 30])
def test_stabilization_cap_takes_the_stepwise_final_step(monkeypatch, max_iterations):
    # the cap raises after the same steps as the step-by-step loop, the
    # last one included, and a failure of that last step is what surfaces;
    # no infidelity lies below a zero tolerance
    cfg = haar_config(2, 1, 1, 20, n_max=10)
    runs = []
    for solve in (stabilization_time, stabilization_time_stepwise):
        calls = _count_steps(monkeypatch)
        runs.append((_outcome(solve, cfg, tolerance=0.0, max_iterations=max_iterations),
                     len(calls)))
    assert runs[0] == runs[1] == ("ConvergenceError", max_iterations + 1)
    _count_steps(monkeypatch, fail_at=max_iterations + 1)
    assert _outcome(stabilization_time, cfg, tolerance=0.0,
                    max_iterations=max_iterations) == "TruncationError"


@pytest.mark.parametrize("max_iterations", [0, 1, 7])
def test_iterate_cap_raises_after_exactly_max_iterations_steps(monkeypatch, max_iterations):
    # no trace distance lies below a zero tolerance
    cfg = haar_config(2, 1, 1, 20, n_max=10)
    monkeypatch.setattr(evolve, "ITERATE_TOLERANCE", 0.0)
    monkeypatch.setattr(evolve, "ITERATE_CAP", max_iterations)
    calls = _count_steps(monkeypatch)
    assert _outcome(stationary_loop_iterate, cfg) == "ConvergenceError"
    assert len(calls) == max_iterations


def _write_cli_config(tmp_path, **overrides) -> str:
    """A CLI config file: M=2, L=1, one photon injected, Haar seed 20."""
    raw = {"schema": 1, "M": 2, "L": 1, "n_max": 6, "iterations": 1,
           "input": {"type": "fock", "occupation": [1]},
           "unitary": {"type": "haar", "seed": 20}, "seed": 3, **overrides}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return str(path)


def test_iterate_that_does_not_settle_within_its_cap_exits_1(monkeypatch, tmp_path, capsys):
    # the default tolerance, but too few steps to reach it: the function
    # raises, and the CLI reports the ConvergenceError with exit code 1
    cfg = haar_config(2, 1, 1, 20, n_max=10)
    monkeypatch.setattr(evolve, "ITERATE_CAP", 3)
    with pytest.raises(ConvergenceError, match="in 3 steps"):
        stationary_loop_iterate(cfg)
    path = _write_cli_config(tmp_path, n_max=10)
    assert main(["stationary", path, "--method", "iterate", "--out", str(tmp_path / "o")]) == 1
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "ConvergenceError"
    assert not (tmp_path / "o").exists()


def test_iterate_surfaces_a_truncation_error_at_its_step(monkeypatch):
    # a failure at or before the settling step surfaces after exactly that
    # many steps; one past it is never reached
    cfg = haar_config(2, 1, 1, 20, n_max=10)
    calls = _count_steps(monkeypatch)
    settled = stationary_loop_iterate(cfg)
    steps = len(calls)
    for fail_at in (1, 2, steps):
        calls = _count_steps(monkeypatch, fail_at)
        assert _outcome(stationary_loop_iterate, cfg) == "TruncationError"
        assert len(calls) == fail_at
    _count_steps(monkeypatch, steps + 1)
    assert stationary_loop_iterate(cfg).mat.tobytes() == settled.mat.tobytes()


@pytest.mark.parametrize("solve", [stationary_loop_state, stationary_loop_iterate,
                                   stabilization_time])
def test_stationary_entry_points_refuse_a_config_without_a_loop(monkeypatch, solve):
    # refused before the joint space is resolved or lifted
    def no_setup(*args):
        raise AssertionError("the joint space was built")

    monkeypatch.setattr(evolve, "_LoopSetup", no_setup)
    cfg = ExperimentConfig(modes=3, looped=0, iterations=1, haar_seed=3,
                           input_occupation=(1, 1, 0))
    with pytest.raises(ValueError, match="needs at least one looped mode"):
        solve(cfg)


def _rung_events(monkeypatch):
    """Record, in order, the bordered solve's results ("solved" or None),
    the channel steps ("step") and the charge blocks requested (their index)."""
    events = []
    solve, step, block = evolve.fixed_point, QuantumChannel.apply, QuantumChannel.superop_block

    def solved(channel):
        rho = solve(channel)
        events.append(None if rho is None else "solved")
        return rho

    def stepped(self, rho, leak_tolerance=0.0):
        events.append("step")
        return step(self, rho, leak_tolerance)

    def requested(self, b):
        events.append(b)
        return block(self, b)

    monkeypatch.setattr(evolve, "fixed_point", solved)
    monkeypatch.setattr(QuantumChannel, "apply", stepped)
    monkeypatch.setattr(QuantumChannel, "superop_block", requested)
    return events


def test_leaking_fallback_rung_never_builds_the_other_charge_blocks(monkeypatch):
    # a stab_mc stratum sample, |U_LL|^2 = 0.80 at n_max = 14: the bordered
    # solve gives up and the charge-0 eigenvector passes its checks, but the
    # trajectory leaks past the truncation, so the rung is thrown away
    cfg = haar_config(2, 1, 1, 26, n_max=14)
    assert abs(cfg.transfer_matrix()[1, 1]) ** 2 == pytest.approx(0.804, abs=1e-3)
    events = _rung_events(monkeypatch)
    with pytest.raises(TruncationError):
        stabilization_time(cfg)
    assert None in events and "step" in events
    assert {e for e in events if isinstance(e, int)} == {0}


def test_sound_fallback_rung_builds_only_block_zero(monkeypatch):
    # a sound rung sent down the fallback takes its state from
    # stationary_state, whose checks all read the charge-0 block, after
    # uniqueness was read from M_eff,LL: no other block is built, and tau
    # does not move
    cfg = haar_config(2, 1, 1, 22, n_max=14)
    tau = stabilization_time(cfg)
    events = _rung_events(monkeypatch)
    monkeypatch.setattr(evolve, "fixed_point", lambda channel: events.append(None))
    assert stabilization_time(cfg) == tau
    assert None in events and "step" in events
    assert {e for e in events if isinstance(e, int)} == {0}


def test_stabilization_samples_deterministic():
    cfg = haar_config(2, 1, 1, 0, n_max=10)
    s1 = stabilization_samples(cfg, 8, seed=3)
    s2 = stabilization_samples(cfg, 8, seed=3)
    assert s1.times == s2.times
    assert s1.skipped == s2.skipped == 0


def _record_lifts(monkeypatch) -> list:
    """Record (matrix, n, block) for every sector block the recurrence lifts."""
    lifts = []
    recurrence = LiftedUnitary._block_recurrence

    def recorded(self, n):
        block = recurrence(self, n)
        lifts.append((self.matrix, n, block))
        return block

    monkeypatch.setattr(LiftedUnitary, "_block_recurrence", recorded)
    return lifts


def test_a_sample_lifts_each_sector_block_once_up_the_ladder(monkeypatch):
    # the one sample of seed 14 (|U_LL|^2 = 0.90) fails at n_max 14 and 21
    # and settles at 32; its rungs share the blocks lifted so far, which are
    # the blocks a fresh lifting at 32 makes, bit for bit
    cfg = haar_config(2, 1, 1, 0, n_max=14)
    rungs = []
    solve = evolve.stabilization_time

    def recorded(config, *args):
        rungs.append(config.n_max)
        return solve(config, *args)

    monkeypatch.setattr(evolve, "stabilization_time", recorded)
    lifts = _record_lifts(monkeypatch)
    study = stabilization_samples(cfg, 1, seed=14)
    assert rungs == [14, 21, 32] and study.times == [56]
    assert [n for _, n, _ in lifts] == list(range(1, 33))
    monkeypatch.undo()
    fresh = lift(lifts[0][0], FockBasis(2, 32))
    for _, n, block in lifts:
        assert block.tobytes() == fresh.block(n).tobytes()


def test_no_lifted_block_outlives_its_sample(monkeypatch):
    # once stabilization_samples and average_stationary return, nothing
    # holds a block their samples lifted, ladder climbs included
    lifts = _record_lifts(monkeypatch)
    cfg = haar_config(2, 1, 1, 0, n_max=14)
    assert stabilization_samples(cfg, 3, seed=14).skipped == 0
    average_stationary(haar_config(2, 1, 1, 0, n_max=10), samples=2, seed=4)
    refs = [weakref.ref(block) for _, _, block in lifts]
    del lifts[:]
    gc.collect()
    assert len(refs) > 32 and all(ref() is None for ref in refs)


@pytest.mark.parametrize("argv", [["stationary", "--method", "superop"],
                                  ["stationary", "--method", "iterate"],
                                  ["stationary", "--method", "tensors"],
                                  ["sample", "--target", "stationary", "--shots", "10"]])
def test_one_cli_call_builds_one_loop_channel_and_lifts_each_block_once(monkeypatch, tmp_path,
                                                                         argv):
    # the stationary state, its diagnostics and the detection pass all read
    # the config's one setup
    path = _write_cli_config(tmp_path)
    built = _count_loop_channels(monkeypatch)
    lifts = _record_lifts(monkeypatch)
    command, *options = argv
    assert main([command, path, *options, "--out", str(tmp_path / "o")]) == 0
    assert len(built) == 1
    sectors = [n for _, n, _ in lifts]
    assert sectors and len(sectors) == len(set(sectors))


def test_a_config_is_freed_by_reference_counting_alone():
    # its setup holds no reference back to it, so no cycle leaves the config
    # and the arrays of every route it ran to the cyclic collector
    cfg = haar_config(2, 1, 2, 20, n_max=8, losses=LossSpec(loop_transmission=0.8))
    config = weakref.ref(cfg)
    gc.disable()
    try:
        evolve_kraus(cfg, record_loop=True)
        detection_pass(cfg, stationary_loop_state(cfg).rho)
        del cfg
        assert config() is None
    finally:
        gc.enable()


def test_average_stationary_single_sample_and_structure():
    cfg = haar_config(2, 1, 1, 0, n_max=10)
    avg1 = average_stationary(cfg, samples=1, seed=4)
    child = np.random.SeedSequence(4).spawn(1)[0]
    u = haar_random_unitary(2, child)
    direct = stationary_loop_state(replace(cfg, unitary=u, haar_seed=None)).rho
    assert trace_distance(avg1.rho, direct) < 1e-12
    avg = average_stationary(cfg, samples=10, seed=5)
    assert np.trace(avg.rho.mat).real == pytest.approx(1.0, abs=1e-10)
    off_diag = avg.rho.mat - np.diag(np.diag(avg.rho.mat))
    assert np.abs(off_diag).max() < 1e-8  # photon-number blocks stay diagonal


def test_average_stationary_climbs_the_truncation_ladder():
    # three of the four samples leak past n_max=8 and one of them past 12, so
    # the mean is taken on the n_max=18 basis; values pinned from the
    # index_of-placement implementation of the padding
    cfg = haar_config(2, 1, 1, 0, n_max=8)
    avg = average_stationary(cfg, samples=4, seed=0)
    assert avg.rho.basis == FockBasis(1, 18)
    assert (avg.samples_used, avg.skipped) == (4, 0)
    pinned = [
        4.2283748235512297e-01, 3.2129361499198045e-01, 1.5842114847838279e-01,
        5.5792458615615492e-02, 2.4479378354317426e-02, 1.0572141860800644e-02,
        4.1411568135520764e-03, 1.5195422410999985e-03, 5.6081727067626604e-04,
        2.1986826617223542e-04, 9.2066145268141194e-05, 4.0009823776652594e-05,
        1.7493854686595176e-05, 7.5568413834785576e-06, 3.1932711379467840e-06,
        1.3051566302945604e-06, 5.0779747947990102e-07, 1.9142328736726752e-07,
        6.6438629605098918e-08,
    ]
    np.testing.assert_allclose(np.diag(avg.rho.mat), pinned, rtol=0, atol=1e-12)


def test_average_stationary_refuses_multimode():
    cfg = ExperimentConfig(modes=3, looped=2, iterations=1, haar_seed=0,
                           input_occupation=(1,), n_max=6)
    with pytest.raises(ValueError):
        average_stationary(cfg, samples=2, seed=0)


def test_detection_pass_matches_final_iteration():
    cfg = haar_config(2, 1, 3, 18)
    trace = evolve_pdm(cfg, record_loop=True)
    rho_det, rho_next = detection_pass(replace(cfg, n_max=trace.n_max),
                                       trace.loop_states[2])
    assert trace_distance(rho_det, trace.rho_det) < 1e-12
    assert trace_distance(rho_next, trace.loop_states[3]) < 1e-12


def test_effective_transfer_matrix():
    u = haar_random_unitary(2, 19)
    losses = LossSpec(t_in=np.array([0.5, 0.9]), t_out=np.array([0.8, 1.0]),
                      loop_transmission=0.25)
    m_eff = effective_transfer_matrix(u, losses, n_looped=1)
    t_in = np.diag([0.5, 0.9 * 0.5])  # loop column carries sqrt(0.25)
    t_out = np.diag([0.8, 1.0])
    np.testing.assert_allclose(m_eff, t_out @ u @ t_in, atol=1e-14)
    np.testing.assert_allclose(effective_transfer_matrix(u, LossSpec(), 1), u,
                               atol=0)


def test_stationary_lossy_agreement_between_routes():
    losses = LossSpec(t_in=np.array([0.9, 0.7]), loop_transmission=0.8)
    cfg = haar_config(2, 1, 1, 20, losses=losses, n_max=10)
    result = stationary_loop_state(cfg)
    iterated = stationary_loop_iterate(cfg)
    assert trace_distance(result.rho, iterated) < 1e-7
