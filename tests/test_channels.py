import json
from functools import cached_property
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bosonloop.channels
from bosonloop import evolve
from bosonloop.channels import (QuantumChannel, compose, fixed_point, loop_channel,
                                loss_channel, stationary_state, to_superoperator)
from bosonloop.cli import main
from bosonloop.errors import (DENSE_DIM_CAP, DegenerateFixedPointError,
                              SizeCapError, SpectralRadiusError, TruncationError)
from bosonloop.evolve import (ExperimentConfig, LossSpec, _haar_samples,
                              _LoopSetup, effective_transfer_matrix, stabilization_samples,
                              stabilization_time, stationary_loop_state)
from bosonloop.fock import FockBasis, enumerate_sector, tensor_index_map
from bosonloop.lift import LiftedUnitary, lift
from bosonloop.matrixkit import haar_random_unitary, unvec, vec
from bosonloop.qstate import (LEAK_TOLERANCE, POPULATED_CUTOFF, DensityMatrix, block0_layout,
                              embed, fock_state_dm, partial_trace, random_density_matrix,
                              tensor_product, trace_distance, uhlmann_fidelity)
from bosonloop.tensors import _check_spectral_radius

from artifact_sweep import _fingerprint
from fileio import write_dm_json
from oracles import (apply_dense, apply_loss_direct, block_charges, channel_from_kraus,
                     charge_blocks_by_scans, coherent_dm, compose_dense, fidelity_svd,
                     fixed_point_dense, identity_channel, kraus_sum_stacked,
                     kraus_pure_fock, loop_channel_per_sector, loop_kraus_from_full,
                     loss_kraus_loop, same_bits, spectral_diagnostics_all_blocks,
                     stabilization_time_stepwise, stationary_dense, stationary_rho_by_unvec,
                     superop_block_dense, superoperator_kron, unique_by_q_nonnegative_blocks)

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def _loop_pieces(modes, looped, n_max, seed, occ):
    u = haar_random_unitary(modes, seed)
    joint = FockBasis(modes, n_max)
    ext = FockBasis(modes - looped, n_max)
    lifted = lift(u, joint)
    rho_ext = fock_state_dm(ext, occ)
    return u, joint, ext, lifted, rho_ext


def test_loop_channel_swap_injects_photon():
    _, joint, ext, lifted, rho_ext = _loop_pieces(2, 1, 3, 0, (1,))
    lifted = lift(SWAP, joint)
    chan = loop_channel(lifted, rho_ext)
    for seed in range(3):
        rho = random_density_matrix(FockBasis(1, 2), seed)
        rho = DensityMatrix(chan.basis, _embed(rho.mat, FockBasis(1, 2), chan.basis))
        out = chan.apply(rho)
        expected = fock_state_dm(chan.basis, (1,))
        assert trace_distance(out, expected) < 1e-12


def _embed(mat, small, big):
    out = np.zeros((big.size, big.size), dtype=complex)
    idx = [big.index_of(occ) for occ in small.states]
    out[np.ix_(idx, idx)] = mat
    return out


def test_loop_channel_decoupled_acts_as_loop_unitary(monkeypatch):
    # block-diagonal U: the loop evolves unitarily by the LL phase
    u = np.diag([1.0, np.exp(0.7j)])
    joint = FockBasis(2, 3)
    lifted = lift(u, joint)
    rho_ext = fock_state_dm(FockBasis(1, 3), (1,))
    chan = loop_channel(lifted, rho_ext)
    rho = random_density_matrix(FockBasis(1, 2), 4)
    rho_big = DensityMatrix(chan.basis, _embed(rho.mat, rho.basis, chan.basis))
    monkeypatch.setattr(bosonloop.channels, "LEAK_TOLERANCE", 1.0)
    out = chan.apply(rho_big)
    ull_lift = lift(np.array([[np.exp(0.7j)]]), chan.basis)
    expected = ull_lift.conjugate(rho_big.mat)
    np.testing.assert_allclose(out.mat, expected, atol=1e-12)


def test_loop_channel_matches_joint_evolution_oracle():
    modes, looped, n_max = 2, 1, 5
    u, joint, ext, lifted, rho_ext = _loop_pieces(modes, looped, n_max, 42, (1,))
    chan = loop_channel(lifted, rho_ext)
    loop_basis = chan.basis
    for seed in range(20):
        small = random_density_matrix(FockBasis(looped, n_max - 2), seed)
        rho_loop = DensityMatrix(loop_basis, _embed(small.mat, small.basis, loop_basis))
        via_channel = chan.apply(rho_loop)
        joint_in = tensor_product(rho_ext, rho_loop, joint)
        joint_out = DensityMatrix(joint, lifted.conjugate(joint_in.mat), check=False)
        via_trace = partial_trace(joint_out, (modes - looped, modes))
        assert trace_distance(via_channel, via_trace) < 1e-10


def test_loop_channel_spectral_path_matches_pure_formula():
    modes, looped, n_max = 2, 1, 4
    u, joint, ext, lifted, rho_ext = _loop_pieces(modes, looped, n_max, 7, (1,))
    chan = loop_channel(lifted, rho_ext)
    jmap = tensor_index_map(ext, chan.basis, joint)
    direct = kraus_pure_fock(lifted.full(), jmap, ext.index_of((1,)))
    got = sorted(chan.kraus, key=lambda k: np.abs(k).max())
    want = sorted(direct, key=lambda k: np.abs(k).max())
    assert len(got) == len(want)
    for a, b in zip(got, want):
        np.testing.assert_allclose(a, b, atol=1e-12)


def test_loop_channel_mixed_external_state():
    # spectral decomposition path with a rank-2 injected state
    modes, looped, n_max = 2, 1, 4
    u = haar_random_unitary(modes, 9)
    joint = FockBasis(modes, n_max)
    ext = FockBasis(1, 1)
    mixed = DensityMatrix(ext, np.diag([0.3, 0.7]))
    lifted = lift(u, joint)
    chan = loop_channel(lifted, mixed)
    rho_loop = random_density_matrix(FockBasis(1, n_max - 1), 3)
    rho_loop = DensityMatrix(chan.basis, _embed(rho_loop.mat, rho_loop.basis, chan.basis))
    joint_in = tensor_product(_embed_dm(mixed, FockBasis(1, n_max)), rho_loop, joint)
    joint_out = DensityMatrix(joint, lifted.conjugate(joint_in.mat), check=False)
    expected = partial_trace(joint_out, (1, 2))
    got = chan.apply(rho_loop)
    assert trace_distance(got, expected) < 1e-10


def _embed_dm(rho, big):
    return DensityMatrix(big, _embed(rho.mat, rho.basis, big), check=False)


def test_loop_channel_completeness_on_valid_subspace():
    modes, looped, n_max = 2, 1, 4
    _, joint, ext, lifted, rho_ext = _loop_pieces(modes, looped, n_max, 11, (1,))
    chan = loop_channel(lifted, rho_ext)
    assert chan.valid_max_photons == n_max - 1
    comp = chan.completeness_operator()
    d_ok = sum(len(enumerate_sector(chan.basis.modes, n)) for n in range(n_max))
    np.testing.assert_allclose(comp[:d_ok, :d_ok], np.eye(d_ok), atol=1e-9)
    # the top sector is not covered: transitions out of it were truncated
    assert np.abs(np.diag(comp)[d_ok:] - 1.0).max() > 0.5


def test_apply_rejects_population_outside_validity():
    _, joint, ext, lifted, rho_ext = _loop_pieces(2, 1, 3, 13, (1,))
    chan = loop_channel(lifted, rho_ext)
    top = fock_state_dm(chan.basis, (3,))
    with pytest.raises(TruncationError):
        chan.apply(top)


def test_loss_channel_identity_and_vacuum_limits():
    basis = FockBasis(1, 3)
    ident = loss_channel(1.0, 1, 3)
    rho = random_density_matrix(basis, 1)
    np.testing.assert_allclose(ident.apply(rho).mat, rho.mat, atol=1e-14)
    dark = loss_channel(0.0, 1, 3)
    out = dark.apply(rho)
    expected = fock_state_dm(basis, (0,))
    assert trace_distance(out, expected) < 1e-12


def test_loss_channel_two_photon_binomial():
    basis = FockBasis(1, 2)
    chan = loss_channel(0.5, 1, 2)
    out = chan.apply(fock_state_dm(basis, (2,)))
    np.testing.assert_allclose(np.diag(out.mat).real, [0.25, 0.5, 0.25], atol=1e-12)


def test_loss_channel_completeness_exact():
    for modes, n_max, t in [(1, 4, 0.3), (2, 3, 0.6), (2, 2, (0.2, 0.9))]:
        chan = loss_channel(t, modes, n_max)
        comp = chan.completeness_operator()
        np.testing.assert_allclose(comp, np.eye(chan.basis.size), atol=1e-12)


def test_loss_channel_matches_beam_splitter_oracle():
    basis = FockBasis(1, 4)
    chan = loss_channel(0.37, 1, 4)
    for seed in range(5):
        rho = random_density_matrix(basis, seed)
        expected = apply_loss_direct(rho.mat, 0.37)
        np.testing.assert_allclose(chan.apply(rho).mat, expected, atol=1e-12)


@pytest.mark.parametrize("transmission, modes, n_max", [
    (0.37, 1, 14),
    ((0.9, 0.3), 2, 6),
    ((0.95, 0.5, 1.0), 3, 5),
    ((0.0, 1.0), 2, 4),
    (np.full(3, 0.9) ** 2, 3, 6),
    ((0.2, 0.4, 0.6, 0.8), 4, 4),
])
def test_loss_channel_equals_the_double_loop(transmission, modes, n_max):
    # the nonzeros are emitted directly, in the order of the per-operator
    # np.nonzero scan `channel_from_kraus` makes; a state stepped through
    # the charge-0 block never scatters them
    chan = loss_channel(transmission, modes, n_max)
    expected = loss_kraus_loop(transmission, modes, n_max)
    scanned = channel_from_kraus(chan.basis, expected, valid_max_photons=n_max)
    for got, ref in zip(chan.nonzeros, scanned.nonzeros):
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
    rho = fock_state_dm(chan.basis, (n_max,) + (0,) * (modes - 1))
    assert chan.apply(rho).block0 is not None
    assert "kraus" not in vars(chan)
    assert chan.superop_block(0).tobytes() == superop_block_dense(chan, 0).tobytes()
    assert [k.tobytes() for k in chan.kraus] == [k.tobytes() for k in expected]


@pytest.mark.parametrize("transmission", [-0.1, 1.5, np.nan])
def test_loss_channel_refuses_a_transmission_outside_the_unit_interval(transmission):
    with pytest.raises(ValueError, match="must lie in"):
        loss_channel((0.5, transmission), 2, 3)


def _signed_matrix(d, seed):
    """A complex d x d array whose parts include +0.0, -0.0 and negatives."""
    rng = np.random.default_rng(seed)
    parts = rng.standard_normal((2, d, d)) * rng.integers(0, 2, (2, d, d))
    parts[:, rng.random((d, d)) < 0.2] = -0.0
    return parts[0] + 1j * parts[1]


@pytest.mark.parametrize("transmission, modes, n_max", [
    (0.6, 1, 9), ((0.9, 0.7), 2, 6), ((0.8, 0.9, 0.5), 3, 4),
    # d = 330 with one lossy mode: eight operators
    ((1.0, 0.75, 1.0, 1.0), 4, 7),
])
def test_a_loss_channel_sums_by_gather_with_the_kraus_sum_bits(transmission, modes, n_max):
    chan = loss_channel(transmission, modes, n_max)
    channels = [chan]
    if chan.basis.size < 100:
        channels.append(compose(loss_channel(0.45, modes, n_max), chan))
    mat = _signed_matrix(chan.basis.size, modes)
    for c in channels:
        assert c._real_monomial
        assert same_bits(c.apply_matrix(mat), kraus_sum_stacked(c, mat))
    # the loop channel's operators are complex: it keeps the matrix products
    _, _, _, lifted, rho_ext = _loop_pieces(2, 1, 4, 17, (1,))
    assert not loop_channel(lifted, rho_ext)._real_monomial


def test_loss_composition_law():
    basis = FockBasis(1, 4)
    t1, t2 = 0.8, 0.55
    comp = compose(loss_channel(t1, 1, 4), loss_channel(t2, 1, 4))
    direct = loss_channel(t1 * t2, 1, 4)
    for seed in range(5):
        rho = random_density_matrix(basis, seed)
        assert trace_distance(comp.apply(rho), direct.apply(rho)) < 1e-10


def test_compose_identity_and_associativity_on_states():
    _, joint, ext, lifted, rho_ext = _loop_pieces(2, 1, 4, 17, (1,))
    chan = loop_channel(lifted, rho_ext)
    ident = identity_channel(chan.basis)
    rho = _embed_dm(random_density_matrix(FockBasis(1, 2), 5), chan.basis)
    np.testing.assert_allclose(compose(ident, chan).apply(rho).mat,
                               chan.apply(rho).mat, atol=1e-12)
    loss = loss_channel(0.7, 1, chan.basis.n_max)
    np.testing.assert_allclose(
        compose(loss, chan).apply(rho).mat,
        loss.apply(chan.apply(rho)).mat, atol=1e-12)


def test_superoperator_matches_kraus_application():
    _, joint, ext, lifted, rho_ext = _loop_pieces(2, 1, 4, 19, (1,))
    chan = loop_channel(lifted, rho_ext)
    superop = to_superoperator(chan)
    ident = identity_channel(chan.basis)
    np.testing.assert_allclose(to_superoperator(ident).matrix,
                               np.eye(chan.basis.size ** 2), atol=1e-14)
    for seed in range(20):
        rho = _embed_dm(random_density_matrix(FockBasis(1, 3), seed), chan.basis)
        via_kraus = chan.apply(rho).mat
        via_g = unvec(superop.matrix @ vec(rho.mat), chan.basis.size, chan.basis.size)
        np.testing.assert_allclose(via_g, via_kraus, atol=1e-10)


def test_trace_preservation_is_left_fixed_vector():
    chan = loss_channel(0.4, 1, 3)
    g = to_superoperator(chan).matrix
    tr_vec = vec(np.eye(chan.basis.size, dtype=complex))
    np.testing.assert_allclose(tr_vec.conj() @ g, tr_vec.conj(), atol=1e-12)


def test_positivity_preserved():
    _, joint, ext, lifted, rho_ext = _loop_pieces(2, 1, 4, 23, (1,))
    chan = loop_channel(lifted, rho_ext)
    for seed in range(5):
        rho = _embed_dm(random_density_matrix(FockBasis(1, 3), seed), chan.basis)
        out = chan.apply(rho)
        assert np.linalg.eigvalsh(out.mat)[0] > -1e-8


def test_stationary_state_is_fixed_point(monkeypatch):
    _, joint, ext, lifted, rho_ext = _loop_pieces(2, 1, 10, 29, (1,))
    chan = loop_channel(lifted, rho_ext)
    result = stationary_state(chan)
    monkeypatch.setattr(bosonloop.channels, "LEAK_TOLERANCE", 1.0)
    again = chan.apply(result.rho)
    assert trace_distance(again, result.rho) < 1e-9
    assert result.second_modulus < 1.0


def test_stationary_state_degenerate_for_decoupled_matrix():
    u = np.diag([1.0, np.exp(0.3j)])  # no E-L coupling
    joint = FockBasis(2, 4)
    lifted = lift(u, joint)
    rho_ext = fock_state_dm(FockBasis(1, 4), (1,))
    chan = loop_channel(lifted, rho_ext)
    with pytest.raises(DegenerateFixedPointError):
        stationary_state(chan)


def test_leaking_truncation_error_prints_a_plain_number():
    lifted = lift(haar_random_unitary(2, 9), FockBasis(2, 4))
    chan = loop_channel(lifted, fock_state_dm(FockBasis(1, 4), (1,)))
    with pytest.raises(TruncationError, match=r"closest 0\.98710215\d*[+-]") as info:
        stationary_state(chan)
    assert "np." not in str(info.value)


def test_swap_stationary_state_is_injected_photon():
    joint = FockBasis(2, 3)
    lifted = lift(SWAP, joint)
    rho_ext = fock_state_dm(FockBasis(1, 3), (1,))
    chan = loop_channel(lifted, rho_ext)
    result = stationary_state(chan)
    assert trace_distance(result.rho, fock_state_dm(chan.basis, (1,))) < 1e-10


@pytest.mark.parametrize("modes, looped, n_max, haar_seed, losses", [
    (2, 1, 14, 3, LossSpec()),
    (3, 2, 7, 39, LossSpec()),
    (2, 1, 10, 8, LossSpec(t_in=np.array([0.9, 0.8]), t_out=np.array([1.0, 0.7]),
                           loop_transmission=0.9)),
])
def test_charge_blocks_reproduce_the_whole_superoperator(monkeypatch, modes, looped,
                                                         n_max, haar_seed, losses):
    setup = _LoopSetup(ExperimentConfig(
        modes=modes, looped=looped, iterations=1, haar_seed=haar_seed,
        input_occupation=(1,) + (0,) * (modes - looped - 1), n_max=n_max,
        losses=losses))
    chan = setup.channel
    assert len(chan.charge_blocks) == 2 * n_max + 1
    g = superoperator_kron(chan.kraus)
    np.testing.assert_allclose(to_superoperator(chan).matrix, g, atol=1e-14)

    rho, lam, second, n_unit = stationary_dense(g)
    result = stationary_state(chan)
    np.testing.assert_allclose(result.rho.mat, rho, atol=1e-12)
    assert abs(result.eigenvalue - lam) < 1e-12
    assert abs(result.second_modulus - second) < 1e-12
    assert n_unit == 1
    # the bordered solve declines when the truncation leaks past its residual bound
    fast = fixed_point(chan)
    assert (fast is None) == (abs(lam - 1.0) > 1e-10)
    if fast is not None:
        np.testing.assert_allclose(fast.mat, rho, atol=1e-10)

    # iterates from the vacuum stay in the charge-0 block: block matvec = Kraus sum
    monkeypatch.setattr(bosonloop.channels, "LEAK_TOLERANCE", 1.0)
    state = setup.vacuum_line()
    for _ in range(5):
        nxt = chan.apply(state)
        np.testing.assert_allclose(nxt.mat, chan.apply_matrix(state.mat), atol=1e-12)
        state = nxt


def test_external_coherence_takes_the_one_block_route(monkeypatch):
    # injected (|0> + |1>)/sqrt(2): Kraus operators mix photon-number shifts;
    # at n_max 6 the truncation leaks past the bordered solve's bound, at 10
    # it does not
    ext = FockBasis(1, 1)
    rho_ext = DensityMatrix(ext, np.full((2, 2), 0.5))
    monkeypatch.setattr(bosonloop.channels, "_UNIT_TOL", 0.05)
    for n_max in (6, 10):
        lifted = lift(haar_random_unitary(2, 9), FockBasis(2, n_max))
        chan = loop_channel(lifted, rho_ext)
        assert len(chan.charge_blocks) == 1
        rho, lam, second, n_unit = stationary_dense(superoperator_kron(chan.kraus))
        result = stationary_state(chan)
        assert np.abs(result.rho.mat - np.diag(np.diag(result.rho.mat))).max() > 1e-3
        np.testing.assert_allclose(result.rho.mat, rho, atol=1e-12)
        assert abs(result.eigenvalue - lam) < 1e-12
        assert abs(result.second_modulus - second) < 1e-12
        assert n_unit == 1
        # both solves lay the one block out by column stacking, to the last bit
        assert result.rho.mat.tobytes() == stationary_rho_by_unvec(chan).tobytes()
        got, want = fixed_point(chan), fixed_point_dense(chan)
        assert (got is None) == (want is None) == (n_max == 6)
        if got is not None:
            assert got.block0 is None and got.mat.tobytes() == want.mat.tobytes()


def test_a_superoperator_block_cannot_be_edited_in_place():
    # G_0 is the array every step multiplies with, shared by every reader
    cfg = ExperimentConfig(modes=2, looped=1, iterations=1, haar_seed=20,
                           input_occupation=(1,), n_max=10)
    before = stationary_loop_state(cfg).rho.mat.tobytes()
    chan = cfg._loop_setup.channel
    g = chan.superop_block(0)
    assert g is chan._step_block
    with pytest.raises(ValueError, match="read-only"):
        g -= np.eye(len(g))
    assert stationary_loop_state(cfg).rho.mat.tobytes() == before


def _requested_blocks(monkeypatch) -> list:
    """Record every charge-block index `superop_block` is asked for."""
    requested, block = [], QuantumChannel.superop_block

    def recorded(self, b):
        requested.append(b)
        return block(self, b)

    monkeypatch.setattr(QuantumChannel, "superop_block", recorded)
    return requested


@pytest.mark.parametrize("modes, looped, n_max, haar_seed, losses", [
    (2, 1, 14, 3, LossSpec()),
    (3, 2, 7, 39, LossSpec()),
    (2, 1, 10, 8, LossSpec(t_in=np.array([0.9, 0.8]), t_out=np.array([1.0, 0.7]),
                           loop_transmission=0.9)),
])
def test_charge_blocks_off_zero_wait_for_the_second_modulus(monkeypatch, modes, looped,
                                                             n_max, haar_seed, losses):
    # uniqueness is read from M_eff,LL and the charge-0 block; every q != 0
    # block is built and diagonalized only to give second_modulus, which
    # keeps the bits of the maximum over the whole spectrum
    cfg = ExperimentConfig(
        modes=modes, looped=looped, iterations=1, haar_seed=haar_seed,
        input_occupation=(1,) + (0,) * (modes - looped - 1), n_max=n_max,
        losses=losses)
    requested = _requested_blocks(monkeypatch)
    result = stationary_loop_state(cfg)
    assert set(requested) == {0}
    second = result.second_modulus
    chan = _LoopSetup(cfg).channel
    assert set(requested) == set(range(len(chan.charge_blocks)))
    want_second, want_count = spectral_diagnostics_all_blocks(chan)
    assert second.hex() == want_second.hex()
    assert want_count == 1


@pytest.mark.parametrize("modes, n_max, haar_seed, losses", [
    (2, 14, 3, LossSpec()),
    (2, 10, 20, LossSpec()),
    (2, 12, 8, LossSpec(t_in=np.array([0.9, 0.8]), t_out=np.array([1.0, 0.7]),
                        loop_transmission=0.9)),
    (3, 12, 2, LossSpec()),
])
def test_one_loop_mode_charge_q_block_leads_with_a_to_the_q(modes, n_max, haar_seed, losses):
    # each eigenvalue of the charge-q block is a^k conj(a)^l with k - l = q,
    # a = M_eff,LL, so the block leads with a^q for q > 0 and conj(a)^|q|
    # for q < 0, up to the truncation's error
    setup = _LoopSetup(ExperimentConfig(
        modes=modes, looped=1, iterations=1, haar_seed=haar_seed,
        input_occupation=(1,) + (0,) * (modes - 2), n_max=n_max, losses=losses))
    chan = setup.channel
    a = effective_transfer_matrix(setup.u, losses, 1)[-1, -1]
    for b, q in enumerate(block_charges(chan.basis, chan.charge_blocks)):
        if 0 < abs(q) <= 3:
            evals = np.linalg.eigvals(chan.superop_block(b))
            lead = evals[np.argmax(np.abs(evals))]
            assert abs(lead - (a ** q if q > 0 else np.conj(a) ** -q)) < 1e-8, q


@pytest.mark.parametrize("n_max, losses", [
    (7, LossSpec()),
    (6, LossSpec(t_in=np.full(3, 0.95), t_out=np.full(3, 0.9), loop_transmission=0.8)),
])
def test_two_loop_modes_charge_one_blocks_lead_with_an_eigenvalue_of_m_eff(n_max, losses):
    # the q = +1 block holds the eigenvalues of M_eff,LL itself and q = -1
    # their conjugates, so the second modulus is rho(M_eff,LL)
    cfg = ExperimentConfig(modes=3, looped=2, iterations=1, haar_seed=39,
                           input_occupation=(1,), n_max=n_max, losses=losses)
    setup = _LoopSetup(cfg)
    chan = setup.channel
    a = np.linalg.eigvals(effective_transfer_matrix(setup.u, losses, 2)[1:, 1:])
    for b, q in enumerate(block_charges(chan.basis, chan.charge_blocks)):
        if abs(q) == 1:
            evals = np.linalg.eigvals(chan.superop_block(b))
            lead = evals[np.argmax(np.abs(evals))]
            assert np.abs(lead - (a if q > 0 else a.conj())).min() < 1e-5, q
    assert abs(stationary_state(chan).second_modulus - np.abs(a).max()) < 1e-5


def test_uniqueness_from_m_eff_agrees_with_the_q_nonnegative_scan():
    # the rule that scanned the q > 0 blocks refuses exactly the loop
    # channels that rho(M_eff,LL) >= 1 - SPECTRAL_RADIUS_MARGIN or a
    # degenerate charge-0 block refuses; one in five matrices is decoupled
    # (its loop keeps its photons unless it is lossy), one in two lossy
    rng = np.random.default_rng(16)
    refused = 0
    for trial in range(120):
        modes = int(rng.integers(2, 5))
        looped = int(rng.integers(1, min(2, modes - 1) + 1))
        m_ext = modes - looped
        if trial % 5 == 0:
            u = np.zeros((modes, modes), dtype=complex)
            u[:m_ext, :m_ext] = haar_random_unitary(m_ext, int(rng.integers(2 ** 31)))
            u[m_ext:, m_ext:] = haar_random_unitary(looped, int(rng.integers(2 ** 31)))
        else:
            u = haar_random_unitary(modes, int(rng.integers(2 ** 31)))
        losses = LossSpec()
        if trial % 2:
            losses = LossSpec(t_in=rng.uniform(0.8, 1.0, modes), t_out=rng.uniform(0.8, 1.0, modes),
                              loop_transmission=float(rng.uniform(0.7, 1.0)))
        cfg = ExperimentConfig(
            modes=modes, looped=looped, iterations=1, unitary=u,
            input_occupation=(1,) + (0,) * (m_ext - 1), n_max=6 if looped == 1 else 3,
            losses=losses)
        chan = _LoopSetup(cfg).channel
        try:
            _check_spectral_radius(cfg.m_eff, looped)
            radius_refuses = False
        except SpectralRadiusError:
            radius_refuses = True
        evals = np.linalg.eigvals(chan.superop_block(0))
        lam = evals[np.argmin(np.abs(evals - 1.0))]
        charge0_degenerate = np.count_nonzero(np.abs(evals - lam) < 1e-8) > 1
        assert (not unique_by_q_nonnegative_blocks(chan)) == (
            radius_refuses or charge0_degenerate), trial
        refused += radius_refuses
    # the lossless decoupled ones, and only those
    assert refused == 12


def _diagonal_channel(columns) -> QuantumChannel:
    """A channel on FockBasis(1, n) of diagonal Kraus operators, one per
    column of `columns` (row i: the amplitudes on |i>)."""
    columns = np.asarray(columns, dtype=complex)
    basis = FockBasis(1, columns.shape[0] - 1)
    return channel_from_kraus(basis, [np.diag(c) for c in columns.T],
                              valid_max_photons=basis.n_max)


@pytest.mark.parametrize("columns", [
    # charge 0 has eigenvalues 1 and 1.5; the |1><0| block holds
    # sum_j y_j conj(x_j) = 1
    [[0.5 ** 0.5, 0.5 ** 0.5], [0.5 ** 0.5 + 0.5, 0.5 ** 0.5 - 0.5]],
    # the same unit eigenvalue in the |2><0| block only
    [[0.5 ** 0.5, 0.5 ** 0.5], [0.3, 0.1j], [0.5 ** 0.5 + 0.5, 0.5 ** 0.5 - 0.5]],
])
def test_a_unit_eigenvalue_off_charge_zero_is_degenerate(columns):
    # the charge-0 block alone has a simple unit eigenvalue; its partner
    # sits in a q > 0 block and, conjugated, in the q < 0 block.  These are
    # not loop channels: in a loop channel a unit eigenvalue off charge 0
    # puts a second one in charge 0, which `stationary_state` reads
    chan = _diagonal_channel(columns)
    charge0 = np.linalg.eigvals(chan.superop_block(0))
    assert np.count_nonzero(np.abs(charge0 - 1.0) < 1e-8) == 1
    _, count = spectral_diagnostics_all_blocks(chan)
    assert count == 3
    assert not unique_by_q_nonnegative_blocks(chan)


def _pinched(rho):
    """rho with its coherences between photon-number sectors removed."""
    totals = rho.basis.totals()
    return DensityMatrix(rho.basis, np.where(totals[:, None] == totals[None, :], rho.mat, 0))


@pytest.mark.parametrize("basis", [FockBasis(1, 6), FockBasis(2, 5), FockBasis(3, 3)])
def test_blockwise_fidelity_matches_dense_uhlmann(basis):
    for seed in range(10):
        a = _pinched(random_density_matrix(basis, seed))
        b = _pinched(random_density_matrix(basis, 100 + seed))
        assert abs(uhlmann_fidelity(a, b) - fidelity_svd(a.mat, b.mat)) < 1e-12
    # one coherent state sends the pair down the dense route
    c = random_density_matrix(basis, 7)
    assert abs(uhlmann_fidelity(a, c) - fidelity_svd(a.mat, c.mat)) < 1e-12


def test_superoperator_block_over_the_cap_is_a_size_cap_error():
    basis = FockBasis(1, 64)
    mixing = np.full((basis.size, basis.size), 1.0 / basis.size)
    chan = channel_from_kraus(basis, [mixing], valid_max_photons=64)
    with pytest.raises(SizeCapError) as err:
        fixed_point(chan)
    assert (err.value.cap, err.value.required) == (DENSE_DIM_CAP, basis.size ** 2)


# stabilization times of 24 Haar samples, computed from the whole superoperator
# with the Kraus sum as the channel step and the dense Uhlmann fidelity
PINNED_TAUS = [31, 6, 3, 441, 15, 69, 27, 8, 11, 5, 10, 4, 4, 13, 3, 22, 18, 11,
               6, 10, 8, 48, 17, 8]


def test_stabilization_times_pinned():
    cfg = ExperimentConfig(modes=2, looped=1, iterations=1, haar_seed=0,
                           input_occupation=(1,), n_max=14)
    study = stabilization_samples(cfg, samples=24, seed=7)
    assert study.skipped == 0
    assert study.times == PINNED_TAUS


def test_samples_that_hit_the_iteration_cap_count_as_skipped(monkeypatch):
    # the pinned study capped at 5 iterations: the samples whose tau exceeds
    # the cap raise ConvergenceError and join `skipped`, which the CLI
    # writes as summary.json's `skipped_degenerate`
    cfg = ExperimentConfig(modes=2, looped=1, iterations=1, haar_seed=0,
                           input_occupation=(1,), n_max=14)
    monkeypatch.setattr(evolve, "STABILIZATION_CAP", 5)
    study = stabilization_samples(cfg, samples=24, seed=7)
    assert study.times == [tau for tau in PINNED_TAUS if tau <= 5]
    assert study.skipped == sum(tau > 5 for tau in PINNED_TAUS)


def test_stabilization_times_equal_the_stepwise_oracle():
    # 60 Haar samples, some of which climb the truncation ladder: every
    # attempt is solved by the step-by-step loop as well
    cfg = ExperimentConfig(modes=2, looped=1, iterations=1, haar_seed=0,
                           input_occupation=(1,), n_max=14)
    attempts = []

    def stepwise(sample):
        attempts.append(sample.n_max)
        return stabilization_time_stepwise(sample)

    expected = _haar_samples(cfg, 60, 11, stepwise)
    study = stabilization_samples(cfg, samples=60, seed=11)
    assert study.times == [t for t in expected if t is not None]
    assert study.skipped == expected.count(None)
    assert len(attempts) > 60 and max(attempts) > 14


def _assert_same_bits(a, b):
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a.real), np.signbit(b.real))
    assert np.array_equal(np.signbit(a.imag), np.signbit(b.imag))


_SPECIAL_PARTS = np.array([1.0, -1.0, 0.0, -0.0, 0.5, -2.0])


def _sparse_kraus(rng, basis, shift, density):
    """A Kraus operator with random entries on a random subset of the entries
    that move the photon number by `shift` (of every entry when None).  The
    real and imaginary parts are random or drawn from _SPECIAL_PARTS, so
    signed zeros and all-zero entries occur."""
    totals = basis.totals()
    allowed = np.ones((basis.size, basis.size), dtype=bool) if shift is None \
        else np.subtract.outer(totals, totals) == shift
    mask = allowed & (rng.random(allowed.shape) < density)
    parts = rng.standard_normal((2, int(mask.sum())))
    special = rng.random(parts.shape) < 0.4
    parts[special] = rng.choice(_SPECIAL_PARTS, int(special.sum()))
    entries = np.empty(parts.shape[1], dtype=complex)
    entries.real, entries.imag = parts
    k = np.zeros(allowed.shape, dtype=complex)
    k[mask] = entries
    return k


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(modes=st.integers(1, 2), n_max=st.integers(0, 4), n_ops=st.integers(1, 4),
       mixed=st.booleans(), other_first=st.booleans(),
       batch=st.sampled_from([1, 7, 1 << 16]), seed=st.integers(0, 2 ** 32 - 1))
def test_superop_blocks_equal_the_dense_gather(modes, n_max, n_ops, mixed, other_first,
                                               batch, seed):
    # single-shift operators give 2 n_max + 1 blocks; one operator with
    # nonzeros of several shifts sends the set down the one-block route
    basis = FockBasis(modes, n_max)
    rng = np.random.default_rng(seed)
    shifts = [None if mixed and i == 0 else rng.integers(-n_max, n_max + 1) for i in range(n_ops)]
    kraus = [_sparse_kraus(rng, basis, shift, rng.uniform(0.2, 1.0)) for shift in shifts]
    totals = basis.totals()
    mixes = any(len(set(totals[r] - totals[c])) > 1 for r, c in (np.nonzero(k) for k in kraus))
    chan = channel_from_kraus(basis, kraus, valid_max_photons=n_max)
    assert len(chan.charge_blocks) == (1 if mixes else 2 * n_max + 1)
    order = list(range(len(chan.charge_blocks)))
    with mock.patch.object(bosonloop.channels, "_PAIR_BATCH", batch):
        for b in order[::-1] if other_first else order:
            chan.superop_block(b)
    for b in order:
        _assert_same_bits(chan.superop_block(b), superop_block_dense(chan, b))


_SWEEP_LOSSES = LossSpec(t_in=np.array([0.9, 0.8]), t_out=np.array([0.95, 0.85]),
                        loop_transmission=0.7)


@pytest.mark.parametrize("modes, looped, n_max, haar_seed, occupation, losses", [
    (2, 1, 10, 8, (1,), LossSpec(t_in=np.array([0.9, 0.8]), t_out=np.array([1.0, 0.7]),
                                 loop_transmission=0.9)),
    (3, 2, 6, 39, (1,), LossSpec(t_in=np.full(3, 0.95), t_out=np.full(3, 0.9),
                                 loop_transmission=0.8)),
    (3, 1, 5, 12, (1, 1), LossSpec(t_in=np.full(3, 0.9), t_out=np.full(3, 0.9),
                                   loop_transmission=0.7)),
    # the artifact sweep's lossy, lossy_l2, m5_pure and lossy_dm configs; the
    # last injects a density matrix, and its core mixes photon-number shifts
    (2, 1, 10, 21, (1,), _SWEEP_LOSSES),
    (3, 2, 6, 3, (1,), LossSpec(t_in=np.full(3, 0.9), t_out=np.full(3, 0.9),
                                loop_transmission=0.7)),
    (5, 2, 6, 9, (1, 1, 0), LossSpec(loop_transmission=0.2)),
    (2, 1, 12, 20, random_density_matrix(FockBasis(1, 2), 4), _SWEEP_LOSSES),
])
def test_loop_loss_and_composed_blocks_equal_the_dense_gather(monkeypatch, modes, looped, n_max,
                                                              haar_seed, occupation, losses):
    injected = ({"input_state": occupation} if isinstance(occupation, DensityMatrix)
                else {"input_occupation": occupation})
    setup = _LoopSetup(ExperimentConfig(
        modes=modes, looped=looped, iterations=1, haar_seed=haar_seed, n_max=n_max,
        losses=losses, **injected))
    core = loop_channel(setup.lifted, setup.rho_ext_in)

    def no_kraus(self):
        raise AssertionError("compose read the dense Kraus list")

    # every composition `_LoopSetup.channel` makes, and loss after loss
    pairs = [(outer, inner) for outer, inner in [(core, setup.in_loop),
                                                 (setup.out_loop, setup.in_loop)]
             if outer and inner]
    with monkeypatch.context() as patch:
        patch.setattr(QuantumChannel, "kraus", property(no_kraus))
        composed = [compose(outer, inner) for outer, inner in pairs]
        update = setup.channel
    for (outer, inner), chan in zip(pairs, composed):
        for got, want in zip(chan.nonzeros, compose_dense(outer, inner).nonzeros):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    expected = core
    if setup.in_loop:
        expected = compose_dense(expected, setup.in_loop)
    if setup.out_loop:
        expected = compose_dense(setup.out_loop, expected)
    for got, want in zip(update.nonzeros, expected.nonzeros):
        assert got.tobytes() == want.tobytes()
    # with no side of one nonzero per row and column the sums of products
    # may round apart: the Kraus sum and the charge-0 step agree within 1e-12
    twice, twice_dense = compose(core, core), compose_dense(core, core)
    rho = embed(random_density_matrix(FockBasis(looped, min(twice.valid_max_photons, 2)), 3),
                core.basis)
    for state in (rho, setup.vacuum_line()):
        np.testing.assert_allclose(twice.apply(state).mat, twice_dense.apply(state).mat,
                                   rtol=0, atol=1e-12)
    channels = [core, setup.in_loop, setup.out_loop, setup.in_ext, *composed, update]
    for chan in filter(None, channels):
        for b in range(len(chan.charge_blocks)):
            _assert_same_bits(chan.superop_block(b), superop_block_dense(chan, b))


@pytest.mark.parametrize("modes, looped, n_max, ext_state", [
    (2, 1, 8, lambda ext: fock_state_dm(ext, (1,))),
    (3, 1, 5, lambda ext: random_density_matrix(ext, 4)),
    (3, 2, 5, lambda ext: coherent_dm([0.7 - 0.2j], ext.n_max)),
])
def test_loop_channel_reads_sector_blocks_not_the_full_matrix(monkeypatch, modes, looped,
                                                              n_max, ext_state):
    # a rank > 1 injected state makes w accumulate over several eigenvectors
    lifted = lift(haar_random_unitary(modes, 17), FockBasis(modes, n_max))
    rho_ext = ext_state(FockBasis(modes - looped, 2))
    expected = loop_kraus_from_full(lifted, rho_ext)

    def no_full(self):
        raise AssertionError("loop_channel built the dense lifted matrix")

    monkeypatch.setattr(LiftedUnitary, "full", no_full)
    chan = loop_channel(lifted, rho_ext)
    assert len(chan.kraus) == len(expected) > 1
    for k, k_ref in zip(chan.kraus, expected):
        _assert_same_bits(k, k_ref)


def test_loop_channel_prunes_like_the_per_output_loop():
    # mode 0 is decoupled and keeps its photon, so every output projection
    # with another count there is an all-zero operator and is pruned
    u = np.eye(3, dtype=complex)
    u[1:, 1:] = haar_random_unitary(2, 5)
    lifted = lift(u, FockBasis(3, 5))
    rho_ext = fock_state_dm(FockBasis(2, 2), (1, 0))
    expected = loop_kraus_from_full(lifted, rho_ext)
    chan = loop_channel(lifted, rho_ext)
    assert 1 < len(chan.kraus) == len(expected) < FockBasis(2, 5).size
    for k, k_ref in zip(chan.kraus, expected):
        _assert_same_bits(k, k_ref)


def _mixed_dm(ext: FockBasis) -> DensityMatrix:
    """A rank-3 state diagonal in the Fock basis, over three sectors."""
    mat = np.zeros((ext.size, ext.size), dtype=complex)
    mat[0, 0], mat[1, 1], mat[-1, -1] = 0.5, 0.3, 0.2
    return DensityMatrix(ext, mat)


_INPUTS = {
    "vacuum": lambda ext: fock_state_dm(ext, (0,) * ext.modes),
    "fock": lambda ext: fock_state_dm(ext, (1,) * min(ext.modes, 2)
                                      + (0,) * (ext.modes - min(ext.modes, 2))),
    "two_photons": lambda ext: fock_state_dm(ext, (0,) * (ext.modes - 1) + (2,)),
    "mixed": _mixed_dm,
    "random": lambda ext: random_density_matrix(ext, ext.modes),
    "coherent": lambda ext: coherent_dm([0.4 - 0.3j] + [0.2j] * (ext.modes - 1), ext.n_max),
}


def _interferometer(kind: str, modes: int) -> np.ndarray:
    u = np.eye(modes, dtype=complex)
    if kind == "permutation":
        return np.roll(u, 1, axis=0)
    if kind == "beam_splitter":  # 50:50 between the first and the last mode
        u[np.ix_([0, -1], [0, -1])] = np.array([[1, 1j], [1j, 1]]) / np.sqrt(2)
    return u


_SHAPES = [(2, 1, 9, "haar"), (3, 1, 5, "haar"), (3, 2, 5, "haar"), (4, 2, 4, "haar"),
           (5, 2, 3, "identity"), (5, 3, 3, "permutation"), (6, 2, 3, "beam_splitter"),
           (6, 2, 3, "haar")]


@pytest.mark.parametrize("modes, looped, n_max, matrix", _SHAPES,
                         ids=["-".join(map(str, s[:3] if s[3] == "haar" else s))
                              for s in _SHAPES])
@pytest.mark.parametrize("kind", sorted(_INPUTS))
@pytest.mark.parametrize("lossy", [False, True])
def test_loop_channel_nonzeros_equal_the_dense_stack_scan(monkeypatch, modes, looped, n_max,
                                                          matrix, kind, lossy):
    # the nonzeros loop_channel emits are those of the per-sector gather it
    # replaced, and the scattered operators of both are the dense operators
    # gathered from the full lifted matrix, byte for byte; the lossy inputs
    # reach the loop through the input loss channel.  A number state (the
    # vacuum stays one through loss) gives its eigenpair without eigh, every
    # other state calls eigh once, and both emit what the eigh-route
    # references emit.
    losses = LossSpec(t_in=np.full(modes, 0.9), t_out=np.full(modes, 0.95),
                      loop_transmission=0.8) if lossy else LossSpec()
    ext_in = _INPUTS[kind](FockBasis(modes - looped, 2))
    u = {"haar_seed": modes + 7} if matrix == "haar" else \
        {"unitary": _interferometer(matrix, modes)}
    setup = _LoopSetup(ExperimentConfig(modes=modes, looped=looped, iterations=1, **u,
                                        input_state=ext_in, n_max=n_max, losses=losses))
    dense = loop_kraus_from_full(setup.lifted, setup.rho_ext_in)
    eigh, eigh_calls = np.linalg.eigh, []

    def counted_eigh(a):
        eigh_calls.append(a.shape)
        return eigh(a)
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigh", counted_eigh)
        built = loop_channel(setup.lifted, setup.rho_ext_in)
    number_state = kind == "vacuum" or (kind in ("fock", "two_photons") and not lossy)
    assert eigh_calls == ([] if number_state else [setup.rho_ext_in.mat.shape])
    ref = loop_channel_per_sector(setup.lifted, setup.rho_ext_in)
    for got, want in zip(built.nonzeros, ref.nonzeros):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    for chan in (built, ref):
        assert len(chan.kraus) == len(dense) >= 1
        assert all(k.tobytes() == k_ref.tobytes() for k, k_ref in zip(chan.kraus, dense))


def test_loop_channel_drops_entries_that_underflow_like_the_dense_scan():
    # entries of 1e-320 in a lifted block stay nonzero times sqrt(1 - 1e-10)
    # and underflow to zero times sqrt(1e-10); the per-sector gather keeps
    # only the first, and so must the nonzeros
    lifted = lift(haar_random_unitary(2, 3), FockBasis(2, 4))
    for n in (2, 3):
        block = lifted.block(n).copy()
        block[0, :2] = [1e-320, 1e-320j]
        lifted._blocks[n] = block
    rho_ext = DensityMatrix(FockBasis(1, 1), np.diag([1 - 1e-10, 1e-10]))
    chan = loop_channel(lifted, rho_ext)
    dense = loop_kraus_from_full(lifted, rho_ext)
    assert np.count_nonzero(np.abs(np.concatenate(dense)) == 1e-320) > 0
    for got, ref in zip(chan.nonzeros, loop_channel_per_sector(lifted, rho_ext).nonzeros):
        assert got.tobytes() == ref.tobytes()


def _count_kraus_builds(monkeypatch) -> list:
    """Record every channel whose dense `kraus` list gets built from its
    nonzeros."""
    built = []
    scatter = QuantumChannel.kraus.func

    def counted(self):
        built.append(self)
        return scatter(self)

    patched = cached_property(counted)
    patched.__set_name__(QuantumChannel, "kraus")
    monkeypatch.setattr(QuantumChannel, "kraus", patched)
    return built


@pytest.mark.parametrize("modes, looped, haar_seed, n_max, occ", [
    (2, 1, 0, 14, (1,)),
    (2, 1, 22, 14, (1,)),     # the bordered solve gives up: stationary_state runs
    (3, 1, 4, 8, (1, 0)),
    (3, 2, 39, 7, (1,)),
])
def test_stabilization_never_builds_the_dense_kraus_list(monkeypatch, modes, looped,
                                                         haar_seed, n_max, occ):
    cfg = ExperimentConfig(modes=modes, looped=looped, iterations=1, haar_seed=haar_seed,
                           input_occupation=occ, n_max=n_max)
    built = _count_kraus_builds(monkeypatch)
    tau = stabilization_time(cfg)
    assert built == []
    assert tau == stabilization_time_stepwise(cfg)
    # the count sees a read
    chan = _LoopSetup(cfg).channel
    assert len(chan.kraus) > 1 and built == [chan]


_KRAUS_SUM_ROUTES = [["evolve", "--method", "pdm"], ["evolve", "--method", "kraus"],
                     ["stationary", "--method", "superop"],
                     ["stationary", "--method", "iterate"],
                     ["sample", "--target", "stationary", "--shots", "50"]]


@pytest.mark.parametrize("config, dense_cap", [
    # the artifact sweep's lossy_dm: the injected coherences keep the states
    # off the charge-0 block
    ({"n_max": 12, "iterations": 2, "input": {"type": "dm", "path": "rho.json"},
      "unitary": {"type": "haar", "seed": 20}}, DENSE_DIM_CAP),
    # a Fock input, whose states stay in the charge-0 block, with no G_0 under the cap
    ({"n_max": 6, "iterations": 3, "input": {"type": "fock", "occupation": [1]},
      "unitary": {"type": "haar", "seed": 21}}, 0),
], ids=["lossy_dm", "lossy_fock_no_dense_cap"])
@pytest.mark.parametrize("argv", _KRAUS_SUM_ROUTES, ids=lambda argv: "_".join(argv[:3]))
def test_the_kraus_sum_never_builds_the_dense_kraus_list(monkeypatch, tmp_path, config,
                                                         dense_cap, argv):
    # every route that takes the Kraus sum writes the bytes of the stacked sum
    write_dm_json(random_density_matrix(FockBasis(1, 2), 4), tmp_path / "rho.json")
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"schema": 1, "M": 2, "L": 1, "seed": 3, **config,
                                "losses": {"t_in": [0.9, 0.8], "t_out": [0.95, 0.85],
                                           "loop_T": 0.7}}))
    monkeypatch.setattr(bosonloop.channels, "DENSE_DIM_CAP", dense_cap)
    built = _count_kraus_builds(monkeypatch)
    sums, kraus_sum = [], QuantumChannel.apply_matrix

    def counted(self, mat):
        sums.append(self)
        return kraus_sum(self, mat)

    outputs = []
    for route in (counted, kraus_sum_stacked):
        monkeypatch.setattr(QuantumChannel, "apply_matrix", route)
        out = tmp_path / route.__name__
        assert main([argv[0], str(path), *argv[1:], "--out", str(out)]) == 0
        outputs.append(_fingerprint(out))
    assert sums and built == []
    assert outputs[0] == outputs[1] and outputs[0]


@pytest.mark.parametrize("modes, n_max", [(1, 0), (1, 14), (2, 7), (3, 4)])
def test_charge_blocks_equal_one_scan_per_charge(modes, n_max):
    basis = FockBasis(modes, n_max)
    chan = channel_from_kraus(basis, [np.eye(basis.size)], valid_max_photons=n_max)
    expected = charge_blocks_by_scans(basis)
    assert len(chan.charge_blocks) == len(expected) == 2 * n_max + 1
    for got, ref in zip(chan.charge_blocks, expected):
        assert got.dtype == ref.dtype
        assert np.array_equal(got, ref)
    # block 0 is the order the vector form of a state keeps its entries in
    rows, cols = block0_layout(basis)[:2]
    assert np.array_equal(chan.charge_blocks[0], rows + basis.size * cols)


def test_tensor_index_map_is_one_read_only_table():
    a, b, joint = FockBasis(1, 6), FockBasis(2, 6), FockBasis(3, 6)
    table = tensor_index_map(a, b, joint)
    assert tensor_index_map(FockBasis(1, 6), FockBasis(2, 6), FockBasis(3, 6)) is table
    with pytest.raises(ValueError):
        table[0, 0] = 5


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(modes=st.integers(1, 3), n_max=st.integers(0, 12), above=st.integers(-3, 14),
       seed=st.integers(0, 2 ** 32 - 1))
def test_leak_sums_equal_the_tail_of_all_sector_weights(modes, n_max, above, seed):
    # a diagonal over 15 decades, so that a change of summation order shows
    basis = FockBasis(modes, n_max)
    rng = np.random.default_rng(seed)
    diag = rng.random(basis.size) * 10.0 ** rng.integers(-15, 1, basis.size)
    rho = DensityMatrix(basis, np.diag(diag / diag.sum()), check=False)
    # every sector's weight, then the tail past `above`: the sum apply and embed made before
    diag = np.real(np.diag(rho.mat))
    tail = np.array([diag[basis.sector_slice(n)].sum() for n in range(n_max + 1)])[above + 1:]
    assert rho.sector_weights(above).tobytes() == tail.tobytes()
    expected = float(tail.sum())
    assert float(rho.sector_weights(above).sum()).hex() == expected.hex()

    chan = channel_from_kraus(basis, [np.eye(basis.size)], valid_max_photons=above)
    # the leak apply allows, and the stricter cutoff of a populated sector
    for allowed in (LEAK_TOLERANCE, POPULATED_CUTOFF):
        with mock.patch.object(bosonloop.channels, "LEAK_TOLERANCE", allowed):
            if expected > allowed:
                with pytest.raises(TruncationError) as err:
                    chan.apply(rho)
                assert str(err.value) == (
                    f"state populates sectors above the channel validity bound {above} "
                    f"with weight {expected:.3e}")
            else:
                assert chan.apply(rho).basis == basis
    if 0 <= above < n_max:
        cut = FockBasis(modes, above)
        if expected > POPULATED_CUTOFF:
            with pytest.raises(TruncationError) as err:
                embed(rho, cut)
            assert str(err.value) == f"cutting {basis!r} to {cut!r} drops weight {expected:.3e}"
        else:
            assert embed(rho, cut).basis == cut


def _test_channel(kind: str, seed: int, n_max: int) -> QuantumChannel:
    """A one-loop or two-loop loop channel, a lossy one-loop channel, a
    photon-loss channel, or a unitary channel that mixes photon numbers."""
    if kind in ("loss", "mixed"):
        basis = FockBasis(1, n_max)
        if kind == "loss":
            return loss_channel(0.7, 1, n_max)
        return channel_from_kraus(basis, [haar_random_unitary(basis.size, seed)],
                                  valid_max_photons=n_max)
    modes = 3 if kind == "two loops" else 2
    losses = (LossSpec(np.array([0.9, 0.8]), np.array([0.95, 0.85]), 0.7)
              if kind == "lossy" else LossSpec())
    cfg = ExperimentConfig(modes=modes, looped=modes - 1, iterations=1, haar_seed=seed,
                           input_occupation=(1,), losses=losses,
                           n_max=min(n_max, 4) if modes == 3 else n_max)
    return _LoopSetup(cfg).channel


def _outcome_bits(chan, rho):
    """The bits of the channel output, or the error it raises."""
    try:
        out = chan.apply(rho)
    except TruncationError as err:
        return str(err), None
    return out.mat.tobytes(), out


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["loop", "two loops", "lossy", "loss", "mixed"]),
       seed=st.integers(0, 2 ** 16), n_max=st.integers(1, 8),
       zero=st.sampled_from([0.0, -0.0]), leak=st.booleans())
def test_vector_apply_equals_the_dense_route_bit_for_bit(kind, seed, n_max, zero, leak):
    # charge-0 vectors with signed zeros, stepped three times, against the
    # dense gather-multiply-scatter; with `leak` the top sector holds about
    # 1e-10, past the loop channels' validity bound, so the output is
    # renormalized.  A dense input with signed zeros between sectors goes
    # the same way.
    chan = _test_channel(kind, seed, n_max)
    basis = chan.basis
    rows, cols = block0_layout(basis)[:2]
    rng = np.random.default_rng(seed)
    v = random_density_matrix(basis, seed).mat[rows, cols]
    v[rng.random(v.size) < 0.2] = complex(zero, zero)
    top = basis.totals()[rows] == basis.n_max
    v[top] = v[top] * 1e-10 if leak else complex(zero, zero)
    dense = np.full((basis.size, basis.size), complex(zero, zero))
    dense[rows, cols] = v
    routes = [DensityMatrix.from_block0(basis, v.copy()),
              DensityMatrix(basis, dense.copy(), check=False),
              DensityMatrix.from_block0(basis, v.copy())]
    want = DensityMatrix(basis, dense.copy(), check=False)
    for _ in range(3):
        # the third route steps a fresh copy of the channel each time, so
        # `apply` builds its step tables for it, while the first two reuse
        # the tables cached on `chan`
        fresh = QuantumChannel(basis, chan.nonzeros, chan.valid_max_photons,
                               chan.max_photon_gain)
        outcomes = [_outcome_bits(c, rho)
                    for c, rho in zip((chan, chan, fresh), routes)]
        try:
            want = apply_dense(chan, want)
        except TruncationError:
            assert all(out is None for _, out in outcomes)
            break
        for bits, out in outcomes:
            assert bits == want.mat.tobytes()
            assert (out.block0 is not None) == (len(chan.charge_blocks) > 1)
        routes = [out for _, out in outcomes]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["loop", "two loops", "lossy", "loss", "mixed"]),
       seed=st.integers(0, 2 ** 16), n_max=st.integers(1, 8))
def test_vector_fixed_point_equals_the_dense_one_bit_for_bit(kind, seed, n_max):
    # the fixed point Hermitized and normalized on its charge-0 vector is the
    # one scattered into a d x d matrix first, to the last bit, and gives up
    # on the same channels; a channel mixing photon numbers solves on every
    # entry and stays dense
    chan = _test_channel(kind, seed, n_max)
    got, want = fixed_point(chan), fixed_point_dense(chan)
    assert (got is None) == (want is None)
    if got is not None:
        assert (got.block0 is not None) == (len(chan.charge_blocks) > 1)
        assert got.mat.tobytes() == want.mat.tobytes()


def test_stabilization_rungs_build_the_oracles_channels_and_fixed_points():
    # every rung of 100 Haar samples of the stab_mc config, the truncation
    # ladder's included: the channel's nonzeros and the fixed point match the
    # per-sector gather and the dense fixed point bit for bit
    cfg = ExperimentConfig(modes=2, looped=1, iterations=1, haar_seed=0,
                           input_occupation=(1,), n_max=14)
    rungs = []

    def checked(sample):
        setup = sample._loop_setup
        chan = loop_channel(setup.lifted, setup.rho_ext_in)
        ref = loop_channel_per_sector(setup.lifted, setup.rho_ext_in)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(chan.nonzeros, ref.nonzeros))
        got, want = fixed_point(chan), fixed_point_dense(ref)
        assert (got is None) == (want is None)
        if got is not None:
            assert got.mat.tobytes() == want.mat.tobytes()
        rungs.append((sample.n_max, got is None))
        return stabilization_time(sample)

    _haar_samples(cfg, 100, 7, checked)
    assert len(rungs) >= 120
    assert {n for n, _ in rungs} >= {14, 21, 32} and any(failed for _, failed in rungs)

