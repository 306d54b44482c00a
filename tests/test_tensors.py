import tracemalloc
from math import factorial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bosonloop import tensors
from bosonloop.errors import DENSE_DIM_CAP, SizeCapError, SpectralRadiusError
from bosonloop.evolve import (ExperimentConfig, LossSpec,
                              effective_transfer_matrix, stabilization_time,
                              stationary_loop_iterate, stationary_loop_state)
from bosonloop.fock import FockBasis
from bosonloop.lift import lift
from bosonloop.matrixkit import haar_random_unitary
from bosonloop.qstate import (DensityMatrix, fock_state_dm,
                              random_density_matrix, trace_distance)
from bosonloop.tensors import (ASSEMBLY_SIZE_CAP, CorrelationTensor,
                               TensorSet, _input_tensor, _MomentCache,
                               estimate_n_max, expectations_from_dm,
                               recursive_stationary, stationary_order,
                               stationary_output_tensor, tensor_set_from_dm,
                               transform)
from oracles import (coherent_dm, input_tensor_loop, moment_tensor_loop,
                     recursive_stationary_per_order, same_bits)


def test_vacuum_moments_vanish():
    basis = FockBasis(2, 2)
    vac = fock_state_dm(basis, (0, 0))
    for k, l in [(1, 0), (0, 1), (1, 1), (2, 1), (2, 2)]:
        assert np.abs(expectations_from_dm(vac, k, l).values).max() < 1e-14


def test_single_photon_moments():
    basis = FockBasis(1, 2)
    one = fock_state_dm(basis, (1,))
    assert expectations_from_dm(one, 1, 1).values[0, 0] == pytest.approx(1.0)
    assert expectations_from_dm(one, 0, 1).values[0] == pytest.approx(0.0)
    assert expectations_from_dm(one, 2, 2).values[0, 0, 0, 0] == pytest.approx(0.0)


def test_diagonal_state_factorial_moments():
    # <a^dag^n a^n> = sum_m rho_mm m!/(m-n)! for diagonal states
    basis = FockBasis(1, 4)
    p = np.array([0.4, 0.3, 0.15, 0.1, 0.05])
    rho = DensityMatrix(basis, np.diag(p))
    for n in range(1, 4):
        expected = sum(
            p[m] * factorial(m) / factorial(m - n) for m in range(n, 5)
        )
        got = expectations_from_dm(rho, n, n).values[(0,) * (2 * n)]
        assert got == pytest.approx(expected, rel=1e-12)


def test_group_permutation_symmetry():
    basis = FockBasis(2, 3)
    rho = random_density_matrix(basis, 5)
    t = expectations_from_dm(rho, 2, 1)
    np.testing.assert_allclose(t.values, np.swapaxes(t.values, 0, 1), atol=1e-12)
    u = haar_random_unitary(2, 6)
    t2 = transform(t, u)
    np.testing.assert_allclose(t2.values, np.swapaxes(t2.values, 0, 1), atol=1e-12)


def test_conjugate_symmetry_accessor():
    basis = FockBasis(2, 2)
    rho = random_density_matrix(basis, 7)
    ts = TensorSet(2)
    ts.put(expectations_from_dm(rho, 2, 1))
    got = ts.get(1, 2).values
    want = expectations_from_dm(rho, 1, 2).values
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_transform_identity_and_rank11():
    basis = FockBasis(2, 2)
    rho = random_density_matrix(basis, 9)
    c11 = expectations_from_dm(rho, 1, 1)
    np.testing.assert_allclose(transform(c11, np.eye(2)).values, c11.values,
                               atol=1e-14)
    u = haar_random_unitary(2, 10)
    v = u.conj()
    np.testing.assert_allclose(transform(c11, u).values,
                               v @ c11.values @ v.conj().T, atol=1e-12)


def test_transform_matches_density_matrix_evolution():
    # moments of the evolved state == transformed moments of the input state
    basis = FockBasis(2, 3)
    rho = random_density_matrix(basis, 11)
    u = haar_random_unitary(2, 12)
    evolved = DensityMatrix(basis, lift(u, basis).conjugate(rho.mat), check=False)
    for k, l in [(1, 0), (1, 1), (2, 1), (2, 2)]:
        via_transform = transform(expectations_from_dm(rho, k, l), u)
        via_evolution = expectations_from_dm(evolved, k, l)
        np.testing.assert_allclose(via_transform.values, via_evolution.values,
                                   atol=1e-10)


def test_first_order_scalar_case():
    # stationary <a> of the loop: (I - U_LL)^-1 U_LE <a>_E
    u = haar_random_unitary(2, 13)
    ext = coherent_dm([0.3 + 0.1j], 6)
    c_ext = expectations_from_dm(ext, 0, 1).values
    got = recursive_stationary(u, ext, rank_cap=1).get(0, 1).values
    want = u[1, 0] * c_ext[0] / (1 - u[1, 1])
    assert got[0] == pytest.approx(want, abs=1e-12)


def test_first_order_matches_power_iteration():
    u = haar_random_unitary(3, 39)  # two looped modes, well-contracting loop block
    ext = coherent_dm([0.2 - 0.4j], 6)
    c_ext = expectations_from_dm(ext, 0, 1).values
    got = recursive_stationary(u, ext, rank_cap=1).get(0, 1).values
    c = np.zeros(2, dtype=complex)
    for _ in range(2000):
        c = u[1:, :1] @ c_ext + u[1:, 1:] @ c
    np.testing.assert_allclose(got, c, atol=1e-10)


def test_first_order_fock_input_vanishes():
    u = haar_random_unitary(2, 15)
    ext = fock_state_dm(FockBasis(1, 1), (1,))
    got = recursive_stationary(u, ext, rank_cap=1).get(0, 1).values
    assert np.abs(got).max() == 0.0


def test_stationary_rank11_matches_superoperator_photon_number():
    cfg = ExperimentConfig(modes=2, looped=1, iterations=1, haar_seed=20,
                           input_occupation=(1,), n_max=14)
    stat = stationary_loop_state(cfg)
    n_super = expectations_from_dm(stat.rho, 1, 1).values[0, 0].real
    ext = fock_state_dm(FockBasis(1, 1), (1,))
    c11 = stationary_order(1, 1, cfg.transfer_matrix(), ext, TensorSet(1))
    assert c11.values[0, 0].real == pytest.approx(n_super, abs=1e-8)
    # Hermitian by construction
    assert abs(c11.values[0, 0].imag) < 1e-10


def test_recursive_set_matches_superoperator_all_orders():
    cfg = ExperimentConfig(modes=2, looped=1, iterations=1, haar_seed=23,
                           input_occupation=(1,), n_max=16)
    stat = stationary_loop_state(cfg)
    ext = fock_state_dm(FockBasis(1, 1), (1,))
    ts = recursive_stationary(cfg.transfer_matrix(), ext, rank_cap=4)
    for n in range(1, 5):
        for m in range(n + 1):
            ref = expectations_from_dm(stat.rho, n, m).values
            np.testing.assert_allclose(ts.get(n, m).values, ref, atol=1e-7)


def test_recursive_set_with_external_coherences():
    # random external state exercises the mixed-block factorization
    cfg_ext = random_density_matrix(FockBasis(1, 1), 18)
    u = haar_random_unitary(2, 19)
    cfg = ExperimentConfig(modes=2, looped=1, iterations=1, unitary=u,
                           input_state=cfg_ext, n_max=14)
    stat = stationary_loop_state(cfg)
    ts = recursive_stationary(u, cfg_ext, rank_cap=3)
    for n in range(1, 4):
        for m in range(n + 1):
            ref = expectations_from_dm(stat.rho, n, m).values
            np.testing.assert_allclose(ts.get(n, m).values, ref, atol=1e-7,
                                       err_msg=f"order ({n},{m})")


def test_two_looped_modes_match_superoperator():
    cfg = ExperimentConfig(modes=3, looped=2, iterations=1, haar_seed=39,
                           input_occupation=(1,), n_max=8)
    stat = stationary_loop_state(cfg)
    ext = fock_state_dm(FockBasis(1, 1), (1,))
    ts = recursive_stationary(cfg.transfer_matrix(), ext, rank_cap=2)
    for n in range(1, 3):
        for m in range(n + 1):
            ref = expectations_from_dm(stat.rho, n, m).values
            np.testing.assert_allclose(ts.get(n, m).values, ref, atol=1e-7)


def test_vacuum_input_all_stationary_tensors_vanish():
    u = haar_random_unitary(2, 21)
    ext = fock_state_dm(FockBasis(1, 1), (0,))
    ts = recursive_stationary(u, ext, rank_cap=3)
    for n, m in ts.keys():
        assert np.abs(ts.get(n, m).values).max() < 1e-12


def test_stationary_tensors_are_update_fixed_points():
    u = haar_random_unitary(2, 22)
    ext = fock_state_dm(FockBasis(1, 1), (1,))
    ts = recursive_stationary(u, ext, rank_cap=3)
    for n in range(1, 4):
        for m in range(n + 1):
            out = stationary_output_tensor(n, m, u, ext, ts, block="loop")
            np.testing.assert_allclose(out.values, ts.get(n, m).values,
                                       atol=1e-9)


def test_spectral_radius_refusal():
    # one check refuses the decoupled loop on both stationary routes
    u = np.diag([1.0, np.exp(0.5j)])
    ext = fock_state_dm(FockBasis(1, 1), (1,))
    with pytest.raises(SpectralRadiusError):
        recursive_stationary(u, ext, rank_cap=2)
    cfg = ExperimentConfig(modes=2, looped=1, iterations=1, unitary=u,
                           input_occupation=(1,), n_max=4)
    with pytest.raises(SpectralRadiusError, match="no unique stationary state"):
        stationary_loop_state(cfg)


@pytest.mark.parametrize("loop_block", [np.array([[np.exp(0.5j)]]),
                                        haar_random_unitary(2, 5)])
def test_lossy_decoupled_loop_settles_in_the_vacuum(loop_block):
    # no photon reaches the loop and the feedback line loses what it holds,
    # so rho(M_eff,LL) < 1: every route finds the vacuum, which the loop
    # starts in
    looped = loop_block.shape[0]
    u = np.eye(1 + looped, dtype=complex)
    u[1:, 1:] = loop_block
    losses = LossSpec(loop_transmission=0.8)
    cfg = ExperimentConfig(modes=1 + looped, looped=looped, iterations=1, unitary=u,
                           input_occupation=(1,), n_max=4, losses=losses)
    stat = stationary_loop_state(cfg)
    vacuum = fock_state_dm(stat.rho.basis, (0,) * looped)
    assert trace_distance(stat.rho, vacuum) < 1e-12
    assert trace_distance(stationary_loop_iterate(cfg), vacuum) < 1e-12
    ts = recursive_stationary(effective_transfer_matrix(u, losses, looped),
                              fock_state_dm(FockBasis(1, 1), (1,)), rank_cap=2)
    for k, l in ts.keys():
        assert np.abs(ts.get(k, l).values).max() < 1e-15
    assert stabilization_time(cfg) == 0


def test_loss_consistency_with_channel_route():
    losses = LossSpec(t_in=np.array([0.8, 0.9]), t_out=np.array([0.95, 0.85]),
                      loop_transmission=0.7)
    cfg = ExperimentConfig(modes=2, looped=1, iterations=1, haar_seed=23,
                           input_occupation=(1,), losses=losses, n_max=10)
    stat = stationary_loop_state(cfg)
    m_eff = effective_transfer_matrix(cfg.transfer_matrix(), losses, 1)
    ext = fock_state_dm(FockBasis(1, 1), (1,))
    ts = recursive_stationary(m_eff, ext, rank_cap=2)
    for n in range(1, 3):
        for m in range(n + 1):
            ref = expectations_from_dm(stat.rho, n, m).values
            np.testing.assert_allclose(ts.get(n, m).values, ref, atol=1e-8,
                                       err_msg=f"order ({n},{m})")


def test_detect_block_tensors_match_detection_state():
    from bosonloop.evolve import detection_pass
    cfg = ExperimentConfig(modes=2, looped=1, iterations=1, haar_seed=24,
                           input_occupation=(1,), n_max=14)
    stat = stationary_loop_state(cfg)
    rho_det, _ = detection_pass(cfg, stat.rho)
    ext = fock_state_dm(FockBasis(1, 1), (1,))
    ts = recursive_stationary(cfg.transfer_matrix(), ext, rank_cap=3)
    for s in range(1, 4):
        got = stationary_output_tensor(s, s, cfg.transfer_matrix(), ext, ts,
                                       block="detect")
        ref = expectations_from_dm(rho_det, s, s).values
        np.testing.assert_allclose(got.values, ref, atol=1e-7)


def test_estimate_n_max_trivial_cases():
    basis = FockBasis(1, 3)
    vac = tensor_set_from_dm(fock_state_dm(basis, (0,)), 2)
    assert estimate_n_max(vac.get(1, 1), vac.get(2, 2)) == 0
    one = tensor_set_from_dm(fock_state_dm(basis, (1,)), 2)
    assert estimate_n_max(one.get(1, 1), one.get(2, 2)) == 1


def test_estimate_n_max_bounds_stationary_tail():
    cfg = ExperimentConfig(modes=2, looped=1, iterations=1, haar_seed=25,
                           input_occupation=(1,), n_max=16)
    stat = stationary_loop_state(cfg)
    ts = tensor_set_from_dm(stat.rho, 2)
    n_est = estimate_n_max(ts.get(1, 1), ts.get(2, 2))
    weights = stat.rho.sector_weights()
    assert weights[n_est + 1:].sum() < 0.01  # three-sigma style bound
    assert 1 <= n_est <= 16


def test_estimate_n_max_rejects_inconsistent_variance():
    c11 = CorrelationTensor(1, 1, 1, np.array([[2.0]]))
    c22 = CorrelationTensor(2, 2, 1, np.zeros((1, 1, 1, 1)))
    with pytest.raises(ValueError):
        estimate_n_max(c11, c22)  # variance = 0 + 2 - 4 < 0


def test_output_tensor_rejects_unknown_block_before_assembly():
    # the empty tensor set would fail the assembly with a KeyError
    u = haar_random_unitary(2, 22)
    ext = fock_state_dm(FockBasis(1, 1), (1,))
    with pytest.raises(ValueError, match="unknown block"):
        stationary_output_tensor(1, 1, u, ext, TensorSet(1), block="external")


def _random_loop_set(n_looped, top, rng):
    """Tensors (a, b), b <= a <= top, whose entries include zeros, signed
    zeros and negative numbers; (b, a) comes by conjugate symmetry."""
    out = TensorSet(n_looped)
    for a in range(1, top + 1):
        for b in range(a + 1):
            shape = (n_looped,) * (a + b)
            re = rng.standard_normal(shape) * rng.integers(0, 2, shape)
            im = rng.standard_normal(shape) * rng.integers(0, 2, shape)
            out.put(CorrelationTensor(a, b, n_looped, re + 1j * im))
    return out


@st.composite
def _external_states(draw, m_ext):
    kind = draw(st.sampled_from(["fock", "mixed", "coherent"]))
    n_max = draw(st.integers(1, 3))
    basis = FockBasis(m_ext, n_max)
    if kind == "fock":
        return fock_state_dm(basis, draw(st.sampled_from(basis.states)))
    if kind == "mixed":
        return random_density_matrix(basis, draw(st.integers(0, 2 ** 31)))
    # sparse coherent: some modes in vacuum, the others at complex amplitudes
    amp = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
    return coherent_dm(draw(st.lists(st.just(0j) | amp, min_size=m_ext, max_size=m_ext)),
                       n_max)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=st.data(), m_ext=st.integers(1, 3), looped=st.integers(1, 2),
       k=st.integers(0, 3), l=st.integers(0, 3), include_loop=st.booleans(),
       seed=st.integers(0, 2 ** 31))
def test_input_tensor_matches_loop_oracle(data, m_ext, looped, k, l, include_loop, seed):
    rho = data.draw(_external_states(m_ext))
    loop_set = _random_loop_set(looped, 3, np.random.default_rng(seed))
    args = (k, l, m_ext + looped, m_ext)
    got = _input_tensor(*args, _MomentCache(rho), loop_set, include_loop)
    want = input_tensor_loop(*args, _MomentCache(rho), loop_set, include_loop)
    assert same_bits(got, want)


@pytest.mark.parametrize("modes", [1, 2, 3])
def test_moment_tensor_matches_loop_oracle(modes):
    states = [random_density_matrix(FockBasis(modes, 3), 40 + modes),
              coherent_dm([0.6 + 0.4j, -0.3 + 0.5j, 0.2j][:modes], 3)]
    for rho in states:
        for k in range(4):
            for l in range(4):
                got = _MomentCache(rho).tensor(k, l)
                assert same_bits(got, moment_tensor_loop(_MomentCache(rho), k, l))


def test_input_tensor_memory_at_the_assembly_cap():
    # M=4 with three external modes at order (5, 5): 4^10 = 2^20 entries,
    # a 16 MB output; a (k + l) x N index matrix alone would take 80 MB
    rho = random_density_matrix(FockBasis(3, 2), 51)
    loop_set = _random_loop_set(1, 5, np.random.default_rng(52))
    tracemalloc.start()
    try:
        out = _input_tensor(5, 5, 4, 3, _MomentCache(rho), loop_set, include_loop=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.size == ASSEMBLY_SIZE_CAP
    assert peak < 100 * 2 ** 20


@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data(), m_ext=st.integers(1, 3), looped=st.integers(1, 2),
       rank=st.integers(1, 3), haar_seed=st.integers(0, 2 ** 31), lossy=st.booleans())
def test_recursive_stationary_matches_the_per_order_oracle(data, m_ext, looped, rank,
                                                           haar_seed, lossy):
    # one context per solve: the Kronecker powers built once, the system
    # assembled in place, the radius checked once; every bit as before
    modes = m_ext + looped
    assume(modes <= 4)
    matrix = haar_random_unitary(modes, haar_seed)
    if lossy:
        amp = st.floats(0.3, 1.0)
        losses = LossSpec(
            t_in=np.array(data.draw(st.lists(amp, min_size=modes, max_size=modes))),
            t_out=np.array(data.draw(st.lists(amp, min_size=modes, max_size=modes))),
            loop_transmission=data.draw(amp))
        matrix = effective_transfer_matrix(matrix, losses, looped)
    rho = data.draw(_external_states(m_ext))
    want = recursive_stationary_per_order(matrix, rho, rank)
    got = recursive_stationary(matrix, rho, rank)
    assert got.keys() == want.keys()
    for key in want.keys():
        assert same_bits(got.get(*key).values, want.get(*key).values), key


def test_order_5_5_system_is_assembled_in_place():
    # L = 2 at order (5, 5): the system is 1024 x 1024, 16 MB.  Forming it
    # as eye - kron held the identity and the Kronecker product at once
    # (34 MB traced); in place it is the one product
    loop_set = _random_loop_set(2, 5, np.random.default_rng(3))
    ext = fock_state_dm(FockBasis(1, 1), (1,))
    tracemalloc.start()
    try:
        stationary_order(5, 5, haar_random_unitary(3, 39), ext, loop_set)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 1024 ** 2 * 16


def test_an_order_over_the_assembly_cap_raises_before_its_powers_are_built(monkeypatch):
    # every order's caps are checked before the solve builds anything: with
    # the cap lowered to 3^4, order (3, 2) of an M=3 solve is the first over
    # it, and it raises before any Kronecker power exists (V^(x 7) is 76 MB)
    monkeypatch.setattr(tensors, "ASSEMBLY_SIZE_CAP", 3 ** 4)
    ext = fock_state_dm(FockBasis(1, 1), (1,))
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapError, match=r"order \(3,2\)") as err:
            recursive_stationary(haar_random_unitary(3, 39), ext, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.required == 3 ** 5
    assert peak < 2 ** 20


def test_an_order_over_the_power_cap_raises_before_its_power_is_built():
    # at M=32, L=1, order (3, 0) passes the system cap (1) and the assembly
    # cap (32^3 entries), but V^(x 3) is a 32768-square array, 16 GiB
    u = haar_random_unitary(32, 5)
    ext = fock_state_dm(FockBasis(31, 1), (1,) + (0,) * 30)
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapError, match=r"order \(3,0\)") as err:
            stationary_order(3, 0, u, ext, TensorSet(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (err.value.cap, err.value.required) == (DENSE_DIM_CAP, 32 ** 3)
    assert peak < 2 ** 20
