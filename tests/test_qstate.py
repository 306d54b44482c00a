import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bosonloop.qstate
from bosonloop.channels import stationary_state
from bosonloop.cli import json_text
from bosonloop.errors import TruncationError
from bosonloop.evolve import ExperimentConfig, LossSpec, _LoopSetup
from bosonloop.fock import FockBasis
from bosonloop.lift import lift
from bosonloop.matrixkit import haar_random_unitary
from bosonloop.qstate import (POPULATED_CUTOFF, DensityMatrix,
                              ProbabilityDistribution, _sector_stack, block0_layout,
                              charge_split,
                              classical_fidelity,
                              diagonal_distribution, embed, fidelities,
                              fock_state_dm, overflow_weight, partial_trace,
                              partial_traces, random_density_matrix,
                              tensor_product, tensor_product_blocks,
                              trace_distance, uhlmann_fidelity)

from fileio import read_distribution_csv
from oracles import (apply_dense, block0_layout_before, charge0_by_take,
                     charge0_layout_by_nonzero, charge_blocks_by_scans, coherent_dm,
                     conjugate_dense, fidelities_gathered, fidelity_kernel_eigh, joint_pass_dense,
                     partial_trace_buckets, purity, sample_one_draw,
                     sector_weights_by_slices, tensor_product_kron)


def test_fock_state_dm():
    basis = FockBasis(2, 2)
    rho = fock_state_dm(basis, (1, 1))
    i = basis.index_of((1, 1))
    assert rho.mat[i, i] == 1.0
    assert np.trace(rho.mat) == pytest.approx(1.0)
    assert purity(rho) == pytest.approx(1.0)
    vac = fock_state_dm(basis, (0, 0))
    assert vac.mat[0, 0] == 1.0


def test_density_matrix_validation():
    basis = FockBasis(1, 1)
    with pytest.raises(ValueError):
        DensityMatrix(basis, np.array([[0.5, 0.5], [0.4, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(basis, np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix(basis, np.diag([1.5, -0.5]))  # not PSD


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_entries_are_refused(value):
    # every other check is a comparison, which a NaN fails silently
    basis = FockBasis(1, 1)
    with pytest.raises(ValueError, match="non-finite"):
        DensityMatrix(basis, np.array([[value, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="non-finite"):
        DensityMatrix(basis, np.array([[0.0, 1j * value], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="non-finite"):
        ProbabilityDistribution(basis, np.array([value, 1.0]))
    DensityMatrix(basis, np.array([[value, 0.0], [0.0, 1.0]]), check=False)


def test_sum_errors_print_plain_numbers():
    basis = FockBasis(1, 2)
    weights = np.array([0.5, 0.3, 0.1])
    for build, text in ((lambda: DensityMatrix(basis, np.diag(weights)), "trace is 0.9,"),
                        (lambda: ProbabilityDistribution(basis, weights), "sum to 0.9,"),
                        (lambda: diagonal_distribution(
                            DensityMatrix(basis, np.diag(weights), check=False)),
                         "sums to 0.9;")):
        with pytest.raises(ValueError, match=text) as info:
            build()
        assert "np." not in str(info.value)


def test_tensor_product_projector():
    a = FockBasis(1, 2)
    b = FockBasis(2, 2)
    joint = FockBasis(3, 2)
    rho = tensor_product(fock_state_dm(a, (1,)), fock_state_dm(b, (0, 1)), joint)
    expected = fock_state_dm(joint, (1, 0, 1))
    np.testing.assert_allclose(rho.mat, expected.mat, atol=1e-15)


def test_tensor_product_trace_and_random_states():
    rng_seeds = [(1, 2, 3), (2, 1, 4)]
    for ma, mb, seed in rng_seeds:
        a, b = FockBasis(ma, 1), FockBasis(mb, 1)
        joint = FockBasis(ma + mb, 2)
        ra = random_density_matrix(a, seed)
        rb = random_density_matrix(b, seed + 100)
        rho = tensor_product(ra, rb, joint)
        assert np.trace(rho.mat).real == pytest.approx(1.0, abs=1e-12)
        herm = np.abs(rho.mat - rho.mat.conj().T).max()
        assert herm < 1e-12


def test_tensor_product_truncation_overflow():
    a = FockBasis(1, 2)
    joint = FockBasis(2, 2)
    with pytest.raises(TruncationError):
        tensor_product(fock_state_dm(a, (2,)), fock_state_dm(a, (1,)), joint)


def _laid_out(mat: np.ndarray, layout: str) -> np.ndarray:
    """The same matrix in C order, F order, or as a strided view."""
    if layout == "F":
        return np.asfortranarray(mat)
    if layout == "strided":
        wide = np.zeros((2 * mat.shape[0], 2 * mat.shape[1]), dtype=complex)
        wide[::2, 1::2] = mat
        return wide[::2, 1::2]
    return mat


@settings(max_examples=300, derandomize=True, deadline=None)
@given(modes=st.tuples(st.integers(1, 3), st.integers(1, 3)),
       n_max=st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 6)),
       layouts=st.tuples(*[st.sampled_from(["C", "F", "strided"])] * 2),
       seed=st.integers(0, 2 ** 16), renormalize=st.booleans())
def test_tensor_product_matches_kron_oracle(modes, n_max, layouts, seed, renormalize):
    # factors on smaller, equal or larger truncations than the joint basis;
    # with `renormalize` the weight past the joint truncation is dropped
    basis_a, basis_b = FockBasis(modes[0], n_max[0]), FockBasis(modes[1], n_max[1])
    joint_n_max = n_max[2] if renormalize else max(n_max[2], n_max[0] + n_max[1])
    joint = FockBasis(sum(modes), joint_n_max)
    ra, rb = (DensityMatrix(basis, _laid_out(random_density_matrix(basis, s).mat, layout),
                            check=False)
              for basis, s, layout in zip((basis_a, basis_b), (seed, seed + 1), layouts))
    dropped = overflow_weight(ra, rb, joint.n_max)
    rho = tensor_product(ra, rb, joint, dropped=dropped if renormalize else None)
    assert rho.mat.flags.c_contiguous
    np.testing.assert_array_equal(
        rho.mat, tensor_product_kron(ra.mat, rb.mat, basis_a, basis_b, joint, dropped > 0.0))



def _factor(basis: FockBasis, kind: str, seed: int, zero: float) -> DensityMatrix:
    """A Fock state, a state block-diagonal in photon number, one with
    coherences between sectors, or one with a sector emptied; `zero` (+0 or
    -0) fills the entries the last two leave out."""
    rng = np.random.default_rng(seed)
    if kind == "fock":
        return fock_state_dm(basis, basis.state(int(rng.integers(basis.size))))
    mat = random_density_matrix(basis, seed).mat
    totals = basis.totals()
    if kind == "block":
        mat = np.where(totals[:, None] == totals[None, :], mat, zero)
    elif kind == "holed":
        empty = totals == rng.integers(basis.n_max + 1)
        mat = np.where(empty[:, None] | empty[None, :], zero, mat)
    return DensityMatrix(basis, mat, check=False)


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.float64)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(modes=st.tuples(st.integers(1, 3), st.integers(1, 2)),
       n_max=st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 5)),
       kinds=st.tuples(st.sampled_from(["fock", "block", "coherent", "holed"]),
                       st.sampled_from(["fock", "block", "coherent", "holed"])),
       seed=st.integers(0, 2 ** 16), drop=st.booleans(), zero=st.sampled_from([0.0, -0.0]),
       contraction=st.booleans())
def test_joint_pass_blocks_equal_the_dense_product_bit_for_bit(modes, n_max, kinds, seed,
                                                               drop, zero, contraction):
    # factors on smaller, equal or larger truncations than the joint basis;
    # with `drop` the joint truncation cuts weight off and the trace is renormalized
    basis_a, basis_b = FockBasis(modes[0], n_max[0]), FockBasis(modes[1], n_max[1])
    joint = FockBasis(sum(modes), n_max[2] if drop else max(n_max[2], n_max[0] + n_max[1]))
    ra, rb = (_factor(basis, kind, s, zero)
              for basis, kind, s in zip((basis_a, basis_b), kinds, (seed, seed + 1)))
    dropped = overflow_weight(ra, rb, joint.n_max)
    try:
        expected = tensor_product_kron(ra.mat, rb.mat, basis_a, basis_b, joint, dropped > 0.0)
    except TruncationError:
        with pytest.raises(TruncationError, match="lost all weight"):
            tensor_product_blocks(ra, rb, joint, dropped)
        return
    product = tensor_product(ra, rb, joint, dropped=dropped).mat
    assert (product == expected).all()
    nonzero = expected != 0
    np.testing.assert_array_equal(_bits(product[nonzero]), _bits(expected[nonzero]))

    u = haar_random_unitary(joint.modes, seed)
    lifted = lift(0.9 * u if contraction else u, joint)
    rho_out = np.zeros_like(expected)
    for (n, m), block in lifted.conjugate_blocks(tensor_product_blocks(ra, rb, joint, dropped)):
        rho_out[joint.sector_slice(n), joint.sector_slice(m)] = block
    oracle = conjugate_dense(lifted, expected)
    assert np.array_equal(_bits(rho_out), _bits(oracle))
    assert np.array_equal(np.signbit(_bits(rho_out)), np.signbit(_bits(oracle)))

    # both reduced states straight from the conjugated blocks, against the
    # bucket traces of the dense joint matrix
    keeps = [(0, modes[0]), (modes[0], joint.modes)]
    reduced = partial_traces(
        joint, lifted.conjugate_blocks(tensor_product_blocks(ra, rb, joint, dropped)), keeps)
    for rho, keep in zip(reduced, keeps):
        _assert_same_bits(rho.mat, partial_trace_buckets(
            DensityMatrix(joint, oracle, check=False), keep).mat)


def _assert_same_bits(got: np.ndarray, expected: np.ndarray) -> None:
    assert got.shape == expected.shape
    assert np.array_equal(np.ascontiguousarray(got).view(np.uint64),
                          np.ascontiguousarray(expected).view(np.uint64))


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(modes=st.integers(1, 4), n_max=st.integers(0, 4),
       kind=st.sampled_from(["fock", "block", "coherent", "holed"]),
       layout=st.sampled_from(["C", "F", "strided"]), seed=st.integers(0, 2 ** 16),
       zero=st.sampled_from([0.0, -0.0]), split=st.integers(0, 4), leading=st.booleans())
def test_partial_trace_equals_the_bucket_oracle_bit_for_bit(modes, n_max, kind, layout,
                                                            seed, zero, split, leading):
    # every sector pair of a dense state, coherences between sectors and
    # signed zeros included, traced onto a leading or trailing mode block
    basis = FockBasis(modes, n_max)
    rho = _factor(basis, kind, seed, zero)
    rho = DensityMatrix(basis, _laid_out(rho.mat, layout), check=False)
    split = min(split, modes - 1)
    keep = (0, modes - split) if leading else (split, modes)
    _assert_same_bits(partial_trace(rho, keep).mat, partial_trace_buckets(rho, keep).mat)


_LOSSES = LossSpec(t_in=np.array([0.9, 0.8, 0.95, 0.85, 0.7]),
                   t_out=np.array([0.75, 1.0, 0.9, 0.8, 0.95]), loop_transmission=0.8)


@pytest.mark.parametrize("modes, looped, occupation, lossy", [
    (2, 1, (1,), False),
    (3, 1, (1, 1), True),
    (4, 2, (1, 1), False),
    (4, 2, (2, 0), True),
    (5, 2, (1, 0, 1), True),
])
@pytest.mark.parametrize("kind", ["fock", "block", "coherent", "holed"])
@pytest.mark.parametrize("zero", [0.0, -0.0])
@pytest.mark.parametrize("leak", [False, True])
def test_joint_pass_equals_the_dense_route_bit_for_bit(modes, looped, occupation, lossy,
                                                       kind, zero, leak):
    # `_LoopSetup.step` against the dense joint matrix traced twice, with
    # input, feedback-line and output losses; with `leak` the line state holds
    # 1e-12 in its top sector, so the pass drops weight and renormalizes
    losses = LossSpec(_LOSSES.t_in[:modes], _LOSSES.t_out[:modes],
                      _LOSSES.loop_transmission) if lossy else LossSpec()
    setup = _LoopSetup(ExperimentConfig(modes=modes, looped=looped, iterations=2,
                                        haar_seed=10 * modes + looped,
                                        input_occupation=occupation, losses=losses))
    if lossy:
        assert setup.in_loop and setup.out_ext and setup.out_loop
    small = FockBasis(looped, setup.n_max - setup.n_env)
    mat = np.full((setup.loop.size,) * 2, zero, dtype=complex)
    mat[:small.size, :small.size] = _factor(small, kind, modes + looped, zero).mat
    if leak:
        top = setup.loop.sector_slice(setup.n_max).start
        mat[top, top] = 1e-12
    line = DensityMatrix(setup.loop, mat, check=False)
    rho_det, rho_next, leaked = setup.step(line)
    assert (leaked > 0.0) == leak
    want_det, want_next = joint_pass_dense(setup, line)
    _assert_same_bits(rho_det.mat, want_det.mat)
    _assert_same_bits(rho_next.mat, want_next.mat)


def test_joint_pass_at_the_evolve_benchmark_shape_equals_the_dense_oracles():
    # M=6, L=2, input (1,1,1,0), both iterations: `_LoopSetup.step` against
    # the kron product, the dense conjugation and the bucket traces in turn,
    # and against `joint_pass_dense`
    setup = _LoopSetup(ExperimentConfig(modes=6, looped=2, iterations=2, haar_seed=2301,
                                        input_occupation=(1, 1, 1, 0)))
    line = setup.vacuum_line()
    for _ in range(setup.iterations):
        rho_det, rho_next, leaked = setup.step(line)
        product = tensor_product_kron(setup.rho_ext_in.mat, line.mat, setup.ext, setup.loop,
                                      setup.joint, leaked > 0.0)
        rho_out = DensityMatrix(setup.joint, conjugate_dense(setup.lifted, product),
                                check=False)
        _assert_same_bits(rho_det.mat, partial_trace_buckets(rho_out, (0, setup.n_ext)).mat)
        _assert_same_bits(rho_next.mat,
                          partial_trace_buckets(rho_out, (setup.n_ext, setup.modes)).mat)
        want_det, want_next = joint_pass_dense(setup, line)
        _assert_same_bits(rho_det.mat, want_det.mat)
        _assert_same_bits(rho_next.mat, want_next.mat)
        line = rho_next


def test_partial_trace_recovers_factor():
    a, b = FockBasis(1, 2), FockBasis(2, 2)
    joint = FockBasis(3, 4)
    ra = random_density_matrix(a, 5)
    rb = random_density_matrix(b, 6)
    rho = tensor_product(ra, rb, joint)
    back_a = partial_trace(rho, (0, 1))
    back_b = partial_trace(rho, (1, 3))
    np.testing.assert_allclose(back_a.mat[:a.size, :a.size], ra.mat, atol=1e-12)
    np.testing.assert_allclose(back_b.mat[:b.size, :b.size], rb.mat, atol=1e-12)


def test_partial_trace_entangled_pair():
    # (|0,1> + |1,0>)/sqrt(2): either mode reduces to diag(1/2, 1/2)
    basis = FockBasis(2, 1)
    psi = np.zeros(basis.size, dtype=complex)
    psi[basis.index_of((0, 1))] = 1 / np.sqrt(2)
    psi[basis.index_of((1, 0))] = 1 / np.sqrt(2)
    rho = DensityMatrix(basis, np.outer(psi, psi.conj()))
    red = partial_trace(rho, (0, 1))
    np.testing.assert_allclose(red.mat, np.diag([0.5, 0.5]), atol=1e-14)


def test_partial_trace_everything():
    rho = random_density_matrix(FockBasis(2, 2), 7)
    scalar = partial_trace(rho, (0, 0))
    assert scalar.basis.modes == 0
    np.testing.assert_allclose(scalar.mat, [[1.0]], atol=1e-12)


def test_partial_trace_requires_contiguous_edge_block():
    rho = random_density_matrix(FockBasis(3, 1), 8)
    with pytest.raises(ValueError):
        partial_trace(rho, (1, 2))


def test_partial_trace_preserves_trace_and_psd():
    for seed in range(5):
        rho = random_density_matrix(FockBasis(3, 3), seed)
        red = partial_trace(rho, (0, 2))
        assert np.trace(red.mat).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(red.mat)[0] > -1e-12


def test_metric_basics():
    basis = FockBasis(1, 1)
    rho = fock_state_dm(basis, (0,))
    sig = fock_state_dm(basis, (1,))
    assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-14)
    assert uhlmann_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)
    assert trace_distance(rho, sig) == pytest.approx(1.0, abs=1e-12)
    assert uhlmann_fidelity(rho, sig) == pytest.approx(0.0, abs=1e-12)


def test_metrics_against_two_level_formulas():
    # for commuting diagonal states both metrics have closed forms
    basis = FockBasis(1, 1)
    p, q = 0.7, 0.4
    rho = DensityMatrix(basis, np.diag([p, 1 - p]))
    sig = DensityMatrix(basis, np.diag([q, 1 - q]))
    assert trace_distance(rho, sig) == pytest.approx(abs(p - q), abs=1e-12)
    f = (np.sqrt(p * q) + np.sqrt((1 - p) * (1 - q))) ** 2
    assert uhlmann_fidelity(rho, sig) == pytest.approx(f, abs=1e-12)


def _trajectory(modes, looped, haar_seed, n_max, steps):
    """Loop states from the vacuum, up to `steps` channel steps or the first
    one that leaks past n_max, and the stationary state."""
    setup = _LoopSetup(ExperimentConfig(modes=modes, looped=looped, iterations=1,
                                        haar_seed=haar_seed, input_occupation=(1,),
                                        n_max=n_max))
    channel = setup.channel
    states = [setup.vacuum_line()]
    for _ in range(steps):
        try:
            states.append(channel.apply(states[-1]))
        except TruncationError:
            break
    return states, stationary_state(channel).rho


def _assert_same_floats(got, expected):
    got, expected = np.asarray(got, dtype=float), np.asarray(expected, dtype=float)
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("modes, looped, haar_seed, n_max, steps, length", [
    (2, 1, 0, 14, 80, 81),
    (2, 1, 22, 14, 80, 81),
    (3, 2, 39, 7, 80, 8),   # the eighth step leaks past n_max
])
def test_stacked_fidelities_equal_the_pairwise_oracle(modes, looped, haar_seed, n_max,
                                                      steps, length):
    states, stat = _trajectory(modes, looped, haar_seed, n_max, steps)
    assert len(states) == length
    got = fidelities(states, stat)
    _assert_same_floats(got, fidelities_gathered(states, stat))
    _assert_same_floats([uhlmann_fidelity(rho, stat) for rho in states], got)


def test_stacked_fidelities_with_coherences_between_sectors():
    # coherent states take the dense route one at a time, within a stack
    # whose other states take the sector blocks; a coherent sigma sends
    # every state down the dense route
    basis = FockBasis(1, 6)
    coherent = coherent_dm([0.6 + 0.3j], 6)
    diagonal = DensityMatrix(basis, np.diag(np.arange(1.0, 8.0)) / 28)
    states = [diagonal, coherent, random_density_matrix(basis, 3), diagonal, coherent]
    for sigma in (diagonal, coherent):
        _assert_same_floats(fidelities(states, sigma), fidelities_gathered(states, sigma))
        _assert_same_floats([uhlmann_fidelity(rho, sigma) for rho in states],
                            fidelities(states, sigma))


def test_sector_weights_equal_the_sums_of_the_copied_diagonal():
    # sectors of 1 to 56 states: the pairwise sum unrolls from 8 terms on
    for modes, n_max in [(1, 14), (3, 6), (4, 5)]:
        basis = FockBasis(modes, n_max)
        rho = random_density_matrix(basis, modes)
        diag = np.real(np.diag(rho.mat))
        _assert_same_floats(rho.sector_weights(),
                            [diag[basis.sector_slice(n)].sum() for n in range(n_max + 1)])


@pytest.mark.parametrize("modes, n_max", [(1, 0), (1, 9), (2, 4), (3, 3)])
def test_sector_weights_of_signed_zero_diagonals_equal_the_slice_sums(modes, n_max):
    # one-state sectors (every sector at one mode, sector 0 elsewhere) are
    # read without a sum per sector: a sum of one entry is 0.0 + entry,
    # which turns -0.0 into +0.0
    basis = FockBasis(modes, n_max)
    rng = np.random.default_rng(modes * 10 + n_max)
    rows, cols, _, diagonal = block0_layout(basis)
    for trial in range(20):
        v = random_density_matrix(basis, trial).mat[rows, cols]
        parts = rng.choice([0.0, -0.0, 1e-300, -2.5, 0.3], size=(diagonal.size, 2))
        v[diagonal] = parts[:, 0] + 1j * parts[:, 1]
        for above in range(-3, n_max + 2):
            for rho in (DensityMatrix.from_block0(basis, v.copy()),
                        DensityMatrix(basis, DensityMatrix.from_block0(basis, v).mat,
                                      check=False)):
                ref = DensityMatrix.from_block0(basis, v.copy())
                assert (rho.sector_weights(above).tobytes()
                        == sector_weights_by_slices(ref, above).tobytes())


def _width1_stacks(rng, count: int) -> tuple:
    """Random (K, n, 1, 1) stacks of 1 x 1 blocks and their (n, 1, 1) sigma,
    with tiny, negative, zero and complex diagonals among them."""
    k, n = int(rng.integers(1, 9)), int(rng.integers(1, 34))
    size = (count, k + 1, n)
    mag = 10.0 ** rng.uniform(-18, 0, size)
    real = rng.choice([1.0, 1.0, 1.0, -1.0, 0.0, -0.0], size) * mag
    imag = rng.choice([0.0, 0.0, -0.0, 1e-17, -3e-12, 0.2], size) * rng.random(size)
    blocks = (real + 1j * imag).reshape(count, k + 1, n, 1, 1)
    return [(b[:-1], b[-1]) for b in blocks]


def test_width1_fidelity_blocks_take_the_closed_form_of_the_eigh_route():
    # 2400 stacks of 1 x 1 blocks, the L = 1 sector layout: every fidelity
    # equals the eigh/eigvalsh route's to the last bit
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(40):
        for a, b in _width1_stacks(rng, 60):
            got = bosonloop.qstate._fidelity_kernel(a, b)
            assert [x.hex() for x in got] == [x.hex() for x in fidelity_kernel_eigh(a, b)]
            checked += 1
    assert checked == 2400


def _charge0_states(basis: FockBasis, seeds, zero: float) -> tuple:
    """Random states block-diagonal in photon number, a fifth of their
    charge-0 entries replaced by `zero` (+0 or -0), in the vector form and
    dense."""
    rows, cols = block0_layout(basis)[:2]
    vectors, dense = [], []
    for seed in seeds:
        v = random_density_matrix(basis, seed).mat[rows, cols]
        v[np.random.default_rng(seed).random(v.size) < 0.2] = complex(zero, zero)
        mat = np.zeros((basis.size, basis.size), dtype=complex)
        mat[rows, cols] = v
        vectors.append(DensityMatrix.from_block0(basis, v))
        dense.append(DensityMatrix(basis, mat, check=False))
    return vectors, dense


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(modes=st.integers(1, 3), n_max=st.integers(0, 6), seed=st.integers(0, 2 ** 16),
       zero=st.sampled_from([0.0, -0.0]),
       sigma_kind=st.sampled_from(["vector", "dense", "coherent"]))
def test_vector_form_reads_equal_the_dense_route_bit_for_bit(modes, n_max, seed, zero,
                                                             sigma_kind):
    # sector weights and stacked fidelities read from charge-0 vectors,
    # against the dense gather; a state with coherences between sectors
    # sits in the stack, and a coherent sigma sends every state down the
    # dense route
    basis = FockBasis(modes, n_max)
    vectors, dense = _charge0_states(basis, range(seed, seed + 5), zero)
    for above in range(-1, n_max + 1):
        for rho, ref in zip(vectors, dense):
            assert rho.sector_weights(above).tobytes() == ref.sector_weights(above).tobytes()
    coherent = random_density_matrix(basis, seed + 5)
    sigma_vec, sigma = _charge0_states(basis, [seed + 6], zero)
    sigma_vec, sigma = {"vector": (sigma_vec[0], sigma[0]), "dense": (sigma[0], sigma[0]),
                        "coherent": (coherent, coherent)}[sigma_kind]
    got = fidelities(vectors[:3] + [coherent] + vectors[3:], sigma_vec)
    if sigma_kind != "coherent":
        assert all(rho.block0 is not None for rho in vectors)
    _assert_same_floats(got, fidelities_gathered(dense[:3] + [coherent] + dense[3:], sigma))


def test_a_state_keeps_its_vector_after_a_dense_read_and_neither_form_is_writable():
    # reading .mat keeps the vector form, and every later read, through
    # either form, gives the bits of the dense state
    setup = _LoopSetup(ExperimentConfig(modes=2, looped=1, iterations=1, haar_seed=22,
                                        input_occupation=(1,), n_max=8))
    channel = setup.channel
    rho = channel.apply(channel.apply(setup.vacuum_line()))
    sigma = channel.apply(rho)
    vector = rho.block0
    mat = rho.mat
    assert rho.block0 is vector and rho.mat is mat and rho.charge0() is vector
    for table in (vector, mat):
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[1] += 0.25
    dense = DensityMatrix(rho.basis, mat, check=False)
    assert rho.sector_weights().tobytes() == dense.sector_weights().tobytes()
    assert channel.apply(rho).mat.tobytes() == apply_dense(channel, dense).mat.tobytes()
    _assert_same_floats(fidelities([rho], sigma), fidelities_gathered([dense], sigma))


def test_a_state_keeps_a_read_only_copy_of_its_matrix():
    m = np.zeros((3, 3), dtype=complex)
    m[1, 1] = 1.0
    rho = DensityMatrix(FockBasis(1, 2), m)
    m[1, 1], m[0, 0] = 0.0, 1.0
    assert rho.mat[1, 1] == 1.0 and rho.mat[0, 0] == 0.0
    assert rho.max_populated_sector() == 1
    assert not rho.mat.flags.writeable and m.flags.writeable


@pytest.mark.parametrize("modes, n_max", [(1, 0), (1, 14), (2, 7), (3, 4), (4, 3)])
def test_charge_split_and_layout_equal_the_scans(modes, n_max):
    # the one charge order, and the charge-0 layout read from its block 0,
    # against one scan per charge and the np.nonzero layout they replace
    basis = FockBasis(modes, n_max)
    split, expected = charge_split(basis), charge_blocks_by_scans(basis)
    assert len(split) == len(expected) == 2 * n_max + 1
    for got, ref in zip(split, expected):
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
    rows, cols, _, diagonal = block0_layout(basis)
    pos, shape = _sector_stack(basis)
    ref = charge0_layout_by_nonzero(basis)
    for got, want in zip((rows, cols, diagonal, pos), ref[:3] + ref[4:5]):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert shape == ref[5]
    # the stack positions put each sector block at the top left of its
    # zero-padded slot
    mat = random_density_matrix(basis, modes + n_max).mat
    stack = np.zeros(int(np.prod(shape)), dtype=complex)
    stack[pos] = mat[rows, cols]
    want = np.zeros(shape, dtype=complex)
    for n in range(n_max + 1):
        sl = basis.sector_slice(n)
        want[n, :sl.stop - sl.start, :sl.stop - sl.start] = mat[sl, sl]
    assert stack.reshape(shape).tobytes() == want.tobytes()
    # block 0 of either split, charge 0 or the one block of every index, and
    # its layout, against the tables the states and the channels each built
    assert len(charge_split(basis, True)) == 1
    for whole in (False, True):
        r, c, swap, diag = block0_layout(basis, whole)
        got = (charge_split(basis, whole)[0], r + basis.size * c, swap, diag)
        idx, *want = block0_layout_before(basis, whole)
        for a, b in zip(got, (idx, idx, *want)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("modes, n_max", [(1, 6), (2, 4), (3, 3)])
def test_charge0_equals_the_flat_gather(modes, n_max):
    # vector-form, dense block-diagonal (signed zeros among the entries),
    # coherent and vector-form-after-a-read states against the np.take
    # gather and its two nonzero counts
    basis = FockBasis(modes, n_max)
    vectors, dense = _charge0_states(basis, range(4), -0.0)
    read = DensityMatrix.from_block0(basis, vectors[0].block0.copy())
    vector = read.block0
    assert read.mat is not None and read.block0 is vector
    coherent = coherent_dm([0.6 + 0.4j, -0.3 + 0.5j, 0.2][:modes], n_max)
    for rho in vectors + dense + [read, coherent, random_density_matrix(basis, 5)]:
        got, want = rho.charge0(), charge0_by_take(rho)
        assert (got is None) == (want is None)
        if got is not None:
            assert got.tobytes() == want.tobytes()
    assert vectors[0].charge0() is vectors[0].block0
    assert read.charge0().tobytes() == vectors[0].block0.tobytes()
    assert coherent.charge0() is None


def test_fidelities_refuse_mismatched_bases():
    rho = fock_state_dm(FockBasis(1, 2), (0,))
    with pytest.raises(ValueError):
        fidelities([rho, fock_state_dm(FockBasis(1, 3), (0,))], rho)


def test_data_processing_contraction():
    joint = FockBasis(3, 2)
    for seed in range(5):
        rho = random_density_matrix(joint, seed)
        sig = random_density_matrix(joint, seed + 50)
        d_joint = trace_distance(rho, sig)
        d_red = trace_distance(partial_trace(rho, (0, 2)), partial_trace(sig, (0, 2)))
        assert d_red <= d_joint + 1e-10


def test_classical_fidelity():
    basis = FockBasis(1, 2)
    p = ProbabilityDistribution(basis, np.array([0.5, 0.25, 0.25]))
    assert classical_fidelity(p, p) == pytest.approx(1.0)
    q = ProbabilityDistribution(basis, np.array([0.0, 1.0, 0.0]))
    assert classical_fidelity(p, q) == pytest.approx(0.5)
    # distributions on different truncations are compared on the larger one
    small, big = FockBasis(2, 1), FockBasis(2, 2)
    r = ProbabilityDistribution(small, np.array([0.5, 0.25, 0.25]))
    t = ProbabilityDistribution(big, np.full(big.size, 1 / big.size))
    expected = sum(np.sqrt(prob * t.probabilities[t.basis.index_of(occ)])
                   for occ, prob in zip(small.states, r.probabilities))
    assert classical_fidelity(r, t) == pytest.approx(expected, abs=1e-15)
    assert classical_fidelity(t, r) == pytest.approx(expected, abs=1e-15)
    with pytest.raises(ValueError):
        classical_fidelity(p, t)


@pytest.mark.parametrize("modes, n_small, n_big",
                         [(1, 0, 3), (1, 2, 5), (2, 1, 4), (3, 2, 3), (3, 3, 5), (4, 2, 4)])
def test_embed_matches_index_of_placement(modes, n_small, n_big):
    small, big = FockBasis(modes, n_small), FockBasis(modes, n_big)
    rho = random_density_matrix(small, 11 + modes)
    idx = [big.index_of(occ) for occ in small.states]
    expected = np.zeros((big.size, big.size), dtype=complex)
    expected[np.ix_(idx, idx)] = rho.mat
    out = embed(rho, big)
    assert out.basis == big
    np.testing.assert_array_equal(out.mat, expected)


def test_embed_rejects_mode_mismatch_and_shrinking():
    rho = random_density_matrix(FockBasis(2, 2), 3)
    assert embed(rho, FockBasis(2, 2)) is rho
    with pytest.raises(ValueError):
        embed(rho, FockBasis(3, 4))
    # shrinking drops populated sectors
    with pytest.raises(TruncationError) as info:
        embed(rho, FockBasis(2, 1))
    assert info.value.required_n_max == 2


def test_embed_cuts_unpopulated_sectors():
    small = FockBasis(2, 1)
    rho = embed(random_density_matrix(small, 4), FockBasis(2, 4))
    back = embed(rho, small)
    assert back.basis == small
    np.testing.assert_array_equal(back.mat, random_density_matrix(small, 4).mat)
    # weight up to POPULATED_CUTOFF in the dropped sectors is let go
    leaky = rho.mat.copy()
    leaky[-1, -1] = POPULATED_CUTOFF
    assert embed(DensityMatrix(FockBasis(2, 4), leaky, check=False), small).basis == small
    leaky[-1, -1] = 2 * POPULATED_CUTOFF
    with pytest.raises(TruncationError):
        embed(DensityMatrix(FockBasis(2, 4), leaky, check=False), small)


def test_diagonal_distribution():
    basis = FockBasis(1, 1)
    rho = DensityMatrix(basis, np.diag([0.5, 0.5]))
    dist = diagonal_distribution(rho)
    np.testing.assert_allclose(dist.probabilities, [0.5, 0.5])
    one_hot = diagonal_distribution(fock_state_dm(FockBasis(2, 1), (0, 1)))
    assert one_hot.probabilities[one_hot.basis.index_of((0, 1))] == pytest.approx(1.0)
    assert one_hot.probabilities.sum() == pytest.approx(1.0)


def test_diagonal_distribution_rejects_corrupted():
    basis = FockBasis(1, 1)
    bad = DensityMatrix(basis, np.diag([1.1, -0.1]), check=False)
    with pytest.raises(ValueError):
        diagonal_distribution(bad)


def test_sampling_determinism_and_totals():
    basis = FockBasis(1, 2)
    dist = ProbabilityDistribution(basis, np.array([0.2, 0.5, 0.3]))
    c1 = dist.sample(1000, seed=5)
    c2 = dist.sample(1000, seed=5)
    assert c1 == c2
    assert sum(c1.values()) == 1000
    one_hot = ProbabilityDistribution(basis, np.array([0.0, 1.0, 0.0]))
    assert one_hot.sample(77, seed=1) == {(1,): 77}


def test_sampling_frequencies_within_binomial_bounds():
    basis = FockBasis(1, 2)
    p = np.array([0.2, 0.5, 0.3])
    dist = ProbabilityDistribution(basis, p)
    shots = 100_000
    counts = dist.sample(shots, seed=9)
    for occ, prob in zip(basis.states, p):
        sigma = np.sqrt(prob * (1 - prob) * shots)
        assert abs(counts.get(occ, 0) - prob * shots) < 4 * sigma


@pytest.mark.parametrize("shots, chunk", [(1, 7), (7, 7), (8, 7), (1000, 7),
                                          (200_003, 1 << 16)])
def test_chunked_sampling_equals_one_draw(monkeypatch, shots, chunk):
    # chunked draws continue one Generator stream, so the counts are those
    # of a single draw of every shot
    dist = ProbabilityDistribution(FockBasis(2, 2),
                                   np.array([0.05, 0.1, 0.2, 0.3, 0.15, 0.2]))
    monkeypatch.setattr(bosonloop.qstate, "_SAMPLE_CHUNK", chunk)
    assert dist.sample(shots, seed=3) == sample_one_draw(dist, shots, seed=3)


def test_sampling_memory_does_not_grow_with_shots():
    # one draw of 10^7 shots would hold two 80 MB arrays
    dist = ProbabilityDistribution(FockBasis(1, 2), np.array([0.2, 0.5, 0.3]))
    tracemalloc.start()
    try:
        counts = dist.sample(10 ** 7, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(counts.values()) == 10 ** 7
    assert peak < 4 * 2 ** 20


def test_distribution_csv_round_trip(tmp_path):
    basis = FockBasis(2, 1)
    dist = ProbabilityDistribution(basis, np.array([0.25, 0.25, 0.5]))
    path = tmp_path / "d.csv"
    path.write_text(dist.to_csv_text())
    back = read_distribution_csv(path)
    np.testing.assert_allclose(back.probabilities, dist.probabilities, atol=1e-12)


def test_density_matrix_json_round_trip(tmp_path):
    rho = random_density_matrix(FockBasis(2, 2), 11)
    path = tmp_path / "rho.json"
    path.write_text(json_text(rho.to_payload()))   # as the CLI writes rho_*.json
    back = DensityMatrix.from_json(path)
    assert back.basis == rho.basis
    np.testing.assert_allclose(back.mat, rho.mat, atol=0)


def test_sector_weights_and_population():
    basis = FockBasis(2, 2)
    rho = fock_state_dm(basis, (1, 1))
    np.testing.assert_allclose(rho.sector_weights(), [0.0, 0.0, 1.0], atol=1e-15)
    assert rho.max_populated_sector() == 2
