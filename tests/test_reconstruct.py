import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonloop.errors import ReconstructionError
from bosonloop.evolve import ExperimentConfig
from bosonloop.fock import FockBasis
from bosonloop.matrixkit import vec
from bosonloop.qstate import (DensityMatrix, ProbabilityDistribution,
                              classical_fidelity, fock_state_dm,
                              random_density_matrix, uhlmann_fidelity)
from bosonloop.reconstruct import (MomentSystem, b_coefficient,
                                   build_moment_system, coherent_pmf,
                                   fit_photon_statistics, project_psd,
                                   project_simplex, reconstruct_analytic,
                                   reconstruct_convex,
                                   reconstruct_distribution, thermal_pmf)
from bosonloop.tensors import recursive_stationary, tensor_set_from_dm

from oracles import nearest_density_grid_2x2, reconstruct_analytic_loop, same_bits


def full_system(rho, rank_cap=None):
    cap = rho.basis.n_max if rank_cap is None else rank_cap
    return build_moment_system(rho.basis, tensor_set_from_dm(rho, cap))


def test_b_coefficient_single_mode_hand_values():
    # rho_11 appears in C(1,1) with weight 1; rho_22 with weight 2
    assert b_coefficient((1,), (1,), (1,), (1,)) == pytest.approx(1.0)
    assert b_coefficient((2,), (2,), (1,), (1,)) == pytest.approx(2.0)
    # the matching condition kills mismatched shifts
    assert b_coefficient((1,), (2,), (1,), (1,)) == 0.0
    assert b_coefficient((0,), (0,), (1,), (1,)) == 0.0
    # <3| a^dag^2 a^2 |3> = 6
    assert b_coefficient((3,), (3,), (2,), (2,)) == pytest.approx(6.0)


def test_minimal_single_mode_system():
    basis = FockBasis(1, 1)
    rho = DensityMatrix(basis, np.diag([0.3, 0.7]))
    system = full_system(rho)
    zero, one = (0,), (1,)
    assert system.get(zero, zero) == pytest.approx(1.0)          # trace
    assert system.get(one, one) == pytest.approx(0.7)            # <n>
    b, c = system.matrix()
    np.testing.assert_allclose(b @ vec(rho.mat), c, atol=1e-12)


def test_b_matrix_reproduces_expectations():
    basis = FockBasis(2, 2)
    for seed in range(3):
        rho = random_density_matrix(basis, seed)
        system = full_system(rho)
        b, c = system.matrix()
        np.testing.assert_allclose(b @ vec(rho.mat), c, atol=1e-10)


def test_b_matrix_triangular_structure():
    basis = FockBasis(1, 3)
    rho = random_density_matrix(basis, 4)
    system = full_system(rho)
    b, _ = system.matrix()
    d = basis.size
    for row, (s_vec, r_vec) in enumerate(system.canonical_keys()):
        for col in np.nonzero(np.abs(b[row]) > 0)[0]:
            n_occ = basis.state(col % d)
            m_occ = basis.state(col // d)
            assert all(m >= s for m, s in zip(m_occ, s_vec))
            assert all(n >= r for n, r in zip(n_occ, r_vec))


def test_analytic_vacuum_and_pure_fock():
    basis = FockBasis(1, 3)
    for occ in [(0,), (3,)]:
        rho = fock_state_dm(basis, occ)
        rec, info = reconstruct_analytic(full_system(rho))
        assert uhlmann_fidelity(rec, rho) > 1 - 1e-10
        assert not info.projected


def _vacuum_system(n_max: int) -> MomentSystem:
    """Every moment of the one-mode vacuum over FockBasis(1, n_max)."""
    return MomentSystem(FockBasis(1, n_max), {
        ((s,), (r,)): 1.0 if s == r == 0 else 0.0
        for s in range(n_max + 1) for r in range(s, n_max + 1)})


def test_analytic_past_the_float_range_of_the_factorial_products():
    # at n_max 99 the leading factor's integer 99!^2 leaves float range and
    # takes sqrt(99!) sqrt(99!); below that the integer product is kept
    for n_max in (98, 99):
        rec, info = reconstruct_analytic(_vacuum_system(n_max))
        assert rec.mat[0, 0] == 1.0 and np.count_nonzero(rec.mat) == 1
        assert not info.projected


def test_analytic_refuses_occupations_whose_factorial_leaves_float_range():
    # 171! overflows a float: refused before the recursion reads a moment
    system = _vacuum_system(171)
    system.get = None
    with pytest.raises(ReconstructionError, match="float range"):
        reconstruct_analytic(system)
    rec, _ = reconstruct_analytic(_vacuum_system(171), n_max=3)
    assert rec.mat[0, 0] == 1.0


def test_analytic_top_sector_seed():
    basis = FockBasis(1, 1)
    rho = DensityMatrix(basis, np.diag([0.2, 0.8]))
    system = full_system(rho)
    rec, _ = reconstruct_analytic(system)
    # the top sector element is read straight off its moment
    assert rec.mat[1, 1].real == pytest.approx(system.get((1,), (1,)).real)


def test_analytic_round_trip_random_states():
    for modes, n_max, seed in [(1, 3, 1), (2, 2, 2), (2, 3, 3)]:
        basis = FockBasis(modes, n_max)
        rho = random_density_matrix(basis, seed)
        rec, _ = reconstruct_analytic(full_system(rho))
        assert uhlmann_fidelity(rec, rho) > 1 - 1e-8
        np.testing.assert_allclose(rec.mat, rho.mat, atol=1e-9)


def test_analytic_missing_moment_is_reported():
    basis = FockBasis(1, 2)
    rho = random_density_matrix(basis, 5)
    system = full_system(rho, rank_cap=1)  # ranks above (1,1) absent
    with pytest.raises(ReconstructionError) as err:
        reconstruct_analytic(system, n_max=2)
    assert err.value.missing_moment is not None


def _same_analytic_outcome(system, n_max):
    """reconstruct_analytic and its per-(pair, q) oracle agree bit for bit,
    or raise the same missing moment."""
    outcomes = []
    for solve in (reconstruct_analytic, reconstruct_analytic_loop):
        try:
            outcomes.append(solve(system, n_max=n_max))
        except ReconstructionError as err:
            outcomes.append(err.missing_moment)
    got, want = outcomes
    if isinstance(want, tuple) and isinstance(want[0], DensityMatrix):
        assert same_bits(got[0].mat, want[0].mat)
        assert got[1] == want[1]
    else:
        assert got == want


@settings(max_examples=60, derandomize=True, deadline=None)
@given(modes=st.integers(1, 3), n_max=st.integers(1, 4), drop=st.integers(0, 3),
       partial=st.booleans(), seed=st.integers(0, 2 ** 31))
def test_analytic_equals_the_per_pair_oracle(modes, n_max, drop, partial, seed):
    # reconstructions at or below the state's truncation from a full system,
    # and from a partial one (ranks below the target's top sector), which
    # must name the same missing moment
    rho = random_density_matrix(FockBasis(modes, min(n_max, 6 - modes)), seed)
    cap = max(1, rho.basis.n_max - drop)
    rank = cap - 1 if partial and cap > 1 else rho.basis.n_max
    _same_analytic_outcome(full_system(rho, rank_cap=rank), cap)


def test_analytic_on_stationary_moments_equals_the_per_pair_oracle():
    # the stationary loop moments of M=3, L=2, the reconstruct workload's
    # system, at every rank of its fidelity ladder
    cfg = ExperimentConfig(modes=3, looped=2, iterations=1, haar_seed=39,
                           input_occupation=(1,), n_max=7)
    tensors = recursive_stationary(cfg.transfer_matrix(), fock_state_dm(FockBasis(1, 1), (1,)), 5)
    system = build_moment_system(FockBasis(2, 5), tensors)
    for rank in range(1, 6):
        _same_analytic_outcome(system, rank)


def test_analytic_partial_rank_truncates_basis():
    basis = FockBasis(1, 3)
    rho = random_density_matrix(basis, 6)
    rec, _ = reconstruct_analytic(full_system(rho), n_max=2)
    assert rec.basis.n_max == 2


def test_distribution_exact_at_full_rank():
    for modes, n_max, seed in [(1, 4, 7), (2, 3, 8)]:
        basis = FockBasis(modes, n_max)
        rho = random_density_matrix(basis, seed)
        dist, info = reconstruct_distribution(full_system(rho))
        truth = rho.diagonal_distribution()
        assert classical_fidelity(dist, truth) > 1 - 1e-10
        assert not info.projected


def test_distribution_vacuum_is_one_hot():
    basis = FockBasis(2, 2)
    rho = fock_state_dm(basis, (0, 0))
    dist, _ = reconstruct_distribution(full_system(rho))
    assert dist.probability_of((0, 0)) == pytest.approx(1.0)


def test_distribution_partial_rank_projects_to_simplex():
    basis = FockBasis(1, 4)
    rho = random_density_matrix(basis, 9)
    dist, info = reconstruct_distribution(full_system(rho, rank_cap=2), n_max=2)
    assert dist.probabilities.min() >= 0.0
    assert dist.probabilities.sum() == pytest.approx(1.0)
    # fidelity vs truth is below the full-rank (exact) value
    truth = rho.diagonal_distribution()
    partial = classical_fidelity(dist, truth)
    full, _ = reconstruct_distribution(full_system(rho))
    assert partial < classical_fidelity(full, truth) + 1e-12


def test_convex_round_trip_pure_state():
    basis = FockBasis(1, 3)
    rho = fock_state_dm(basis, (2,))
    rec, info = reconstruct_convex(full_system(rho))
    assert uhlmann_fidelity(rec, rho) > 1 - 1e-6
    assert info.residual < 1e-8
    # feasibility by construction
    assert np.trace(rec.mat).real == pytest.approx(1.0, abs=1e-10)
    assert np.linalg.eigvalsh(rec.mat)[0] > -1e-10


def test_convex_round_trip_mixed_state():
    basis = FockBasis(2, 2)
    rho = random_density_matrix(basis, 10)
    rec, info = reconstruct_convex(full_system(rho))
    assert uhlmann_fidelity(rec, rho) > 1 - 1e-6


def test_convex_partial_moments_stay_feasible():
    basis = FockBasis(1, 4)
    rho = random_density_matrix(basis, 11)
    rec, info = reconstruct_convex(full_system(rho, rank_cap=2), n_max=4,
                                   max_iterations=200)
    assert np.trace(rec.mat).real == pytest.approx(1.0, abs=1e-10)
    assert np.linalg.eigvalsh(rec.mat)[0] > -1e-10
    assert info.iterations <= 200


def test_project_psd_valid_state_unchanged():
    basis = FockBasis(1, 2)
    rho = random_density_matrix(basis, 12)
    out = project_psd(rho.mat, basis)
    np.testing.assert_allclose(out.mat, rho.mat, atol=1e-12)


def test_project_psd_clip_and_renormalize():
    out = project_psd(np.diag([1.2, -0.2]))
    np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-12)


def test_project_psd_matches_grid_oracle():
    rng = np.random.default_rng(13)
    for _ in range(5):
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h = (h + h.conj().T) / 2
        h = h / np.trace(h).real if abs(np.trace(h)) > 0.3 else h + np.eye(2)
        mine = project_psd(h)
        grid = nearest_density_grid_2x2(h)
        assert np.linalg.norm(mine - h) <= np.linalg.norm(grid - h) + 1e-3


def test_project_psd_rejects_negative_definite():
    with pytest.raises(ReconstructionError):
        project_psd(np.diag([-1.0, -2.0]))


def test_project_simplex_cases():
    np.testing.assert_allclose(project_simplex(np.array([0.3, 0.7])),
                               [0.3, 0.7], atol=1e-14)
    np.testing.assert_allclose(project_simplex(np.array([1.2, -0.2])),
                               [1.0, 0.0], atol=1e-12)
    rng = np.random.default_rng(14)
    for _ in range(20):
        v = rng.standard_normal(6)
        p = project_simplex(v)
        assert p.min() >= 0 and p.sum() == pytest.approx(1.0, abs=1e-12)
        # idempotent, and no random simplex point is closer
        np.testing.assert_allclose(project_simplex(p), p, atol=1e-12)
        for _ in range(30):
            q = rng.dirichlet(np.ones(6))
            assert np.linalg.norm(v - p) <= np.linalg.norm(v - q) + 1e-12


def test_fit_photon_statistics_self_fits():
    # n_max large enough that the truncated tails are below the tolerances
    basis = FockBasis(1, 30)
    mu = 1.3
    poisson = coherent_pmf(mu, 30)
    poisson /= poisson.sum()
    fit = fit_photon_statistics(ProbabilityDistribution(basis, poisson))
    assert fit.coherent_residual < 1e-12
    assert fit.coherent_mean == pytest.approx(mu, abs=1e-5)
    assert fit.best == "coherent"

    nbar = 0.8
    thermal = thermal_pmf(nbar, 30)
    thermal /= thermal.sum()
    fit = fit_photon_statistics(ProbabilityDistribution(basis, thermal))
    assert fit.thermal_residual < 1e-12
    assert fit.thermal_mean == pytest.approx(nbar, abs=1e-5)
    assert fit.best == "thermal"


def test_fit_photon_statistics_degenerate():
    basis = FockBasis(1, 3)
    dist = ProbabilityDistribution(basis, np.array([1.0, 0, 0, 0]))
    fit = fit_photon_statistics(dist)
    assert fit.thermal_mean == 0.0 and fit.coherent_mean == 0.0
    assert fit.thermal_residual < 1e-12 and fit.coherent_residual < 1e-12


def test_moment_system_conjugate_fallback():
    basis = FockBasis(1, 2)
    system = MomentSystem(basis, {((2,), (1,)): 0.5 + 0.25j})
    assert system.get((1,), (2,)) == pytest.approx(0.5 - 0.25j)
    with pytest.raises(ReconstructionError):
        system.get((2,), (2,))
