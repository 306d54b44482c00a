"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; the whole suite stays within its stated runtime budgets on a desktop.
"""

import hashlib
import time
from itertools import combinations_with_replacement

import numpy as np
import pytest

import bosonloop as bl
from bosonloop.errors import (DegenerateFixedPointError, SpectralRadiusError,
                              TruncationError)
from bosonloop.evolve import _LoopSetup, detection_pass

from oracles import permanent_naive

# (modes, looped, iterations, haar seed): 20 configs, N = 1 photon per round
SWEEP_CONFIGS = [
    (m, looped, k, 100 + 7 * i)
    for i, (m, looped, k) in enumerate(
        (m, looped, k)
        for m, looped in ((2, 1), (3, 1), (3, 2))
        for k in (1, 2, 3, 4)
    )
] + [(2, 1, k, 180 + k) for k in (1, 2, 3, 4)] + [
    (3, 1, 2, 190), (3, 2, 3, 191), (2, 1, 3, 192), (3, 1, 4, 193),
]


def _passed(num, message):
    print(f"ACCEPTANCE {num:2d} PASS: {message}")


def _stationary_adaptive(config, n_max0):
    """Stationary state with the truncation ladder used throughout."""
    n_max = n_max0
    for _ in range(4):
        try:
            return bl.stationary_loop_state(config.at_n_max(n_max)), n_max
        except TruncationError:
            n_max = int(np.ceil(n_max * 1.5))
    raise AssertionError("stationary truncation ladder exhausted")


def test_criterion_01_cross_method_equivalence():
    started = time.monotonic()
    assert len(SWEEP_CONFIGS) == 20
    worst = 0.0
    for modes, looped, k, seed in SWEEP_CONFIGS:
        occ = (1,) + (0,) * (modes - looped - 1)
        cfg = bl.ExperimentConfig(modes=modes, looped=looped, iterations=k,
                                  haar_seed=seed, input_occupation=occ)
        t_pdm = bl.evolve_pdm(cfg)
        t_kraus = bl.evolve_kraus(cfg)
        t_unf = bl.unfolded_distribution(cfg)
        for i in range(k):
            trio = (t_pdm.iteration_distributions[i].probabilities,
                    t_kraus.iteration_distributions[i].probabilities,
                    t_unf.iteration_distributions[i].probabilities)
            for a in range(3):
                for b in range(a + 1, 3):
                    tv = 0.5 * np.abs(trio[a] - trio[b]).sum()
                    worst = max(worst, tv)
                    assert tv < 1e-10, (modes, looped, k, seed, i)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _passed(1, f"20 configs, unfold/pdm/kraus TV worst {worst:.2e} "
               f"in {elapsed:.1f}s (< 60s)")


def test_criterion_02_stationary_fixed_point(monkeypatch):
    # the fixed point of the channel exactly as truncated: the eigenvector
    # route must reproduce itself under one more application, and the rest
    # of the unit circle must stay clear of 1
    monkeypatch.setattr(bl.channels, "_UNIT_TOL", 0.05)
    monkeypatch.setattr(bl.channels, "LEAK_TOLERANCE", 1.0)
    worst_td, worst_second = 0.0, 0.0
    for modes, looped, k, seed in SWEEP_CONFIGS:
        occ = (1,) + (0,) * (modes - looped - 1)
        n_max = max(k, 6 if looped == 1 else 5)
        cfg = bl.ExperimentConfig(modes=modes, looped=looped, iterations=1,
                                  haar_seed=seed, input_occupation=occ,
                                  n_max=n_max)
        setup = _LoopSetup(cfg)
        channel = setup.channel
        result = bl.stationary_state(channel)
        applied = channel.apply(result.rho)
        td = bl.trace_distance(applied, result.rho)
        worst_td = max(worst_td, td)
        worst_second = max(worst_second, result.second_modulus)
        assert td < 1e-9, (modes, looped, seed)
        assert result.second_modulus < 1.0 - 1e-6, (modes, looped, seed)
    _passed(2, f"fixed-point trace distance worst {worst_td:.2e} (< 1e-9), "
               f"second eigenvalue modulus worst {worst_second:.6f} (< 1-1e-6)")


def test_criterion_03_theorem_negative_control():
    # block-diagonal U with unitary loop block: no unique stationary state
    phases = np.exp(1j * np.array([0.3, 1.1]))
    u = np.diag(phases)
    cfg = bl.ExperimentConfig(modes=2, looped=1, iterations=1, unitary=u,
                              input_occupation=(1,), n_max=4)
    setup = _LoopSetup(cfg)
    with pytest.raises(DegenerateFixedPointError):
        bl.stationary_state(setup.channel)
    ext = bl.fock_state_dm(bl.FockBasis(1, 1), (1,))
    with pytest.raises(SpectralRadiusError):
        bl.recursive_stationary(u, ext, rank_cap=2)

    u3 = np.zeros((3, 3), dtype=complex)  # 1 external, 2 looped, decoupled
    u3[0, 0] = 1.0
    u3[1:, 1:] = bl.haar_random_unitary(2, 5)
    cfg3 = bl.ExperimentConfig(modes=3, looped=2, iterations=1, unitary=u3,
                               input_occupation=(1,), n_max=3)
    setup3 = _LoopSetup(cfg3)
    with pytest.raises(DegenerateFixedPointError):
        bl.stationary_state(setup3.channel)
    with pytest.raises(SpectralRadiusError):
        bl.recursive_stationary(u3, ext, rank_cap=2)
    _passed(3, "decoupled matrices: degenerate unit eigenspace detected and "
               "tensor method refuses via spectral radius")


def test_criterion_04_stabilization_histogram():
    started = time.monotonic()
    cfg = bl.ExperimentConfig(modes=2, looped=1, iterations=1, haar_seed=0,
                              input_occupation=(1,), n_max=14)
    study = bl.stabilization_samples(cfg, samples=1000, seed=2,
                                     tolerance=1e-6)
    elapsed = time.monotonic() - started
    times = np.array(study.times)
    median = float(np.median(times))
    mean = float(times.mean())
    assert study.skipped <= 5
    assert 10.0 <= median <= 25.0
    assert mean > median  # long right tail
    assert elapsed < 300.0
    # the 1000 tau themselves, so that a tau that moves fails here instead
    # of passing the bounds above
    assert (int(times.sum()), int(times.max()), study.skipped) == (52442, 6045, 0)
    assert hashlib.sha256(",".join(map(str, study.times)).encode()).hexdigest() == (
        "a0a5c1cec677d18f488e350c66f8f66ee34d6893a2c2f71dcbe66ffbc88726b2")
    _passed(4, f"1000 Haar samples: median {median}, mean {mean:.1f} "
               f"(> median), {elapsed:.0f}s (< 300s)")


def test_criterion_05_tensor_vs_superoperator():
    cfg = bl.ExperimentConfig(modes=2, looped=1, iterations=1, haar_seed=23,
                              input_occupation=(1,), n_max=16)
    stat = bl.stationary_loop_state(cfg)
    ext = bl.fock_state_dm(bl.FockBasis(1, 1), (1,))
    tensors = bl.recursive_stationary(cfg.transfer_matrix(), ext, rank_cap=4)
    worst = 0.0
    for n in range(1, 5):
        for m in range(n + 1):
            ref = bl.expectations_from_dm(stat.rho, n, m).values
            dev = np.abs(tensors.get(n, m).values - ref).max()
            worst = max(worst, dev)
            assert dev < 1e-7, (n, m, dev)
    _passed(5, f"stationary tensors to rank 4 vs superoperator, worst "
               f"deviation {worst:.2e} (< 1e-7)")


def test_criterion_06_reconstruction_round_trip():
    count = 0
    worst = 1.0
    for modes, n_max in [(1, 2), (1, 3), (2, 2), (2, 3)]:
        basis = bl.FockBasis(modes, n_max)
        for i in range(13 if modes == 1 else 12):
            rho = bl.random_density_matrix(basis, 1000 * modes + 10 * n_max + i)
            system = bl.build_moment_system(
                basis, bl.tensor_set_from_dm(rho, n_max))
            rec, _ = bl.reconstruct_analytic(system)
            f = bl.uhlmann_fidelity(rec, rho)
            worst = min(worst, f)
            count += 1
            assert f > 1 - 1e-8, (modes, n_max, i, f)
    assert count == 50
    _passed(6, f"50 analytic round trips, worst Uhlmann fidelity "
               f"1 - {1 - worst:.2e} (> 1 - 1e-8)")


def _detect_moments(m_eff, rho_ext, tensors, m_det, rank_cap):
    zero = (0,) * m_det
    moments = {(zero, zero): 1.0 + 0j}
    for s in range(1, rank_cap + 1):
        det = bl.stationary_output_tensor(s, s, m_eff, rho_ext, tensors,
                                          block="detect")
        for cre in combinations_with_replacement(range(m_det), s):
            for ann in combinations_with_replacement(range(m_det), s):
                s_vec = tuple(np.bincount(cre, minlength=m_det))
                r_vec = tuple(np.bincount(ann, minlength=m_det))
                moments[(s_vec, r_vec)] = complex(det.values[cre + ann])
    return moments


def test_criterion_07_distribution_reconstruction_under_loss():
    # 85% loss fixtures: symmetric moments to rank (3,3) recover the
    # detectable-mode distribution with classical fidelity above 0.99
    fidelities = []
    for m_det, seed in [(1, 201), (2, 202), (3, 203)]:
        modes = m_det + 1
        occ = (1,) * m_det
        losses = bl.LossSpec(t_in=np.full(modes, np.sqrt(0.15)))
        cfg = bl.ExperimentConfig(modes=modes, looped=1, iterations=1,
                                  haar_seed=seed, input_occupation=occ,
                                  losses=losses, n_max=6)
        stat, n_max = _stationary_adaptive(cfg, 6)
        rho_det, _ = detection_pass(cfg.at_n_max(n_max), stat.rho)
        truth = rho_det.diagonal_distribution()
        m_eff = bl.effective_transfer_matrix(cfg.transfer_matrix(), losses, 1)
        rho_ext = bl.fock_state_dm(bl.FockBasis(m_det, m_det), occ)
        tensors = bl.recursive_stationary(m_eff, rho_ext, rank_cap=3)
        moments = _detect_moments(m_eff, rho_ext, tensors, m_det, 3)
        dist, _ = bl.reconstruct_distribution(moments, n_max=3)
        f = bl.classical_fidelity(dist, truth)
        fidelities.append(f)
        assert f > 0.99, (m_det, f)

    # control: random Hilbert-Schmidt states need the full rank set
    basis = bl.FockBasis(1, 4)
    by_rank = {r: [] for r in (1, 2, 3, 4)}
    for i in range(30):
        rho = bl.random_density_matrix(basis, 300 + i)
        truth = rho.diagonal_distribution()
        all_moments = {
            ((s,), (s,)): complex(bl.expectations_from_dm(rho, s, s).values[(0,) * (2 * s)])
            for s in range(5)
        }
        for rank in (1, 2, 3, 4):
            sub = {k: v for k, v in all_moments.items() if k[0][0] <= rank}
            dist, _ = bl.reconstruct_distribution(sub, n_max=rank)
            by_rank[rank].append(bl.classical_fidelity(dist, truth))
    means = {r: float(np.mean(v)) for r, v in by_rank.items()}
    assert means[4] > 1 - 1e-9              # full rank is exact
    for r in (1, 2, 3):
        assert means[r] < means[4] - 0.01   # markedly lower until full rank
    _passed(7, f"85%-loss fidelities {[f'{f:.4f}' for f in fidelities]} "
               f"(> 0.99); random-state control means "
               f"{[f'{means[r]:.3f}' for r in (1, 2, 3, 4)]}")


def test_criterion_08_photon_statistics_fit():
    cfg = bl.ExperimentConfig(modes=2, looped=1, iterations=1, haar_seed=0,
                              input_occupation=(1,), n_max=14)
    avg = bl.average_stationary(cfg, samples=500, seed=77)
    assert avg.samples_used >= 495
    dist = avg.rho.diagonal_distribution()
    fit = bl.fit_photon_statistics(dist)
    assert fit.coherent_residual < fit.thermal_residual
    q = bl.coherent_pmf(fit.coherent_mean, dist.basis.n_max)
    p = dist.probabilities
    discrepancy = [abs(np.log(p[n]) - np.log(q[n])) for n in (2, 4, 7)]
    assert discrepancy[0] < discrepancy[1] < discrepancy[2]
    _passed(8, f"coherent fit residual {fit.coherent_residual:.2e} beats "
               f"thermal {fit.thermal_residual:.2e}; log discrepancy grows "
               f"{[f'{d:.2f}' for d in discrepancy]} at n = 2, 4, 7")


def test_criterion_09_channel_algebra():
    # loss completeness on the full truncated space
    for modes, n_max, t in [(1, 5, 0.3), (2, 3, 0.62), (2, 2, (0.15, 0.8))]:
        chan = bl.loss_channel(t, modes, n_max)
        eye = np.eye(chan.basis.size)
        assert np.abs(chan.completeness_operator() - eye).max() < 1e-12
    # loss composition law on states
    t1, t2 = 0.75, 0.4
    basis = bl.FockBasis(1, 4)
    comp = bl.compose(bl.loss_channel(t1, 1, 4), bl.loss_channel(t2, 1, 4))
    direct = bl.loss_channel(t1 * t2, 1, 4)
    for seed in range(5):
        rho = bl.random_density_matrix(basis, seed)
        assert bl.trace_distance(comp.apply(rho), direct.apply(rho)) < 1e-10
    # loop-channel completeness on its declared valid subspace
    for seed in (301, 302):
        joint = bl.FockBasis(2, 5)
        lifted = bl.LiftedUnitary(bl.haar_random_unitary(2, seed), joint)
        rho_ext = bl.fock_state_dm(bl.FockBasis(1, 5), (1,))
        chan = bl.loop_channel(lifted, rho_ext)
        comp_op = chan.completeness_operator()
        d_ok = sum(len(bl.enumerate_sector(chan.basis.modes, n))
                   for n in range(chan.valid_max_photons + 1))
        defect = np.abs(comp_op[:d_ok, :d_ok] - np.eye(d_ok)).max()
        assert defect < 1e-9
    _passed(9, "loss completeness to 1e-12, loss(T1) o loss(T2) = loss(T1 T2) "
               "to 1e-10, loop completeness on the valid subspace to 1e-9")


def test_criterion_10_lift_correctness():
    worst_unitary, worst_hom = 0.0, 0.0
    for modes in (2, 3, 4):
        basis = bl.FockBasis(modes, 3)
        u = bl.haar_random_unitary(modes, 400 + modes)
        w = bl.haar_random_unitary(modes, 410 + modes)
        lu, lw, luw = (bl.LiftedUnitary(x, basis) for x in (u, w, u @ w))
        for n in range(4):
            blk = lu.block(n)
            dev = np.abs(blk.conj().T @ blk - np.eye(blk.shape[0])).max()
            worst_unitary = max(worst_unitary, dev)
            assert dev < 1e-10
            hom = np.abs(lu.block(n) @ lw.block(n) - luw.block(n)).max()
            worst_hom = max(worst_hom, hom)
            assert hom < 1e-10
    rng = np.random.default_rng(42)
    for n in range(1, 7):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert abs(bl.permanent(a) - permanent_naive(a)) < 1e-12 * max(
            1.0, abs(permanent_naive(a)))
    _passed(10, f"sector unitarity worst {worst_unitary:.2e}, homomorphism "
                f"worst {worst_hom:.2e} (< 1e-10); permanents match naive "
                f"expansion to 1e-12 for n <= 6")
