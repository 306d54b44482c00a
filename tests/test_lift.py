import importlib
from math import factorial, prod, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonloop.fock import FockBasis, enumerate_sector
from bosonloop.lift import lift, lift_apply_fock
from bosonloop.matrixkit import haar_random_unitary, permanent
from bosonloop.qstate import random_density_matrix

from oracles import (conjugate_dense, lift_apply_fock_whole, lift_block_polynomial,
                     lift_blocks_whole, submatrix_by_multiplicity)

BS = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)


def test_identity_lifts_to_identity():
    basis = FockBasis(3, 3)
    lifted = lift(np.eye(3), basis)
    for n in range(4):
        size = len(enumerate_sector(basis.modes, n))
        np.testing.assert_allclose(lifted.block(n), np.eye(size), atol=1e-14)


def test_single_photon_block_is_permuted_matrix():
    u = haar_random_unitary(3, 21)
    basis = FockBasis(3, 1)
    block = lift(u, basis).block(1)
    sector = enumerate_sector(3, 1)
    for i, iocc in enumerate(sector):
        for j, jocc in enumerate(sector):
            row, col = iocc.index(1), jocc.index(1)
            assert block[i, j] == pytest.approx(u[row, col], abs=1e-14)


def test_beam_splitter_single_photon():
    basis = FockBasis(2, 1)
    lifted = lift(BS, basis)
    amps = np.zeros(basis.size, dtype=complex)
    amps[basis.index_of((1, 0))] = 1.0
    out = lifted.apply_pure(amps)
    assert out[basis.index_of((1, 0))] == pytest.approx(1 / np.sqrt(2))
    assert out[basis.index_of((0, 1))] == pytest.approx(1 / np.sqrt(2))


def test_beam_splitter_hong_ou_mandel():
    basis = FockBasis(2, 2)
    lifted = lift(BS, basis)
    amps = np.zeros(basis.size, dtype=complex)
    amps[basis.index_of((1, 1))] = 1.0
    out = lifted.apply_pure(amps)
    assert out[basis.index_of((1, 1))] == pytest.approx(0.0, abs=1e-14)
    assert abs(out[basis.index_of((2, 0))]) == pytest.approx(1 / np.sqrt(2))
    assert abs(out[basis.index_of((0, 2))]) == pytest.approx(1 / np.sqrt(2))


def test_blocks_match_polynomial_oracle():
    for modes, seed in [(2, 1), (3, 2)]:
        u = haar_random_unitary(modes, seed)
        basis = FockBasis(modes, 3)
        lifted = lift(u, basis)
        for n in range(4):
            np.testing.assert_allclose(lifted.block(n),
                                       lift_block_polynomial(u, n), atol=1e-12)


def test_entries_match_permanent_formula():
    u = haar_random_unitary(3, 5)
    basis = FockBasis(3, 3)
    lifted = lift(u, basis)
    for n in range(4):
        sector = enumerate_sector(basis.modes, n)
        for i, iocc in enumerate(sector):
            for j, jocc in enumerate(sector):
                norm = sqrt(prod(factorial(x) for x in iocc)
                            * prod(factorial(x) for x in jocc))
                expected = permanent(submatrix_by_multiplicity(u, iocc, jocc)) / norm
                assert lifted.block(n)[i, j] == pytest.approx(expected, abs=1e-12)


def test_homomorphism_per_sector():
    rng_seeds = [(2, 31, 32), (3, 33, 34), (4, 35, 36)]
    for modes, s1, s2 in rng_seeds:
        a = haar_random_unitary(modes, s1)
        b = haar_random_unitary(modes, s2)
        basis = FockBasis(modes, 3)
        la, lb, lab = lift(a, basis), lift(b, basis), lift(a @ b, basis)
        for n in range(4):
            np.testing.assert_allclose(la.block(n) @ lb.block(n), lab.block(n),
                                       atol=1e-10)


def test_sector_unitarity():
    for modes in (2, 3, 4):
        u = haar_random_unitary(modes, modes + 40)
        basis = FockBasis(modes, 3)
        lifted = lift(u, basis)
        for n in range(4):
            blk = lifted.block(n)
            np.testing.assert_allclose(blk.conj().T @ blk, np.eye(blk.shape[0]),
                                       atol=1e-10)


def test_lossy_blocks_are_contractions():
    u = haar_random_unitary(3, 50)
    lossy = np.diag([0.9, 0.7, 1.0]) @ u  # all singular values <= 1
    basis = FockBasis(3, 3)
    lifted = lift(lossy, basis)
    for n in range(4):
        assert np.linalg.norm(lifted.block(n), 2) <= 1 + 1e-10


def test_apply_pure_preserves_norm():
    rng = np.random.default_rng(61)
    u = haar_random_unitary(3, 62)
    basis = FockBasis(3, 3)
    lifted = lift(u, basis)
    vacuum = np.zeros(basis.size, dtype=complex)
    vacuum[0] = 1.0
    np.testing.assert_allclose(lifted.apply_pure(vacuum), vacuum, atol=1e-14)
    psi = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
    psi /= np.linalg.norm(psi)
    assert np.linalg.norm(lifted.apply_pure(psi)) == pytest.approx(1.0, abs=1e-12)


def test_conjugate_matches_full_matrix():
    rng = np.random.default_rng(63)
    u = haar_random_unitary(2, 64)
    basis = FockBasis(2, 3)
    lifted = lift(u, basis)
    g = rng.standard_normal((basis.size,) * 2) + 1j * rng.standard_normal((basis.size,) * 2)
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    full = lifted.full()
    np.testing.assert_allclose(lifted.conjugate(rho), full @ rho @ full.conj().T,
                               atol=1e-12)


@pytest.mark.parametrize("modes, n_max, transmission",
                         [(2, 5, 1.0), (3, 4, 1.0), (3, 4, 0.8), (4, 3, 1.0)])
def test_conjugate_matches_all_blocks_loop(modes, n_max, transmission):
    basis = FockBasis(modes, n_max)
    lifted = lift(transmission * haar_random_unitary(modes, 80 + modes), basis)
    coherent = random_density_matrix(basis, 81).mat
    totals = basis.totals()
    block_diagonal = np.where(totals[:, None] == totals[None, :], coherent, 0.0)
    one_empty = block_diagonal.copy()
    one_empty[basis.sector_slice(1)] = 0.0
    one_empty[:, basis.sector_slice(1)] = 0.0
    for rho in (coherent, block_diagonal, one_empty, np.asfortranarray(block_diagonal)):
        np.testing.assert_array_equal(lifted.conjugate(rho), conjugate_dense(lifted, rho))


def test_lift_apply_fock_matches_block_column():
    u = haar_random_unitary(3, 70)
    basis = FockBasis(3, 4)
    lifted = lift(u, basis)
    occ = (2, 1, 1)
    col = lift_apply_fock(u, occ)
    sector = enumerate_sector(basis.modes, 4)
    rank = {s: i for i, s in enumerate(sector)}
    np.testing.assert_allclose(col, lifted.block(4)[:, rank[occ]], atol=1e-12)


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        lift(np.eye(3), FockBasis(2, 2))


def _bits(a: np.ndarray) -> np.ndarray:
    """The raw bit patterns of a complex array: equal bits mean equal values
    and equal signs of zero in both the real and imaginary parts."""
    return np.ascontiguousarray(a).view(np.uint64)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(modes=st.integers(1, 6), n_max=st.integers(0, 6), seed=st.integers(0, 2**31),
       contraction=st.booleans(), data=st.data())
def test_block_lift_is_bit_identical_to_column_recurrence(modes, n_max, seed, contraction,
                                                          data):
    if contraction:
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((modes, modes)) + 1j * rng.standard_normal((modes, modes))
        u = g * (data.draw(st.floats(0.05, 1.0)) / np.linalg.norm(g, 2))
    else:
        u = haar_random_unitary(modes, seed)
    # each column is its parent column raised by one photon, every column
    # of a sector at once (the whole-sector recurrence the row panels replaced)
    lifted = lift(u, FockBasis(modes, n_max))
    for n, expected in enumerate(lift_blocks_whole(np.asarray(u, dtype=complex), n_max)):
        np.testing.assert_array_equal(_bits(lifted.block(n)), _bits(expected))
    occ = tuple(data.draw(st.lists(st.integers(0, 6), min_size=modes, max_size=modes)
                          .filter(lambda o: sum(o) <= n_max)))
    np.testing.assert_array_equal(_bits(lift_apply_fock(u, occ)),
                                  _bits(lift_apply_fock_whole(u, occ)))


def _pinned_matrices(modes: int) -> dict:
    """Haar, a contraction, and matrices with exact zeros, ones and signs."""
    haar = haar_random_unitary(modes, 90 + modes)
    mats = {"haar": haar, "0.9 haar": 0.9 * haar, "identity": np.eye(modes),
            "reversal": np.eye(modes)[::-1],
            "phases": np.diag(np.exp(0.7j * np.arange(1, modes + 1)))}
    if modes >= 2:
        bs = np.eye(modes)
        bs[:2, :2] = BS
        mats["beam splitter"] = bs
    return mats


_PINNED_N_MAX = {1: 8, 2: 10, 3: 7, 4: 6, 5: 5, 6: 5}


@pytest.mark.parametrize("panel", [None, 5])
@pytest.mark.parametrize("modes", sorted(_PINNED_N_MAX))
def test_panel_lift_is_bit_identical_to_whole_sector_lift(modes, panel, monkeypatch):
    # panel 5 puts every row of a sector with 5 or more columns in its own panel
    if panel is not None:
        monkeypatch.setattr(importlib.import_module("bosonloop.lift"), "_PANEL", panel)
    n_max = _PINNED_N_MAX[modes]
    rng = np.random.default_rng(modes)
    for name, u in _pinned_matrices(modes).items():
        lifted = lift(u, FockBasis(modes, n_max))
        for n, expected in enumerate(lift_blocks_whole(np.asarray(u, dtype=complex), n_max)):
            np.testing.assert_array_equal(_bits(lifted.block(n)), _bits(expected),
                                          err_msg=f"{name}, sector {n}")
        for _ in range(4):
            occ = tuple(rng.multinomial(n_max, np.full(modes, 1 / modes)))
            np.testing.assert_array_equal(_bits(lift_apply_fock(u, occ)),
                                          _bits(lift_apply_fock_whole(u, occ)),
                                          err_msg=f"{name}, {occ}")


def test_lift_apply_fock_over_several_panels_is_bit_identical():
    # 5 photons in 20 modes: a 42504-state sector, three panels of one column
    u = haar_random_unitary(20, 7)
    occ = (1, 0, 2, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1)
    np.testing.assert_array_equal(_bits(lift_apply_fock(u, occ)),
                                  _bits(lift_apply_fock_whole(u, occ)))
