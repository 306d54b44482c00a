import itertools

import numpy as np
import pytest

from bosonloop.errors import OutOfBasisError
from bosonloop.fock import (FockBasis, enumerate_sector, sector_size,
                            tensor_index_map, total_size)


def brute_sector(modes, total):
    """Independent enumeration: filter the full product grid."""
    return sorted(
        occ for occ in itertools.product(range(total + 1), repeat=modes)
        if sum(occ) == total
    )


def test_sector_size_known_values():
    assert sector_size(3, 2) == 6  # the six two-photon states on three modes
    assert sector_size(5, 0) == 1
    assert sector_size(4, 3) == len(brute_sector(4, 3)) == 20


def test_total_size_known_values():
    assert total_size(3, 2) == 10
    assert total_size(1, 5) == 6
    assert total_size(2, 1) == len(brute_sector(2, 0)) + len(brute_sector(2, 1)) == 3


def test_sector_sizes_sum_to_total_size():
    for modes in range(1, 7):
        for n_max in range(7):
            assert total_size(modes, n_max) == sum(
                sector_size(modes, n) for n in range(n_max + 1)
            )


def test_invalid_arguments():
    with pytest.raises(ValueError):
        sector_size(0, 2)
    with pytest.raises(ValueError):
        total_size(3, -1)


def test_enumerate_sector_ordering():
    assert enumerate_sector(3, 2) == (
        (0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0),
    )
    assert enumerate_sector(1, 4) == ((4,),)
    assert enumerate_sector(2, 2) == ((0, 2), (1, 1), (2, 0))


def test_enumeration_matches_brute_force():
    for modes in range(1, 5):
        for n in range(5):
            assert list(enumerate_sector(modes, n)) == brute_sector(modes, n)


def test_index_round_trip():
    for modes in range(1, 5):
        for n_max in range(5):
            basis = FockBasis(modes, n_max)
            for i, occ in enumerate(basis.states):
                assert basis.index_of(occ) == i
                assert basis.state(i) == occ


def test_smaller_truncation_is_the_leading_block():
    # so a state moves to a larger n_max by zero-padding (qstate.embed)
    for modes in range(1, 5):
        for n_big in range(8):
            big = FockBasis(modes, n_big)
            for n_small in range(n_big + 1):
                assert big.states[:total_size(modes, n_small)] == \
                    FockBasis(modes, n_small).states


def test_rank_in_sector_matches_listing():
    basis = FockBasis(3, 2)
    # the listing's 4th two-photon state, 0-based rank 3
    assert basis.index_of((1, 0, 1)) - basis.sector_slice(2).start == 3
    assert basis.index_of((0, 0, 0)) == 0
    assert basis.index_of((2, 0, 0)) == 9  # offset 1 + 3, rank 5


def test_out_of_basis():
    basis = FockBasis(2, 2)
    with pytest.raises(OutOfBasisError):
        basis.index_of((2, 1))
    with pytest.raises(OutOfBasisError):
        basis.index_of((-1, 1))


def test_tensor_index_map_concatenation():
    a = FockBasis(1, 2)
    b = FockBasis(2, 2)
    joint = FockBasis(3, 2)
    mp = tensor_index_map(a, b, joint)
    ia, ib = a.index_of((1,)), b.index_of((0, 1))
    assert joint.state(mp[ia, ib]) == (1, 0, 1)
    assert mp[ia, ib] - joint.sector_slice(2).start == 3
    assert mp[a.index_of((0,)), b.index_of((0, 0))] == 0
    # |0,1> (x) |1> with swapped roles
    mp2 = tensor_index_map(b, a, joint)
    assert joint.state(mp2[b.index_of((0, 1)), a.index_of((1,))]) == (0, 1, 1)
    assert joint.index_of((0, 1, 1)) - joint.sector_slice(2).start == 1


def test_tensor_index_map_injective_and_covering():
    a = FockBasis(2, 2)
    b = FockBasis(1, 2)
    joint = FockBasis(3, 2)
    mp = tensor_index_map(a, b, joint)
    valid = mp[mp >= 0]
    assert len(set(valid.tolist())) == valid.size  # injective
    expected = {
        joint.index_of(occ) for occ in joint.states
    }  # every joint state is some concatenation here
    assert set(valid.tolist()) == expected
    # totals above joint.n_max are unmapped
    assert mp[a.index_of((1, 1)), b.index_of((2,))] == -1


def test_zero_mode_basis_is_trivial():
    basis = FockBasis(0, 3)
    assert basis.size == 1
    assert basis.states == ((),)


def test_totals_and_occupations_arrays():
    basis = FockBasis(2, 3)
    occ = np.array(basis.states)
    np.testing.assert_array_equal(occ.sum(axis=1), basis.totals())
    assert occ.shape == (basis.size, 2)


def test_cached_tables_equal_a_fresh_enumeration():
    for modes in range(1, 5):
        for n_max in range(8):
            basis = FockBasis(modes, n_max)
            sectors = [brute_sector(modes, n) for n in range(n_max + 1)]
            states = [occ for sec in sectors for occ in sec]
            assert list(basis.states) == states and basis.size == len(states)
            start = 0
            for n, sec in enumerate(sectors):
                assert list(basis.sector(n)) == sec
                assert basis.sector_slice(n) == slice(start, start + len(sec))
                start += len(sec)
            assert [basis.index_of(occ) for occ in states] == list(range(len(states)))
            # a second basis of the same dimensions shares the tables
            again = FockBasis(modes, n_max)
            assert again.states is basis.states and again._offsets is basis._offsets


def test_shared_offsets_are_read_only():
    basis = FockBasis(2, 3)
    with pytest.raises(ValueError):
        basis._offsets[1] = 7
    np.testing.assert_array_equal(basis.totals(), [0, 1, 1, 2, 2, 2, 3, 3, 3, 3])
