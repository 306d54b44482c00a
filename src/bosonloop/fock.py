"""Occupation-number bases for M optical modes truncated at a total photon number.

A basis state is a plain tuple of per-mode photon counts, e.g. ``(1, 0, 2)``.
States are grouped into sectors of fixed total photon number; sectors are
ordered by increasing total, and within a sector states are sorted in
ascending lexicographic order.  All indices are 0-based.
"""

from functools import lru_cache
from math import comb

import numpy as np

from .errors import OutOfBasisError


def sector_size(modes: int, total: int) -> int:
    """Number of ways to put `total` photons into `modes` modes."""
    _check_args(modes, total)
    return comb(modes + total - 1, total)


def total_size(modes: int, n_max: int) -> int:
    """Dimension of the truncated space with 0..n_max photons in `modes` modes."""
    _check_args(modes, n_max)
    return comb(modes + n_max, n_max)


def _check_args(modes, total):
    if modes < 1:
        raise ValueError(f"mode count must be >= 1, got {modes}")
    if total < 0:
        raise ValueError(f"photon number must be >= 0, got {total}")


@lru_cache(maxsize=None)
def enumerate_sector(modes: int, total: int) -> tuple:
    """All occupation tuples of length `modes` summing to `total`, in ascending
    lexicographic order (cached table)."""
    _check_args(modes, total)
    if modes == 1:
        return ((total,),)
    return tuple((head,) + rest for head in range(total + 1)
                 for rest in enumerate_sector(modes - 1, total - head))


@lru_cache(maxsize=None)
def _basis_tables(modes: int, n_max: int) -> tuple:
    """Sectors, read-only sector offsets, sector slices, states and the
    state -> index dict of one basis (cached table, shared by every
    FockBasis of these dimensions)."""
    if modes == 0:
        sectors = (((),),) + ((),) * n_max
    else:
        sectors = tuple(enumerate_sector(modes, n) for n in range(n_max + 1))
    offsets = np.concatenate([[0], np.cumsum([len(s) for s in sectors])])
    offsets.flags.writeable = False
    slices = tuple(slice(int(a), int(b)) for a, b in zip(offsets[:-1], offsets[1:]))
    states = tuple(occ for sec in sectors for occ in sec)
    return sectors, offsets, slices, states, {occ: i for i, occ in enumerate(states)}


class FockBasis:
    """Canonical enumeration of occupation states for `modes` modes, 0..n_max photons.

    Immutable after construction; the lookup tables are built once per
    (modes, n_max) and shared, and the object is safe to share across threads.
    A zero-mode basis (single vacuum state ``()``) is permitted as the trivial
    result of tracing out every mode.
    """

    def __init__(self, modes: int, n_max: int):
        if modes < 0:
            raise ValueError(f"mode count must be >= 0, got {modes}")
        if n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {n_max}")
        self.modes = modes
        self.n_max = n_max
        self._sectors, self._offsets, self._slices, self.states, self._index = \
            _basis_tables(modes, n_max)
        self.size = len(self.states)

    def sector(self, total: int):
        """Ordered occupation tuples of the fixed-total sector."""
        return self._sectors[total]

    def sector_slice(self, total: int) -> slice:
        """Global index range of the fixed-total sector."""
        return self._slices[total]

    def index_of(self, occupation) -> int:
        """Global index of an occupation tuple; OutOfBasisError if absent."""
        try:
            return self._index[tuple(occupation)]
        except KeyError:
            raise OutOfBasisError(
                f"state {tuple(occupation)} not in basis "
                f"(modes={self.modes}, n_max={self.n_max})"
            ) from None

    def state(self, index: int):
        """Occupation tuple at a global index."""
        return self.states[index]

    def totals(self) -> np.ndarray:
        """Total photon number of every basis state, as an int array."""
        return np.repeat(np.arange(self.n_max + 1), np.diff(self._offsets))

    def __len__(self):
        return self.size

    def __eq__(self, other):
        return (
            isinstance(other, FockBasis)
            and self.modes == other.modes
            and self.n_max == other.n_max
        )

    def __hash__(self):
        return hash((self.modes, self.n_max))

    def __repr__(self):
        return f"FockBasis(modes={self.modes}, n_max={self.n_max})"


@lru_cache(maxsize=None)
def tensor_index_map(basis_a: FockBasis, basis_b: FockBasis, joint: FockBasis) -> np.ndarray:
    """Index map for concatenating subsystem states, A's modes leading.

    Returns a read-only int array of shape (basis_a.size, basis_b.size)
    whose entry [ia, ib] is the global joint index of the concatenated
    occupation, or -1 when the combined total exceeds joint.n_max (cached
    table).  The map is injective on its valid domain.
    """
    if joint.modes != basis_a.modes + basis_b.modes:
        raise ValueError(
            f"joint basis has {joint.modes} modes, expected "
            f"{basis_a.modes} + {basis_b.modes}"
        )
    out = np.full((basis_a.size, basis_b.size), -1, dtype=int)
    for ia, occ_a in enumerate(basis_a.states):
        na = sum(occ_a)
        for ib, occ_b in enumerate(basis_b.states):
            if na + sum(occ_b) <= joint.n_max:
                out[ia, ib] = joint.index_of(occ_a + occ_b)
    out.flags.writeable = False
    return out
