"""Occupation-number bases for M optical modes truncated at a total photon number.

A basis state is a plain tuple of per-mode photon counts, e.g. ``(1, 0, 2)``.
States are grouped into sectors of fixed total photon number; sectors are
ordered by increasing total, and within a sector states are sorted in
ascending lexicographic order.  All indices are 0-based.
"""

from functools import lru_cache, wraps
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


def read_only(value):
    """`value`, with every array in it, through nested tuples, made read-only."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, tuple):
        try:
            hash(value)  # holds no array, which is unhashable: nothing to walk
        except TypeError:
            for item in value:
                read_only(item)
    return value


def frozen_cache(func):
    """`lru_cache(maxsize=None)` of `func`, whose result is `read_only`: every
    caller is handed the one cached result, so none may write into it."""
    @lru_cache(maxsize=None)
    @wraps(func)
    def cached(*args, **kwargs):
        return read_only(func(*args, **kwargs))
    return cached


@frozen_cache
def enumerate_sector(modes: int, total: int) -> tuple:
    """All occupation tuples of length `modes` summing to `total`, in ascending
    lexicographic order (cached table)."""
    _check_args(modes, total)
    if modes == 1:
        return ((total,),)
    return tuple((head,) + rest for head in range(total + 1)
                 for rest in enumerate_sector(modes - 1, total - head))


# (modes, n_max) -> the one FockBasis of those dimensions
_BASES = {}


def _new_basis(modes: int, n_max: int) -> "FockBasis":
    """A FockBasis of these dimensions with its tables: read-only sector
    offsets, sector slices, states, the state -> index dict and the
    read-only total photon number of every state."""
    if modes < 0:
        raise ValueError(f"mode count must be >= 0, got {modes}")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if modes == 0:
        sectors = (((),),) + ((),) * n_max
    else:
        sectors = tuple(enumerate_sector(modes, n) for n in range(n_max + 1))
    basis = object.__new__(FockBasis)
    basis.modes, basis.n_max = modes, n_max
    basis._offsets = read_only(np.concatenate([[0], np.cumsum([len(s) for s in sectors])]))
    basis._slices = tuple(slice(int(a), int(b))
                          for a, b in zip(basis._offsets[:-1], basis._offsets[1:]))
    basis.states = tuple(occ for sec in sectors for occ in sec)
    basis._index = {occ: i for i, occ in enumerate(basis.states)}
    basis.size = len(basis.states)
    basis._totals = read_only(np.repeat(np.arange(n_max + 1), np.diff(basis._offsets)))
    return basis


class FockBasis:
    """Canonical enumeration of occupation states for `modes` modes, 0..n_max photons.

    There is one instance per (modes, n_max): the constructor returns it,
    with its lookup tables built the first time, so bases compare and hash
    by identity, and the object is immutable and safe to share across
    threads.  A zero-mode basis (single vacuum state ``()``) is permitted as
    the trivial result of tracing out every mode.
    """

    def __new__(cls, modes: int, n_max: int):
        basis = _BASES.get((modes, n_max))
        if basis is None:
            # should two threads both build one, setdefault keeps the first
            basis = _BASES.setdefault((modes, n_max), _new_basis(modes, n_max))
        return basis

    def __init__(self, modes: int, n_max: int):
        """Nothing left to set: `__new__` returned the finished instance.
        Kept as the constructor's hook, which `perfbench/tracer.py` wraps."""

    def __reduce__(self):
        return FockBasis, (self.modes, self.n_max)

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
        """Total photon number of every basis state, as a read-only int array."""
        return self._totals

    def __repr__(self):
        return f"FockBasis(modes={self.modes}, n_max={self.n_max})"


@frozen_cache
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
    return out
