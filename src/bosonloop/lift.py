"""Lift an M-mode transfer matrix to its block-diagonal Fock-space representation.

Convention
----------
The lifted operator acts on creation operators as

    L(U) a_dag[a] L(U)^dag = sum_b U[b, a] a_dag[b],

i.e. the column index of U is the input mode.  With photon-number sectors
ordered as in FockBasis, every sector block has entries

    block_n[i, j] = perm(U selected rows~i, cols~j) / sqrt(i! j!),

where i (output) and j (input) are occupation vectors of total n.  For a
unitary source each block is unitary; for a contraction (lossy transfer
matrix) each block has operator norm <= 1.  The single-photon block equals U
up to the permutation induced by the lexicographic ordering of one-photon
states.

Blocks are built by a creation-operator substitution recurrence, one photon
at a time from the block below; the permanent formula above is what the
tests check its entries against.
"""

from math import factorial, prod, sqrt

import numpy as np

from .fock import FockBasis, enumerate_sector, frozen_cache, read_only, sector_size


_PANEL = 1 << 14   # complex entries per row panel of `_add_photon`
_ONE_COLUMN = read_only(np.zeros(1, dtype=int))


@frozen_cache
def _raising_maps(modes: int, total: int):
    """Index/weight tables for adding one photon: sector total-1 -> sector total.

    For each mode b, target[b][r] is the rank in sector `total` of the state
    obtained by adding a photon in mode b to the r-th state of sector
    total-1, and weight[b][r] = sqrt(occ_b + 1).  Each map is increasing;
    start[b] is target[b][0] where the map is a contiguous range (always
    for mode 0, whose images are the tail of the sector, and for both modes
    when there are two), else None.
    """
    lower = enumerate_sector(modes, total - 1)
    rank = {occ: i for i, occ in enumerate(enumerate_sector(modes, total))}
    target = np.zeros((modes, len(lower)), dtype=int)
    weight = np.zeros((modes, len(lower)))
    for b in range(modes):
        for r, occ in enumerate(lower):
            raised = occ[:b] + (occ[b] + 1,) + occ[b + 1:]
            target[b, r] = rank[raised]
            weight[b, r] = sqrt(occ[b] + 1)
    start = tuple(int(t[0]) if t[-1] - t[0] == len(t) - 1 else None for t in target)
    return target, weight, start


@frozen_cache
def _parent_columns(modes: int, total: int):
    """For each state of sector `total`: its first occupied mode a, the rank
    of its parent (one photon fewer in mode a) in sector total-1, and
    1 / sqrt(occ_a) twice over, once for the real and once for the
    imaginary part of its column."""
    sec = enumerate_sector(modes, total)
    rank = {occ: i for i, occ in enumerate(enumerate_sector(modes, total - 1))}
    first = [next(i for i, x in enumerate(occ) if x > 0) for occ in sec]
    parent = [rank[occ[:a] + (occ[a] - 1,) + occ[a + 1:]] for a, occ in zip(first, sec)]
    norm = np.array([sqrt(occ[a]) for a, occ in zip(first, sec)])
    return np.array(first, dtype=int), np.array(parent, dtype=int), np.repeat(1.0 / norm, 2)


@frozen_cache
def _photon_panels(modes: int, total: int, width: int, panel: int) -> tuple:
    """The plan of `_add_photon` for `width` columns into sector `total`:
    that sector's size, and its row panels of sector total-1 of about
    `panel` entries, each (p0, p1, weights, targets): the panel's weights
    for each mode as a (p1 - p0, 1) column, and its target rows for each
    mode, a slice where the raising map is a contiguous range."""
    target, weight, start = _raising_maps(modes, total)
    lower = target.shape[1]
    rows = max(1, panel // width)
    panels = []
    for p0 in range(0, lower, rows):
        p1 = min(p0 + rows, lower)
        panels.append((p0, p1, weight[:, p0:p1, None], tuple(
            target[b, p0:p1] if start[b] is None else slice(start[b] + p0, start[b] + p1)
            for b in range(modes))))
    return sector_size(modes, total), tuple(panels)


def _add_photon(coef: np.ndarray, prev: np.ndarray, parent: np.ndarray,
                total: int) -> np.ndarray:
    """sum_b coef[b, j] a_dag[b] applied to column parent[j] of the
    amplitudes `prev` on sector total-1, for every j at once; returns the
    amplitudes on sector `total`, one column per j.

    The rows of `prev` go through in the panels of `_photon_panels`,
    gathered in C order; a raising map that is a contiguous range adds
    through a slice instead of a gather and a scatter.  Each output row
    gets its terms in ascending b, as one column at a time would: its
    parents r - e_b rise with b in lexicographic order, so the panels meet
    them in that order.  The weight multiplies the float64 view, which
    rounds as real x complex does on entries that are never -0.0 (sums
    from +0.0 are not).  The coefficients enter as (1, k) rows: on numpy
    2.4.6 (AVX-512) a (1,) row times a 1 x 1 array rounds like the
    plain-Python product, without the fused multiply-add of the other
    layouts, so single-column results would drift by an ulp."""
    size, panels = _photon_panels(len(coef), total, len(parent), _PANEL)
    out = np.zeros((size, len(parent)), dtype=complex)
    coef_rows = [coef[b:b + 1] for b in range(len(coef))]
    for p0, p1, weights, targets in panels:
        amps = prev[p0:p1].take(parent, axis=1).view(np.float64)
        for row, weight, to in zip(coef_rows, weights, targets):
            out[to] += row * (weight * amps).view(complex)
    return out


class LiftedUnitary:
    """Per-sector Fock-space blocks of a transfer matrix, computed lazily.

    A block depends on the matrix and the photon number, not on the
    truncation, so liftings of one matrix onto several truncations of its
    modes may share one memo: `blocks`, a dict of the blocks lifted so far,
    keyed by photon number and filled by whichever lifting needs a block
    first.  A block is read-only from when it enters the memo.
    """

    def __init__(self, matrix: np.ndarray, basis: FockBasis, blocks: dict | None = None):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (basis.modes, basis.modes):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match basis with {basis.modes} modes"
            )
        self.matrix = matrix
        self.basis = basis
        self._blocks = {} if blocks is None else blocks
        self._blocks.setdefault(0, read_only(np.ones((1, 1), dtype=complex)))

    def block(self, total: int) -> np.ndarray:
        """Sector block for a fixed total photon number (memoized)."""
        if not 0 <= total <= self.basis.n_max:
            raise ValueError(f"sector {total} outside 0..{self.basis.n_max}")
        for n in range(len(self._blocks), total + 1):
            self._blocks[n] = read_only(self._block_recurrence(n))
        return self._blocks[total]

    def _block_recurrence(self, n: int) -> np.ndarray:
        """Column j is L(U)|occ_j>: one photon in the first occupied mode a
        of occ_j added to the parent column, divided by sqrt(occ_j[a]).  The
        division multiplies the float64 view by the reciprocal in place, as
        numpy's complex / real does."""
        first, parent, scale = _parent_columns(self.basis.modes, n)
        out = _add_photon(self.matrix.take(first, axis=1), self._blocks[n - 1], parent, n)
        parts = out.view(np.float64)
        parts *= scale
        return out

    def full(self) -> np.ndarray:
        """Dense block-diagonal matrix over the whole truncated basis."""
        out = np.zeros((self.basis.size, self.basis.size), dtype=complex)
        for n in range(self.basis.n_max + 1):
            sl = self.basis.sector_slice(n)
            out[sl, sl] = self.block(n)
        return out

    def apply_pure(self, amplitudes: np.ndarray) -> np.ndarray:
        """Blockwise matrix-vector product on a state-amplitude vector."""
        amplitudes = np.asarray(amplitudes, dtype=complex)
        if amplitudes.shape != (self.basis.size,):
            raise ValueError(
                f"amplitude vector has length {amplitudes.size}, basis needs {self.basis.size}"
            )
        out = np.empty_like(amplitudes)
        for n in range(self.basis.n_max + 1):
            sl = self.basis.sector_slice(n)
            out[sl] = self.block(n) @ amplitudes[sl]
        return out

    def conjugate(self, rho: np.ndarray) -> np.ndarray:
        """Blockwise L(U) rho L(U)^dag on a raw density-matrix array: the
        blocks of `conjugate_blocks` scattered into zeros."""
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (self.basis.size, self.basis.size):
            raise ValueError("density matrix shape does not match the basis")
        slices = [self.basis.sector_slice(n) for n in range(self.basis.n_max + 1)]
        out = np.zeros((self.basis.size, self.basis.size), dtype=complex)
        for (n, m), block in self.conjugate_blocks({(n, m): rho[sn, sm]
                                                    for n, sn in enumerate(slices)
                                                    for m, sm in enumerate(slices)}):
            out[slices[n], slices[m]] = block
        return out

    def conjugate_blocks(self, blocks: dict):
        """Yield ((n, n'), block(n) @ R @ block(n')^dag) for each sector-pair
        block (n, n') -> R of rho that is not all zero, in sorted (n, n')
        order: the nonzero blocks of L(U) rho L(U)^dag.

        It consumes `blocks`, dropping each R once T = block(n) @ R exists,
        and forms conj(conj(T) @ block(n')^T) with both conjugations in
        place, so no conjugated copy of a lifted block is made: conjugating
        both factors negates every term's imaginary part exactly.  The
        outer conjugation turns +0.0 zeros into -0.0; adding +0.0 undoes it."""
        for n, m in sorted(blocks):
            r = blocks.pop((n, m))
            if not r.any():
                continue
            t = self.block(n) @ r
            del r
            x = np.conjugate(t, out=t) @ self.block(m).T
            del t
            np.conjugate(x, out=x)
            x += 0.0
            yield (n, m), x


def lift(matrix: np.ndarray, basis: FockBasis, blocks: dict | None = None) -> LiftedUnitary:
    """Lift a transfer matrix onto the truncated Fock basis, memoizing its
    sector blocks in `blocks` when given (see `LiftedUnitary`)."""
    return LiftedUnitary(matrix, basis, blocks)


def lift_apply_fock(matrix: np.ndarray, occupation) -> np.ndarray:
    """Amplitudes of L(U)|occupation> over that photon-number sector only.

    Avoids building any block: applies one substituted creation operator per
    photon, so the cost is sum over partial sectors of (modes x sector size).
    Used by the unfolding engine, where only a single column of a very large
    sector block is ever needed.
    """
    matrix = np.asarray(matrix, dtype=complex)
    occupation = tuple(occupation)
    if len(occupation) != matrix.shape[0]:
        raise ValueError("occupation length does not match the matrix dimension")
    amps = np.ones((1, 1), dtype=complex)
    n = 0
    for mode, count in enumerate(occupation):
        for _ in range(count):
            n += 1
            amps = _add_photon(matrix[:, mode:mode + 1], amps, _ONE_COLUMN, n)
    norm = sqrt(prod(factorial(x) for x in occupation))
    return amps[:, 0] / norm
