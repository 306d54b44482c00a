"""Quantum channels on the looped modes: Kraus sets, superoperators, fixed points.

Truncation bookkeeping is explicit: every channel carries
`valid_max_photons`, the largest total photon number of input states for
which the Kraus set is complete (sum K^dag K = identity) on the truncated
space.  Applying a channel to states populated beyond that bound is a hard
error rather than a silent leak.

Photon-number structure: a Kraus operator whose nonzero entries all move
the photon number by one shift maps |i><j| to operators of the same charge
n_i - n_j.  When every Kraus operator has one shift (Fock and
number-diagonal inputs, with or without losses), the superoperator G is
block-diagonal in the charge, the stationary state lies in the charge-0
block, and fixed points, spectra and iterates are computed on the blocks.
A Kraus set with coherences between sectors is the case of one block
holding all of G.
"""

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property
from math import comb, sqrt

import numpy as np

from .errors import DENSE_DIM_CAP, DegenerateFixedPointError, TruncationError, check_size
from .fock import FockBasis, frozen_cache, read_only, tensor_index_map
from .lift import LiftedUnitary
from .qstate import (LEAK_TOLERANCE, POPULATED_CUTOFF, DensityMatrix, block0_layout,
                     charge_split, joint_parts)

_EIG_CUTOFF = 1e-12       # eigenvalues of rho_ext below this are dropped
_PRUNE_NORM = 1e-14       # Kraus operators with max |entry| below this are pruned
_FIXED_POINT_RESIDUAL = 1e-10  # relative |G x - x| above which fixed_point gives up
_DEGENERACY_GAP = 1e-8    # eigenvalues this close to the unit one count as degenerate
_UNIT_TOL = 1e-6          # largest distance of the principal eigenvalue from 1
_PAIR_BATCH = 1 << 16     # Kraus nonzero pairs formed at once when building blocks


class QuantumChannel:
    """A finite Kraus set acting on a truncated Fock space of the looped modes.

    The operators are stored as their nonzero entries (rows, cols, values,
    owner), made read-only: operator after operator, each row by row as
    np.nonzero lists them, with owner the index of the operator each entry
    comes from; the owners run 0, 1, ... with every operator owning an
    entry.  The Kraus sum scatters one operator at a time from them, and
    each charge block of G is read-only once built.
    """

    def __init__(self, basis: FockBasis, nonzeros: tuple, valid_max_photons: int,
                 max_photon_gain: int = 0):
        self.basis = basis
        self.nonzeros = read_only(nonzeros)
        self.valid_max_photons = int(valid_max_photons)
        self.max_photon_gain = int(max_photon_gain)
        self._superop_blocks = {}

    @cached_property
    def kraus(self) -> list:
        """The dense operators, scattered from the nonzeros: a view that no
        route reads."""
        return [read_only(k) for k in self._operators()]

    def _operators(self):
        """The dense operators in order, each scattered from its run of
        nonzeros when it is asked for, so that one is held at a time."""
        rows, cols, values, owner = self.nonzeros
        d = self.basis.size
        for start, count in zip(*(a.tolist() for a in _runs(owner))):
            at = slice(start, start + count)
            k = np.zeros((d, d), dtype=complex)
            k[rows[at], cols[at]] = values[at]
            yield k

    def completeness_operator(self) -> np.ndarray:
        """sum K^dag K, identity on the valid subspace."""
        out = np.zeros((self.basis.size, self.basis.size), dtype=complex)
        for k in self._operators():
            out += k.conj().T @ k
        return out

    @cached_property
    def charge_blocks(self) -> tuple:
        """Column-stacked indices (i + d j) of the blocks of G, grouped by the
        charge n_i - n_j with charge 0 first; a single block of every index
        when some Kraus operator mixes photon-number shifts."""
        totals = self.basis.totals()
        rows, cols, _, owner = self.nonzeros
        shifts = totals[rows] - totals[cols]
        return charge_split(self.basis, bool(np.any((owner[1:] == owner[:-1])
                                                    & (shifts[1:] != shifts[:-1]))))

    @property
    def _layout(self) -> tuple:
        """`block0_layout` of charge block 0: the whole layout when G is one block."""
        return block0_layout(self.basis, len(self.charge_blocks) == 1)

    def superop_block(self, b: int) -> np.ndarray:
        """G restricted to charge block `b`, memoized.  Block 0 is built on
        its own; the first request for any other block builds all of those."""
        if b not in self._superop_blocks:
            which = [0] if b == 0 else range(1, len(self.charge_blocks))
            self._superop_blocks.update(zip(which, map(read_only, self._build_blocks(which))))
        return self._superop_blocks[b]

    def _build_blocks(self, which) -> list:
        """Charge blocks `which` of G, from the Kraus nonzeros (r, c, v).

        Each pair p, q of one operator's nonzeros adds v_p conj(v_q) at
        (r_p + d r_q, c_p + d c_q), inside one block; into block 0 of several
        only pairs within one row sector go, so pairs are formed within
        groups: the operators, or their row sectors.  np.add.at adds them one
        after another in operator order into blocks that start at +0, the
        order of the Kraus sum; the products skipped are exact zeros, which
        change no sum and no sign.  Both factors are contiguous 1-D gathers
        (on numpy 2.4.6 a broadcast outer product gave the same bits; see
        `lift._add_photon` for the one layout that did not).  At most
        _PAIR_BATCH pairs, or one group's, are formed at a time.
        """
        d = self.basis.size
        sizes = [self.charge_blocks[b].size for b in which]
        for m in sizes:
            check_size("the superoperator block dimension", m)
        row_at, col_at, offsets = _block_positions(self.basis, tuple(which),
                                                   len(self.charge_blocks) == 1)
        flat = np.zeros(offsets[-1], dtype=complex)

        rows, cols, values, group = self.nonzeros
        if 0 in which and len(self.charge_blocks) > 1:
            group = group * (self.basis.n_max + 1) + self.basis.totals()[rows]
        first, counts = _runs(group)
        conj = values.conj()
        pair_end = np.cumsum(counts ** 2)
        pair_start = pair_end - counts ** 2
        lo = 0
        while lo < counts.size:
            hi = max(lo + 1, int(np.searchsorted(pair_end, pair_start[lo] + _PAIR_BATCH,
                                                 side="right")))
            owner = np.repeat(np.arange(lo, hi), counts[lo:hi] ** 2)   # group of each pair
            p, q = np.divmod(np.arange(pair_start[lo], pair_end[hi - 1]) - pair_start[owner],
                             counts[owner])
            p, q = p + first[owner], q + first[owner]
            at = row_at[rows[p] + d * rows[q]]
            keep = at >= 0
            p, q = p[keep], q[keep]
            np.add.at(flat, at[keep] + col_at[cols[p] + d * cols[q]], values[p] * conj[q])
            lo = hi
        return [flat[o:o + m * m].reshape(m, m) for o, m in zip(offsets.tolist(), sizes)]

    def apply_matrix(self, mat: np.ndarray) -> np.ndarray:
        """Raw Kraus sum on an array, one operator at a time in operator order."""
        out = np.zeros_like(mat, dtype=complex)
        for k in self._operators():
            out += k @ mat @ k.conj().T
        return out

    def apply(self, rho: DensityMatrix) -> DensityMatrix:
        """Apply the channel to a state within the valid subspace.

        A state inside the charge-0 block of a charge-conserving channel takes
        one matrix-vector product with that block (`_step_block`), its
        `charge0()` entries, and comes out in the vector form of
        `DensityMatrix.from_block0`.  Every other state takes the Kraus sum.
        Population above `valid_max_photons` exceeding LEAK_TOLERANCE raises
        TruncationError, whose `required_n_max` is the state's top populated
        sector plus the slack n_max - valid_max_photons (N_env for a loop
        channel); smaller amounts are allowed to leak and the output trace is
        renormalized.
        """
        if rho.basis != self.basis:
            raise ValueError("state basis does not match the channel basis")
        above = rho.sector_weights(self.valid_max_photons)
        excess = float(np.add.reduce(above))
        if excess > LEAK_TOLERANCE:
            # rho.max_populated_sector(), without a second pass when it lies past the bound
            populated = np.flatnonzero(above > POPULATED_CUTOFF)
            top = (self.valid_max_photons + 1 + int(populated[-1]) if populated.size
                   else rho.max_populated_sector())
            raise TruncationError(
                f"state populates sectors above the channel validity bound "
                f"{self.valid_max_photons} with weight {excess:.3e}",
                required_n_max=top + self.basis.n_max - self.valid_max_photons)
        x = None if self._step_block is None else rho.charge0()
        if x is not None:
            out = self._step_block @ x
            if excess > 0.0:
                out /= _kept_trace(np.add.reduce(out[self._layout[3]]))
            return DensityMatrix.from_block0(self.basis, out)
        out = self.apply_matrix(rho.mat)
        if excess > 0.0:
            out /= _kept_trace(np.trace(out))
        return DensityMatrix(self.basis, out, check=False)

    @cached_property
    def _step_block(self) -> np.ndarray | None:
        """G_0, through which `apply` steps a state inside the charge-0 block;
        None when G is one block or G_0 is over the dense cap."""
        if len(self.charge_blocks) > 1 and self.charge_blocks[0].size <= DENSE_DIM_CAP:
            return self.superop_block(0)
        return None

    def __repr__(self):
        return (
            f"QuantumChannel(basis={self.basis!r}, n_kraus={self.nonzeros[3][-1] + 1}, "
            f"valid_max_photons={self.valid_max_photons})"
        )


@frozen_cache
def _block_positions(basis: FockBasis, which: tuple, whole: bool) -> tuple:
    """Where each column-stacked index's row, and its column, falls in the
    charge blocks `which` of G stacked flat, -1 for a row outside them, and
    each block's offset in that stack: the blocks of `charge_split(basis, whole)`."""
    d = basis.size
    blocks = charge_split(basis, whole)
    sizes = [blocks[b].size for b in which]
    row_at = np.full(d * d, -1)
    col_at = np.zeros(d * d, dtype=int)
    offsets = np.cumsum([0] + [m * m for m in sizes])
    for b, m, offset in zip(which, sizes, offsets):
        row_at[blocks[b]] = offset + m * np.arange(m)
        col_at[blocks[b]] = np.arange(m)
    return row_at, col_at, offsets


def _kept_trace(tr: complex) -> float:
    """The real part of a channel output's trace, which must be positive."""
    if tr.real <= 0:
        raise TruncationError("channel output lost all weight to truncation")
    return tr.real


@frozen_cache
def _output_order(ext_basis: FockBasis, loop_basis: FockBasis, joint: FockBasis) -> tuple:
    """The joint states J = |m> tensor |i> of `ext_basis` and `loop_basis`
    in (m, i) order: the place of each J in that order, and the m and the i
    at each place."""
    out_of, row_of = joint_parts(ext_basis, loop_basis, joint)
    order = np.argsort(out_of * loop_basis.size + row_of)
    place = np.empty_like(order)
    place[order] = np.arange(order.size)
    return place, out_of[order], row_of[order]


@frozen_cache
def _lifted_columns(ext_basis: FockBasis, loop_basis: FockBasis, joint: FockBasis,
                    alpha: int) -> tuple:
    """Where the columns L(U) (|alpha> tensor |j>) of the loop basis states j
    lie: (n, src) for each joint sector n >= n_alpha, with src the flat
    positions in block n, and dst, the flat positions P * d + j of the same
    entries, sector after sector, in a (joint.size, d) array whose rows are
    the joint states in the (m, i) order of `_output_order` over the whole
    external basis.  Loop sector k meets |alpha> in joint sector n_alpha + k."""
    d = loop_basis.size
    jmap_in = tensor_index_map(ext_basis, loop_basis, joint)
    place = _output_order(FockBasis(ext_basis.modes, joint.n_max), loop_basis, joint)[0]
    n_alpha = sum(ext_basis.state(alpha))
    sectors, dst = [], []
    for k in range(joint.n_max - n_alpha + 1):
        n, loop_k = n_alpha + k, loop_basis.sector_slice(k)
        js = np.arange(loop_k.start, loop_k.stop)
        rows = np.arange(joint.sector_slice(n).start, joint.sector_slice(n).stop)
        src = np.arange(rows.size)[:, None] * rows.size + (jmap_in[alpha, js] - rows[0])
        sectors.append((n, src.ravel()))
        dst.append((place[rows][:, None] * d + js).ravel())
    return tuple(sectors), np.concatenate(dst)


def loop_channel(lifted: LiftedUnitary, rho_ext: DensityMatrix) -> QuantumChannel:
    """One-iteration channel on the looped modes: inject rho_ext, evolve, trace out.

    rho_ext lives on the external modes (the leading M-L ones); the looped
    modes are the trailing L.  Spectrally decomposes rho_ext (eigenvalues
    below 1e-12 dropped; a pure number state's one pair is read off, see
    `_eigenpairs`) and emits K = sqrt(lambda_j) <m| L(U) |psi_j> for
    every external output basis state m, pruning Kraus operators that vanish
    by photon-number bookkeeping.  The columns of L(U) are read from its
    sector blocks, gathered once per nonzero amplitude of psi_j; the dense
    lifted matrix is never built, nor are the dense operators: the channel
    is made from their nonzero entries.
    """
    joint = lifted.basis
    ext_basis = rho_ext.basis
    n_looped = joint.modes - ext_basis.modes
    if n_looped < 1:
        raise ValueError("lifted matrix must cover at least one looped mode beyond rho_ext")
    loop_basis = FockBasis(n_looped, joint.n_max)
    n_env = rho_ext.max_populated_sector()
    if n_env > joint.n_max:
        raise TruncationError("rho_ext populates sectors beyond the joint truncation")

    evals, evecs = _eigenpairs(rho_ext.mat)
    d = loop_basis.size
    # the injected state may live on a smaller truncation than the joint
    # space, but the output projectors <m| span the full external basis:
    # place P holds joint state |m> tensor |i> for out_of[P] = m, row_of[P] = i
    _, out_of, row_of = _output_order(FockBasis(ext_basis.modes, joint.n_max), loop_basis,
                                      joint)

    parts = []
    for j, (lam, psi) in enumerate(zip(evals, evecs.T)):
        if lam < _EIG_CUTOFF:
            continue
        # columns of L(U) applied to |psi> tensor each loop basis state, in
        # (m, i, j) order; the entries no sector block reaches stay zero
        w = np.zeros(joint.size * d, dtype=complex)
        for alpha, c in enumerate(psi.tolist()):
            if abs(c) >= 1e-16:
                sectors, dst = _lifted_columns(ext_basis, loop_basis, joint, alpha)
                w[dst] += c * np.concatenate([lifted.block(n).take(src) for n, src in sectors])
        at = np.flatnonzero(w)
        values = sqrt(lam) * w[at]
        nonzero = values != 0
        at, cols = np.divmod(at[nonzero], d)
        # operator (j, m) is the run of entries of output state m
        parts.append((row_of[at], cols, values[nonzero], j * joint.size + out_of[at]))
    return QuantumChannel(
        loop_basis, _pruned(*(np.concatenate(p) for p in zip(*parts))),
        valid_max_photons=joint.n_max - n_env,
        max_photon_gain=n_env,
    )


def _runs(group: np.ndarray) -> tuple:
    """The runs of equal entries of `group`: where each starts, and its length."""
    edges = np.concatenate(([0], np.flatnonzero(group[1:] != group[:-1]) + 1, [group.size]))
    return edges[:-1], np.diff(edges)


def _pruned(rows, cols, values, group) -> tuple:
    """The nonzeros of the operators that are runs of equal `group`, all but
    those whose largest |entry| is at most _PRUNE_NORM, with the kept
    operators numbered 0, 1, ... in run order."""
    starts, sizes = _runs(group)
    kept = np.maximum.reduceat(np.abs(values), starts) > _PRUNE_NORM
    keep = np.repeat(kept, sizes)
    owner = np.repeat(np.arange(np.count_nonzero(kept)), sizes[kept])
    return rows[keep], cols[keep], values[keep], owner


def _eigenpairs(mat: np.ndarray) -> tuple:
    """`np.linalg.eigh(mat)`, or for a pure number state |j><j| (one nonzero
    entry, 1.0 at (j, j)) its one eigenpair (1.0, e_j) without the solve:
    every Fock input is one.  The pair is exact whatever LAPACK does: e_j is
    the state's eigenvector with eigenvalue 1 and the rest of the spectrum
    is 0, below _EIG_CUTOFF.  That eigh returns the same pair bit for bit
    (so the Kraus operators keep the bytes they had) is an extra property,
    checked in the tests on the build they run on, not what makes it right."""
    d = mat.shape[0]
    at = np.flatnonzero(mat)
    if at.size == 1 and at[0] % (d + 1) == 0 and mat.flat[at[0]] == 1.0:
        evec = np.zeros((d, 1), dtype=complex)
        evec[at[0] // (d + 1)] = 1.0
        return np.ones(1), evec
    return np.linalg.eigh(mat)


def loss_channel(transmission, modes: int, n_max: int) -> QuantumChannel:
    """Photon-loss channel with per-mode power transmission.

    Single-mode Kraus operators indexed by the number of photons lost,
    K_k = sum_n sqrt(binom(n,k) T^(n-k) (1-T)^k) |n-k><n|, extended to
    several modes by the tensor product with Fock renumbering.  Complete on
    the whole truncated space: losing photons never leaves the basis.  The
    channel is made from the operators' nonzero entries, one per column.
    """
    t = np.broadcast_to(np.asarray(transmission, dtype=float), (modes,))
    if not np.all((t >= 0) & (t <= 1)):
        raise ValueError(f"transmissions must lie in [0, 1], got {t}")
    basis = FockBasis(modes, n_max)
    occ = np.array(basis.states).reshape(basis.size, modes)
    # factors[m][n, k] = binom(n, k) T_m^(n-k) (1-T_m)^k, as scalar products
    # (numpy's vectorized pow may round differently)
    factors = [np.array([[comb(n, k) * tm ** (n - k) * (1.0 - tm) ** k if k <= n else 0.0
                          for k in range(n_max + 1)] for n in range(n_max + 1)])
               for tm in t]
    # down[m, i]: index of state i with one photon fewer in mode m; the index
    # basis.size stands for "no such state" and maps to itself
    down = np.full((modes, basis.size + 1), basis.size)
    for i, n_occ in enumerate(basis.states):
        for m, n in enumerate(n_occ):
            if n:
                down[m, i] = basis.index_of(n_occ[:m] + (n - 1,) + n_occ[m + 1:])
    parts = []
    for lost in basis.states:  # every loss pattern with total <= n_max
        amp = np.ones(basis.size)
        target = np.arange(basis.size)
        for m, k in enumerate(lost):
            amp *= factors[m][occ[:, m], k]   # the modes' factors in mode order
            for _ in range(k):
                target = down[m, target]
        cols = np.flatnonzero((target < basis.size) & (amp != 0.0))
        if cols.size == 0:
            continue
        # one entry per row, so sorted by row is the order np.nonzero scans
        cols = cols[np.argsort(target[cols])]
        parts.append((target[cols], cols, np.sqrt(amp[cols]).astype(complex),
                      np.full(cols.size, len(parts))))
    return QuantumChannel(basis, tuple(np.concatenate(p) for p in zip(*parts)),
                          valid_max_photons=n_max, max_photon_gain=0)


def compose(outer: QuantumChannel, inner: QuantumChannel) -> QuantumChannel:
    """Channel applying `inner` first: Kraus set {K_out K_in}, formed on the
    nonzeros.

    Each outer entry (r, k) meets the inner entries (k, c), and the products
    of one entry (r, c) of one operator pair add up from +0 in ascending k.
    Exact zeros are dropped and the operators, in (outer, inner) order, are
    pruned by `_pruned`.  Where one side has one nonzero per row and per
    column, as a loss channel has, each entry is the one product a dense
    matrix product forms.  The validity bound accounts for the photon-number
    growth of the inner channel: valid = min(inner.valid, outer.valid - inner.gain).
    """
    if outer.basis != inner.basis:
        raise ValueError("channel bases do not match")
    d = outer.basis.size
    rows_o, ks, values_o, owner_o = outer.nonzeros
    ks_i, cols_i, values_i, owner_i = inner.nonzeros
    # pair p joins outer entry e[p] with inner entry f[p], the pairs of one
    # outer entry in a run over the inner entries of row k, in operator order
    counts = np.bincount(ks_i, minlength=d)
    meets = counts[ks]
    e = np.repeat(np.arange(ks.size), meets)
    skip = np.repeat((np.cumsum(counts) - counts)[ks] - (np.cumsum(meets) - meets), meets)
    f = np.argsort(ks_i, kind="stable")[np.arange(e.size) + skip]
    # the pairs of one key come in ascending k, the order np.add.at sums them in
    key, pair_key = np.unique(
        ((owner_o[e] * (owner_i[-1] + 1) + owner_i[f]) * d + rows_o[e]) * d + cols_i[f],
        return_inverse=True)
    values = np.zeros(key.size, dtype=complex)
    np.add.at(values, pair_key, values_o[e] * values_i[f])
    nonzero = values != 0
    pair, at = np.divmod(key[nonzero], d * d)
    rows, cols = np.divmod(at, d)
    return QuantumChannel(
        outer.basis, _pruned(rows, cols, values[nonzero], pair),
        valid_max_photons=min(inner.valid_max_photons,
                              outer.valid_max_photons - inner.max_photon_gain),
        max_photon_gain=inner.max_photon_gain + outer.max_photon_gain,
    )


@dataclass
class Superoperator:
    """Matrix acting on column-stacked density matrices: vec(E(rho)) = G vec(rho)."""

    basis: FockBasis
    matrix: np.ndarray


def to_superoperator(channel: QuantumChannel) -> Superoperator:
    """The whole of G = sum conj(K) kron K, assembled from its charge blocks."""
    d = channel.basis.size
    check_size("the superoperator dimension", d * d)
    g = np.zeros((d * d, d * d), dtype=complex)
    for b, idx in enumerate(channel.charge_blocks):
        g[np.ix_(idx, idx)] = channel.superop_block(b)
    return Superoperator(channel.basis, g)


@dataclass
class StationaryResult:
    """Fixed point of a loop channel plus spectral diagnostics of G.

    `second_modulus`, the largest eigenvalue modulus of G after the unit
    one, is computed on first read: it is the one diagnostic that needs the
    q != 0 charge blocks, which are built and diagonalized then.
    """

    rho: DensityMatrix
    eigenvalue: complex
    _second_modulus: Callable[[], float] = field(repr=False, compare=False)

    @cached_property
    def second_modulus(self) -> float:
        return self._second_modulus()


@frozen_cache
def _probe(m: int) -> np.ndarray:
    """The generic right-hand side of size m that `fixed_point` solves
    alongside its own, drawn once per size."""
    rng = np.random.default_rng(0)
    return rng.standard_normal(m) + 1j * rng.standard_normal(m)


def fixed_point(channel: QuantumChannel) -> DensityMatrix | None:
    """Fast trace-normalized fixed point of G, without spectral diagnostics.

    Solves the bordered system (I - G_0 + t vec(I)^H) x = t on the charge-0
    block G_0, which holds every state reachable from a number-diagonal one.
    The system is nonsingular exactly when the unit eigenvalue of G_0 is
    simple; returns None on any sign of trouble (singular system, large
    residual, non-state output, a leaking truncation) so callers can fall
    back to `stationary_state`, which tells a leak from a degenerate block.
    A charge-conserving channel's fixed point is in the vector form of
    `DensityMatrix.from_block0`.
    """
    g = channel.superop_block(0)
    m = g.shape[0]
    d = channel.basis.size
    rows, cols, swap, diag = channel._layout
    tr_vec = np.zeros(m, dtype=complex)
    tr_vec[diag] = 1.0
    t = tr_vec / d
    a = np.eye(m, dtype=complex) - g + np.outer(t, tr_vec.conj())
    # a degenerate fixed space makes the bordered matrix singular; any
    # trace-1 fixed point still solves A x = t exactly, so solve a generic
    # right-hand side alongside to expose rank loss
    z = _probe(m)
    try:
        x, probe = np.linalg.solve(a, np.column_stack([t, z])).T
    except np.linalg.LinAlgError:
        return None
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(probe))):
        return None
    if np.linalg.norm(a @ probe - z) > 1e-8 * np.linalg.norm(z):
        return None
    if np.linalg.norm(g @ x - x) > _FIXED_POINT_RESIDUAL * max(1.0, np.linalg.norm(x)):
        return None
    # the Hermitian part, normalized, entry for entry as on the d x d matrix
    x = (x + x[swap].conj()) / 2
    tr = np.add.reduce(x[diag]).real
    if abs(tr - 1.0) > 1e-8:
        return None
    x /= tr
    rho = np.zeros((d, d), dtype=complex)
    rho[rows, cols] = x
    if np.linalg.eigvalsh(rho)[0] < -1e-8:
        return None
    if len(channel.charge_blocks) > 1:
        return DensityMatrix.from_block0(channel.basis, x)
    return DensityMatrix(channel.basis, rho, check=False)


def _second_modulus(channel: QuantumChannel, evals: np.ndarray, i: int) -> float:
    """The largest eigenvalue modulus of G but the unit one `evals[i]`: the
    q != 0 spectra are taken now, and the moduli of the charge-0, then the
    other blocks' spectra, in block order, are taken together."""
    spectra = [np.linalg.eigvals(channel.superop_block(b))
               for b in range(1, len(channel.charge_blocks))]
    moduli = np.abs(np.concatenate([evals] + spectra))
    moduli[i] = -np.inf
    return float(moduli.max())


def stationary_state(channel: QuantumChannel) -> StationaryResult:
    """Unique fixed point of the channel via the eigenvalue-1 eigenvector of G.

    The eigenvector comes from the charge-0 block, which holds the spectral
    radius of a positive map and hence the eigenvalue closest to 1.  The
    checks run in this order: the principal eigenvalue must sit within
    _UNIT_TOL of 1, since a larger drift means the truncation leaks
    the stationary state itself (TruncationError); no other charge-0
    eigenvalue may lie within _DEGENERACY_GAP of it; and the eigenvector
    must not be traceless.  Either of the last two raises
    DegenerateFixedPointError: the stationary state is not unique.

    Uniqueness is checked on charge 0 only, which is all a loop channel
    needs: each eigenvalue of its charge-q block is a product
    a_i1..a_ik conj(a_j1..a_jl), k - l = q, of eigenvalues a of the lossy
    loop block M_eff,LL, so a unit eigenvalue off charge 0 forces some
    |a| = 1, which puts |a|^2 = 1 in charge 0 too.  The q != 0 blocks are
    built and diagonalized only if `second_modulus` is read.
    """
    evals, evecs = np.linalg.eig(channel.superop_block(0))
    i = int(np.argmin(np.abs(evals - 1.0)))
    lam = evals[i]
    if abs(lam - 1.0) > _UNIT_TOL:
        raise TruncationError(
            f"no superoperator eigenvalue within {_UNIT_TOL:.1e} of 1 "
            f"(closest {complex(lam):.12g}); the truncated channel leaks too much, "
            "increase n_max"
        )
    n_unit = int(np.count_nonzero(np.abs(evals - lam) < _DEGENERACY_GAP))
    if n_unit > 1:
        raise DegenerateFixedPointError(
            f"non-unique stationary state: {n_unit} charge-0 eigenvalues within "
            f"{_DEGENERACY_GAP:.1e} of the unit eigenvalue"
        )
    rows, cols = channel._layout[:2]
    rho = np.zeros((channel.basis.size,) * 2, dtype=complex)
    rho[rows, cols] = evecs[:, i]
    tr = np.trace(rho)
    if abs(tr) < 1e-12:
        raise DegenerateFixedPointError(
            "stationary eigenvector is traceless; fixed point not unique"
        )
    rho = rho / tr
    rho = (rho + rho.conj().T) / 2
    return StationaryResult(
        rho=DensityMatrix(channel.basis, rho),
        eigenvalue=complex(lam),
        _second_modulus=lambda: _second_modulus(channel, evals, i),
    )
