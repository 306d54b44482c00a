"""Density matrices and probability distributions over truncated Fock bases."""

import json
from functools import lru_cache

import numpy as np

from .errors import TruncationError
from .fock import FockBasis, tensor_index_map

# printf format of every probability and fidelity written to a CSV artifact
FLOAT_FMT = "%.12e"
HERMITICITY_ATOL = 1e-10
TRACE_ATOL = 1e-10
PSD_EIG_FLOOR = -1e-8
# below this diagonal mass a photon-number sector counts as unpopulated
POPULATED_CUTOFF = 1e-12
_SAMPLE_CHUNK = 1 << 16    # shots drawn at once by ProbabilityDistribution.sample


class DensityMatrix:
    """Hermitian, PSD, unit-trace matrix over a truncated Fock basis.

    Immutable by convention: operations return new instances.  Validation can
    be skipped (check=False) by internal hot loops that construct states from
    already-validated arithmetic.

    A state made by `from_block0` holds only its charge-0 entries, those in
    the photon-number diagonal blocks, as the vector `block0` in the order of
    `charge0_layout`.  `.mat` is built from it, zero elsewhere, the first
    time something reads it; `block0` is None from then on, so what a caller
    writes into `.mat` is never read back through a stale vector.
    """

    def __init__(self, basis: FockBasis, mat: np.ndarray, check: bool = True):
        mat = np.asarray(mat, dtype=complex)
        if mat.shape != (basis.size, basis.size):
            raise ValueError(
                f"matrix shape {mat.shape} does not match basis size {basis.size}"
            )
        if check:
            if not np.isfinite(mat).all():
                raise ValueError("matrix has a non-finite entry")
            herm = np.abs(mat - mat.conj().T).max()
            if herm > HERMITICITY_ATOL:
                raise ValueError(f"matrix is not Hermitian (defect {herm:.3e})")
            tr = np.trace(mat).real
            if abs(tr - 1.0) > TRACE_ATOL:
                raise ValueError(f"trace is {float(tr)!r}, expected 1")
            lo = float(np.linalg.eigvalsh(mat)[0])
            if lo < PSD_EIG_FLOOR:
                raise ValueError(f"matrix is not PSD (min eigenvalue {lo:.3e})")
        self.basis = basis
        self._mat = mat
        self.block0 = None

    @classmethod
    def from_block0(cls, basis: FockBasis, block0: np.ndarray) -> "DensityMatrix":
        """The state whose charge-0 entries are `block0`, unchecked."""
        rho = cls.__new__(cls)
        rho.basis, rho._mat, rho.block0 = basis, None, block0
        return rho

    @property
    def mat(self) -> np.ndarray:
        """The dense matrix, built from `block0` on first read."""
        if self._mat is None:
            rows, cols = charge0_layout(self.basis)[:2]
            self._mat = np.zeros((self.basis.size, self.basis.size), dtype=complex)
            self._mat[rows, cols] = self.block0
            self.block0 = None
        return self._mat

    def sector_weights(self, above: int = -1) -> np.ndarray:
        """Diagonal probability mass per photon-number sector, of the sectors
        after `above` only: `sector_weights(n)` is `sector_weights()[n + 1:]`,
        term for term."""
        first, slices = _sectors_after(self.basis, above)
        diag = (self.mat.diagonal()[first:] if self.block0 is None
                else self.block0[charge0_layout(self.basis)[2][first:]]).real
        if slices is None:
            # one state per sector: each sum is 0.0 + its entry, as numpy sums
            return diag + 0.0
        return np.array([diag[sl].sum() for sl in slices])

    def charge0(self) -> np.ndarray | None:
        """The charge-0 entries in the order of `charge0_layout`: `block0`
        for a state in the vector form, else gathered from `.mat`, or None
        when `.mat` has entries between photon-number sectors.  This is the
        one test of whether a state is block-diagonal in photon number."""
        if self.block0 is not None:
            return self.block0
        rows, cols = charge0_layout(self.basis)[:2]
        entries = self._mat[rows, cols]
        return entries if np.count_nonzero(entries) == np.count_nonzero(self._mat) else None

    def max_populated_sector(self) -> int:
        """Largest photon number whose sector carries mass above POPULATED_CUTOFF."""
        weights = self.sector_weights()
        populated = np.nonzero(weights > POPULATED_CUTOFF)[0]
        return int(populated[-1]) if populated.size else 0

    def diagonal_distribution(self) -> "ProbabilityDistribution":
        return diagonal_distribution(self)

    def to_payload(self) -> dict:
        return {
            "modes": self.basis.modes,
            "n_max": self.basis.n_max,
            "re": self.mat.real,
            "im": self.mat.imag,
        }

    def to_json(self, path) -> None:
        payload = self.to_payload()
        payload["re"], payload["im"] = payload["re"].tolist(), payload["im"].tolist()
        with open(path, "w") as fh:
            json.dump(payload, fh)

    @classmethod
    def from_json(cls, path) -> "DensityMatrix":
        with open(path) as fh:
            payload = json.load(fh)
        basis = FockBasis(int(payload["modes"]), int(payload["n_max"]))
        mat = np.array(payload["re"], dtype=float) + 1j * np.array(payload["im"], dtype=float)
        return cls(basis, mat)

    def __repr__(self):
        return f"DensityMatrix(basis={self.basis!r})"


def fock_state_dm(basis: FockBasis, occupation) -> DensityMatrix:
    """Rank-1 projector onto one occupation basis state."""
    mat = np.zeros((basis.size, basis.size), dtype=complex)
    i = basis.index_of(occupation)
    mat[i, i] = 1.0
    return DensityMatrix(basis, mat, check=False)


def random_density_matrix(basis: FockBasis, seed: int) -> DensityMatrix:
    """Hilbert-Schmidt-distributed random state: G G^dag / Tr with Ginibre G."""
    rng = np.random.default_rng(seed)
    d = basis.size
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    mat = g @ g.conj().T
    mat /= np.trace(mat).real
    return DensityMatrix(basis, mat, check=False)


def embed(rho: DensityMatrix, basis: FockBasis) -> DensityMatrix:
    """Put a state onto another truncation of the same modes.  A truncated
    basis is the leading block of every larger truncation, so the state is
    zero-padded, or cut when the sectors it drops carry at most
    POPULATED_CUTOFF of diagonal weight (a TruncationError otherwise)."""
    if rho.basis == basis:
        return rho
    if rho.basis.modes != basis.modes:
        raise ValueError(f"cannot embed {rho.basis!r} into {basis!r}")
    if rho.basis.n_max > basis.n_max:
        lost = rho.sector_weights(basis.n_max).sum()
        if lost > POPULATED_CUTOFF:
            raise TruncationError(f"cutting {rho.basis!r} to {basis!r} drops weight "
                                  f"{lost:.3e}", required_n_max=rho.max_populated_sector())
    size = min(rho.basis.size, basis.size)
    mat = np.zeros((basis.size, basis.size), dtype=complex)
    mat[:size, :size] = rho.mat[:size, :size]
    return DensityMatrix(basis, mat, check=False)


def overflow_weight(rho_a: DensityMatrix, rho_b: DensityMatrix, n_max: int) -> float:
    """Diagonal mass of rho_a (x) rho_b in joint sectors above n_max."""
    wa = rho_a.sector_weights()
    wb = rho_b.sector_weights()
    return float(sum(
        wa[na] * wb[nb]
        for na in range(len(wa))
        for nb in range(len(wb))
        if na + nb > n_max
    ))


@lru_cache(maxsize=None)
def joint_parts(basis_a: FockBasis, basis_b: FockBasis, joint: FockBasis) -> tuple:
    """Index of each joint state's A part and B part in its factor.  A part
    beyond its factor's truncation points at the zero row padded onto that
    factor."""
    idx = tensor_index_map(basis_a, basis_b, joint)
    pairs = np.nonzero(idx >= 0)
    parts = [np.full(joint.size, basis.size) for basis in (basis_a, basis_b)]
    for part, factor in zip(parts, pairs):
        part[idx[pairs]] = factor
    return tuple(parts)


def _populated_pairs(rho: DensityMatrix) -> np.ndarray:
    """The sector pairs (n, n') that hold a nonzero entry of rho, as rows."""
    rows, cols = np.nonzero(rho.mat)
    totals = rho.basis.totals()
    mask = np.zeros((rho.basis.n_max + 1,) * 2, dtype=bool)
    mask[totals[rows], totals[cols]] = True
    return np.argwhere(mask)


def _padded(mat: np.ndarray) -> np.ndarray:
    """mat with one zero row and column appended."""
    out = np.zeros((mat.shape[0] + 1, mat.shape[1] + 1), dtype=complex)
    out[:-1, :-1] = mat
    return out


def tensor_product_blocks(rho_a: DensityMatrix, rho_b: DensityMatrix, joint: FockBasis,
                          dropped: float) -> dict:
    """Sector-pair blocks (n, n') -> array of the tensor product with Fock
    renumbering, A's modes leading, for the joint pairs within joint.n_max
    that the factors' populated sector pairs reach; every other block is zero.

    Each entry is the one product rho_a[i, i'] * rho_b[j, j'] that np.kron
    makes, of two contiguous gathers (on numpy 2.4.6 stride-2 operands gave
    the same bits; see `lift._add_photon` for the one layout that did not).
    Only the rows whose A and B parts both hold a
    nonzero entry in their factor, and the columns alike, are multiplied;
    every other entry has an exactly zero factor and is left +0, so it can
    differ from np.kron only in the sign of a zero.  When `dropped` > 0 the
    blocks are divided by the kept trace, summed over the whole joint
    diagonal as np.trace sums it.
    """
    sums = (_populated_pairs(rho_a)[:, None] + _populated_pairs(rho_b)[None, :]).reshape(-1, 2)
    reached = np.zeros((joint.n_max + 1,) * 2, dtype=bool)
    reached[tuple(sums[(sums <= joint.n_max).all(axis=1)].T)] = True
    part_a, part_b = joint_parts(rho_a.basis, rho_b.basis, joint)
    pad_a, pad_b = _padded(rho_a.mat), _padded(rho_b.mat)
    kept_rows = pad_a.any(axis=1)[part_a] & pad_b.any(axis=1)[part_b]
    kept_cols = pad_a.any(axis=0)[part_a] & pad_b.any(axis=0)[part_b]
    blocks = {}
    for n, m in np.argwhere(reached).tolist():
        rows, cols = joint.sector_slice(n), joint.sector_slice(m)
        i, j = np.flatnonzero(kept_rows[rows]), np.flatnonzero(kept_cols[cols])
        ri, cj = i[:, None] + rows.start, j[None, :] + cols.start
        block = np.zeros((rows.stop - rows.start, cols.stop - cols.start), dtype=complex)
        block[np.ix_(i, j)] = pad_a[part_a[ri], part_a[cj]] * pad_b[part_b[ri], part_b[cj]]
        blocks[n, m] = block
    if dropped > 0.0:
        diag = np.zeros(joint.size, dtype=complex)
        for (n, m), block in blocks.items():
            if n == m:
                diag[joint.sector_slice(n)] = np.diagonal(block)
        tr = diag.sum().real
        if tr <= 0:
            raise TruncationError("tensor product lost all weight to truncation")
        for block in blocks.values():
            block /= tr
    return blocks


def tensor_product(rho_a: DensityMatrix, rho_b: DensityMatrix, joint: FockBasis,
                   dropped: float | None = None) -> DensityMatrix:
    """Tensor product with Fock renumbering, A's modes leading: the blocks of
    `tensor_product_blocks` scattered into zeros.

    The diagonal mass that lands past joint.n_max is dropped and the trace
    renormalized.  A caller that has weighed that mass against its own
    tolerance passes it as `dropped`; otherwise it is computed, and above
    POPULATED_CUTOFF it is a TruncationError.
    """
    if joint.modes != rho_a.basis.modes + rho_b.basis.modes:
        raise ValueError("joint basis mode count does not match the factors")
    if dropped is None:
        dropped = overflow_weight(rho_a, rho_b, joint.n_max)
        if dropped > POPULATED_CUTOFF:
            raise TruncationError(
                f"tensor product would push weight {dropped:.3e} past n_max={joint.n_max}",
            )
    mat = np.zeros((joint.size, joint.size), dtype=complex)
    for (n, m), block in tensor_product_blocks(rho_a, rho_b, joint, dropped).items():
        mat[joint.sector_slice(n), joint.sector_slice(m)] = block
    return DensityMatrix(joint, mat, check=False)


@lru_cache(maxsize=None)
def _pair_trace_table(basis: FockBasis, start: int, stop: int, n: int, m: int) -> tuple:
    """Gather table of sector pair (n, m) for the partial trace onto modes
    start..stop: the flat index in the (n, m) block of each entry whose two
    traced-out parts agree, and the flat index of its kept parts in the
    reduced matrix.  The parts are the `joint_parts` of the split at `stop`
    for a leading keep, at `start` for a trailing one.  The entries run row
    by row, and the rows of a sector that share their kept part are in
    lexicographic order of their traced-out part, so each reduced entry
    meets its terms in that order."""
    split = stop if start == 0 else start
    parts = joint_parts(FockBasis(split, basis.n_max),
                        FockBasis(basis.modes - split, basis.n_max), basis)
    kept, traced = parts if start == 0 else parts[::-1]
    rows, cols = basis.sector_slice(n), basis.sector_slice(m)
    i, j = np.nonzero(traced[rows, None] == traced[None, cols])
    size = FockBasis(stop - start, basis.n_max).size
    return i * (cols.stop - cols.start) + j, kept[rows][i] * size + kept[cols][j]


def partial_traces(basis: FockBasis, blocks, keeps) -> list:
    """Reduced states on each mode range (start, stop) in `keeps`, each a
    contiguous leading or trailing block of at least one mode, of the state
    over `basis` whose nonzero sector-pair blocks `blocks` yields as
    ((n, m), block) in sorted (n, m) order; every block is added into all
    reduced states and then dropped.

    A reduced entry sums its terms by ascending traced-out photon number
    across sector pairs and, within a pair, by traced-out state, from +0.0;
    such a sum never becomes -0.0, so leaving out an all-zero block changes
    no bit.
    """
    outs = [np.zeros((FockBasis(stop - start, basis.n_max).size,) * 2, dtype=complex)
            for start, stop in keeps]
    for (n, m), block in blocks:
        flat = block.reshape(-1)
        for out, (start, stop) in zip(outs, keeps):
            src, dst = _pair_trace_table(basis, start, stop, n, m)
            np.add.at(out.reshape(-1), dst, flat[src])
    return [DensityMatrix(FockBasis(stop - start, basis.n_max), out, check=False)
            for out, (start, stop) in zip(outs, keeps)]


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out all modes outside `keep` = (start, stop), a contiguous leading
    or trailing block of modes: `partial_traces` over every sector-pair
    block of rho.

    Trace, Hermiticity and positivity are preserved.  Keeping zero modes
    returns the trivial 1x1 state.
    """
    start, stop = keep
    if not 0 <= start <= stop <= rho.basis.modes:
        raise ValueError(f"keep range ({start}, {stop}) outside 0..{rho.basis.modes}")
    if start != 0 and stop != rho.basis.modes:
        raise ValueError(
            "partial trace supports only contiguous leading or trailing mode blocks"
        )
    if stop == start:
        return DensityMatrix(FockBasis(0, rho.basis.n_max), [[np.trace(rho.mat)]], check=False)
    slices = [rho.basis.sector_slice(n) for n in range(rho.basis.n_max + 1)]
    blocks = (((n, m), rho.mat[sn, sm]) for n, sn in enumerate(slices)
              for m, sm in enumerate(slices))
    return partial_traces(rho.basis, blocks, [keep])[0]


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """D(rho, sigma) = 0.5 ||rho - sigma||_1."""
    if rho.basis != sigma.basis:
        raise ValueError("trace distance needs matching bases")
    diff = rho.mat - sigma.mat
    return float(0.5 * np.abs(np.linalg.eigvalsh(diff)).sum())


@lru_cache(maxsize=None)
def charge_split(basis: FockBasis) -> tuple:
    """The column-stacked indices i + d j of a d x d matrix over `basis`,
    grouped by the charge n_i - n_j in the order 0, -1, 1, -2, 2, ...,
    ascending within each group (read-only)."""
    totals = basis.totals()
    charge = np.subtract.outer(totals, totals).ravel(order="F")
    # charges 0, -1, 1, -2, 2, ... as keys 0, 1, 2, 3, 4, ...
    key = np.where(charge < 0, -2 * charge - 1, 2 * charge)
    order = np.argsort(key, kind="stable")
    order.flags.writeable = False
    return tuple(np.split(order, np.cumsum(np.bincount(key))[:-1]))


@lru_cache(maxsize=None)
def charge0_layout(basis: FockBasis) -> tuple:
    """Where the charge-0 entries (i, j) of a matrix over `basis`, those with
    n_i = n_j, lie, in the order of `charge_split(basis)[0]`: their rows,
    their columns, the position of each diagonal entry among them, and their
    flat (C-order) positions in the stack of the photon-number diagonal
    blocks zero-padded to the widest sector, with that stack's shape."""
    cols, rows = np.divmod(charge_split(basis)[0], basis.size)
    slices = [basis.sector_slice(n) for n in range(basis.n_max + 1)]
    starts = np.array([sl.start for sl in slices])
    width = max(sl.stop - sl.start for sl in slices)
    n = basis.totals()[rows]
    pos = (n * width + rows - starts[n]) * width + cols - starts[n]
    return rows, cols, np.flatnonzero(rows == cols), pos, (basis.n_max + 1, width, width)


@lru_cache(maxsize=None)
def _sectors_after(basis: FockBasis, above: int) -> tuple:
    """The diagonal entries of the sectors that `sector_weights(above)` sums,
    a tail of the basis: the index of its first state, and each sector's
    slice of the tail, or None when every sector holds one state."""
    sectors = [basis.sector_slice(n) for n in range(basis.n_max + 1)[above + 1:]]
    first = sectors[0].start if sectors else basis.size
    slices = tuple(slice(sl.start - first, sl.stop - first) for sl in sectors)
    if sectors and all(sl.stop - sl.start == 1 for sl in sectors):
        slices = None
    return first, slices


def _fidelity_kernel(a: np.ndarray, b: np.ndarray) -> list:
    """F(a[k], b) = (Tr sqrt(sqrt(a[k]) b sqrt(a[k])))^2, clipped into [0, 1],
    for each k; the trace of a[k] runs over all its trailing blocks, which
    meet the blocks of b one to one.

    Blocks of width 1 take the closed form of the same arithmetic: LAPACK
    returns a 1 x 1 block's real diagonal as its eigenvalue, with
    eigenvector 1, so sqrt(a) is s = sqrt(max(Re a, 0)) and the inner
    eigenvalue is (s Re b) s."""
    if a.shape[-1] == 1:
        s = np.sqrt(np.clip(a.real, 0.0, None))
        lam = (s * b.real) * s
    else:
        evals, evecs = np.linalg.eigh(a)
        root = evecs * np.sqrt(np.clip(evals, 0.0, None))[..., None, :]
        sqrt_a = root @ evecs.conj().swapaxes(-1, -2)
        inner = sqrt_a @ b @ sqrt_a
        lam = np.linalg.eigvalsh((inner + inner.conj().swapaxes(-1, -2)) / 2)
    roots = np.sqrt(np.clip(lam, 0.0, None)).reshape(len(a), -1)
    return [min(max(float(r.sum() ** 2), 0.0), 1.0) for r in roots]


def fidelities(states, sigma: DensityMatrix) -> np.ndarray:
    """Uhlmann fidelities F(rho, sigma) of each state rho against one sigma.

    When a state and sigma are block-diagonal in photon number, the trace
    splits into a sum over the sector blocks.  The blocks of all such states
    go through the kernel as one C-contiguous stack, laid out as one state's
    blocks are (numpy's complex loops may round strided operands without the
    fused multiply-add); a state in the vector form of `from_block0` is
    scattered into the stack from its vector.  A state with coherences
    between sectors, or every state when sigma has them, takes the dense
    route on its own.
    """
    if any(rho.basis != sigma.basis for rho in states):
        raise ValueError("fidelity needs matching bases")
    _, _, _, pos, shape = charge0_layout(sigma.basis)
    target = sigma.charge0()
    entries = [None if target is None else rho.charge0() for rho in states]
    blocked = [k for k, v in enumerate(entries) if v is not None]
    out = np.empty(len(states))
    if blocked:
        stack = np.zeros((len(blocked) + 1, np.prod(shape)), dtype=complex)
        stack[:, pos] = [entries[k] for k in blocked] + [target]
        stack = stack.reshape(-1, *shape)
        out[blocked] = _fidelity_kernel(stack[:-1], stack[-1])
    for k, v in enumerate(entries):
        if v is None:
            out[k] = _fidelity_kernel(states[k].mat[None], sigma.mat)[0]
    return out


def uhlmann_fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """F(rho, sigma) = (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2, clipped into
    [0, 1]: the one-state case of `fidelities`."""
    return float(fidelities([rho], sigma)[0])


def classical_fidelity(p, q) -> float:
    """Bhattacharyya overlap sum_i sqrt(p_i q_i) of two distributions."""
    pv = p.probabilities if isinstance(p, ProbabilityDistribution) else np.asarray(p, dtype=float)
    qv = q.probabilities if isinstance(q, ProbabilityDistribution) else np.asarray(q, dtype=float)
    if isinstance(p, ProbabilityDistribution) and isinstance(q, ProbabilityDistribution):
        if p.basis.modes != q.basis.modes:
            raise ValueError("distributions live on different mode counts")
        # zero-pad onto the larger truncation, as `embed` does for states
        size = max(p.basis.size, q.basis.size)
        pv, qv = (np.pad(v, (0, size - v.size)) for v in (pv, qv))
    if pv.shape != qv.shape:
        raise ValueError("distributions have different sizes")
    return float(np.sqrt(pv * qv).sum())


class ProbabilityDistribution:
    """Non-negative weights over a Fock basis, summing to 1 within 1e-9."""

    def __init__(self, basis: FockBasis, probabilities: np.ndarray, check: bool = True):
        probabilities = np.asarray(probabilities, dtype=float)
        if probabilities.shape != (basis.size,):
            raise ValueError("probability vector length does not match the basis")
        if check:
            if not np.isfinite(probabilities).all():
                raise ValueError("probability vector has a non-finite entry")
            if probabilities.min() < 0:
                raise ValueError(f"negative probability {probabilities.min():.3e}")
            s = probabilities.sum()
            if abs(s - 1.0) > 1e-9:
                raise ValueError(f"probabilities sum to {float(s)!r}, expected 1")
        self.basis = basis
        self.probabilities = probabilities

    def probability_of(self, occupation) -> float:
        return float(self.probabilities[self.basis.index_of(occupation)])

    def sample(self, shots: int, seed: int) -> dict:
        """Inverse-CDF sampling; returns occupation -> count, deterministic per
        seed.  Shots are drawn _SAMPLE_CHUNK at a time, so memory does not
        grow with `shots`."""
        if shots < 1:
            raise ValueError("shots must be >= 1")
        rng = np.random.default_rng(seed)
        cdf = np.cumsum(self.probabilities)
        cdf[-1] = 1.0
        counts = np.zeros(self.basis.size, dtype=np.int64)
        # chunked draws continue one stream, so counts do not depend on the chunk
        for start in range(0, shots, _SAMPLE_CHUNK):
            draws = rng.random(min(_SAMPLE_CHUNK, shots - start))
            counts += np.bincount(np.searchsorted(cdf, draws, side="right"),
                                  minlength=self.basis.size)
        return {
            self.basis.state(i): int(c)
            for i, c in enumerate(counts)
            if c > 0
        }

    def to_csv_text(self) -> str:
        return "".join(
            ",".join(str(x) for x in occ) + ";" + FLOAT_FMT % prob + "\n"
            for occ, prob in zip(self.basis.states, self.probabilities)
        )

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_csv_text())

    @classmethod
    def from_csv(cls, path, check: bool = True) -> "ProbabilityDistribution":
        occs, probs = [], []
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                occ_str, prob_str = line.split(";")
                occs.append(tuple(int(x) for x in occ_str.split(",")))
                probs.append(float(prob_str))
        modes = len(occs[0])
        n_max = max(sum(o) for o in occs)
        basis = FockBasis(modes, n_max)
        v = np.zeros(basis.size)
        for occ, prob in zip(occs, probs):
            v[basis.index_of(occ)] = prob
        return cls(basis, v, check=check)


def diagonal_distribution(rho: DensityMatrix) -> ProbabilityDistribution:
    """Distribution read off the density-matrix diagonal.

    Entries below -1e-8 signal a corrupted state and raise; small negative
    noise is clipped to 0 and drift up to 1e-9 in the total is renormalized
    away.
    """
    diag = np.real(np.diag(rho.mat))
    if diag.min() < -1e-8:
        raise ValueError(f"diagonal entry {diag.min():.3e} below -1e-8; state is corrupted")
    diag = np.clip(diag, 0.0, None)
    s = diag.sum()
    if abs(s - 1.0) > 1e-9:
        raise ValueError(f"diagonal sums to {float(s)!r}; state is corrupted")
    return ProbabilityDistribution(rho.basis, diag / s, check=False)
