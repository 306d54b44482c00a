"""Reference implementations used only to check the production code.

Two kinds of reference live here.  A textbook reference computes a result
by the most naive route available (permutation sums, polynomial expansion,
a dense Kronecker product, a dense Kraus sum, one scan per charge,
brute-force grids).  A bit-for-bit oracle is the route the package
ran before its current one, kept so that a rewrite can be shown to write
the same bytes; to lay its data out as the package does, it may call
package pieces that are checked on their own, such as the lift's index maps
(`_raising_maps`, `_parent_columns`), `tensor_product_blocks`, the fixed
point's `_probe`, `_check_spectral_radius`, the moment route's
`_input_tensor` and `_MomentCache`, and `_LoopSetup`.

Each layer keeps one reference of each kind, and an older generation is
removed only where a kept one is checked on the same inputs for the same
property:
  lift           `lift_block_polynomial` (with `permanent_naive` and
                 `submatrix_by_multiplicity`);
                 `lift_blocks_whole` and `lift_apply_fock_whole`
  loop channel   `loop_kraus_from_full`; `loop_channel_per_sector`
  joint pass     `tensor_product_kron`; `joint_pass_dense`, whose stages
                 `conjugate_dense` and `partial_trace_buckets` are also
                 checked one by one
  fidelity       `fidelity_svd`; `fidelities_gathered`, with its kernel
                 `fidelity_kernel_eigh`
  charge layout  `charge_blocks_by_scans`; `charge0_layout_by_nonzero`,
                 with its reader `charge0_by_take`, and `block0_layout_before`
  composition    `compose_dense`, with `channel_from_kraus`
  Kraus sum      `kraus_sum_stacked`, the bit-for-bit oracle of `apply_matrix`
Every other routine here is the one reference of what it checks.
"""

import itertools
from functools import lru_cache
from math import comb, factorial, prod, sqrt

import numpy as np

from bosonloop.channels import QuantumChannel, _probe, fixed_point, stationary_state
from bosonloop.errors import DENSE_DIM_CAP, ConvergenceError, TruncationError
from bosonloop import evolve
from bosonloop.evolve import _LoopSetup
from bosonloop.fock import FockBasis, enumerate_sector, sector_size, tensor_index_map
from bosonloop.lift import _parent_columns, _raising_maps
from bosonloop.qstate import (LEAK_TOLERANCE, DensityMatrix, joint_parts, overflow_weight,
                             tensor_product_blocks)
from bosonloop.reconstruct import ReconstructionInfo, project_psd
from bosonloop.tensors import (CorrelationTensor, TensorSet, _check_spectral_radius,
                               _input_tensor, _MomentCache)


def same_bits(a, b) -> bool:
    """Equal arrays with equal signs on every real and imaginary part, zeros too."""
    a, b = np.asarray(a), np.asarray(b)
    return (np.array_equal(a, b)
            and np.array_equal(np.signbit(a.real), np.signbit(b.real))
            and np.array_equal(np.signbit(a.imag), np.signbit(b.imag)))


def permanent_naive(a: np.ndarray) -> complex:
    """Permanent by explicit summation over all permutations (n <= 9)."""
    a = np.asarray(a)
    n = a.shape[0]
    if n == 0:
        return 1.0 + 0j
    total = 0.0 + 0.0j
    for perm in itertools.permutations(range(n)):
        term = 1.0 + 0.0j
        for i, j in enumerate(perm):
            term *= a[i, j]
        total += term
    return total


def submatrix_by_multiplicity(a: np.ndarray, row_occ, col_occ) -> np.ndarray:
    """Matrix with row k of `a` repeated row_occ[k] times and likewise for
    columns: the permanent of the result over the square roots of the
    occupation factorials is the lifted entry <row_occ| U |col_occ>.

    Row and column occupations must carry the same total so the result is square.
    """
    a = np.asarray(a)
    row_occ = tuple(row_occ)
    col_occ = tuple(col_occ)
    if len(row_occ) != a.shape[0] or len(col_occ) != a.shape[1]:
        raise ValueError("occupation lengths must match the matrix dimensions")
    if sum(row_occ) != sum(col_occ):
        raise ValueError(
            f"row and column totals differ: {sum(row_occ)} vs {sum(col_occ)}"
        )
    rows = np.repeat(np.arange(a.shape[0]), row_occ)
    cols = np.repeat(np.arange(a.shape[1]), col_occ)
    return a[np.ix_(rows, cols)]


def lift_block_polynomial(u: np.ndarray, n: int) -> np.ndarray:
    """Sector block by substituting transformed creation operators symbolically.

    Represents an n-photon ket as a polynomial in formal creation symbols
    (a dict occupation -> coefficient) and multiplies out
    prod_a (sum_b U[b,a] x_b)^(j_a) term by term.
    """
    m = u.shape[0]
    sector = enumerate_sector(m, n)
    rank = {occ: i for i, occ in enumerate(sector)}
    block = np.zeros((len(sector), len(sector)), dtype=complex)
    for j, jocc in enumerate(sector):
        poly = {(0,) * m: 1.0 + 0.0j}
        for mode, count in enumerate(jocc):
            for _ in range(count):
                nxt = {}
                for occ, coeff in poly.items():
                    for b in range(m):
                        raised = occ[:b] + (occ[b] + 1,) + occ[b + 1:]
                        nxt[raised] = nxt.get(raised, 0.0) + coeff * u[b, mode]
                poly = nxt
        norm_j = sqrt(prod(factorial(x) for x in jocc))
        for occ, coeff in poly.items():
            block[rank[occ], j] = coeff * sqrt(prod(factorial(x) for x in occ)) / norm_j
    return block


def _add_photon_whole(coef: np.ndarray, amps: np.ndarray, total: int) -> np.ndarray:
    """sum_b coef[b, j] a_dag[b] applied to every column j of `amps` on
    sector total-1 at once, each mode's terms gathered and scattered over
    the whole sector through its index map."""
    modes = len(coef)
    target, weight, _ = _raising_maps(modes, total)
    out = np.zeros((sector_size(modes, total), amps.shape[1]), dtype=complex)
    for b in range(modes):
        out[target[b]] += coef[b:b + 1] * (weight[b][:, None] * amps)
    return out


def lift_blocks_whole(matrix: np.ndarray, n_max: int) -> list:
    """Sector blocks 0..n_max of the lift, each sector's columns added a
    photon at once over whole-sector gathers, and divided by their norms:
    the block recurrence as the package ran it before it went by row
    panels."""
    m = matrix.shape[0]
    blocks = [np.ones((1, 1), dtype=complex)]
    for n in range(1, n_max + 1):
        first, parent, _ = _parent_columns(m, n)
        norm = np.array([sqrt(occ[a]) for a, occ in zip(first, enumerate_sector(m, n))])
        blocks.append(_add_photon_whole(matrix[:, first], blocks[n - 1][:, parent], n) / norm)
    return blocks


def lift_apply_fock_whole(matrix: np.ndarray, occupation) -> np.ndarray:
    """`lift_apply_fock` on whole-sector gathers."""
    amps = np.ones((1, 1), dtype=complex)
    n = 0
    for mode, count in enumerate(occupation):
        for _ in range(count):
            n += 1
            amps = _add_photon_whole(matrix[:, mode:mode + 1], amps, n)
    norm = sqrt(prod(factorial(x) for x in occupation))
    return amps[:, 0] / norm


def matrix_text_by_entry(a: np.ndarray, newline: str) -> str:
    """`cli._matrix_text` with every entry's word looked up and joined."""
    inner = newline + " "
    flat = a.ravel()
    nonzero = flat != 0
    negative = np.signbit(flat)
    mags, inv = np.unique(np.abs(flat[nonzero]), return_inverse=True)
    reprs = list(map(float.__repr__, mags.tolist()))
    codes = negative.astype(np.intp)
    codes[nonzero] = 2 + inv + negative[nonzero] * len(reprs)
    word = (["0.0", "-0.0"] + reprs + ["-" + r for r in reprs]).__getitem__
    sep = "," + inner + " "
    body = (inner + "]," + inner + "[" + inner + " ").join(
        sep.join(map(word, row)) for row in codes.reshape(a.shape).tolist())
    return "[" + inner + "[" + inner + " " + body + inner + "]" + newline + "]"


def kraus_pure_fock(u_full: np.ndarray, jmap: np.ndarray, ext_index: int):
    """Kraus set for a pure Fock injection straight from <m| lifted |n>."""
    pad = np.zeros((u_full.shape[0] + 1, u_full.shape[1] + 1), dtype=complex)
    pad[:-1, :-1] = u_full
    out = []
    for m_idx in range(jmap.shape[0]):
        k = pad[np.ix_(jmap[m_idx, :], jmap[ext_index, :])]
        if np.abs(k).max() > 0:
            out.append(k)
    return out


def nearest_density_grid_2x2(h: np.ndarray, steps: int = 400) -> np.ndarray:
    """Brute-force nearest 2x2 density matrix in Frobenius norm over a fine grid.

    Parametrizes rho = p |v><v| + (1-p) |w><w| with v, w an orthonormal pair
    from eigenvectors of h (the optimum shares h's eigenbasis), scanning p.
    """
    h = (h + h.conj().T) / 2
    _, vecs = np.linalg.eigh(h)
    best, best_dist = None, np.inf
    for p in np.linspace(0.0, 1.0, steps + 1):
        rho = p * np.outer(vecs[:, 0], vecs[:, 0].conj()) \
            + (1 - p) * np.outer(vecs[:, 1], vecs[:, 1].conj())
        dist = np.linalg.norm(rho - h)
        if dist < best_dist:
            best, best_dist = rho, dist
    return best


def apply_loss_direct(rho: np.ndarray, transmission: float) -> np.ndarray:
    """Single-mode loss by the beam-splitter + environment-trace definition.

    Embeds the state in system (x) vacuum environment with dimension large
    enough to be exact, applies the two-mode beam-splitter lift entrywise
    from the binomial amplitude formula, and traces the environment.
    """
    d = rho.shape[0]
    t = transmission
    out = np.zeros_like(rho)
    for n in range(d):
        for m in range(d):
            if rho[n, m] == 0:
                continue
            for j in range(0, min(n, m) + 1):
                amp = sqrt(
                    comb_float(n, j) * comb_float(m, j)
                    * t ** (n + m - 2 * j) * (1 - t) ** (2 * j)
                )
                out[n - j, m - j] += amp * rho[n, m]
    return out


def comb_float(n: int, k: int) -> float:
    if k < 0 or k > n:
        return 0.0
    return factorial(n) / (factorial(k) * factorial(n - k))


def superoperator_kron(kraus) -> np.ndarray:
    """The whole superoperator sum conj(K) kron K under column stacking."""
    return sum(np.kron(k.conj(), k) for k in kraus)


def stationary_dense(g: np.ndarray, degeneracy_gap: float = 1e-8) -> tuple:
    """Stationary state and spectral diagnostics from one dense eig of the whole G.

    Returns (rho, eigenvalue closest to 1, second largest modulus, number of
    eigenvalues within `degeneracy_gap` of that eigenvalue).
    """
    d = int(round(sqrt(g.shape[0])))
    evals, evecs = np.linalg.eig(g)
    i = int(np.argmin(np.abs(evals - 1.0)))
    n_unit = int(np.count_nonzero(np.abs(evals - evals[i]) < degeneracy_gap))
    moduli = np.abs(evals)
    moduli[i] = -np.inf
    rho = evecs[:, i].reshape((d, d), order="F")
    rho = rho / np.trace(rho)
    return (rho + rho.conj().T) / 2, evals[i], float(moduli.max()), n_unit


def fidelity_svd(a: np.ndarray, b: np.ndarray) -> float:
    """Uhlmann fidelity as the squared trace norm of sqrt(a) sqrt(b)."""
    def psd_sqrt(m):
        w, v = np.linalg.eigh(m)
        return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    return float(np.linalg.svd(psd_sqrt(a) @ psd_sqrt(b), compute_uv=False).sum() ** 2)


def tensor_product_kron(a: np.ndarray, b: np.ndarray, basis_a, basis_b, joint,
                        renormalize: bool) -> np.ndarray:
    """Joint matrix by the full np.kron, scattered into the joint basis.

    Keeps the kron entries whose A and B parts combine to at most
    joint.n_max photons; with `renormalize` the kept trace is scaled to 1,
    and a kept trace of 0 is a TruncationError.
    """
    idx = tensor_index_map(basis_a, basis_b, joint)
    kron = np.kron(a, b)
    flat = idx.reshape(-1)
    keep = np.nonzero(flat >= 0)[0]
    mat = np.zeros((joint.size, joint.size), dtype=complex)
    mat[np.ix_(flat[keep], flat[keep])] = kron[np.ix_(keep, keep)]
    if renormalize:
        tr = np.trace(mat).real
        if tr <= 0:
            raise TruncationError("tensor product lost all weight to truncation")
        mat /= tr
    return mat


def input_tensor_loop(k: int, l: int, modes: int, m_ext: int, ext, loop_set,
                      include_loop: bool) -> np.ndarray:
    """Full-M tensor of rho_ext (x) rho_loop, one entry at a time.

    Splits every index tuple into its E and L parts and multiplies the two
    scalar moments; entries with a zero E moment are skipped (left exactly 0).
    """
    out = np.zeros((modes,) * (k + l), dtype=complex)
    ext_cache = {}
    for idx in np.ndindex(*(modes,) * (k + l)):
        cre, ann = idx[:k], idx[k:]
        cre_e = tuple(i for i in cre if i < m_ext)
        cre_l = tuple(i - m_ext for i in cre if i >= m_ext)
        ann_e = tuple(j for j in ann if j < m_ext)
        ann_l = tuple(j - m_ext for j in ann if j >= m_ext)
        k_l, l_l = len(cre_l), len(ann_l)
        if not include_loop and k_l == k and l_l == l:
            continue
        ext_key = (len(cre_e), len(ann_e))
        if ext_key == (0, 0):
            ext_val = 1.0 + 0j
        else:
            if ext_key not in ext_cache:
                ext_cache[ext_key] = ext.tensor(*ext_key)
            ext_val = ext_cache[ext_key][cre_e + ann_e]
        if ext_val == 0.0:
            continue
        if (k_l, l_l) == (0, 0):
            loop_val = 1.0 + 0j
        else:
            loop_val = loop_set.get(k_l, l_l).values[cre_l + ann_l]
        out[idx] = ext_val * loop_val
    return out


def moment_tensor_loop(cache, k: int, l: int) -> np.ndarray:
    """Rank-(k, l) moment tensor of a `_MomentCache`, one entry at a time,
    calling `cache.value` once per pair of sorted index multisets."""
    m = cache.basis.modes
    out = np.zeros((m,) * (k + l), dtype=complex)
    values = {}
    for idx in np.ndindex(*(m,) * (k + l)):
        key = (tuple(sorted(idx[:k])), tuple(sorted(idx[k:])))
        if key not in values:
            values[key] = cache.value(*key)
        out[idx] = values[key]
    return out


def coherent_dm(alphas, n_max: int) -> DensityMatrix:
    """Product coherent state |alpha_1 .. alpha_m> cut at n_max photons and
    renormalized, from its Fock expansion prod_i alpha_i^n_i / sqrt(n_i!)."""
    basis = FockBasis(len(alphas), n_max)
    psi = np.array([prod(a ** n / sqrt(factorial(n)) for a, n in zip(alphas, occ))
                    for occ in basis.states], dtype=complex)
    psi /= np.linalg.norm(psi)
    return DensityMatrix(basis, np.outer(psi, psi.conj()))


def kraus_sum_stacked(channel, mat: np.ndarray) -> np.ndarray:
    """`QuantumChannel.apply_matrix` as the package ran it before it scattered
    one operator at a time: every operator scattered into one K x d x d stack,
    then k @ mat @ k^dag added up in operator order."""
    rows, cols, values, owner = channel.nonzeros
    d = channel.basis.size
    stack = np.zeros((owner[-1] + 1, d, d), dtype=complex)
    stack[owner, rows, cols] = values
    out = np.zeros_like(mat, dtype=complex)
    for k in stack:
        out += k @ mat @ k.conj().T
    return out


def superop_block_dense(channel, b: int) -> np.ndarray:
    """Charge block `b` of G by two dense gathers per Kraus operator: the
    block builder as the package ran it before it paired Kraus nonzeros."""
    idx = channel.charge_blocks[b]
    cols, rows = np.divmod(idx, channel.basis.size)
    g = np.zeros((idx.size, idx.size), dtype=complex)
    for k in channel.kraus:
        g += (np.take(np.take(k, rows, 0), rows, 1)
              * np.take(np.take(k.conj(), cols, 0), cols, 1))
    return g


def loop_kraus_from_full(lifted, rho_ext, prune: float = 1e-14) -> list:
    """Kraus operators of `loop_channel` gathered from the dense lifted
    matrix `lifted.full()`, zero-padded by one row and column, as the
    package built them before it read the sector blocks."""
    joint = lifted.basis
    ext_basis = rho_ext.basis
    loop_basis = FockBasis(joint.modes - ext_basis.modes, joint.n_max)
    evals, evecs = np.linalg.eigh(rho_ext.mat)
    ext_out = FockBasis(ext_basis.modes, joint.n_max)
    jmap_in = tensor_index_map(ext_basis, loop_basis, joint)
    jmap_out = tensor_index_map(ext_out, loop_basis, joint)
    u_pad = np.zeros((joint.size + 1, joint.size + 1), dtype=complex)
    u_pad[:joint.size, :joint.size] = lifted.full()
    kraus = []
    for lam, psi in zip(evals, evecs.T):
        if lam < 1e-12:
            continue
        w = np.zeros((joint.size + 1, loop_basis.size), dtype=complex)
        for alpha, c in enumerate(psi):
            if abs(c) < 1e-16:
                continue
            w += c * u_pad[:, jmap_in[alpha, :]]
        root = sqrt(lam)
        for m in range(ext_out.size):
            k = root * w[jmap_out[m, :], :]
            if np.abs(k).max() > prune:
                kraus.append(k)
    return kraus


def _lifted_columns_by_sector(ext_basis, loop_basis, joint, alpha: int) -> list:
    """(n, src, dst) for each joint sector n >= n_alpha: the flat positions
    src in block n of the columns L(U) (|alpha> tensor |j>), and their flat
    positions J * d + j in a (joint.size, d) array in joint order."""
    d = loop_basis.size
    jmap_in = tensor_index_map(ext_basis, loop_basis, joint)
    n_alpha = sum(ext_basis.state(alpha))
    out = []
    for k in range(joint.n_max - n_alpha + 1):
        n, loop_k = n_alpha + k, loop_basis.sector_slice(k)
        js = np.arange(loop_k.start, loop_k.stop)
        rows = np.arange(joint.sector_slice(n).start, joint.sector_slice(n).stop)
        src = np.arange(rows.size)[:, None] * rows.size + (jmap_in[alpha, js] - rows[0])
        out.append((n, src.ravel(), (rows[:, None] * d + js).ravel()))
    return out


def loop_channel_per_sector(lifted, rho_ext) -> QuantumChannel:
    """`loop_channel` as the package built it before it gathered each
    amplitude's lifted columns at once: a take, a multiply and a fancy add
    per sector block, in joint order, then one argsort of the nonzeros
    into (m, i, j) order."""
    joint = lifted.basis
    ext_basis = rho_ext.basis
    loop_basis = FockBasis(joint.modes - ext_basis.modes, joint.n_max)
    n_env = rho_ext.max_populated_sector()
    evals, evecs = np.linalg.eigh(rho_ext.mat)
    d = loop_basis.size
    out_of, row_of = joint_parts(FockBasis(ext_basis.modes, joint.n_max), loop_basis, joint)
    parts, n_ops = [], 0
    for lam, psi in zip(evals, evecs.T):
        if lam < 1e-12:
            continue
        w = np.zeros(joint.size * d, dtype=complex)
        for alpha, c in enumerate(psi):
            if abs(c) >= 1e-16:
                for n, src, dst in _lifted_columns_by_sector(ext_basis, loop_basis, joint,
                                                             alpha):
                    w[dst] += c * lifted.block(n).take(src)
        at, cols = np.divmod(np.flatnonzero(w), d)
        order = np.argsort((out_of[at] * d + row_of[at]) * d + cols)
        at, cols = at[order], cols[order]
        values = sqrt(lam) * w[at * d + cols]
        nonzero = values != 0
        at, cols, values = at[nonzero], cols[nonzero], values[nonzero]
        if not values.size:
            continue
        starts = np.flatnonzero(np.diff(out_of[at], prepend=-1))
        sizes = np.diff(starts, append=at.size)
        kept = np.maximum.reduceat(np.abs(values), starts) > 1e-14
        keep = np.repeat(kept, sizes)
        owner = n_ops + np.repeat(np.arange(np.count_nonzero(kept)), sizes[kept])
        parts.append((row_of[at[keep]], cols[keep], values[keep], owner))
        n_ops += int(np.count_nonzero(kept))
    return QuantumChannel(loop_basis, tuple(np.concatenate(p) for p in zip(*parts)),
                          valid_max_photons=joint.n_max - n_env, max_photon_gain=n_env)


def fixed_point_dense(channel) -> DensityMatrix | None:
    """`fixed_point` as the package ran it before the fixed point stayed in
    vector form: the bordered system built afresh, and the solution
    scattered into a d x d matrix, Hermitized, normalized and checked there."""
    g = channel.superop_block(0)
    m = g.shape[0]
    d = channel.basis.size
    tr_vec = np.eye(d, dtype=complex).flatten(order="F")[channel.charge_blocks[0]]
    t = tr_vec / d
    a = np.eye(m, dtype=complex) - g + np.outer(t, tr_vec.conj())
    z = _probe(m)
    try:
        x, probe = np.linalg.solve(a, np.column_stack([t, z])).T
    except np.linalg.LinAlgError:
        return None
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(probe))):
        return None
    if np.linalg.norm(a @ probe - z) > 1e-8 * np.linalg.norm(z):
        return None
    if np.linalg.norm(g @ x - x) > 1e-10 * max(1.0, np.linalg.norm(x)):
        return None
    if len(channel.charge_blocks) > 1:
        rho = DensityMatrix.from_block0(channel.basis, x).mat
    else:
        rho = np.ascontiguousarray(x.reshape((d, d), order="F"))
    rho = (rho + rho.conj().T) / 2
    tr = np.trace(rho).real
    if abs(tr - 1.0) > 1e-8:
        return None
    rho /= tr
    if np.linalg.eigvalsh(rho)[0] < -1e-8:
        return None
    return DensityMatrix(channel.basis, rho, check=False)


def conjugate_dense(lifted, rho: np.ndarray) -> np.ndarray:
    """Blockwise L(U) rho L(U)^dag over every sector pair of a dense rho,
    skipping the all-zero ones: `LiftedUnitary.conjugate` as the package ran
    it before it took sector-pair blocks, and the conjugation stage of
    `joint_pass_dense`."""
    basis = lifted.basis
    out = np.zeros_like(rho)
    blocks = [lifted.block(n) for n in range(basis.n_max + 1)]
    adjoints = [b.conj().T for b in blocks]
    slices = [basis.sector_slice(n) for n in range(basis.n_max + 1)]
    for ba, sa in zip(blocks, slices):
        for bb, sb in zip(adjoints, slices):
            if rho[sa, sb].any():
                out[sa, sb] = ba @ rho[sa, sb] @ bb
    return out


@lru_cache(maxsize=None)
def _trace_buckets(basis: FockBasis, start: int, stop: int) -> tuple:
    """Gather grids (kept, joint) per state of the traced-out modes."""
    keep_basis = FockBasis(stop - start, basis.n_max)
    buckets = {}
    for i, occ in enumerate(basis.states):
        kept = keep_basis.index_of(occ[start:stop])
        buckets.setdefault(occ[:start] + occ[stop:], []).append((kept, i))
    return tuple((np.ix_(kidx, kidx), np.ix_(jidx, jidx))
                 for kidx, jidx in (zip(*pairs) for pairs in buckets.values()))


def partial_trace_buckets(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced state on the modes keep = (start, stop), at least one of them,
    by one vectorized add per state of the traced-out modes over the dense
    matrix: `partial_trace` as the package ran it before it traced
    sector-pair blocks, and the trace stage of `joint_pass_dense`."""
    start, stop = keep
    keep_basis = FockBasis(stop - start, rho.basis.n_max)
    out = np.zeros((keep_basis.size, keep_basis.size), dtype=complex)
    for kept, joint in _trace_buckets(rho.basis, start, stop):
        out[kept] += rho.mat[joint]
    return DensityMatrix(keep_basis, out, check=False)


def joint_pass_dense(setup, rho_line: DensityMatrix) -> tuple:
    """(rho_det, next line state) of one iteration with the joint state built
    densely: the product's sector-pair blocks written into a zero joint
    matrix, conjugated by `conjugate_dense`, then both reduced states
    gathered by `partial_trace_buckets`.  This is `_LoopSetup.step` as the
    package ran it before it traced the conjugated blocks directly."""
    rho_loop_in = setup.in_loop.apply(rho_line) if setup.in_loop else rho_line
    leaked = overflow_weight(setup.rho_ext_in, rho_loop_in, setup.n_max)
    joint = setup.joint
    mat = np.zeros((joint.size, joint.size), dtype=complex)
    for (n, m), r in tensor_product_blocks(setup.rho_ext_in, rho_loop_in, joint,
                                           leaked).items():
        mat[joint.sector_slice(n), joint.sector_slice(m)] = r
    rho_out = DensityMatrix(joint, conjugate_dense(setup.lifted, mat), check=False)
    rho_det = partial_trace_buckets(rho_out, (0, setup.n_ext))
    rho_next = partial_trace_buckets(rho_out, (setup.n_ext, setup.modes))
    return (setup.out_ext.apply(rho_det) if setup.out_ext else rho_det,
            setup.out_loop.apply(rho_next) if setup.out_loop else rho_next)


def charge0_layout_by_nonzero(basis: FockBasis) -> tuple:
    """The charge-0 entries' rows, columns, diagonal positions, flat C-order
    matrix indices, positions in the zero-padded stack of sector blocks and
    that stack's shape, read off one np.nonzero of the sector-equality mask:
    `charge0_layout` and `_sector_layout` as the package built them before
    both were derived from `charge_split`."""
    totals = basis.totals()
    cols, rows = np.nonzero(totals[:, None] == totals[None, :])
    slices = [basis.sector_slice(n) for n in range(basis.n_max + 1)]
    starts = np.array([sl.start for sl in slices])
    width = max(sl.stop - sl.start for sl in slices)
    n = totals[rows]
    pos = (n * width + rows - starts[n]) * width + cols - starts[n]
    return (rows, cols, np.flatnonzero(rows == cols), rows * basis.size + cols, pos,
            (basis.n_max + 1, width, width))


def block0_layout_before(basis: FockBasis, whole: bool) -> tuple:
    """Block 0's column-stacked indices, where each of its entries'
    transpose lies in that block's order, and where its diagonal entries
    lie, as `qstate` and `channels` each built them before one layout served
    both: for one block of every index, column stacking's tables from
    `channels._block0_layout`; else `charge0_transpose`'s search over the
    scanned charge-0 indices, with the diagonal of
    `charge0_layout_by_nonzero`."""
    d = basis.size
    if whole:
        return (np.arange(d * d), np.arange(d * d).reshape(d, d).ravel(order="F"),
                np.arange(0, d * d, d + 1))
    idx = charge_blocks_by_scans(basis)[0]
    rows, cols, diag = charge0_layout_by_nonzero(basis)[:3]
    return idx, np.searchsorted(idx, cols + d * rows), diag


def stationary_rho_by_unvec(channel) -> np.ndarray:
    """`stationary_state`'s matrix as the package built it before one layout
    served states and channels: the eigenvector of G_0 closest to 1 placed
    at its column-stacked indices and reshaped column by column into a d x d
    matrix, divided by its trace and Hermitized."""
    evals, evecs = np.linalg.eig(channel.superop_block(0))
    d = channel.basis.size
    flat = np.zeros(d * d, dtype=complex)
    flat[channel.charge_blocks[0]] = evecs[:, int(np.argmin(np.abs(evals - 1.0)))]
    rho = np.ascontiguousarray(flat.reshape((d, d), order="F"))
    rho = rho / np.trace(rho)
    return (rho + rho.conj().T) / 2


def charge0_by_take(rho: DensityMatrix) -> np.ndarray | None:
    """rho's charge-0 entries by np.take of their flat indices, or None when
    rho has coherences between photon-number sectors: `_in_blocks` as the
    package ran it before `DensityMatrix.charge0`."""
    if rho.block0 is not None:
        return rho.block0
    entries = np.take(rho.mat, charge0_layout_by_nonzero(rho.basis)[3])
    return entries if np.count_nonzero(entries) == np.count_nonzero(rho.mat) else None


def fidelity_kernel_eigh(a: np.ndarray, b: np.ndarray) -> list:
    """`qstate._fidelity_kernel` by eigh and eigvalsh on blocks of every
    width: the kernel as the package ran it before width-1 blocks took the
    closed form, and the kernel of `fidelities_gathered`."""
    evals, evecs = np.linalg.eigh(a)
    root = evecs * np.sqrt(np.clip(evals, 0.0, None))[..., None, :]
    sqrt_a = root @ evecs.conj().swapaxes(-1, -2)
    inner = sqrt_a @ b @ sqrt_a
    lam = np.linalg.eigvalsh((inner + inner.conj().swapaxes(-1, -2)) / 2)
    roots = np.sqrt(np.clip(lam, 0.0, None)).reshape(len(a), -1)
    return [min(max(float(r.sum() ** 2), 0.0), 1.0) for r in roots]


def sector_weights_by_slices(rho: DensityMatrix, above: int = -1) -> np.ndarray:
    """`DensityMatrix.sector_weights` as one sum per sector slice of the
    dense diagonal, whatever the sector widths."""
    diag = rho.mat.diagonal().real
    return np.array([diag[rho.basis.sector_slice(n)].sum()
                     for n in range(rho.basis.n_max + 1)[above + 1:]])


def stabilization_time_stepwise(config, tolerance: float = 1e-6) -> int:
    """`stabilization_time` as the package ran it before it scored the
    trajectory in chunks: one channel step, then one fidelity, per iteration,
    within the cap `evolve.STABILIZATION_CAP` holds when called."""
    max_iterations = evolve.STABILIZATION_CAP
    setup = _LoopSetup(config)
    channel = setup.channel
    rho_stat = fixed_point(channel)
    if rho_stat is None:
        rho_stat = stationary_state(channel).rho
    rho = setup.vacuum_line()
    for i in range(max_iterations + 1):
        if 1.0 - fidelities_gathered([rho], rho_stat)[0] < tolerance:
            return i
        rho = channel.apply(rho)
    raise ConvergenceError(
        f"loop state did not stabilize within {max_iterations} iterations"
    )


def loss_kraus_loop(transmission, modes: int, n_max: int) -> list:
    """Kraus operators of `loss_channel` by a Python double loop over loss
    patterns and basis states, as the package built them before it
    gathered per-mode factor tables."""
    t = np.broadcast_to(np.asarray(transmission, dtype=float), (modes,))
    basis = FockBasis(modes, n_max)
    kraus = []
    for lost in basis.states:  # every loss pattern with total <= n_max
        amp = np.ones(basis.size)
        target = np.full(basis.size, -1, dtype=int)
        for i, n_occ in enumerate(basis.states):
            if any(n_occ[m] < lost[m] for m in range(modes)):
                continue
            a = 1.0
            for m in range(modes):
                n, k = n_occ[m], lost[m]
                a *= comb(n, k) * t[m] ** (n - k) * (1.0 - t[m]) ** k
            if a == 0.0:
                continue
            target[i] = basis.index_of(tuple(n - k for n, k in zip(n_occ, lost)))
            amp[i] = sqrt(a)
        cols = np.nonzero(target >= 0)[0]
        if cols.size == 0:
            continue
        k_mat = np.zeros((basis.size, basis.size), dtype=complex)
        k_mat[target[cols], cols] = amp[cols]
        kraus.append(k_mat)
    return kraus


def charge_blocks_by_scans(basis: FockBasis) -> list:
    """Column-stacked indices of the charge blocks, one scan per charge in
    the order 0, -1, 1, -2, 2, ...: `charge_blocks` as the package built it
    before it sorted once."""
    totals = basis.totals()
    charge = np.subtract.outer(totals, totals).flatten(order="F")
    n = basis.n_max
    return [np.flatnonzero(charge == q) for q in sorted(range(-n, n + 1), key=abs)]


def block_charges(basis: FockBasis, blocks) -> list:
    """The charge n_i - n_j of each block of column-stacked indices i + d j."""
    totals, d = basis.totals(), basis.size
    return [int(totals[idx[0] % d] - totals[idx[0] // d]) for idx in blocks]


def channel_from_kraus(basis: FockBasis, kraus, valid_max_photons: int,
                       max_photon_gain: int = 0) -> QuantumChannel:
    """The channel of the dense operators `kraus`, scanned once for their
    nonzeros, and keeping the dense list as `kraus`: the constructor the
    package had before every channel was built from its nonzeros."""
    kraus = [np.asarray(k, dtype=complex) for k in kraus]
    d = basis.size
    for k in kraus:
        if k.shape != (d, d):
            raise ValueError(f"Kraus operator shape {k.shape} does not match basis size {d}")
    if not kraus:
        raise ValueError("channel needs at least one Kraus operator")
    found = [np.nonzero(k) for k in kraus]
    chan = QuantumChannel(basis, (np.concatenate([r for r, _ in found]),
                                  np.concatenate([c for _, c in found]),
                                  np.concatenate([k[rc] for k, rc in zip(kraus, found)]),
                                  np.repeat(np.arange(len(found)), [r.size for r, _ in found])),
                          valid_max_photons, max_photon_gain)
    chan.kraus = kraus
    return chan


def compose_dense(outer, inner) -> QuantumChannel:
    """`compose` as the package ran it before it joined the nonzeros: every
    dense product K_out K_in, pruned at max |entry| <= 1e-14 and scanned."""
    if outer.basis != inner.basis:
        raise ValueError("channel bases do not match")
    kraus = []
    for ko in outer.kraus:
        for ki in inner.kraus:
            k = ko @ ki
            if np.abs(k).max() > 1e-14:
                kraus.append(k)
    return channel_from_kraus(
        outer.basis, kraus,
        valid_max_photons=min(inner.valid_max_photons,
                              outer.valid_max_photons - inner.max_photon_gain),
        max_photon_gain=inner.max_photon_gain + outer.max_photon_gain,
    )


def identity_channel(basis: FockBasis) -> QuantumChannel:
    return channel_from_kraus(basis, [np.eye(basis.size, dtype=complex)],
                              valid_max_photons=basis.n_max, max_photon_gain=0)


def purity(rho: DensityMatrix) -> float:
    return float(np.trace(rho.mat @ rho.mat).real)


def apply_dense(channel, rho: DensityMatrix) -> DensityMatrix:
    """`QuantumChannel.apply` as the package ran it before states stepped as
    charge-0 vectors: the charge-0 block gathered from the dense matrix,
    checked against it by two nonzero counts, multiplied and scattered back
    into a dense matrix."""
    if rho.basis != channel.basis:
        raise ValueError("state basis does not match the channel basis")
    diag = rho.mat.diagonal().real
    excess = float(np.array([diag[rho.basis.sector_slice(n)].sum()
                             for n in range(channel.valid_max_photons + 1,
                                            rho.basis.n_max + 1)]).sum())
    if excess > LEAK_TOLERANCE:
        raise TruncationError("state populates sectors above the channel validity bound")
    out = None
    if len(channel.charge_blocks) > 1 and channel.charge_blocks[0].size <= DENSE_DIM_CAP:
        cols, rows = np.divmod(channel.charge_blocks[0], channel.basis.size)
        x = rho.mat[rows, cols]
        if np.count_nonzero(x) == np.count_nonzero(rho.mat):
            out = np.zeros_like(rho.mat, dtype=complex)
            out[rows, cols] = channel.superop_block(0) @ x
    if out is None:
        out = channel.apply_matrix(rho.mat)
    if excess > 0.0:
        tr = np.trace(out).real
        if tr <= 0:
            raise TruncationError("channel output lost all weight to truncation")
        out /= tr
    return DensityMatrix(channel.basis, out, check=False)


def fidelities_gathered(states, sigma: DensityMatrix) -> np.ndarray:
    """`qstate.fidelities` as the package ran it before states stepped as
    charge-0 vectors and width-1 blocks took the closed form: every state's
    sector blocks gathered from its dense matrix, checked against it by two
    nonzero counts, and scored by `fidelity_kernel_eigh`."""
    slices = [sigma.basis.sector_slice(n) for n in range(sigma.basis.n_max + 1)]
    width = max(sl.stop - sl.start for sl in slices)
    flat, pos = [], []
    for n, sl in enumerate(slices):
        i, j = np.arange(sl.start, sl.stop), np.arange(sl.stop - sl.start)
        flat.append((i[:, None] * sigma.basis.size + i[None, :]).ravel())
        pos.append((n * width * width + j[:, None] * width + j[None, :]).ravel())
    flat, pos = np.concatenate(flat), np.concatenate(pos)
    mats = [rho.mat for rho in states] + [sigma.mat]
    entries = np.array([np.take(mat, flat) for mat in mats])
    in_blocks = np.count_nonzero(entries, axis=1) == [np.count_nonzero(mat) for mat in mats]
    blocked = in_blocks[:-1] & in_blocks[-1]
    out = np.empty(len(states))
    if blocked.any():
        stack = np.zeros((len(mats), len(slices) * width * width), dtype=complex)
        stack[:, pos] = entries
        stack = stack.reshape(len(mats), len(slices), width, width)
        out[blocked] = fidelity_kernel_eigh(stack[:-1][blocked], stack[-1])
    for k in np.flatnonzero(~blocked):
        out[k] = fidelity_kernel_eigh(states[k].mat[None], sigma.mat)[0]
    return out


def spectrum_all_blocks(channel, evals: np.ndarray) -> np.ndarray:
    """The spectrum of G: `evals` of the charge-0 block, then the other
    blocks' in block order, every q != 0 block diagonalized: the spectrum
    `stationary_state` read before it took uniqueness from the q >= 0 blocks."""
    return np.concatenate([evals] + [np.linalg.eigvals(channel.superop_block(b))
                                     for b in range(1, len(channel.charge_blocks))])


def spectral_diagnostics_all_blocks(channel) -> tuple:
    """(second modulus, number of eigenvalues within 1e-8 of the unit one)
    over the whole spectrum of G, as `stationary_state` computed them
    before it deferred the q < 0 blocks."""
    evals = np.linalg.eig(channel.superop_block(0))[0]
    i = int(np.argmin(np.abs(evals - 1.0)))
    spectrum = spectrum_all_blocks(channel, evals)
    moduli = np.abs(spectrum)
    moduli[i] = -np.inf
    return float(moduli.max()), int(np.count_nonzero(np.abs(spectrum - evals[i]) < 1e-8))


def unique_by_q_nonnegative_blocks(channel) -> bool:
    """Whether the eigenvalue of G closest to 1 is simple, read from the
    charge-0 and q > 0 block spectra with the gap 1e-8: G_-q is the
    conjugate of G_q up to relabelling, so each q > 0 eigenvalue mu also
    stands for conj(mu).  The uniqueness rule `stationary_state` applied
    before it read charge 0 alone and left the rest to rho(M_eff,LL)."""
    evals = np.linalg.eigvals(channel.superop_block(0))
    lam = evals[np.argmin(np.abs(evals - 1.0))]
    n_unit = np.count_nonzero(np.abs(evals - lam) < 1e-8)
    for b, q in enumerate(block_charges(channel.basis, channel.charge_blocks)):
        if q > 0:
            mu = np.linalg.eigvals(channel.superop_block(b))
            n_unit += np.count_nonzero(np.abs(mu - lam) < 1e-8)
            n_unit += np.count_nonzero(np.abs(mu - np.conj(lam)) < 1e-8)
    return n_unit == 1


def sample_one_draw(dist, shots: int, seed: int) -> dict:
    """`ProbabilityDistribution.sample` as the package ran it before it drew
    in chunks: every shot from one `Generator.random` call."""
    rng = np.random.default_rng(seed)
    cdf = np.cumsum(dist.probabilities)
    cdf[-1] = 1.0
    counts = np.bincount(np.searchsorted(cdf, rng.random(shots), side="right"),
                         minlength=dist.basis.size)
    return {dist.basis.state(i): int(c) for i, c in enumerate(counts) if c > 0}


def _kron_power(a: np.ndarray, n: int) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for _ in range(n):
        out = np.kron(out, a)
    return out


def stationary_order_per_order(k: int, l: int, matrix: np.ndarray, rho_ext, loop_set, ext):
    """`tensors.stationary_order` as the package ran it before one context
    per solve: Kronecker powers built afresh for every order, the spectral
    radius checked per order, and the system formed as eye - kron."""
    matrix = np.asarray(matrix, dtype=complex)
    modes = matrix.shape[0]
    m_ext = rho_ext.basis.modes
    n_looped = modes - m_ext
    _check_spectral_radius(matrix, n_looped)
    v = matrix.conj()
    v_ll = v[m_ext:, m_ext:]
    c_in = _input_tensor(k, l, modes, m_ext, ext, loop_set, include_loop=False)
    full = _kron_power(v, k) @ c_in.reshape(modes ** k, modes ** l) @ _kron_power(v, l).conj().T
    source = full.reshape(c_in.shape)[(slice(m_ext, modes),) * (k + l)]
    a = np.eye(n_looped ** (k + l), dtype=complex) - np.kron(
        _kron_power(v_ll, l).conj(), _kron_power(v_ll, k))
    rhs = source.reshape(n_looped ** k, n_looped ** l).flatten(order="F")
    sol = np.linalg.solve(a, rhs)
    values = sol.reshape((n_looped ** k, n_looped ** l), order="F")
    return CorrelationTensor(k, l, n_looped, values.reshape((n_looped,) * (k + l)))


def recursive_stationary_per_order(matrix: np.ndarray, rho_ext, rank_cap: int) -> TensorSet:
    """`tensors.recursive_stationary` over `stationary_order_per_order`."""
    matrix = np.asarray(matrix, dtype=complex)
    n_looped = matrix.shape[0] - rho_ext.basis.modes
    _check_spectral_radius(matrix, n_looped)
    ext = _MomentCache(rho_ext)
    out = TensorSet(n_looped)
    for n in range(1, rank_cap + 1):
        for m in range(n + 1):
            out.put(stationary_order_per_order(n, m, matrix, rho_ext, out, ext))
    return out


def reconstruct_analytic_loop(system, n_max: int | None = None):
    """`reconstruct.reconstruct_analytic` as the package ran it before it
    tabulated the weights: every weight's factorials recomputed per (pair, q)."""
    n_cap = system.basis.n_max if n_max is None else n_max
    basis = FockBasis(system.basis.modes, n_cap)
    modes = basis.modes
    pairs = [(n_occ, m_occ) for i, n_occ in enumerate(basis.states)
             for j, m_occ in enumerate(basis.states) if i <= j]
    pairs.sort(key=lambda nm: (-min(sum(nm[0]), sum(nm[1])),
                               basis.index_of(nm[0]), basis.index_of(nm[1])))
    done = {}
    rho = np.zeros((basis.size, basis.size), dtype=complex)
    for n_occ, m_occ in pairs:
        corr = 0.0 + 0.0j
        for q_occ in basis.states:
            if sum(q_occ) == 0:
                continue
            n_up = tuple(a + b for a, b in zip(n_occ, q_occ))
            m_up = tuple(a + b for a, b in zip(m_occ, q_occ))
            if sum(n_up) > n_cap or sum(m_up) > n_cap:
                continue
            weight = prod(
                sqrt(factorial(n_occ[i] + q_occ[i]) / factorial(q_occ[i]))
                * sqrt(factorial(m_occ[i] + q_occ[i]) / factorial(q_occ[i]))
                for i in range(modes)
            )
            assert (n_up, m_up) in done, "recursion read an element not yet computed"
            corr += weight * done[(n_up, m_up)]
        lead = sqrt(prod(factorial(x) for x in n_occ) * prod(factorial(x) for x in m_occ))
        value = (system.get(m_occ, n_occ) - corr) / lead
        done[(n_occ, m_occ)] = value
        i, j = basis.index_of(n_occ), basis.index_of(m_occ)
        rho[i, j] = value
        if i != j:
            rho[j, i] = np.conjugate(value)
            done[(m_occ, n_occ)] = np.conjugate(value)
    evals = np.linalg.eigvalsh(rho)
    negativity = float(-evals[evals < 0].sum())
    projected = evals[0] < -1e-8
    if projected:
        out = project_psd(rho, basis)
    else:
        out = DensityMatrix(basis, rho / np.trace(rho).real, check=False)
    return out, ReconstructionInfo(negativity_before_projection=negativity,
                                   projected=bool(projected))
