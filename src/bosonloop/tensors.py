"""Normally ordered correlation tensors and their stationary fixed points.

A rank-(k, l) tensor holds the moments

    C[i1..ik, j1..jl] = < a_dag[i1] .. a_dag[ik]  a[j1] .. a[jl] >,

stored dense with shape (modes,)**(k+l), creation indices first.  Under a
transfer matrix U the tensor transforms as V^(x k) C (V^dag)^(x l) with
V = conj(U), where C is read as an M^k-by-M^l matrix; losses enter by
replacing U with T_out U T_in at no extra cost.

For the feedback loop the modes split into external (E, leading) and looped
(L, trailing) blocks.  Because the joint input of an iteration is a product
state, any moment whose indices straddle the split factorizes into a pure-E
moment (known from the injected state) times a pure-L moment of lower total
order, which is what makes the order-by-order stationary solve closed.
"""

from dataclasses import dataclass
from itertools import product
from math import ceil, sqrt

import numpy as np

from .errors import BosonLoopError, SpectralRadiusError, check_size
from .fock import FockBasis, frozen_cache
from .matrixkit import solve_in_place, spectral_radius
from .qstate import DensityMatrix

_SOLVE_RESIDUAL = 1e-9
SPECTRAL_RADIUS_MARGIN = 1e-10
# the Kronecker system has dimension L^(k+l) and the power V^(x max(k, l))
# dimension M^max(k, l), both capped at DENSE_DIM_CAP, and the system's
# assembly walks all M^(k+l) entries of the full-mode input tensor
ASSEMBLY_SIZE_CAP = 1 << 20


@dataclass
class CorrelationTensor:
    """Dense rank-(k, l) array of normally ordered moments over `modes` modes."""

    k: int
    l: int
    modes: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.modes,) * (self.k + self.l):
            raise ValueError(
                f"values shape {self.values.shape} does not match "
                f"rank ({self.k},{self.l}) over {self.modes} modes"
            )

    def as_matrix(self) -> np.ndarray:
        return self.values.reshape(self.modes ** self.k, self.modes ** self.l)

    def conjugate_transpose(self) -> "CorrelationTensor":
        """The rank-(l, k) tensor with C'[j, i] = conj(C[i, j])."""
        perm = tuple(range(self.k, self.k + self.l)) + tuple(range(self.k))
        return CorrelationTensor(self.l, self.k, self.modes,
                                 np.conjugate(self.values.transpose(perm)))


def _annihilation_ops(basis: FockBasis):
    ops = []
    for mode in range(basis.modes):
        a = np.zeros((basis.size, basis.size), dtype=complex)
        for i, occ in enumerate(basis.states):
            if occ[mode] > 0:
                lowered = occ[:mode] + (occ[mode] - 1,) + occ[mode + 1:]
                a[basis.index_of(lowered), i] = sqrt(occ[mode])
        ops.append(a)
    return ops


class _MomentCache:
    """Memoized normally ordered moments of one density matrix."""

    def __init__(self, rho: DensityMatrix):
        self.rho = rho
        self.basis = rho.basis
        self._ann = _annihilation_ops(rho.basis)
        self._strings = {(): np.eye(rho.basis.size, dtype=complex)}
        self._tensors = {}

    def _string(self, modes_sorted):
        if modes_sorted not in self._strings:
            head = self._string(modes_sorted[:-1])
            self._strings[modes_sorted] = head @ self._ann[modes_sorted[-1]]
        return self._strings[modes_sorted]

    def value(self, cre, ann) -> complex:
        """<a_dag[cre...] a[ann...]>, computed per sorted multiset."""
        d_cre = self._string(tuple(sorted(cre)))
        d_ann = self._string(tuple(sorted(ann)))
        return complex(np.trace(self.rho.mat @ d_cre.conj().T @ d_ann))

    def tensor(self, k: int, l: int) -> np.ndarray:
        """The rank-(k, l) tensor: one `value` per pair of sorted multisets,
        copied to every index tuple that sorts to that pair."""
        if (k, l) not in self._tensors:
            m = self.basis.modes
            cre_sets, _, cre_of = _sorted_multisets(m, k)
            ann_sets, _, ann_of = _sorted_multisets(m, l)
            values = np.array([[self.value(c, a) for a in ann_sets] for c in cre_sets],
                              dtype=complex)
            self._tensors[(k, l)] = values[np.ix_(cre_of, ann_of)].reshape((m,) * (k + l))
        return self._tensors[(k, l)]


@frozen_cache
def _sorted_multisets(modes: int, k: int):
    """The sorted index tuples over (modes,)*k, in lexicographic order; the
    row-major flat index of each, the first that sorts to it; and for each
    row-major flat index the position of its sorted form in that tuple
    (cached table)."""
    grid = np.sort(np.indices((modes,) * k).reshape(k, modes ** k), axis=0)
    codes = modes ** np.arange(k - 1, -1, -1) @ grid
    _, first, position = np.unique(codes, return_index=True, return_inverse=True)
    return tuple(tuple(grid[:, j].tolist()) for j in first), first, position


@frozen_cache
def _rank_vectors(modes: int, k: int) -> tuple:
    """The per-mode rank vector of each sorted index tuple of
    `_sorted_multisets(modes, k)`: a tuple of numpy ints, of Python ints at
    k = 0 (cached table)."""
    if not k:
        return ((0,) * modes,)
    return tuple(tuple(np.bincount(s, minlength=modes)) for s in _sorted_multisets(modes, k)[0])


def expectations_from_dm(rho: DensityMatrix, k: int, l: int) -> CorrelationTensor:
    """Moments by direct ladder-operator action in the truncated basis.

    Exact for states supported on at most n_max photons: the annihilation
    strings act first (never leaving the basis) and the creation strings
    raise back to at most the original sector.
    """
    if k > rho.basis.n_max or l > rho.basis.n_max:
        raise ValueError(
            f"rank ({k},{l}) exceeds the basis truncation n_max={rho.basis.n_max}"
        )
    return CorrelationTensor(k, l, rho.basis.modes, _MomentCache(rho).tensor(k, l))


def _kron_powers(a: np.ndarray, n: int) -> list:
    """[a^(x 0), ..., a^(x n)], each the Kronecker product of the one before
    with a."""
    out = [np.eye(1, dtype=complex)]
    for _ in range(n):
        out.append(np.kron(out[-1], a))
    return out


def transform(tensor: CorrelationTensor, matrix: np.ndarray) -> CorrelationTensor:
    """Tensor after one pass through a (possibly lossy) transfer matrix."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (tensor.modes, tensor.modes):
        raise ValueError(
            f"matrix shape {matrix.shape} does not match {tensor.modes} modes"
        )
    v = _kron_powers(matrix.conj(), max(tensor.k, tensor.l))
    return _transformed(tensor, v[tensor.k], v[tensor.l])


def _transformed(tensor: CorrelationTensor, v_k: np.ndarray,
                 v_l: np.ndarray) -> CorrelationTensor:
    """V^(x k) C (V^(x l))^dag from the two Kronecker powers of V."""
    out = v_k @ tensor.as_matrix() @ v_l.conj().T
    return CorrelationTensor(tensor.k, tensor.l, tensor.modes,
                             out.reshape(tensor.values.shape))


class TensorSet:
    """Stationary loop tensors indexed by (k, l), with conjugate-symmetry access."""

    def __init__(self, modes: int):
        self.modes = modes
        self._tensors = {}

    def put(self, tensor: CorrelationTensor) -> None:
        if tensor.modes != self.modes:
            raise ValueError("tensor mode count does not match the set")
        self._tensors[(tensor.k, tensor.l)] = tensor

    def get(self, k: int, l: int) -> CorrelationTensor:
        if (k, l) in self._tensors:
            return self._tensors[(k, l)]
        if (l, k) in self._tensors:
            return self._tensors[(l, k)].conjugate_transpose()
        raise KeyError(f"tensor ({k},{l}) not in the set")

    def keys(self):
        return sorted(self._tensors)


def _check_spectral_radius(matrix: np.ndarray, n_looped: int) -> float:
    m_ext = matrix.shape[0] - n_looped
    radius = spectral_radius(matrix[m_ext:, m_ext:])
    if radius >= 1.0 - SPECTRAL_RADIUS_MARGIN:
        raise SpectralRadiusError(
            f"spectral radius of the loop block is {radius:.12f} >= 1 - 1e-10; "
            "the loop has no unique stationary state"
        )
    return radius


@frozen_cache
def _split_indices(k: int, l: int, modes: int, m_ext: int):
    """Per row-major entry of a rank-(k, l) tensor over `modes` modes: its
    position in the E factors and in the L factors, and its group
    cre_e * (l + 1) + ann_e (the numbers of E creation and annihilation
    indices) (cached table).  Each factor's tables are concatenated flat in
    group order: group g's are the E moments of rank (cre_e, ann_e) and the
    L moments of rank (k - cre_e, l - ann_e).  The flat indices come by
    Horner's rule over the k + l index positions: the entries of the first
    p + 1 positions are the (entry of the first p, digit) pairs in row-major
    order."""
    n_looped = modes - m_ext
    digit = np.arange(modes)
    is_e = digit < m_ext
    e_pos = l_pos = np.zeros(1, dtype=digit.dtype)
    group = np.zeros(1, dtype=np.int16)
    for pos in range(k + l):
        e_pos = np.where(is_e, e_pos[:, None] * m_ext + digit, e_pos[:, None]).ravel()
        l_pos = np.where(is_e, l_pos[:, None],
                         l_pos[:, None] * n_looped + digit - m_ext).ravel()
        group = (group[:, None] + is_e * np.int16(l + 1 if pos < k else 1)).ravel()
    e_rank = sum(np.divmod(np.arange((k + 1) * (l + 1)), l + 1))
    for index, sizes in ((e_pos, m_ext ** e_rank), (l_pos, n_looped ** (k + l - e_rank))):
        index += (np.cumsum(sizes) - sizes)[group]
    return e_pos, l_pos, group


def _input_tensor(k: int, l: int, modes: int, m_ext: int, ext: _MomentCache,
                  loop_set: TensorSet, include_loop: bool) -> np.ndarray:
    """Full-M tensor of the product state rho_ext (x) rho_loop.

    Entries factorize across the E/L split; the all-loop block is zeroed when
    it is the unknown of the current stationary solve.  Each factor is one
    gather from its groups' tables, concatenated (see `_split_indices`).
    The product is the textbook complex product that numpy's scalar
    multiply computes (np.multiply on complex arrays may round the imaginary
    part differently), formed on the entries whose E moment is nonzero; the
    others stay exactly 0, and a group with none of them never looks up its
    L tensor.
    """
    e_pos, l_pos, group = _split_indices(k, l, modes, m_ext)
    groups = [divmod(g, l + 1) for g in range((k + 1) * (l + 1))]
    # the rank-(0, 0) moment of either factor is 1; the all-loop group's E
    # factor is 0 when that block is the unknown
    one = np.ones(1, dtype=complex)
    e_val = np.concatenate([one if include_loop else 0 * one]
                           + [ext.tensor(c, a).reshape(-1) for c, a in groups[1:]])[e_pos]
    kept = np.flatnonzero(e_val)
    e_val = e_val[kept]
    looked_up = np.bincount(group[kept], minlength=len(groups))
    n_looped = modes - m_ext
    l_val = np.concatenate(
        [loop_set.get(k - c, l - a).values.reshape(-1) if looked_up[g]
         else np.zeros(n_looped ** (k + l - c - a), dtype=complex)
         for g, (c, a) in enumerate(groups[:-1])] + [one])[l_pos[kept]]
    out = np.zeros(group.size, dtype=complex)
    out.real[kept] = e_val.real * l_val.real - e_val.imag * l_val.imag
    out.imag[kept] = e_val.real * l_val.imag + e_val.imag * l_val.real
    return out.reshape((modes,) * (k + l))


class _SolveContext:
    """What the orders of one stationary solve share: the spectral radius,
    checked once, on creation; the moments of rho_ext; and the Kronecker
    powers V^(x 0..top) of V = conj(matrix) and of its loop block V_LL.  It
    is made once the size caps of every order up to `top` have passed."""

    def __init__(self, matrix: np.ndarray, rho_ext: DensityMatrix, top: int):
        m_ext = rho_ext.basis.modes
        _check_spectral_radius(matrix, matrix.shape[0] - m_ext)
        self.ext = _MomentCache(rho_ext)
        v = matrix.conj()
        self.v, self.v_ll = _kron_powers(v, top), _kron_powers(v[m_ext:, m_ext:], top)


def _check_order_size(k: int, l: int, modes: int, n_looped: int) -> None:
    """The size caps of order (k, l): its Kronecker system, its full-mode
    input tensor and the power V^(x max(k, l))."""
    check_size(f"the stationary system dimension of order ({k},{l})", n_looped ** (k + l))
    check_size(f"the full-mode tensor size of order ({k},{l})", modes ** (k + l),
               ASSEMBLY_SIZE_CAP)
    check_size(f"the dimension of order ({k},{l})'s Kronecker power V^(x {max(k, l)})",
               modes ** max(k, l))


def stationary_order(k: int, l: int, matrix: np.ndarray, rho_ext: DensityMatrix,
                     loop_set: TensorSet,
                     context: _SolveContext | None = None) -> CorrelationTensor:
    """Solve the rank-(k, l) stationarity system given all lower orders.

    Assembles the source term S from the transformed known blocks and solves
    (I - conj(V_LL)^(x l) kron V_LL^(x k)) vec(C) = vec(S) by dense LU.  The
    system is held once: K is built in Fortran order, as np.kron of the
    contiguous transposes of conj(V_l) and V_k (the same products), turned
    in place into 0 - K off the diagonal and 1 - K on it, the bits of
    I - K, and factored in its own buffer by `solve_in_place`.  So the
    residual gate reads the Kronecker identity, vec(C - V_k C V_l^dag) -
    vec(S), and a singular system is a BosonLoopError naming the order.
    `context` carries what the orders of one solve share (see
    `recursive_stationary`); without it the order makes its own.
    """
    matrix = np.asarray(matrix, dtype=complex)
    modes = matrix.shape[0]
    m_ext = rho_ext.basis.modes
    n_looped = modes - m_ext
    _check_order_size(k, l, modes, n_looped)
    if context is None:
        context = _SolveContext(matrix, rho_ext, max(k, l))
    v, v_ll = context.v, context.v_ll

    c_in = _input_tensor(k, l, modes, m_ext, context.ext, loop_set, include_loop=False)
    full = _transformed(CorrelationTensor(k, l, modes, c_in), v[k], v[l]).values
    source = full[(slice(m_ext, modes),) * (k + l)]

    a_t = np.kron(np.ascontiguousarray(v_ll[l].conj().T), np.ascontiguousarray(v_ll[k].T))
    ones = 1 - a_t.diagonal()
    np.subtract(0, a_t, out=a_t)
    np.fill_diagonal(a_t, ones)
    rhs = source.reshape(n_looped ** k, n_looped ** l).flatten(order="F")
    try:
        sol = solve_in_place(a_t.T, rhs)
    except np.linalg.LinAlgError:
        raise BosonLoopError(f"the stationary system of order ({k},{l}) is singular") from None
    values = sol.reshape((n_looped ** k, n_looped ** l), order="F")
    residual = np.linalg.norm(
        (values - v_ll[k] @ values @ v_ll[l].conj().T).flatten(order="F") - rhs)
    if residual > _SOLVE_RESIDUAL * max(1.0, np.linalg.norm(rhs)):
        raise BosonLoopError(
            f"stationary solve for order ({k},{l}) left residual {residual:.3e}"
        )
    return CorrelationTensor(k, l, n_looped,
                             values.reshape((n_looped,) * (k + l)))


def recursive_stationary(matrix: np.ndarray, rho_ext: DensityMatrix,
                         rank_cap: int) -> TensorSet:
    """All stationary loop tensors C^(n,m), 1 <= n <= rank_cap, 0 <= m <= n.

    Orders are processed so every mixed term only needs strictly lower total
    order (available directly or by conjugate symmetry).  The complementary
    tensors (m, n) follow from conjugate symmetry via TensorSet.get.  Every
    order's size caps are checked first, so a rank cap that reaches an order
    above a cap raises SizeCapError before any work; the sizes grow with the
    order, so that scan stops at the first refusal.  Then one private
    context, handed to every `stationary_order`, checks the spectral radius
    once and builds the external moments and the Kronecker powers of V and
    V_LL up to `rank_cap` for the whole solve.  The context is dropped when
    the solve returns.
    """
    if rank_cap < 1:
        raise ValueError("rank_cap must be >= 1")
    matrix = np.asarray(matrix, dtype=complex)
    n_looped = matrix.shape[0] - rho_ext.basis.modes
    if n_looped < 1:
        raise ValueError("need at least one looped mode")
    for n in range(1, rank_cap + 1):
        for m in range(n + 1):
            _check_order_size(n, m, matrix.shape[0], n_looped)
    context = _SolveContext(matrix, rho_ext, rank_cap)
    out = TensorSet(n_looped)
    for n in range(1, rank_cap + 1):
        for m in range(n + 1):
            out.put(stationary_order(n, m, matrix, rho_ext, out, context))
    return out


def stationary_output_tensor(k: int, l: int, matrix: np.ndarray,
                             rho_ext: DensityMatrix, loop_set: TensorSet,
                             block: str = "detect") -> CorrelationTensor:
    """Moments of one iteration's output, restricted to a mode block.

    With the stationary loop tensors known, the full input tensor of the
    product state is transformed through the transfer matrix once;
    block="detect" returns the external-mode moments (what the detectors
    see), block="loop" the looped-mode moments (a stationarity check).
    """
    matrix = np.asarray(matrix, dtype=complex)
    modes = matrix.shape[0]
    m_ext = rho_ext.basis.modes
    blocks = {"detect": slice(0, m_ext), "loop": slice(m_ext, modes)}
    if block not in blocks:
        raise ValueError(f"unknown block {block!r}")
    ext = _MomentCache(rho_ext)
    c_in = _input_tensor(k, l, modes, m_ext, ext, loop_set, include_loop=True)
    full = transform(CorrelationTensor(k, l, modes, c_in), matrix).values
    sl = blocks[block]
    return CorrelationTensor(k, l, sl.stop - sl.start, full[(sl,) * (k + l)])


def estimate_n_max(c11: CorrelationTensor, c22: CorrelationTensor) -> int:
    """Three-sigma truncation bound from per-mode means and variances.

    Uses n_i = C^(1,1)[i,i] and var_i = C^(2,2)[i,i,i,i] + n_i - n_i^2;
    variances below -1e-8 signal inconsistent tensors.
    """
    if c11.modes != c22.modes or (c11.k, c11.l) != (1, 1) or (c22.k, c22.l) != (2, 2):
        raise ValueError("estimate_n_max needs matching rank-(1,1) and (2,2) tensors")
    total = 0.0
    for i in range(c11.modes):
        mean = c11.values[i, i].real
        var = c22.values[i, i, i, i].real + mean - mean ** 2
        if var < -1e-8:
            raise ValueError(f"mode {i} has variance {var:.3e} < -1e-8")
        total += mean + 3.0 * sqrt(max(var, 0.0))
    return ceil(total - 1e-12)


def moments_from_tensor_set(tensor_set: TensorSet) -> dict:
    """Flatten a tensor set and its conjugates into {(s_vec, r_vec): moment}
    per-mode rank form: each tensor is gathered once at its pairs of sorted
    index tuples, creation tuples outer."""
    modes = tensor_set.modes
    zero = (0,) * modes
    out = {(zero, zero): 1.0 + 0j}
    pairs = set(tensor_set.keys()) | {(l, k) for k, l in tensor_set.keys()}
    for k, l in sorted(pairs):
        cre_flat, ann_flat = _sorted_multisets(modes, k)[1], _sorted_multisets(modes, l)[1]
        values = tensor_set.get(k, l).as_matrix()[np.ix_(cre_flat, ann_flat)]
        keys = product(_rank_vectors(modes, k), _rank_vectors(modes, l))
        out.update(zip(keys, values.ravel().tolist()))
    return out


def tensor_set_from_dm(rho: DensityMatrix, rank_cap: int) -> TensorSet:
    """Exact moments of a known state, packaged like a stationary solve result."""
    cache = _MomentCache(rho)
    out = TensorSet(rho.basis.modes)
    for n in range(1, rank_cap + 1):
        for m in range(n + 1):
            out.put(CorrelationTensor(n, m, rho.basis.modes, cache.tensor(n, m)))
    return out
