"""Recover density matrices and distributions from normally ordered moments.

With rho_{n,m} = <n|rho|m> over a truncated basis, the moment carrying s
creation and r annihilation counts per mode satisfies

    C(s, r) = sum_{n,m} B(n, m; s, r) rho_{n,m},
    B = prod_i sqrt(m_i!/(m_i-s_i)!) sqrt(n_i!/(n_i-r_i)!)  [m-s = n-r >= 0],

an upper-triangular system in the total photon number: rho_{n,m} feeds only
moments with s <= m and r <= n.  Choosing s = m, r = n isolates rho_{n,m}
with leading coefficient sqrt(n! m!), giving the top-down recursion

    rho_{n,m} = [ C(m, n) - sum_{q != 0} prod_i sqrt((n_i+q_i)!/q_i!)
                  sqrt((m_i+q_i)!/q_i!)  rho_{n+q, m+q} ] / sqrt(n! m!),

seeded at the highest photon sectors where the correction sum is empty.
Pairs are processed by descending min(|n|, |m|) and only the upper triangle
is computed; the rest follows from Hermitian symmetry.
"""

from dataclasses import dataclass
from math import factorial, prod, sqrt
from operator import mul

import numpy as np

from .errors import ReconstructionError
from .fock import FockBasis
from .matrixkit import unvec, vec
from .qstate import DensityMatrix, ProbabilityDistribution
from .tensors import TensorSet, moments_from_tensor_set

_CONVEX_TOL = 1e-9  # change of the residual at which the convex iteration stops
_FLOAT_FACTORIAL_MAX = 170  # the largest n whose n! a float holds


class MomentSystem:
    """Moments over a truncated basis keyed by per-mode rank vectors (s, r)."""

    def __init__(self, basis: FockBasis, moments: dict):
        self.basis = basis
        self.moments = dict(moments)

    def get(self, s_vec, r_vec) -> complex:
        key = (tuple(s_vec), tuple(r_vec))
        if key in self.moments:
            return complex(self.moments[key])
        swapped = (key[1], key[0])
        if swapped in self.moments:
            return complex(np.conjugate(self.moments[swapped]))
        raise ReconstructionError(
            f"moment with creation ranks {key[0]} and annihilation ranks {key[1]} "
            "is missing", missing_moment=key,
        )

    def canonical_keys(self):
        """Stored keys in a documented deterministic order."""
        return sorted(self.moments, key=lambda k: (sum(k[0]) + sum(k[1]), k))

    def matrix(self):
        """(B, c): dense coefficient matrix over vec(rho) and the moment vector.

        Rows follow canonical_keys(); columns follow column-stacking
        vectorization of the density matrix over `basis`.
        """
        keys = self.canonical_keys()
        d = self.basis.size
        b = np.zeros((len(keys), d * d))
        c = np.zeros(len(keys), dtype=complex)
        for row, (s_vec, r_vec) in enumerate(keys):
            c[row] = self.moments[(s_vec, r_vec)]
            for col_m, m_occ in enumerate(self.basis.states):
                if any(m < s for m, s in zip(m_occ, s_vec)):
                    continue
                n_occ = tuple(m - s + r for m, s, r in zip(m_occ, s_vec, r_vec))
                if sum(n_occ) > self.basis.n_max:
                    continue
                coeff = b_coefficient(n_occ, m_occ, s_vec, r_vec)
                if coeff:
                    b[row, col_m * d + self.basis.index_of(n_occ)] = coeff
        return b, c


def b_coefficient(n_occ, m_occ, s_vec, r_vec) -> float:
    """Coefficient of rho_{n,m} in the moment with ranks (s creation, r annihilation)."""
    out = 1.0
    for n, m, s, r in zip(n_occ, m_occ, s_vec, r_vec):
        if m < s or n < r or m - s != n - r:
            return 0.0
        out *= sqrt(factorial(m) / factorial(m - s)) * sqrt(factorial(n) / factorial(n - r))
    return out


def build_moment_system(basis: FockBasis, tensor_set: TensorSet) -> MomentSystem:
    """Moment system holding every moment expressible from the stored tensors."""
    if tensor_set.modes != basis.modes:
        raise ValueError("tensor set and basis mode counts differ")
    return MomentSystem(basis, moments_from_tensor_set(tensor_set))


@dataclass
class ReconstructionInfo:
    method: str
    negativity_before_projection: float
    projected: bool
    residual: float | None = None
    converged: bool = True
    iterations: int = 0


def reconstruct_analytic(system: MomentSystem, n_max: int | None = None):
    """Triangular-recursion reconstruction; returns (DensityMatrix, info).

    All moments C(m+q, n+q) reachable inside the target basis must be present;
    a missing one raises ReconstructionError naming it.  The upper-triangle
    pairs (n, m) run by descending |n| (seeds first), then by basis index.
    The per-mode factors sqrt((o_i+q_i)!/q_i!) of every occupation o and
    shift q are tabulated once per call; each correction weight is their
    product over the modes, accumulated over q in basis order.  If the
    recursion yields eigenvalues below -1e-8 the result is projected onto
    the nearest density matrix; otherwise only the trace is renormalized.
    The leading factor sqrt(n! m!) is the root of the exact integer product
    while a float holds that product, and sqrt(n!) sqrt(m!) past it; a
    basis with an occupation whose factorial leaves float range is refused.
    """
    n_cap = system.basis.n_max if n_max is None else n_max
    if n_cap > _FLOAT_FACTORIAL_MAX:
        raise ReconstructionError(
            f"n_max {n_cap} holds occupations above {_FLOAT_FACTORIAL_MAX}, whose "
            "factorials leave float range")
    basis = FockBasis(system.basis.modes, n_cap)
    states = basis.states
    # the shifts q that keep o + q inside the basis: a prefix of the states
    stops = [basis.sector_slice(n_cap - n).stop for n in basis.totals().tolist()]
    # root[a][b] = sqrt((a+b)!/b!) for a + b <= n_cap, every pair o_i, q_i read
    root = [[sqrt(factorial(a + b) / factorial(b)) for b in range(n_cap + 1 - a)]
            for a in range(n_cap + 1)]
    factors = [[tuple(root[a][b] for a, b in zip(o, q)) for q in states[:stop]]
               for o, stop in zip(states, stops)]
    raised = [[basis.index_of(tuple(a + b for a, b in zip(o, q))) for q in states[:stop]]
              for o, stop in zip(states, stops)]
    lead = [prod(factorial(x) for x in o) for o in states]
    done = {}
    rho = np.zeros((basis.size, basis.size), dtype=complex)
    for i in sorted(range(basis.size), key=lambda i: (-sum(states[i]), i)):
        for j in range(i, basis.size):
            corr = 0.0 + 0.0j
            for q in range(1, min(stops[i], stops[j])):
                weight = prod(map(mul, factors[i][q], factors[j][q]))
                up = (raised[i][q], raised[j][q])
                assert up in done, "recursion read an element not yet computed"
                corr += weight * done[up]
            try:
                root_lead = sqrt(lead[i] * lead[j])
            except OverflowError:
                root_lead = sqrt(lead[i]) * sqrt(lead[j])
            value = (system.get(states[j], states[i]) - corr) / root_lead
            done[(i, j)] = value
            rho[i, j] = value
            if i != j:
                rho[j, i] = np.conjugate(value)
                done[(j, i)] = np.conjugate(value)
    evals = np.linalg.eigvalsh(rho)
    negativity = float(-evals[evals < 0].sum())
    projected = evals[0] < -1e-8
    if projected:
        out = project_psd(rho, basis)
    else:
        out = DensityMatrix(basis, rho / np.trace(rho).real, check=False)
    info = ReconstructionInfo(method="analytic",
                              negativity_before_projection=negativity,
                              projected=bool(projected))
    return out, info


def reconstruct_convex(system: MomentSystem, n_max: int | None = None,
                       max_iterations: int = 5000):
    """Constrained least squares over the density-matrix set.

    Alternates an exact projection onto the least-squares affine manifold
    (a pseudo-inverse-preconditioned gradient step) with the exact projection
    onto the Hermitian PSD trace-1 set, keeping the best iterate by residual,
    until the residual moves by less than 1e-9.  Tolerates partial moment
    sets.  Returns (DensityMatrix, info); a hit iteration cap is reported via
    info.converged = False.
    """
    n_cap = system.basis.n_max if n_max is None else n_max
    basis = FockBasis(system.basis.modes, n_cap)
    sub = MomentSystem(basis, {
        key: val for key, val in system.moments.items()
        if sum(key[0]) <= n_cap and sum(key[1]) <= n_cap
    })
    b, c = sub.matrix()
    b_pinv = np.linalg.pinv(b)
    d = basis.size
    x = vec(np.eye(d, dtype=complex) / d)
    best_x, best_obj = x, float(np.linalg.norm(b @ x - c))
    prev_obj = best_obj
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        y = x - b_pinv @ (b @ x - c)
        x = vec(_project_density(unvec(y, d, d)))
        obj = float(np.linalg.norm(b @ x - c))
        if obj < best_obj:
            best_obj, best_x = obj, x
        if abs(prev_obj - obj) < _CONVEX_TOL:
            converged = True
            break
        prev_obj = obj
    rho = _project_density(unvec(best_x, d, d))
    info = ReconstructionInfo(method="convex", negativity_before_projection=0.0,
                              projected=False, residual=best_obj,
                              converged=converged, iterations=iterations)
    return DensityMatrix(basis, rho, check=False), info


def _project_density(h: np.ndarray) -> np.ndarray:
    """Exact Frobenius projection onto {rho : rho = rho^dag, rho >= 0, tr rho = 1}."""
    h = (h + h.conj().T) / 2
    evals, evecs = np.linalg.eigh(h)
    lam = project_simplex(evals)
    return (evecs * lam) @ evecs.conj().T


def reconstruct_distribution(system, n_max: int | None = None):
    """Photon distribution from diagonal moments C(n, n) only.

    Runs the diagonal recursion with integer weights (n_i+q_i)!/q_i!; any
    negative entries (typical when higher-rank moments are unavailable) are
    projected onto the probability simplex.  Returns (distribution, info).
    """
    if isinstance(system, dict):
        modes = len(next(iter(system))[0])
        cap = max(sum(k[0]) for k in system) if n_max is None else n_max
        system = MomentSystem(FockBasis(modes, cap), system)
    n_cap = system.basis.n_max if n_max is None else n_max
    basis = FockBasis(system.basis.modes, n_cap)
    raw = np.zeros(basis.size)
    done = {}
    for n_occ in sorted(basis.states, key=lambda s: -sum(s)):
        corr = 0.0
        for q_occ in basis.states:
            if sum(q_occ) == 0 or sum(n_occ) + sum(q_occ) > n_cap:
                continue
            weight = prod(
                factorial(n_occ[i] + q_occ[i]) // factorial(q_occ[i])
                for i in range(basis.modes)
            )
            corr += weight * done[tuple(a + b for a, b in zip(n_occ, q_occ))]
        value = (system.get(n_occ, n_occ).real - corr) / prod(factorial(x) for x in n_occ)
        done[n_occ] = value
        raw[basis.index_of(n_occ)] = value
    negativity = float(-raw[raw < 0].sum())
    projected = raw.min() < -1e-12
    if projected:
        probs = project_simplex(raw)
    else:
        probs = np.clip(raw, 0.0, None)
        probs /= probs.sum()
    info = ReconstructionInfo(method="distribution",
                              negativity_before_projection=negativity,
                              projected=bool(projected))
    return ProbabilityDistribution(basis, probs, check=False), info


def project_psd(h: np.ndarray, basis: FockBasis | None = None):
    """Nearest-density-matrix projection: hermitize, clip eigenvalues, renormalize."""
    h = np.asarray(h, dtype=complex)
    h = (h + h.conj().T) / 2
    evals, evecs = np.linalg.eigh(h)
    lam = np.clip(evals, 0.0, None)
    total = lam.sum()
    if total <= 0:
        raise ReconstructionError("projection input has no positive part")
    rho = (evecs * (lam / total)) @ evecs.conj().T
    if basis is None:
        return rho
    return DensityMatrix(basis, rho, check=False)


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-and-threshold)."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    cumsum = np.cumsum(u)
    j = np.arange(1, v.size + 1)
    feasible = u + (1.0 - cumsum) / j > 0
    rho = int(np.nonzero(feasible)[0][-1])
    lam = (1.0 - cumsum[rho]) / (rho + 1)
    return np.maximum(v + lam, 0.0)


@dataclass
class PhotonStatisticsFit:
    thermal_mean: float
    thermal_residual: float
    coherent_mean: float
    coherent_residual: float

    @property
    def best(self) -> str:
        return "coherent" if self.coherent_residual <= self.thermal_residual else "thermal"


def thermal_pmf(mean: float, n_max: int) -> np.ndarray:
    n = np.arange(n_max + 1)
    return mean ** n / (1.0 + mean) ** (n + 1)


def coherent_pmf(mean: float, n_max: int) -> np.ndarray:
    n = np.arange(n_max + 1)
    fact = np.array([factorial(int(x)) for x in n], dtype=float)
    return np.exp(-mean) * mean ** n / fact


def fit_photon_statistics(dist: ProbabilityDistribution) -> PhotonStatisticsFit:
    """Least-squares fits of a single-mode photon distribution.

    Fits the geometric (thermal) and Poissonian (coherent, parameter |alpha|^2)
    photon-number laws over 0..n_max; returns both parameters with their
    sum-of-squares residuals.
    """
    if dist.basis.modes != 1:
        raise ValueError("photon-statistics fits need a single-mode distribution")
    p = dist.probabilities
    n_max = dist.basis.n_max
    mean = float(sum(n * p[dist.basis.index_of((n,))] for n in range(n_max + 1)))
    if mean == 0.0:
        return PhotonStatisticsFit(0.0, float(((p - thermal_pmf(0, n_max)) ** 2).sum()),
                                   0.0, float(((p - coherent_pmf(0, n_max)) ** 2).sum()))

    def sse(model):
        return lambda x: float(((p - model(x, n_max)) ** 2).sum())

    import scipy.optimize  # deferred: importing scipy costs most of the package's start-up

    hi = max(10.0 * mean, 1.0)
    thermal = scipy.optimize.minimize_scalar(sse(thermal_pmf), bounds=(0.0, hi),
                                             method="bounded",
                                             options={"xatol": 1e-12})
    coherent = scipy.optimize.minimize_scalar(sse(coherent_pmf), bounds=(0.0, hi),
                                              method="bounded",
                                              options={"xatol": 1e-12})
    return PhotonStatisticsFit(
        thermal_mean=float(thermal.x), thermal_residual=float(thermal.fun),
        coherent_mean=float(coherent.x), coherent_residual=float(coherent.fun),
    )
