"""Dense complex-matrix utilities: permanents, Haar sampling, vectorization, spectra.

All reductions use a fixed, deterministic summation order so repeated runs
produce identical floats on the same platform.
"""

import csv
import json

import numpy as np

from .errors import check_size

PERMANENT_SIZE_CAP = 30


def permanent(a: np.ndarray) -> complex:
    """Permanent of a square matrix by Ryser's formula with Gray-code updates.

    Runs in O(2^n * n); sizes above PERMANENT_SIZE_CAP are rejected.  The
    permanent of the empty 0x0 matrix is 1.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"permanent needs a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n == 0:
        return complex(1.0)
    if n > PERMANENT_SIZE_CAP:
        raise ValueError(f"matrix size {n} exceeds permanent cap {PERMANENT_SIZE_CAP}")
    a = a.astype(complex)
    row_sums = np.zeros(n, dtype=complex)
    total = 0.0 + 0.0j
    gray = 0
    sign = 1
    for k in range(1, 1 << n):
        bit = k & -k
        j = bit.bit_length() - 1
        gray ^= bit
        if gray & bit:
            row_sums += a[:, j]
            sign = -sign
        else:
            row_sums -= a[:, j]
            sign = -sign
        total += sign * np.prod(row_sums)
    if n % 2:
        total = -total
    return complex(total)


def haar_random_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix.

    The R diagonal's phases are normalized out (Mezzadri construction), which
    makes the QR output Haar-uniform; deterministic for a fixed seed.  A
    dimension above DENSE_DIM_CAP is refused before the draw.
    """
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    check_size("the Haar unitary dimension", dim)
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def vec(a: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(a).flatten(order="F")


def unvec(v: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Inverse of `vec`; the vector length must equal rows*cols."""
    v = np.asarray(v)
    if v.size != rows * cols:
        raise ValueError(f"cannot reshape length {v.size} into {rows}x{cols}")
    return v.reshape((rows, cols), order="F")


def spectral_radius(a: np.ndarray) -> float:
    """Largest eigenvalue modulus of a square matrix."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("spectral radius needs a square matrix")
    if a.shape[0] == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(a))))


class Interferometer:
    """An M-mode transfer matrix, checked square, finite and unitary.

    Losses are modelled separately (`LossSpec`).
    """

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"transfer matrix must be square, got {matrix.shape}")
        if not np.isfinite(matrix).all():
            raise ValueError("transfer matrix contains non-finite entries")
        defect = np.abs(matrix.conj().T @ matrix - np.eye(matrix.shape[0])).max()
        if defect > 1e-12:
            raise ValueError(f"matrix is not unitary (defect {defect:.3e})")
        self.matrix = matrix


def load_matrix_json(path) -> np.ndarray:
    with open(path) as fh:
        payload = json.load(fh)
    rows, cols = int(payload["rows"]), int(payload["cols"])
    re = np.array(payload["re"], dtype=float).reshape(rows, cols)
    im = np.array(payload["im"], dtype=float).reshape(rows, cols)
    return re + 1j * im


def load_matrix_csv(path) -> np.ndarray:
    """Read a matrix from CSV cells holding python-style complex literals like '0.1+0.2j'."""
    rows = []
    with open(path, newline="") as fh:
        for record in csv.reader(fh):
            if not record:
                continue
            rows.append([complex(cell.strip().replace(" ", "")) for cell in record])
    if not rows:
        raise ValueError(f"no matrix data in {path}")
    return np.array(rows, dtype=complex)


def load_matrix(path) -> np.ndarray:
    """Dispatch on file extension: .json or .csv."""
    p = str(path)
    if p.endswith(".json"):
        return load_matrix_json(p)
    if p.endswith(".csv"):
        return load_matrix_csv(p)
    raise ValueError(f"unsupported matrix file format: {p}")
