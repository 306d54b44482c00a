import numpy as np
import pytest

from bosonloop.errors import DENSE_DIM_CAP, SizeCapError
from bosonloop.matrixkit import (Interferometer, haar_random_unitary, load_matrix,
                                 load_matrix_json, permanent,
                                 save_matrix_json, spectral_radius,
                                 submatrix_by_multiplicity, unvec, vec)

from oracles import interferometer_blocks, permanent_naive


def random_complex(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def test_permanent_trivial():
    assert permanent(np.eye(3)) == pytest.approx(1.0)
    assert permanent(np.array([[1.0, 1.0], [1.0, 1.0]])) == pytest.approx(2.0)
    assert permanent(np.zeros((0, 0))) == pytest.approx(1.0)


def test_permanent_matches_naive_expansion():
    rng = np.random.default_rng(11)
    for n in range(1, 7):
        a = random_complex(rng, n)
        assert permanent(a) == pytest.approx(permanent_naive(a), abs=1e-12)


def test_permanent_row_multilinearity():
    rng = np.random.default_rng(12)
    for _ in range(5):
        a = random_complex(rng, 4)
        c = complex(rng.standard_normal(), rng.standard_normal())
        scaled = a.copy()
        scaled[2] *= c
        assert permanent(scaled) == pytest.approx(c * permanent(a), rel=1e-12)


def test_permanent_permutation_invariance():
    rng = np.random.default_rng(13)
    a = random_complex(rng, 5)
    for _ in range(5):
        p = np.eye(5)[rng.permutation(5)]
        q = np.eye(5)[rng.permutation(5)]
        assert permanent(p.T @ a @ q) == pytest.approx(permanent(a), rel=1e-11)


def test_permanent_rejects_bad_input():
    with pytest.raises(ValueError):
        permanent(np.ones((2, 3)))
    with pytest.raises(ValueError):
        permanent(np.eye(31))


def test_submatrix_by_multiplicity():
    rng = np.random.default_rng(14)
    a = random_complex(rng, 3)
    np.testing.assert_array_equal(submatrix_by_multiplicity(a, (1, 1, 1), (1, 1, 1)), a)
    b = submatrix_by_multiplicity(a[:2, :2], (2, 0), (1, 1))
    np.testing.assert_array_equal(b, np.array([[a[0, 0], a[0, 1]], [a[0, 0], a[0, 1]]]))
    # direct index-list construction
    rows = [0, 2]  # from (1, 0, 1)
    cols = [1, 2]  # from (0, 1, 1)
    np.testing.assert_array_equal(
        submatrix_by_multiplicity(a, (1, 0, 1), (0, 1, 1)), a[np.ix_(rows, cols)]
    )
    with pytest.raises(ValueError):
        submatrix_by_multiplicity(a, (1, 0, 1), (1, 1, 1))


def test_haar_determinism_and_unitarity():
    u1 = haar_random_unitary(4, 7)
    u2 = haar_random_unitary(4, 7)
    np.testing.assert_array_equal(u1, u2)
    assert np.abs(u1.conj().T @ u1 - np.eye(4)).max() < 1e-12
    assert not np.allclose(u1, haar_random_unitary(4, 8))


def test_an_oversized_haar_draw_is_refused_before_it_is_drawn():
    with pytest.raises(SizeCapError) as err:
        haar_random_unitary(30000, 1)   # 14.4 GB of Ginibre entries
    assert (err.value.cap, err.value.required) == (DENSE_DIM_CAP, 30000)


def test_haar_moments():
    # E|U_ij|^2 = 1/M within 3 standard errors over 1000 samples
    m, samples = 3, 1000
    acc = np.zeros((m, m))
    for seed in range(samples):
        acc += np.abs(haar_random_unitary(m, seed)) ** 2
    acc /= samples
    # var(|U_ij|^2) = (1/M)^2 * (M-1)/(M+1) for Haar
    se = np.sqrt((1 / m) ** 2 * (m - 1) / (m + 1) / samples)
    assert np.abs(acc - 1 / m).max() < 3 * se


def test_vec_unvec_round_trip():
    rng = np.random.default_rng(15)
    a = random_complex(rng, 4)
    np.testing.assert_array_equal(unvec(vec(a), 4, 4), a)
    assert vec(np.array([[2.0]])).shape == (1,)
    with pytest.raises(ValueError):
        unvec(np.ones(5), 2, 2)


def test_vec_kronecker_identity():
    rng = np.random.default_rng(16)
    for _ in range(5):
        a, b, c = (random_complex(rng, 3) for _ in range(3))
        lhs = vec(a @ b @ c)
        rhs = np.kron(c.T, a) @ vec(b)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_spectral_radius():
    assert spectral_radius(np.eye(3)) == pytest.approx(1.0)
    assert spectral_radius(np.diag([0.5, 0.2])) == pytest.approx(0.5)
    rng = np.random.default_rng(17)
    a = random_complex(rng, 5)
    a /= 2 * np.linalg.norm(a, 2)
    assert spectral_radius(a) == pytest.approx(np.abs(np.linalg.eigvals(a)).max())


def test_interferometer_blocks():
    u = haar_random_unitary(5, 3)
    itf = Interferometer(u, n_looped=2)
    assert itf.n_external == 3
    u_ee, u_el, u_le, u_ll = interferometer_blocks(itf)
    np.testing.assert_array_equal(u_ee, u[:3, :3])
    np.testing.assert_array_equal(u_el, u[:3, 3:])
    np.testing.assert_array_equal(u_le, u[3:, :3])
    np.testing.assert_array_equal(u_ll, u[3:, 3:])
    # exact reassembly
    rebuilt = np.block([[u_ee, u_el], [u_le, u_ll]])
    np.testing.assert_array_equal(rebuilt, u)


def test_interferometer_validation():
    with pytest.raises(ValueError):
        Interferometer(np.eye(3) * 1.5, 1)
    with pytest.raises(ValueError):
        Interferometer(haar_random_unitary(3, 0), 3)


def test_matrix_json_round_trip(tmp_path):
    rng = np.random.default_rng(19)
    a = random_complex(rng, 3, 4)
    path = tmp_path / "m.json"
    save_matrix_json(a, path)
    np.testing.assert_allclose(load_matrix_json(path), a, atol=0)
    np.testing.assert_allclose(load_matrix(str(path)), a, atol=0)


def test_matrix_csv(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1+2j, 0-1j\n0.5+0j, 2+0j\n")
    np.testing.assert_allclose(
        load_matrix(str(path)), np.array([[1 + 2j, -1j], [0.5, 2.0]])
    )
