import numpy as np
import pytest

from smtde.linalg import commutator, mat_norm, row_sum_norms

from conftest import SEC6_A, SEC6_B


def test_mat_norm_row_sums():
    assert mat_norm(SEC6_A) == pytest.approx(0.7, abs=1e-15)
    assert mat_norm(np.eye(2)) == 1.0
    assert mat_norm(np.zeros((3, 3))) == 0.0


def test_mat_norm_rejects_bad_input():
    with pytest.raises(ValueError):
        mat_norm(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        mat_norm(np.ones((2, 3)))


def test_commutator_example_values():
    got = commutator(SEC6_A, SEC6_B)
    expected = np.array([[0.01, -0.05], [0.09, -0.01]])
    assert np.allclose(got, expected, atol=1e-15)
    assert mat_norm(got) > 0  # the pair genuinely fails to commute


def test_commutator_trivial_cases():
    assert np.array_equal(commutator(SEC6_A, SEC6_A), np.zeros((2, 2)))
    assert np.allclose(commutator(SEC6_A, np.eye(2)), 0.0, atol=1e-16)
    with pytest.raises(ValueError):
        commutator(SEC6_A, np.zeros((3, 3)))


def test_commutator_antisymmetry():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = rng.integers(1, 5)
        a = rng.normal(size=(n, n))
        b = rng.normal(size=(n, n))
        assert np.array_equal(commutator(a, b), -commutator(b, a))


def test_norm_submultiplicative_and_triangle():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = rng.integers(1, 6)
        a = rng.normal(size=(n, n))
        b = rng.normal(size=(n, n))
        assert mat_norm(a @ b) <= mat_norm(a) * mat_norm(b) * (1 + 1e-12)
        assert mat_norm(a + b) <= mat_norm(a) + mat_norm(b) + 1e-12


def test_row_sum_norms_batched_and_unchecked():
    # one norm per matrix of a stack, each equal to mat_norm; non-finite
    # entries give a non-finite norm instead of mat_norm's ValueError
    stack = np.stack([SEC6_A, SEC6_B, -np.eye(2)])
    assert np.array_equal(row_sum_norms(stack), [mat_norm(m) for m in stack])
    assert np.isnan(row_sum_norms(np.array([[1.0, np.nan], [0.0, 1.0]])))
