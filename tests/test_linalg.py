import ast
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import epsrs
from epsrs import (
    as_matrix,
    chirality_eigenvalues,
    ChiralityModelParams,
    eig,
    eigenvalues,
    frobenius_norm,
    greens_function,
    matrix_from_json,
    matrix_to_json,
    load_matrix,
    save_matrix,
    spectral_norm,
    toy_h0,
    ToyModelParams,
)
from epsrs.exceptions import NumericalFailureError, SingularMatrixError
from epsrs.linalg import schur

from helpers import ginibre, random_diagonalizable, random_unitary


class TestFrobeniusNorm:
    def test_identity(self):
        assert_allclose(frobenius_norm(np.eye(2)), np.sqrt(2.0), rtol=1e-15)

    def test_zero(self):
        assert frobenius_norm(np.zeros((3, 3))) == 0.0

    def test_tiny_entries_do_not_underflow(self):
        # squaring 1e-176 underflows to 0; the norm must still equal the
        # spectral norm of these rank-1 matrices
        for a, expected in (([[1e-176]], 1e-176),
                            ([[1e-176, 1e-176j]], np.sqrt(2.0) * 1e-176)):
            assert_allclose(frobenius_norm(a), expected, rtol=1e-15)
            assert_allclose(frobenius_norm(a), spectral_norm(a), rtol=1e-15)

    def test_leading_coefficient_pattern(self):
        # the EP3 leading coefficient for A = B = -1 has a single entry AB = 1
        w = np.zeros((3, 3), dtype=complex)
        w[0, 2] = 1.0
        assert frobenius_norm(w) == 1.0


class TestSpectralNorm:
    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, 1.0])) == 3.0

    def test_rank1_equals_frobenius(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            a = np.outer(u, v)
            assert_allclose(spectral_norm(a), frobenius_norm(a), rtol=1e-13)

    def test_jordan_block(self):
        assert spectral_norm(np.array([[0.0, 1.0], [0.0, 0.0]])) == 1.0

    def test_never_exceeds_frobenius(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            a = ginibre(int(rng.integers(1, 7)), rng)
            assert spectral_norm(a) <= frobenius_norm(a) * (1 + 1e-15)


@st.composite
def small_complex_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    m = draw(st.integers(min_value=1, max_value=5))
    finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
    entries = draw(st.lists(st.tuples(finite, finite), min_size=n * m, max_size=n * m))
    return np.array([complex(re, im) for re, im in entries]).reshape(n, m)


@settings(max_examples=60, deadline=None)
@given(small_complex_matrices())
def test_norm_axioms_property(a):
    fro = frobenius_norm(a)
    spec = spectral_norm(a)
    assert 0 <= spec <= fro * (1 + 1e-12) + 1e-300
    rng = np.random.default_rng(0)
    v = rng.standard_normal(a.shape[1]) + 1j * rng.standard_normal(a.shape[1])
    # compatibility with the vector 2-norm, for both norms
    av = np.linalg.norm(a @ v)
    tol = 1 + 1e-12
    assert av <= spec * np.linalg.norm(v) * tol + 1e-300
    assert av <= fro * np.linalg.norm(v) * tol + 1e-300


def test_unitary_invariance_of_norms():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        a = ginibre(n, rng)
        u, v = random_unitary(n, rng), random_unitary(n, rng)
        for norm in (frobenius_norm, spectral_norm):
            assert abs(norm(u @ a @ v) - norm(a)) <= 1e-12 * norm(a)


class TestInvert:
    """The LU inversion inside greens_function: G(E) = (E*1 - H0)^-1."""

    def test_diagonal(self):
        assert_allclose(greens_function(np.diag([1.0, 3.0]), 5.0),
                        np.diag([0.25, 0.5]), rtol=1e-15)

    def test_exactly_singular(self):
        # E = 2 is an eigenvalue: 2*1 - H0 = [[1, -1], [-1, 1]]
        with pytest.raises(SingularMatrixError) as info:
            greens_function(np.array([[1.0, 1.0], [1.0, 1.0]]), 2.0)
        assert info.value.pivot < 1e-300

    def test_roundtrip_residual(self):
        rng = np.random.default_rng(4)
        h0 = ginibre(8, rng)
        energy = 0.3 - 0.2j
        x = greens_function(h0, energy)
        shifted = energy * np.eye(8) - h0
        residual = frobenius_norm(shifted @ x - np.eye(8))
        assert residual <= 1e-12 * frobenius_norm(shifted) * frobenius_norm(x)

    def test_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(ValueError):
            greens_function(np.ones((2, 3)), 0.0)
        with pytest.raises(ValueError):
            greens_function(np.array([[np.nan, 0.0], [0.0, 1.0]]), 0.0)
        with pytest.raises(ValueError):
            greens_function(np.eye(2), complex(np.nan, 0.0))

    def test_infinite_energy_rejected_without_warning(self):
        # inf * 0 off the diagonal of energy * 1 would warn before any check
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for energy in (np.inf, complex(0.0, -np.inf), complex(np.inf, np.nan)):
                with pytest.raises(ValueError, match="energy"):
                    greens_function(np.eye(2), energy)

    def test_condition_warning_logged(self, caplog):
        import logging

        with caplog.at_level(logging.WARNING, logger="epsrs.greens"):
            greens_function(np.diag([-1.0, -1e-15]), 0.0)
        assert any("ill-conditioned" in r.message for r in caplog.records)


class TestEig:
    def test_diagonal_basis_vectors(self):
        pairs = eig(np.diag([1.0, 2.0, 3.0]))
        assert sorted(p.value.real for p in pairs) == [1.0, 2.0, 3.0]
        for p in pairs:
            k = int(round(p.value.real)) - 1
            expected = np.zeros(3)
            expected[k] = 1.0
            assert_allclose(np.abs(p.right), expected, atol=1e-14)
            assert_allclose(np.abs(p.left), expected, atol=1e-14)

    def test_toy_model_spectrum(self):
        h0 = toy_h0(ToyModelParams(e_a=0.3 + 0.1j, e_b=-0.2j, a=-1.0, b=2.0))
        w = np.sort_complex(eigenvalues(h0))
        expected = np.sort_complex(np.array([-0.2j, 0.3 + 0.1j, 0.3 + 0.1j]))
        assert_allclose(w, expected, atol=1e-13)

    def test_chirality_matches_closed_form(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            vals = rng.standard_normal(10)
            p = ChiralityModelParams(
                omega_is=complex(vals[0], vals[1]),
                omega_ch=complex(vals[2], vals[3]),
                v=complex(vals[4], vals[5]),
                a=complex(vals[6], vals[7]),
                b=complex(vals[8], vals[9]),
            )
            from epsrs import chirality_h0

            got = np.sort_complex(eigenvalues(chirality_h0(p)))
            want = np.sort_complex(np.array(chirality_eigenvalues(p)))
            assert_allclose(got, want, atol=1e-10 * max(1.0, np.abs(want).max()))

    def test_pair_contracts(self):
        rng = np.random.default_rng(6)
        a = ginibre(6, rng)
        scale = frobenius_norm(a)
        for p in eig(a):
            assert abs(np.linalg.norm(p.right) - 1.0) <= 1e-12
            assert abs(np.linalg.norm(p.left) - 1.0) <= 1e-12
            assert np.linalg.norm(a @ p.right - p.value * p.right) <= 1e-10 * scale
            # left vector lives in the conjugate-transpose eigenproblem
            assert np.linalg.norm(
                a.conj().T @ p.left - np.conj(p.value) * p.left
            ) <= 1e-10 * scale

    def test_biorthogonality(self):
        rng = np.random.default_rng(7)
        a = random_diagonalizable(5, rng)
        pairs = eig(a)
        for i, pi in enumerate(pairs):
            for j, pj in enumerate(pairs):
                if i != j:
                    assert abs(np.vdot(pj.left, pi.right)) <= 1e-10

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            eigenvalues(np.eye(257))


class TestSchur:
    def test_factorization(self):
        a = ginibre(12, np.random.default_rng(61))
        t, z = schur(a)
        assert frobenius_norm(z @ t @ z.conj().T - a) <= 1e-13 * frobenius_norm(a)
        assert frobenius_norm(z.conj().T @ z - np.eye(12)) <= 1e-13
        assert np.all(np.tril(t, -1) == 0)
        w = eigenvalues(a)
        assert max(np.min(np.abs(w - d)) for d in np.diag(t)) <= 1e-12

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            schur(np.eye(257))

    def test_qr_failure_is_typed(self, monkeypatch):
        import scipy.linalg

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Schur form not found")

        monkeypatch.setattr(scipy.linalg, "schur", fail)
        with pytest.raises(NumericalFailureError, match="Schur factorization"):
            schur(np.eye(3))


class TestMatrixJson:
    def test_roundtrip(self):
        rng = np.random.default_rng(8)
        a = ginibre(3, rng)
        obj = matrix_to_json(a)
        assert obj["rows"] == 3 and obj["cols"] == 3
        assert len(obj["entries"]) == 9
        assert_allclose(matrix_from_json(obj), a, rtol=0, atol=0)

    def test_file_roundtrip(self, tmp_path):
        a = np.array([[1.0 + 2.0j, 0.5], [0.0, -1.0j]])
        path = tmp_path / "m.json"
        save_matrix(a, path)
        assert_allclose(load_matrix(path), a, rtol=0, atol=0)

    @pytest.mark.parametrize("obj", [
        42,
        {"rows": 2, "cols": 2},
        {"rows": 2, "cols": 2, "entries": [[1, 0]]},
        {"rows": 0, "cols": 2, "entries": []},
        {"rows": 1, "cols": 1, "entries": [[1, 0, 0]]},
        {"rows": 1, "cols": 1, "entries": ["oops"]},
        {"rows": 1, "cols": 1, "entries": 5},
        {"rows": 1, "cols": 1, "entries": {"re": 1}},
    ])
    def test_malformed(self, obj):
        with pytest.raises(ValueError):
            matrix_from_json(obj)


def test_as_matrix_validation():
    with pytest.raises(ValueError):
        as_matrix(np.ones(3))
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.inf, 0.0]]))
    with pytest.raises(ValueError):
        as_matrix(np.ones((2, 3)), square=True)


def test_only_linalg_calls_eigensolvers():
    # every eigensolve goes through linalg, which checks MAX_EIG_DIM and maps
    # LinAlgError to NumericalFailureError
    solvers = {"eigvals", "eig", "schur"}
    offenders = []
    for path in sorted(Path(epsrs.__file__).parent.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute) and node.attr in solvers
                    and ast.unparse(node.value) in ("np.linalg", "numpy.linalg",
                                                    "scipy.linalg")):
                offenders.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
            if (isinstance(node, ast.ImportFrom)
                    and node.module in ("numpy.linalg", "scipy.linalg")
                    and solvers & {alias.name for alias in node.names}):
                offenders.append(f"{path.name}:{node.lineno} from {node.module}")
    assert offenders == []
