"""Dense complex linear algebra used by every other module.

Everything here is a thin, validated layer over LAPACK (via numpy/scipy):
matrices are plain ``numpy.ndarray`` of complex128, operations are pure
functions, and there is no global mutable state, so all of it is safe to call
concurrently. ``scipy.linalg`` is imported inside the two functions that
need it (:func:`eig`, :func:`schur`), so numpy-only callers never pay for
loading it.

The on-disk matrix format shared by all modules is JSON::

    {"rows": m, "cols": n, "entries": [[re, im], ...]}   # row-major

See :func:`matrix_to_json` / :func:`matrix_from_json`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import NumericalFailureError, PairingError

#: Largest dimension accepted by :func:`eig`; the package targets desk-scale
#: dense problems only.
MAX_EIG_DIM = 256


def as_matrix(a, square: bool = False) -> np.ndarray:
    """Validate and convert ``a`` to a complex128 2-d array.

    Raises ``ValueError`` on wrong dimensionality, empty axes, non-finite
    entries, or (with ``square=True``) a non-square shape.
    """
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"matrix axes must be positive, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    if square and m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got {m.shape}")
    return m


def frobenius_norm(a) -> float:
    """Frobenius norm sqrt(sum |a_ij|^2) = sqrt(trace(a^dagger a)).

    A result outside 1e-140..1e140 is recomputed from the entries scaled by a
    power of two near max |a_ij|, so the squares of tiny (or huge) entries
    neither underflow to 0 nor overflow; power-of-two scaling is exact.
    """
    m = as_matrix(a)
    fro = float(np.linalg.norm(m, "fro"))
    if 1e-140 < fro < 1e140:
        return fro
    exp = math.frexp(float(np.max(np.abs(m))))[1]
    scaled = np.ldexp(m.real, -exp) + 1j * np.ldexp(m.imag, -exp)
    return float(np.ldexp(np.linalg.norm(scaled, "fro"), exp))


def spectral_norm(a) -> float:
    """Spectral norm (largest singular value).

    Always <= :func:`frobenius_norm`, with equality for rank-1 matrices.
    """
    m = as_matrix(a)
    try:
        s = np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"SVD did not converge: {exc}") from exc
    return float(s[0])


@dataclass(frozen=True)
class EigenPair:
    """One eigenvalue with unit-norm right and left eigenvectors.

    ``right`` satisfies ``a @ right = value * right``; ``left`` is an
    eigenvector of ``a.conj().T`` with eigenvalue ``conj(value)``, i.e.
    ``left.conj() @ a = value * left.conj()``.
    """

    value: complex
    right: np.ndarray
    left: np.ndarray


def _eig_input(a) -> np.ndarray:
    m = as_matrix(a, square=True)
    if m.shape[0] > MAX_EIG_DIM:
        raise ValueError(f"matrix dimension {m.shape[0]} exceeds {MAX_EIG_DIM}")
    return m


def eigenvalues(a) -> np.ndarray:
    """Eigenvalues only, in LAPACK order (the package's "raw" ordering)."""
    m = _eig_input(a)
    try:
        return np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigenvalue QR iteration failed: {exc}") from exc


def eig(a) -> list[EigenPair]:
    """Full nonsymmetric eigendecomposition with paired left/right vectors.

    Left and right vectors come from a single LAPACK factorization and are
    paired by index, which stays well defined even for numerically degenerate
    eigenvalues. Each returned left vector is verified to be an eigenvector
    of the conjugate transpose; a failed check raises :class:`PairingError`.
    """
    import scipy.linalg

    m = _eig_input(a)
    try:
        w, vl, vr = scipy.linalg.eig(m, left=True, right=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigenvalue QR iteration failed: {exc}") from exc
    pairs = []
    scale = max(float(np.linalg.norm(m, "fro")), 1e-300)
    ah = m.conj().T
    for i in range(m.shape[0]):
        right = vr[:, i] / np.linalg.norm(vr[:, i])
        left = vl[:, i] / np.linalg.norm(vl[:, i])
        residual = float(np.linalg.norm(ah @ left - np.conj(w[i]) * left))
        if residual > 1e-8 * scale:
            raise PairingError(
                f"left vector {i} fails its conjugate-eigenvalue check "
                f"(residual {residual:.3e})"
            )
        pairs.append(EigenPair(complex(w[i]), right, left))
    return pairs


def schur(a) -> tuple[np.ndarray, np.ndarray]:
    """Complex Schur form ``a = z @ t @ z^H``: ``t`` upper triangular with the
    eigenvalues on its diagonal, ``z`` unitary.

    The diagonal of ``t`` is in the factorization's own order, not that of
    :func:`eigenvalues` (which balances first), and agrees with it only to
    rounding. Raises :class:`NumericalFailureError` naming the Schur stage
    when the QR iteration fails.
    """
    import scipy.linalg

    m = _eig_input(a)
    try:
        t, z = scipy.linalg.schur(m, output="complex", check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(
            f"Schur factorization: QR iteration failed ({exc})") from exc
    return t, z


# ---------------------------------------------------------------------------
# matrix JSON wire format


def matrix_to_json(a) -> dict:
    """Encode a matrix as the shared JSON object (row-major [re, im] pairs)."""
    m = as_matrix(a)
    entries = [[float(z.real), float(z.imag)] for z in m.ravel(order="C")]
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "entries": entries}


def matrix_from_json(obj) -> np.ndarray:
    """Decode the shared JSON object into a validated matrix."""
    if not isinstance(obj, dict):
        raise ValueError("matrix JSON must be an object")
    try:
        rows, cols, entries = int(obj["rows"]), int(obj["cols"]), obj["entries"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"matrix JSON missing/invalid field: {exc}") from exc
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be positive")
    if not isinstance(entries, list):
        raise ValueError("matrix JSON entries must be a list of [re, im] pairs")
    if len(entries) != rows * cols:
        raise ValueError(
            f"entries length {len(entries)} != rows*cols = {rows * cols}"
        )
    try:
        flat = [complex(float(re), float(im)) for re, im in entries]
    except (TypeError, ValueError) as exc:
        raise ValueError(f"matrix entries must be [re, im] pairs: {exc}") from exc
    return as_matrix(np.array(flat, dtype=complex).reshape(rows, cols))


def load_matrix(path) -> np.ndarray:
    """Read a matrix JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return matrix_from_json(json.load(fh))


def save_matrix(a, path) -> None:
    """Write a matrix JSON file."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_json(a), fh)
        fh.write("\n")
