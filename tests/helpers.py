"""Shared random-matrix builders for the test suite."""

from __future__ import annotations

import numpy as np


def ginibre(n: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(ginibre(n, rng))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_diagonalizable(n: int, rng: np.random.Generator,
                          min_gap: float = 0.2) -> np.ndarray:
    """Ginibre draw with well-separated eigenvalues (redrawn otherwise)."""
    while True:
        a = ginibre(n, rng)
        w = np.sort_complex(np.linalg.eigvals(a))
        gaps = [abs(w[i] - w[j]) for i in range(n) for j in range(i + 1, n)]
        if not gaps or min(gaps) > min_gap:
            return a


def jordan_conjugated(n: int, rng: np.random.Generator
                      ) -> tuple[np.ndarray, complex, np.ndarray]:
    """U (lam*1 + superdiagonal couplings) U^dagger: a dense m = n EP.

    Returns (matrix, eigenvalue, nilpotent one-block Jordan part).
    """
    lam = complex(rng.normal(), rng.normal())
    couplings = rng.uniform(0.5, 2.0, n - 1) * np.exp(2j * np.pi * rng.uniform(size=n - 1))
    jordan = lam * np.eye(n, dtype=complex) + np.diag(couplings, 1)
    u = random_unitary(n, rng)
    return u @ jordan @ u.conj().T, lam, jordan


def dense_jordan(m: int, order: int, rng: np.random.Generator
                 ) -> tuple[np.ndarray, complex]:
    """Q T Q^dagger with T upper triangular: one Jordan block of ``order`` at
    lam (unit couplings on its superdiagonal), m - order simple foreign
    eigenvalues at least 0.5 from lam and 0.3 from each other, and random
    couplings above the diagonal. Returns (matrix, lam)."""
    lam = complex(rng.normal(), rng.normal())
    t = np.triu(0.3 * ginibre(m, rng), 1)
    t[np.arange(order - 1), np.arange(1, order)] = 1.0
    diag = [lam] * order
    while len(diag) < m:
        cand = lam + complex(*rng.uniform(-2.5, 2.5, 2))
        if abs(cand - lam) >= 0.5 and all(abs(cand - d) >= 0.3
                                          for d in diag[order:]):
            diag.append(cand)
    t[np.diag_indices(m)] = diag
    q = random_unitary(m, rng)
    return q @ t @ q.conj().T, lam


def contour_decomposition(a: np.ndarray, clusters, rel_tol: float = 1e-12,
                          node_cap: int = 4096):
    """Projectors and nilpotent powers by trapezoidal contour moments.

    The independent oracle for ``spectral_decomposition``: around each
    cluster, on a circle of half the distance to the nearest foreign
    eigenvalue, (1/2 pi i) \\oint (E - lam)^p G(E) dE = mean_j z_j^(p+1) G_j
    for p = 0 .. order-1, with the node count doubled from 64 until
    successive moment sets agree to ``rel_tol`` (relative Frobenius norm).
    Returns (projectors, nilpotent_powers) in cluster order.
    """
    m = a.shape[0]
    w = np.linalg.eigvals(a)
    projectors, nilpotents = [], []
    for cluster in clusters:
        lam = complex(cluster.eigenvalue)
        foreign = np.delete(w, list(cluster.member_indices))
        radius = (0.5 * float(np.min(np.abs(foreign - lam))) if foreign.size
                  else max(float(np.linalg.norm(a - lam * np.eye(m))), 1.0))
        moments, nodes = None, 64
        while True:
            z = radius * np.exp(2j * np.pi * np.arange(nodes) / nodes)
            g = np.linalg.inv((lam + z)[:, None, None] * np.eye(m) - a)
            new = [np.mean(z[:, None, None] ** (p + 1) * g, axis=0)
                   for p in range(cluster.order)]
            if moments is not None and max(
                    np.linalg.norm(n - o) / np.linalg.norm(n)
                    for n, o in zip(new, moments)) <= rel_tol:
                break
            if nodes >= node_cap:
                raise AssertionError(f"contour moments around {lam} unconverged")
            moments, nodes = new, 2 * nodes
        projectors.append(new[0])
        nilpotents.append(new[1:])
    return projectors, nilpotents
