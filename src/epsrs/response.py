"""Exceptional points and their spectral response strength.

The response strength of an EP of order n is the norm of the leading
Laurent coefficient W of the Green's function at the EP eigenvalue,

    G(E) ~ W / (E - lambda)^n,     xi = ||W||_2 = ||W||_F  (W has rank 1).

Two routes give xi. ``xi_special`` handles the m = n case, where
H0 - lambda*1 is itself nilpotent and W is a plain matrix power.
``xi_residue`` handles the general m >= n case by integrating the resolvent
around a circle separating the EP from the rest of the spectrum,

    W = (1 / 2 pi i) \\oint_C (E - lambda)^(n-1) G(E) dE,

evaluated with the trapezoidal rule (exponentially convergent on circles for
analytic integrands); its sums use numpy's fixed pairwise topology, so
results are bitwise reproducible.

``spectral_decomposition`` gives every term of the resolvent expansion

    G(E) = sum_l [ P_l / (E - E_l) + sum_k N_l^k / (E - E_l)^(k+1) ]

from one complex Schur form and one Sylvester solve per cluster, with no
quadrature. The contour moments with powers 0 .. n-1 would give the same
P_l and N_l^k; the test suite keeps them as the independent oracle.

All functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    AmbiguousOrderError,
    ContourError,
    EpsrsError,
    NotAnEpError,
    NumericalFailureError,
    SingularMatrixError,
)
from .linalg import as_matrix, eigenvalues, frobenius_norm, matrix_to_json, schur
from .tables import ScanTable

#: Node cap for adaptive contour quadrature.
NODE_CAP = 4096

#: Successive xi estimates must agree to this relative tolerance.
XI_REL_TOL = 1e-13

#: Rank-1 acceptance for EP reports: second singular value of W over first.
RANK1_TOL = 1e-8


def clustering_tolerance(a: np.ndarray) -> float:
    """Default eigenvalue clustering tolerance: max(1e-10, 1e-8 ||a||_F)."""
    return max(1e-10, 1e-8 * float(np.linalg.norm(a, "fro")))


@dataclass(frozen=True)
class SpectralCluster:
    """A group of nearby eigenvalues treated as one spectral object.

    ``eigenvalue`` is the cluster centroid (the EP eigenvalue candidate),
    ``order`` the size of the largest Jordan block (1 for diagonalizable
    clusters), and ``member_indices`` point into the raw eigenvalue list of
    :func:`epsrs.linalg.eigenvalues`.
    """

    eigenvalue: complex
    algebraic_multiplicity: int
    order: int
    member_indices: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= self.order <= self.algebraic_multiplicity:
            raise ValueError("must have 1 <= order <= algebraic_multiplicity")
        if len(self.member_indices) != self.algebraic_multiplicity:
            raise ValueError("member count must equal algebraic multiplicity")


@dataclass(frozen=True)
class Contour:
    """Circular integration path in the complex energy plane."""

    center: complex
    radius: float
    nodes: int = 64

    def __post_init__(self):
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ValueError("contour radius must be positive and finite")
        if self.nodes < 16 or self.nodes & (self.nodes - 1):
            raise ValueError("node count must be a power of two >= 16")


@dataclass
class EpReport:
    """Everything computed about one EP (or isolated/degenerate state)."""

    cluster: SpectralCluster
    w_operator: np.ndarray
    strength: float
    rank1_residual: float
    quadrature_nodes_used: int
    converged: bool

    def to_json(self) -> dict:
        lam = complex(self.cluster.eigenvalue)
        return {
            "eigenvalue": [lam.real, lam.imag],
            "order": self.cluster.order,
            "xi": self.strength,
            "rank1_residual": self.rank1_residual,
            "nodes": self.quadrature_nodes_used,
            "converged": self.converged,
            "W": matrix_to_json(self.w_operator),
        }


@dataclass(frozen=True)
class PassiveBound:
    """Result of checking xi against the passive-system bound."""

    bound: float
    satisfied: bool


# ---------------------------------------------------------------------------
# spectrum clustering and order determination


def _union_find_groups(w: np.ndarray, tol: float) -> list[list[int]]:
    """Chained-proximity groups: i, j joined whenever |w_i - w_j| <= tol."""
    m = len(w)
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(m):
        for j in range(i + 1, m):
            if abs(w[i] - w[j]) <= tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    groups: dict[int, list[int]] = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _order_by_rank_test(a: np.ndarray, centroid: complex, multiplicity: int,
                        cluster_index: int) -> int:
    """Largest Jordan block size at ``centroid`` from rank stabilization.

    Counts, for successive powers of M = a - centroid*1, singular values
    above 1e-8 ||a||_F. The nullity grows by the number of Jordan chains
    longer than each power and stabilizes at the algebraic multiplicity; the
    stabilization power is the order. Decisions with a singular-value gap
    below one decade across the threshold raise
    :class:`AmbiguousOrderError`, as does any mismatch between the stabilized
    nullity and the cluster multiplicity.
    """
    m = a.shape[0]
    tol_rank = 1e-8 * float(np.linalg.norm(a, "fro"))
    shifted = a - centroid * np.eye(m, dtype=complex)
    power = np.eye(m, dtype=complex)
    prev_nullity = 0
    for k in range(1, multiplicity + 1):
        power = power @ shifted
        s = np.linalg.svd(power, compute_uv=False)
        rank = int(np.sum(s > tol_rank))
        if 0 < rank < m:
            dropped = max(float(s[rank]), 1e-300)
            if float(s[rank - 1]) / dropped < 10.0:
                raise AmbiguousOrderError(
                    f"cluster {cluster_index}: rank of power {k} is ambiguous "
                    f"(singular values {s[rank - 1]:.3e} / {s[rank]:.3e} differ "
                    "by less than a decade); declare the order explicitly",
                    cluster_index=cluster_index,
                )
        nullity = m - rank
        if nullity == prev_nullity:
            raise AmbiguousOrderError(
                f"cluster {cluster_index}: generalized eigenspace stabilized at "
                f"dimension {nullity} < multiplicity {multiplicity}; the cluster "
                "tolerance groups separable eigenvalues - declare the order",
                cluster_index=cluster_index,
            )
        if nullity >= multiplicity:
            if nullity > multiplicity:
                raise AmbiguousOrderError(
                    f"cluster {cluster_index}: generalized eigenspace dimension "
                    f"{nullity} exceeds multiplicity {multiplicity} (foreign "
                    "eigenvalues leak through the rank threshold); declare the "
                    "order",
                    cluster_index=cluster_index,
                )
            return k
        prev_nullity = nullity
    raise AmbiguousOrderError(
        f"cluster {cluster_index}: rank test did not stabilize",
        cluster_index=cluster_index,
    )


def cluster_spectrum(h0, tolerance: float | None = None,
                     declared_orders: dict[int, int] | None = None
                     ) -> list[SpectralCluster]:
    """Group the spectrum of ``h0`` into isolated states and EP candidates.

    Eigenvalues are greedily chained: any two within ``tolerance`` of each
    other land in one cluster. Each multi-member cluster's order comes from
    the rank test, unless overridden through ``declared_orders``, a mapping
    from cluster index (clusters are sorted by centroid real part, then
    imaginary part) to the declared order.

    Raises :class:`AmbiguousOrderError` when a rank decision is too close to
    call; the error names the cluster index to declare. Raises ``ValueError``
    when a declared index names no cluster or a declared order lies outside
    1..multiplicity.
    """
    a = as_matrix(h0, square=True)
    tol = clustering_tolerance(a) if tolerance is None else float(tolerance)
    declared = declared_orders or {}
    w = eigenvalues(a)
    groups = _union_find_groups(w, tol)
    groups.sort(key=lambda g: (np.mean(w[g]).real, np.mean(w[g]).imag))
    for idx in declared:
        if not 0 <= idx < len(groups):
            raise ValueError(
                f"declared order for cluster {idx}, but the spectrum has "
                f"{len(groups)} clusters (indices 0..{len(groups) - 1})"
            )

    clusters = []
    for idx, group in enumerate(groups):
        members = tuple(sorted(group))
        centroid = complex(np.mean(w[list(members)]))
        mult = len(members)
        if idx in declared:
            order = int(declared[idx])
            if not 1 <= order <= mult:
                raise ValueError(
                    f"declared order {order} for cluster {idx} is outside "
                    f"1..{mult}"
                )
        elif mult == 1:
            order = 1
        else:
            order = _order_by_rank_test(a, centroid, mult, idx)
        clusters.append(SpectralCluster(centroid, mult, order, members))
    return clusters


# ---------------------------------------------------------------------------
# contour quadrature


def default_contour(h0, cluster: SpectralCluster, *, radius: float | None = None,
                    nodes: int = 64, spectrum: np.ndarray | None = None) -> Contour:
    """Circle around the cluster eigenvalue.

    The default radius is half the distance to the nearest foreign
    eigenvalue; with no foreign eigenvalues (m = n) it falls back to
    ||h0 - lambda*1||_F, the natural scale on which the quadrature is
    well conditioned.
    """
    a = as_matrix(h0, square=True)
    w = eigenvalues(a) if spectrum is None else spectrum
    center = complex(cluster.eigenvalue)
    if radius is None:
        members = set(cluster.member_indices)
        foreign = [w[i] for i in range(len(w)) if i not in members]
        if foreign:
            radius = 0.5 * min(abs(f - center) for f in foreign)
        else:
            radius = float(np.linalg.norm(a - center * np.eye(a.shape[0]), "fro"))
            if radius == 0.0:
                radius = 1.0
    return Contour(center, float(radius), nodes)


def _validate_contour(w: np.ndarray, cluster: SpectralCluster,
                      contour: Contour, scale: float) -> None:
    members = np.asarray(cluster.member_indices, dtype=int)
    if members.min() < 0 or members.max() >= len(w):
        raise ValueError("cluster member indices out of range for this matrix")
    member_vals = w[members]
    foreign = np.delete(w, members)
    center = complex(contour.center)
    if foreign.size and np.min(np.abs(foreign - center)) <= contour.radius:
        raise ContourError(
            f"a foreign eigenvalue lies inside the contour "
            f"(radius {contour.radius:.3e}, nearest foreign "
            f"{np.min(np.abs(foreign - center)):.3e})"
        )
    # computed members of a defective cluster scatter by ~eps^(1/n) around
    # the (O(eps)-accurate) centroid, so tiny radii stay legitimate
    centroid = complex(np.mean(member_vals))
    scatter = float(np.max(np.abs(member_vals - centroid)))
    slack = max(contour.radius, 4.0 * scatter, 64.0 * np.finfo(float).eps * scale)
    if np.max(np.abs(member_vals - center)) > slack:
        raise ContourError(
            "contour does not enclose the cluster (center is "
            f"{abs(centroid - center):.3e} from the member centroid)"
        )


def _ring_samples(a: np.ndarray, center: complex, radius: float,
                  thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Resolvent samples G(center + radius e^{i theta}) for each theta."""
    z = radius * np.exp(1j * thetas)
    energies = center + z
    eye = np.eye(a.shape[0], dtype=complex)
    shifted = energies[:, np.newaxis, np.newaxis] * eye - a
    try:
        g = np.linalg.inv(shifted)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(
            f"contour node hit the spectrum of h0: {exc}", pivot=0.0
        ) from exc
    return z, g


def _doubled_samples(a, center, radius, z, g):
    """Interleave the existing samples with the midpoints, theta-ordered."""
    n = len(z)
    new_thetas = (2.0 * np.arange(n) + 1.0) * np.pi / n
    z_new, g_new = _ring_samples(a, center, radius, new_thetas)
    z_all = np.empty(2 * n, dtype=complex)
    g_all = np.empty((2 * n,) + g.shape[1:], dtype=complex)
    z_all[0::2], z_all[1::2] = z, z_new
    g_all[0::2], g_all[1::2] = g, g_new
    return z_all, g_all


def _residue_moment(a, contour: Contour, eigenvalue: complex, power: int):
    """(1/2 pi i) \\oint (E-lambda)^power G dE = mean_j (z_j-s)^power z_j G_j,
    z_j = E_j - c the nodes about the contour centre c and s = lambda - c.

    Doubles the nodes until the Frobenius norms of successive moments agree
    to ``XI_REL_TOL`` relative or ``NODE_CAP`` is reached. Returns (moment,
    nodes_used, converged)."""
    shift = complex(eigenvalue) - contour.center
    nodes, xi = contour.nodes, None
    z, g = _ring_samples(a, contour.center, contour.radius,
                         2.0 * np.pi * np.arange(nodes) / nodes)
    while True:
        # centred: z^(power+1), as (z-0)^power * z differs in the last bit for
        # power >= 2, enough to flip chirality-EP4 convergence at XI_REL_TOL
        weight = z ** (power + 1) if shift == 0 else (z - shift) ** power * z
        moment = np.mean(weight[:, np.newaxis, np.newaxis] * g, axis=0)
        xi_new = float(np.linalg.norm(moment, "fro"))
        if xi is not None and abs(xi_new - xi) / max(xi_new, xi, 1e-300) <= XI_REL_TOL:
            return moment, nodes, True
        if nodes >= NODE_CAP:
            return moment, nodes, False
        xi = xi_new
        z, g = _doubled_samples(a, contour.center, contour.radius, z, g)
        nodes *= 2


def _report_from_w(cluster: SpectralCluster, w_op: np.ndarray,
                   nodes_used: int, quad_converged: bool) -> EpReport:
    s = np.linalg.svd(w_op, compute_uv=False)
    leading = float(s[0])
    rank1_residual = float(s[1]) / leading if len(s) > 1 and leading > 0 else 0.0
    degenerate = cluster.order == 1 and cluster.algebraic_multiplicity > 1
    # W of a genuine EP (and of an isolated state) has rank 1, where the
    # spectral and Frobenius norms coincide; degenerate-but-diagonalizable
    # clusters carry a higher-rank projector, for which the spectral norm is
    # the meaningful strength
    strength = leading if degenerate else frobenius_norm(w_op)
    converged = quad_converged and (degenerate or rank1_residual <= RANK1_TOL)
    return EpReport(cluster, w_op, strength, rank1_residual, nodes_used, converged)


def xi_residue(h0, cluster: SpectralCluster, contour: Contour | None = None
               ) -> EpReport:
    """Response strength of one cluster by residue calculus.

    Integrates (E - lambda)^(n-1) G(E), lambda the cluster eigenvalue, around
    ``contour`` (default: :func:`default_contour`, any centre works), doubling
    the trapezoidal node count until two successive xi estimates agree to
    1e-13 relative or ``NODE_CAP`` nodes are reached, in which case the report
    comes back with ``converged=False``.

    Raises :class:`ContourError` if the contour fails to separate the
    cluster from the rest of the spectrum.
    """
    a = as_matrix(h0, square=True)
    w = eigenvalues(a)
    if contour is None:
        contour = default_contour(a, cluster, spectrum=w)
    scale = max(float(np.linalg.norm(a, "fro")), abs(contour.center), 1.0)
    _validate_contour(w, cluster, contour, scale)
    w_op, nodes_used, quad_ok = _residue_moment(a, contour, cluster.eigenvalue,
                                                cluster.order - 1)
    return _report_from_w(cluster, w_op, nodes_used, quad_ok)


def xi_special(h0, lambda_ep: complex, n: int) -> EpReport:
    """Response strength for the m = n case: xi = ||(h0 - lambda*1)^(n-1)||_F.

    Requires ``h0`` to be n x n with ``h0 - lambda*1`` nilpotent of index
    exactly n; otherwise :class:`NotAnEpError` is raised and the general
    :func:`xi_residue` route applies.
    """
    a = as_matrix(h0, square=True)
    n = int(n)
    if n < 1:
        raise ValueError("order n must be >= 1")
    if a.shape[0] != n:
        raise ValueError(
            f"xi_special requires an n x n matrix (n = {n}, got {a.shape[0]}); "
            "use xi_residue for m > n"
        )
    nil = a - complex(lambda_ep) * np.eye(n, dtype=complex)
    nil_norm = float(np.linalg.norm(nil, "fro"))
    w_op = np.linalg.matrix_power(nil, n - 1)
    w_norm = float(np.linalg.norm(w_op, "fro"))
    if float(np.linalg.norm(w_op @ nil, "fro")) > 1e-10 * nil_norm**n:
        raise NotAnEpError(
            f"(h0 - lambda*1)^{n} does not vanish: not an EP of order {n} "
            "in an n-dimensional space"
        )
    if w_norm <= 1e-10 * nil_norm ** (n - 1):
        raise NotAnEpError(
            f"(h0 - lambda*1)^{n - 1} vanishes: nilpotency index is below {n}"
        )
    cluster = SpectralCluster(complex(lambda_ep), n, n, tuple(range(n)))
    return _report_from_w(cluster, w_op, 0, True)


# ---------------------------------------------------------------------------
# full spectral decomposition


@dataclass
class SpectralDecomposition:
    """Projectors and nilpotent powers of every cluster (the resolvent

    expansion coefficients). ``nilpotent_powers[l]`` holds N_l^1 .. N_l^(n-1)
    and is empty for order-1 clusters.
    """

    clusters: list[SpectralCluster]
    projectors: list[np.ndarray]
    nilpotent_powers: list[list[np.ndarray]] = field(default_factory=list)

    def reconstruct_greens(self, energy: complex) -> np.ndarray:
        """Evaluate the expansion at one energy (away from the spectrum)."""
        energy = complex(energy)
        total = np.zeros_like(self.projectors[0])
        for cluster, proj, nils in zip(self.clusters, self.projectors,
                                       self.nilpotent_powers):
            de = energy - cluster.eigenvalue
            total = total + proj / de
            for k, nil in enumerate(nils, start=1):
                total = total + nil / de ** (k + 1)
        return total


def spectral_decomposition(h0, clusters: list[SpectralCluster] | None = None
                           ) -> SpectralDecomposition:
    """P_l and N_l^k of every cluster from one complex Schur form.

    With h0 = Z T Z^H (:func:`epsrs.linalg.schur`), ``ztrsen`` moves a
    cluster's k Schur entries to the top of the original T and Z, giving
    T' = [[T11, T12], [0, T22]] and Z', and ``ztrsyl`` solves
    T11 X - X T22 = T12 (Bavely & Stewart, SINUM 16, 1979). With
    U = Z'[:, :k], V = U^H + X Z'[:, k:]^H and lambda the cluster eigenvalue,

        P = U V,        N^j = U (T11 - lambda)^j V.

    No quadrature runs. The residue route stays in :func:`xi_residue` for
    xi, and its contour moments, which give the same P and N^j, serve the
    tests as the oracle. A Schur entry goes to the cluster holding its
    nearest :func:`eigenvalues` entry (the order ``member_indices`` refer
    to); entries in no cluster stay in T22.

    Raises :class:`NumericalFailureError`, naming the stage and the cluster,
    when the Schur factorization fails; when a cluster's members do not fit
    the matrix, its Schur entry count differs from its multiplicity, or a
    foreign eigenvalue is no farther from its eigenvalue than a member (each
    a sign of clusters of another matrix); when ``ztrsen`` moves fewer
    entries than selected; or when ``ztrsyl`` finds T11 and T22
    inseparable. A perturbed projector is never returned.
    """
    from scipy.linalg.lapack import ztrsen, ztrsyl

    a = as_matrix(h0, square=True)
    if clusters is None:
        clusters = cluster_spectrum(a)
    t, z = schur(a)
    diag = np.diag(t)
    w = eigenvalues(a)
    m = a.shape[0]
    owner_of = np.full(m, -1)
    for idx, cluster in enumerate(clusters):
        members = np.asarray(cluster.member_indices, dtype=int)
        if members.min() < 0 or members.max() >= m:
            raise NumericalFailureError(
                f"cluster {idx}: member indices {cluster.member_indices} do not "
                f"fit a {m} x {m} matrix"
            )
        owner_of[members] = idx
    # eigvals balances first, so its order differs from the Schur order and
    # its values agree with diag(T) only to rounding: map by value
    owners = owner_of[np.argmin(np.abs(diag[:, np.newaxis] - w), axis=1)]
    projectors = []
    nilpotents = []
    for idx, cluster in enumerate(clusters):
        lam = complex(cluster.eigenvalue)
        select = owners == idx
        k = int(np.count_nonzero(select))
        if k != cluster.algebraic_multiplicity:
            raise NumericalFailureError(
                f"cluster {idx} at {lam:.6g}: {k} Schur entries for "
                f"multiplicity {cluster.algebraic_multiplicity}"
            )
        dist = np.abs(diag - lam)
        if k < m and dist[select].max() >= dist[~select].min():
            raise NumericalFailureError(
                f"cluster {idx} at {lam:.6g}: a foreign eigenvalue at distance "
                f"{dist[~select].min():.3e} is no farther than a member "
                f"({dist[select].max():.3e}); the cluster does not belong to "
                "this matrix"
            )
        ts, zs, _, sdim, _, _, info = ztrsen(select.astype(np.int32), t, z,
                                             job="N")
        if info != 0 or sdim != k:
            raise NumericalFailureError(
                f"ztrsen reordering, cluster {idx}: moved {sdim} of {k} Schur "
                f"entries (info {info})"
            )
        u = zs[:, :k]
        v = u.conj().T
        if k < m:
            x, scale, info = ztrsyl(ts[:k, :k], ts[k:, k:], ts[:k, k:], isgn=-1)
            if info != 0 or not scale > 0.0:
                raise NumericalFailureError(
                    f"ztrsyl Sylvester solve, cluster {idx}: info {info}, "
                    f"scale {scale:.3e} (the cluster and the rest of the "
                    "spectrum are not separable)"
                )
            v = v + (x / scale) @ zs[:, k:].conj().T
        projectors.append(u @ v)
        shifted = ts[:k, :k] - lam * np.eye(k)
        power = np.eye(k, dtype=complex)
        nils = []
        for _ in range(1, cluster.order):
            power = power @ shifted
            nils.append(u @ power @ v)
        nilpotents.append(nils)
    return SpectralDecomposition(list(clusters), projectors, nilpotents)


# ---------------------------------------------------------------------------
# bounds and scans


def splitting_bound(xi: float, n: int, epsilon: float, h1_norm: float) -> float:
    """Eigenvalue-displacement radius (epsilon ||H1||_2 xi)^(1/n).

    This is also the pseudospectral radius near the EP for small epsilon.
    """
    if min(xi, epsilon, h1_norm) < 0:
        raise ValueError("xi, epsilon and h1_norm must be nonnegative")
    if n < 1:
        raise ValueError("order n must be >= 1")
    return float((epsilon * h1_norm * xi) ** (1.0 / n))


def passive_bound_check(report: EpReport) -> PassiveBound:
    """Check xi against the passive-system bound (sqrt(2n) |Im lambda|)^(n-1).

    n is the cluster order. The bound only holds for passive systems with
    m = n; for m > n it is expected to fail, which is precisely what this
    checker documents.
    """
    n = report.cluster.order
    lam = complex(report.cluster.eigenvalue)
    bound = float((math.sqrt(2 * n) * abs(lam.imag)) ** (n - 1))
    return PassiveBound(bound, bool(report.strength <= bound))


SCAN_COLUMNS = ["parameter", "xi", "lambda_re", "lambda_im",
                "foreign_distance", "compensated", "valid"]


def surface_scan(generator, samples, order: int, *,
                 compensate_power: int = 1,
                 tolerance: float | None = None,
                 nodes: int = 64,
                 radius: float | None = None) -> ScanTable:
    """Sweep a model along an exceptional surface and tabulate xi.

    ``generator`` maps one real parameter to a Hamiltonian that carries an
    EP of the declared ``order`` at every sample; the first cluster of that
    order in centroid order is scanned. Samples failing EP
    validation are flagged (``valid = 0``, NaN data) and the scan continues.
    The ``compensated`` column holds xi * foreign_distance^k for the
    divergence-law limit, with k = ``compensate_power``.
    """

    def one(p: float) -> tuple[float, ...]:
        p = float(p)
        try:
            a = as_matrix(generator(p), square=True)
            clusters = cluster_spectrum(a, tolerance)
            candidates = [c for c in clusters if c.order == order]
            cluster = candidates[0]
            w = eigenvalues(a)
            contour = default_contour(a, cluster, radius=radius, nodes=nodes,
                                      spectrum=w)
            report = xi_residue(a, cluster, contour)
            lam = complex(cluster.eigenvalue)
            foreign = np.delete(w, np.asarray(cluster.member_indices, dtype=int))
            fdist = float(np.min(np.abs(foreign - lam))) if foreign.size else math.inf
            return (p, report.strength, lam.real, lam.imag, fdist,
                    report.strength * fdist**compensate_power,
                    1.0 if report.converged else 0.0)
        except (IndexError, ValueError, EpsrsError):
            return (p, math.nan, math.nan, math.nan, math.nan, math.nan, 0.0)

    rows = [one(p) for p in samples]
    rows.sort(key=lambda r: r[0])
    return ScanTable(list(SCAN_COLUMNS), rows)
