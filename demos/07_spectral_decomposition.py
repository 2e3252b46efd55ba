#!/usr/bin/env python3
"""Full resolvent expansion: projectors, nilpotents, and Petermann factors.

One complex Schur form, reordered once per cluster (ztrsen) and
block-diagonalized by a Sylvester solve (ztrsyl), gives the spectral
projector P_l and the nilpotent powers N_l^k of every cluster; summing the
expansion reproduces the Green's function. For isolated states
||P_l||_2 = sqrt(K_l) is their response strength, diverging as the state
approaches an EP.
"""

import numpy as np

from epsrs import (
    ToyModelParams,
    eig,
    frobenius_norm,
    greens_function,
    petermann_factor,
    spectral_decomposition,
    toy_h0,
)

params = ToyModelParams(e_a=0.0, e_b=2e-3, a=-1.0, b=-1.0)
h0 = toy_h0(params)
deco = spectral_decomposition(h0)

for cluster, proj, nils in zip(deco.clusters, deco.projectors,
                               deco.nilpotent_powers):
    print(f"cluster at {cluster.eigenvalue:.6g} "
          f"(multiplicity {cluster.algebraic_multiplicity}, order {cluster.order})")
    print(f"  ||P||_2 = {np.linalg.norm(proj, 2):.6g}")
    for k, nil in enumerate(nils, start=1):
        print(f"  ||N^{k}||_F = {frobenius_norm(nil):.6g}")

# the expansion reproduces G(E) away from the spectrum
rng = np.random.default_rng(0)
worst = 0.0
for _ in range(5):
    en = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    direct = greens_function(h0, en)
    rebuilt = deco.reconstruct_greens(en)
    worst = max(worst, frobenius_norm(rebuilt - direct) / frobenius_norm(direct))
print(f"\nreconstruction residual at 5 random energies: {worst:.2e}")

# sqrt(K) of the isolated state equals ||P||_2 and grows ~ 1/detuning^2
print(f"\n{'detuning':>10} {'sqrt(K_b)':>12} {'sqrt(K_b)*d^2':>14}")
for d in (1e-1, 1e-2, 1e-3):
    p = ToyModelParams(e_a=0.0, e_b=d, a=-1.0, b=-1.0)
    pair = min(eig(toy_h0(p)), key=lambda q: abs(q.value - p.e_b))
    root_k = np.sqrt(petermann_factor(pair))
    print(f"{d:10.0e} {root_k:12.4e} {root_k * d**2:14.6f}")
