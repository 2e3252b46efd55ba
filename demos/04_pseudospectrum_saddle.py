#!/usr/bin/env python3
"""Pseudospectrum of the toy model and the separatrix between its poles.

For small eps the eps-pseudospectrum consists of separate islands around the
EP2 and the isolated state; at the critical level the isolines touch in a
saddle and for larger eps a single component prevails, mimicking an EP3.
The merge level c* = log10(eps*) is the saddle of sigma_min(E - H0) between
the poles: one union-find pass over the grid finds the pixel where the two
components join, and Newton on the gradient of sigma_min refines it.

Writes demo_output/pseudospectrum.csv (re, im, log10 ||G||_2).
"""

import os

from epsrs.experiments import fig4_grid

grid, c_star = fig4_grid(detuning=2e-3)

os.makedirs("demo_output", exist_ok=True)
path = os.path.join("demo_output", "pseudospectrum.csv")
grid.write_csv(path)
print(f"wrote {path} ({grid.values.shape[0]}x{grid.values.shape[1]} grid)")
print(f"resolvent norm spans 10^{grid.values.min():.1f} .. 10^{grid.values.max():.1f}")
print(f"separatrix level c* = {c_star:.4f}  (isolines merge at eps = 10^c*)")
print("below c*: two components (independent responses); above: one (EP3-like)")
