"""Output quadrature spectra of the three cavity fields.

Linearizing around the steady state gives an Ornstein-Uhlenbeck model whose
output spectra follow from one eigendecomposition of its drift per steady
state, as a sum of six poles at every frequency.  The interesting
structure lives within a few cavity linewidths of resonance: each mode shows
modest single-mode squeezing in one quadrature, and every spectrum respects
the uncertainty product and the omega -> -omega symmetry.
"""

import numpy as np

from harmoniccascade import (
    REGIME_PRESETS,
    DriftDiffusion,
    require_steady_state,
    spectrum_grid,
)

for regime, p in REGIME_PRESETS.items():
    ss = require_steady_state(p)
    dd = DriftDiffusion.from_steady_state(p, ss.state)
    spectra = spectrum_grid(p, dd)  # default grid: [-20, 20], 801 points
    S = spectra.s_quad              # one QuadCovariance over the grid

    print(f"regime {regime}")
    for mode in (1, 2, 3):
        vx, vy = S.variance("X", mode), S.variance("Y", mode)
        quad, v = ("X", vx) if vx.min() < vy.min() else ("Y", vy)
        w = spectra.omega[v.argmin()]
        print(f"  mode {mode}: best squeezing V({quad}_{mode}) = "
              f"{v.min():.6f} at omega = {w:+.2f}")

    print(f"  symmetry |V(omega) - V(-omega)| max: "
          f"{np.abs(S.matrix - S.matrix[::-1]).max():.2e}")
    print(f"  min V(X)V(Y) over grid: {S.uncertainty_products().min():.12f}")
    print()
