"""Semiclassical working points of the cascaded doubler.

Both built-in parameter sets drive the fundamental hard enough that a few
percent of the pump ends up two octaves up.  The steady state comes in closed
form from the algebraic system (one scalar root); it counts as stationary
because its drift residual sits at roundoff and every eigenvalue of the
drift matrix there has a positive real part.  The smallest real part is the
stability margin, the decay rate of the slowest fluctuation.
"""

import numpy as np

from harmoniccascade import REGIME_PRESETS, build_drift, require_steady_state

for regime, p in REGIME_PRESETS.items():
    ss = require_steady_state(p)
    a = ss.state.alpha
    print(f"regime {regime}: kappa1={p.kappa1}, kappa2={p.kappa2}, "
          f"pump={p.epsilon}")
    for mode in range(3):
        print(f"  alpha_{mode + 1} = {a[mode].real:+.6f} "
              f"(|alpha|^2 = {abs(a[mode]) ** 2:9.2f})")
    print(f"  drift residual {ss.residual:.2e}")

    eigenvalues = np.linalg.eigvals(build_drift(p, ss.state))
    # complex eigenvalues come in conjugate pairs; each pair is listed once
    shown = sorted(eigenvalues[eigenvalues.imag > -1e-9], key=lambda z: z.real)
    print("  drift eigenvalues: " + ", ".join(
        f"{lam.real:.4f} +/- {lam.imag:.4f}i" if lam.imag > 1e-9
        else f"{lam.real:.4f}" for lam in shown))
    print(f"  stability margin min Re lambda = {eigenvalues.real.min():.4f}")

    # the third mode is slaved to the second: two photons in, one out
    slaved = -0.5 * p.kappa2 * a[1] ** 2 / p.gamma3
    print(f"  alpha_3 from alpha_2^2: {slaved.real:+.6f} "
          f"(direct {a[2].real:+.6f})")
    print()
