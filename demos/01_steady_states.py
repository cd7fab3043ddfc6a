"""Semiclassical working points of the cascaded doubler.

Both built-in parameter sets drive the fundamental hard enough that a few
percent of the pump ends up two octaves up.  The steady state is found twice,
in closed form from the algebraic system (one scalar root, checked for
stability) and by relaxing the equations of motion from the vacuum, and the
two answers agree to solver precision.
"""

import numpy as np

from harmoniccascade import (
    REGIME_PRESETS,
    find_steady_state,
    require_steady_state,
)

for regime, p in REGIME_PRESETS.items():
    ss = require_steady_state(p)
    ode = find_steady_state(p)
    a = ss.state.alpha
    print(f"regime {regime}: kappa1={p.kappa1}, kappa2={p.kappa2}, "
          f"pump={p.epsilon}")
    for mode in range(3):
        print(f"  alpha_{mode + 1} = {a[mode].real:+.6f} "
              f"(|alpha|^2 = {abs(a[mode]) ** 2:9.2f})")
    print(f"  drift residual {ss.residual:.2e}, "
          f"route disagreement {np.abs(ss.state.doubled() - ode.state.doubled()).max():.2e}")

    # the third mode is slaved to the second: two photons in, one out
    slaved = -0.5 * p.kappa2 * a[1] ** 2 / p.gamma3
    print(f"  alpha_3 from alpha_2^2: {slaved.real:+.6f} "
          f"(direct {a[2].real:+.6f})")
    print()
