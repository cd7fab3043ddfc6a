"""Where the stationary state ends: the self-pulsing instability.

Pushing the pump up, a conjugate eigenvalue pair of the drift matrix crosses
into the left half plane and the stationary state gives way to a limit
cycle.  The stationary point is unique and known in closed form past the
crossing too, so a scan plus bisection on the eigenvalues locates it.  Just
above it, the steady-state solver refuses that point and names the critical
pair with its Hopf frequency; acceptance criterion 8 confirms the onset by
brute-force integration.
"""

from dataclasses import replace

import numpy as np

from harmoniccascade import (
    REGIME_PRESETS,
    NotStationary,
    build_drift,
    pulsing_threshold,
    require_steady_state,
)

for regime, p in REGIME_PRESETS.items():
    result = pulsing_threshold(p, (100.0, 3000.0))
    eps_c = result.eps_critical
    print(f"regime {regime}: stationary branch loses stability at "
          f"pump = {eps_c:.2f} (operating point {p.epsilon})")

    below = replace(p, epsilon=eps_c * 0.9)
    ss_branch = require_steady_state(below)
    eig = np.linalg.eigvals(build_drift(below, ss_branch.state))
    pair = eig[np.argmin(eig.real)]
    print(f"  at 0.9 eps_c the critical pair sits at "
          f"{pair.real:+.4f} +/- {abs(pair.imag):.4f}i, "
          f"linear period {2 * np.pi / abs(pair.imag):.3f}")

    try:
        require_steady_state(replace(p, epsilon=eps_c * 1.02))
        print("  unexpectedly stationary just above the crossing")
    except NotStationary as exc:
        print(f"  2% above: {exc}")
    print()
