"""The quick demos run end to end and print their results.

Demo 04 is left out: it takes well over ten seconds.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["01_steady_states.py",
                                    "02_output_spectra.py",
                                    "03_correlation_criteria.py",
                                    "05_pulsing_threshold.py"])
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
