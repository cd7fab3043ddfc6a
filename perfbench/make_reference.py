"""Write the regression references the correctness gates compare against.

    python3 perfbench/make_reference.py

The files under perfbench/reference/ were written by this script on the
commit that introduced the benchmark and define "same numbers" for later
changes.  Rewriting them on a later commit discards that baseline, so do it
only when a change to the outputs has been shown correct by other means and
is recorded as such.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import shutil
import sys

from run import OUT, cap_threads, import_package


def main() -> int:
    cap_threads()
    import_package()
    from harmoniccascade import cli
    from tracing import NullTracer
    from workloads import (PRESET_PUMP, REFERENCE, CliModes, analyse_point,
                           summary_to_dict)

    summaries = {str(regime): summary_to_dict(
                     analyse_point(regime, PRESET_PUMP, NullTracer())[2])
                 for regime in (1, 2)}
    (REFERENCE / "cli").mkdir(parents=True, exist_ok=True)
    (REFERENCE / "pump105.json").write_text(json.dumps(summaries, indent=1) + "\n")

    tmp = OUT / "reference-tmp"
    modes = CliModes(seed=0, minimal=True, tmp=tmp)
    try:
        for mode in modes.modes:
            if mode == "stochastic":  # seed-dependent; checked against the library
                continue
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(modes.argv(mode, tmp / mode)) != 0:
                    raise SystemExit(f"{mode} mode failed")
        for path in sorted(tmp.glob("*/*.csv")):
            target = REFERENCE / "cli" / f"{path.parent.name}__{path.name}.gz"
            target.write_bytes(gzip.compress(path.read_bytes(), mtime=0))
            print(target.relative_to(REFERENCE.parent.parent))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
