"""Run one `mdtk` command with the benchmark's tracing wrappers installed.

    python3 cli_shim.py SUMMARY -- ARGS...

Times the import of the package, installs the wrappers, calls
`mdtk.catalog_cli.main(ARGS)` and writes the per-layer totals and spans to
the JSON file SUMMARY.  The exit code is the command's.
"""

from __future__ import annotations

import json
import sys
import time

from tracing import Tracer


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[3:]
    t0 = time.perf_counter()
    import mdtk.catalog_cli as cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    tracer.item = 0
    tracer.active = True
    try:
        rc = cli.main(argv)
    finally:
        tracer.active = False
        totals, rows = tracer.summary()
        totals["catalog_cli.import_s"] = import_s
        with open(summary_path, "w") as fh:
            json.dump({"totals": totals, "spans": rows}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
