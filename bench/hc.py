"""The ``hybridconsensus`` command, run from this checkout's sources.

    python3 bench/hc.py run presets/example3.cfg --out out/

Does what the installed console script does, ``sys.exit(cli.main())``,
with the checkout's ``src`` first on ``sys.path``, so the code under test
is always the tree the benchmark sits in and never an installed copy.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    from hybridconsensus.cli import main

    sys.exit(main())
