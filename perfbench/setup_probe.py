"""Time a fresh interpreter's set-up for one workload and print the seconds.

Set-up is importing `sitcarpet.cli` and `sitcarpet.verify` and building the
workload's scenarios:

    python3 perfbench/setup_probe.py presets
"""

import sys
import time
from pathlib import Path


def main() -> None:
    t0 = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import sitcarpet.cli  # noqa: F401
    import sitcarpet.verify  # noqa: F401
    from workloads import WORKLOADS

    WORKLOADS[sys.argv[1]].build_scenarios()
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
