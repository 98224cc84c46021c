"""One workload's set-up in a fresh interpreter; `run.py` times the process.

    PYTHONPATH=src python3 perfbench/setup_probe.py WORKLOAD SEED TAG
"""

import signal
import sys
from pathlib import Path

signal.alarm(60)  # SIGALRM's default action ends a probe that hangs

from workloads import WORKLOADS  # noqa: E402

here = Path(__file__).resolve().parent
workload = WORKLOADS[sys.argv[1]]
workload.setup(workload.prepare(here.parent, here / ".work", sys.argv[3], int(sys.argv[2])))
