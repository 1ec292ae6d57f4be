"""Set-up probe: import wgconvect, build one workload's problem and meshes,
and print the monotonic clock at that moment.

run.py starts this script several times and takes, for each start, the time
from launching the process to the printed instant as one set-up sample.

    python3 perfbench/probe.py '<workload spec as JSON>'
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import cases  # noqa: E402  (imports wgconvect)

cases.setup(json.loads(sys.argv[1]))
print(repr(time.monotonic()))
