"""Time what every `pitlab run` pays before it starts stepping, in a fresh process.

Usage: python3 perfbench/setup_probe.py <workload> '<inputs as JSON>'

Prints one JSON line: the seconds from before `import pitlab` until the
workload's config, problem, initial condition and collocation table are
built, plus a fingerprint of the built input for the caller to check.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

start = time.perf_counter()
import pitlab  # noqa: E402,F401
from workloads import WORKLOADS, fingerprint  # noqa: E402

built = WORKLOADS[sys.argv[1]].build(json.loads(sys.argv[2]))
elapsed = time.perf_counter() - start
print(json.dumps({"setup_s": elapsed, "fingerprint": fingerprint(built)}))
