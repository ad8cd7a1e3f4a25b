#!/usr/bin/env python3
"""Pin the output sha256 of every workload for a range of seeds.

    python3 perfbench/pin.py --seeds 0-20
    python3 perfbench/pin.py --seeds 0-20 --smoke

Runs one untraced pass per (workload, seed), requires every output check
to pass, and records the outputs' sha256 in perfbench/pins.json. Run it
only at a commit whose outputs are known good, or after a deliberate
change of output bytes, in the change that makes it.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

import checks
from run import ROOT, Run, WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-20")
    parser.add_argument("--smoke", action="store_true", help="pin the tiny smoke sizes")
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    sys.path.insert(0, str(ROOT / "src"))

    pins = checks.load_pins()
    for wl in WORKLOADS.values():
        for seed in range(first, last + 1):
            run = Run(wl, seed, args.smoke, time.monotonic() + 170, pins={})
            try:
                run.prepare()
                run.run_pass(traced=False)
            finally:
                run.cleanup()
            if run.failed:
                print(f"{wl.name} seed {seed}: {run.problems}", file=sys.stderr)
                return 1
            pins[checks.pin_key(wl.name, args.smoke, seed)] = run.reference
            print(f"pinned {checks.pin_key(wl.name, args.smoke, seed)}")
    checks.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n",
                                encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
