"""Record the outputs perfbench compares against when run with --seed 0.

    python3 perfbench/record_reference.py [WORKLOAD...]

Run it from the root of a poolmax checkout.  It overwrites
perfbench/reference/<workload>.json with this checkout's outputs on the
reference seed, so re-record only for a change of output that is intended
and explained.  Takes about three minutes, most of it on sweep-a1 and
var-rolling.
"""

import json
import sys

import run

if __name__ == "__main__":
    env = run.configure_environment()
    import workloads

    for name in sys.argv[1:] or run.WORKLOAD_NAMES:
        wl = workloads.WORKLOADS[name](workloads.REFERENCE_SEED, run.OUT, env,
                                       check_reference=False)
        wl.make_inputs()
        with open(workloads.REFERENCE_DIR / f"{name}.json", "w") as f:
            json.dump(wl.record_reference(), f, indent=1)
            f.write("\n")
        print(f"recorded {name}")
