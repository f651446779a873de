"""Re-record fingerprints.json: one untraced pass of every workload's
default seeds, written as the fingerprints later runs must match.

    python3 perfbench/record.py

Run it only for a change meant to alter simulated behaviour, and say in
that change which fingerprints moved and why.
"""

import json
import sys

from harness import FINGERPRINTS, WORKLOADS, Bench, SpeedProbe, import_manetsim


def main() -> int:
    ms, _ = import_manetsim(SpeedProbe())
    bench = Bench(ms, recorded={})
    out = {}
    for name, workload in WORKLOADS.items():
        result = bench.run_pass(workload, list(workload.default_seeds))
        for rec in result.runs:
            if rec.failures:
                print(f"{name} {rec.spec}: {rec.failures}", file=sys.stderr)
                return 1
        out[name] = {rec.spec.key: rec.fingerprint for rec in result.runs}
        print(f"{name}: {len(result.runs)} runs", flush=True)
    FINGERPRINTS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
