"""Record the reference output of every request the benchmark can draw.

    python3 perfbench/record_reference.py [--scale full|tiny ...]

Writes ``reference.json`` next to this file.  Run it only when a change is
meant to move the engine's outputs, and say so in the change.
"""
import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import argparse  # noqa: E402
import json  # noqa: E402
import warnings  # noqa: E402

from workloads import REFERENCE_FILE, SIZES, WORKLOADS, ref_key  # noqa: E402


def main(argv=None):
    ap = argparse.ArgumentParser(description="record benchmark reference outputs")
    ap.add_argument("--scale", nargs="+", choices=tuple(SIZES), default=list(SIZES))
    args = ap.parse_args(argv)
    refs = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.exists() else {}
    for scale in args.scale:
        refs[scale] = {}
        for name, workload in WORKLOADS.items():
            sizes = SIZES[scale][name]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                refs[scale][name] = {
                    ref_key(key): workload.run(key, sizes) for key in workload.space()
                }
            print(f"{scale} {name}: {len(refs[scale][name])} requests", flush=True)
    REFERENCE_FILE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
