"""Print every full-size output of the deterministic benchmark workloads.

    OPENBLAS_NUM_THREADS=1 python3 tools/output_hashes.py > hashes.txt

Runs each request key of ``xva_bermudan`` (32 keys), ``cva_fast`` (48 keys,
each with cva, delta and gamma) and ``bsde_european`` (24 keys) at the sizes
``perfbench/workloads.py`` gives for the full benchmark, and prints one line
per output, tab-separated: workload, key (as ``reference.json`` writes it),
output name and ``float.hex`` of the value.  Then it prints the sha256 of
each workload's lines.  Run it in two trees and ``diff`` the files to see
which outputs moved.
"""
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads  # noqa: E402

NAMES = ("xva_bermudan", "cva_fast", "bsde_european")


def main():
    digests = []
    for name in NAMES:
        work, sizes = workloads.WORKLOADS[name], workloads.SIZES["full"][name]
        lines = []
        for key in work.space():
            out = work.run(key, sizes)
            lines += [
                f"{name}\t{workloads.ref_key(key)}\t{field}\t{float(value).hex()}"
                for field, value in out.items()
            ]
        print("\n".join(lines), flush=True)
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        digests.append(f"sha256 {name} {len(lines)} {digest}")
    print("\n".join(digests))


if __name__ == "__main__":
    main()
