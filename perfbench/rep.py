"""One repetition of one workload, in a fresh interpreter.

Run by ``run.py``; prints the repetition's figures as one JSON line.
Exits 2 without output when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--gate", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    sys.path.insert(0, SRC)
    try:
        import workloads
    except ImportError as exc:
        print(f"cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    try:
        out = workloads.REPS[args.workload](
            args.seed, bool(args.trace), bool(args.gate), ROOT
        )
    except Exception as exc:  # a raise is a failed operation, not a crash
        traceback.print_exc()
        out = {"error": repr(exc)}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
