#!/usr/bin/env python3
"""Byte-exact stdout check for an example program.

Runs a binary with its arguments and compares what it prints on stdout
with a committed golden file; a mismatch prints a unified diff and fails.
Set ERAPID_REGEN_GOLDEN=1 to rewrite the golden from the current output.
Run by CTest as:

    test_stdout_golden.py <golden-file> <binary> [args...]
"""

import difflib
import os
import subprocess
import sys
from pathlib import Path


def fail(msg):
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    if len(sys.argv) < 3:
        fail(f"usage: {sys.argv[0]} <golden-file> <binary> [args...]")
    golden, cmd = Path(sys.argv[1]), sys.argv[2:]

    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        fail(f"{' '.join(cmd)} exited {proc.returncode}\nstderr:\n{proc.stderr}")

    if os.environ.get("ERAPID_REGEN_GOLDEN") == "1":
        golden.write_text(proc.stdout)
        print(f"regenerated {golden}")
        return
    expected = golden.read_text()
    if proc.stdout != expected:
        diff = difflib.unified_diff(
            expected.splitlines(keepends=True),
            proc.stdout.splitlines(keepends=True),
            fromfile=str(golden),
            tofile="stdout",
        )
        sys.stderr.writelines(diff)
        fail(f"stdout of {' '.join(cmd)} differs from {golden}")
    print(f"OK: stdout matches {golden.name}")


if __name__ == "__main__":
    main()
