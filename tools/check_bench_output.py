#!/usr/bin/env python3
"""Run a bench and check that its output equals a committed reference.

Usage:
    check_bench_output.py <reference> [--json FILE] [--ignore-key KEY]... -- <command...>

Runs <command> (with the caller's environment, so VNFR_BENCH_QUICK and
VNFR_THREADS pass through) and requires a zero exit status. Then:

  * without --json, the command's stdout must equal <reference> byte for
    byte;
  * with --json FILE, the JSON document the command wrote to FILE must
    equal the one in <reference> after every object key named by
    --ignore-key is dropped at any depth (for example a wall-clock time).

Regenerate a reference by running the command and copying its output over
the committed file. Exit status: 0 when equal, 1 otherwise; a mismatch
prints the first differing line or JSON path.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path


def strip_keys(value, ignored: set[str]):
    if isinstance(value, dict):
        return {k: strip_keys(v, ignored) for k, v in value.items() if k not in ignored}
    if isinstance(value, list):
        return [strip_keys(v, ignored) for v in value]
    return value


def first_json_difference(got, want, path: str = "$") -> str | None:
    if type(got) is not type(want):
        return f"{path}: {got!r} != {want!r}"
    if isinstance(got, dict):
        for key in sorted(set(got) | set(want)):
            if key not in got or key not in want:
                return f"{path}.{key}: present on one side only"
            found = first_json_difference(got[key], want[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(got, list):
        if len(got) != len(want):
            return f"{path}: {len(got)} items != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            found = first_json_difference(g, w, f"{path}[{i}]")
            if found:
                return found
        return None
    return None if got == want else f"{path}: {got!r} != {want!r}"


def first_line_difference(got: str, want: str) -> str:
    got_lines, want_lines = got.splitlines(), want.splitlines()
    for n, (g, w) in enumerate(zip(got_lines, want_lines), start=1):
        if g != w:
            return f"line {n}:\n  got:  {g!r}\n  want: {w!r}"
    return f"{len(got_lines)} lines != {len(want_lines)} lines"


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 1
    split = argv.index("--")
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("reference", type=Path)
    parser.add_argument("--json", type=Path)
    parser.add_argument("--ignore-key", action="append", default=[])
    args = parser.parse_args(argv[:split])
    command = argv[split + 1 :]
    if not command:
        print("no command given after --", file=sys.stderr)
        return 1

    run = subprocess.run(command, stdout=subprocess.PIPE, check=False)
    if run.returncode != 0:
        print(f"FAIL: {command[0]} exited with {run.returncode}", file=sys.stderr)
        return 1

    if args.json is None:
        got, want = run.stdout.decode(), args.reference.read_text()
        if got != want:
            print(f"FAIL: stdout differs from {args.reference}, "
                  f"{first_line_difference(got, want)}", file=sys.stderr)
            return 1
    else:
        ignored = set(args.ignore_key)
        got = strip_keys(json.loads(args.json.read_text()), ignored)
        want = strip_keys(json.loads(args.reference.read_text()), ignored)
        found = first_json_difference(got, want)
        if found:
            print(f"FAIL: {args.json} differs from {args.reference} at {found}",
                  file=sys.stderr)
            return 1
    print(f"OK: output equals {args.reference}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
