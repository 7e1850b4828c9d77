#!/usr/bin/env python3
"""Counts production lines: the non-blank lines of each file before its
first `#[cfg(test)]`, the measure ROADMAP tracks for every change.

Usage: python3 ci/prod_lines.py PATH...

Prints one `<count> <path>` line per file, then `<total> total`.
"""

import sys


def prod_lines(path):
    count = 0
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip() == "#[cfg(test)]":
                break
            if line.strip():
                count += 1
    return count


def main(paths):
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    total = 0
    for path in paths:
        n = prod_lines(path)
        total += n
        print(f"{n:6} {path}")
    print(f"{total:6} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
