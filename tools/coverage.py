#!/usr/bin/env python3
"""Which lines of src/ a coverage build ran.

Reads every ``.gcda`` file under BUILD_DIR through ``gcov
--json-format --stdout`` and prints, for each file under the
repository's src/, the lines that ran out of the lines gcov counts as
code, then the total, then every line that never ran. A line counts
as run if any binary or any template instance ran it: gcov reports a
header once per object that includes it and a template once per
instance.

Build with the ``coverage`` preset (``-O1 -fno-inline``, so inlined
lines keep their own counts), run the tests, then read the counts::

    cmake --preset coverage && cmake --build build-coverage -j4
    (cd build-coverage && ctest -j4 -E golden_experiments)
    python3 tools/coverage.py build-coverage

golden_experiments is left out: an instrumented, atomically counted
``experiments`` does not finish all its specs in the test's timeout.
Counts add up across runs: delete the ``.gcda`` files (``find
build-coverage -name '*.gcda' -delete``) before a fresh measurement.

Exit status: 1 when BUILD_DIR holds no ``.gcda`` file or gcov fails,
else 0.
"""

import argparse
import json
import os
import re
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")
ABORT = re.compile(r"^\s*(panic|fatal)\(")


def gcov_documents(gcda):
    """The gcov JSON documents of one .gcda file: one per line."""
    gcda = os.path.abspath(gcda)
    out = subprocess.run(["gcov", "--json-format", "--stdout", gcda],
                         cwd=os.path.dirname(gcda), capture_output=True,
                         text=True)
    if out.returncode != 0:
        sys.exit(f"coverage.py: gcov failed on {gcda}:\n{out.stderr}")
    return [json.loads(line) for line in out.stdout.splitlines()
            if line.startswith("{")]


def merge(build_dir):
    """{src path: {line number: ran}} over every .gcda in build_dir."""
    lines = {}
    found = False
    for root, _, names in os.walk(build_dir):
        for name in sorted(names):
            if not name.endswith(".gcda"):
                continue
            found = True
            for doc in gcov_documents(os.path.join(root, name)):
                cwd = doc.get("current_working_directory", root)
                for f in doc["files"]:
                    path = os.path.realpath(os.path.join(cwd, f["file"]))
                    if not (path.startswith(SRC + os.sep) and f["lines"]):
                        continue
                    ran = lines.setdefault(path, {})
                    for ln in f["lines"]:
                        n = ln["line_number"]
                        ran[n] = ran.get(n, False) or ln["count"] > 0
    if not found:
        sys.exit(f"coverage.py: no .gcda file under {build_dir}")
    return lines


def main():
    ap = argparse.ArgumentParser(
        description="Executed/total src lines of a coverage build.")
    ap.add_argument("build_dir", help="a build tree of the coverage "
                    "preset whose tests have run")
    args = ap.parse_args()

    lines = merge(args.build_dir)
    repo = os.path.dirname(SRC)
    run_total = total = 0
    unrun = []
    print(f"{'run':>6} {'lines':>6} {'%':>6}  file")
    for path in sorted(lines):
        ran = lines[path]
        n_run = sum(ran.values())
        rel = os.path.relpath(path, repo)
        print(f"{n_run:6d} {len(ran):6d} {100.0 * n_run / len(ran):6.1f}"
              f"  {rel}")
        run_total += n_run
        total += len(ran)
        with open(path) as f:
            text = f.read().splitlines()
        for n in sorted(k for k, v in ran.items() if not v):
            unrun.append((rel, n, text[n - 1] if n <= len(text) else ""))
    print(f"{run_total:6d} {total:6d} "
          f"{100.0 * run_total / max(total, 1):6.1f}  total")
    aborts = sum(1 for _, _, src in unrun if ABORT.match(src))
    print(f"\n{len(unrun)} lines never ran ({aborts} begin a panic or "
          f"fatal call):")
    for rel, n, src in unrun:
        print(f"{rel}:{n}: {src.strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
