#!/usr/bin/env python3
"""Where a simulation spends host time, by pipeline stage.

Runs a command with the hostprof sampling library preloaded (see
tools/hostprof.cpp), resolves every sampled address with
``addr2line -f -i -C``, and prints the share of samples in each stage
of the cycle loop (fetch+bpred, dispatch, issue, commit) and of
trace set-up (building, mapping or verifying the input trace),
and the innermost functions the samples land in, inlined ones
included.

A sample belongs to the innermost frame, inlined or called, that is
one of the stage functions of ``uarch::Pipeline`` (STAGES below); a
helper called out of line from ``doDispatch`` counts as dispatch.
Samples outside all of these (process start-up and exit, the loop's
own bookkeeping) count as "other".

Profile a build with debug information: the default (RelWithDebInfo)
build, or the ``release`` preset, whose ``-g`` adds debug information
to the benchmarked code without changing it. The library samples the
main thread, so give a sweep ``--jobs 1``::

    cmake --preset release && cmake --build build-release -j2
    python3 tools/hostprof.py --lib build-release/tools/libhostprof.so \\
        -- build-release/tools/cesp-sim --sweep --jobs 1

Exit status: the command's when it fails, 1 when no sample was taken
or the named stages hold less than ``--min-stage-share`` of them,
else 0.
"""

import argparse
import collections
import glob
import os
import re
import subprocess
import sys
import tempfile

# (stage, pattern over a demangled function name), innermost first.
STAGES = [
    ("fetch+bpred", re.compile(r"\bPipeline::doFetch\b")),
    ("dispatch", re.compile(r"\bPipeline::doDispatch\b")),
    ("issue", re.compile(
        r"\bPipeline::(doIssue|doIssueEvent|doIssueScan|tryIssueOne|"
        r"issueReady|completeIssue|drainWakeups)\b")),
    ("commit", re.compile(r"\bPipeline::doCommit\b")),
    ("trace set-up", re.compile(
        r"\b(trace::generateSynthetic|core::cachedWorkloadTraceView|"
        r"trace::MmapTraceSource::open)\b")),
]
STAGE_NAMES = [name for name, _ in STAGES]
TOP = 15  # innermost functions listed


def parse_profile(path):
    """Return (sampling period in us, maps lines, samples) of one
    hostprof output file."""
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines or lines[0] != "hostprof 1":
        raise ValueError(f"{path}: not a hostprof file")
    period_us = int(lines[1].split()[1])
    start = lines.index("maps") + 1
    end = lines.index("end", start)
    samples = [[int(a, 16) for a in line.split()]
               for line in lines[end + 1:] if line]
    return period_us, lines[start:end], samples


def parse_maps(lines):
    """File-backed executable mappings: (start, end, offset, path)."""
    maps = []
    for line in lines:
        parts = line.split(None, 5)
        if len(parts) < 6 or not parts[5].startswith("/"):
            continue
        lo, hi = (int(x, 16) for x in parts[0].split("-"))
        maps.append((lo, hi, int(parts[2], 16), parts[5].strip()))
    return maps


def load_bias(maps, path):
    """What to subtract from a runtime address in @p path to get the
    address addr2line expects: 0 for a fixed-address executable, the
    load base for a position-independent object."""
    with open(path, "rb") as f:
        header = f.read(18)
    if header[:4] != b"\x7fELF" or int.from_bytes(header[16:18], "little") != 3:
        return 0  # ET_EXEC (or unreadable): addresses are absolute
    return min(lo - off for lo, _, off, p in maps if p == path)


def resolve(module, addrs):
    """addr -> list of (function, location), innermost inline first."""
    if not addrs:
        return {}
    text = "".join(f"{a:x}\n" for a in addrs)
    out = subprocess.run(
        ["addr2line", "-a", "-f", "-i", "-C", "-e", module],
        input=text, capture_output=True, text=True, check=False).stdout
    result, current, lines = {}, None, out.splitlines()
    i = 0
    while i < len(lines):
        if lines[i].startswith("0x"):
            current = int(lines[i], 16)
            result[current] = []
            i += 1
            continue
        func = lines[i]
        loc = lines[i + 1] if i + 1 < len(lines) else "??"
        result[current].append((func, loc))
        i += 2
    return result


def stage_of(frames):
    for func, _ in frames:
        for name, pattern in STAGES:
            if pattern.search(func):
                return name
    return "other"


def short(func, width=90):
    return func if len(func) <= width else func[:width - 3] + "..."


def attribute(files, inclusive):
    """Sampling period, and per-stage, per-innermost-function and
    per-@p inclusive-pattern sample counts."""
    period_us = None
    stages = collections.Counter()
    inner = collections.Counter()
    inner_stage = {}
    matched = collections.Counter()
    for path in files:
        period_us, map_lines, samples = parse_profile(path)
        maps = parse_maps(map_lines)
        # Return addresses point after their call: resolve the call.
        module_of = {}
        keyed = []
        for sample in samples:
            keys = []
            for depth, addr in enumerate(sample):
                query = addr if depth == 0 else addr - 1
                if query not in module_of:
                    module_of[query] = next(
                        (m[3] for m in maps if m[0] <= query < m[1]), None)
                module = module_of[query]
                keys.append((module, query) if module else None)
            keyed.append(keys)
        wanted = collections.defaultdict(set)
        for query, module in module_of.items():
            if module:
                wanted[module].add(query)
        frames_of = {}
        for module, addrs in wanted.items():
            bias = load_bias(maps, module)
            table = resolve(module, sorted(a - bias for a in addrs))
            for a in addrs:
                frames_of[(module, a)] = table.get(a - bias, [])
        for keys in keyed:
            frames = []
            for key in keys:
                frames += frames_of.get(key, []) if key else []
            stage = stage_of(frames)
            stages[stage] += 1
            func = frames[0][0] if frames else "??"
            inner[func] += 1
            inner_stage.setdefault(func, stage)
            for pattern in inclusive:
                if any(pattern.search(f) for f, _ in frames):
                    matched[pattern.pattern] += 1
    return period_us, stages, inner, inner_stage, matched


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--lib", required=True,
                    help="path to libhostprof.so")
    ap.add_argument("--min-stage-share", type=float, default=0.0,
                    help="fail unless the named stages hold at least "
                         "this fraction of the samples")
    ap.add_argument("--inclusive", action="append", default=[],
                    metavar="REGEX",
                    help="also print the share of samples with a frame, "
                         "at any depth, whose function matches REGEX "
                         "(repeatable)")
    ap.add_argument("command", nargs=argparse.REMAINDER,
                    help="-- command and arguments to profile")
    args = ap.parse_args()
    cmd = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not cmd:
        ap.error("no command to profile")

    with tempfile.TemporaryDirectory(prefix="hostprof.") as tmp:
        env = dict(os.environ)
        env["LD_PRELOAD"] = " ".join(
            filter(None, [os.path.abspath(args.lib),
                          env.get("LD_PRELOAD", "")]))
        env["HOSTPROF_OUT"] = os.path.join(tmp, "prof")
        status = subprocess.run(cmd, env=env, stdout=sys.stderr,
                                check=False).returncode
        if status != 0:
            print(f"hostprof: command exited {status}", file=sys.stderr)
            return status
        files = glob.glob(os.path.join(tmp, "prof.*"))
        inclusive = [re.compile(r) for r in args.inclusive]
        period_us, stages, inner, inner_stage, matched = attribute(
            files, inclusive)

    total = sum(stages.values())
    if total == 0:
        print("hostprof: no samples", file=sys.stderr)
        return 1
    named = total - stages["other"]
    print(f"{total} samples every {period_us} us")
    print(f"{'stage':<14}{'samples':>9}{'share':>8}")
    for name in STAGE_NAMES + ["other"]:
        print(f"{name:<14}{stages[name]:>9}{stages[name] / total:>8.1%}")
    print(f"\ntop {TOP} innermost functions")
    print(f"{'share':>7}  {'stage':<12}function")
    for func, n in inner.most_common(TOP):
        print(f"{n / total:>7.1%}  {inner_stage[func]:<12}{short(func)}")
    if inclusive:
        print("\ninclusive shares")
        for pattern in inclusive:
            print(f"{matched[pattern.pattern] / total:>7.1%}  "
                  f"{pattern.pattern}")
    if named / total < args.min_stage_share:
        print(f"hostprof: named stages hold {named / total:.1%} of "
              f"samples, under {args.min_stage_share:.0%}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
