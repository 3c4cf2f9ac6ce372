#!/bin/sh
# Run the micro_simspeed benchmark suite and record the results as
# JSON at the repo root (BENCH_simspeed.json), so successive commits
# can be compared with tools/compare.py from google-benchmark or
# plain jq. The JSON context records the git commit and the build
# type measured (git_sha, build_type).
#
# Usage: bench/run_bench.sh [build-dir] [extra benchmark args...]
#   bench/run_bench.sh                 # uses ./build-release, building
#                                      # it with the release preset
#                                      # (-O3, LTO) when missing
#   bench/run_bench.sh build-release --benchmark_filter=TimingSim
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
default_dir="$repo_root/build-release"
build_dir=${1:-"$default_dir"}
[ $# -gt 0 ] && shift

bin="$build_dir/bench/micro_simspeed"
if [ ! -x "$bin" ] && [ "$build_dir" = "$default_dir" ]; then
    (cd "$repo_root" &&
        { [ -f "$build_dir/CMakeCache.txt" ] || cmake --preset release; } &&
        cmake --build "$build_dir" --target micro_simspeed)
fi
if [ ! -x "$bin" ]; then
    echo "error: $bin not built (cmake --build $build_dir --target micro_simspeed)" >&2
    exit 1
fi

git_sha=$(git -C "$repo_root" describe --always --dirty --abbrev=12 \
              2>/dev/null || echo unknown)
build_type=$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' \
                 "$build_dir/CMakeCache.txt" 2>/dev/null)

out="$repo_root/BENCH_simspeed.json"
"$bin" --benchmark_format=json \
       --benchmark_min_time=0.5 \
       --benchmark_out="$out" \
       --benchmark_out_format=json \
       --benchmark_context="git_sha=$git_sha,build_type=${build_type:-unknown}" \
       "$@"
echo "wrote $out"
