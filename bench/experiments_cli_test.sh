#!/bin/sh
# CLI contract of the experiments runner: usage errors exit 2, and an
# experiment's `--json -` export is the JSON document alone, which
# loads back through cesp-sim --compare.
#
#   experiments_cli_test.sh EXPERIMENTS CESP_SIM
exp=$1
sim=$2

expect_usage() {
    "$exp" "$@" >/dev/null 2>&1
    status=$?
    if [ "$status" -ne 2 ]; then
        echo "experiments $*: exit $status, expected 2" >&2
        exit 1
    fi
}

expect_usage no_such_experiment
expect_usage abl_window_compaction --json
expect_usage fig13_dependence_ipc abl_window_compaction --json exp.json

# Through stdout, so any human output ahead of the document breaks
# the --compare load.
"$exp" abl_window_compaction --json - >exp.json || exit 1
"$sim" --compare exp.json exp.json
