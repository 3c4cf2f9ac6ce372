#!/bin/sh
# CLI contract of the experiments runner: usage errors exit 2, an
# experiment's `--json -` export is the JSON document alone, which
# loads back through cesp-sim --compare (and, given PYTHON, parses as
# standard JSON), Figure 12's chains hold, and specs run together
# print what each prints alone.
#
#   experiments_cli_test.sh EXPERIMENTS CESP_SIM [PYTHON]
exp=$1
sim=$2
py=$3

expect_usage() {
    "$exp" "$@" >/dev/null 2>&1
    status=$?
    if [ "$status" -ne 2 ]; then
        echo "experiments $*: exit $status, expected 2" >&2
        exit 1
    fi
}

# Through stdout, so any human output ahead of the document breaks
# the --compare load.
expect_export() {
    "$exp" "$1" --json - >exp.json || exit 1
    if ! "$sim" --compare exp.json exp.json >/dev/null; then
        echo "experiments $1 --json -: export does not load back" >&2
        exit 1
    fi
    if [ -n "$py" ] && ! "$py" -c \
        'import json, sys; json.load(open(sys.argv[1]))' exp.json; then
        echo "experiments $1 --json -: export is not JSON" >&2
        exit 1
    fi
}

expect_usage no_such_experiment
expect_usage abl_window_compaction --json
expect_usage fig13_dependence_ipc abl_window_compaction --json exp.json

expect_export abl_window_compaction
expect_export fig13_dependence_ipc

# The specs without a simulation grid take milliseconds each.
for name in fig3_rename_delay fig5_wakeup_window fig6_wakeup_feature \
            fig8_selection_delay fig12_steering_example \
            tab1_bypass_delay tab2_overall_delay tab4_reservation_table \
            abl_rename_cam abl_regfile_cache abl_transistors \
            complexity_report; do
    expect_export "$name"
done

"$exp" fig12_steering_example >fig12.txt || exit 1
if grep MISMATCH fig12.txt >&2; then
    echo "experiments fig12_steering_example: a chain split" >&2
    exit 1
fi

# The first two specs simulate the same two machines (the baseline
# and dep8x8) and are named out of README order; the third shares
# only the baseline. Each must still read its own block of the one
# run and print what it prints alone.
specs="abl_occupancy fig13_dependence_ipc fig15_clustered_ipc"
"$exp" $specs >together.txt || exit 1
for name in $specs; do
    echo "== $name =="
    "$exp" "$name" || exit 1
done >alone.txt || exit 1
if ! cmp -s alone.txt together.txt; then
    echo "experiments $specs: output differs from each spec run" \
         "alone" >&2
    diff alone.txt together.txt | head -n 20 >&2
    exit 1
fi
