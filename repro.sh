#!/bin/sh
# Regenerate everything: build, run the full test suite, run every
# table/figure bench, and leave the transcripts at the repo root
# (test_output.txt, bench_output.txt) referenced by EXPERIMENTS.md.
set -e

cmake -B build -G Ninja
cmake --build build

ctest --test-dir build 2>&1 | tee test_output.txt

: > bench_output.txt
mkdir -p build/bench_json
rev=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
for b in build/bench/bench_*; do
    case "$b" in *.json) continue ;; esac
    echo "##### $(basename "$b")" | tee -a bench_output.txt
    case "$b" in
        # google-benchmark binary: rejects the reporter flags
        */bench_cpu_kernels)
            "$b" 2>&1 | tee -a bench_output.txt ;;
        *)
            "$b" --out-dir build/bench_json --git-rev "$rev" 2>&1 |
                tee -a bench_output.txt ;;
    esac
done
python3 tools/validate_bench_json.py build/bench_json

# Regression check against the committed baselines. The baselines
# are pinned --quick runs, so re-run the baselined benches at the
# same scale into their own directory (the full-scale outputs above
# would trip the quick-flag mismatch detection by design). Every
# pinned baseline is re-run: one left out reports MISSING and fails.
mkdir -p build/bench_json_quick
for f in bench/baselines/BENCH_*.json; do
    name=$(basename "$f" .json)
    build/bench/bench_${name#BENCH_} --quick \
        --out-dir build/bench_json_quick --git-rev "$rev" > /dev/null
done
python3 tools/bench_compare.py bench/baselines build/bench_json_quick \
    --thresholds bench/baselines/thresholds.json \
    --md-out bench_regression.md

echo "done: test_output.txt, bench_output.txt," \
     "bench_regression.md, build/bench_json/BENCH_*.json"
