#!/usr/bin/env python3
"""Selftest for tools/bench_compare.py (wired as ctest
bench.compare_selftest).

Exercises the gate end to end on synthetic bench JSON: identical
dirs pass, a deliberately perturbed accuracy metric fails with a
readable REGRESSED row, timing metrics stay informational, dropped
metrics fail, quick-flag mismatches fail, and thresholds overrides
can un-gate or re-direct any metric.
"""

from __future__ import annotations

import copy
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench_compare  # noqa: E402


def make_doc(name: str, metrics: dict, quick: bool = True) -> dict:
    return {
        "schema": "lookhd-bench-v3",
        "name": name,
        "git_rev": "selftest",
        "quick": quick,
        "config": {},
        "metrics": metrics,
        "registry": {"counters": {}, "gauges": {}, "latency": {},
                     "labels": {}},
        "span_rollup": [],
        "quality": {"margins": {}, "confusion": {}},
    }


BASE_DOCS = [
    make_doc("fig04_quant_accuracy", {
        "accuracy_equalized_q4": 0.90,
        "accuracy_linear_q4": 0.55,
    }),
    make_doc("fig02_breakdown", {
        "FACE.infer_search_frac": 0.42,
    }),
]


def write_dir(root: Path, label: str, docs: list[dict]) -> Path:
    d = root / label
    d.mkdir(parents=True, exist_ok=True)
    for doc in docs:
        (d / f"BENCH_{doc['name']}.json").write_text(
            json.dumps(doc), encoding="utf-8")
    return d


def run(base: Path, cand: Path, extra: list[str] = ()) -> tuple[int,
                                                                str]:
    """main() exit code + captured markdown."""
    import io
    from contextlib import redirect_stdout
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = bench_compare.main([str(base), str(cand), *extra])
    return rc, buf.getvalue()


def main() -> int:
    failures = []

    def check(cond: bool, what: str) -> None:
        (print(f"ok: {what}") if cond else failures.append(what))
        if not cond:
            print(f"FAIL: {what}")

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        base = write_dir(root, "base", BASE_DOCS)

        # 1. Identical dirs pass.
        same = write_dir(root, "same", copy.deepcopy(BASE_DOCS))
        rc, md = run(base, same)
        check(rc == 0 and "VERDICT: PASS" in md,
              "identical dirs pass the gate")

        # 2. Perturbed accuracy regresses and fails, readably.
        docs = copy.deepcopy(BASE_DOCS)
        docs[0]["metrics"]["accuracy_equalized_q4"] = 0.70
        rc, md = run(base, write_dir(root, "worse", docs))
        check(rc == 1, "perturbed accuracy exits non-zero")
        check("REGRESSED" in md and "accuracy_equalized_q4" in md,
              "regression names the perturbed metric")
        check("VERDICT: FAIL" in md, "markdown leads with the verdict")

        # 3. Accuracy improvement does not fail.
        docs = copy.deepcopy(BASE_DOCS)
        docs[0]["metrics"]["accuracy_linear_q4"] = 0.80
        rc, md = run(base, write_dir(root, "better", docs))
        check(rc == 0 and "IMPROVED" in md,
              "improvement passes and is labeled IMPROVED")

        # 4. Timing-flavoured metrics are informational.
        docs = copy.deepcopy(BASE_DOCS)
        docs[1]["metrics"]["FACE.infer_search_frac"] = 0.80
        rc, md = run(base, write_dir(root, "slower", docs))
        check(rc == 0 and "INFO" in md,
              "timing drift stays informational")

        # 5. A dropped metric fails the gate.
        docs = copy.deepcopy(BASE_DOCS)
        del docs[0]["metrics"]["accuracy_equalized_q4"]
        rc, md = run(base, write_dir(root, "dropped", docs))
        check(rc == 1 and "MISSING" in md, "dropped metric fails")

        # 6. Quick-flag mismatch fails.
        docs = copy.deepcopy(BASE_DOCS)
        docs[0]["quick"] = False
        rc, md = run(base, write_dir(root, "fullscale", docs))
        check(rc == 1 and "SCALE-MISMATCH" in md,
              "quick-flag mismatch fails")

        # 7. Thresholds can un-gate a metric.
        thresholds = root / "thresholds.json"
        thresholds.write_text(json.dumps(
            {"fig04_quant_accuracy.accuracy_*": {"gate": False}}),
            encoding="utf-8")
        docs = copy.deepcopy(BASE_DOCS)
        docs[0]["metrics"]["accuracy_equalized_q4"] = 0.50
        rc, md = run(base, write_dir(root, "ungated", docs),
                     ["--thresholds", str(thresholds)])
        check(rc == 0, "thresholds override un-gates the metric")

        # 8. Widened tolerance absorbs small drift.
        thresholds.write_text(json.dumps(
            {"*.accuracy_*": {"rel_tol": 0.5}}), encoding="utf-8")
        rc, md = run(base, write_dir(root, "tolerant", docs),
                     ["--thresholds", str(thresholds)])
        check(rc == 0, "wide rel_tol absorbs the drift")

        # 9. --md-out writes the same table.
        md_file = root / "report.md"
        rc, md = run(base, same, ["--md-out", str(md_file)])
        check(md_file.read_text(encoding="utf-8") in md + "\n",
              "--md-out mirrors stdout")

    if failures:
        print(f"test_bench_compare: {len(failures)} failure(s)")
        return 1
    print("test_bench_compare: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
