"""Tests of the benchmark harness itself.

Not collected by the repository's own test run (the name does not match
``test_*.py``); run them with::

    python3 -m pytest perfbench/selftest.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gen
from stats import beyond, nearest_rank, quartiles, self_times, spread, tail, verdict
from tracer import OFF, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("retrieve-scan", "retrieve-gated", "synth", "ingest")


# ---------------------------------------------------------------------------
# percentiles


def test_nearest_rank_picks_a_sample_at_the_rank():
    values = list(range(20, 0, -1))  # 1..20, unsorted
    assert nearest_rank(values, 0.5) == 10
    assert nearest_rank(values, 0.95) == 19
    assert nearest_rank(values, 1.0) == 20
    assert nearest_rank(values, 0.01) == 1
    assert nearest_rank([7.5], 0.5) == 7.5


def test_nearest_rank_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        nearest_rank([], 0.5)
    with pytest.raises(ValueError):
        nearest_rank([1, 2], 0.0)


def test_tail_needs_ten_samples_beyond_it():
    assert beyond(200, 0.95) == 10
    assert beyond(199, 0.95) == 9
    assert tail(list(range(199)), 0.95) is None
    assert tail(list(range(200)), 0.95) == 189


def test_quartiles_match_the_statistics_module_and_spread_is_relative():
    values = [10.0, 12.0, 11.0, 13.0, 9.0]
    q1, med, q3 = quartiles(values)
    assert med == 11.0
    assert spread(values) == pytest.approx((q3 - q1) / 11.0)
    assert quartiles([4.0]) == (4.0, 4.0, 4.0)
    assert spread([0.0, 0.0]) == 0.0


# ---------------------------------------------------------------------------
# spans and self time


def test_self_time_subtracts_merged_children_clipped_to_the_parent():
    spans = [
        (0, None, "op", 0, 100),
        (1, 0, "a", 10, 30),
        (2, 0, "b", 20, 50),  # overlaps a: 10..50 is covered once
        (3, 0, "c", 90, 120),  # runs past the parent: only 90..100 counts
        (4, 1, "a.inner", 12, 28),  # grandchild: reduces a, not op
    ]
    own = self_times(spans)
    assert own[0] == 100 - 40 - 10
    assert own[1] == 20 - 16
    assert own[2] == 30
    assert own[3] == 30
    assert own[4] == 16


def test_tracer_nests_spans_and_reports_self_time():
    tr = Tracer()
    tr.op = 7
    with tr.span("outer") as outer:
        with tr.span("inner") as inner:
            sum(range(20000))
        sum(range(20000))
    (sid_in, parent_in, name_in, op_in, _, _), (sid_out, parent_out, _, _, _, _) = tr.spans
    assert (name_in, parent_in, op_in, parent_out) == ("inner", sid_out, 7, None)
    assert tr.durations("outer") == [outer.ns]
    summary = tr.summary()
    assert summary["outer"]["self_median_ms"] == pytest.approx((outer.ns - inner.ns) / 1e6)
    assert summary["inner"]["self_median_ms"] == summary["inner"]["median_ms"]


def test_off_tracer_records_nothing():
    with OFF.span("anything") as span:
        pass
    assert span is None


# ---------------------------------------------------------------------------
# compare verdicts

PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]


def test_verdict_improved_when_the_change_wins_nine_tenths_beyond_the_spread():
    change = [v * 0.8 for v in PARENT]
    assert verdict(PARENT, change, "lower", 0.1) == ("improved", 1.0)


def test_verdict_regressed_beyond_the_bound():
    change = [v * 1.2 for v in PARENT]
    assert verdict(PARENT, change, "lower", 0.1) == ("regressed", 0.0)
    assert verdict(PARENT, change, "higher", 0.1)[0] == "improved"


def test_verdict_unchanged_within_the_bound():
    change = [v * 1.003 for v in reversed(PARENT)]
    result, share = verdict(PARENT, change, "lower", 0.1)
    assert result == "unchanged"
    assert 0.0 < share < 0.9


def test_verdict_unresolved_when_the_spread_is_wider_than_the_bound():
    wide = [60.0, 140.0, 80.0, 120.0, 100.0, 90.0, 110.0, 70.0, 130.0, 100.0]
    change = [v + 5.0 for v in reversed(wide)]
    assert verdict(wide, change, "lower", 0.1)[0] == "unresolved"
    # every change run worse than every parent run: a regression despite the spread
    assert verdict(wide, [v + 200.0 for v in wide], "lower", 0.1)[0] == "regressed"


def test_verdict_counts_any_error_as_a_regression():
    assert verdict([0.0] * 10, [0.0] * 4 + [0.01] * 6, "lower", 0.0)[0] == "regressed"
    assert verdict([0.0] * 10, [0.0] * 10, "lower", 0.0)[0] == "unchanged"


# ---------------------------------------------------------------------------
# inputs


def test_inputs_depend_only_on_the_seed(tmp_path):
    digests = []
    for n, seed in enumerate((3, 3, 4)):
        manifest = gen.prepare("ingest", seed, tmp_path / str(n))
        digests.append(gen.digest(tmp_path / str(n))[0])
        expected = manifest["expected"]
        assert len(expected["all"]) == len(manifest["queries"])
        assert all(ids for level in expected.values() for ids in level)
    assert digests[0] == digests[1] != digests[2]


def test_oracle_breaks_ties_to_the_lowest_row():
    vectors = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0]], dtype=np.float32)
    rows = np.arange(4)
    assert gen.oracle(vectors, rows, vectors[:1])[0] == [0, 2, 3]
    assert gen.oracle(vectors, rows[1:], vectors[:1])[0] == [2, 3]


# ---------------------------------------------------------------------------
# whole runs


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_of_all_four_workloads(trace):
    proc = _run(["--workload", "all", "--seconds", "1", "--seed", "5", "--trace", trace])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if trace == "1" else "end_to_end"
    for workload in WORKLOADS:
        assert set(result["metrics"][workload]) == {m["name"] for m in spec[kind]}
    for name in ("setup_s", "latency_p50_ms", "latency_p95_ms", "error_rate", "rtf_p50", "peak_rss_mb"):
        assert name in proc.stdout


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "synth", "--seconds", "1", "--seed", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
