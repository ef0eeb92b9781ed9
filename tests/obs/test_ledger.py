"""The performance ledger: store, metric extraction, comparator, snapshot."""

import json
import math

import pytest

from repro.obs.ledger import (
    ENTRY_KIND,
    LEDGER_SCHEMA,
    SNAPSHOT_KIND,
    DiffPolicy,
    LedgerError,
    MetricVerdict,
    PerformanceLedger,
    baseline_stats,
    build_entry,
    compare_entries,
    flatten_metrics,
    format_verdicts,
    metric_direction,
    run_metrics,
    validate_entry,
    write_snapshot,
)

FP = {"git_sha": "deadbeef", "python": "3.12.0", "env": {}}


def _entry(wall=1.0, suite="performance", digest="sha256:aaaa",
           scale="default", created=0.0, **metrics):
    runs = {"laplace_dp": {"wall_time_s": wall, "peak_mem_bytes": 1e6,
                           "final_cost": 1e-5, "iterations": 150.0,
                           **metrics}}
    return build_entry(
        suite=suite, runs=runs, fingerprint=FP, config_digest=digest,
        scale=scale, jobs=1, wall_time_s=wall, created_unix=created,
    )


class _FakeResult:
    wall_time_s = 2.5
    peak_mem_bytes = 1 << 20
    final_cost = 3e-4
    iterations = 60


class TestRunMetrics:
    def test_result_surface_alone(self):
        m = run_metrics(_FakeResult())
        assert m == {
            "wall_time_s": 2.5,
            "peak_mem_bytes": float(1 << 20),
            "final_cost": 3e-4,
            "iterations": 60.0,
        }

    def test_mines_the_obs_payload(self):
        obs = {
            "phase_seconds": {"grad": 1.5, "eval": 0.5},
            "metrics": {
                "krylov.iterations": {"kind": "counter", "value": 420.0},
                "cache.lu-cache.hits": {"kind": "gauge", "value": 90.0},
                "cache.lu-cache.misses": {"kind": "gauge", "value": 10.0},
                "cache.cold.hits": {"kind": "gauge", "value": 0.0},
                "cache.cold.misses": {"kind": "gauge", "value": 0.0},
            },
        }
        m = run_metrics(_FakeResult(), obs)
        assert m["phase_seconds"] == {"eval": 0.5, "grad": 1.5}
        assert m["solver_iterations"] == 420.0
        # hit rate = hits / (hits + misses); never-used caches are dropped.
        assert m["cache_hit_rate"] == {"lu-cache": 0.9}

    def test_empty_obs_adds_nothing(self):
        assert "phase_seconds" not in run_metrics(_FakeResult(), {})


class TestEntryValidation:
    def test_build_entry_is_schema_valid(self):
        e = _entry()
        assert e["kind"] == ENTRY_KIND
        assert e["ledger_schema"] == LEDGER_SCHEMA
        assert validate_entry(e) == e

    def test_missing_keys_rejected(self):
        e = _entry()
        del e["fingerprint"]
        with pytest.raises(LedgerError, match="missing keys"):
            validate_entry(e)

    def test_wrong_kind_rejected(self):
        e = _entry()
        e["kind"] = "something.else"
        with pytest.raises(LedgerError, match="not a ledger entry"):
            validate_entry(e)

    def test_future_schema_rejected(self):
        e = _entry()
        e["ledger_schema"] = LEDGER_SCHEMA + 1
        with pytest.raises(LedgerError, match="not supported"):
            validate_entry(e)

    def test_empty_runs_rejected(self):
        e = _entry()
        e["runs"] = {}
        with pytest.raises(LedgerError, match="non-empty 'runs'"):
            validate_entry(e)

    def test_non_numeric_metric_rejected(self):
        e = _entry()
        e["runs"]["laplace_dp"]["wall_time_s"] = "fast"
        with pytest.raises(LedgerError, match="must be numeric"):
            validate_entry(e)

    def test_non_numeric_nested_rejected(self):
        e = _entry()
        e["runs"]["laplace_dp"]["phase_seconds"] = {"grad": "slow"}
        with pytest.raises(LedgerError, match="names to numbers"):
            validate_entry(e)


class TestPerformanceLedger:
    def test_append_and_entries_round_trip(self, tmp_path):
        store = PerformanceLedger(tmp_path / "ledger", "performance")
        assert store.entries() == []
        assert len(store) == 0
        store.append(_entry(wall=1.0, created=1.0))
        store.append(_entry(wall=1.1, created=2.0))
        entries = store.entries()
        assert len(entries) == 2
        assert [e["wall_time_s"] for e in entries] == [1.0, 1.1]
        # One JSON object per line — the file is greppable history.
        lines = (tmp_path / "ledger" / "performance.jsonl").read_text()
        assert all(json.loads(ln)["kind"] == ENTRY_KIND
                   for ln in lines.strip().splitlines())

    def test_append_validates(self, tmp_path):
        store = PerformanceLedger(tmp_path, "s")
        with pytest.raises(LedgerError):
            store.append({"kind": ENTRY_KIND})

    def test_corrupt_line_reported_with_location(self, tmp_path):
        store = PerformanceLedger(tmp_path, "s")
        store.append(_entry())
        with open(store.path, "a", encoding="utf-8") as f:
            f.write("{not json\n")
        with pytest.raises(LedgerError, match=r"s\.jsonl:2: invalid JSON"):
            store.entries()

    def test_suites_are_separate_files(self, tmp_path):
        a = PerformanceLedger(tmp_path, "performance")
        b = PerformanceLedger(tmp_path, "smoke")
        a.append(_entry())
        assert len(a) == 1
        assert len(b) == 0

    def test_torn_trailing_line_skipped_with_warning(self, tmp_path):
        # A writer that died mid-append leaves a final line with no
        # newline: readable history survives, the torn tail is skipped.
        store = PerformanceLedger(tmp_path, "s")
        store.append(_entry(wall=1.0, created=1.0))
        store.append(_entry(wall=2.0, created=2.0))
        with open(store.path, "a", encoding="utf-8") as f:
            f.write('{"kind": "repro.ledger.entry", "truncat')  # no \n
        with pytest.warns(RuntimeWarning, match="torn trailing line"):
            entries = store.entries()
        assert [e["wall_time_s"] for e in entries] == [1.0, 2.0]

    def test_complete_corrupt_last_line_still_raises(self, tmp_path):
        # Newline-terminated garbage is corruption, not a torn write.
        store = PerformanceLedger(tmp_path, "s")
        store.append(_entry())
        with open(store.path, "a", encoding="utf-8") as f:
            f.write("{not json\n")
        with pytest.raises(LedgerError, match=r"s\.jsonl:2"):
            store.entries()

    def test_torn_line_midfile_still_raises(self, tmp_path):
        # Only the *final* line gets torn-write forgiveness.
        store = PerformanceLedger(tmp_path, "s")
        with open(store.path, "w", encoding="utf-8") as f:
            f.write("{half\n")
        store.append(_entry())
        with pytest.raises(LedgerError, match=r"s\.jsonl:1"):
            store.entries()

    def test_concurrent_appends_land_whole(self, tmp_path):
        # Many threads hammering one ledger: every line must parse and
        # every entry must survive — the O_APPEND single-write contract.
        import threading

        store = PerformanceLedger(tmp_path, "s")
        n_threads, per_thread = 8, 25
        barrier = threading.Barrier(n_threads)

        def writer(tid):
            barrier.wait()
            for i in range(per_thread):
                store.append(_entry(wall=1.0 + tid, created=float(i)))

        threads = [threading.Thread(target=writer, args=(t,))
                   for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        entries = store.entries()  # raises on any interleaved half-line
        assert len(entries) == n_threads * per_thread


class TestMetricDirection:
    @pytest.mark.parametrize("metric,category,worse", [
        ("laplace_dp/wall_time_s", "time", True),
        ("laplace_dp/phase_seconds.grad", "time", True),
        ("laplace_dp/peak_mem_bytes", "mem", True),
        ("laplace_dp/final_cost", "cost", True),
        ("laplace_dp/iterations", "count", True),
        ("ns_dal/solver_iterations", "count", True),
        ("laplace_dp/cache_hit_rate.lu-cache", "rate", False),
        ("serve/throughput_rps", "throughput", False),
        ("serve/latency_p95_s", "time", True),
    ])
    def test_classification(self, metric, category, worse):
        assert metric_direction(metric) == (category, worse)


class TestBaselineStats:
    def test_median_and_mad(self):
        med, sigma = baseline_stats([1.0, 2.0, 100.0])
        assert med == 2.0
        assert sigma == pytest.approx(1.4826 * 1.0)

    def test_single_value(self):
        assert baseline_stats([5.0]) == (5.0, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one value"):
            baseline_stats([])


class TestCompareEntries:
    def test_no_history_is_new(self):
        (v,) = [x for x in compare_entries(_entry(), [])
                if x.metric.endswith("wall_time_s")]
        assert v.verdict == "new"
        assert v.baseline is None

    def test_honest_noise_is_neutral(self):
        history = [_entry(wall=1.0 + 0.03 * i, created=i) for i in range(5)]
        current = _entry(wall=1.10, created=9.0)
        verdicts = compare_entries(current, history)
        assert all(v.verdict == "neutral" for v in verdicts)

    def test_doubled_wall_time_regresses(self):
        history = [_entry(wall=1.0, created=i) for i in range(5)]
        verdicts = compare_entries(_entry(wall=2.0, created=9.0), history)
        by_name = {v.metric: v for v in verdicts}
        assert by_name["laplace_dp/wall_time_s"].verdict == "regressed"

    def test_halved_wall_time_improves(self):
        history = [_entry(wall=1.0, created=i) for i in range(5)]
        verdicts = compare_entries(_entry(wall=0.4, created=9.0), history)
        by_name = {v.metric: v for v in verdicts}
        assert by_name["laplace_dp/wall_time_s"].verdict == "improved"

    def test_rate_metrics_regress_downwards(self):
        # cache hit rate is higher-is-better: a drop regresses.
        history = [_entry(cache_hit_rate={"lu": 0.95}, created=i)
                   for i in range(5)]
        worse = _entry(cache_hit_rate={"lu": 0.50}, created=9.0)
        by_name = {v.metric: v for v in compare_entries(worse, history)}
        assert by_name["laplace_dp/cache_hit_rate.lu"].verdict == "regressed"
        better = _entry(cache_hit_rate={"lu": 1.0}, created=9.0)
        by_name = {v.metric: v for v in compare_entries(better, history)}
        assert by_name["laplace_dp/cache_hit_rate.lu"].verdict == "improved"

    def test_non_finite_value_always_regresses(self):
        history = [_entry(created=i) for i in range(3)]
        current = _entry(created=9.0)
        current["runs"]["laplace_dp"]["final_cost"] = math.nan
        by_name = {v.metric: v for v in compare_entries(current, history)}
        assert by_name["laplace_dp/final_cost"].verdict == "regressed"

    def test_config_digest_mismatch_excluded_from_baseline(self):
        # A differently-shaped run must never serve as a baseline.
        history = [_entry(wall=0.1, digest="sha256:bbbb", created=i)
                   for i in range(5)]
        verdicts = compare_entries(_entry(wall=2.0, created=9.0), history)
        assert all(v.verdict == "new" for v in verdicts)

    def test_scale_mismatch_excluded_from_baseline(self):
        history = [_entry(wall=0.1, scale="full", created=i) for i in range(5)]
        verdicts = compare_entries(_entry(wall=2.0, created=9.0), history)
        assert all(v.verdict == "new" for v in verdicts)

    def test_suite_mismatch_excluded(self):
        history = [_entry(wall=0.1, suite="smoke", created=i) for i in range(5)]
        verdicts = compare_entries(_entry(wall=2.0, created=9.0), history)
        assert all(v.verdict == "new" for v in verdicts)

    def test_history_window_limits_the_baseline(self):
        policy = DiffPolicy(history_window=3)
        # Old fast entries age out of the window; recent slow ones rule.
        history = ([_entry(wall=0.1, created=i) for i in range(10)]
                   + [_entry(wall=2.0, created=100 + i) for i in range(3)])
        verdicts = compare_entries(_entry(wall=2.0, created=999.0),
                                   history, policy)
        by_name = {v.metric: v for v in verdicts}
        v = by_name["laplace_dp/wall_time_s"]
        assert v.n_history == 3
        assert v.verdict == "neutral"

    @pytest.mark.parametrize("n_history", [1, 2])
    def test_short_history_is_neutral_with_note(self, n_history):
        # Below min_window even a 10x slowdown must stay neutral — one
        # noisy baseline run is not evidence — but the note says why.
        history = [_entry(wall=1.0, created=i) for i in range(n_history)]
        verdicts = compare_entries(_entry(wall=10.0, created=9.0), history)
        by_name = {v.metric: v for v in verdicts}
        v = by_name["laplace_dp/wall_time_s"]
        assert v.verdict == "neutral"
        assert v.note == "insufficient_history"
        assert v.n_history == n_history
        assert v.baseline == pytest.approx(1.0)
        assert v.to_dict()["note"] == "insufficient_history"
        # and format_verdicts renders it without a threshold
        assert "insufficient_history" in format_verdicts(verdicts)

    def test_min_window_boundary_issues_real_verdicts(self):
        history = [_entry(wall=1.0, created=i) for i in range(3)]
        verdicts = compare_entries(_entry(wall=10.0, created=9.0), history)
        by_name = {v.metric: v for v in verdicts}
        v = by_name["laplace_dp/wall_time_s"]
        assert v.verdict == "regressed"
        assert v.note is None

    def test_min_window_configurable(self):
        policy = DiffPolicy(min_window=1)
        history = [_entry(wall=1.0, created=0.0)]
        verdicts = compare_entries(_entry(wall=10.0, created=9.0),
                                   history, policy)
        by_name = {v.metric: v for v in verdicts}
        assert by_name["laplace_dp/wall_time_s"].verdict == "regressed"

    def test_verdicts_sorted_regressions_first(self):
        history = [_entry(wall=1.0, created=i) for i in range(5)]
        verdicts = compare_entries(_entry(wall=3.0, created=9.0), history)
        assert verdicts[0].verdict == "regressed"

    def test_delta_property(self):
        v = MetricVerdict("m", "neutral", 1.5, baseline=1.0)
        assert v.delta == pytest.approx(0.5)
        assert MetricVerdict("m", "new", 1.5).delta is None


class TestFlattenMetrics:
    def test_scalars_and_nested(self):
        flat = flatten_metrics(_entry(phase_seconds={"grad": 0.5}))
        assert flat["laplace_dp/wall_time_s"] == 1.0
        assert flat["laplace_dp/phase_seconds.grad"] == 0.5


class TestFormatVerdicts:
    def test_tally_head_and_rows(self):
        history = [_entry(wall=1.0, created=i) for i in range(5)]
        text = format_verdicts(
            compare_entries(_entry(wall=2.0, created=9.0), history)
        )
        assert text.startswith("1 regressed")
        assert "laplace_dp/wall_time_s" in text
        assert "+100.0%" in text

    def test_empty(self):
        assert format_verdicts([]) == "no metrics to compare"


class TestWriteSnapshot:
    def test_snapshot_document(self, tmp_path):
        entries = [_entry(wall=1.0 + i, created=i) for i in range(3)]
        verdicts = compare_entries(entries[-1], entries[:-1])
        path = tmp_path / "BENCH_performance.json"
        doc = write_snapshot(str(path), entries, verdicts)
        on_disk = json.loads(path.read_text())
        assert on_disk == doc
        assert doc["kind"] == SNAPSHOT_KIND
        assert doc["n_entries"] == 3
        assert doc["latest"]["wall_time_s"] == 3.0
        assert doc["history"]["laplace_dp/wall_time_s"] == [1.0, 2.0, 3.0]
        assert doc["verdicts"] and all("verdict" in v for v in doc["verdicts"])

    def test_empty_ledger_rejected(self, tmp_path):
        with pytest.raises(LedgerError, match="empty ledger"):
            write_snapshot(str(tmp_path / "x.json"), [])
