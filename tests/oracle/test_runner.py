"""Campaign mechanics: rotation, budgets, reports, corpus persistence."""

import json

from repro.oracle import (DEFAULT_PROFILE_ROTATION, FuzzConfig, FuzzReport,
                          load_corpus, run_fuzz)


def test_profiles_rotate_per_iteration():
    report = run_fuzz(FuzzConfig(seed=0, iterations=len(
        DEFAULT_PROFILE_ROTATION), oracles=("semantic",)))
    assert report.ok
    assert report.iterations_run == len(DEFAULT_PROFILE_ROTATION)


def test_single_oracle_selection():
    report = run_fuzz(FuzzConfig(seed=1, iterations=4,
                                 oracles=("containment",)))
    assert set(report.checks) == {"containment"}
    assert report.checks["containment"] > 0


def test_unknown_oracle_rejected():
    try:
        run_fuzz(FuzzConfig(oracles=("nonsense",)))
    except ValueError as exc:
        assert "nonsense" in str(exc)
    else:
        raise AssertionError("expected ValueError")


def test_budget_stops_early():
    report = run_fuzz(FuzzConfig(seed=0, iterations=10_000,
                                 budget_seconds=0.0))
    assert report.iterations_run < 10_000


def test_report_json_is_serializable():
    report = run_fuzz(FuzzConfig(seed=2, iterations=4))
    data = json.loads(json.dumps(report.to_json()))
    assert data["ok"] is True
    assert data["iterations"] == 4
    assert set(data["checks"]) == {"containment", "index", "memo",
                                   "metamorphic", "persist", "semantic",
                                   "signature", "step2"}
    assert data["failures"] == []


def test_summary_mentions_status_and_counts():
    report = FuzzReport(iterations_run=3, elapsed_seconds=0.5,
                        checks={"semantic": 9})
    assert "OK" in report.summary()
    assert "semantic=9" in report.summary()


def test_green_campaign_writes_no_corpus(tmp_path):
    report = run_fuzz(FuzzConfig(seed=3, iterations=4,
                                 corpus_dir=str(tmp_path)))
    assert report.ok
    assert load_corpus(str(tmp_path)) == []
