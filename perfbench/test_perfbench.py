"""Checks of the benchmark itself: run with `python3 -m pytest perfbench`.

The verifiers must count failures when the program's output differs from
the reference, so these tests feed them deliberately altered references.
"""

import numpy as np
import pytest

import inputs
import loop
import speed
import tracing


def run_units(warm, units):
    records = [loop.run_op(loop.pdfmlp.cli.main, op) for op in warm]
    records += [loop.run_op(loop.pdfmlp.cli.main, op) for unit in units for op in unit]
    return sum(r["attempted"] for r in records), sum(r["failed"] for r in records)


@pytest.fixture
def small_extract(tmp_path, monkeypatch):
    layout = (("small-benign", "benign", 3), ("small-malicious", "malicious", 2),
              ("lying-length", "malicious", 1), ("truncated", "benign", 1))
    rows, _ = inputs._write_tree(tmp_path, "corpus", layout, np.random.default_rng(5), tmp_path)
    (tmp_path / "out").mkdir()
    monkeypatch.chdir(tmp_path)
    return {
        "argv": ["extract", "--jobs", "1", "--benign", "corpus/benign",
                 "--malicious", "corpus/malicious", "--out", "out/features.csv"],
        "canary_argv": ["extract", "--jobs", "1", "--benign", "corpus/benign",
                        "--malicious", "corpus/malicious", "--out", "out/canary.csv"],
        "canary_sha256": loop.sha256_text(inputs.feature_csv_text(rows)),
        "expected_csv": inputs.feature_csv_text(rows),
        "sizes": {row[0]: (tmp_path / row[0]).stat().st_size for row in rows},
    }


def test_extract_matches_its_reference(small_extract):
    attempted, failed = run_units(*loop.extract_ops(small_extract))
    assert (attempted, failed) == (1 + 8, 0)


def test_extract_counts_altered_rows_and_canary(small_extract):
    lines = small_extract["expected_csv"].splitlines(keepends=True)
    lines[2] = lines[2].replace(",0,", ",1,", 1)  # a wrong label
    lines[4] = lines[4].rstrip("\n") + "7\n"  # a wrong last feature
    small_extract["expected_csv"] = "".join(lines)
    small_extract["canary_sha256"] = "0" * 64
    attempted, failed = run_units(*loop.extract_ops(small_extract))
    assert failed == 1 + 2 + 1  # the canary, two rows and the file as a whole


def test_extract_counts_every_row_when_the_command_fails(small_extract):
    small_extract["argv"] = small_extract["argv"][:-2] + ["--out", "missing-dir/features.csv"]
    attempted, failed = run_units(*loop.extract_ops(small_extract))
    assert failed == attempted - 1 == 8


@pytest.fixture
def small_scan(tmp_path, monkeypatch):
    monkeypatch.setattr(inputs, "SCAN_SMALL_BENIGN", 6)
    monkeypatch.setattr(inputs, "SCAN_SMALL_MALICIOUS", 4)
    monkeypatch.setattr(inputs, "SCAN_MEDIUM", 2)
    monkeypatch.setattr(inputs, "SCAN_MULTI_REQUESTS", 4)
    monkeypatch.setattr(inputs, "SCAN_MODEL_DOCS", (12, 8))
    monkeypatch.setattr(inputs, "SCAN_MODEL_EPOCHS", 3)
    plan = inputs.prepare_scan(tmp_path, 7, tmp_path)
    monkeypatch.chdir(tmp_path)
    return plan


def test_scan_inputs_follow_the_seed(small_scan, tmp_path_factory):
    again = inputs.prepare_scan(tmp_path_factory.mktemp("again"), 7, tmp_path_factory.mktemp("cache"))
    assert again["requests"] == small_scan["requests"]
    assert again["sizes"] == small_scan["sizes"]


def test_scan_counts_altered_requests(small_scan):
    warm, units = loop.scan_ops(small_scan)
    assert run_units([], units) == (16, 0)
    small_scan["requests"][0]["stdout"] = small_scan["requests"][0]["stdout"].replace("\t", "\t0", 1)
    small_scan["requests"][5]["exit"] = 2
    warm, units = loop.scan_ops(small_scan)
    assert run_units([], units) == (16, 2)


def test_train_eval_counts_altered_outputs(tmp_path, monkeypatch):
    monkeypatch.setattr(inputs, "TRAIN_ROWS", 300)
    monkeypatch.setattr(inputs, "TEST_ROWS", 400)
    monkeypatch.setattr(inputs, "TRAIN_EPOCHS", 3)
    plan = inputs.prepare_train_eval(tmp_path, 3, tmp_path)
    monkeypatch.chdir(tmp_path)
    assert plan["auc_oracle_ok"]
    assert plan["auc"] < 0.95
    assert run_units(*loop.train_eval_ops(plan)) == (2, 0)
    plan["train_stdout"] = plan["train_stdout"].replace("checksum ", "checksum 0")
    plan["outputs"]["roc.csv"] = "0" * 64
    assert run_units(*loop.train_eval_ops(plan)) == (2, 2)


def test_rank_auc_matches_pairwise_count():
    rng = np.random.default_rng(0)
    scores = np.round(rng.random(60), 1)  # many ties
    labels = (rng.random(60) < 0.4).astype(int)
    pos, neg = scores[labels == 1], scores[labels == 0]
    pairwise = np.mean([(p > n) + 0.5 * (p == n) for p in pos for n in neg])
    assert inputs._rank_auc(scores, labels) == pytest.approx(pairwise)


def test_tail_percentile_needs_ten_samples_beyond():
    assert loop.tail_percentile(list(range(19))) is None
    assert loop.tail_percentile(list(range(200)))[0] == 95.0
    assert loop.tail_percentile(list(range(1000)))[0] == 99.0


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    tracer.spans += [
        ["parser", 0.0, 10.0, -1, 1],
        ["filters", 1.0, 4.0, 0, 1],
        ["filters", 5.0, 6.0, 0, 1],
        ["features", 10.0, 13.0, -1, 1],
        ["names", 11.0, 12.5, 3, 1],
    ]
    values = tracer.metrics()
    assert values["parser.self_s"] == 6.0
    assert values["filters.time_s"] == 4.0
    assert values["filters.calls"] == 2
    assert values["features.self_s"] == 1.5
    assert values["names.time_s"] == 1.5


def test_install_restores_every_binding(small_extract):
    before = [owner.__dict__[attr] for owner, attr, _, _ in tracing.BINDINGS]
    tracer = tracing.Tracer()
    restore = tracer.install()
    try:
        warm, units = loop.extract_ops(small_extract)
        assert run_units([], units) == (8, 0)
    finally:
        restore()
    assert [owner.__dict__[attr] for owner, attr, _, _ in tracing.BINDINGS] == before
    values = tracer.finish_pass()
    assert values["parser.calls"] == values["features.calls"] == 7
    assert values["names.calls"] == 7 * 17
    assert values["parser.self_s"] > 0 and values["features.self_s"] > 0


def test_metronome_samples_in_proportion_to_elapsed_time(monkeypatch):
    every = speed.REFERENCE_EVERY_S
    clock = iter([0.0, 0.0, 0.5 * every, 4.5 * every, 4.5 * every, 1000 * every, 1000 * every])
    monkeypatch.setattr(speed.time, "perf_counter", lambda: next(clock))
    monkeypatch.setattr(speed, "reference", lambda: 2 * speed.REFERENCE_S)
    metronome = speed.Metronome(warm_up=0)
    metronome.tick()  # the first tick runs one unit
    metronome.tick()  # half a period later: none owed
    metronome.tick()  # four and a half periods after the first: four owed
    metronome.tick()  # a long request: capped at one burst
    assert len(metronome.samples) == 1 + 4 + speed.MAX_BURST
    assert metronome.slowdown() == pytest.approx(2.0)


def test_end_to_end_scales_wall_time_to_reference_speed():
    records = [
        {"pass": p, "label": "scan", "seconds": s, "docs": 2, "bytes": 4000, "attempted": 1, "failed": 0}
        for p, s in ((0, 0.010), (0, 0.030), (1, 0.020), (1, 0.020))
    ]
    metrics, extra = loop.end_to_end("scan-inbox", records, slowdown=2.0)
    assert extra["wall"]["latency_p50_ms"] == pytest.approx(20.0)
    assert extra["wall"]["docs_per_s"] == pytest.approx(100.0)
    assert metrics["latency_p50_ms"] == pytest.approx(10.0)
    assert metrics["docs_per_s"] == pytest.approx(200.0)
    assert metrics["mb_per_s"] == pytest.approx(0.4)
