"""Tests of the benchmark itself, on the tiny ``smoke`` workload.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import harness  # noqa: E402
from checks import Ledger, check_outputs, summarise_quality  # noqa: E402
from speed import Timed  # noqa: E402
from tracing import Tracer  # noqa: E402

SMOKE = harness.WORKLOADS["smoke"]


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    return {
        trace: harness.run_workload(SMOKE, 0, 0.0, trace, ROOT, out)
        for trace in (False, True)
    }


@pytest.fixture(scope="module")
def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_declared_metric_is_emitted_with_its_unit(runs, declared, trace, section):
    result, _ = runs[trace]
    expected = {m["name"]: m["unit"] for m in declared[section]}
    emitted = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert emitted == expected
    assert all(isinstance(e["value"], (int, float)) for e in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


def test_traced_run_records_nested_spans(runs):
    _, detail = runs[True]
    spans = {s["id"]: s for s in detail["spans"]}

    def ancestors(span):
        while span["parent"] is not None:
            span = spans[span["parent"]]
            yield span["name"]

    update = next(s for s in spans.values() if s["name"] == "engine.update_edge_latents")
    assert list(ancestors(update))[:1] == ["engine.fit"]
    assert "cli.fit" in ancestors(update) or "cli.select-nu0" in ancestors(update)
    for span in spans.values():
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]
    for row in detail["span_totals"].values():
        assert 0.0 <= row["self_s"] <= row["total_s"] + 1e-12
    assert detail["fits"] and all(f["first_iter_s"] > 0 for f in detail["fits"])


def test_tracer_restores_every_patched_name():
    from ordnet import cli, core, engine, selection

    before = (cli.engine_fit, selection.ebic, engine.update_zeta, core.GroupedDataset.prepare)
    with Tracer().installed():
        assert cli.engine_fit is not before[0]
    assert (cli.engine_fit, selection.ebic, engine.update_zeta,
            core.GroupedDataset.prepare) == before


def _corrupt(path: Path, edit) -> None:
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _first(doc, key):
    return next(iter(doc[key].values()))


CORRUPTIONS = {
    "truncated": lambda p: p.write_text(p.read_text()[:100]),
    "schema 2.0": lambda p: _corrupt(p, lambda d: d.update(schema_version="2.0")),
    "ppi above 1": lambda p: _corrupt(p, lambda d: _first(d, "ppi")[0].__setitem__(1, 1.5)),
    "omega asymmetric": lambda p: _corrupt(
        p, lambda d: _first(d, "omega")[0].__setitem__(1, _first(d, "omega")[0][1] + 0.1)),
    "omega not positive definite": lambda p: _corrupt(
        p, lambda d: _first(d, "omega")[0].__setitem__(0, -1.0)),
    "elbo falls": lambda p: _corrupt(
        p, lambda d: d["elbo_trace"].__setitem__(-1, d["elbo_trace"][-2] - 10.0)),
    "missing omega": lambda p: _corrupt(p, lambda d: d.pop("omega")),
    "ppi not a number": lambda p: _corrupt(
        p, lambda d: _first(d, "ppi")[0].__setitem__(1, float("nan"))),
    "empty elbo trace": lambda p: _corrupt(p, lambda d: d.update(elbo_trace=[])),
    "elbo not a number": lambda p: _corrupt(
        p, lambda d: d["elbo_trace"].__setitem__(-1, float("nan"))),
    "elbo infinite": lambda p: _corrupt(
        p, lambda d: d["elbo_trace"].__setitem__(-1, float("inf"))),
}


@pytest.fixture(scope="module")
def smoke_pass(tmp_path_factory):
    work = tmp_path_factory.mktemp("pass")
    ledger = Ledger()
    harness.setup(SMOKE, 0, work, ROOT, ledger)
    harness.run_pass(SMOKE, work, ledger)
    assert ledger.failed == 0
    return work


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_corrupted_fit_json_counts_as_failure(smoke_pass, tmp_path, corruption):
    work = tmp_path / "work"
    shutil.copytree(smoke_pass, work)
    CORRUPTIONS[corruption](work / "fit.json")
    ledger = Ledger()
    check_outputs(work, SMOKE.select is not None, SMOKE.joint, ledger)
    assert ledger.failed >= 1, corruption


def test_selected_nu0_outside_the_grid_counts_as_failure(smoke_pass, tmp_path):
    work = tmp_path / "work"
    shutil.copytree(smoke_pass, work)
    _corrupt(work / "nu0.json", lambda d: d["selected"].update({"1": 0.077}))
    ledger = Ledger()
    check_outputs(work, True, SMOKE.joint, ledger)
    assert any("selected nu0" in f["operation"] for f in ledger.failures)


@pytest.mark.parametrize("elbo", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_quality_reads_as_the_worst_value(elbo):
    row = {"auc": float("nan"), "elbo_final": elbo}
    for quality in (None, [], [row]):
        summary = summarise_quality(quality, joint=True)
        assert summary["auc_mean"][0] == 0.0
        assert summary["neg_elbo_final"][0] == sys.float_info.max


def test_write_failure_inside_a_run_is_counted(tmp_path, monkeypatch):
    from ordnet import cli

    original = cli.write_json

    def corrupting(path, doc):
        if doc.get("kind") == "fit":
            doc = dict(doc, schema_version="2.0")
        original(path, doc)

    monkeypatch.setattr(cli, "write_json", corrupting)
    result, detail = harness.run_workload(SMOKE, 1, 0.0, False, ROOT, tmp_path)
    assert not result["correct"] and result["failed"] >= 1
    assert result["metrics"]["success_frac"]["value"] < 1.0
    assert result["metrics"]["auc_mean"]["value"] == 0.0
    assert result["metrics"]["neg_elbo_final"]["value"] == sys.float_info.max
    assert any("fit.json" in f["operation"] for f in detail["failures"])


def test_timed_section_scales_by_sampled_speed_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    with Timed(harness.LAPACK) as timed:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(timed.samples) >= 3
    assert 0.0 < timed.sampler_s < timed.raw_s
    assert timed.seconds == pytest.approx((timed.raw_s - timed.sampler_s) * timed.speed)


def test_exits_nonzero_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False,
    )
    assert child.returncode != 0
    assert not child.stdout.strip()
