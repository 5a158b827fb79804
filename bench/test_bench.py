"""Tests of the benchmark itself: inputs, correctness gate, hang guard and
tracer.  Run with ``PYTHONPATH=src python -m pytest bench``."""

import contextlib
import io
import json
import signal
import subprocess
import sys
import time

import pytest

import gate
import inputs
import run
import spans
import speed
from f1zeta import cli, corpus, grothendieck, oracle


def _invoke(inp, tmp_path):
    argv = list(inp.argv)
    if inp.text is not None:
        path = tmp_path / "graph.txt"
        path.write_text(inp.text)
        argv.insert(1, str(path))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("max_ambient", [0, 1, 2, 3, 4])
def test_corpus_size_closed_form_matches_generator(max_ambient):
    assert inputs.corpus_size(max_ambient) == len(list(corpus.exhaustive_loose_graphs(max_ambient)))


def test_corpus_size_known_values():
    assert (inputs.corpus_size(4), inputs.corpus_size(5)) == (119, 1470)


def test_inputs_never_import_f1zeta():
    code = "import sys, inputs; sys.exit(any(m.startswith('f1zeta') for m in sys.modules))"
    subprocess.run([sys.executable, "-c", code], cwd=run.BENCH, check=True, timeout=60)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_inputs_are_seeded(workload):
    first = next(inputs.rounds(workload, 7))
    assert first == next(inputs.rounds(workload, 7))
    assert first != next(inputs.rounds(workload, 8))
    assert [i.size_class for i in first] == list(range(len(first)))


@pytest.mark.parametrize("workload", ["sparse_compute", "dense_compute"])
def test_input_properties_describe_the_graph(workload):
    from f1zeta import LooseGraph

    for inp in next(inputs.rounds(workload, 3)):
        g = LooseGraph.parse(inp.text)
        props = inp.props
        assert props["vertices"] == len(g.vertices)
        assert props["full_edges"] == len(g.full_edges)
        assert props["loose_edges"] == len(g.loose_edges)
        assert props["free_edges"] == len(g.free_edges)
        components = len(g.components()) - len(g.free_edges)
        assert props["cycle_rank"] == len(g.full_edges) - len(g.vertices) + components
        assert props["ambient"] == len(g.ambient_completion().graph.vertices)


def test_gate_passes_correct_output_and_trips_on_wrong_recorded_value(tmp_path):
    inp = inputs.warmup_input("dense_compute", 1)
    code, out = _invoke(inp, tmp_path)
    assert gate.check(inp, code, out) == []
    right = {"input": gate.input_digest(inp), "result": gate.result_of(json.loads(out))}
    assert gate.check(inp, code, out, right) == []

    report = json.loads(out)
    wrong = {"input": right["input"], "result": {"polynomial": report["polynomial"][:-1] + [0]}}
    problems = gate.check(inp, code, out, wrong)
    assert len(problems) == 1 and "recorded" in problems[0]

    stale = {"input": "0" * 16, "result": right["result"]}
    assert "input differs" in gate.check(inp, code, out, stale)[0]


def test_gate_trips_on_bad_verdicts_class_and_exit_code(tmp_path):
    inp = inputs.warmup_input("dense_compute", 1)
    code, out = _invoke(inp, tmp_path)
    assert gate.check(inp, code, out) == []
    report = json.loads(out)
    report["polynomial"][0] += 1
    report["verdicts"]["surgery_agrees"] = False
    problems = gate.check(inp, 1, json.dumps(report))
    assert any("exit code 1" in p for p in problems)
    assert any("class(1)" in p for p in problems)
    assert any("surgery_agrees" in p for p in problems)
    assert gate.check(inp, 0, "not json") == ["output is not JSON"]


def test_gate_checks_the_corpus_size(tmp_path, monkeypatch):
    monkeypatch.setattr(inputs, "VERIFY_MAX_AMBIENT", 3)
    inp = next(inputs.rounds("verify_corpus", 1))[0]
    code, out = _invoke(inp, tmp_path)
    assert gate.check(inp, code, out) == []
    report = json.loads(out)
    report["checked"] = report["passed"] = report["checked"] - 1
    assert "expected" in gate.check(inp, code, json.dumps(report))[0]


@pytest.fixture
def quick_run(monkeypatch, capsys):
    """Run one short ``verify_corpus`` run, over a small corpus, in-process;
    return (exit code, final result line)."""
    monkeypatch.setattr(run, "measure_setup", lambda: 0.5)
    monkeypatch.setattr(inputs, "VERIFY_MAX_AMBIENT", 3)

    def go(**patches):
        for name, value in patches.items():
            monkeypatch.setattr(run, name, value)
        code = run.run_one(cli, "verify_corpus", run.DEFAULT_SEED, 0.01, trace=False)
        return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])

    return go


def test_run_fails_when_an_output_disagrees_with_the_record(quick_run):
    inp = next(inputs.rounds("verify_corpus", run.DEFAULT_SEED))[0]
    wrong = {inp.key: {"input": gate.input_digest(inp), "result": {"checked": 1, "passed": 1}}}
    code, result = quick_run(_load_expected=lambda: wrong)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == 2
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)


def test_run_passes_and_reports_every_end_to_end_metric(quick_run):
    code, result = quick_run(_load_expected=dict)
    assert (code, result["correct"], result["failed"]) == (0, True, 0)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_hang_guard_counts_an_unfinished_invocation_as_failed(quick_run):
    code, result = quick_run(_load_expected=dict, RUN_LIMIT_S=0.05)
    assert code == 1
    assert result["failed"] >= 1


def test_tracer_wraps_every_importer_and_restores_originals(tmp_path):
    originals = (grothendieck.class_of, oracle.class_of, cli.class_of)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert grothendieck.class_of is oracle.class_of is cli.class_of
        assert grothendieck.class_of is not originals[0]
        tracer.invocation = 0
        code, _ = _invoke(inputs.warmup_input("dense_compute", 1), tmp_path)
    finally:
        tracer.uninstall()
    assert code == 0
    assert (grothendieck.class_of, oracle.class_of, cli.class_of) == originals

    names = {s[1] for s in tracer.spans}
    assert {"cli.main", "loose_graph.parse", "grothendieck.class_of",
            "grothendieck.surgery", "loose_graph.cliques"} <= names
    roots = [s for s in tracer.spans if s[4] is None]
    assert [s[1] for s in roots] == ["cli.main"]
    selfs = spans.self_times(tracer.spans)
    root = roots[0]
    assert sum(selfs.values()) == pytest.approx(root[3] - root[2])
    assert all(t >= -1e-9 for t in selfs.values())

    metrics = spans.layer_metrics(tracer, {0: 0}, doubling=False)
    assert metrics["cli.main.calls"] == 1
    assert metrics["grothendieck.surgery.steps"] > 0
    assert metrics["loose_graph.cliques.count"] > 0
    assert metrics["poly.ops"] > 0
    assert 0 < metrics["grothendieck.class_of.in_surgery_share"] < 1


def test_metrics_match_benchmark_json(quick_run, monkeypatch, capsys):
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    _, result = quick_run(_load_expected=dict)
    assert list(result["metrics"]) == [m["name"] for m in declared["end_to_end"]]

    code = run.run_one(cli, "verify_corpus", 5, 0.01, trace=True)
    traced = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert sorted(traced["metrics"]) == sorted(m["name"] for m in declared["per_layer"])
    units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert all(units[name] == m["unit"] for name, m in traced["metrics"].items())


def test_speed_probe_samples_during_the_work_and_restores_the_handler():
    before = signal.getsignal(signal.SIGPROF)
    with speed.SpeedProbe() as probe:
        end = time.process_time() + 0.3
        while time.process_time() < end:
            pass
    assert signal.getsignal(signal.SIGPROF) is before
    # One on entry, one on exit, and about one per INTERVAL_S of CPU time.
    assert len(probe.samples) >= 4
    assert 0 < probe.spent < 0.3
    assert probe.scale() == pytest.approx(speed.NOMINAL_S / (sum(probe.samples) / len(probe.samples)))
