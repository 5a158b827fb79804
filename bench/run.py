"""Benchmark of the ``f1zeta`` command line.

One run measures one workload::

    python3 bench/run.py --workload sparse_compute --seed 1 --seconds 35 --trace 0

It calls the real entry point ``f1zeta.cli.main(argv)`` in-process, one
client in a closed loop, and gates every output (see ``gate.py``).  A run
goes through whole rounds of inputs (``inputs.py``), each input once, after
one warm-up call on an extra input, until another round would overrun
``--seconds``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records every input's properties and latency.

End-to-end metrics (``--trace 0``), each time scaled to a host of fixed
speed by the probe of ``speed.py``, since the host's own speed moves by up
to 2x within seconds; the raw figures are printed on the line before the
result:

* ``graphs_per_s`` -- graphs finished per second by a typical round: the
  graphs of one round over the sum, across the round's size classes, of
  the median time of an invocation of that class (``cli.main`` plus its
  gate).  A ``compute`` call is one graph, a ``verify --corpus`` call
  counts its corpus.  Medians, as the probe now and then misjudges the
  speed during a single invocation.
* ``latency_p50_s`` -- median time of one ``cli.main`` call over the run;
  its sample count is printed on the line before the result.
* ``setup_s`` -- median time of a fresh interpreter importing
  ``f1zeta.cli``, which every ``f1zeta`` command pays first.
* ``peak_rss_mb`` -- peak resident memory of the run's process.

With ``--trace 1`` the metrics are the per-layer ones of ``spans.py``,
measured on alternate rounds with tracing installed and without the speed
probe, and the spans are saved under ``.bench_out/``.

``--workload all`` runs every workload ``--runs`` times, each run a fresh
process, one after another, and prints each metric's median and quartiles,
the failure ratio, the environment and (with ``--trace 1``) each workload's
layers sorted by self time.

``--record N`` runs the first N rounds of a workload at the default seed
and stores their results in ``expected_seed1.json``; runs at that seed
then compare against it.

Exit codes: 0 every invocation passed, 1 some invocation failed or ran
out of time, 2 the benchmark could not run (for instance, no ``src/``).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import inputs
import speed
from gate import check, input_digest, result_of

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
EXPECTED = BENCH / "expected_seed1.json"
DEFAULT_SEED = 1
#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_SAMPLES = 7
SETUP_LIMIT_S = 20
#: A run, set-up included, ends after this many seconds at most; an
#: invocation still going then counts as failed.
RUN_LIMIT_S = 150
#: Per-workload run timeout of ``--workload all``.
CHILD_LIMIT_S = 180

END_TO_END_UNITS = {
    "graphs_per_s": "graphs/s",
    "latency_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class TimeLimit(BaseException):
    """Raised by SIGALRM inside an invocation that outlived the run limit.

    A BaseException, so no handler in the program swallows it."""


def _on_alarm(signum, frame):
    raise TimeLimit()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1, help="runs per workload for 'all'")
    parser.add_argument("--record", type=int, metavar="ROUNDS",
                        help="record the first ROUNDS rounds at the default seed")
    args = parser.parse_args(argv)

    if not (SRC / "f1zeta" / "cli.py").is_file():
        print(f"error: no f1zeta sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import f1zeta.cli

    if Path(f1zeta.cli.__file__).resolve().parent != SRC / "f1zeta":
        print(f"error: f1zeta imported from {f1zeta.cli.__file__}", file=sys.stderr)
        return 2
    if args.record:
        return record(f1zeta.cli, args.workload, args.record)
    return run_one(f1zeta.cli, args.workload, args.seed, args.seconds, bool(args.trace))


# -- one run ---------------------------------------------------------------------


def run_one(cli, workload: str, seed: int, seconds: float, trace: bool) -> int:
    deadline = time.monotonic() + min(RUN_LIMIT_S, 30 + 3 * seconds)
    setup_s = None if trace else measure_setup()
    recorded = _load_expected() if seed == DEFAULT_SEED else {}
    tracer = None
    if trace:
        from spans import Tracer
        tracer = Tracer()

    WORK.mkdir(exist_ok=True)
    OUT.mkdir(exist_ok=True)
    path = WORK / f"graph-{os.getpid()}.txt"
    attempted = failed = rounds_done = 0
    records = []
    # Passed invocations: (traced?, size class) -> raw service times; and,
    # untraced, the raw and speed-adjusted latencies, per size class the
    # adjusted service times and the graphs of one input.
    service = defaultdict(list)
    raw_latency, adj_latency = [], []
    adj_service = defaultdict(list)
    graphs_of = {}
    size_class_of = {}
    timed_out = False
    old_handler = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        warm = inputs.warmup_input(workload, seed)
        ok, _, _ = _invoke_checked(cli, warm, path, deadline, recorded.get(warm.key), not trace)
        attempted += 1
        failed += not ok

        loop_start = time.perf_counter()
        for r, batch in enumerate(inputs.rounds(workload, seed)):
            traced = trace and r % 2 == 1
            if traced:
                tracer.install()
            try:
                for inp in batch:
                    if traced:
                        tracer.invocation = attempted
                        size_class_of[attempted] = inp.size_class
                    ok, times, timed_out = _invoke_checked(
                        cli, inp, path, deadline, recorded.get(inp.key), not trace)
                    attempted += 1
                    failed += not ok
                    records.append({"key": inp.key, **inp.props, "ok": ok,
                                    **dict(zip(("latency_s", "adjusted_latency_s"), times[::2]))})
                    if ok:
                        service[traced, inp.size_class].append(times[1])
                        if not traced:
                            graphs_of[inp.size_class] = inp.graphs
                            raw_latency.append(times[0])
                            adj_latency.append(times[2])
                            adj_service[inp.size_class].append(times[3])
                    if timed_out:
                        break
            finally:
                if traced:
                    tracer.uninstall()
            rounds_done += 1
            elapsed = time.perf_counter() - loop_start
            if timed_out or (elapsed * (rounds_done + 1) / rounds_done > seconds
                             and (not trace or rounds_done >= 2)):
                break
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old_handler)
        path.unlink(missing_ok=True)

    info = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "rounds": rounds_done, "latency_samples": len(adj_latency),
        "raw_latency_p50_s": statistics.median(raw_latency) if raw_latency else None,
        "raw_graphs_per_s": _typical_rate(graphs_of, {c: service[False, c] for c in graphs_of}),
        "inputs": records,
    }
    if trace:
        from spans import layer_metrics
        metrics = layer_metrics(tracer, size_class_of, doubling=workload == "sparse_compute")
        metrics["trace.overhead_ratio"] = _ratio(_best_round(service, True), _best_round(service, False))
        metrics = {name: {"value": value, "unit": _layer_unit(name)} for name, value in metrics.items()}
        spans_path = OUT / f"spans-{workload}.jsonl"
        tracer.write(spans_path)
        info["spans"] = str(spans_path.relative_to(ROOT))
    else:
        values = {
            "graphs_per_s": _typical_rate(graphs_of, adj_service),
            "latency_p50_s": statistics.median(adj_latency) if adj_latency else 0.0,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
    print(json.dumps(info))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def _invoke_checked(cli, inp, path, deadline, recorded, probed):
    """Run one invocation under the run's time limit and gate its output.

    Returns (passed, times, timed out).  ``times`` holds the latency
    (``cli.main`` alone) and the service time (with the gate, which on
    ``dense_compute`` runs the program's zeta series), first raw, then
    scaled by the speed probe if ``probed`` (else the raw ones again);
    each is None when the invocation did not finish.
    """
    argv = _argv(inp, path)
    remaining = deadline - time.monotonic()
    out, err = io.StringIO(), io.StringIO()
    times = (None,) * 4
    if remaining <= 0:
        problems, timed_out = ["run time limit reached before the invocation"], True
    else:
        problems, timed_out = [], False
        signal.setitimer(signal.ITIMER_REAL, remaining)
        probe = speed.SpeedProbe() if probed else contextlib.nullcontext()
        try:
            with probe:
                start = time.perf_counter()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
                latency = time.perf_counter() - start
                latency_probing = getattr(probe, "spent", 0.0)
                problems = check(inp, code, out.getvalue(), recorded)
                service = time.perf_counter() - start
            latency -= latency_probing
            service -= getattr(probe, "spent", 0.0)
            factor = probe.scale() if probed else 1.0
            times = (latency, service, latency * factor, service * factor)
        except TimeLimit:
            problems, timed_out = [f"did not finish within the run limit ({remaining:.1f} s left)"], True
        except Exception:
            problems = ["raised:\n" + traceback.format_exc()]
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    if problems:
        _report_failure(inp, problems, err.getvalue())
    return not problems, times, timed_out


def _argv(inp, path):
    """The CLI arguments of ``inp``, with its graph file written to ``path``."""
    argv = list(inp.argv)
    if inp.text is not None:
        path.write_text(inp.text, encoding="utf-8")
        argv.insert(1, str(path))
    return argv


def _report_failure(inp, problems, stderr_text):
    OUT.mkdir(exist_ok=True)
    saved = OUT / ("failed-" + inp.key.replace("/", "_") + ".txt")
    saved.write_text(inp.text or "", encoding="utf-8")
    print(f"FAILED {inp.key}: argv {list(inp.argv)}, input {inp.props}, "
          f"file {saved.relative_to(ROOT)}", file=sys.stderr)
    for problem in problems:
        print(f"  {problem}", file=sys.stderr)
    if stderr_text:
        print(f"  stderr: {stderr_text.strip()}", file=sys.stderr)


def _typical_rate(graphs_of, service) -> float:
    """Graphs per second of a round made of each size class's median
    invocation."""
    seconds = sum(statistics.median(service[c]) for c in graphs_of)
    return _ratio(sum(graphs_of.values()), seconds)


def _best_round(service, traced) -> float:
    """A round's time at the best speed the run saw: the sum over size
    classes of the fastest passed invocation of each.  Interference from
    other work on the host only ever adds time, so the best of several
    samples is the steadiest estimate (the advice of ``timeit``)."""
    return sum(min(times) for (t, _), times in service.items() if t == traced and times)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _layer_unit(name: str) -> str:
    if name.endswith(("calls", "steps", "ball_vertices", "tuples", "count", "ops")):
        return "count"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("self_s", "s_per_step")):
        return "s"
    return "1"


def measure_setup() -> float:
    """Median time for a fresh interpreter to ``import f1zeta.cli``.

    Each interpreter probes its speed during the import (``speed.py``); its
    wall time without the probing is scaled by that speed.  One untimed
    import first compiles the bytecode caches."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(BENCH))))
    # A first probe, which reads slow in a fresh interpreter, comes before
    # the measured import.
    code = ("import time; start = time.perf_counter(); import speed; speed.probe()\n"
            "ready = time.perf_counter() - start\n"
            "with speed.SpeedProbe() as sp:\n"
            "    import f1zeta.cli\n"
            "print([ready + sp.total, sp.samples])")
    cmd = [sys.executable, "-c", code]
    times = []
    for i in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=SETUP_LIMIT_S,
                              capture_output=True, text=True)
        wall = time.perf_counter() - start
        probing, samples = json.loads(proc.stdout)
        if i:
            times.append((wall - probing) * speed.scale(samples))
    return statistics.median(times)


# -- recorded results --------------------------------------------------------------


def _load_expected() -> dict:
    if not EXPECTED.is_file():
        return {}
    return json.loads(EXPECTED.read_text(encoding="utf-8"))["inputs"]


def record(cli, workload: str, rounds: int) -> int:
    """Store the results of the first ``rounds`` rounds at the default seed."""
    data = {"seed": DEFAULT_SEED, "inputs": _load_expected()}
    WORK.mkdir(exist_ok=True)
    path = WORK / f"graph-{os.getpid()}.txt"
    batches = [[inputs.warmup_input(workload, DEFAULT_SEED)]]
    batches += [b for _, b in zip(range(rounds), inputs.rounds(workload, DEFAULT_SEED))]
    try:
        for inp in (i for b in batches for i in b):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(_argv(inp, path))
            problems = check(inp, code, out.getvalue())
            if problems:
                _report_failure(inp, problems, "")
                return 1
            data["inputs"][inp.key] = {
                "input": input_digest(inp), "result": result_of(json.loads(out.getvalue())),
            }
    finally:
        path.unlink(missing_ok=True)
    entries = ",\n".join(f" {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(data["inputs"].items()))
    EXPECTED.write_text(f'{{"seed": {DEFAULT_SEED}, "inputs": {{\n{entries}\n}}}}\n', encoding="utf-8")
    return 0


# -- every workload ----------------------------------------------------------------


def run_all(args) -> int:
    """Each workload ``--runs`` times in fresh processes, then the report."""
    runs = {}
    traced = {}
    status = 0
    for workload in inputs.WORKLOADS:
        runs[workload] = []
        for i in range(args.runs):
            result = _child(workload, args.seed + i, args.seconds, 0)
            runs[workload].append(result)
            status |= result is None or not result["correct"]
        if args.trace:
            traced[workload] = _child(workload, args.seed, args.seconds, 1)
            status |= traced[workload] is None or not traced[workload]["correct"]

    report = {"environment": environment(), "workloads": {}, "traced": {}}
    print(f"# {report['environment']}")
    for workload, results in runs.items():
        done = [r for r in results if r is not None]
        attempted = sum(r["attempted"] for r in done)
        failed = sum(r["failed"] for r in done) + len(results) - len(done)
        summary = {"runs": len(results), "failure_ratio": failed / max(attempted, 1)}
        print(f"\n{workload}: {len(results)} runs; median, quartiles across runs")
        columns = {name: (unit, [r["metrics"][name]["value"] for r in done])
                   for name, unit in END_TO_END_UNITS.items()}
        # The same two before the speed probe's scaling.
        for name, unit in (("raw_graphs_per_s", "graphs/s"), ("raw_latency_p50_s", "s")):
            columns[name] = (unit, [r["info"][name] for r in done if r["info"].get(name)])
        for name, (unit, values) in columns.items():
            if not values:
                continue
            q1, q3 = _quartiles(values)
            summary[name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                             "unit": unit, "values": values}
            note = ""
            if name == "latency_p50_s":
                note = f"  (n = {min(r['info']['latency_samples'] for r in done)}+ samples per run)"
            print(f"  {name:17s} {statistics.median(values):12.5g} {unit:9s}"
                  f" q1 {q1:.5g}  q3 {q3:.5g}{note}")
        print(f"  {'failure_ratio':17s} {summary['failure_ratio']:12.5g} 1")
        report["workloads"][workload] = summary
    for workload, result in traced.items():
        if result is None:
            continue
        report["traced"][workload] = result["metrics"]
        print(f"\n{workload} traced: layers by self time "
              f"(trace.overhead_ratio {result['metrics']['trace.overhead_ratio']['value']:.3f})")
        selfs = {k[: -len(".self_s")]: v["value"] for k, v in result["metrics"].items()
                 if k.endswith(".self_s")}
        total = sum(selfs.values()) or 1.0
        for name, value in sorted(selfs.items(), key=lambda kv: -kv[1]):
            if value:
                print(f"  {name:30s} {value:9.4f} s  {100 * value / total:5.1f} %")
        for key, metric in result["metrics"].items():
            if "doubling_exponent" in key and metric["value"]:
                print(f"  {key} {metric['value']:.2f}")
    print(json.dumps(report))
    return int(bool(status))


def _child(workload, seed, seconds, trace):
    """One run in a fresh process; its last output line, or None if it
    crashed or timed out."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_LIMIT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload} seed {seed}: no result within {CHILD_LIMIT_S} s", file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        print(f"{workload} seed {seed}: exit {proc.returncode} without a result", file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    result["info"] = json.loads(lines[-2]) if len(lines) > 1 else {}
    result["info"].pop("inputs", None)
    return result


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def environment() -> dict:
    import numpy
    import networkx

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown"
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "commit": commit, "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "networkx": networkx.__version__,
    }


if __name__ == "__main__":
    sys.exit(main())
