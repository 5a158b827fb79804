import argparse
import dataclasses
import gc
import json
import os
import signal
import time
from pathlib import Path
from random import Random

import pytest

from f1zeta import cli, corpus, grothendieck, oracle
from f1zeta.cli import Report, main
from f1zeta.loose_graph import LooseGraph
from f1zeta.poly import IntPolynomial


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.graph"
    path.write_text("edge a b\nedge b c\nedge a c\n")
    return str(path)


@pytest.fixture
def star_file(tmp_path):
    path = tmp_path / "star.graph"
    path.write_text("loose u\nloose u\n")
    return str(path)


DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _cpus(monkeypatch, count):
    """Make the affinity call report ``count`` CPUs, whatever the host has."""
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


# -- compute -----------------------------------------------------------------


def test_compute_triangle(capsys, triangle_file):
    code, out, _ = run(capsys, "compute", triangle_file)
    assert code == 0
    assert "L^2+L+1" in out
    assert "euler char       : 3" in out


def test_compute_triangle_json(capsys, triangle_file):
    code, out, _ = run(
        capsys, "compute", triangle_file, "--json", "--zeta", "--counts", "2,3"
    )
    assert code == 0
    data = json.loads(out)
    assert data["polynomial"] == [1, 1, 1]
    assert data["euler_characteristic"] == 3
    assert data["zeta"] == [
        {"root": 0, "multiplicity": 1},
        {"root": 1, "multiplicity": 1},
        {"root": 2, "multiplicity": 1},
    ]
    assert data["counts"] == {"2": 7, "3": 13}
    assert data["verdicts"]["surgery_agrees"] is True
    assert data["verdicts"]["counts_agree"] is True


def test_compute_json_round_trip(capsys, triangle_file):
    code, out, _ = run(
        capsys, "compute", triangle_file, "--json", "--zeta",
        "--counts", "2", "--surgery-trace",
    )
    assert code == 0
    data = json.loads(out)
    assert list(data) == [f.name for f in dataclasses.fields(Report)]
    assert data["counts"] == {"2": 7}
    assert Report(**{**data, "counts": {2: 7}}).to_dict() == data


def test_compute_affine_star(capsys, star_file):
    code, out, _ = run(capsys, "compute", star_file, "--json", "--zeta")
    assert code == 0
    data = json.loads(out)
    assert data["polynomial"] == [0, 0, 1]
    assert data["zeta"] == [{"root": 2, "multiplicity": 1}]
    assert data["zeta_rendered"] == "1/(t-2)"
    assert data["arithmetic_zeta"] == "ζ(s-2)"


def test_compute_ascii_zeta(capsys, star_file):
    code, out, _ = run(capsys, "compute", star_file, "--zeta", "--ascii")
    assert code == 0
    assert "zeta(s-2)" in out


def test_compute_surgery_trace(capsys, triangle_file):
    code, out, _ = run(capsys, "compute", triangle_file, "--surgery-trace")
    assert code == 0
    assert "resolve" in out
    assert "spanning tree edges" in out


def test_compute_csv(capsys, triangle_file):
    code, out, _ = run(capsys, "compute", triangle_file, "--counts", "2,3", "--csv")
    assert code == 0
    assert out == "q,count\n2,7\n3,13\n"


def test_compute_global_primes_flag_selects_counts(capsys, triangle_file):
    code, out, _ = run(capsys, "compute", triangle_file, "--primes", "5", "--json")
    assert code == 0
    assert json.loads(out)["counts"] == {"5": 31}
    assert run(capsys, "compute", triangle_file, "--counts", "5", "--json") == (code, out, "")


def test_compute_counts_build_the_ambient_completion_once(capsys, triangle_file, monkeypatch):
    calls = []
    build = LooseGraph.ambient_completion

    def counted(self):
        calls.append(self)
        return build(self)

    monkeypatch.setattr(LooseGraph, "ambient_completion", counted)
    code, out, _ = run(capsys, "compute", triangle_file, "--counts", "2,3,4,5,7", "--json")
    assert code == 0
    assert json.loads(out)["counts"] == {"2": 7, "3": 13, "4": 21, "5": 31, "7": 57}
    assert len(calls) == 1


def test_compute_counts_report_the_first_failing_field_size(capsys, tmp_path):
    path = tmp_path / "k9.graph"
    path.write_text("".join(f"edge v{i} v{j}\n" for i in range(9) for j in range(i + 1, 9)))
    code, _, err = run(capsys, "compute", str(path), "--counts", "6,2")
    assert code == 2
    assert err == "error: q = 6 is not a prime power\n"
    code, _, err = run(capsys, "compute", str(path), "--counts", "2,6")
    assert code == 2
    assert err == "error: 9 ambient vertices exceed 8\n"


def test_compute_csv_requires_counts(capsys, monkeypatch, tmp_path, triangle_file):
    code, _, err = run(capsys, "compute", triangle_file, "--csv")
    assert code == 2
    assert "--counts" in err

    # The option check comes first: no file is read and nothing is computed.
    def refuse(g):
        raise AssertionError("class_of ran")

    monkeypatch.setattr(cli, "class_of", refuse)
    for path in (triangle_file, str(tmp_path / "absent.graph")):
        code, _, err = run(capsys, "compute", path, "--csv")
        assert code == 2
        assert err == "error: --csv needs --counts\n"


def test_compute_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "compute", str(tmp_path / "absent.graph"))
    assert code == 2
    assert "error" in err


def test_compute_malformed_file(capsys, tmp_path):
    path = tmp_path / "bad.graph"
    path.write_text("edge a a\n")
    code, _, err = run(capsys, "compute", str(path))
    assert code == 2
    assert "loop" in err


# -- the paused collector ------------------------------------------------------


def _cyclic_garbage(capsys, path):
    """What the collector finds unreachable after one ``compute`` call on
    ``path``, kept by ``DEBUG_SAVEALL``; the debug flags and
    ``gc.garbage`` are restored."""
    flags, kept = gc.get_debug(), gc.garbage[:]
    try:
        gc.collect()
        gc.garbage.clear()
        gc.set_debug(gc.DEBUG_SAVEALL)
        code, _, err = run(capsys, "compute", path, "--json", "--zeta", "--surgery-trace")
        gc.collect()
        found = gc.garbage[:]
    finally:
        gc.set_debug(flags)
        gc.garbage[:] = kept
    assert (code, err) == (0, "")
    return found


def test_compute_leaves_almost_no_cyclic_garbage(capsys, tmp_path, sparse_text):
    """compute pauses the collector because the graph it builds holds no
    reference cycle: what a call leaves to the collector holds no f1zeta
    object, and its size does not grow with the graph."""
    big = tmp_path / "sparse3000.graph"
    big.write_text(sparse_text(Random(37), 3000))
    # The first main() call builds the parser, whose help formatters are
    # left in cycles; build it before counting.
    run(capsys, "qanalog", "qint", "1")
    counts = []
    for path in (DATA / "sparse300.graph", big):
        found = _cyclic_garbage(capsys, str(path))
        assert [o for o in found if type(o).__module__.startswith("f1zeta")] == []
        counts.append(len(found))
    assert counts[0] == counts[1]


@pytest.fixture
def collector():
    """Leave the collector on or off as the test found it."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("was_enabled", [True, False])
@pytest.mark.parametrize("ending, code", [
    ("pass", 0),
    ("surgery disagrees", 1),
    ("missing file", 2),
    ("parse error", 2),
    ("csv without counts", 2),
    ("interrupt", None),
])
def test_compute_restores_the_collector(capsys, monkeypatch, tmp_path, triangle_file, collector,
                                         ending, code, was_enabled):
    """compute runs with the collector off and leaves it as it found it,
    however the command ends."""
    argv = ["compute", triangle_file]
    seen = []

    def class_of(g):
        seen.append(gc.isenabled())
        poly = grothendieck.class_of(g)
        # L^2 - L keeps class(1), so only surgery_agrees fails
        return poly + IntPolynomial({2: 1, 1: -1}, var="L") if ending == "surgery disagrees" else poly

    def interrupt(text):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "class_of", class_of)
    if ending == "missing file":
        argv[1] = str(tmp_path / "absent.graph")
    elif ending == "parse error":
        argv[1] = str(tmp_path / "bad.graph")
        Path(argv[1]).write_text("edge a a\n")
    elif ending == "csv without counts":
        argv.append("--csv")
    elif ending == "interrupt":
        monkeypatch.setattr(LooseGraph, "parse", interrupt)

    (gc.enable if was_enabled else gc.disable)()
    if code is None:
        with pytest.raises(KeyboardInterrupt):
            main(argv)
    else:
        assert run(capsys, *argv)[0] == code
    assert gc.isenabled() == was_enabled
    assert seen == ([False] if code in (0, 1) else [])


def test_main_builds_its_parser_once(capsys, triangle_file, monkeypatch):
    calls = []
    build = cli.build_parser

    def counted():
        calls.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    monkeypatch.setattr(cli, "_parser", None)
    argvs = [
        ["compute", triangle_file, "--json", "--counts", "2,3"],
        ["compute", triangle_file],
        ["compute", triangle_file, "--no-such-flag"],
        ["verify", "--corpus", "--max-ambient", "2"],
        ["verify", triangle_file],
    ]

    def outputs(fresh):
        seen = []
        for argv in argvs:
            if fresh:
                cli._parser = None
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage error
                code = exc.code
            captured = capsys.readouterr()
            seen.append((code, captured.out, captured.err))
        return seen

    shared = outputs(fresh=False)
    assert len(calls) == 1
    assert [code for code, _, _ in shared] == [0, 0, 2, 0, 0]
    assert "counts" not in shared[1][1]
    assert shared == outputs(fresh=True)
    assert len(calls) == 1 + len(argvs)


def _options(parser):
    """Each subcommand's settable options, as tuples of their spellings."""
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: {
            tuple(a.option_strings) for a in command._actions
            if a.option_strings and not isinstance(a, argparse._HelpAction)
        }
        for name, command in sub.choices.items()
    }


def test_each_subcommand_declares_only_the_options_it_reads():
    assert _options(cli.build_parser()) == {
        "compute": {("--json",), ("--counts", "--primes"), ("--zeta",),
                    ("--surgery-trace",), ("--ascii",), ("--csv",)},
        "verify": {("--json",), ("--corpus",), ("--max-ambient",), ("--random",),
                   ("--seed",), ("--primes",)},
        "qanalog": set(),
        "monoid": {("--json",)},
    }


@pytest.mark.parametrize("argv", [
    ["compute", "g.graph", "--seed", "1"],
    ["compute", "g.graph", "--max-ambient", "3"],
    ["qanalog", "--json", "binom", "4", "2"],
    ["qanalog", "--seed", "1", "binom", "4", "2"],
    ["qanalog", "--max-ambient", "3", "binom", "4", "2"],
    ["qanalog", "--primes", "2", "binom", "4", "2"],
    ["monoid", "--seed", "1", "spec", "gens x;"],
    ["monoid", "--max-ambient", "3", "spec", "gens x;"],
    ["monoid", "--primes", "2", "spec", "gens x;"],
    ["verify", "--corpus", "--corrupt"],  # no command has this option
    ["compute", "g.graph", "--counts", "2", "--csv", "--json"],  # one output form
])
def test_options_a_command_does_not_read_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: f1zeta")


# -- verify -------------------------------------------------------------------


def test_verify_single_file(capsys, triangle_file):
    code, out, _ = run(capsys, "verify", triangle_file)
    assert code == 0
    assert "0 failures" in out


def test_verify_corpus_small(capsys):
    code, out, _ = run(
        capsys, "verify", "--corpus", "--max-ambient", "3",
        "--random", "5", "--seed", "17",
    )
    assert code == 0
    first = out
    code, out, _ = run(
        capsys, "verify", "--corpus", "--max-ambient", "3",
        "--random", "5", "--seed", "17",
    )
    assert code == 0
    assert out == first  # deterministic for a fixed seed


def test_verify_streams_the_corpus(capsys, monkeypatch):
    # One CPU: the serial path, where cross_check runs in this process.
    _cpus(monkeypatch, 1)
    drawn = []
    generate = corpus.exhaustive_loose_specs

    def counted(bound):
        for names, specs in generate(bound):
            drawn.append(names)
            yield names, specs

    checked = []
    check = cli.cross_check

    def recording(g, **kwargs):
        checked.append((g, len(drawn)))
        return check(g, **kwargs)

    monkeypatch.setattr(corpus, "exhaustive_loose_specs", counted)
    monkeypatch.setattr(cli, "cross_check", recording)
    code, _, _ = run(
        capsys, "verify", "--corpus", "--max-ambient", "3",
        "--random", "5", "--seed", "17",
    )
    assert code == 0
    assert checked[0][1] == 1  # the first check runs after one graph is drawn
    rng = Random(17)
    expected = list(corpus.exhaustive_loose_graphs(3)) + [
        corpus.random_loose_graph(rng, max_ambient=7) for _ in range(5)
    ]
    assert [g for g, _ in checked] == expected


@pytest.mark.parametrize("share", [0, 1, 2])
def test_a_share_builds_only_the_graphs_it_checks(monkeypatch, share):
    built = []

    def counted(names, specs):
        built.append(LooseGraph(names, specs))
        return built[-1]

    checked = []
    check = cli.cross_check

    def recording(g, **kwargs):
        checked.append((g, kwargs["graph_id"]))
        return check(g, **kwargs)

    monkeypatch.setattr(cli, "LooseGraph", counted)
    monkeypatch.setattr(cli, "cross_check", recording)
    args = cli.build_parser().parse_args(
        ["verify", "--corpus", "--max-ambient", "3", "--random", "5", "--seed", "17"])
    results = cli._check_share(args, share, 3)
    rng = Random(17)
    every = list(corpus.exhaustive_loose_graphs(3)) + [
        corpus.random_loose_graph(rng, max_ambient=7) for _ in range(5)
    ]
    assert built == every[share::3]
    assert checked == [(g, f"graph{i}") for i, g in enumerate(every)][share::3]
    assert results == [[[], None]] * len(built)


def test_verify_defaults_come_from_the_parser(capsys, monkeypatch, triangle_file):
    # One CPU: the serial path, where cross_check runs in this process.
    _cpus(monkeypatch, 1)
    bounds = []
    primes = []
    check = cli.cross_check

    def bounded(bound):
        bounds.append(bound)
        return iter(())

    def recording(g, **kwargs):
        primes.append(kwargs["primes"])
        return check(g, **kwargs)

    monkeypatch.setattr(corpus, "exhaustive_loose_specs", bounded)
    monkeypatch.setattr(cli, "cross_check", recording)
    assert run(capsys, "verify", "--corpus", "--random", "1")[0] == 0
    assert run(capsys, "verify", triangle_file)[0] == 0
    assert run(capsys, "verify", triangle_file, "--primes", "2,4")[0] == 0
    assert bounds == [5]
    assert primes == [[2, 3, 5], [2, 3, 5], [2, 4]]


@pytest.fixture
def corrupt(monkeypatch):
    """``cli.cross_check`` with graph 0's class off by one, so that graph
    fails; forked workers inherit the patch."""
    check = cli.cross_check

    def corrupted(g, **kwargs):
        report = check(g, **kwargs)
        if kwargs["graph_id"] == "graph0":
            report = dataclasses.replace(report, class_polynomial=report.class_polynomial + 1)
        return report

    monkeypatch.setattr(cli, "cross_check", corrupted)


def test_verify_corrupt_hook_fails_with_diff(capsys, triangle_file, corrupt):
    code, out, _ = run(capsys, "verify", triangle_file)
    assert code == 1
    assert "!=" in out
    assert "L^2+L+2" in out  # the corrupted expectation appears in the diff


def test_verify_corrupt_hook_json(capsys, triangle_file, corrupt):
    code, out, _ = run(capsys, "verify", triangle_file, "--json")
    assert code == 1
    data = json.loads(out)
    assert data["checked"] == 1
    assert data["failures"]


def test_verify_names_a_count_that_breaks_interpolation(capsys, triangle_file, monkeypatch):
    walk = oracle._walk
    monkeypatch.setattr(oracle, "_walk", lambda cones, q: walk(cones, q) + (q == 3))
    code, out, err = run(capsys, "verify", triangle_file)
    assert code == 1
    assert "count over F_3: expected 13, got 14" in out
    assert err == ""


# -- verify --corpus in forked workers -------------------------------------------


class _Alarm(Exception):
    pass


def _open_fds():
    """This process's open file descriptors, where ``/proc`` lists them."""
    return set(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else set()


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def two_cpus(monkeypatch):
    """Two CPUs, so that --corpus forks workers even on a one-CPU host; after
    the test, no worker is left, reaped or not, and no pipe end is open."""
    _cpus(monkeypatch, 2)
    fds = _open_fds()
    yield
    _assert_no_child_left()
    assert _open_fds() == fds


def test_pool_prints_the_recorded_corpus_output(capsys, monkeypatch, two_cpus):
    # Each worker draws the seeded corpus itself: no graph is ever pickled.
    def refuse(self, protocol):
        raise AssertionError("a graph was pickled")

    monkeypatch.setattr(LooseGraph, "__reduce_ex__", refuse, raising=False)
    code, out, err = run(capsys, "verify", "--corpus", "--json", "--max-ambient", "4", "--seed", "3")
    assert (code, err) == (0, "")
    assert out.encode() == (DATA / "verify_corpus4_seed3.json").read_bytes()


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_the_parent_checks_share_0_and_forks_a_child_per_further_share(capsys, monkeypatch, cpus):
    fork, forks, shares = os.fork, [], []
    check = cli._check_share

    def recording(args, share, count):
        shares.append((share, count))  # a child's record stays in the child
        return check(args, share, count)

    _cpus(monkeypatch, cpus)
    monkeypatch.setattr(cli.os, "fork", lambda: forks.append(1) or fork())
    monkeypatch.setattr(cli, "_check_share", recording)
    assert run(capsys, "verify", "--corpus", "--max-ambient", "3")[:2] == (
        0, "checked 45 graphs, 0 failures\n")
    _assert_no_child_left()
    assert (len(forks), shares) == (cpus - 1, [(0, cpus)])


@pytest.mark.parametrize("cpus", [2, 3, 5])
@pytest.mark.parametrize("bounds, checked", [
    (["--max-ambient", "3", "--random", "40"], 60),
    (["--max-ambient", "1", "--random", "0"], 2),  # more workers than graphs
], ids=["60graphs", "2graphs"])
def test_pool_reports_a_failure_as_the_serial_path_does(capsys, monkeypatch, corrupt, cpus, bounds, checked):
    argv = ["verify", "--corpus", *bounds]
    _cpus(monkeypatch, cpus)
    pooled = run(capsys, *argv)
    _assert_no_child_left()
    _cpus(monkeypatch, 1)
    serial = run(capsys, *argv)
    assert pooled == serial
    assert pooled[0] == 1 and f"checked {checked} graphs, 1 failures" in pooled[1]


def test_an_oversized_corpus_is_refused_before_any_graph_is_drawn(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a graph of an oversized corpus was checked")

    monkeypatch.setattr(cli, "cross_check", refuse)
    monkeypatch.setattr(cli.corpus, "exhaustive_loose_specs", refuse)
    cases = [
        (["--max-ambient", "7"], "2,352,097"),
        (["--max-ambient", "9", "--random", "0"], "71,216,135,738"),
        (["--max-ambient", "13", "--random", "0"], "more than 74,221,695,164,667,632,723"),
        (["--max-ambient", "100000000000"], "more than 74,221,695,164,667,632,748"),
        (["--max-ambient", "0", "--random", "100000"], "100,001"),
    ]
    for bounds, size in cases:
        start = time.perf_counter()
        assert run(capsys, "verify", "--corpus", *bounds) == (
            2, "", f"error: the corpus holds {size} graphs; verify --corpus checks at most 100,000\n")
        assert time.perf_counter() - start < 1


def test_the_corpus_limit_lets_ambient_6_through(capsys, monkeypatch):
    checked = []
    monkeypatch.setattr(cli, "_check_in_shares", lambda args, n: checked.append(args.max_ambient) or [])
    assert run(capsys, "verify", "--corpus", "--max-ambient", "6")[0] == 0
    assert run(capsys, "verify", "--corpus", "--max-ambient", "0", "--random", "99999")[0] == 0
    assert checked == [6, 0]
    assert corpus.exhaustive_size(6) + 25 <= cli.CORPUS_LIMIT < corpus.exhaustive_size(7)


def test_pool_exits_2_on_a_worker_error(capsys, two_cpus):
    argv = ["verify", "--corpus", "--max-ambient", "4", "--primes", "6"]
    assert run(capsys, *argv) == (2, "", "error: q = 6 is not a prime power\n")


def test_an_input_error_in_a_child_exits_2_as_in_the_parent(capsys, monkeypatch, two_cpus):
    # share 0 runs in the parent, so only a child's error comes down a pipe
    check = cli._check_share

    def refusing(args, share, shares):
        if share == 1:
            raise ValueError(f"share {share} refused")
        return check(args, share, shares)

    monkeypatch.setattr(cli, "_check_share", refusing)
    assert run(capsys, "verify", "--corpus", "--max-ambient", "2") == (2, "", "error: share 1 refused\n")


def test_a_worker_that_dies_without_an_answer_stops_the_run(capsys, monkeypatch, two_cpus):
    check = cli._check_share

    def dying(args, share, shares):
        if share == 1:
            os._exit(1)
        return check(args, share, shares)

    def interrupt(signum, frame):
        raise _Alarm()

    monkeypatch.setattr(cli, "_check_share", dying)
    old = signal.signal(signal.SIGALRM, interrupt)
    try:
        signal.setitimer(signal.ITIMER_REAL, 30)  # a hang fails instead of waiting forever
        start = time.monotonic()
        code, out, err = run(capsys, "verify", "--corpus", "--max-ambient", "4")
        elapsed = time.monotonic() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert (code, out) == (2, "")
    assert err == "error: verify worker 1 exited without an answer (wait status 256)\n"
    assert elapsed < 5


def test_a_worker_crash_shows_its_traceback_in_the_parent(monkeypatch, two_cpus):
    check = cli._check_share

    def crashing(args, share, shares):
        if share == 1:
            raise KeyError(f"share {share} lost")
        return check(args, share, shares)

    monkeypatch.setattr(cli, "_check_share", crashing)
    with pytest.raises(RuntimeError) as exc:
        main(["verify", "--corpus", "--max-ambient", "2"])
    text = str(exc.value)
    assert text.startswith("verify worker 1 raised:\nTraceback (most recent call last):\n")
    assert "in crashing" in text
    assert text.endswith("KeyError: 'share 1 lost'\n")


@pytest.mark.parametrize("delay", [0.001, 0.01, 0.03, 0.1])
def test_pool_leaves_no_worker_when_interrupted(two_cpus, delay):
    # The alarm lands before, while or after the workers are forked, or
    # while their answers are read.
    def interrupt(signum, frame):
        raise _Alarm()

    old = signal.signal(signal.SIGALRM, interrupt)
    try:
        signal.setitimer(signal.ITIMER_REAL, delay)
        with pytest.raises(_Alarm):
            main(["verify", "--corpus", "--max-ambient", "5"])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert signal.SIGALRM not in signal.pthread_sigmask(signal.SIG_BLOCK, ())


def test_verify_needs_input(capsys):
    code, _, err = run(capsys, "verify")
    assert code == 2
    assert "path or --corpus" in err


def test_verify_takes_a_path_or_the_corpus_not_both(capsys):
    path = str(DATA / "dense10.graph")
    argv = ["verify", path, "--corpus", "--max-ambient", "2", "--random", "0"]
    assert run(capsys, *argv) == (2, "", "error: verify takes a path or --corpus, not both\n")


@pytest.mark.parametrize("argv", [
    ["verify", "--corpus", "--max-ambient", "2", "--random", "0", "--primes", "6"],
    ["compute", "{triangle}", "--counts", "6"],
])
def test_both_commands_reject_a_field_size_that_is_not_a_prime_power(
        capsys, triangle_file, argv):
    argv = [a.format(triangle=triangle_file) for a in argv]
    assert run(capsys, *argv) == (2, "", "error: q = 6 is not a prime power\n")


@pytest.mark.parametrize("argv, message", [
    # a large prime is decided at once; then the limits reject it
    (["compute", str(DATA / "dense10.graph"), "--counts", str(2**61 - 1)],
     "15 ambient vertices exceed 8"),
    (["monoid", "homcount", "gens x;", str(10**16 + 61)], "field size must be between 2 and 9"),
    (["verify", "--corpus", "--max-ambient", "1", "--random", "0", "--primes", f"2,{2**89 - 1}"],
     f"q = {2**89 - 1} is too large to decide whether it is a prime power"),
])
def test_a_large_field_size_is_rejected_at_once(capsys, argv, message):
    start = time.monotonic()
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")
    assert time.monotonic() - start < 2


@pytest.mark.parametrize("q", ["6", "0", "1"])
def test_monoid_homcount_rejects_a_field_size_as_compute_does(capsys, q):
    assert run(capsys, "monoid", "homcount", "gens x;", q) == (
        2, "", f"error: q = {q} is not a prime power\n")


@pytest.mark.parametrize("argv", [
    ["verify", "{triangle}", "--primes", "2,2"],
    ["compute", "{triangle}", "--counts", "2,2"],
])
def test_both_commands_reject_repeated_field_sizes(capsys, triangle_file, argv):
    argv = [a.format(triangle=triangle_file) for a in argv]
    assert run(capsys, *argv) == (2, "", "error: duplicate field sizes\n")


@pytest.mark.parametrize("argv", [
    ["verify", "--corpus", "--max-ambient", "2", "--random", "0", "--primes", ","],
    ["verify", "{triangle}", "--primes", ""],
    ["compute", "{triangle}", "--counts", ","],
    ["compute", "{triangle}", "--primes", ",", "--csv"],
])
def test_an_empty_field_size_list_is_a_usage_error(capsys, triangle_file, argv):
    with pytest.raises(SystemExit) as exc:
        main([a.format(triangle=triangle_file) for a in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not a comma-separated int list" in captured.err


@pytest.mark.parametrize("argv", [
    ["--max-ambient", "-1", "--random", "0"],
    ["--max-ambient", "2", "--random", "-3"],
    ["--max-ambient", "two"],
])
def test_verify_bounds_must_be_non_negative_ints(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--corpus", *argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not a non-negative int" in captured.err


def test_verify_seed_may_be_negative(capsys):
    args = ["verify", "--corpus", "--max-ambient", "0", "--random", "1"]
    assert run(capsys, *args, "--seed", "-3")[0] == 0


# -- calculators ------------------------------------------------------------------


def test_qanalog_binom(capsys):
    code, out, _ = run(capsys, "qanalog", "binom", "4", "2")
    assert code == 0
    assert out.strip() == "q^4+q^3+2q^2+q+1"


def test_qanalog_qint_qfact(capsys):
    assert run(capsys, "qanalog", "qint", "3")[1].strip() == "q^2+q+1"
    assert run(capsys, "qanalog", "qfact", "2")[1].strip() == "q+1"


def test_qanalog_glorder_and_subspaces(capsys):
    assert run(capsys, "qanalog", "glorder", "3", "1")[1].strip() == "6"
    assert run(capsys, "qanalog", "f1subspaces", "2", "1")[1].strip() == "3"


def test_qanalog_invalid_arguments(capsys):
    code, _, err = run(capsys, "qanalog", "binom", "2", "5")
    assert code == 2
    assert "error" in err


def test_monoid_spec(capsys):
    code, out, _ = run(capsys, "monoid", "spec", "gens x y;")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "4 prime ideals"
    assert lines[1:] == ["{0}", "(x)", "(y)", "(x,y)"]


def test_monoid_spec_json(capsys):
    code, out, _ = run(capsys, "monoid", "--json", "spec", "gens x y;")
    assert code == 0
    assert out == '[[], ["x"], ["y"], ["x", "y"]]\n'


def test_monoid_homcount(capsys):
    code, out, _ = run(capsys, "monoid", "homcount", "gens x y; rel x*y = 1;", "7")
    assert code == 0
    assert out.strip() == "6"


def test_monoid_maximal(capsys):
    code, out, _ = run(capsys, "monoid", "maximal", "gens x y; rel x*y = 1;")
    assert code == 0
    assert out.strip() == "{0}"


def test_monoid_maximal_without_primes_exits_2(capsys):
    code, out, err = run(capsys, "monoid", "maximal", "gens x; rel 1 = 0;")
    assert code == 2
    assert out == ""
    assert "no prime ideals" in err


def test_monoid_bad_presentation(capsys):
    code, _, err = run(capsys, "monoid", "spec", "gens x; rel y = 1;")
    assert code == 2
    assert "error" in err


# -- recorded outputs ------------------------------------------------------------


@pytest.mark.parametrize("argv, recorded", [
    (["compute", "--json", "--zeta", "--surgery-trace", "dense10.graph"], "dense10.compute.json"),
    (["compute", "--json", "--zeta", "--surgery-trace", "k6_loose2.graph"], "k6_loose2.compute.json"),
    (["verify", "--corpus", "--json", "--max-ambient", "4", "--seed", "3"], "verify_corpus4_seed3.json"),
    (["compute", "--json", "--zeta", "--surgery-trace", "sparse300.graph"], "sparse300.compute.json"),
    (["compute", "--json", "--zeta", "--surgery-trace", "dense22.graph"], "dense22.compute.json"),
])
def test_output_is_byte_identical_to_the_recorded_file(capsys, argv, recorded):
    """The files under tests/data hold what these commands printed before
    class_of summed its clique rows by Horner's rule in (1 - L); the sparse
    300-vertex graph's was recorded before class_of walked mask frames and
    parse checked each id once, and the dense 22-vertex graph's before
    surgery kept one mask table for its whole walk."""
    argv = [str(DATA / a) if a.endswith(".graph") else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.encode() == (DATA / recorded).read_bytes()
