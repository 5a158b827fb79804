"""Command-line front end.

Subcommands: ``compute`` (polynomial, zeta, counts, surgery trace for one
graph file), ``verify`` (cross-check one file or a generated corpus),
``qanalog`` and ``monoid`` (calculator front ends).  Exit codes: 0 success,
1 verification failure, 2 usage or I/O error.

``verify --corpus`` checks its graphs in forked children, one per CPU the
process may use (serially when it may use one).  Child i draws the seeded
corpus itself, builds and checks graphs i, i + n, …, writes one JSON
document to its own pipe and leaves by ``os._exit``; nothing is pickled.
The parent reads the pipes in order and interleaves the results.  A child
that dies without writing its answer is an error (exit 2), not a wait.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import itertools
import json
import os
import sys
from dataclasses import dataclass, field
from random import Random

from . import corpus
from .grothendieck import class_of, surgery
from .loose_graph import LooseGraph
from .monoid_spec import MonoidPresentation
from .oracle import count_table, cross_check
from .poly import IntPolynomial
from .qanalog import f1_subspace_count, gauss_binomial, gl_order, q_factorial, q_integer
from .zeta import render_arithmetic_zeta, zeta_from_polynomial


@dataclass
class Report:
    """Everything `compute` knows about one graph, JSON-serializable."""

    vertices: int
    full_edges: int
    loose_edges: int
    free_edges: int
    connected: bool
    polynomial: list
    euler_characteristic: int
    zeta: list | None = None
    zeta_rendered: str | None = None
    arithmetic_zeta: str | None = None
    counts: dict | None = None
    surgery_trace: list | None = None
    verdicts: dict = field(default_factory=dict)

    def __post_init__(self):
        at_one = sum(self.polynomial)
        if at_one != self.vertices or at_one != self.euler_characteristic:
            raise ValueError("polynomial(1) must equal the vertex count")

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        if self.counts is not None:
            out["counts"] = {str(q): c for q, c in self.counts.items()}
        return out


def _primes_list(text: str) -> list:
    try:
        qs = [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        qs = []
    if not qs:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")
    return qs


def _non_negative_int(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"not a non-negative int: {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="f1zeta",
        description="Counting polynomials and zeta functions of loose graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compute", help="analyze one graph file")
    pc.add_argument("path")
    pc.add_argument("--json", action="store_true", help="emit JSON")
    pc.add_argument("--counts", "--primes", type=_primes_list, dest="counts",
                    help="count points over F_q for these prime powers q")
    pc.add_argument("--zeta", action="store_true", help="include zeta data")
    pc.add_argument("--surgery-trace", action="store_true", dest="surgery_trace")
    pc.add_argument("--ascii", action="store_true", help="spell zeta in ASCII")
    pc.add_argument("--csv", action="store_true",
                    help="emit the count table as CSV (needs --counts)")
    pc.set_defaults(func=cmd_compute)

    pv = sub.add_parser("verify", help="cross-check graphs")
    pv.add_argument("path", nargs="?")
    pv.add_argument("--json", action="store_true", help="emit JSON")
    pv.add_argument("--corpus", action="store_true",
                    help="exhaustive small corpus plus random graphs")
    pv.add_argument("--max-ambient", type=_non_negative_int, default=5,
                    help="ambient-vertex bound of the exhaustive corpus (default %(default)s)")
    pv.add_argument("--random", type=_non_negative_int, default=25, dest="random_count",
                    help="number of random graphs for --corpus (default %(default)s)")
    pv.add_argument("--seed", type=int, default=0,
                    help="seed of the random graphs (default %(default)s)")
    # a string default goes through _primes_list on each parse: a fresh list
    pv.add_argument("--primes", type=_primes_list, default="2,3,5",
                    help="prime powers q to count points over (default %(default)s)")
    pv.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    pv.set_defaults(func=cmd_verify)

    pq = sub.add_parser("qanalog", help="q-analog calculators")
    qs = pq.add_subparsers(dest="op", required=True)
    b = qs.add_parser("binom")
    b.add_argument("n", type=int)
    b.add_argument("k", type=int)
    for name in ("qint", "qfact"):
        p = qs.add_parser(name)
        p.add_argument("n", type=int)
    go = qs.add_parser("glorder")
    go.add_argument("d", type=int)
    go.add_argument("n", type=int)
    fs = qs.add_parser("f1subspaces")
    fs.add_argument("n", type=int)
    fs.add_argument("k", type=int)
    pq.set_defaults(func=cmd_qanalog)

    pm = sub.add_parser("monoid", help="monoid spectra")
    pm.add_argument("--json", action="store_true", help="emit JSON (spec only)")
    ms = pm.add_subparsers(dest="op", required=True)
    sp = ms.add_parser("spec")
    sp.add_argument("presentation")
    hc = ms.add_parser("homcount")
    hc.add_argument("presentation")
    hc.add_argument("q", type=int)
    mx = ms.add_parser("maximal")
    mx.add_argument("presentation")
    pm.set_defaults(func=cmd_monoid)

    return parser


# -- compute ------------------------------------------------------------------


def cmd_compute(args) -> int:
    if args.csv and not args.counts:
        print("error: --csv needs --counts", file=sys.stderr)
        return 2
    with open(args.path, encoding="utf-8") as handle:
        g = LooseGraph.parse(handle.read())

    poly = class_of(g)
    components = g.components()
    verdicts = {}

    results = [surgery(c) for c in components]
    traces = [trace for _, trace in results]
    surgery_total = sum((total for total, _ in results), IntPolynomial(0, var="L"))
    verdicts["surgery_agrees"] = surgery_total == poly

    report = Report(
        vertices=len(g.vertices),
        full_edges=len(g.full_edges),
        loose_edges=len(g.loose_edges),
        free_edges=len(g.free_edges),
        connected=len(components) == 1,
        polynomial=poly.to_coefficient_list(),
        euler_characteristic=poly(1),
        verdicts=verdicts,
    )

    if args.zeta:
        z = zeta_from_polynomial(poly)
        report.zeta = z.to_json()
        report.zeta_rendered = z.render("t")
        report.arithmetic_zeta = render_arithmetic_zeta(poly, ascii_zeta=args.ascii)

    if args.counts:
        table = count_table(g, args.counts, graph_id=args.path)
        report.counts = dict(table.samples)
        verdicts["counts_agree"] = all(poly(q) == c for q, c in table.samples)

    if args.surgery_trace:
        report.surgery_trace = [
            {
                "component": i,
                "spanning_tree": sorted(trace.spanning_tree),
                "steps": [
                    {
                        "edge": step.tag,
                        "ends": list(step.ends),
                        "ball": sorted(step.ball),
                        "difference": step.difference.to_coefficient_list(),
                    }
                    for step in trace.steps
                ],
                "tree_class": trace.final_tree_class.to_coefficient_list(),
            }
            for i, trace in enumerate(traces)
        ]

    if args.csv:
        print(dataclasses.replace(table, samples=sorted(table.samples)).to_csv(), end="")
    elif args.json:
        print(json.dumps(report.to_dict(), indent=2, ensure_ascii=False))
    else:
        _print_report(report, poly)
    return 0 if all(report.verdicts.values()) else 1


def _print_report(report: Report, poly) -> None:
    print(f"vertices         : {report.vertices}")
    print(f"full edges       : {report.full_edges}")
    print(f"loose edges      : {report.loose_edges}")
    print(f"free loose edges : {report.free_edges}")
    print(f"connected        : {'yes' if report.connected else 'no'}")
    print(f"class            : {poly.render('L')}")
    print(f"euler char       : {report.euler_characteristic}")
    if report.zeta_rendered is not None:
        print(f"zeta             : {report.zeta_rendered}")
        print(f"arithmetic zeta  : {report.arithmetic_zeta}")
    if report.counts is not None:
        for q, c in sorted(report.counts.items()):
            print(f"points over F_{q}  : {c}")
    for name, verdict in report.verdicts.items():
        print(f"{name:17s}: {'pass' if verdict else 'FAIL'}")
    if report.surgery_trace is not None:
        for trace in report.surgery_trace:
            print(f"surgery component {trace['component']}:")
            print(f"  spanning tree edges {trace['spanning_tree']}")
            for step in trace["steps"]:
                u, v = step["ends"]
                diff = step["difference"]
                print(f"  resolve {u}-{v} (tag {step['edge']}), "
                      f"ball {step['ball']}, difference {diff}")
            print(f"  final tree class {trace['tree_class']}")


# -- verify ---------------------------------------------------------------------


def cmd_verify(args) -> int:
    if args.corpus and args.path:
        print("error: verify takes a path or --corpus, not both", file=sys.stderr)
        return 2
    if not (args.corpus or args.path):
        print("error: verify needs a path or --corpus", file=sys.stderr)
        return 2

    cpus = len(os.sched_getaffinity(0)) if args.corpus and hasattr(os, "sched_getaffinity") else 1
    if cpus == 1:
        results = _check_share(args, 0, 1)
    else:
        parts = _check_in_children(args, cpus)
        results = [parts[i % cpus][i // cpus] for i in range(sum(map(len, parts)))]
    failures = [
        {"graph": rendered, "problems": problems}
        for problems, rendered in results if problems
    ]
    checked = len(results)

    if args.json:
        print(json.dumps(
            {"checked": checked, "passed": checked - len(failures),
             "failures": failures},
            indent=2,
        ))
    else:
        print(f"checked {checked} graphs, {len(failures)} failures")
        for failure in failures:
            print("graph:")
            for line in failure["graph"].splitlines():
                print(f"  {line}")
            for problem in failure["problems"]:
                print(f"  {problem}")
    return 1 if failures else 0


def _inputs(args):
    """The verify input, one zero-argument graph builder per graph: the
    seeded corpus, drawn as constructor arguments, or the one graph parsed
    from ``args.path``.  A share builds only the graphs it checks."""
    if not args.corpus:
        with open(args.path, encoding="utf-8") as handle:
            yield functools.partial(LooseGraph.parse, handle.read())
        return
    for names, specs in corpus.exhaustive_loose_specs(args.max_ambient):
        yield functools.partial(LooseGraph, names, specs)
    rng = Random(args.seed)
    for _ in range(args.random_count):
        names, specs = corpus.random_loose_specs(rng, max_ambient=max(args.max_ambient, 7))
        yield functools.partial(LooseGraph, names, specs)


def _check_share(args, share: int, shares: int) -> list:
    """Cross-check graphs ``share, share + shares, …`` of the verify input.

    Return one ``[problems, rendered graph or None]`` pair per graph, the
    graph rendered only when it has problems.
    """
    results = []
    for i, build in itertools.islice(enumerate(_inputs(args)), share, None, shares):
        g = build()
        report = cross_check(g, primes=args.primes, graph_id=f"graph{i}")
        if args.corrupt and i == 0:  # test hook: make the first graph fail
            report = dataclasses.replace(
                report, class_polynomial=report.class_polynomial + 1
            )
        problems = report.problems
        results.append([problems, g.render() if problems else None])
    return results


def _check_in_children(args, n: int) -> list:
    """Run ``_check_share(args, i, n)`` in ``n`` forked children; return
    their results, share by share.

    Child i answers with one JSON document on its own pipe: ``["ok",
    results]``, ``["error", message]`` for the ``ValueError`` or ``OSError``
    that ``main`` maps to exit 2, or ``["crash", traceback]``.  The parent
    reads the pipes in share order and stops at the first answer that is
    not ``ok``; whatever happens, it then kills and reaps every child it
    started.  A child that left no answer raises ``ChildProcessError``
    with its wait status.
    """
    import signal

    pids, readers, answers = [], [], []
    try:
        for share in range(n):
            with _signals_held() as mask:
                r, w = os.pipe()
                readers.append(open(r, "rb"))
                try:
                    pid = os.fork()
                    if pid == 0:
                        _answer(args, share, n, w, mask)
                    pids.append(pid)
                finally:
                    os.close(w)
        for reader in readers:
            with reader:
                data = reader.read()
            try:
                answers.append(json.loads(data))
            except ValueError:
                answers.append(None)
            if answers[-1] is None or answers[-1][0] != "ok":
                break
    finally:
        for reader in readers:
            reader.close()  # a no-op on the ones already read
        with _signals_held():
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
            statuses = [os.waitpid(pid, 0)[1] for pid in pids]

    for share, answer in enumerate(answers):
        if answer is None:
            raise ChildProcessError(
                f"verify worker {share} exited without an answer (wait status {statuses[share]})"
            )
        kind, body = answer
        if kind == "error":
            raise ValueError(body)
        if kind == "crash":
            raise RuntimeError(f"verify worker {share} raised:\n{body}")
    return [body for _, body in answers]


def _answer(args, share: int, shares: int, fd: int, mask) -> None:
    """In a forked child: check one share, write the answer to ``fd`` and
    leave by ``os._exit``, whatever happens; never returns."""
    import signal

    status = 1
    try:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        try:
            answer = ["ok", _check_share(args, share, shares)]
        except (ValueError, OSError) as exc:
            answer = ["error", str(exc)]
        except BaseException:  # nothing may unwind into the parent's frames
            import traceback

            answer = ["crash", traceback.format_exc()]
        with open(fd, "w", encoding="utf-8") as out:
            json.dump(answer, out)
        status = 0
    finally:
        os._exit(status)


@contextlib.contextmanager
def _signals_held():
    """Hold SIGALRM and SIGINT back inside the block and yield the signal
    mask from before it, so that a handler that raises never lands between
    a fork and the record of its pid, nor in the middle of reaping.
    ``signal`` is imported only where it is used, a start-up cost every
    command would pay otherwise."""
    import signal

    # An empty SIG_BLOCK reads the mask and runs any handler already due.
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, ())
    try:
        signal.pthread_sigmask(signal.SIG_BLOCK, (signal.SIGALRM, signal.SIGINT))
        yield mask
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


# -- calculators ------------------------------------------------------------------


def cmd_qanalog(args) -> int:
    if args.op == "binom":
        out = gauss_binomial(args.n, args.k).render("q")
    elif args.op == "qint":
        out = q_integer(args.n).render("q")
    elif args.op == "qfact":
        out = q_factorial(args.n).render("q")
    elif args.op == "glorder":
        out = str(gl_order(args.d, args.n))
    else:
        out = str(f1_subspace_count(args.n, args.k))
    print(out)
    return 0


def cmd_monoid(args) -> int:
    pres = MonoidPresentation.parse(args.presentation)
    if args.op == "spec":
        primes = pres.spec()
        if args.json:
            print(json.dumps([sorted(p.generators) for p in primes]))
        else:
            print(f"{len(primes)} prime ideals")
            for p in primes:
                print(str(p))
    elif args.op == "homcount":
        print(pres.hom_count(args.q))
    else:
        print(str(pres.maximal_ideal()))
    return 0


_parser = None  # built by the first main() call, not at import


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
