"""Seeded inputs for the benchmark workloads.

Standard library only: this module never imports ``f1zeta``, so the inputs
do not depend on the code under test.  Every input is derived from
``(workload, seed, round, position)`` through :class:`random.Random` seeded
with a string, which is stable across processes and Python hash seeds.

A workload is an endless stream of *rounds*.  Each round holds one input of
every size class in a fixed order, so a run that completes whole rounds
always measures the same mix, whatever the seed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb
from random import Random

WORKLOADS = ("sparse_compute", "dense_compute", "verify_corpus")

#: Vertex counts of the ``sparse_compute`` doubling series.
SPARSE_SIZES = (500, 1000, 2000)
#: (vertices, edge density) of the ``dense_compute`` size classes.
DENSE_CLASSES = ((12, 0.8), (14, 0.7), (16, 0.6), (19, 0.5), (22, 0.45))
#: ``verify --corpus`` settings: the exhaustive part (1,470 graphs) dwarfs
#: the random part, whose cost varies from graph to graph.
VERIFY_MAX_AMBIENT = 5
VERIFY_RANDOM = 25
#: Zeta series identity checked on ``dense_compute``: primes and order.
ZETA_PRIMES = (2, 3)
ZETA_ORDER = 6


@dataclass(frozen=True)
class Input:
    """One CLI invocation: its arguments, the graph file it reads (if any),
    and the properties the correctness gate and the report need."""

    key: str
    argv: tuple
    text: str | None
    size_class: int
    props: dict = field(compare=False)

    @property
    def graphs(self) -> int:
        """Graphs this invocation finishes: 1 for ``compute``, the corpus
        size for ``verify --corpus``."""
        return self.props.get("graphs", 1)


def corpus_size(max_ambient: int) -> int:
    """Closed-form size of ``corpus.exhaustive_loose_graphs(max_ambient)``.

    Sum over vertex counts n of 2^C(n,2) edge subsets, times the multisets
    of loose-edge hosts, times the free-edge choices left in the budget.
    """
    total = 0
    for n in range(max_ambient + 1):
        placements = 0
        for loose in range(max_ambient - n + 1):
            hosts = comb(n + loose - 1, loose) if n else int(loose == 0)
            placements += hosts * ((max_ambient - n - loose) // 2 + 1)
        total += 2 ** comb(n, 2) * placements
    return total


def rounds(workload: str, seed: int):
    """Endless stream of rounds (lists of inputs) for one workload."""
    make = _ROUND_MAKERS[workload]
    for r in itertools.count():
        yield make(seed, r)


def warmup_input(workload: str, seed: int) -> Input:
    """An extra input, outside the measured stream, for the warm-up call."""
    return _ROUND_MAKERS[workload](seed, "warmup")[0]


# -- graph construction ---------------------------------------------------------


def _rng(workload, seed, r, i) -> Random:
    return Random(f"{workload}:{seed}:{r}:{i}")


def _render(rng, full, loose_hosts, free) -> str:
    """Graph file text, lines in random order with random edge orientation."""
    lines = [f"edge {u} {v}" if rng.random() < 0.5 else f"edge {v} {u}" for u, v in full]
    lines += [f"loose {h}" for h in loose_hosts]
    lines += ["loose2"] * free
    rng.shuffle(lines)
    return "# generated by bench/inputs.py\n" + "\n".join(lines) + "\n"


def _props(n, full, loose, free, components) -> dict:
    return {
        "vertices": n,
        "full_edges": len(full),
        "loose_edges": loose,
        "free_edges": free,
        "cycle_rank": len(full) - n + components,
        "ambient": n + loose + 2 * free,
    }


def _sparse_graph(rng: Random, n: int):
    """Three random recursive trees, n/50 extra edges, n/4 loose edges and two
    free loose edges; every vertex has an edge, so none is declared alone."""
    names = [f"v{i}" for i in range(n)]
    rng.shuffle(names)
    cuts = (0, n // 2, n // 2 + n // 3, n)
    parts = [names[a:b] for a, b in zip(cuts, cuts[1:])]
    present = set()
    for part in parts:
        for i in range(1, len(part)):
            present.add(frozenset((part[i], part[rng.randrange(i)])))
    extra = 0
    while extra < n // 50:
        part = rng.choices(parts, weights=[len(p) for p in parts])[0]
        pair = frozenset(rng.sample(part, 2))
        if pair not in present:
            present.add(pair)
            extra += 1
    full = sorted(tuple(sorted(p)) for p in present)
    hosts = [rng.choice(names) for _ in range(n // 4)]
    return full, hosts, 2


def _dense_graph(rng: Random, n: int, density: float):
    """A uniform random graph with exactly round(density * C(n,2)) edges,
    three loose edges and one free loose edge."""
    names = [f"v{i}" for i in range(n)]
    pairs = list(itertools.combinations(names, 2))
    full = sorted(rng.sample(pairs, round(density * len(pairs))))
    hosts = [rng.choice(names) for _ in range(3)]
    return full, hosts, 1


def _count_components(vertices, full) -> int:
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in full:
        parent[find(u)] = find(v)
    return len({find(v) for v in vertices})


def _graph_input(workload, seed, r, i, argv, build) -> Input:
    rng = _rng(workload, seed, r, i)
    full, hosts, free = build(rng)
    present = {v for e in full for v in e} | set(hosts)
    text = _render(rng, full, hosts, free)
    props = _props(len(present), full, len(hosts), free, _count_components(present, full))
    return Input(f"{workload}/{seed}/{r}/{i}", tuple(argv), text, i, props)


def _sparse_round(seed, r):
    sizes = SPARSE_SIZES[:1] if r == "warmup" else SPARSE_SIZES
    return [
        _graph_input("sparse_compute", seed, r, i, ("compute", "--json"),
                     lambda rng, n=n: _sparse_graph(rng, n))
        for i, n in enumerate(sizes)
    ]


def _dense_round(seed, r):
    return [
        _graph_input("dense_compute", seed, r, i, ("compute", "--json", "--zeta"),
                     lambda rng, n=n, p=p: _dense_graph(rng, n, p))
        for i, (n, p) in enumerate(DENSE_CLASSES)
    ]


def _verify_round(seed, r):
    # The warm-up call only has to touch every route, so a smaller corpus does.
    max_ambient = VERIFY_MAX_AMBIENT - (r == "warmup")
    corpus_seed = _rng("verify_corpus", seed, r, 0).randrange(2**31)
    argv = ("verify", "--corpus", "--json", "--max-ambient", str(max_ambient),
            "--random", str(VERIFY_RANDOM), "--seed", str(corpus_seed))
    props = {
        "max_ambient": max_ambient,
        "random": VERIFY_RANDOM,
        "corpus_seed": corpus_seed,
        "graphs": corpus_size(max_ambient) + VERIFY_RANDOM,
    }
    return [Input(f"verify_corpus/{seed}/{r}/0", argv, None, 0, props)]


_ROUND_MAKERS = {
    "sparse_compute": _sparse_round,
    "dense_compute": _dense_round,
    "verify_corpus": _verify_round,
}
