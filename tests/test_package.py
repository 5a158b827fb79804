import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import f1zeta

ROOT = Path(__file__).resolve().parent.parent


def test_all_lists_each_public_name_once_and_every_name_resolves():
    assert len(f1zeta.__all__) == len(set(f1zeta.__all__))
    for name in f1zeta.__all__:
        assert hasattr(f1zeta, name), name


def test_surgery_trace_fields_are_pinned():
    names = [f.name for f in dataclasses.fields(f1zeta.SurgeryTrace)]
    assert names == ["spanning_tree", "steps", "final_tree_class"]
    names = [f.name for f in dataclasses.fields(f1zeta.SurgeryStep)]
    assert names == ["tag", "ends", "ball", "difference"]


def test_verify_runs_with_numpy_unimportable():
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from f1zeta.cli import main\n"
        "sys.exit(main(['verify', '--corpus', '--max-ambient', '3']))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr


def test_verify_corpus_forks_its_workers_without_multiprocessing():
    # Two CPUs in the affinity mask: the parent checks share 0 itself and
    # forks one child, for share 1.
    script = (
        "import os, sys\n"
        "sys.modules['multiprocessing'] = None\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "fork, forks = os.fork, []\n"
        "os.fork = lambda: forks.append(1) or fork()\n"
        "from f1zeta.cli import main\n"
        "code = main(['verify', '--corpus', '--max-ambient', '3'])\n"
        "print(len(forks), sys.modules['multiprocessing'])\n"
        "sys.exit(code)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "checked 45 graphs, 0 failures\n1 None\n"
