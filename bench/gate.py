"""Correctness gate applied to every benchmark invocation.

:func:`check` returns the list of problems with one invocation's output;
an empty list means it passed.  The checks are:

* exit code 0 and, for ``compute``, every JSON verdict true;
* the report's vertex and edge counts match the generated input, and
  class(1) equals the vertex count;
* with ``--zeta``, ``local_zeta_series`` and ``counting_series`` of the
  class agree at two small primes to a fixed order;
* for ``verify --corpus``, passed == checked == the closed-form corpus size
  plus the random graphs;
* where a recorded entry exists, the input is the recorded one and the
  result equals the recorded result.
"""

from __future__ import annotations

import hashlib
import json

from inputs import ZETA_ORDER, ZETA_PRIMES


def input_digest(inp) -> str:
    """Stable digest of what an invocation reads: its arguments and file."""
    payload = "\0".join(inp.argv) + "\0" + (inp.text or "")
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def result_of(out: dict) -> dict:
    """The part of a CLI report that is recorded and compared."""
    if "checked" in out:
        return {"checked": out["checked"], "passed": out["passed"]}
    return {"polynomial": out["polynomial"]}


def check(inp, code: int, stdout: str, recorded: dict | None = None) -> list:
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    try:
        out = json.loads(stdout)
    except ValueError:
        return problems + ["output is not JSON"]
    try:
        problems += _check_verify(inp, out) if inp.argv[0] == "verify" else _check_compute(inp, out)
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"malformed report: {exc!r}")
    if recorded is not None:
        if recorded["input"] != input_digest(inp):
            problems.append("input differs from the recorded one; record again")
        elif not problems and result_of(out) != recorded["result"]:
            problems.append(f"result {result_of(out)} != recorded {recorded['result']}")
    return problems


def _evaluate(coefficients, x) -> int:
    return sum(c * x**k for k, c in enumerate(coefficients))


def _check_compute(inp, out) -> list:
    problems = [f"verdict {name} is false" for name, ok in out["verdicts"].items() if not ok]
    for key in ("vertices", "full_edges", "loose_edges", "free_edges"):
        if out[key] != inp.props[key]:
            problems.append(f"{key}: report {out[key]} != input {inp.props[key]}")
    poly = out["polynomial"]
    if _evaluate(poly, 1) != inp.props["vertices"]:
        problems.append(f"class(1) = {_evaluate(poly, 1)} != {inp.props['vertices']} vertices")
    if "--zeta" in inp.argv:
        problems += _check_zeta(poly)
    return problems


def _check_zeta(coefficients) -> list:
    # Looked up at call time so a traced run sees its wrappers.
    from f1zeta import poly, zeta

    p = poly.IntPolynomial.from_coefficient_list(coefficients, var="L")
    return [
        f"local zeta series != counting series at p = {prime}"
        for prime in ZETA_PRIMES
        if zeta.local_zeta_series(p, prime, ZETA_ORDER) != zeta.counting_series(p, prime, ZETA_ORDER)
    ]


def _check_verify(inp, out) -> list:
    want = inp.props["graphs"]
    problems = []
    if not out["checked"] == out["passed"] == want:
        problems.append(f"checked {out['checked']}, passed {out['passed']}, expected {want}")
    problems += [f"failure: {f['problems']}" for f in out["failures"]]
    return problems
