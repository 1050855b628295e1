"""One SHA-256 over the outputs that a change claiming the same bits must keep.

Run from the repository root, with ``hermvi`` installed::

    python tests/fingerprint.py

or, against a checkout's ``src``, ``PYTHONPATH=src python tests/fingerprint.py``.
It prints the digest of :data:`FULL`: every level's coefficients, active
nodes, iteration count and KKT record of each solve listed there (or the
error a solve raises), a ``paper`` study's norms and CSV, the lines of
``verify_continuous_kkt(paper_example())``, and the exit code, stdout and
stderr of each ``hermvi`` command listed there, run through
:func:`hermvi.cli.main`.  Run it against two versions of ``src`` on one
machine: equal digests mean the same bits.  The bits depend on the
platform's ``long double`` and on numpy, so digests from different
machines or environments do not compare.

Floats are hashed as float64 bytes or by ``repr``, never as long-double
bytes: a long double's padding bytes are never initialised, so the same
value hashes differently from one process to the next.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
from pathlib import Path

import hermvi as hv
import hermvi.cli

from conftest import corpus_spec, nonuniform_mesh

HERMBENCH = Path(__file__).resolve().parents[1] / "hermbench"

#: The same-bits list: ``paper`` at each count, ``paper`` on ``nonuniform_mesh(seed, n)``,
#: ``corpus_spec(seed)`` and ``unbound-fine``'s spec of a seed at n elements, and a ``paper``
#: study over levels 2^k, and the argv of each CLI command.
FULL = dict(
    paper=(1, 2, 3, 5, 16, 33, 64, 96, 100, 640, 1000, 1024, 2047, 2048, 3072, 4096, 8192),
    nonuniform=tuple((seed, n) for seed in (1, 2, 3) for n in (200, 1000)),
    corpus=tuple((seed, 512) for seed in range(1, 13)),
    unbound=((1, 4096),),
    study_levels=tuple(range(12)),
    cli=(
        "verify --problem paper",
        "verify --problem paper --elements 1024",
        "solve --problem paper --elements 1",
        "solve --problem paper --elements 4096",
        "solve --problem unconstrained-smoke --elements 64",
        "convergence --problem paper --levels 0 1 2 3 4 5 6 7 8 9 10 11 --format csv",
        "convergence --problem paper --levels 0 1 2 3 4 5 6 7 8 9",
        "convergence --problem paper --elements 3 5 6 --format csv",
    ),
)

#: A short list of the same kinds, for a check that runs in well under a second.
SHORT = dict(
    paper=(1, 16, 33), nonuniform=((1, 40),), corpus=((1, 64),), unbound=((1, 64),), study_levels=(0, 1, 2, 3),
    cli=("verify --problem paper --elements 8", "convergence --problem paper --levels 0 1 2 --format csv"),
)


def unbound_spec(seed: int) -> hv.ProblemSpec:
    """``unbound-fine``'s spec of ``seed``, from the benchmark's workload module."""
    spec = importlib.util.spec_from_file_location("hermbench_workloads", HERMBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.UnboundFine(0).build(seed)


def solves(paper, nonuniform, corpus, unbound):
    """``(label, spec, where)`` of each solve, ``where`` the keywords of ``solve_problem``."""
    spec = hv.paper_example()
    yield from ((f"paper/{n}", spec, {"n_elements": n}) for n in paper)
    yield from ((f"paper/nonuniform-{s}/{n}", spec, {"mesh": nonuniform_mesh(s, n)}) for s, n in nonuniform)
    yield from ((f"corpus-{s}/{n}", corpus_spec(s), {"n_elements": n}) for s, n in corpus)
    yield from ((f"unbound-{s}/{n}", unbound_spec(s), {"n_elements": n}) for s, n in unbound)


def digest(paper, nonuniform, corpus, unbound, study_levels, cli) -> str:
    """The SHA-256 of the solves, the study, the continuous checks and the CLI commands, in hex."""
    sha = hashlib.sha256()

    def text(*items):
        sha.update(("\n".join(map(str, items)) + "\n").encode())

    for label, spec, where in solves(paper, nonuniform, corpus, unbound):
        text(label)
        try:
            levels = hv.solve_problem(spec, **where).levels
        except (hv.NonConvergenceError, hv.MatrixNotSpdError) as exc:
            text(type(exc).__name__, exc)
            continue
        for level in levels:
            sha.update(level.coefficients.astype(float).tobytes())
            text(level.active_nodes, level.iterations, *map(repr, map(float, level.kkt)))
    report = hv.run_convergence_study(hv.paper_example(), [2**k for k in study_levels])
    for r in report.reports:
        text(*(repr(float(getattr(r, name))) for name in r.NORM_FIELDS))
    text(hv.render_report(report, format="csv"))
    for check in hv.verify_continuous_kkt(hv.paper_example()):
        text(check.line(), repr(float(check.worst)))
    for argv in cli:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = hv.cli.main(argv.split())
        text(argv, code, out.getvalue(), err.getvalue())
    return sha.hexdigest()


if __name__ == "__main__":
    print(digest(**FULL))
