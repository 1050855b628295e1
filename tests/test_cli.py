import argparse
import csv
import dataclasses
import inspect
import io
import re

import numpy as np
import pytest

import hermvi as hv
from hermvi.cli import SAMPLES_PER_ELEMENT, build_parser, main

from table1_reference import COLUMN_INDEX, TABLE1


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------- solve

def test_solve_writes_samples_csv(capsys, tmp_path):
    out = tmp_path / "sol.csv"
    code, stdout, stderr = run(
        capsys, "solve", "--problem", "paper", "--elements", "9", "--output", str(out)
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x,y,dy,d2y,u"
    assert len(lines) == 1 + 9 * 20 + 1  # header + samples + right endpoint
    assert "kkt residuals" in stderr and "active nodes" in stderr


def test_solve_stdout_when_no_output(capsys):
    code, stdout, stderr = run(capsys, "solve", "--problem", "paper", "--elements", "2")
    assert code == 0
    assert stdout.startswith("x,y,dy,d2y,u")


def test_solve_odd_fine_mesh(capsys):
    # an odd count warm-starts from its chain; a cold start finds no stable set here
    code, stdout, stderr = run(capsys, "solve", "--problem", "paper", "--elements", "2047")
    assert code == 0
    assert int(re.search(r"elements: 2047  pdas iterations: (\d+)", stderr).group(1)) <= 3


def test_solve_unknown_problem(capsys):
    code, stdout, stderr = run(capsys, "solve", "--problem", "nope", "--elements", "4")
    assert code == 2
    assert "unknown problem" in stderr
    assert stdout == ""


def test_solve_rejects_zero_elements(capsys):
    code, _, stderr = run(capsys, "solve", "--problem", "paper", "--elements", "0")
    assert code == 2


def test_solve_nonconvergence_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(hv.qp, "MAX_ITER", 1)
    code, _, stderr = run(capsys, "solve", "--problem", "paper", "--elements", "16")
    assert code == 3
    assert "converge" in stderr and "on the 1-element coarse mesh" in stderr


def test_unallocatable_mesh_is_a_config_error(capsys, monkeypatch):
    # exit 2, not the traceback's 1 (which means a failed verify); no test allocates the mesh itself
    message = "Unable to allocate 8.00 TiB for an array with shape (1099511627777,) and data type float64"

    def unallocatable(spec, n_elements):
        raise MemoryError(message)

    monkeypatch.setattr("hermvi.cli.solve_problem", unallocatable)
    code, stdout, stderr = run(capsys, "solve", "--problem", "paper", "--elements", str(2**40))
    assert code == 2 and stdout == ""
    assert stderr == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ("solve", "--problem", "paper", "--elements", str(2**63 - 1)),
    ("verify", "--problem", "paper", "--elements", str(2**63 - 1)),
    ("convergence", "--problem", "paper", "--levels", "0", "63"),
])
def test_unindexable_mesh_is_a_config_error(capsys, argv):
    # build_mesh refuses the count before numpy sees it: exit 2 with one line, nothing allocated
    code, stdout, stderr = run(capsys, *argv)
    assert code == 2 and stdout == ""
    assert re.fullmatch(r"error: cannot index a mesh of \d+ elements: [^\n]*\n", stderr)


def test_solve_fine_mesh_converges(capsys, tmp_path):
    # a cold-started PDAS needs more than MAX_ITER = 100 iterations here
    code, _, stderr = run(
        capsys, "solve", "--problem", "paper", "--elements", "4096",
        "--output", str(tmp_path / "sol.csv"),
    )
    assert code == 0
    assert "elements: 4096  pdas iterations: 1" in stderr


def test_solve_deterministic_output(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run(
            capsys, "solve", "--problem", "paper", "--elements", "9", "--output", str(path)
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_solve_csv_matches_per_value_formatting(capsys, tmp_path):
    # the samples are formatted in one call; the bytes must equal one
    # f"{v:.12e}" per value, comma-joined, one line per sample
    out = tmp_path / "sol.csv"
    code, _, _ = run(capsys, "solve", "--problem", "paper", "--elements", "9", "--output", str(out))
    assert code == 0
    paper = hv.paper_example()
    sol = hv.solve_problem(paper, n_elements=9).solution
    mesh = sol.mesh
    offsets = np.linspace(0.0, 1.0, SAMPLES_PER_ELEMENT, endpoint=False)
    xs = np.append((mesh.nodes[:-1, None] + mesh.h[:, None] * offsets[None, :]).ravel(), 1.0)
    d2ys = hv.evaluate(sol, xs, 2)
    columns = (xs, hv.evaluate(sol, xs, 0), hv.evaluate(sol, xs, 1), d2ys, -(d2ys + paper.f(xs)))
    lines = ["x,y,dy,d2y,u"]
    for row in zip(*columns):
        lines.append(",".join(f"{v:.12e}" for v in row))
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode()


# ----------------------------------------------------------------- convergence

def test_convergence_levels_match_reference_table(capsys):
    code, stdout, _ = run(
        capsys, "convergence", "--problem", "paper",
        "--levels", "0", "1", "2", "3", "4", "5", "6", "7",
        "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(stdout)))
    header, data = rows[0], rows[1:]
    assert len(data) == 8
    h2_col = header.index("H2")
    for row in data:
        nodes = int(row[0])
        got = float(row[h2_col])
        ref = TABLE1[nodes][COLUMN_INDEX["h2"]]
        assert abs(got - ref) / ref <= 0.02, nodes


def test_convergence_two_levels_single_rate_row(capsys):
    code, stdout, _ = run(
        capsys, "convergence", "--problem", "paper", "--levels", "0", "1", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(stdout)))
    assert len(rows) == 3
    assert all(cell == "" for cell in rows[1][6:])
    assert all(cell for cell in rows[2][6:])


def test_convergence_rejects_duplicates(capsys):
    code, _, stderr = run(capsys, "convergence", "--problem", "paper", "--levels", "2", "2")
    assert code == 2
    assert "duplicate" in stderr


def test_convergence_rejects_negative_levels(capsys):
    code, stdout, stderr = run(capsys, "convergence", "--problem", "paper", "--levels", "-1", "2")
    assert code == 2 and stdout == ""
    assert stderr == "error: levels must be nonnegative\n"


def test_convergence_explicit_elements(capsys):
    code, stdout, _ = run(
        capsys, "convergence", "--problem", "paper", "--elements", "4", "8", "--format", "md"
    )
    assert code == 0
    assert stdout.startswith("| nodes")


def test_convergence_needs_levels_or_elements(capsys):
    code, _, stderr = run(capsys, "convergence", "--problem", "paper")
    assert code == 2


# ---------------------------------------------------------------------- verify

def test_verify_continuous_passes(capsys):
    code, stdout, _ = run(capsys, "verify", "--problem", "paper")
    assert code == 0
    assert "PASS" in stdout and "FAIL" not in stdout


def test_verify_discrete_level(capsys):
    code, stdout, _ = run(capsys, "verify", "--problem", "paper", "--elements", "33")
    assert code == 0
    assert "discrete stationarity" in stdout


def test_verify_fine_mesh_passes_on_scaled_stationarity(capsys):
    # the absolute stationarity of a correct 1024-element solve is 4.3e-10 (x86_64),
    # above the 1e-10 that judged it before; the note still shows it
    code, stdout, _ = run(capsys, "verify", "--problem", "paper", "--elements", "1024")
    assert code == 0 and "FAIL" not in stdout
    assert "PASS  discrete stationarity at 1024 elements: worst " in stdout
    assert "[absolute " in stdout


def tamper_multiplier(monkeypatch):
    """Make the CLI's registry return the paper problem with a wrong exact multiplier."""
    paper = hv.get_problem("paper")
    tampered = dataclasses.replace(paper, exact=dataclasses.replace(paper.exact, lam=5.0))
    monkeypatch.setattr("hermvi.cli.get_problem", lambda name: tampered)


@pytest.mark.parametrize("argv, tampered", [
    (("verify", "--problem", "paper", "--elements", "8"), False),
    (("verify", "--problem", "paper"), True),
    (("verify", "--problem", "unconstrained-smoke", "--elements", "8"), False),
], ids=["paper", "tampered", "no-exact-data"])
def test_verify_lines_share_one_format(capsys, monkeypatch, argv, tampered):
    if tampered:
        tamper_multiplier(monkeypatch)
    code, stdout, _ = run(capsys, *argv)
    assert code == (1 if tampered else 0) and ("FAIL" in stdout) == tampered
    lines = stdout.splitlines()
    assert lines and all(
        re.fullmatch(r"(PASS|FAIL)  [^:]+: worst \S+ \(tol \S+\)(  \[.+\])?", line) for line in lines
    ), stdout


def test_verify_reports_the_solve_kkt_record(capsys, monkeypatch):
    # the discrete check prints the residuals solve_problem recorded
    expected = run(capsys, "verify", "--problem", "paper", "--elements", "8")

    def recompute(*args):
        raise AssertionError("kkt_residual called again")

    monkeypatch.setattr("hermvi.cli.kkt_residual", recompute)
    assert run(capsys, "verify", "--problem", "paper", "--elements", "8") == expected
    assert expected[0] == 0 and "discrete stationarity" in expected[1]


def test_verify_tampered_multiplier_fails(capsys, monkeypatch):
    tamper_multiplier(monkeypatch)
    code, stdout, _ = run(capsys, "verify", "--problem", "paper")
    assert code == 1
    assert "FAIL" in stdout


def test_verify_requires_bundle_or_level(capsys):
    code, _, stderr = run(capsys, "verify", "--problem", "unconstrained-smoke")
    assert code == 2
    code, stdout, _ = run(capsys, "verify", "--problem", "unconstrained-smoke", "--elements", "8")
    assert code == 0


@pytest.mark.parametrize(
    "argv, message",
    [
        (("solve", "--problem", "nope", "--elements", "4"),
         "unknown problem 'nope'; known problems: paper, unconstrained-smoke"),
    ],
    ids=["unknown-problem"],
)
def test_problem_config_error_message(capsys, argv, message):
    code, stdout, stderr = run(capsys, *argv)
    assert code == 2 and stdout == ""
    assert stderr == f"error: {message}\n"


def test_unknown_flag_exits_two():
    # the load quadrature, PDAS limit and exact multiplier are fixed: their old flags must fail, not be ignored
    for argv in (
        ["solve", "--problem", "paper", "--frobnicate"],
        ["verify", "--problem", "paper", "--quad-points", "0"],
        ["verify", "--problem", "paper", "--pdas-max-iter", "0"],
        ["verify", "--problem", "paper", "--tamper-lambda", "5"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2, argv


def test_verify_writes_its_report_to_output(capsys, tmp_path):
    expected = run(capsys, "verify", "--problem", "paper", "--elements", "8")
    out = tmp_path / "verify.txt"
    code, stdout, stderr = run(capsys, "verify", "--problem", "paper", "--elements", "8", "--output", str(out))
    assert (code, stdout, stderr) == (expected[0], "", "")
    assert out.read_text() == expected[1]


@pytest.mark.parametrize("command", [
    ("solve", "--problem", "paper", "--elements", "4"),
    ("convergence", "--problem", "paper", "--levels", "0", "1"),
    ("verify", "--problem", "paper"),
], ids=["solve", "convergence", "verify"])
@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_unwritable_output_is_a_config_error(capsys, tmp_path, command, target):
    path = tmp_path / "missing" / "report.txt" if target == "missing-dir" else tmp_path
    code, stdout, stderr = run(capsys, *command, "--output", str(path))
    assert code == 2 and stdout == ""
    assert stderr.startswith(f"error: cannot write {path}: ") and stderr.count("\n") == 1


# --------------------------------------------------------------------- options

#: Settable-option budget; ROADMAP item 3 quotes the same number.
OPTION_BUDGET = 26


def _parameters(obj):
    """Parameters of a function or of a class's constructor."""
    try:
        return inspect.signature(obj).parameters.items()
    except ValueError:  # an exception class that keeps Exception's builtin __init__
        return ()


def settable_options():
    """Defaulted parameters of every function and class constructor in
    ``hermvi.__all__`` plus every flag of every subcommand, as readable
    names."""
    options = [
        f"{name}({param})"
        for name in hv.__all__
        for param, p in _parameters(getattr(hv, name))
        if p.default is not inspect.Parameter.empty
    ]
    subcommands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for command, sub in subcommands.choices.items():
        options += [f"{command} {a.option_strings[-1]}" for a in sub._actions
                    if a.option_strings and not isinstance(a, argparse._HelpAction)]
    return options


def test_settable_option_count_within_budget():
    options = settable_options()
    assert len(options) <= OPTION_BUDGET, f"{len(options)} options:\n" + "\n".join(options)


def test_parser_is_built_once_and_shared_by_calls(capsys):
    assert build_parser() is build_parser()
    pairs = [
        (["convergence", "--problem", "paper", "--levels", "0", "1", "2"],
         ["convergence", "--problem", "paper", "--elements", "3", "5"]),
        (["verify", "--problem", "paper", "--elements", "8"], ["verify", "--problem", "paper"]),
    ]
    for first, second in pairs:
        alone = []
        for argv in (first, second):
            build_parser.cache_clear()
            alone.append(run(capsys, *argv))
        build_parser.cache_clear()
        assert [run(capsys, *first), run(capsys, *second)] == alone
        assert all(code == 0 for code, _, _ in alone)
