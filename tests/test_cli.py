import csv
import io

import numpy as np
import pytest

import hermvi as hv
from hermvi.cli import SAMPLES_PER_ELEMENT, main

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


def test_solve_unknown_problem(capsys):
    code, stdout, stderr = run(capsys, "solve", "--problem", "nope", "--elements", "4")
    assert code == 2
    assert "unknown problem" in stderr
    assert stdout == ""


def test_solve_rejects_zero_elements(capsys):
    code, _, stderr = run(capsys, "solve", "--problem", "paper", "--elements", "0")
    assert code == 2


def test_solve_nonconvergence_exit_code(capsys):
    code, _, stderr = run(
        capsys, "solve", "--problem", "paper", "--elements", "16", "--pdas-max-iter", "1"
    )
    assert code == 3
    assert "converge" in stderr


def test_solve_fine_mesh_converges(capsys, tmp_path):
    # a cold-started PDAS needs more than the default 100 iterations here
    code, _, stderr = run(
        capsys, "solve", "--problem", "paper", "--elements", "4096",
        "--output", str(tmp_path / "sol.csv"),
    )
    assert code == 0
    assert "elements: 4096  pdas iterations: 2" in stderr


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


def test_verify_reports_the_solve_kkt_record(capsys, monkeypatch):
    # the discrete check prints the residuals solve_problem recorded
    expected = run(capsys, "verify", "--problem", "paper", "--elements", "8")

    def recompute(*args):
        raise AssertionError("kkt_residual called again")

    monkeypatch.setattr("hermvi.cli.kkt_residual", recompute)
    assert run(capsys, "verify", "--problem", "paper", "--elements", "8") == expected
    assert expected[0] == 0 and "discrete stationarity" in expected[1]


def test_verify_tampered_multiplier_fails(capsys):
    code, stdout, _ = run(capsys, "verify", "--problem", "paper", "--tamper-lambda", "5")
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
        (("verify", "--problem", "unconstrained-smoke", "--tamper-lambda", "1"),
         "--tamper-lambda needs a problem with exact data"),
    ],
    ids=["unknown-problem", "tamper-without-exact-data"],
)
def test_problem_config_error_message(capsys, argv, message):
    code, stdout, stderr = run(capsys, *argv)
    assert code == 2 and stdout == ""
    assert stderr == f"error: {message}\n"


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as excinfo:
        main(["solve", "--problem", "paper", "--frobnicate"])
    assert excinfo.value.code == 2
