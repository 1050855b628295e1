"""hermvi benchmark: run one workload and print its metrics.

    python3 hermbench/run.py --workload paper-fine --seed 1 --seconds 30 --trace 0

Run from the repository root (any directory works; paths are resolved from
this file).  The package is imported from ``src/`` next to this directory.
Each workload is a closed loop: one caller, the next operation starts when
the last one has returned, after one untimed warm-up operation.  Every
operation's output is checked outside the timed region; a failed check or
an exception counts as a failed operation.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced operations and reports the per-layer metrics derived
from the spans, plus the tracing overhead.  A human-readable summary comes
first; the last line of standard output is the JSON result.  The full
record (environment, samples, counts, known defects) and, with tracing,
the spans are written under ``.bench_out/``.
"""

from __future__ import annotations

import os

#: BLAS/OpenMP thread count, pinned before numpy is imported.
PINNED_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(PINNED_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REQUIRED = (SRC / "hermvi" / "__init__.py", ROOT / "tests" / "table1_reference.py")
#: Declares the metrics and their units; the run must emit exactly these.
CONFIG = ROOT / "BENCHMARK.json"
WORKLOAD_NAMES = ("paper-fine", "paper-study", "unbound-fine")

#: Fresh interpreters started per run to measure ``setup_s``.
SETUP_REPEATS = 5
#: In-process problem builds per run; their median is ``problems.spec_s``.
SPEC_REPEATS = 5
#: Share of ``op_s`` samples dropped at each end before averaging.  On the
#: defining host this 10%-trimmed mean spread less across runs than the
#: median of the same samples, and it still ignores a stalled operation.
TRIM = 0.1
#: Reference deviation reported when no operation produced a report (100%).
NO_REFERENCE = 1.0

SETUP_CHILD = """\
import sys, time
sys.path[:0] = [{src!r}, {here!r}]
t0 = time.perf_counter()
import hermvi
from workloads import make_workloads
make_workloads({quick!r})[{name!r}].build({seed!r})
print(time.perf_counter() - t0)
"""

def parse_args(argv):
    p = argparse.ArgumentParser(description="Run one hermvi benchmark workload.")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True, help="input seed (used by unbound-fine)")
    p.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: per-layer metrics from a traced run")
    p.add_argument("--quick", action="store_true",
                   help="reduced problem sizes and one set-up sample (harness self-check)")
    return p.parse_args(argv)


def environment(np, scipy) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "pinned_threads": PINNED_THREADS,
        "longdouble_eps": float(np.finfo(np.longdouble).eps),
    }


def measure_setup(name: str, seed: int, quick: bool, repeats: int, calibration) -> tuple:
    """Seconds to import hermvi and build the problem, each in a fresh interpreter.

    Returns the wall seconds and the same in reference seconds.
    """
    code = SETUP_CHILD.format(src=str(SRC), here=str(HERE), quick=quick, name=name, seed=seed)
    wall, scaled = [], []
    before = calibration.measure()
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True,
            text=True, timeout=120, check=True,
        )
        wall.append(float(done.stdout.split()[-1]))
        after = calibration.measure()
        scaled.append(calibration.scale(wall[-1], before, after))
        before = after
    return wall, scaled


class Sample:
    __slots__ = ("seconds", "scaled", "traced", "failures", "info", "profile")

    def __init__(self, seconds, traced, failures, info, profile=None):
        self.seconds = seconds
        self.scaled = None
        self.traced = traced
        self.failures = failures
        self.info = info
        self.profile = profile


def run_op(workload, problem, ctx, tracer=None, op_id=None) -> Sample:
    """One operation, then its correctness check (untimed)."""
    gc.collect()
    out, failures, profile = None, [], None
    if tracer is not None:
        tracer.begin_op(op_id)
    t0 = perf_counter()
    try:
        out = workload.op(problem, ctx)
    except Exception:  # an operation failure is a measured outcome
        failures.append(traceback.format_exc())
    seconds = perf_counter() - t0
    if tracer is not None:
        profile = tracer.end_op()
        seconds = profile.duration
    info = {}
    if not failures:
        try:
            failures, info = workload.check(problem, out, ctx)
        except Exception:
            failures = [traceback.format_exc()]
    for failure in failures:
        print(f"operation failed: {failure}", file=sys.stderr)
    return Sample(seconds, tracer is not None, failures, info, profile)


def layer_metrics(p) -> dict:
    """Per-layer metrics of one traced operation, except the KKT residuals."""
    t, c, own = p.total, p.calls, p.self_time
    pdas = p.attrs("qp.solve_pdas")
    iterations = sum(a["iterations"] for a in pdas)
    pdas_factors = sum(
        n for anc, n in p.count_within("assembly.factor", "qp.solve_pdas").items()
        if anc is not None
    )
    m = {
        "mesh.build_mesh_s": t["mesh.build_mesh"],
        "mesh.evaluate_s": t["mesh.evaluate"],
        "mesh.evaluate_points": sum(a["points"] for a in p.attrs("mesh.evaluate")),
        "assembly.energy_s": t["assembly.assemble_energy"],
        "assembly.load_s": t["assembly.assemble_load"],
        "assembly.bounds_s": t["assembly.constraint_bounds"],
        "assembly.dirichlet_s": t["assembly.apply_dirichlet"],
        "assembly.to_qp_s": t["assembly.to_qp"],
        "qp.pdas_s": t["qp.solve_pdas"],
        "qp.pdas_self_s": own["qp.solve_pdas"],
        "qp.pdas_iterations": iterations,
        "qp.pdas_iter_s": t["qp.solve_pdas"] / iterations if iterations else 0.0,
        "qp.factor_calls_per_iter": pdas_factors / iterations if iterations else 0.0,
        "qp.active_nodes": pdas[-1]["active"] if pdas else 0,
        "qp.kkt_s": t["qp.kkt_residual"],
        "qp.pdas_share": t["qp.solve_pdas"] / p.duration,
        "problems.verify_kkt_s": t["problems.verify_continuous_kkt"],
        "solver.solve_s": t["solver.solve_problem"],
        "solver.self_s": p.layer_self["solver"],
        "solver.solves": c["solver.solve_problem"],
        "solver.reduced_dofs": sum(a["reduced_dofs"] for a in p.attrs("solver.solve_problem")),
        "analysis.error_norms_s": t["analysis.error_norms"],
        "analysis.linf_scan_s": p.child_total("mesh.evaluate", "analysis.error_norms"),
        "analysis.norm_pass_s": own["analysis.error_norms"],
        "analysis.render_s": t["analysis.render_report"],
        "cli.main_s": t["cli.main"],
        "cli.self_s": p.layer_self["cli"],
        "trace.op_mean_s": p.duration,
        "trace.spans": p.last - p.first,
    }
    for method in ("submatrix", "factor", "residual", "matvec"):
        m[f"assembly.{method}_s"] = t[f"assembly.{method}"]
        m[f"assembly.{method}_calls"] = c[f"assembly.{method}"]
    for layer, seconds in p.layer_self.items():
        m[f"self.{layer}_s"] = seconds
    return m


def median(values) -> float:
    return float(statistics.median(values))


def trimmed_mean(values, cut: float = TRIM) -> float:
    """Mean after dropping the ``cut`` share of values at each end."""
    values = sorted(values)
    k = int(len(values) * cut)
    return statistics.fmean(values[k:len(values) - k])


def run(args) -> int:
    sys.path[:0] = [str(SRC), str(HERE)]
    import numpy as np
    import scipy

    import hermvi

    if not Path(hermvi.__file__).resolve().is_relative_to(SRC):
        print(f"error: hermvi imported from {hermvi.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from calibration import CALIB_REF_S, Calibration
    from tracing import LAYERS, Tracer
    from workloads import (
        KNOWN_DEFECTS, Context, load_reference, make_workloads, scaled_stationarity,
    )

    workload = make_workloads(args.quick)[args.workload]
    table, acceptance = load_reference(ROOT)
    env = environment(np, scipy)
    OUT.mkdir(exist_ok=True)
    tmp_dir = OUT / f"tmp-{os.getpid()}"
    tmp_dir.mkdir()
    ctx = Context(tmp_dir, table, acceptance)
    try:
        calibration = Calibration()
        setup, setup_scaled = measure_setup(
            args.workload, args.seed, args.quick, 1 if args.quick else SETUP_REPEATS, calibration,
        )
        spec_builds = []
        for _ in range(1 if args.quick else SPEC_REPEATS):
            t0 = perf_counter()
            problem = workload.build(args.seed)
            spec_builds.append(perf_counter() - t0)

        harness_errors = []
        warm = run_op(workload, problem, ctx)
        if warm.failures:
            harness_errors.append("warm-up operation failed")

        tracer = Tracer() if args.trace else None
        samples = []
        deadline = perf_counter() + args.seconds
        before = calibration.measure()
        while not samples or perf_counter() < deadline:
            for traced in (False, True) if tracer is not None else (False,):
                sample = run_op(workload, problem, ctx, tracer if traced else None, len(samples))
                after = calibration.measure()
                sample.scaled = calibration.scale(sample.seconds, before, after)
                before = after
                samples.append(sample)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.workload == "paper-study":
            reported = [s.info for s in samples if s.info]
            reference = {k: median(i[k] for i in reported) for k in reported[0]} if reported else {}
        else:
            reference = ctx.reference_study(args.quick)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)

    attempted = len(samples)
    failed = sum(1 for s in samples if s.failures)
    untraced = [s.seconds for s in samples if not s.traced]
    untraced_scaled = [s.scaled for s in samples if not s.traced]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "quick": args.quick, "environment": env,
        "known_defects": KNOWN_DEFECTS[args.workload],
        "attempted": attempted, "failed": failed,
        "op_wall_s": median(untraced), "setup_wall_s": median(setup),
        "op_samples_s": untraced, "op_samples_ref_s": untraced_scaled,
        "setup_samples_s": setup, "setup_samples_ref_s": setup_scaled,
        "calibration_samples_s": calibration.samples, "calibration_ref_s": CALIB_REF_S,
        "spec_build_samples_s": spec_builds,
    }
    if not args.trace:
        values = {
            "op_s": trimmed_mean(untraced_scaled),
            "setup_s": median(setup_scaled),
            "peak_rss_mb": peak_rss_mb,
            "success_rate": (attempted - failed) / attempted,
            "ref_err_max": 100.0 * reference.get("ref_err_max", NO_REFERENCE),
        }
        record["counts"] = {k: samples[0].info.get(k) for k in ("reduced_dofs", "pdas_iterations")
                            if k in samples[0].info}
    else:
        traced = [s for s in samples if s.traced]
        per_op = [layer_metrics(s.profile) for s in traced]
        values = {k: statistics.fmean(m[k] for m in per_op) for k in per_op[0]}
        if tracer.last_kkt is not None:
            # residual of the last QP the last traced operation checked
            qp, sol = tracer.last_kkt
            values["qp.kkt_stationarity"], values["qp.kkt_stationarity_scaled"] = (
                scaled_stationarity(qp, sol.x, sol.multipliers))
        values["problems.spec_s"] = median(spec_builds)
        values["analysis.ref_err_fine_max"] = 100.0 * reference.get("ref_err_fine_max", NO_REFERENCE)
        values["trace.op_s"] = median(s.seconds for s in traced)
        values["trace.untraced_op_s"] = median(untraced)
        # each traced op directly follows an untraced one; pairing them and
        # comparing reference seconds keeps host drift out of the difference
        values["trace.overhead_s"] = median(
            b.scaled - a.scaled for a, b in zip(samples[::2], samples[1::2])
        )
        values["trace.calib_s"] = median(calibration.samples)
        for s in traced:
            drift = sum(s.profile.layer_self.values()) - s.profile.duration
            if abs(drift) > 1e-9 * max(1.0, s.profile.duration):
                harness_errors.append(f"self times miss the op time by {drift:.3e} s")
        solves = [s.profile.solves() for s in traced]
        record["counts"] = {"per_solve": solves[0], "repeat_exactly": all(x == solves[0] for x in solves)}
        if not record["counts"]["repeat_exactly"]:
            harness_errors.append("per-solve counts differ between operations")
        spans_path = OUT / f"spans_{args.workload}_seed{args.seed}.json"
        spans_path.write_text(json.dumps(tracer.to_records()), encoding="utf-8")
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    declared = json.loads(CONFIG.read_text(encoding="utf-8"))["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    missing = set(units) ^ set(values)
    if missing:
        harness_errors.append(f"metric set mismatch: {sorted(missing)}")
    metrics = {k: {"value": float(values[k]), "unit": units[k]} for k in units if k in values}
    record["metrics"] = metrics
    record["harness_errors"] = harness_errors
    (OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {attempted} ops, {failed} failed "
          f"(error_rate {failed / attempted:.3f}); op_wall_s {record['op_wall_s']:.4f} s "
          f"(median wall of {len(untraced)} untraced ops); setup_wall_s {record['setup_wall_s']:.4f} s; "
          f"calibration kernel median {median(calibration.samples):.4f} s (reference {CALIB_REF_S} s)")
    print("environment: " + json.dumps(env))
    print("counts: " + json.dumps(record["counts"]))
    if args.trace:
        print(f"PDAS share {values['qp.pdas_share']:.3f} of the traced op time "
              f"{values['trace.op_mean_s']:.4f} s (mean of {len(traced)} traced ops); "
              "self time by layer: "
              + ", ".join(f"{layer} {values[f'self.{layer}_s']:.4f}" for layer in LAYERS))
    for line in harness_errors:
        print(f"harness error: {line}", file=sys.stderr)
    correct = failed == 0 and not harness_errors
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"error: program sources not found: {', '.join(missing)}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
