#!/usr/bin/env python3
"""lp-isoforge benchmark: drive the CLI workloads in-process and report metrics.

One workload, as a single closed-loop client (one operation at a time, one
process, no threads), for about ``--seconds`` seconds:

    python3 perfbench/run.py --workload certify-p6 --seed 1 --seconds 28 --trace 0

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` the run first repeats the workload
untraced for half the time, then installs the span tracer (tracer.py) and
reports the per-layer metrics, each a median over the traced cycles.  The
lines above it give the environment, per-operation medians and the
``error_rate``, and a JSON copy of everything goes to
``.bench_build/perfbench/`` in the checkout.

All four workloads, one child process each, with a summary table (exit 1
if any operation failed its check):

    python3 perfbench/run.py --workload all --seconds 28 [--trace 1]

``--record-reference`` rewrites reference.json from the current sources;
run it only on a commit whose outputs are trusted.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    CERT,
    DEFAULT_SEED,
    OP_METRICS,
    WORKLOADS,
    check_output,
    load_reference,
    payload_digest,
    reference_key,
    seed_free_digest,
    sha256_file,
)

ENV_PRECISION = "LP_ISOFORGE_PRECISION"  # the CLI's default-precision override
SETUP_SAMPLES = 4  # before the cycles, and again after them
CHILD_TIMEOUT_S = 170

END_TO_END = {"setup_s": "s", "cycle_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER = {
    "analysis.isometry_check.total_s": "s",
    "analysis.isometry_check.self_s": "s",
    "analysis.certificate_span.total_s": "s",
    "analysis.uncomplemented_certificate.total_s": "s",
    "analysis.projection_norm_lower_bound.total_s": "s",
    "analysis.projection_norm_lower_bound.self_s": "s",
    "analysis.ProjectionOperator.apply.calls": "count",
    "analysis.ProjectionOperator.apply.self_s": "s",
    "analysis.ProjectionOperator.norm.calls": "count",
    "analysis.ProjectionOperator.norm.self_s": "s",
    "analysis.build_projection.total_s": "s",
    "analysis.build_projection.atoms": "count",
    "moments.even_moment_of_sum.calls": "count",
    "moments.even_moment_of_sum.self_s": "s",
    "moments.even_moment_from_tables.calls": "count",
    "moments.convolve.calls": "count",
    "moments.convolve.total_s": "s",
    "momentpoly.grad_H.calls": "count",
    "momentpoly.grad_H.self_s": "s",
    "momentpoly.eval_H.calls": "count",
    "momentpoly.eval_H.self_s": "s",
    "momentpoly.eval_F.exact.total_s": "s",
    "momentpoly.eval_F.mpf.total_s": "s",
    "momentpoly.jacobian_F.calls": "count",
    "momentpoly.jacobian_F.self_s": "s",
    "numeric.solve_linear_mpf.calls": "count",
    "numeric.solve_linear_mpf.self_s": "s",
    "numeric.det_mpf.calls": "count",
    "numeric.det_mpf.self_s": "s",
    "numeric.mpf_to_fraction.calls": "count",
    "numeric.mpf_to_fraction.self_s": "s",
    "numeric.to_mpf.calls": "count",
    "numeric.to_mpf.self_s": "s",
    "solver.ball_params.total_s": "s",
    "solver.ball_params.self_s": "s",
    "solver.solve_mu.calls": "count",
    "solver.solve_mu.total_s": "s",
    "solver.solve_mu.useful_ratio": "ratio",
    "solver.newton_iters": "count",
    "solver.scales_attempted": "count",
    "solver.scales_failed": "count",
    "serialize.save_certificate.total_s": "s",
    "serialize.load_certificate.total_s": "s",
    "serialize.certificate_bytes": "B",
    "p4.build_p4_table.total_s": "s",
    "cli.main.self_s": "s",
    "cli.main.construct.total_s": "s",
    "cli.main.verify.total_s": "s",
    "cli.main.project.total_s": "s",
    "cli.main.p4.total_s": "s",
    "trace.overhead_s": "s",
}


def import_cli():
    """The checkout's own lp_isoforge.cli; exits nonzero when the sources are absent."""
    if not (SRC / "lp_isoforge" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no package sources at {SRC / 'lp_isoforge'}")
    sys.path.insert(0, str(SRC))
    import lp_isoforge.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "lp_isoforge":
        raise SystemExit(f"perfbench: imported {cli.__file__}, not the checkout's sources")
    return cli


def environment(seed: int) -> dict:
    """What a timing depends on besides the code; compare results only when equal."""
    import mpmath

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "seed": seed,
    }


def measure_setup(samples: int, warm_up: bool) -> list:
    """Seconds from spawning a fresh interpreter to lp_isoforge.cli imported.

    The child reports the monotonic clock right after the import, so
    interpreter teardown is not counted.  An unmeasured warm-up spawn
    compiles the bytecode cache.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import time, lp_isoforge.cli as c; print(time.monotonic(), c.__file__)"
    times = []
    for i in range(samples + warm_up):
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True,
            text=True, timeout=60, check=True,
        )
        stamp, path = done.stdout.split(maxsplit=1)
        if Path(path.strip()).resolve().parent != SRC / "lp_isoforge":
            raise SystemExit(f"perfbench: set-up imported {path.strip()}")
        if i >= warm_up:
            times.append(float(stamp) - t0)
    return times


def execute(cli, op, cert_path) -> tuple:
    """Run one CLI operation in-process: (seconds, exit code, stdout, stderr)."""
    argv = [str(cert_path) if a == CERT else a for a in op.argv] + ["--format", "json"]
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
            code = None
            err.write(f"{type(exc).__name__}: {exc}")
    return time.perf_counter() - t0, code, out.getvalue(), err.getvalue()


class Runner:
    """Runs cycles of one workload's operations and checks every output."""

    def __init__(self, cli, name, seed, tiny, work_dir):
        self.cli = cli
        self.name = name
        self.seed = seed
        self.tiny = tiny
        self.ops = WORKLOADS[name].ops(seed, tiny)
        self.cert_path = Path(work_dir) / "certificate.json"
        self.reference = load_reference()
        self.op_times = {op.label: [] for op in self.ops}
        self.attempted = 0
        self.problems = []  # (label, problem) per failed operation

    def cycles(self, budget_s, before_cycle=None) -> list:
        """Whole cycles until the next one would end after budget_s (at least one)."""
        times = []
        start = time.perf_counter()
        while not times or time.perf_counter() - start + times[-1] <= budget_s:
            if before_cycle is not None:
                before_cycle()
            total = 0.0
            for op in self.ops:
                elapsed, code, stdout, stderr = execute(self.cli, op, self.cert_path)
                total += elapsed
                self.attempted += 1
                self.op_times[op.label].append(elapsed)
                key = reference_key(self.name, self.tiny, op.label)
                found = check_output(op, key, self.seed, code, stdout, self.cert_path, self.reference)
                if stderr and code not in (0, 1):
                    found.append(stderr.strip()[-300:])
                if found:
                    self.problems.append((op.label, "; ".join(found)))
            times.append(total)
        return times


def run_workload(cli, name, seed, seconds, trace, tiny=False) -> dict:
    os.environ.pop(ENV_PRECISION, None)  # inputs come from the workload alone
    WORK.mkdir(parents=True, exist_ok=True)
    env = environment(seed)
    setup = []
    work_dir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        runner = Runner(cli, name, seed, tiny, work_dir)
        if trace:
            plain = runner.cycles(seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                traced = runner.cycles(seconds / 2, tracer.begin_cycle)
            finally:
                tracer.uninstall()
            layer = tracer.median_aggregates()
            layer["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
            metrics = {k: {"value": layer.get(k, 0), "unit": u} for k, u in PER_LAYER.items()}
            tracer.write_spans(WORK / f"{name}.spans.tsv")
            cycle_times = plain + traced
        else:
            # set-up samples before and after the cycles see the machine at both ends
            setup = measure_setup(SETUP_SAMPLES, warm_up=True)
            cycle_times = runner.cycles(seconds)
            setup += measure_setup(SETUP_SAMPLES, warm_up=False)
            values = {
                "setup_s": statistics.median(setup),
                "cycle_s": statistics.median(cycle_times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = len(runner.problems)
    result = {
        "workload": name,
        "trace": int(trace),
        "tiny": tiny,
        "environment": env,
        "setup_samples_s": setup,
        "cycle_samples_s": cycle_times,
        "operations": {
            OP_METRICS[label]: {"median_s": statistics.median(t), "samples": len(t)}
            for label, t in runner.op_times.items()
        },
        "error_rate": failed / runner.attempted,
        "problems": runner.problems,
        "line": {
            "correct": failed == 0,
            "attempted": runner.attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }
    (WORK / f"{name}.trace{int(trace)}.json").write_text(json.dumps(result, indent=2) + "\n")
    return result


def report(result: dict) -> None:
    line = result["line"]
    print(f"perfbench {result['workload']}  trace={result['trace']}")
    print("environment " + json.dumps(result["environment"]))
    for metric, op in result["operations"].items():
        print(f"{metric:<12} {op['median_s']:.4f} s  (median of {op['samples']})")
    if not result["trace"]:
        print(f"{'setup_s':<12} {line['metrics']['setup_s']['value']:.4f} s  "
              f"(median of {len(result['setup_samples_s'])})")
        print(f"{'cycle_s':<12} {line['metrics']['cycle_s']['value']:.4f} s  "
              f"(median of {len(result['cycle_samples_s'])})")
        print(f"{'peak_rss_mb':<12} {line['metrics']['peak_rss_mb']['value']:.1f} MiB")
    else:
        for key, m in line["metrics"].items():
            print(f"  {key:<46} {m['value']:.6g} {m['unit']}")
    print(f"{'error_rate':<12} {result['error_rate']:.4g} fraction  "
          f"({line['failed']}/{line['attempted']} operations failed their check)")
    for label, problem in result["problems"][:5]:
        print(f"FAILED {label}: {problem}")
    print(json.dumps(line))


def run_all(args) -> int:
    """Every workload in its own process, then one table."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if done.returncode != 0:
            print(done.stdout + done.stderr, file=sys.stderr)
            return 1
        results[name] = json.loads((WORK / f"{name}.trace{args.trace}.json").read_text())
        results[name]["line"] = json.loads(done.stdout.strip().splitlines()[-1])

    if args.trace:
        names = list(results)
        print(f"{'metric':<46} " + " ".join(f"{n:>14}" for n in names))
        for key, unit in PER_LAYER.items():
            cells = " ".join(f"{results[n]['line']['metrics'][key]['value']:>14.6g}" for n in names)
            print(f"{key + ' [' + unit + ']':<46} {cells}")
    else:
        cols = ["setup_s", *OP_METRICS.values(), "cycle_s", "peak_rss_mb", "error_rate"]
        units = {**END_TO_END, **{m: "s" for m in OP_METRICS.values()}, "error_rate": "fraction"}
        print(f"{'workload':<14} " + " ".join(f"{c + '[' + units[c] + ']':>18}" for c in cols))
        for name, r in results.items():
            cells = []
            for c in cols:
                if c in r["operations"]:
                    op = r["operations"][c]
                    cells.append(f"{op['median_s']:.4f} (n={op['samples']})")
                elif c in r["line"]["metrics"]:
                    cells.append(f"{r['line']['metrics'][c]['value']:.4f}")
                elif c == "error_rate":
                    cells.append(f"{r['error_rate']:.4g} ({r['line']['failed']}/{r['line']['attempted']})")
                else:
                    cells.append("-")
            print(f"{name:<14} " + " ".join(f"{c:>18}" for c in cells))
    print("environment " + json.dumps(next(iter(results.values()))["environment"]))
    return 0 if all(r["line"]["correct"] for r in results.values()) else 1


def record_reference(cli) -> None:
    """Hash every operation's certificate and payload at DEFAULT_SEED, both sizes."""
    os.environ.pop(ENV_PRECISION, None)
    WORK.mkdir(parents=True, exist_ok=True)
    ref = {"certificate_sha256": {}, "payload_sha256": {}, "seed_free_sha256": {}}
    work_dir = tempfile.mkdtemp(prefix="ref-", dir=WORK)
    try:
        cert = Path(work_dir) / "certificate.json"
        for name, workload in WORKLOADS.items():
            for tiny in (False, True):
                for op in workload.ops(DEFAULT_SEED, tiny):
                    key = reference_key(name, tiny, op.label)
                    _, code, stdout, stderr = execute(cli, op, cert)
                    if code != op.exit_code:
                        raise SystemExit(f"perfbench: {key} exited {code}: {stderr}")
                    ref["payload_sha256"][key] = payload_digest(stdout, cert)
                    if op.label == "construct":
                        ref["certificate_sha256"][key] = sha256_file(cert)
                    if op.label == "verify":
                        ref["seed_free_sha256"][key] = seed_free_digest(stdout)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    path = HERE / "reference.json"
    path.write_text(json.dumps(ref, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    cli = import_cli()
    if args.record_reference:
        record_reference(cli)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    report(run_workload(cli, args.workload, args.seed, args.seconds, args.trace, args.tiny))
    return 0


if __name__ == "__main__":
    sys.exit(main())
