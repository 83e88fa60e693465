"""qblue benchmark: three closed-loop CLI workloads with output checks.

    python3 bench/run.py --workload compile_chain --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1          # all three, one process

One client calls `qblue.cli.main([...])` in-process, one op after the other,
on programs, states and circuits generated from --seed during set-up.  Every
output is checked against an answer derived without qblue (workloads.py).

--trace 0 reports the end-to-end metrics; --trace 1 runs the same ops with
the public qblue functions that the per-layer metrics name wrapped from
outside (spans.py) and reports the per-layer metrics.  Both print one row per workload, then a JSON line:
{"correct", "attempted", "failed", "metrics"}.  A JSON record with machine
details, failures and known-defect probes goes to .bench_run/.
"""

from __future__ import annotations

import os

# One client thread; BLAS stays single-threaded so that runs on a shared
# 2-core machine do not compete with themselves.  Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from calibration import KERNEL_REF_S, kernel_seconds
from spans import LAYERS, Tracer, count_python_calls, median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_run"

MIN_SAMPLES = 125     # p90 then has at least 12 samples beyond it
SETUP_REPS = 3
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

END_TO_END = {
    "setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
    "peak_rss_mib": "MiB",
}
OUTPUTS = {
    "circuit_gates": "count", "circuit_cx": "count", "circuit_depth": "count",
    "trotter_error_max": "norm",
}
SELF_MS = [
    "expr.site_layout", "typecheck.typecheck", "typecheck.canonicalize",
    "typecheck.dagger_normalize", "typecheck.hermiticity_report",
    "trotter.plan_to_circuit", "trotter.trotterize",
    "encodings.encode_for_compile", "parser.parse", "parser.validate_program",
    "linalg.expr_to_matrix", "linalg.matrix_exp_sim", "linalg.ground_energy",
    "linalg.phase_aligned_distance", "pauli.pauli_to_matrix",
    "circuit.circuit_to_matrix", "trotter.verify_circuit", "fock.apply",
    "fock.parse_state", "fock.format_state", "circuit.format_circuit",
    "circuit.parse_circuit", "cli.main",
]
CALLS = ["expr.site_layout", "typecheck.canonicalize", "trotter.synthesize_term",
         "linalg.expr_to_matrix", "fock.apply", "cli.main"]
PER_LAYER = {
    **{f"{n}.self_ms": "ms" for n in SELF_MS},
    **{f"{n}.calls": "count" for n in CALLS},
    "typecheck.canonical_terms": "count", "typecheck.cert_matrix_ratio": "ratio",
    "encodings.pauli_terms": "count", "encodings.qubits": "count",
    "parser.ast_nodes": "count", "linalg.dense_bytes": "B_computed",
    "fock.kets_out": "count", "cli.exit_nonzero": "count",
    **{f"{layer}.py_calls": "count" for layer in LAYERS},
    "trace.overhead_ratio": "ratio",
    **OUTPUTS,
    "probe.attempted": "count", "probe.failed": "count",
}

# Only the functions the metrics name are wrapped.  Small helpers called
# hundreds of thousands of times a pass (apply_single, tensor, site_dim, ...)
# stay unwrapped; their time counts toward the public function calling them.
TRACED = set(SELF_MS) | set(CALLS)

_DENSE = ("linalg.expr_to_matrix", "linalg.matrix_exp_sim",
          "pauli.pauli_to_matrix", "circuit.circuit_to_matrix")
OBSERVERS = {
    "typecheck.canonicalize": lambda form: len(form.terms),
    "typecheck.hermiticity_report": lambda report: report[1] == "matrix",
    "encodings.encode_for_compile": lambda r: (len(r[0].terms), r[0].qubits),
    "parser.parse": lambda program: program,   # nodes counted after the op
    "fock.apply": lambda state: len(state.terms),
    "cli.main": lambda code: code != 0,
    **{name: (lambda m: m.shape[0] * m.shape[1] * 16) for name in _DENSE},
}


# ---------------------------------------------------------------------------
# Ops and passes
# ---------------------------------------------------------------------------

@dataclass
class OpResult:
    label: str
    seconds: float
    failure: str | None
    figures: dict = field(default_factory=dict)
    kernel_s: float = KERNEL_REF_S


def speed_factors(results) -> list:
    """Per op, KERNEL_REF_S over the median of the kernel times just before
    it, before the previous op and before the next op."""
    kernels = [r.kernel_s for r in results]
    return [KERNEL_REF_S / statistics.median(kernels[max(0, i - 1):i + 2])
            for i in range(len(results))]


def calibrated(results) -> list:
    """Op latencies in reference seconds."""
    return [r.seconds * f for r, f in zip(results, speed_factors(results))]


def run_op(cli, op: workloads.Op) -> OpResult:
    out, err = io.StringIO(), io.StringIO()
    failure = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op.argv)
    except Exception as exc:   # an escaped exception is this op's failure
        code, failure = None, f"raised {type(exc).__name__}"
    seconds = time.perf_counter() - t0
    figures = {}
    if failure is None and code != 0:
        tail = err.getvalue().strip().splitlines()[-1:] or [""]
        failure = f"exit {code}: {tail[0][:160]}"
    elif failure is None:
        try:
            figures = op.check(out.getvalue())
        except (workloads.Mismatch, ValueError, KeyError, IndexError,
                TypeError, OSError) as exc:
            failure = f"wrong output: {exc}"
    return OpResult(op.label, seconds, failure, figures)


def run_pass(cli, ops, tracer=None, first_op=0):
    results = []
    for i, op in enumerate(ops):
        gc.collect()
        kernel_s = kernel_seconds()
        if tracer is not None:
            tracer.op = first_op + i
        results.append(run_op(cli, op))
        results[-1].kernel_s = kernel_s
        if tracer is not None:
            parsed = tracer.results["parser.parse"]
            parsed[:] = [(o, v if isinstance(v, int) else ast_nodes(v))
                         for o, v in parsed]
    return results


def ast_nodes(program) -> int:
    stack = list(program.defs.values())
    count = 0
    while stack:
        node = stack.pop()
        count += 1
        for attr in ("left", "right", "inner"):
            child = getattr(node, attr, None)
            if child is not None:
                stack.append(child)
    return count


def timed_passes(run, seconds, min_ops):
    """Whole passes until --seconds is used up and at least min_ops ops ran."""
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run(len(passes)))
        last = time.perf_counter() - t0
        spent = time.perf_counter() - start
        if sum(map(len, passes)) >= min_ops and spent + last / 2 > seconds:
            return passes


def latency_metrics(seconds: list, per_pass: int) -> dict:
    """Closed-loop throughput (median over passes) and pooled percentiles."""
    ms = [s * 1000 for s in seconds]
    rates = [per_pass / sum(seconds[i:i + per_pass])
             for i in range(0, len(seconds), per_pass)]
    return {"ops_per_s": statistics.median(rates),
            "op_p50_ms": statistics.median(ms),
            "op_p90_ms": statistics.quantiles(ms, n=10, method="inclusive")[8]}


def output_figures(results) -> dict:
    figs = [r.figures for r in results]
    distances = [f["distance"] for f in figs if "distance" in f]
    return {
        "circuit_gates": sum(f.get("gates", 0) for f in figs),
        "circuit_cx": sum(f.get("cx", 0) for f in figs),
        "circuit_depth": sum(f.get("depth", 0) for f in figs),
        "trotter_error_max": max(distances, default=0.0),
    }


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

def setup(name, seed, workdir):
    """Import qblue's modules afresh, then generate the inputs and the
    expected answers.  Repeated SETUP_REPS times; the median, calibrated by
    the kernel before and after each repetition, is reported.  numpy and
    scipy stay loaded, so their import time is not part of it."""
    times = []
    for rep in range(SETUP_REPS):
        before = kernel_seconds()
        t0 = time.perf_counter()
        cli = import_qblue()
        built = workloads.build(name, seed, workdir / f"rep{rep}")
        seconds = time.perf_counter() - t0
        times.append(seconds * 2 * KERNEL_REF_S / (before + kernel_seconds()))
    return cli, built, statistics.median(times)


def import_qblue():
    """A fresh import of every qblue module; returns qblue.cli."""
    for name in [n for n in sys.modules
                 if n == "qblue" or n.startswith("qblue.")]:
        del sys.modules[name]
    import qblue.cli
    return qblue.cli


def run_workload(name, seed, seconds, trace, workdir):
    cli, wl, setup_s = setup(name, seed, workdir)
    ops = wl.ops
    warm = run_pass(cli, wl.warmup)   # lazy imports and first-call costs
    record = {"workload": name, "seed": seed, "ops_per_pass": len(ops)}
    if not trace:
        passes = timed_passes(lambda p: run_pass(cli, ops), seconds,
                              MIN_SAMPLES)
        timed = [r for p in passes for r in p]
        metrics = {"setup_s": setup_s,
                   **latency_metrics(calibrated(timed), len(ops)),
                   "peak_rss_mib": resource.getrusage(
                       resource.RUSAGE_SELF).ru_maxrss / 1024}
        all_results = warm + timed
        record.update({
            "samples": len(timed), "passes": len(passes),
            "raw": latency_metrics([r.seconds for r in timed], len(ops)),
            "kernel_ms_median": statistics.median(
                r.kernel_s for r in timed) * 1000,
            "ops": [[r.label, round(r.seconds * 1000, 3),
                     round(r.kernel_s * 1000, 4)] for r in timed],
        })
    else:
        metrics, all_results = traced_metrics(cli, ops, seconds, warm, record)
    outputs = output_figures(all_results[len(warm):len(warm) + len(ops)])
    probe_results = [run_op(cli, op) for op in wl.probes]
    if trace:
        metrics.update(outputs)
        metrics["probe.attempted"] = len(probe_results)
        metrics["probe.failed"] = sum(r.failure is not None
                                      for r in probe_results)
    counted = all_results[len(warm):]
    failures = [r for r in all_results if r.failure]
    record.update({
        "outputs": outputs,
        "fail_ratio": sum(r.failure is not None for r in counted) / len(counted),
        "failures": [{"op": r.label, "reason": r.failure} for r in failures[:20]],
        "probes": [{"op": r.label, "reason": r.failure or "ok"}
                   for r in probe_results],
    })
    return {"correct": not failures, "attempted": len(counted),
            "failed": sum(r.failure is not None for r in counted),
            "metrics": metrics, "record": record}


def traced_metrics(cli, ops, seconds, warm, record):
    n = len(ops)
    ref = run_pass(cli, ops)
    tracer = Tracer()
    tracer.install(TRACED, OBSERVERS)
    try:
        passes = timed_passes(
            lambda p: run_pass(cli, ops, tracer, first_op=p * n), seconds, 1)
    finally:
        tracer.uninstall()
    profiled = []
    py_calls = count_python_calls(lambda: profiled.extend(run_pass(cli, ops)))
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{record['workload']}-s{record['seed']}.tsv.gz"
    tracer.write(spans_path)

    traced = [r for p in passes for r in p]
    factors = speed_factors(traced)
    per_pass = [{} for _ in passes]
    for op_id, rows in tracer.per_op().items():
        for name, (calls, _, self_s) in rows.items():
            acc = per_pass[op_id // n].setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += self_s * factors[op_id]

    def per_pass_median(fn):
        return median([fn(p) for p in range(len(passes))])

    def observed(name, p):
        return [v for o, v in tracer.results.get(name, []) if o // n == p]

    metrics = {}
    for name in SELF_MS:
        metrics[f"{name}.self_ms"] = per_pass_median(
            lambda p: per_pass[p].get(name, [0, 0.0])[1] * 1000)
    for name in CALLS:
        metrics[f"{name}.calls"] = per_pass_median(
            lambda p: per_pass[p].get(name, [0, 0.0])[0])
    verdicts = [v for p in range(len(passes))
                for v in observed("typecheck.hermiticity_report", p)]
    metrics.update({
        "typecheck.canonical_terms": per_pass_median(
            lambda p: sum(observed("typecheck.canonicalize", p))),
        "typecheck.cert_matrix_ratio": (sum(verdicts) / len(verdicts)
                                        if verdicts else 0.0),
        "encodings.pauli_terms": per_pass_median(
            lambda p: sum(t for t, _ in observed("encodings.encode_for_compile", p))),
        "encodings.qubits": per_pass_median(
            lambda p: sum(q for _, q in observed("encodings.encode_for_compile", p))),
        "parser.ast_nodes": per_pass_median(
            lambda p: sum(observed("parser.parse", p))),
        "linalg.dense_bytes": per_pass_median(
            lambda p: sum(b for name in _DENSE for b in observed(name, p))),
        "fock.kets_out": per_pass_median(
            lambda p: sum(observed("fock.apply", p))),
        "cli.exit_nonzero": per_pass_median(
            lambda p: sum(observed("cli.main", p))),
    })
    for layer in LAYERS:
        metrics[f"{layer}.py_calls"] = py_calls.get(layer, 0)
    traced_s = median([sum(calibrated(p)) for p in passes])
    metrics["trace.overhead_ratio"] = traced_s / sum(calibrated(ref))
    record.update({"passes": len(passes), "spans": len(tracer.span_name),
                   "spans_file": str(spans_path.relative_to(ROOT)),
                   "py_calls": dict(sorted(py_calls.items()))})
    return metrics, warm + ref + [r for p in passes for r in p] + profiled


# ---------------------------------------------------------------------------
# Run record
# ---------------------------------------------------------------------------

def machine_info() -> dict:
    import numpy
    import scipy
    info = {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "cpu": None, "openblas": None, "openblas_threads": None,
    }
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
    with contextlib.suppress(KeyError, TypeError):
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["openblas"] = blas.get("version")
    info["openblas_threads"] = _openblas_threads(numpy)
    return info


def _openblas_threads(numpy):
    import ctypes
    libdir = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "qblue").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    commit = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        # The ceiling keeps git from taking the commit of an enclosing repo.
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"commit": commit, "src_sha256": digest.hexdigest()}


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def print_table(rows: dict, units: dict):
    """One row per workload, one column per metric, units in the header."""
    names = list(units)
    header = ["workload"] + [f"{n} [{units[n]}]" for n in names]
    lines = [header]
    for wl, values in rows.items():
        lines.append([wl] + [_fmt(values.get(n)) for n in names])
    widths = [max(len(line[i]) for line in lines) for i in range(len(header))]
    for line in lines:
        print("  ".join(cell.rjust(w) for cell, w in zip(line, widths)))


def print_columns(rows: dict, units: dict):
    """One line per metric, one column per workload (for long metric lists)."""
    wls = list(rows)
    width = max(len(n) + len(units[n]) + 3 for n in units)
    print(f"{'metric [unit]'.ljust(width)}  " + "  ".join(w.rjust(14) for w in wls))
    for n, unit in units.items():
        cells = "  ".join(_fmt(rows[w].get(n)).rjust(14) for w in wls)
        print(f"{(n + ' [' + unit + ']').ljust(width)}  {cells}")


def _fmt(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, float) and not v.is_integer():
        return f"{v:.6g}"
    return str(int(v)) if isinstance(v, (int, float)) else str(v)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "qblue" / "__init__.py").is_file():
        print(f"bench: no qblue sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    cli = import_qblue()
    if Path(cli.__file__).resolve().parent != SRC / "qblue":
        print(f"bench: imported qblue from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    units = PER_LAYER if args.trace else END_TO_END
    loadavg_before = os.getloadavg()
    workdir = OUT / f"work-{os.getpid()}"
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         args.trace, workdir / name)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rows = {}
    for name, res in results.items():
        row = dict(res["metrics"])
        rec = res["record"]
        if not args.trace:
            row.update(rec["outputs"])
            row["fail_ratio"] = rec["fail_ratio"]
            row["ops"] = res["attempted"]
            row["probes_failed"] = sum(p["reason"] != "ok" for p in rec["probes"])
        rows[name] = row
    if args.trace:
        print_columns(rows, units)
    else:
        print_table(rows, {**units, **OUTPUTS, "fail_ratio": "ratio",
                           "ops": "count", "probes_failed": "count"})
    for name, res in results.items():
        for probe in res["record"]["probes"]:
            print(f"# {name} known-defect probe: {probe['op']}: {probe['reason']}")
        for failure in res["record"]["failures"]:
            print(f"# {name} FAILED {failure['op']}: {failure['reason']}")

    run_record = {
        "args": vars(args), "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED, "machine": machine_info(),
        "loadavg_before": loadavg_before, "loadavg_after": os.getloadavg(),
        **source_identity(),
        "workloads": {n: {k: v for k, v in r.items()}
                      for n, r in results.items()},
    }
    OUT.mkdir(exist_ok=True)
    record_path = OUT / f"record-{args.workload}-s{args.seed}-t{args.trace}.json"
    record_path.write_text(json.dumps(run_record, indent=1, default=str) + "\n")
    m = run_record["machine"]
    print(f"# python {m['python']} numpy {m['numpy']} scipy {m['scipy']} "
          f"openblas {m['openblas']} threads {m['openblas_threads']} "
          f"nproc {m['nproc']} loadavg {loadavg_before[0]:.2f}->"
          f"{run_record['loadavg_after'][0]:.2f} record {record_path.relative_to(ROOT)}")

    single = len(results) == 1
    metrics = {}
    for name, res in results.items():
        for key, value in res["metrics"].items():
            metrics[key if single else f"{name}.{key}"] = {
                "value": value, "unit": units[key]}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
