"""cliffspin benchmark: three seeded, work-bounded workloads through the
public API, every result checked, end-to-end metrics (``--trace 0``) or
per-layer metrics from a traced run (``--trace 1``).

    python3 perfbench/run.py --workload spinor-suite --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --compare BASE NEW   # result files or directories

The load is closed-loop: one caller in one process issues each operation
when the last one returns.  numpy's BLAS pool is pinned to one thread.  The
number of operations is fixed by the workload, ``--seconds`` and nothing
else, so a seed always does the same work.  The last line of standard output
is one JSON object; a results file is written under ``perfbench/results/``.
See perfbench/README.md.
"""

from __future__ import annotations

import os

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import REF_MS, HostSpeed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_SAMPLES = 15  # cold starts measured per run, after one discarded

END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("ops/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "op_tail_ms": ("ms", "lower"),
    "residual_digits": ("digits", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
}

_CALLS = (
    "multivector.product", "multivector.construct", "multivector.bilinear",
    "multivector.inverse", "multivector.exp_bivector", "groups.rotor_check",
    "groups.frame_check", "groups.spin_e_check", "spinors.covariants",
    "matrixrep.matrix_of", "matrixrep.gammas", "classify.search",
)
_SELF = (
    "multivector.product", "multivector.construct", "multivector.bilinear",
    "multivector.inverse", "multivector.exp_bivector", "multivector.other",
    "groups.rotor_check", "groups.frame_check", "groups.spin_e_check", "groups.other",
    "spinors.covariants", "spinors.fierz", "spinors.decompose", "spinors.recover",
    "spinors.other", "dirac.dhe", "dirac.asf", "dirac.matrix", "dirac.fields",
    "dirac.other", "matrixrep.matrix_of", "matrixrep.gammas",
    "classify.search", "classify.span", "classify.other", "expressions.evaluate",
    "serialization.write", "serialization.read",
)
PER_LAYER = {
    **{f"{g}.calls": ("count", "lower") for g in _CALLS},
    **{f"{g}.self_ms": ("ms", "lower") for g in _SELF},
    "multivector.product.term_pairs": ("count", "lower"),
    "multivector.product.ns_per_pair": ("ns", "lower"),
    "multivector.construct.terms": ("count", "lower"),
    "multivector.inverse.general_calls": ("count", "lower"),
    "multivector.sign_cache.entries": ("count", "lower"),
    "matrixrep.tables_ms": ("ms", "lower"),
    "classify.search.rank_probes": ("count", "lower"),
    "classify.search.accept_ratio": ("ratio", "higher"),
    "trace.op_ms": ("ms", "lower"),
    "trace.bench_self_ms": ("ms", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q1, "q3": q3}


def _metric(value: float, unit: str, samples: list[float] | None = None) -> dict:
    out = {"value": value, "unit": unit}
    if samples is not None:
        out.update(_quartiles(samples))
    return out


def _percentile(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def measure_setup(warmup: str, speed: HostSpeed) -> tuple[list[float], list[float]]:
    """Wall times (at reference speed, and raw) of a fresh interpreter that
    imports cliffspin and does the workload's warm-up; the first start, which
    may write bytecode, is dropped."""
    code = f"import sys\nsys.path.insert(0, {str(SRC)!r})\nimport cliffspin as cs\n{warmup}\n"
    scaled, raw = [], []
    before = speed.sample()
    for i in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
        dt = time.perf_counter() - t0
        after = speed.sample()
        if i:
            raw.append(dt)
            scaled.append(dt * speed.scale(before, after))
        before = after
    return scaled, raw


def tables_ms() -> float:
    """Time to build the exact matrix tables in a fresh interpreter, so the
    build neither reuses nor fills this process's caches."""
    code = (
        f"import sys, time\nsys.path.insert(0, {str(SRC)!r})\n"
        "from cliffspin.matrixrep import _blade_matrices\n"
        "t0 = time.perf_counter(); _blade_matrices(); print((time.perf_counter() - t0) * 1e3)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT, capture_output=True, text=True)
    return float(out.stdout)


def _git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload_cls, seed: int, seconds: int):
        rounds = max(1, round(workload_cls.ops_per_second * seconds / workload_cls.round_len))
        self.w = workload_cls(seed, rounds)
        self.rounds = rounds
        self.failed = 0
        self.errors: list[str] = []
        self.residuals: list[float] = []

    def attempt(self, case):
        """The case's outputs, or None if the operation raised."""
        try:
            return self.w.run(case)
        except Exception as exc:  # a raising operation is a wrong result
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None

    def check(self, case, out) -> None:
        from workloads import CheckFailed

        if out is None:
            return
        try:
            outcome = self.w.check(case, out)
        except CheckFailed as exc:
            self.errors.append(str(exc))
            return
        self.residuals.extend(outcome.residuals)
        self.failed += outcome.known_fault

    def timed(self, case, speed: HostSpeed, before: float):
        """Run one case between two host-speed samples and check it.
        Returns (ms at reference speed, raw ms, the closing sample); the
        times are None if the operation raised."""
        t0 = time.perf_counter()
        out = self.attempt(case)
        dt = (time.perf_counter() - t0) * 1e3
        after = speed.sample()
        self.check(case, out)
        if out is None:
            return None, None, after
        return dt * speed.scale(before, after), dt, after

    def round_cases(self, r: int):
        L = self.w.round_len
        return self.w.cases[r * L : (r + 1) * L]


def run_untraced(run: Run, cs) -> tuple[dict, dict]:
    speed = HostSpeed()
    setup, setup_raw = measure_setup(run.w.warmup, speed)
    exec(run.w.warmup, {"cs": cs})
    gc.collect()
    op_ms: list[float] = []
    raw_ms: list[float] = []
    round_ms: list[float] = []
    before = speed.sample()
    for r in range(run.rounds):
        spent, complete = 0.0, True
        for case in run.round_cases(r):
            dt, raw, before = run.timed(case, speed, before)
            if dt is None:
                complete = False
                continue
            op_ms.append(dt)
            raw_ms.append(raw)
            spent += dt
        if complete:
            round_ms.append(spent)
    if not round_ms:
        op_ms = raw_ms = round_ms = [float("nan")]
    worst = max(run.residuals, default=0.0)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": _metric(statistics.median(setup), "s", setup),
        "ops_per_s": _metric(
            len(op_ms) / (sum(op_ms) / 1e3), "ops/s",
            [run.w.round_len / (t / 1e3) for t in round_ms],
        ),
        "op_p50_ms": _metric(statistics.median(op_ms), "ms", op_ms),
        "op_tail_ms": _metric(_percentile(op_ms, run.w.tail_pct), "ms", op_ms),
        "residual_digits": _metric(-math.log10(max(worst, 1e-18)), "digits"),
        "peak_rss_mb": _metric(rss_mb, "MiB"),
    }
    raw = {
        "setup_s": _metric(statistics.median(setup_raw), "s", setup_raw),
        "ops_per_s": _metric(len(raw_ms) / (sum(raw_ms) / 1e3), "ops/s"),
        "op_p50_ms": _metric(statistics.median(raw_ms), "ms", raw_ms),
        "op_tail_ms": _metric(_percentile(raw_ms, run.w.tail_pct), "ms", raw_ms),
        "host_speed_sample_ms": _metric(statistics.median(speed.samples), "ms", speed.samples),
    }
    return metrics, raw


def run_traced(run: Run, cs) -> tuple[dict, dict]:
    from layertrace import Tracer

    exec(run.w.warmup, {"cs": cs})
    gc.collect()
    tracer = Tracer()
    plain_ms = 0.0
    # Each round runs untraced and traced, in alternating order, so the
    # overhead estimate sees the same inputs and machine state on both sides.
    for r in range(run.rounds):
        for traced in ((False, True) if r % 2 == 0 else (True, False)):
            if not traced:
                for case in run.round_cases(r):
                    t0 = time.perf_counter()
                    run.attempt(case)
                    plain_ms += (time.perf_counter() - t0) * 1e3
                continue
            tracer.install()
            outs = []
            try:
                for case in run.round_cases(r):
                    with tracer.op():
                        outs.append(run.attempt(case))
            finally:
                tracer.uninstall()
            for case, out in zip(run.round_cases(r), outs):
                run.check(case, out)
    traced_ms = tracer.op_ns / 1e6
    accounted = tracer.accounted_ms()
    if abs(accounted - traced_ms) > 1e-6 * max(1.0, traced_ms):
        run.errors.append(f"trace accounts for {accounted} of {traced_ms} ms")
    values = {f"{g}.calls": tracer.calls.get(g, 0) for g in _CALLS}
    values.update({f"{g}.self_ms": tracer.group_self_ms(g) for g in _SELF})
    work = tracer.work
    pairs = work.get("multivector.product.term_pairs", 0)
    probes = work.get("classify.search.rank_probes", 0)
    values.update(
        {
            "multivector.product.term_pairs": pairs,
            "multivector.product.ns_per_pair": (
                tracer.self_ns.get("multivector.product", 0) / pairs if pairs else 0.0
            ),
            "multivector.construct.terms": work.get("multivector.construct.terms", 0),
            "multivector.inverse.general_calls": work.get("multivector.inverse.general_calls", 0),
            "multivector.sign_cache.entries": cs.multivector._reorder_sign.cache_info().currsize,
            "matrixrep.tables_ms": tables_ms(),
            "classify.search.rank_probes": probes,
            "classify.search.accept_ratio": (
                work.get("classify.search.factors_kept", 0) / probes if probes else 0.0
            ),
            "trace.op_ms": traced_ms,
            "trace.bench_self_ms": tracer.bench_self_ns / 1e6,
            "trace.overhead_pct": (1.0 - plain_ms / traced_ms) * 100.0 if traced_ms else 0.0,
        }
    )
    return {name: _metric(values[name], unit) for name, (unit, _) in PER_LAYER.items()}, {}


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "machine": platform.machine(),
        "git_sha": _git_sha(),
    }


def bench(args) -> int:
    if not (SRC / "cliffspin" / "__init__.py").is_file():
        print(f"cliffspin sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cliffspin as cs

    if Path(cs.__file__).resolve().parent != (SRC / "cliffspin").resolve():
        print(f"imported cliffspin from {cs.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    # One CPU for the run and its cold starts, so the host-speed samples
    # describe the CPU the measured work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds)
    started = time.time()
    metrics, raw = run_traced(run, cs) if args.trace else run_untraced(run, cs)
    attempted = len(run.w.cases)
    correct = not run.errors
    counts = {"correct": correct, "attempted": attempted, "failed": run.failed}
    # The result line holds each metric's value and unit only; the quartiles
    # and sample counts go to the results file.
    result = {
        **counts,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": run.rounds, "round_len": run.w.round_len,
        "tail_pct": run.w.tail_pct, "wall_s": time.time() - started,
        "errors": run.errors[:20], **counts, "metrics": metrics, "raw": raw,
        "host_speed_ref_ms": REF_MS, "environment": environment(),
    }
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for err in run.errors[:5]:
        print(f"error: {err}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: attempted {attempted}, failed {run.failed}, correct {correct}")
    for name, m in metrics.items():
        print(f"  {name:<40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


# -- compare mode ---------------------------------------------------------------------


def _load(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records = [json.loads(f.read_text()) for f in files]
    return [r for r in records if "workload" in r and "metrics" in r]


def _medians(records: list[dict]) -> dict:
    groups: dict = {}
    for rec in records:
        for name, m in rec["metrics"].items():
            groups.setdefault((rec["workload"], name), []).append(m["value"])
    return {k: statistics.median(v) for k, v in groups.items()}


def compare(base: Path, new: Path) -> int:
    b, n = _medians(_load(base)), _medians(_load(new))
    table = {**END_TO_END, **PER_LAYER}
    print(f"{'workload':<16s} {'metric':<40s} {'base':>12s} {'new':>12s} {'new/base':>9s}")
    for key in sorted(b.keys() & n.keys()):
        workload, name = key
        ratio = n[key] / b[key] if b[key] else float("nan")
        unit, better = table.get(name, ("", ""))
        print(f"{workload:<16s} {name:<40s} {b[key]:12.5g} {n[key]:12.5g} {ratio:9.4f}  ({better} is better, {unit})")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("spinor-suite", "dirac-planewave", "algebra-sweep"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
