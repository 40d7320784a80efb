"""Reference figures, not gated: the L0-L4 timings of ROADMAP.md re-measured.

    python3 perfbench/figures.py

Each figure is the median of repeated raw timings of one call (L0-L3) or
one CLI command in a fresh interpreter (L4).  The host-speed kernel of
hostspeed.py is sampled alongside, to show how fast the host ran.  Writes
perfbench/results/figures.json and prints a table.  Cl(6,6) is left out:
one dense product there fills the blade-sign cache with 16.7M entries,
several GiB.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import REF_MS, HostSpeed  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"


def _median_time(fn, budget_s: float = 1.0, min_reps: int = 3) -> tuple[float, int]:
    times = []
    start = time.perf_counter()
    while len(times) < min_reps or time.perf_counter() - start < budget_s:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
        if len(times) >= 2000:
            break
    return statistics.median(times), len(times)


def in_process() -> tuple[dict, dict]:
    sys.path.insert(0, str(SRC))
    import numpy as np

    import cliffspin as cs

    rng = np.random.default_rng(0)

    def dense(p, q):
        sig = cs.Signature(p, q)
        return cs.Multivector(sig, {m: float(rng.uniform(-1, 1)) for m in range(1 << sig.n)})

    sig13 = cs.Signature(1, 3)
    figs = {}
    for p, q in ((1, 3), (4, 1), (3, 3), (4, 4), (5, 5)):
        a, b = dense(p, q), dense(p, q)
        cs.geometric_product(a, b)  # fill the sign cache first
        figs[f"L0 dense geometric_product Cl({p},{q})"] = _median_time(
            lambda: cs.geometric_product(a, b), budget_s=0.5 if p + q < 10 else 2.0
        )
    terms = {m: float(rng.uniform(-1, 1)) for m in range(16)}
    figs["L0 16-term constructor"] = _median_time(lambda: cs.Multivector(sig13, terms))
    a13 = dense(1, 3)
    figs["L1 inverse, dense Cl(1,3)"] = _median_time(lambda: cs.inverse(a13))
    biv = cs.Multivector(sig13, {0b0011: 0.3, 0b0101: -0.2, 0b0110: 0.7, 0b1001: 0.1, 0b1010: -0.5, 0b1100: 0.9})
    figs["L1 exp_bivector, Cl(1,3)"] = _median_time(lambda: cs.exp_bivector(biv))
    figs["L1 find_primitive_idempotent(1,3)"] = _median_time(lambda: cs.find_primitive_idempotent(1, 3))
    figs["L1 find_primitive_idempotent(3,3)"] = _median_time(lambda: cs.find_primitive_idempotent(3, 3))
    d = cs.random_regular_spinor(rng)
    c = cs.bilinear_covariants(d)
    figs["L2 bilinear_covariants"] = _median_time(lambda: cs.bilinear_covariants(d))
    figs["L2 fierz_residuals"] = _median_time(lambda: cs.fierz_residuals(c))
    figs["L2 random_regular_spinor"] = _median_time(lambda: cs.random_regular_spinor(rng))
    figs["L2 canonical_decompose"] = _median_time(lambda: cs.canonical_decompose(d))
    field = cs.planewave_solution(1.0, (0.3, -0.2, 0.1))
    x = [0.4, -1.2, 2.0, 0.7]
    figs["L3 dhe_residual"] = _median_time(lambda: cs.dhe_residual(field, None, 1.0, x))
    figs["L3 asf_residual"] = _median_time(lambda: cs.asf_residual(field, None, 1.0, x))
    figs["L3 matrix_dirac_residual"] = _median_time(lambda: cs.matrix_dirac_residual(field, None, 1.0, x))
    spinor = {"psi": cs.to_json_dict(d.psi)}
    return figs, spinor


CLI = (
    ["classify", "--p", "1", "--q", "3"],
    ["idempotent", "--p", "1", "--q", "3"],
    ["fierz", "--trials", "1000"],
    ["planewave", "--mass", "1.0", "--px", "0.3", "--py", "-0.2"],
    ["verify-rep"],
    ["decompose", "--in", "SPINOR"],
    ["eval", "--sig", "1,3", "rev(e1^e2)*g0"],
)


def cli_figures(spinor_path: Path, reps: int = 3) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    figs = {}
    for args in CLI:
        argv = [str(spinor_path) if a == "SPINOR" else a for a in args]
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            subprocess.run(
                [sys.executable, "-m", "cliffspin.cli", *argv], env=env, check=True,
                stdout=subprocess.DEVNULL,
            )
            times.append(time.perf_counter() - t0)
        label = " ".join(a if a != "SPINOR" else "spinor.json" for a in args)
        figs[f"L4 cliffspin {label}"] = (statistics.median(times), reps)
    return figs


def main() -> int:
    if not (SRC / "cliffspin" / "__init__.py").is_file():
        print(f"cliffspin sources not found under {SRC}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    speed = HostSpeed()
    speed.sample()
    figs, spinor = in_process()
    speed.sample()
    spinor_path = RESULTS / "spinor.json"
    spinor_path.write_text(json.dumps(spinor))
    figs.update(cli_figures(spinor_path))
    speed.sample()
    host_ms = statistics.median(speed.samples)
    for name, (seconds, n) in figs.items():
        value = f"{seconds * 1e3:.3f} ms" if seconds < 1 else f"{seconds:.3f} s"
        print(f"| {name} | {value} | {n} |")
    print(f"host-speed kernel: {host_ms:.3f} ms (reference {REF_MS} ms)")
    record = {k: {"median_s": v, "samples": n} for k, (v, n) in figs.items()}
    record["host_speed_sample_ms"] = host_ms
    (RESULTS / "figures.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
