"""Reproducers for faults of cliffspin that the workloads leave out.

    python3 perfbench/known_faults.py

Prints one line per fault, "present" or "mended", and exits 0.  The
workloads avoid these inputs because each fault either raises on every call
or shows only outside a numerical result.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def frame_eq_hash(cs) -> bool:
    """SpinorialFrame.__eq__ is approximate while __hash__ is exact."""
    sig = cs.Signature(1, 3)
    u = cs.exp_bivector(cs.Multivector(sig, {0b0110: 0.7, 0b0011: 0.2}))
    nudged = u + cs.Multivector(sig, {0: 1e-14})
    a = cs.spinorial_frame_of(cs.Rotor(u))
    b = cs.spinorial_frame_of(cs.Rotor(nudged))
    return a == b and hash(a) != hash(b)


def exp_large_norm(cs) -> bool:
    """exp_bivector at norm 1e6: a boost raises the constructor's
    "non-finite coefficient" ValueError, and a pure rotation, whose exact
    exponential is a unit rotor, comes back with |u u~ - 1| ~ 2e-10, which
    Rotor rejects."""
    sig = cs.Signature(1, 3)
    present = False
    try:
        cs.exp_bivector(cs.Multivector(sig, {0b0011: 1e6}))
    except ValueError as exc:
        present = "non-finite" in str(exc)
    try:
        cs.Rotor(cs.exp_bivector(cs.Multivector(sig, {0b0110: 1e6})))
    except ValueError:
        present = True
    return present


def cli_domain_errors(tmp: Path) -> bool:
    """Domain errors exit 1 (the code for "residual exceeded tolerance")
    with a traceback, instead of 2 with a one-line message."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cases = (
        ["eval", "--sig", "1,3", "inv(1+e1)"],
        ["eval", "--sig", "1,3", "grade9(e1)"],
        ["decompose", "--in", str(tmp / "no-such-file.json")],
    )
    present = False
    for args in cases:
        proc = subprocess.run(
            [sys.executable, "-m", "cliffspin.cli", *args], env=env, capture_output=True, text=True
        )
        present = present or (proc.returncode == 1 and "Traceback" in proc.stderr)
    return present


def sign_cache_growth() -> bool:
    """_reorder_sign's unbounded cache keeps every (a, b) pair seen: one
    dense Cl(5,5) product leaves 4^10 entries.  Run in a child process so
    the memory goes away with it."""
    code = (
        "import resource, sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import cliffspin as cs\n"
        "from cliffspin.multivector import _reorder_sign\n"
        "sig = cs.Signature(5, 5)\n"
        "a = cs.Multivector(sig, {m: 1.0 + m % 7 for m in range(1 << 10)})\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "a * a\n"
        "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print(_reorder_sign.cache_info().currsize, (after - before) / 1024)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    entries, grown_mib = out.stdout.split()
    print(f"    sign cache after one dense Cl(5,5) product: {entries} entries, +{float(grown_mib):.0f} MiB RSS")
    return int(entries) >= 4**10


def main() -> int:
    if not (SRC / "cliffspin" / "__init__.py").is_file():
        print(f"cliffspin sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cliffspin as cs

    results = {
        "SpinorialFrame __eq__/__hash__ disagree": frame_eq_hash(cs),
        "exp_bivector fails at norm 1e6": exp_large_norm(cs),
        "CLI domain errors exit 1 with a traceback": cli_domain_errors(Path(__file__).parent),
        "unbounded _reorder_sign cache": sign_cache_growth(),
    }
    for name, present in results.items():
        print(f"{'present' if present else 'mended '}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
