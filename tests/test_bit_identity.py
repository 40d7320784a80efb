"""A pinned hash of the bits that the spinor calculus and the three Dirac
forms store, on a short fixed input list.

Every coefficient these paths compute is meant to stay bit-identical from
one change to the next unless a change says otherwise.  The hash covers:

- 16 ``random_regular_spinor`` draws from ``default_rng(1)``, odd draws in a
  random frame, each through the covariants, ``fierz_residuals``, the
  canonical decomposition and reconstruction, the recovery and a frame
  change;
- plain, right-gauged, left-gauged and charged plane waves, each at 3
  points, through the operator, ideal and matrix Dirac forms.

A multivector is hashed as (p, q, real, [(mask, re.hex(), im.hex())]) in key
order, an array by dtype, shape and bytes, a float by ``float.hex``.  The
paths hashed here load no numpy linear algebra, so the bits do not depend on
BLAS threads.  A change that alters these bits by design updates
``PINNED_SHA256`` and says so in CHANGES.md.

Run as a script, ``python tests/test_bit_identity.py`` prints the full
digest and then one digest per part: the spinor calculus and the plain,
right-gauged, left-gauged and charged plane waves, so a pin update shows
which part moved.
"""

import dataclasses
import hashlib
import sys
from pathlib import Path

import numpy as np

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cliffspin import (
    ConstantPotential,
    Multivector,
    Rotor,
    Signature,
    SpinorialFrame,
    asf_residual,
    bilinear_covariants,
    canonical_decompose,
    canonical_reconstruct,
    change_frame,
    dhe_residual,
    exp_bivector,
    fiducial_spinorial_frame,
    fierz_residuals,
    left_gauge,
    matrix_dirac_residual,
    planewave_solution,
    random_regular_spinor,
    random_rotor,
    recover_from_covariants,
    right_gauge,
)
from cliffspin.groups import random_bivector

SIG13 = Signature(1, 3)
PINNED_SHA256 = "022160e147d96bdf9878714e97af7343f199806fbcd784172a71487c35157750"


def canonical(x):
    """A nested tuple of strs and ints that fixes every stored bit of x."""
    if isinstance(x, Multivector):
        sig = x.signature
        return ("mv", sig.p, sig.q, x.real, tuple((m, c.real.hex(), c.imag.hex()) for m, c in x.terms.items()))
    if isinstance(x, np.ndarray):
        return ("array", x.dtype.str, x.shape, x.tobytes().hex())
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, complex):
        return (x.real.hex(), x.imag.hex())
    if isinstance(x, (bool, int, str)) or x is None:
        return x
    if isinstance(x, dict):
        return tuple((canonical(k), canonical(v)) for k, v in x.items())
    if isinstance(x, (list, tuple)):
        return tuple(map(canonical, x))
    if isinstance(x, SpinorialFrame):
        return ("frame", canonical(x.u.u))
    if dataclasses.is_dataclass(x):
        return (type(x).__name__,) + tuple(canonical(getattr(x, f.name)) for f in dataclasses.fields(x) if f.init)
    raise TypeError(f"no canonical form for {type(x).__name__}")


def spinor_outputs():
    rng = np.random.default_rng(1)
    for i in range(16):
        frame = SpinorialFrame(random_rotor(SIG13, rng)) if i % 2 else fiducial_spinorial_frame(SIG13)
        d = random_regular_spinor(rng, frame)
        cov = bilinear_covariants(d)
        factors = canonical_decompose(d)
        recovered = recover_from_covariants(cov, frame)
        moved = change_frame(d, SpinorialFrame(random_rotor(SIG13, rng)))
        yield (
            d, cov, fierz_residuals(cov), factors, canonical_reconstruct(factors, frame),
            recovered, bilinear_covariants(recovered), moved, bilinear_covariants(moved),
        )


def dirac_outputs():
    """(kind, outputs) for each point of each plane wave."""
    rng = np.random.default_rng(1)
    for kind in ("plain", "right", "left", "charged"):
        m = float(rng.uniform(0.5, 2.0))
        momentum = tuple(float(c) for c in rng.uniform(-1.5, 1.5, size=3))
        pot = None
        if kind == "charged":
            pot = ConstantPotential(Multivector(SIG13, {1 << mu: float(rng.uniform(-0.4, 0.4)) for mu in range(4)}), 0.6)
        field = planewave_solution(m, momentum, sign=1 if kind != "right" else -1, pot=pot)
        wave, left = field, None
        if kind in ("right", "left"):
            s = Rotor(exp_bivector(random_bivector(SIG13, rng)))
            if kind == "right":
                field = wave = right_gauge(field, s)
            else:
                gauged = left_gauge(field, s)
                field, left = gauged.field, gauged.left_rotor
        for _ in range(3):
            x = [float(v) for v in rng.uniform(-5.0, 5.0, size=4)]
            yield kind, (
                dhe_residual(field, pot, m, x, left_rotor=left),
                asf_residual(wave, pot, m, x),
                matrix_dirac_residual(wave, pot, m, x),
            )


def digests() -> dict[str, str]:
    """The sha256 of every output in turn under "full", then that of each
    part's outputs: "spinor calculus", "plain", "right", "left", "charged"."""
    full, parts = hashlib.sha256(), {}
    for part, out in (*(("spinor calculus", out) for out in spinor_outputs()), *dirac_outputs()):
        data = repr(canonical(out)).encode()
        full.update(data)
        parts.setdefault(part, hashlib.sha256()).update(data)
    return {"full": full.hexdigest(), **{part: d.hexdigest() for part, d in parts.items()}}


def test_spinor_calculus_and_dirac_forms_keep_their_bits():
    assert digests()["full"] == PINNED_SHA256


if __name__ == "__main__":
    for part, digest in digests().items():
        print(f"{part}: {digest}")
