"""Each domain error that the other tests never raise: a call outside a
function's domain, the exception it raises and its whole message."""

import math
import re

import pytest

from cliffspin import Multivector, Signature, parse_multivector
from cliffspin.dirac import DiracError, PlaneWaveDHSF
from cliffspin.expressions import ast_to_text, evaluate
from cliffspin.groups import (
    FrameError,
    NotARotorError,
    Rotor,
    VectorFrame,
    fiducial_spinorial_frame,
    frame_right_action,
    lorentz_matrix_of,
    rotor_between,
)
from cliffspin.matrixrep import RepresentationError, matrix_of
from cliffspin.serialization import MultivectorParseError, from_json_dict
from cliffspin.spinors import ASRep, DHSRep, SpinorValueError, change_frame

SIG13 = Signature(1, 3)
SIG30 = Signature(3, 0)
SIG60 = Signature(6, 0)
FRAME13 = fiducial_spinorial_frame(SIG13)
FRAME30 = fiducial_spinorial_frame(SIG30)


def e(sig, *indices):
    return Multivector.blade(sig, indices)


def plane_wave(**changes):
    fields = dict(frame=FRAME13, psi0=Multivector.one(SIG13), p=e(SIG13, 1), m=1.0, energy_sign=1)
    return PlaneWaveDHSF(**{**fields, **changes})


def not_spin_e_rotor():
    """(1 + e1...e6)/sqrt(2) in Cl(6,0): a rotor, since e1...e6 squares to
    -1 and is its own reversion's negative, but not in the Clifford group."""
    return Rotor((Multivector.one(SIG60) + e(SIG60, 1, 2, 3, 4, 5, 6)) * (1 / math.sqrt(2)))


ERRORS = {
    "plane wave energy sign": (
        lambda: plane_wave(energy_sign=0), DiracError, "energy_sign must be +1 or -1"
    ),
    "plane wave bivector momentum": (
        lambda: plane_wave(p=e(SIG13, 1, 2)), DiracError, "momentum must be grade-1"
    ),
    "plane wave odd amplitude": (
        lambda: plane_wave(psi0=e(SIG13, 1)), DiracError, "amplitude must be even"
    ),
    "empty vector frame": (lambda: VectorFrame(()), FrameError, "empty frame"),
    "vector frame of too few vectors": (
        lambda: VectorFrame((e(SIG13, 1), e(SIG13, 2))), FrameError, "frame needs 4 vectors, got 2"
    ),
    "vector frame holding a bivector": (
        lambda: VectorFrame((e(SIG30, 1), e(SIG30, 2), e(SIG30, 1, 2))),
        FrameError,
        "frame members must be grade-1",
    ),
    "frame action across signatures": (
        lambda: frame_right_action(Rotor(Multivector.one(SIG30)), FRAME13),
        FrameError,
        "signature mismatch in frame action",
    ),
    "rotor between bivectors": (
        lambda: rotor_between(e(SIG13, 1, 2), e(SIG13, 1)),
        ValueError,
        "rotor_between needs grade-1 inputs",
    ),
    "rotor between unequal squares": (
        lambda: rotor_between(e(SIG13, 1), e(SIG13, 2)),
        ValueError,
        "rotor_between needs unit vectors of equal square sign",
    ),
    "Lorentz matrix outside Spin^e": (
        lambda: lorentz_matrix_of(not_spin_e_rotor()),
        NotARotorError,
        "lorentz_matrix_of requires a Spin^e element",
    ),
    "matrix outside Cl(1,3)": (
        lambda: matrix_of(e(SIG30, 1)), RepresentationError, "matrix_of expects a Cl(1,3) element"
    ),
    "operator spinor outside Cl(1,3)": (
        lambda: DHSRep(FRAME30, Multivector.one(SIG30)),
        SpinorValueError,
        "operator spinors live in Cl(1,3)",
    ),
    "algebraic spinor outside Cl(1,3)": (
        lambda: ASRep(FRAME30, Multivector.one(SIG30)),
        SpinorValueError,
        "algebraic spinors live in Cl(1,3)",
    ),
    "frame change across signatures": (
        lambda: change_frame(DHSRep(FRAME13, Multivector.one(SIG13)), FRAME30),
        SpinorValueError,
        "frames of different signature",
    ),
    "blade mask above the algebra": (
        lambda: Multivector(SIG13, {16: 1.0}), ValueError, "blade mask 16 invalid for n=4"
    ),
    "blade of generator e0": (
        lambda: Multivector.blade(SIG13, [0]), ValueError, "generator e0 out of range for n=4"
    ),
    "blade of generator e5": (
        lambda: Multivector.blade(SIG13, [5]), ValueError, "generator e5 out of range for n=4"
    ),
    "blade of a repeated generator": (
        lambda: Multivector.blade(SIG13, [2, 2]), ValueError, "repeated generator e2"
    ),
    "text of a repeated generator": (
        lambda: parse_multivector("2 e3^e1^e3", SIG13),
        MultivectorParseError,
        "repeated generator e3",
    ),
    "JSON of a repeated index": (
        lambda: from_json_dict({"signature": [1, 3], "terms": [{"blades": [2, 2], "re": 1.0}]}),
        MultivectorParseError,
        "repeated generator index 2",
    ),
    "evaluating a foreign node": (
        lambda: evaluate("e1", SIG13), TypeError, "not an AST node: 'e1'"
    ),
    "printing a foreign node": (lambda: ast_to_text(1.5), TypeError, "not an AST node: 1.5"),
    "dividing by a multivector": (
        lambda: e(SIG13, 1) / e(SIG13, 1),
        TypeError,
        "unsupported operand type(s) for /: 'Multivector' and 'Multivector'",
    ),
}


@pytest.mark.parametrize("call,error,message", ERRORS.values(), ids=ERRORS)
def test_call_outside_its_domain_raises(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_rev_is_reversion():
    x = Multivector(SIG13, {0: 1.0, 1: 2.0, 3: 3.0, 7: 4.0, 15: 5.0})
    assert x.rev()._terms == {0: 1.0, 1: 2.0, 3: -3.0, 7: -4.0, 15: 5.0}
