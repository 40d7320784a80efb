"""Each domain error that the other tests never raise: a call outside a
function's domain, the exception it raises and its whole message."""

import dataclasses
import math
import re

import numpy as np
import pytest

from cliffspin import Multivector, Signature, parse_multivector
from cliffspin import dirac, groups, spinors
from cliffspin.dirac import (
    ConstantPotential,
    DiracError,
    GaugedSystem,
    PlaneWaveDHSF,
    asf_projector,
    asf_residual,
    dhe_residual,
    left_gauge,
    matrix_dirac_residual,
    planewave_solution,
    right_gauge,
)
from cliffspin.expressions import ast_to_text, evaluate
from cliffspin.groups import (
    FrameError,
    NotARotorError,
    Rotor,
    SpinorialFrame,
    VectorFrame,
    fiducial_frame,
    fiducial_spinorial_frame,
    frame_right_action,
    is_spin_e,
    lorentz_matrix_of,
    random_rotor,
    rotor_between,
    spinorial_frame_of,
)
from cliffspin.matrixrep import RepresentationError, matrix_of
from cliffspin.multivector import SignatureMismatchError
from cliffspin.serialization import MultivectorParseError, from_json_dict
from cliffspin.spinors import (
    ASRep,
    BilinearCovariants,
    CanonicalFactors,
    DHSRep,
    SpinorValueError,
    as_from_dhs,
    bilinear_covariants,
    canonical_decompose,
    change_frame,
    frame_idempotent,
    random_regular_spinor,
)

SIG13 = Signature(1, 3)
SIG30 = Signature(3, 0)
SIG31 = Signature(3, 1)
SIG60 = Signature(6, 0)
FRAME13 = fiducial_spinorial_frame(SIG13)
FRAME30 = fiducial_spinorial_frame(SIG30)
FRAME31 = fiducial_spinorial_frame(SIG31)


def e(sig, *indices):
    return Multivector.blade(sig, indices)


def plane_wave(**changes):
    fields = dict(frame=FRAME13, psi0=Multivector.one(SIG13), p=e(SIG13, 1), m=1.0, energy_sign=1)
    return PlaneWaveDHSF(**{**fields, **changes})


def not_spin_e_rotor():
    """(1 + d I)/sqrt(1 + d^2) in Cl(6,0), with I = e1...e6 and d = 2e-9:
    u u~ = 1, and u e1 u~ has a grade-5 part of 2 d = 4e-9.  Rotor's vector
    check admits that, below its bound 1e-8 + 1e-12 |u|^2, but
    is_clifford_group bounds it by ROTOR_TOL = 1e-10."""
    d = 2e-9
    return Rotor((Multivector.one(SIG60) + d * e(SIG60, 1, 2, 3, 4, 5, 6)) * (1 / math.sqrt(1 + d * d)))


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
    "plane wave amplitude outside Cl(1,3)": (
        lambda: plane_wave(psi0=Multivector.one(SIG31)),
        SignatureMismatchError,
        "amplitude must be in Cl(1,3), got Cl(3,1)",
    ),
    "plane wave frame outside Cl(1,3)": (
        lambda: plane_wave(frame=FRAME31),
        SignatureMismatchError,
        "frame must be in Cl(1,3), got Cl(3,1)",
    ),
    "potential outside Cl(1,3)": (
        lambda: ConstantPotential(e(SIG31, 1), 0.5),
        SignatureMismatchError,
        "potential must be in Cl(1,3), got Cl(3,1)",
    ),
    "right gauge by a Cl(3,1) rotor": (
        lambda: right_gauge(plane_wave(), Rotor(Multivector.one(SIG31))),
        SignatureMismatchError,
        "Cl(1,3) vs Cl(3,1)",
    ),
    "ideal-form projector of a Cl(3,1) frame": (
        lambda: asf_projector(FRAME31), SignatureMismatchError, "Cl(1,3) vs Cl(3,1)"
    ),
    "spinor idempotent of a Cl(3,1) frame": (
        lambda: frame_idempotent(FRAME31), SignatureMismatchError, "Cl(1,3) vs Cl(3,1)"
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
    "rotor between complex vectors": (
        lambda: rotor_between(Multivector(SIG13, {1: 1.0, 2: 1e-3j}), e(SIG13, 1)),
        ValueError,
        "rotor_between needs real vectors",
    ),
    "rotor between unequal squares": (
        lambda: rotor_between(e(SIG13, 1), e(SIG13, 2)),
        ValueError,
        "rotor_between needs unit vectors of equal square sign",
    ),
    "rotor outside the Clifford group": (
        lambda: Rotor((Multivector.one(SIG60) + e(SIG60, 1, 2, 3, 4, 5, 6)) * (1 / math.sqrt(2))),
        NotARotorError,
        "rotor must map vectors to vectors: u E_i reversion(u)",
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
    "canonical factors of density 0": (
        lambda: CanonicalFactors(0.0, 0.0, Rotor(Multivector.one(SIG13))),
        SpinorValueError,
        "rho must be positive",
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
    "generator e0": (
        lambda: Multivector.generator(SIG13, 0), ValueError, "generator e0 out of range for n=4"
    ),
    "generator e5": (
        lambda: Multivector.generator(SIG13, 5), ValueError, "generator e5 out of range for n=4"
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


def test_lorentz_matrix_reads_a_rotor_that_is_spin_e_refuses():
    """Rotor's check is the only proof that u is a rotor: lorentz_matrix_of
    gives the matrix of a Rotor that is_spin_e refuses."""
    u = not_spin_e_rotor()
    assert not is_spin_e(u.u)
    assert np.max(np.abs(lorentz_matrix_of(u) - np.eye(6))) <= 1e-15


# i e1e2e3e4 is even with u u~ = 1 in Cl(1,3): a complex rotor that passes
# every other rotor check.
COMPLEX_ROTOR = 1j * e(SIG13, 1, 2, 3, 4)
COVARIANTS = bilinear_covariants(DHSRep(FRAME13, Multivector.one(SIG13)))
# Three values that were accepted before the refusals, and read wrongly:
# - mother_spinor_expand fitted this element's real part alone, and the
#   assembled coefficients landed 0.47 from (1 + i) phi, of size 0.67;
# - with A + 0.3i e2 on the wave that solves A, the operator and ideal
#   residuals read 0.21 and 0.056 at x = (0.3, -1.2, 2.5, 0.7), where the
#   matrix form read 2.2e-16;
# - a momentum (1 + 0.5i) p gave the phase of p to the bit.
_rng = np.random.default_rng(2)
_frame = spinorial_frame_of(random_rotor(SIG13, _rng))
ALGEBRAIC = as_from_dhs(random_regular_spinor(_rng, _frame))
POTENTIAL = ConstantPotential(Multivector(SIG13, {1: 0.2, 2: -0.1, 4: 0.05, 8: 0.3}), 0.7)
WAVE = planewave_solution(1.3, (0.4, -0.7, 0.2), pot=POTENTIAL)

# Spinor-side values are real: a valid value of each type, the fields that
# make it complex, and the refusal.
COMPLEX_VALUES = {
    "rotor": (Rotor(Multivector.one(SIG13)), {"u": COMPLEX_ROTOR}, NotARotorError, "rotor must be real"),
    "operator spinor": (
        DHSRep(FRAME13, Multivector.one(SIG13)),
        {"psi": 1j * Multivector.one(SIG13)},
        SpinorValueError,
        "representative must be real",
    ),
    "algebraic spinor": (
        ALGEBRAIC, {"element": (1 + 1j) * ALGEBRAIC.element}, SpinorValueError, "element must be real"
    ),
    "current J": (COVARIANTS, {"J": 1j * COVARIANTS.J}, SpinorValueError, "J, S and K must be real"),
    "bivector S": (COVARIANTS, {"S": 1j * COVARIANTS.S}, SpinorValueError, "J, S and K must be real"),
    "current K": (COVARIANTS, {"K": 1j * COVARIANTS.K}, SpinorValueError, "J, S and K must be real"),
    "complex sigma": (
        COVARIANTS, {"sigma": 1 + 0j}, SpinorValueError, "sigma must be a finite real number"
    ),
    "complex omega": (
        COVARIANTS, {"omega": 0.5j}, SpinorValueError, "omega must be a finite real number"
    ),
    "plane wave amplitude": (
        WAVE, {"psi0": (0.6 + 0.8j) * WAVE.psi0}, DiracError, "amplitude must be real"
    ),
    "plane wave momentum": (WAVE, {"p": (1 + 0.5j) * WAVE.p}, DiracError, "momentum must be real"),
    "potential": (
        POTENTIAL, {"A": POTENTIAL.A + 0.3j * e(SIG13, 2)}, DiracError, "potential must be real"
    ),
    "charge": (POTENTIAL, {"q_charge": 0.7 + 0j}, DiracError, "charge must be a finite real number"),
}


def build_directly(value, **changes):
    """type(value)(...) from value's init fields, with changes applied."""
    fields = {f.name: getattr(value, f.name) for f in dataclasses.fields(value) if f.init}
    return type(value)(**{**fields, **changes})


@pytest.mark.parametrize("build", [build_directly, dataclasses.replace], ids=["direct", "replace"])
@pytest.mark.parametrize("value,changes,error,message", COMPLEX_VALUES.values(), ids=COMPLEX_VALUES)
def test_spinor_side_values_refuse_complex_fields(build, value, changes, error, message):
    assert build(value) == value
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build(value, **changes)


# Every public value type of the spinor side, one valid value each.  Their
# numeric fields are read from dataclasses.fields, so a field added later is
# tried too, and a value type added later fails the census below.
SPINOR_SIDE = (groups, spinors, dirac)
VALUES = {
    Rotor: Rotor(Multivector.one(SIG13)),
    VectorFrame: fiducial_frame(SIG13),
    SpinorialFrame: FRAME13,
    DHSRep: DHSRep(FRAME13, Multivector.one(SIG13)),
    ASRep: ALGEBRAIC,
    BilinearCovariants: COVARIANTS,
    CanonicalFactors: canonical_decompose(DHSRep(FRAME13, Multivector.one(SIG13))),
    ConstantPotential: POTENTIAL,
    PlaneWaveDHSF: WAVE,
    GaugedSystem: left_gauge(WAVE, Rotor(Multivector.one(SIG13)), POTENTIAL),
}
ERROR_OF_MODULE = {spinors.__name__: SpinorValueError, dirac.__name__: DiracError}
NUMERIC_FIELDS = [
    (cls, f.name) for cls in VALUES for f in dataclasses.fields(cls) if f.init and f.type in ("float", "int")
]
# nan, inf, a bool, a string, and the valid value as a complex.
BAD_NUMBERS = {
    "nan": lambda valid: math.nan,
    "inf": lambda valid: math.inf,
    "bool": lambda valid: True,
    "string": lambda valid: "x",
    "complex": complex,
}


def test_every_spinor_side_value_type_has_a_value():
    public = {
        cls
        for module in SPINOR_SIDE
        for name, cls in vars(module).items()
        if isinstance(cls, type) and dataclasses.is_dataclass(cls)
        and cls.__module__ == module.__name__ and not name.startswith("_")
    }
    assert public == set(VALUES)
    assert {(cls.__name__, name) for cls, name in NUMERIC_FIELDS} == {
        ("BilinearCovariants", "sigma"), ("BilinearCovariants", "omega"),
        ("CanonicalFactors", "rho"), ("CanonicalFactors", "beta"),
        ("ConstantPotential", "q_charge"), ("PlaneWaveDHSF", "m"), ("PlaneWaveDHSF", "energy_sign"),
    }


@pytest.mark.parametrize("build", [build_directly, dataclasses.replace], ids=["direct", "replace"])
@pytest.mark.parametrize("bad", BAD_NUMBERS.values(), ids=BAD_NUMBERS)
@pytest.mark.parametrize("cls,name", NUMERIC_FIELDS, ids=[f"{c.__name__}.{n}" for c, n in NUMERIC_FIELDS])
def test_numeric_fields_refuse_what_is_no_finite_real_number(build, bad, cls, name):
    value = VALUES[cls]
    assert build(value) == value
    with pytest.raises(ERROR_OF_MODULE[cls.__module__], match=r"^\w+ must be "):
        build(value, **{name: bad(getattr(value, name))})


# A plane wave's mass is a finite real number above 0, its energy sign +1 or -1
# and a potential's charge a finite real number, none of them a bool: the
# field, its value and the refusal.
SCALAR_FIELDS = {
    "mass nan": ("m", math.nan, "mass must be a finite real number"),
    "mass inf": ("m", math.inf, "mass must be a finite real number"),
    "mass complex": ("m", 1 + 0.5j, "mass must be a finite real number"),
    "mass string": ("m", "x", "mass must be a finite real number"),
    "mass bool": ("m", True, "mass must be a finite real number"),
    "mass negative": ("m", -1.0, "mass must be positive"),
    "mass zero": ("m", 0.0, "mass must be positive"),
    "charge inf": ("q_charge", math.inf, "charge must be a finite real number"),
    "charge nan": ("q_charge", math.nan, "charge must be a finite real number"),
    "charge string": ("q_charge", "x", "charge must be a finite real number"),
    "charge bool": ("q_charge", True, "charge must be a finite real number"),
    "energy sign bool": ("energy_sign", True, "energy_sign must be +1 or -1"),
}


@pytest.mark.parametrize("build", [build_directly, dataclasses.replace], ids=["direct", "replace"])
@pytest.mark.parametrize("name,value,message", SCALAR_FIELDS.values(), ids=SCALAR_FIELDS)
def test_plane_wave_scalars_are_finite_real_numbers(build, name, value, message):
    owner = POTENTIAL if name == "q_charge" else WAVE
    with pytest.raises(DiracError, match=f"^{re.escape(message)}$"):
        build(owner, **{name: value})


@pytest.mark.parametrize("mass", [1 + 0.5j, math.nan, True, "x"], ids=["complex", "nan", "bool", "string"])
@pytest.mark.parametrize("residual", [dhe_residual, asf_residual, matrix_dirac_residual], ids=lambda f: f.__name__)
def test_residual_masses_are_finite_real_numbers(residual, mass):
    with pytest.raises(DiracError, match="^mass must be a finite real number$"):
        residual(WAVE, POTENTIAL, mass, [0.3, -1.2, 2.5, 0.7])


@pytest.mark.parametrize(
    "mass", [math.nan, math.inf, 1 + 0j, "x", True], ids=["nan", "inf", "complex", "string", "bool"]
)
def test_plane_wave_solution_masses_are_finite_real_numbers(mass):
    """A nan mass raised the constructor's bare ValueError, and a complex or
    string one the TypeError of m <= 0."""
    with pytest.raises(DiracError, match="^mass must be a finite real number$"):
        planewave_solution(mass, (0.4, -0.7, 0.2))


def test_rev_is_reversion():
    x = Multivector(SIG13, {0: 1.0, 1: 2.0, 3: 3.0, 7: 4.0, 15: 5.0})
    assert x.rev()._terms == {0: 1.0, 1: 2.0, 3: -3.0, 7: -4.0, 15: 5.0}
