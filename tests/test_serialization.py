import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffspin import (
    Multivector,
    Signature,
    format_multivector,
    from_json,
    from_json_dict,
    parse_multivector,
    to_json,
    to_json_dict,
)
from cliffspin.serialization import MultivectorParseError

SIG13 = Signature(1, 3)

rng = np.random.default_rng(21)


def random_mv(sig, complex_coeffs=False):
    terms = {}
    for m in range(1 << sig.n):
        if rng.random() < 0.4:
            if complex_coeffs:
                terms[m] = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            else:
                terms[m] = float(rng.uniform(-2, 2))
    return Multivector(sig, terms)


def test_format_simple():
    mv = Multivector(SIG13, {0: 0.5, 0b1: 0.5})
    assert format_multivector(mv) == "0.5 + 0.5 e1"
    mv2 = Multivector(SIG13, {0b101: 2.0})
    assert format_multivector(mv2) == "2 e1^e3"
    assert format_multivector(Multivector.zero(SIG13)) == "0"


def test_parse_round_trip_text():
    for _ in range(50):
        mv = random_mv(SIG13)
        text = format_multivector(mv)
        back = parse_multivector(text, SIG13)
        assert (back - mv).max_abs() < 1e-12


def test_parse_errors():
    with pytest.raises(MultivectorParseError):
        parse_multivector("1 + e9", SIG13)
    with pytest.raises(MultivectorParseError):
        parse_multivector("spam", SIG13)


@pytest.mark.parametrize("idx", [0, -1, 5, 10**8])
def test_json_blade_index_out_of_range(idx):
    data = {"signature": [1, 3], "terms": [{"blades": [1, idx], "re": 1.0}]}
    with pytest.raises(MultivectorParseError) as info:
        from_json_dict(data)
    assert str(info.value) == f"generator e{idx} out of range for n=4"
    if idx >= 0:
        with pytest.raises(MultivectorParseError, match=f"^{info.value}$"):
            parse_multivector(f"e1^e{idx}", SIG13)


@pytest.mark.parametrize(
    "signature,blades",
    [([1, 3], [1.9]), ([1, 3], ["2"]), ([1, 3], [True]), ([1, 3], [2.0]),
     ([1.7, 3], [1]), (["1", 3], [1]), ([1, False], [1])],
)
def test_json_reads_only_integers(signature, blades):
    data = {"signature": signature, "terms": [{"blades": blades, "re": 1.0}]}
    with pytest.raises(MultivectorParseError, match="is not an integer"):
        from_json_dict(data)


def test_json_round_trip():
    for _ in range(20):
        mv = random_mv(SIG13, complex_coeffs=True)
        blob = to_json(mv)
        data = json.loads(blob)
        assert data["signature"] == [1, 3]
        back = from_json(blob)
        assert back.signature == SIG13
        assert (back - mv).max_abs() == 0.0


def test_json_dict_round_trip_other_signature():
    sig = Signature(2, 3)
    mv = random_mv(sig)
    back = from_json_dict(to_json_dict(mv))
    assert back.signature == sig
    assert (back - mv).max_abs() == 0.0


def test_parse_round_trip_text_is_exact_on_dense_cl34():
    sig = Signature(3, 4)
    local = np.random.default_rng(8)
    scales = 10.0 ** local.integers(-9, 9, size=128)
    terms = {m: float(local.uniform(-2, 2) * scales[m]) for m in range(128)}
    terms.update({0: 1e-05, 0b11: 1 + 2j, 0b101: -2.5e-07 - 3e20j, 0b1111111: -(1 - 1e-12j)})
    mv = Multivector(sig, terms)
    text = format_multivector(mv)
    assert "e-" in text and "e+" in text and "j)" in text
    assert parse_multivector(text, sig) == mv


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def sparse_multivectors(draw):
    p = draw(st.integers(0, 6))
    sig = Signature(p, draw(st.integers(0, 6 - p)))
    coeffs = st.one_of(FINITE, st.builds(complex, FINITE, FINITE))
    return Multivector(
        sig, draw(st.dictionaries(st.integers(0, (1 << sig.n) - 1), coeffs, max_size=8))
    )


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(sparse_multivectors())
def test_json_round_trip_property(mv):
    assert from_json(to_json(mv)) == mv


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(sparse_multivectors())
def test_text_round_trip_property(mv):
    assert parse_multivector(format_multivector(mv), mv.signature) == mv
