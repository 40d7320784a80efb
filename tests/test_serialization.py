import json
import math
import re
from functools import partial
from operator import countOf

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffspin import (
    Multivector,
    Signature,
    format_multivector,
    geometric_product,
    from_json,
    from_json_dict,
    left_contraction,
    parse_multivector,
    to_json,
    to_json_dict,
    wedge,
)
from cliffspin import multivector, serialization
from cliffspin.expressions import evaluate_source
from cliffspin.multivector import MAX_DIM
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


def test_json_signature_of_wrong_length_is_malformed():
    malformed = r"^malformed multivector JSON \(ValueError"
    for signature in ([1, 3, 5], [4], []):
        with pytest.raises(MultivectorParseError, match=malformed):
            from_json_dict({"signature": signature, "terms": []})


@pytest.mark.parametrize("part", ["re", "im", "both"])
@pytest.mark.parametrize("value", [True, False])
def test_json_reads_only_numbers(part, value):
    # With both parts boolean, the message names re.
    parts, named = (("re", "im"), "re") if part == "both" else ((part,), part)
    term = {"blades": [1], "re": 1.0} | dict.fromkeys(parts, value)
    data = {"signature": [1, 3], "terms": [term]}
    message = f"^coefficient part {named}={value} is not a number$"
    with pytest.raises(MultivectorParseError, match=message):
        from_json_dict(data)


def test_to_json_dict_returns_fresh_lists():
    mv = random_mv(Signature(2, 2), complex_coeffs=True)
    first, second = to_json_dict(mv), to_json_dict(mv)
    assert first == second
    for a, b in zip(first["terms"], second["terms"]):
        assert a["blades"] is not b["blades"]
    first["signature"].append(9)
    for term in first["terms"]:
        term["blades"].append(99)
    assert to_json_dict(mv) == second
    assert from_json_dict(second) == mv


# -- the readers and writers before the per-n tables, kept as oracles ------------
#
# The old readers read every blade as if its generators were ascending.  With
# sort_sign=True they also apply the sign of the swaps that sort them, counted
# pair by pair; that is the only rule the readers have gained since.


def _odd_order(indices: list[int]) -> bool:
    return sum(a > b for i, a in enumerate(indices) for b in indices[i + 1 :]) % 2 == 1


def _old_format_number(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def _old_format_coeff(c: complex) -> str:
    if c.imag == 0.0:
        return _old_format_number(c.real)
    return "(" + _old_format_number(c.real) + ("+" if c.imag >= 0 else "-") + _old_format_number(
        abs(c.imag)
    ) + "j)"


def _old_blade_name(mask: int) -> str:
    return "^".join(f"e{i + 1}" for i in range(mask.bit_length()) if mask >> i & 1)


def _old_format_multivector(mv: Multivector) -> str:
    if mv.is_zero():
        return "0"
    parts: list[str] = []
    for mask in sorted(mv.terms, key=lambda m: (m.bit_count(), m)):
        c = mv.coeff(mask)
        if c.imag == 0.0 and c.real < 0:
            sign, body = "-", _old_format_coeff(-c)
        else:
            sign, body = "+", _old_format_coeff(c)
        if mask:
            if body == "1":
                body = _old_blade_name(mask)
            else:
                body = body + " " + _old_blade_name(mask)
        if not parts:
            parts.append(body if sign == "+" else "-" + body)
        else:
            parts.append(sign + " " + body)
    return " ".join(parts)


def _old_to_json_dict(mv: Multivector) -> dict:
    return {
        "signature": [mv.signature.p, mv.signature.q],
        "terms": [
            {
                "blades": [i + 1 for i in range(mask.bit_length()) if mask >> i & 1],
                "re": mv.coeff(mask).real,
                "im": mv.coeff(mask).imag,
            }
            for mask in sorted(mv.terms, key=lambda m: (m.bit_count(), m))
        ],
    }


_OLD_TERM_RE = re.compile(
    r"""^\s*
    (?:(?P<coeff>\([^)]*\)|[0-9.][0-9.eE+-]*)\s*)?
    (?P<blades>e\d+(?:\s*\^\s*e\d+)*)?\s*$""",
    re.VERBOSE,
)


def _old_split_terms(text: str) -> list[tuple[int, str]]:
    terms: list[tuple[int, str]] = []
    sign = 1
    buf: list[str] = []
    filled = False
    depth = 0
    pos = 0
    for match in re.finditer(r"[-+()]", text):
        i = match.start()
        run = text[pos:i]
        buf.append(run)
        filled = filled or (run != "" and not run.isspace())
        ch = text[i]
        pos = i + 1
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch in "()" or depth != 0 or (filled and text[i - 1] in "eE"):
            buf.append(ch)
            filled = True
        elif not filled:
            sign *= 1 if ch == "+" else -1
        else:
            terms.append((sign, "".join(buf)))
            sign = 1 if ch == "+" else -1
            buf, filled = [], False
    buf.append(text[pos:])
    terms.append((sign, "".join(buf)))
    return terms


def _old_json_int(value, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise MultivectorParseError(f"{what} {value!r} is not an integer")
    return value


def _old_parse_multivector(text: str, sig: Signature, sort_sign: bool = False) -> Multivector:
    text = text.strip()
    if not text:
        raise MultivectorParseError("empty multivector text")
    if text == "0":
        return Multivector.zero(sig)
    terms: dict[int, complex] = {}
    for sign, chunk in _old_split_terms(text):
        m = _OLD_TERM_RE.match(chunk)
        if not m or (m.group("coeff") is None and m.group("blades") is None):
            raise MultivectorParseError(f"bad term: {chunk!r}")
        coeff_src = m.group("coeff")
        if coeff_src is None:
            coeff = 1.0 + 0j
        else:
            try:
                coeff = complex(coeff_src.strip("()").replace(" ", ""))
            except ValueError as exc:
                raise MultivectorParseError(f"bad coefficient: {coeff_src!r}") from exc
        mask = 0
        order: list[int] = []
        if m.group("blades"):
            for name in m.group("blades").replace(" ", "").split("^"):
                idx = int(name[1:])
                if not 1 <= idx <= sig.n:
                    raise MultivectorParseError(f"generator e{idx} out of range for n={sig.n}")
                bit = 1 << (idx - 1)
                if mask & bit:
                    raise MultivectorParseError(f"repeated generator e{idx}")
                mask |= bit
                order.append(idx)
        if sort_sign and _odd_order(order):
            sign = -sign
        terms[mask] = terms.get(mask, 0) + sign * coeff
    return Multivector(sig, terms)


def _old_from_json_dict(data: dict, sort_sign: bool = False) -> Multivector:
    try:
        p, q = data["signature"]
        sig = Signature(
            _old_json_int(p, "signature count"),
            _old_json_int(q, "signature count"),
        )
        terms: dict[int, complex] = {}
        for term in data["terms"]:
            mask = 0
            order: list[int] = []
            for idx in term["blades"]:
                idx = _old_json_int(idx, "blade index")
                if not 1 <= idx <= sig.n:
                    raise MultivectorParseError(f"generator e{idx} out of range for n={sig.n}")
                bit = 1 << (idx - 1)
                if bit & mask:
                    raise MultivectorParseError(f"repeated generator index {idx}")
                mask |= bit
                order.append(idx)
            coeff = complex(term.get("re", 0.0), term.get("im", 0.0))
            terms[mask] = terms.get(mask, 0) + (-coeff if sort_sign and _odd_order(order) else coeff)
    except (KeyError, TypeError, AttributeError) as exc:
        raise MultivectorParseError(f"malformed multivector JSON ({exc!r})") from None
    return Multivector(sig, terms)


def _outcome(read, *args):
    """A reader's result as its exact (mask, real.hex(), imag.hex(), type)
    list in key order with its realness, or its exception's type and message."""
    try:
        mv = read(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)
    terms = [(m, c.real.hex(), c.imag.hex(), type(c)) for m, c in mv._terms.items()]
    return mv.signature, terms, mv.real


# -- the readers before coefficients were read directly, kept as oracles --------
#
# The canonical text path read every coefficient with complex() and
# multiplied it by its separator's sign; the JSON reader checked every
# coefficient's parts in a helper.  Every other step is the module's own.

_HEAD_SEPARATOR_SIGN = {"": 1, "-": -1, " + ": 1, " - ": -1}


def _head_parse_canonical(text: str, tables) -> dict[int, complex] | None:
    parts = serialization._CANONICAL_TERM_RE.split(text)
    if any(parts[::5]):
        return None
    terms: dict[int, complex] = {}
    for sep, coeff_src, blades, bare in zip(parts[1::5], parts[2::5], parts[3::5], parts[4::5]):
        if bare:
            coeff, blades = 1.0 + 0j, bare
        else:
            coeff = complex(coeff_src)
        mask = tables.by_name.get(blades) if blades else 0
        if mask is None:
            return None
        terms[mask] = terms.get(mask, 0) + _HEAD_SEPARATOR_SIGN[sep] * coeff
    return terms


def _head_parse_multivector(text: str, sig: Signature) -> Multivector:
    text = text.strip()
    if not text:
        raise MultivectorParseError("empty multivector text")
    if text == "0":
        return Multivector.zero(sig)
    terms = _head_parse_canonical(text, serialization._tables(sig.n))
    if terms is None:
        terms = serialization._parse_terms(text, sig.n)
    return Multivector._own(sig, terms)


def _head_json_coeff(term) -> complex:
    re_, im = term.get("re", 0.0), term.get("im", 0.0)
    if type(re_) is bool or type(im) is bool:
        name, value = ("re", re_) if type(re_) is bool else ("im", im)
        raise MultivectorParseError(f"coefficient part {name}={value!r} is not a number")
    return complex(re_, im)


def _head_from_json_dict(data: dict) -> Multivector:
    json_int = serialization._json_int
    try:
        try:
            p, q = data["signature"]
        except ValueError as exc:
            raise MultivectorParseError(f"malformed multivector JSON ({exc!r})") from None
        sig = Signature(json_int(p, "signature count"), json_int(q, "signature count"))
        by_indices = serialization._tables(sig.n).by_indices
        terms: dict[int, complex] = {}
        for term in data["terms"]:
            blades = term["blades"]
            mask, odd = None, False
            if type(blades) is list and countOf(map(type, blades), int) == len(blades):
                mask = by_indices.get(tuple(blades))
            if mask is None:
                mask, odd = serialization._json_mask(blades, sig.n)
            coeff = _head_json_coeff(term)
            terms[mask] = terms.get(mask, 0) + (-coeff if odd else coeff)
    except (KeyError, TypeError, AttributeError) as exc:
        raise MultivectorParseError(f"malformed multivector JSON ({exc!r})") from None
    return Multivector._own(sig, terms)


def _head_from_json(text: str) -> Multivector:
    return _head_from_json_dict(json.loads(text))


TEXT_ALPHABET = "e0123456789^.+-()jE "


@st.composite
def edited_texts(draw):
    """A written multivector with a few characters replaced, inserted or deleted."""
    text = list(format_multivector(draw(sparse_multivectors())))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(["replace", "insert", "delete"]))
        char = draw(st.sampled_from(TEXT_ALPHABET))
        if op == "insert":
            text.insert(at, char)
        elif text and at < len(text):
            if op == "replace":
                text[at] = char
            else:
                del text[at]
    return "".join(text)


@st.composite
def reordered_texts(draw):
    """A written multivector with each blade's generators in a drawn order."""
    text = format_multivector(draw(sparse_multivectors()))

    def reorder(blade):
        return "^".join(draw(st.permutations(blade.group().split("^"))))

    return re.sub(r"e\d+(?:\^e\d+)+", reorder, text)


@settings(derandomize=True, deadline=None, max_examples=600, database=None)
@given(
    st.one_of(st.text(TEXT_ALPHABET, max_size=40), edited_texts(), reordered_texts()),
    st.integers(0, 6),
)
def test_parse_matches_old_reader(text, n):
    sig = Signature(n // 2, n - n // 2)
    want = _outcome(partial(_old_parse_multivector, sort_sign=True), text, sig)
    got = _outcome(parse_multivector, text, sig)
    assert got == want
    assert got == _outcome(_head_parse_multivector, text, sig)


@pytest.mark.parametrize(
    "text",
    ["2e1", "1e5e1", "inf e1", "E1", "e1 ^ e3", "e1\t^e3", "e3^e1", "e01", "1 + e1^e1", "(1+2j)e2",
     "-(1+2j) e2", "- -e1", "1e999 e1", "(1e+999+0j)", "1.5e-07 e1 - (0.5-2e+20j) e2^e3", ".5 e1"],
)
def test_parse_traps_match_old_reader(text):
    sig = Signature(1, 3)
    want = _outcome(partial(_old_parse_multivector, sort_sign=True), text, sig)
    got = _outcome(parse_multivector, text, sig)
    assert got == want
    assert got == _outcome(_head_parse_multivector, text, sig)


@pytest.mark.parametrize("order", [(3, 1), (4, 2, 1), (2, 4, 1), (5, 3, 4, 1), (1, 2, 3, 4, 5)])
def test_readers_take_generators_in_any_order(order):
    """A blade with its generators in any order reads as their product, as
    the expression language and geometric_product take it."""
    sig = Signature(4, 1)
    product = Multivector.scalar(sig, 1.0)
    for i in order:
        product = geometric_product(product, Multivector.generator(sig, i))
    want = 2.5 * product
    assert abs(want.coeff(sum(1 << (i - 1) for i in order))) == 2.5
    text = "2.5 " + "^".join(f"e{i}" for i in order)
    assert parse_multivector(text, sig) == want
    assert parse_multivector("-" + text, sig) == -want
    data = {"signature": [4, 1], "terms": [{"blades": list(order), "re": 2.5}]}
    assert from_json_dict(data) == want
    assert Multivector.blade(sig, order, 2.5) == want
    assert evaluate_source("2.5*" + "^".join(f"e{i}" for i in order), sig) == want


def test_descending_blade_reads_with_its_sign_in_cl13():
    sig = Signature(1, 3)
    e1, e3 = Multivector.generator(sig, 1), Multivector.generator(sig, 3)
    want = geometric_product(e3, e1)
    assert want == -Multivector.blade(sig, [1, 3])
    assert parse_multivector("e3^e1", sig) == want
    assert from_json_dict({"signature": [1, 3], "terms": [{"blades": [3, 1], "re": 1.0}]}) == want
    assert Multivector.blade(sig, [3, 1]) == want


JSON_SCALARS = st.one_of(
    st.integers(-2, 8),
    st.booleans(),
    st.sampled_from([1.0, 2.0, 1.5, -0.0]),
    st.just("2"),
    st.none(),
)


@st.composite
def json_terms(draw):
    term = {}
    if draw(st.integers(0, 9)):
        term["blades"] = draw(st.lists(JSON_SCALARS, max_size=4) | JSON_SCALARS)
    for part in ("re", "im"):
        if draw(st.booleans()):
            term[part] = draw(JSON_SCALARS | st.floats(allow_nan=False, allow_infinity=False))
    return term


@st.composite
def json_dicts(draw):
    data = {}
    if draw(st.integers(0, 9)):
        data["signature"] = draw(st.lists(JSON_SCALARS, max_size=3) | JSON_SCALARS)
    if draw(st.integers(0, 9)):
        data["terms"] = draw(st.lists(json_terms(), max_size=4))
    return data


@st.composite
def reordered_json_dicts(draw):
    """A written multivector's JSON with each blade's generators in a drawn order."""
    data = to_json_dict(draw(sparse_multivectors()))
    for term in data["terms"]:
        term["blades"] = draw(st.permutations(term["blades"]))
    return data


@settings(derandomize=True, deadline=None, max_examples=600, database=None)
@given(json_dicts() | sparse_multivectors().map(to_json_dict) | reordered_json_dicts())
def test_from_json_dict_matches_old_reader(data):
    new = _outcome(from_json_dict, data)
    assert new == _outcome(_head_from_json_dict, data)
    old = _outcome(partial(_old_from_json_dict, sort_sign=True), data)
    if new == old:
        return
    # The two rejections the old reader lacked: a signature of the wrong
    # length, which it let through as a bare unpacking error, and boolean
    # coefficients, which it read as 0 and 1.
    if old[0] is ValueError and "values to unpack" in old[1]:
        wrapped = f"malformed multivector JSON (ValueError({old[1]!r}))"
        assert new == (MultivectorParseError, wrapped)
    else:
        assert new[0] is MultivectorParseError and new[1].endswith("is not a number")
        assert any(
            type(term.get(part)) is bool for term in data["terms"] for part in ("re", "im")
        )


@pytest.mark.parametrize(
    "sig,density",
    [(Signature(4, 3), 1.0), (Signature(6, 6), 0.01)],
    ids=["cl43-dense", "cl66-sparse"],
)
def test_writers_are_byte_identical_to_old_writers(sig, density):
    local = np.random.default_rng(12)
    masks = np.flatnonzero(local.random(1 << sig.n) < density).tolist()
    scales = 10.0 ** local.integers(-20, 20, size=len(masks))
    values = local.uniform(-2, 2, size=(len(masks), 2)) * scales[:, None]
    # Every third coefficient is real.
    terms = {
        m: complex(x, y if i % 3 else 0.0) for i, (m, (x, y)) in enumerate(zip(masks, values))
    }
    terms.update({0: -3.0, masks[-1]: 1.0, masks[len(masks) // 2]: 2.5e15 - 1j})
    for mv in (Multivector(sig, terms), Multivector(sig, {m: -c for m, c in terms.items()})):
        assert format_multivector(mv) == _old_format_multivector(mv)
        assert to_json(mv) == json.dumps(_old_to_json_dict(mv))


# -- the direct writers against json.dumps and the old writers -----------------

# Floats at the edges of the number forms: the smallest subnormal, near the
# overflow and underflow, 2^53, and integer values on both sides of 1e15,
# where the text writer switches from str(int) to repr.
EDGE_FLOATS = [
    5e-324, 1e300, 1e-300, 2.0**53, 999999999999999.0, 1e15, 1000000000000002.0, 1.0, 3.0
]
EDGE_COEFFS = st.sampled_from(EDGE_FLOATS + [-x for x in EDGE_FLOATS])
WRITER_FLOATS = st.one_of(EDGE_COEFFS, FINITE)


@st.composite
def written_values(draw):
    """Real or complex values, sparse at every n up to MAX_DIM and dense
    (drawn from a seeded generator, one edge float in four) up to n = 7."""
    n = draw(st.integers(0, MAX_DIM))
    p = draw(st.integers(0, n))
    sig = Signature(p, n - p)
    is_complex = draw(st.booleans())
    if n <= 7 and draw(st.booleans()):
        local = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        size = 1 << n
        parts = local.uniform(-2, 2, size=(size, 2)) * 10.0 ** local.integers(-300, 300, (size, 2))
        edges = local.choice(EDGE_FLOATS, size=(size, 2)) * local.choice([-1.0, 1.0], (size, 2))
        parts = np.where(local.random((size, 2)) < 0.25, edges, parts).tolist()
        terms = {m: complex(x, y) if is_complex else x for m, (x, y) in enumerate(parts)}
    else:
        coeffs = st.builds(complex, WRITER_FLOATS, WRITER_FLOATS) if is_complex else WRITER_FLOATS
        terms = draw(st.dictionaries(st.integers(0, (1 << n) - 1), coeffs, max_size=8))
    return Multivector(sig, terms)


def assert_writers_match(mv):
    if mv.real:
        # The invariant behind to_json's constant "im": 0.0.
        assert all(math.copysign(1.0, c.imag) == 1.0 for c in mv._terms.values())
    blob = to_json(mv)
    assert blob == json.dumps(to_json_dict(mv)) == json.dumps(_old_to_json_dict(mv))
    text = format_multivector(mv)
    assert text == _old_format_multivector(mv)
    # The readers give the bits that the readers before them gave.
    assert _outcome(from_json, blob) == _outcome(_head_from_json, blob)
    sig = mv.signature
    assert _outcome(parse_multivector, text, sig) == _outcome(_head_parse_multivector, text, sig)


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(written_values())
def test_writers_match_their_oracles(mv):
    # Negation and halving store their results through their own builders.
    for value in (mv, -mv, mv * 0.5, mv * -0.5):
        assert_writers_match(value)


def test_writers_on_the_zero_value():
    for sig in (Signature(0, 0), Signature(1, 3), Signature(6, 6)):
        zero = Multivector.zero(sig)
        assert to_json(zero) == json.dumps(to_json_dict(zero))
        assert to_json(zero) == f'{{"signature": [{sig.p}, {sig.q}], "terms": []}}'
        assert_writers_match(zero)


def _product_operands(sig, density, is_complex, seed):
    local = np.random.default_rng(seed)
    operands = []
    for _ in range(2):
        masks = np.flatnonzero(local.random(1 << sig.n) < density).tolist() or [0]
        values = local.uniform(-2, 2, size=(len(masks), 2))
        terms = {m: complex(x, y) if is_complex else x for m, (x, y) in zip(masks, values)}
        operands.append(Multivector(sig, terms))
    return operands


@pytest.mark.parametrize(
    "path, sig, density, is_complex",
    [
        ("kernel", Signature(1, 3), 1.0, False),
        ("kernel", Signature(2, 2), 0.5, False),
        ("array", Signature(4, 3), 1.0, False),
        ("array", Signature(3, 2), 1.0, False),
        ("loop", Signature(4, 3), 0.06, False),
        ("loop", Signature(1, 3), 1.0, True),
        ("loop", Signature(4, 3), 0.5, True),
    ],
)
def test_writers_match_their_oracles_on_each_product_path(
    monkeypatch, path, sig, density, is_complex
):
    calls = []
    for name in ("_product_array", "_product_loop"):
        fn = getattr(multivector, name)
        monkeypatch.setattr(
            multivector, name, lambda *a, _fn=fn, _name=name: (calls.append(_name), _fn(*a))[1]
        )
    # A fresh kernel cache, so that no pair budget spent by other tests
    # sends the kernel cases to the loop.
    monkeypatch.setattr(multivector, "_KERNELS", multivector._KernelCache())
    for seed in range(3):
        a, b = _product_operands(sig, density, is_complex, seed)
        products = [geometric_product(a, b), wedge(a, b), left_contraction(a, b)]
        for value in products:
            assert value.real == (not is_complex)
            for derived in (value, -value, value * -0.5, value * 3.0):
                assert_writers_match(derived)
    assert set(calls) == (set() if path == "kernel" else {f"_product_{path}"})


@pytest.mark.parametrize(
    "text",
    ["1 e1 - 1 e1", "-0", "0 - 0 e1 + 0", "-0 e2 - 0 e2", "e1 - e1 + e1", "-e1 - 1 e1",
     "(0-0j) e1 - (0+0j) e1", "-(1-2j) e1", "1e+999 e1", "1e+999 e1 - 1e+999 e1",
     "(1e+999+1j) e1 - 1 e1", "0.5 - (-0.5+0j) + 2.5 e1^e2 - 2.5 e1^e2 + 1e-320 e1^e2",
     "5e-324 e3 - 5e-324 e3 - 5e-324 e3", "1e+300 e4 + 1e+300 e4"],
)
def test_canonical_reader_matches_the_old_reader_bit_for_bit(text):
    sig = Signature(1, 3)
    assert serialization._parse_canonical(text, serialization._tables(4)) is not None
    got = _outcome(parse_multivector, text, sig)
    assert got == _outcome(_head_parse_multivector, text, sig)
    assert got == _outcome(partial(_old_parse_multivector, sort_sign=True), text, sig)


@st.composite
def canonical_texts(draw):
    """Text in the writer's own form with repeated blades, zeros and both
    separators: the direct path reads it."""
    number = st.one_of(WRITER_FLOATS, st.just(0.0)).map(lambda x: _old_format_number(abs(x)))
    terms = []
    for _ in range(draw(st.integers(1, 6))):
        name = draw(st.sampled_from(["", "e1", "e2^e3", "e1^e2^e3^e4"]))
        kind = draw(st.sampled_from(["real", "complex", "bare"] if name else ["real", "complex"]))
        if kind == "real":
            body = draw(number) + (" " + name if name else "")
        elif kind == "complex":
            body = "(" + ("-" if draw(st.booleans()) else "") + draw(number)
            body += draw(st.sampled_from("+-")) + draw(number) + "j)" + (" " + name if name else "")
        else:
            body = name
        terms.append(draw(st.sampled_from(["+", "-"])) + " " + body)
    text = " ".join(terms)
    return text[2:] if text[0] == "+" else "-" + text[2:]


@settings(derandomize=True, deadline=None, max_examples=400, database=None)
@given(canonical_texts())
def test_canonical_reader_matches_the_old_reader_property(text):
    sig = Signature(2, 2)
    assert serialization._parse_canonical(text, serialization._tables(4)) is not None
    assert _outcome(parse_multivector, text, sig) == _outcome(_head_parse_multivector, text, sig)
