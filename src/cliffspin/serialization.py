"""Text and JSON round-tripping for multivectors.

Text syntax: terms joined by `+`/`-`; a term is `<coeff>`, `<coeff> e<i>^e<j>^...`,
or a bare blade like `e1^e3` (implicit coefficient 1).  Indices are 1-based.
Complex coefficients are written in parentheses, e.g. `(1+2j) e1`.

JSON schema: {"signature": [p, q], "terms": [{"blades": [1, 3], "re": 2.0, "im": 0.0}]}
"""

from __future__ import annotations

import json
import re

from .multivector import Multivector, Signature


def _format_number(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def _format_coeff(c: complex) -> str:
    if c.imag == 0.0:
        return _format_number(c.real)
    return "(" + _format_number(c.real) + ("+" if c.imag >= 0 else "-") + _format_number(
        abs(c.imag)
    ) + "j)"


def _blade_name(mask: int) -> str:
    return "^".join(f"e{i + 1}" for i in range(mask.bit_length()) if mask >> i & 1)


def format_multivector(mv: Multivector) -> str:
    if mv.is_zero():
        return "0"
    parts: list[str] = []
    for mask in sorted(mv.terms, key=lambda m: (m.bit_count(), m)):
        c = mv.coeff(mask)
        if c.imag == 0.0 and c.real < 0:
            sign, body = "-", _format_coeff(-c)
        else:
            sign, body = "+", _format_coeff(c)
        if mask:
            if body == "1":
                body = _blade_name(mask)
            else:
                body = body + " " + _blade_name(mask)
        if not parts:
            parts.append(body if sign == "+" else "-" + body)
        else:
            parts.append(sign + " " + body)
    return " ".join(parts)


_TERM_RE = re.compile(
    r"""^\s*
    (?:(?P<coeff>\([^)]*\)|[0-9.][0-9.eE+-]*)\s*)?
    (?P<blades>e\d+(?:\s*\^\s*e\d+)*)?\s*$""",
    re.VERBOSE,
)


class MultivectorParseError(ValueError):
    pass


def _split_terms(text: str) -> list[tuple[int, str]]:
    """Split on top-level +/- (outside parentheses, not part of an exponent),
    in one pass that visits only the characters + - ( )."""
    terms: list[tuple[int, str]] = []
    sign = 1
    buf: list[str] = []
    filled = False  # buf holds a non-whitespace character
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


def parse_multivector(text: str, sig: Signature) -> Multivector:
    text = text.strip()
    if not text:
        raise MultivectorParseError("empty multivector text")
    if text == "0":
        return Multivector.zero(sig)
    terms: dict[int, complex] = {}
    for sign, chunk in _split_terms(text):
        m = _TERM_RE.match(chunk)
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
        if m.group("blades"):
            for name in m.group("blades").replace(" ", "").split("^"):
                idx = int(name[1:])
                if not 1 <= idx <= sig.n:
                    raise MultivectorParseError(f"generator e{idx} out of range for n={sig.n}")
                bit = 1 << (idx - 1)
                if mask & bit:
                    raise MultivectorParseError(f"repeated generator e{idx}")
                mask |= bit
        terms[mask] = terms.get(mask, 0) + sign * coeff
    return Multivector(sig, terms)


def to_json_dict(mv: Multivector) -> dict:
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


def to_json(mv: Multivector) -> str:
    return json.dumps(to_json_dict(mv))


def _json_int(value, what: str) -> int:
    # JSON integers load as int; 1.9, 2.0, "2" and true are not indices.
    if not isinstance(value, int) or isinstance(value, bool):
        raise MultivectorParseError(f"{what} {value!r} is not an integer")
    return value


def from_json_dict(data: dict) -> Multivector:
    try:
        p, q = data["signature"]
        sig = Signature(_json_int(p, "signature count"), _json_int(q, "signature count"))
        terms: dict[int, complex] = {}
        for term in data["terms"]:
            mask = 0
            for idx in term["blades"]:
                idx = _json_int(idx, "blade index")
                if not 1 <= idx <= sig.n:
                    raise MultivectorParseError(f"generator e{idx} out of range for n={sig.n}")
                bit = 1 << (idx - 1)
                if bit & mask:
                    raise MultivectorParseError(f"repeated generator index {idx}")
                mask |= bit
            terms[mask] = terms.get(mask, 0) + complex(term.get("re", 0.0), term.get("im", 0.0))
    except (KeyError, TypeError, AttributeError) as exc:
        raise MultivectorParseError(f"malformed multivector JSON ({exc!r})") from None
    return Multivector(sig, terms)


def from_json(text: str) -> Multivector:
    return from_json_dict(json.loads(text))
