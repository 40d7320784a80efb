"""Text and JSON round-tripping for multivectors.

Text syntax: terms joined by `+`/`-`; a term is `<coeff>`, `<coeff> e<i>^e<j>^...`,
or a bare blade like `e1^e3` (implicit coefficient 1).  Indices are 1-based.
Complex coefficients are written in parentheses, e.g. `(1+2j) e1`.

JSON schema: {"signature": [p, q], "terms": [{"blades": [1, 3], "re": 2.0, "im": 0.0}]}

The writers list generators in ascending order.  The readers take them in any
order and read a blade as their product: `e3^e1` and `"blades": [3, 1]` are
-e1^e3, the sign of the swaps that sort them.

Both writers and both readers work from one table set per dimension n
(``_tables``), built on first use and cached for every n up to MAX_DIM.  It
holds, for each blade mask, its rank in the canonical order (ascending grade,
then mask), its name ``e1^e3`` and its 1-based index tuple ``(1, 3)``, and the
inverse maps from name and from index tuple back to the mask.  The writers
sort by rank and read each coefficient once.  The readers resolve a blade with
one lookup; only a miss runs the validating loop, so every error message is
the loop's.  Text in the writer's own form (single spaces around `+`/`-`, one
space before a blade) is cut into its terms by one regular-expression split;
any other text goes through the general term parser.  Both readers sum the checked
terms in input order and build the result with ``Multivector._own``.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache
from operator import countOf
from typing import NamedTuple

from .multivector import MAX_DIM, Multivector, Signature


class _Tables(NamedTuple):
    rank: tuple[int, ...]  # mask -> position in ascending (grade, mask) order
    names: tuple[str, ...]  # mask -> "e1^e3" ("" for the scalar)
    indices: tuple[tuple[int, ...], ...]  # mask -> (1, 3)
    by_name: dict[str, int]
    by_indices: dict[tuple[int, ...], int]


@lru_cache(maxsize=MAX_DIM + 1)
def _tables(n: int) -> _Tables:
    size = 1 << n
    indices = tuple(tuple(i + 1 for i in range(n) if m >> i & 1) for m in range(size))
    names = tuple("^".join(f"e{i}" for i in idx) for idx in indices)
    rank = [0] * size
    for r, m in enumerate(sorted(range(size), key=lambda m: (m.bit_count(), m))):
        rank[m] = r
    return _Tables(
        tuple(rank), names, indices, dict(zip(names, range(size))), dict(zip(indices, range(size)))
    )


def _format_number(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def format_multivector(mv: Multivector) -> str:
    terms = mv._terms
    if not terms:
        return "0"
    tables = _tables(mv.signature.n)
    names = tables.names
    parts: list[str] = []  # alternating separator and body
    for mask in sorted(terms, key=tables.rank.__getitem__):
        c = terms[mask]
        if c.imag != 0.0:
            sep = " + "
            body = "(" + _format_number(c.real) + ("+" if c.imag >= 0 else "-") + _format_number(
                abs(c.imag)
            ) + "j)"
        elif c.real < 0:
            sep, body = " - ", _format_number(-c.real)
        else:
            sep, body = " + ", _format_number(c.real)
        if mask:
            body = names[mask] if body == "1" else body + " " + names[mask]
        parts += sep, body
    parts[0] = "-" if parts[0] == " - " else ""
    return "".join(parts)


_TERM_RE = re.compile(
    r"""^\s*
    (?:(?P<coeff>\([^)]*\)|[0-9.][0-9.eE+-]*)\s*)?
    (?P<blades>e\d+(?:\s*\^\s*e\d+)*)?\s*$""",
    re.VERBOSE,
)

# The writer's own form: an optional leading "-", then terms joined by " + "
# or " - ".  A term is a number or a parenthesised complex, optionally
# followed by one space and a blade, or a bare blade.  Numbers are those that
# str(int) and float.__repr__ print for finite values.
_NUMBER = r"\d+(?:\.\d+)?(?:e[+-]\d+)?"
_BLADE = r"e\d+(?:\^e\d+)*"
_TERM = rf"(?:({_NUMBER}|\(-?{_NUMBER}[+-]{_NUMBER}j\))(?: ({_BLADE}))?|({_BLADE}))"
_CANONICAL_TERM_RE = re.compile(rf"(^-?| [+-] ){_TERM}")
_SEPARATOR_SIGN = {"": 1, "-": -1, " + ": 1, " - ": -1}


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


def _text_mask(blades: str, n: int) -> tuple[int, bool]:
    """The mask of a blade as `e<i>^e<j>...` text, checked index by index,
    and whether sorting its generators takes an odd number of swaps."""
    mask, swaps = 0, 0
    for name in blades.replace(" ", "").split("^"):
        idx = int(name[1:])
        if not 1 <= idx <= n:
            raise MultivectorParseError(f"generator e{idx} out of range for n={n}")
        bit = 1 << (idx - 1)
        if mask & bit:
            raise MultivectorParseError(f"repeated generator e{idx}")
        swaps += (mask >> idx).bit_count()  # earlier generators above e<idx>
        mask |= bit
    return mask, bool(swaps & 1)


def _parse_canonical(text: str, tables: _Tables) -> dict[int, complex] | None:
    """The summed terms of text in the writer's own form whose blades are all
    canonical names; None for any other text."""
    # split() interleaves the text around the terms with their four groups;
    # the form holds when the terms tile the text, and then they are the
    # chunks that _split_terms would cut.
    parts = _CANONICAL_TERM_RE.split(text)
    if any(parts[::5]):
        return None
    by_name = tables.by_name
    terms: dict[int, complex] = {}
    for sep, coeff_src, blades, bare in zip(parts[1::5], parts[2::5], parts[3::5], parts[4::5]):
        if bare:
            coeff, blades = 1.0 + 0j, bare
        else:
            # complex() reads "(1+2j)" as it reads "1+2j".
            coeff = complex(coeff_src)
        mask = by_name.get(blades) if blades else 0
        if mask is None:
            return None
        terms[mask] = terms.get(mask, 0) + _SEPARATOR_SIGN[sep] * coeff
    return terms


def _parse_terms(text: str, n: int) -> dict[int, complex]:
    """The summed terms of any text, checked term by term."""
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
        mask, odd = _text_mask(m.group("blades"), n) if m.group("blades") else (0, False)
        terms[mask] = terms.get(mask, 0) + (-sign if odd else sign) * coeff
    return terms


def parse_multivector(text: str, sig: Signature) -> Multivector:
    text = text.strip()
    if not text:
        raise MultivectorParseError("empty multivector text")
    if text == "0":
        return Multivector.zero(sig)
    terms = _parse_canonical(text, _tables(sig.n))
    if terms is None:
        terms = _parse_terms(text, sig.n)
    return Multivector._own(sig, terms)


def to_json_dict(mv: Multivector) -> dict:
    terms = mv._terms
    tables = _tables(mv.signature.n)
    indices = tables.indices
    return {
        "signature": [mv.signature.p, mv.signature.q],
        "terms": [
            {"blades": list(indices[mask]), "re": (c := terms[mask]).real, "im": c.imag}
            for mask in sorted(terms, key=tables.rank.__getitem__)
        ],
    }


def to_json(mv: Multivector) -> str:
    return json.dumps(to_json_dict(mv))


def _json_int(value, what: str) -> int:
    # JSON integers load as int; 1.9, 2.0, "2" and true are not indices.
    if not isinstance(value, int) or isinstance(value, bool):
        raise MultivectorParseError(f"{what} {value!r} is not an integer")
    return value


def _json_mask(blades, n: int) -> tuple[int, bool]:
    """The mask of a JSON index list, checked index by index, and whether
    sorting its generators takes an odd number of swaps."""
    mask, swaps = 0, 0
    for idx in blades:
        idx = _json_int(idx, "blade index")
        if not 1 <= idx <= n:
            raise MultivectorParseError(f"generator e{idx} out of range for n={n}")
        bit = 1 << (idx - 1)
        if bit & mask:
            raise MultivectorParseError(f"repeated generator index {idx}")
        swaps += (mask >> idx).bit_count()  # earlier generators above e<idx>
        mask |= bit
    return mask, bool(swaps & 1)


def _json_coeff(term) -> complex:
    re_, im = term.get("re", 0.0), term.get("im", 0.0)
    # complex() reads true as 1; JSON booleans are not numbers.
    if type(re_) is bool or type(im) is bool:
        name, value = ("re", re_) if type(re_) is bool else ("im", im)
        raise MultivectorParseError(f"coefficient part {name}={value!r} is not a number")
    return complex(re_, im)


def from_json_dict(data: dict) -> Multivector:
    try:
        try:
            p, q = data["signature"]
        except ValueError as exc:  # a signature of the wrong length
            raise MultivectorParseError(f"malformed multivector JSON ({exc!r})") from None
        sig = Signature(_json_int(p, "signature count"), _json_int(q, "signature count"))
        by_indices = _tables(sig.n).by_indices
        terms: dict[int, complex] = {}
        for term in data["terms"]:
            blades = term["blades"]
            # Only a list of exact ints may hit: True and 1.0 hash as 1.  The
            # table holds ascending lists alone, which need no swap.
            mask, odd = None, False
            if type(blades) is list and countOf(map(type, blades), int) == len(blades):
                mask = by_indices.get(tuple(blades))
            if mask is None:
                mask, odd = _json_mask(blades, sig.n)
            coeff = _json_coeff(term)
            terms[mask] = terms.get(mask, 0) + (-coeff if odd else coeff)
    except (KeyError, TypeError, AttributeError) as exc:
        raise MultivectorParseError(f"malformed multivector JSON ({exc!r})") from None
    return Multivector._own(sig, terms)


def from_json(text: str) -> Multivector:
    return from_json_dict(json.loads(text))
