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
then mask), its name ``e1^e3``, its 1-based index tuple ``(1, 3)`` and its JSON
term head ``{"blades": [1, 3], "re": ``, and the inverse maps from name and
from index tuple back to the mask.  The writers sort by rank and read each
coefficient once, so the float reprs are most of their cost.  ``to_json``
writes its text directly: per term the head, ``repr`` of each part and the
closing brace, which are the bytes that ``json.dumps(to_json_dict(mv))``
writes, since json writes a finite float as its repr and stored coefficients
are finite.  A real value stores every imaginary part as +0.0, so its
``"im": 0.0`` is a constant.  ``to_json_dict`` builds the same data for callers
that embed it in larger JSON.

The readers resolve a blade with one lookup; only a miss runs the validating
loop, so every error message is the loop's.  ``json.loads`` is the only JSON
reader; ``from_json_dict`` rejects a boolean part and reads the two parts
straight into ``complex``.
Text in the writer's own form (single spaces around `+`/`-`, one space before
a blade) is cut into its terms by one regular-expression split, and a real
coefficient there is read by ``float`` with its separator's sign; any other
text goes through the general term parser.  Both readers sum the checked
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
    json_heads: tuple[str, ...]  # mask -> '{"blades": [1, 3], "re": '
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
    # json.dumps writes a list of ints as "[1, 3]".
    json_heads = tuple('{"blades": [' + ", ".join(map(str, idx)) + '], "re": ' for idx in indices)
    by_name, by_indices = dict(zip(names, range(size))), dict(zip(indices, range(size)))
    return _Tables(tuple(rank), names, indices, json_heads, by_name, by_indices)


def _format_number(x: float) -> str:
    # For finite x, is_integer() is x == int(x).
    if x.is_integer() and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def format_multivector(mv: Multivector) -> str:
    terms = mv._terms
    if not terms:
        return "0"
    tables = _tables(mv.signature.n)
    names = tables.names
    parts: list[str] = []  # " + <term>" or " - <term>"
    for mask in sorted(terms, key=tables.rank.__getitem__):
        c = terms[mask]
        x = c.real
        if c.imag != 0.0:
            sep = " + "
            body = "(" + _format_number(x) + ("+" if c.imag >= 0 else "-") + _format_number(
                abs(c.imag)
            ) + "j)"
        else:
            if x < 0:
                sep, x = " - ", -x
            else:
                sep = " + "
            body = _format_number(x)
            if body == "1" and mask:
                parts.append(sep + names[mask])  # a bare blade
                continue
        parts.append(sep + body + " " + names[mask] if mask else sep + body)
    first = parts[0]  # written with no separator, only a minus sign
    parts[0] = first[3:] if first[1] == "+" else "-" + first[3:]
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
        # A negative separator negates the term.  Added to a sum that holds
        # no -0.0 part, as every sum from 0j + term does, that gives the bits
        # of the product by -1 for finite parts; an infinite part is rejected
        # as non-finite either way.
        if bare:
            coeff, blades = (-1.0 if "-" in sep else 1.0), bare
        elif coeff_src[0] == "(":
            # complex() reads "(1+2j)" as it reads "1+2j".
            coeff = -complex(coeff_src) if "-" in sep else complex(coeff_src)
        else:
            coeff = -float(coeff_src) if "-" in sep else float(coeff_src)
        mask = by_name.get(blades) if blades else 0
        if mask is None:
            return None
        terms[mask] = terms.get(mask, 0j) + coeff
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
    """json.dumps(to_json_dict(mv)), written directly."""
    terms = mv._terms
    tables = _tables(mv.signature.n)
    heads = tables.json_heads
    order = sorted(terms, key=tables.rank.__getitem__)
    if mv.real:
        body = ", ".join(['%s%r, "im": 0.0}' % (heads[m], terms[m].real) for m in order])
    else:
        body = ", ".join(
            ['%s%r, "im": %r}' % (heads[m], (c := terms[m]).real, c.imag) for m in order]
        )
    return '{"signature": [%d, %d], "terms": [%s]}' % (mv.signature.p, mv.signature.q, body)


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
            re_, im = term.get("re", 0.0), term.get("im", 0.0)
            # complex() reads true as 1; JSON booleans are not numbers.
            if type(re_) is bool or type(im) is bool:
                name, value = ("re", re_) if type(re_) is bool else ("im", im)
                raise MultivectorParseError(f"coefficient part {name}={value!r} is not a number")
            coeff = complex(re_, im)
            terms[mask] = terms.get(mask, 0) + (-coeff if odd else coeff)
    except (KeyError, TypeError, AttributeError) as exc:
        raise MultivectorParseError(f"malformed multivector JSON ({exc!r})") from None
    return Multivector._own(sig, terms)


def from_json(text: str) -> Multivector:
    return from_json_dict(json.loads(text))
