"""Model-formula parsing.

Grammar::

    formula  :=  response '~' term ('+' term)*
    term     :=  ident (':' ident)*      # plain interaction
              |  ident ('*' ident)*      # crossing, expanded to all subsets

Identifiers are data column names and may contain dots (R-style names such
as ``HUNTER.MONTH``). ``a * b`` expands to the terms ``a``, ``b``, ``a:b``
in that order; duplicate terms are collapsed keeping the first position.
The intercept is always present and is not written in the formula.
"""

import itertools
import re
from dataclasses import dataclass, field

from .errors import FormulaSyntaxError, UnknownOperatorError

_IDENT = re.compile(r"[A-Za-z_.][A-Za-z0-9_.]*")
_KNOWN_OPS = {"+", "*", ":", "~"}
_RESERVED_OPS = {"-", "/", "^", "%", "|"}

# A term is the ordered tuple of variable names it involves; the empty
# tuple stands for the intercept. Term identity ignores order.
Term = tuple


def term_label(term):
    """Printable name of a term: 'Intercept', 'x', or 'a:b'."""
    return ":".join(term) if term else "Intercept"


def _tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _KNOWN_OPS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch in _RESERVED_OPS:
            raise UnknownOperatorError(f"unsupported operator {ch!r}", offset=i)
        m = _IDENT.match(text, i)
        if m is None:
            raise FormulaSyntaxError(f"unexpected character {ch!r}", offset=i)
        tokens.append(("ident", m.group(0), i))
        i = m.end()
    return tokens


@dataclass(frozen=True)
class Formula:
    """Parsed formula: response name plus the ordered expanded terms."""

    response: str
    terms: tuple
    text: str = field(compare=False)


def _expand_star(variables):
    # All nonempty subsets, smaller orders first, positional order within.
    out = []
    for size in range(1, len(variables) + 1):
        for combo in itertools.combinations(variables, size):
            out.append(Term(combo))
    return out


def _parse_term(tokens, pos, end_offset):
    if pos >= len(tokens):
        raise FormulaSyntaxError("expected a term", offset=end_offset)
    kind, value, offset = tokens[pos]
    if kind != "ident":
        raise FormulaSyntaxError(f"expected a variable name, got {value!r}", offset=offset)
    variables = [value]
    pos += 1
    operator = None
    while pos < len(tokens) and tokens[pos][0] in (":", "*"):
        op = tokens[pos][0]
        if operator is None:
            operator = op
        elif op != operator:
            raise FormulaSyntaxError(
                "cannot mix '*' and ':' within one term", offset=tokens[pos][2]
            )
        pos += 1
        if pos >= len(tokens) or tokens[pos][0] != "ident":
            bad_offset = tokens[pos][2] if pos < len(tokens) else end_offset
            raise FormulaSyntaxError(f"expected a variable after {op!r}", offset=bad_offset)
        variables.append(tokens[pos][1])
        pos += 1
    # Repeated names inside one term collapse (a:a means a).
    seen = []
    for v in variables:
        if v not in seen:
            seen.append(v)
    if operator == "*":
        return _expand_star(seen), pos
    return [Term(seen)], pos


def parse_formula(text):
    """Parse a formula string into a :class:`Formula`.

    Raises :class:`FormulaSyntaxError` (with byte offset) on malformed
    input and :class:`UnknownOperatorError` for operators outside the
    grammar.
    """
    tokens = _tokenize(text)
    end = len(text)
    if not tokens:
        raise FormulaSyntaxError("empty formula", offset=0)
    if tokens[0][0] != "ident":
        raise FormulaSyntaxError("formula must start with a response name", offset=tokens[0][2])
    response = tokens[0][1]
    if len(tokens) < 2 or tokens[1][0] != "~":
        offset = tokens[1][2] if len(tokens) > 1 else end
        raise FormulaSyntaxError("expected '~' after the response", offset=offset)
    pos = 2
    terms = []
    new_terms, pos = _parse_term(tokens, pos, end)
    terms.extend(new_terms)
    while pos < len(tokens):
        kind, value, offset = tokens[pos]
        if kind != "+":
            raise FormulaSyntaxError(f"expected '+', got {value!r}", offset=offset)
        pos += 1
        new_terms, pos = _parse_term(tokens, pos, end)
        terms.extend(new_terms)
    # Collapse duplicates, keeping the first position.
    unique = []
    keys = set()
    for t in terms:
        key = frozenset(t)
        if key not in keys:
            keys.add(key)
            unique.append(t)
    return Formula(response=response, terms=tuple(unique), text=text)
