"""Parser for the ASCII concrete syntax of the paper's XPath class.

Syntax summary (see :mod:`repro.xpath.ast` for the correspondence table):

.. code-block:: text

    query      :=  union
    union      :=  sequence ('|' sequence)*
    sequence   :=  step ('/' step)*
    step       :=  primary ('[' qualifier ']')*
    primary    :=  '(' union ')' | '.' | '**' | '*' | '^*' | '^'
                 | '>*' | '>' | '<*' | '<' | NAME
    qualifier  :=  q_or
    q_or       :=  q_and ('or' q_and)*
    q_and      :=  q_prim ('and' q_prim)*
    q_prim     :=  'not' '(' qualifier ')'
                 | 'lab()' ('='|'!=') NAME
                 | comparison | path-as-qualifier | '(' qualifier ')'
    comparison :=  qpath ('='|'!=') (STRING | NUMBER | qpath)
    qpath      :=  '@' NAME | union ['/' '@' NAME]

Constants on the right-hand side of comparisons are single-quoted strings or
bare numbers (``@s = 0`` and ``@s = '0'`` are the same); bare identifiers on
the right-hand side must be attribute paths (use quotes for string
constants that look like names).

Examples
--------
>>> str(parse_query("X1/T | X1/F"))
'X1/T | X1/F'
>>> str(parse_query(".[**/C[@s = '7'] and not(R1/X)]"))
".[**/C[@s = '7'] and not(R1/X)]"
"""

from __future__ import annotations

import re
from string import ascii_letters

from repro.errors import ParseError
from repro.xpath import ast
from repro.xpath.ast import Path, Qualifier

#: one token or one run of whitespace
_TOKEN_RE = re.compile(
    r"\s+|\*\*|\*|\^\*|\^|>\*|>|<\*|<|!=|=|/|\||\[|\]|\(|\)|@|\."
    r"|'[^']*'|\d+|[A-Za-z_][A-Za-z0-9_.:-]*"
)

_PUNCTUATION = {
    "**": "dstar", "*": "star", "^*": "aos", "^": "parent",
    ">*": "rss", ">": "rs", "<*": "lss", "<": "ls",
    "!=": "neq", "=": "eq", "/": "slash", "|": "bar",
    "[": "lbracket", "]": "rbracket", "(": "lparen", ")": "rparen",
    "@": "at", ".": "dot",
}

#: kinds of the other tokens by first character; a piece starting with
#: none of these is a number or whitespace
_WORD_KINDS = dict.fromkeys(ascii_letters + "_", "name")
_WORD_KINDS["'"] = "string"

#: a token: ``(kind, value, position)``
_Token = tuple[str, str, int]


def _tokenize(text: str) -> list[_Token]:
    """The tokens of ``text``, ending in an ``end`` sentinel.

    One ``findall`` scan yields every token and whitespace run, leftmost
    first as a token-at-a-time loop would, so a token's position is the
    running length of the pieces before it.  The scan silently skips a
    character where no piece starts; the pieces then fall short of the
    text's length.  Whitespace is a piece of its own, not a prefix of the
    next token, so a long run is matched once (a prefix would be retried
    from every position of a run that no token follows: quadratic).
    """
    tokens: list[_Token] = []
    append = tokens.append
    end = 0
    for piece in _TOKEN_RE.findall(text):
        position = end
        end += len(piece)
        kind = _PUNCTUATION.get(piece) or _WORD_KINDS.get(piece[0])
        if kind is None:
            if piece[0].isspace():
                continue
            kind = "number"
        append((kind, piece, position))
    if end != len(text):
        raise _unexpected(text)
    append(("end", "", len(text)))
    return tokens


def _unexpected(text: str) -> ParseError:
    """The error at the first character the scan skipped: where the
    pieces stop following each other.  A piece's text matches wherever
    it occurs, so a piece the text shows at ``end`` is the one the scan
    found there, not a later one."""
    end = 0
    for piece in _TOKEN_RE.findall(text):
        if not text.startswith(piece, end):
            break
        end += len(piece)
    return ParseError("unexpected character in query", text, end)


_AXIS_TOKENS = {
    "dot": ast.Empty,
    "star": ast.Wildcard,
    "dstar": ast.DescOrSelf,
    "parent": ast.Parent,
    "aos": ast.AncOrSelf,
    "rs": ast.RightSib,
    "rss": ast.RightSibStar,
    "ls": ast.LeftSib,
    "lss": ast.LeftSibStar,
}

_KEYWORDS = {"and", "or", "not", "lab"}


class _Parser:
    """Recursive descent over the token list.  ``index`` never moves past
    the ``end`` sentinel, and lookahead past the current token is only
    taken when that token is not ``end``, so no lookup needs clamping.
    The keywords ``and``, ``or``, ``not`` and ``lab`` can only be name
    tokens, so they are recognised by value alone."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    # -- token plumbing -----------------------------------------------------
    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.tokens[self.index]
        if token[0] != "end":
            self.index += 1
        return token

    def expect(self, kind: str) -> _Token:
        token = self.tokens[self.index]
        if token[0] != kind:
            raise ParseError(
                f"expected {kind}, found {token[0]}", self.text, token[2]
            )
        self.index += 1
        return token

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.text, self.tokens[self.index][2])

    # -- paths ---------------------------------------------------------------
    def parse_union(self, in_qualifier: bool = False) -> Path:
        tokens = self.tokens
        node = self.parse_sequence(in_qualifier)
        if tokens[self.index][0] != "bar":
            return node
        parts = [node]
        while tokens[self.index][0] == "bar":
            self.index += 1
            parts.append(self.parse_sequence(in_qualifier))
        return ast.union_of(*parts)

    def parse_sequence(self, in_qualifier: bool) -> Path:
        tokens = self.tokens
        node = self.parse_step(in_qualifier)
        while tokens[self.index][0] == "slash":
            # inside qualifiers, '/@attr' terminates the path part of a
            # comparison; leave it for the caller.
            if in_qualifier and tokens[self.index + 1][0] == "at":
                break
            self.index += 1
            node = ast.Seq(node, self.parse_step(in_qualifier))
        return node

    def parse_step(self, in_qualifier: bool) -> Path:
        tokens = self.tokens
        node = self.parse_primary(in_qualifier)
        while tokens[self.index][0] == "lbracket":
            self.index += 1
            qualifier = self.parse_q_or()
            self.expect("rbracket")
            node = ast.Filter(node, qualifier)
        return node

    def parse_primary(self, in_qualifier: bool) -> Path:
        kind, value, _ = self.tokens[self.index]
        if kind == "name":
            if value in _KEYWORDS:
                raise self.error(f"keyword {value!r} cannot start a path")
            self.index += 1
            return ast.Label(value)
        axis = _AXIS_TOKENS.get(kind)
        if axis is not None:
            self.index += 1
            return axis()
        if kind == "lparen":
            self.index += 1
            node = self.parse_union(in_qualifier)
            self.expect("rparen")
            return node
        raise self.error(f"expected a path step, found {kind}")

    # -- qualifiers ------------------------------------------------------------
    def parse_q_or(self) -> Qualifier:
        tokens = self.tokens
        node = self.parse_q_and()
        if tokens[self.index][1] != "or":
            return node
        parts = [node]
        while tokens[self.index][1] == "or":
            self.index += 1
            parts.append(self.parse_q_and())
        return ast.or_of(*parts)

    def parse_q_and(self) -> Qualifier:
        tokens = self.tokens
        node = self.parse_q_prim()
        if tokens[self.index][1] != "and":
            return node
        parts = [node]
        while tokens[self.index][1] == "and":
            self.index += 1
            parts.append(self.parse_q_prim())
        return ast.and_of(*parts)

    def parse_q_prim(self) -> Qualifier:
        tokens = self.tokens
        kind, value, _ = tokens[self.index]
        if value == "not" and tokens[self.index + 1][0] == "lparen":
            self.index += 2
            inner = self.parse_q_or()
            self.expect("rparen")
            return ast.Not(inner)
        if value == "lab" and tokens[self.index + 1][0] == "lparen":
            self.index += 2
            self.expect("rparen")
            op_kind = self.advance()[0]
            if op_kind not in ("eq", "neq"):
                raise self.error("expected '=' or '!=' after lab()")
            test = ast.LabelTest(self.expect("name")[1])
            return test if op_kind == "eq" else ast.Not(test)
        if kind == "lparen":
            # Could be a grouped qualifier or a parenthesized path; try the
            # qualifier reading first and backtrack if its continuation is
            # not qualifier-like.
            saved = self.index
            try:
                self.index += 1
                inner = self.parse_q_or()
                self.expect("rparen")
            except ParseError:
                self.index = saved
            else:
                follow_kind, follow_value, _ = tokens[self.index]
                if follow_kind in ("rbracket", "rparen", "end") or (
                    follow_value in ("and", "or")
                ):
                    return inner
                self.index = saved
        return self.parse_comparison_or_path()

    def parse_comparison_or_path(self) -> Qualifier:
        path, attr = self.parse_qpath()
        op_kind = self.tokens[self.index][0]
        if op_kind in ("eq", "neq"):
            if attr is None:
                raise self.error("comparison requires an attribute on the left")
            self.index += 1
            op: ast.CompareOp = "=" if op_kind == "eq" else "!="
            return self.parse_comparison_rhs(path, attr, op)
        if attr is not None:
            raise self.error("attribute paths must be compared with = or !=")
        return ast.PathExists(path)

    def parse_comparison_rhs(self, left_path: Path, left_attr: str, op: ast.CompareOp) -> Qualifier:
        kind, value, _ = self.tokens[self.index]
        if kind == "string":
            self.index += 1
            return ast.AttrConstCmp(left_path, left_attr, op, value[1:-1])
        if kind == "number":
            self.index += 1
            return ast.AttrConstCmp(left_path, left_attr, op, value)
        right_path, right_attr = self.parse_qpath()
        if right_attr is None:
            raise self.error(
                "right-hand side of a comparison must be a constant or an "
                "attribute path (quote string constants)"
            )
        return ast.AttrAttrCmp(left_path, left_attr, op, right_path, right_attr)

    def parse_qpath(self) -> tuple[Path, str | None]:
        tokens = self.tokens
        if tokens[self.index][0] == "at":
            self.index += 1
            return ast.Empty(), self.expect("name")[1]
        path = self.parse_union(in_qualifier=True)
        if tokens[self.index][0] == "slash" and tokens[self.index + 1][0] == "at":
            self.index += 2
            return path, self.expect("name")[1]
        return path, None


def parse_query(text: str) -> Path:
    """Parse a path expression; raises :class:`ParseError` on bad input."""
    parser = _Parser(text)
    node = parser.parse_union()
    trailing = parser.peek()
    if trailing[0] != "end":
        raise ParseError("trailing input after query", text, trailing[2])
    return node


def parse_qualifier(text: str) -> Qualifier:
    """Parse a qualifier expression (the part inside ``[...]``)."""
    parser = _Parser(text)
    node = parser.parse_q_or()
    trailing = parser.peek()
    if trailing[0] != "end":
        raise ParseError("trailing input after qualifier", text, trailing[2])
    return node
