"""The XPath tokenizer and parser against the previous implementation.

The front end was rewritten for speed: one ``findall`` scan into plain
``(kind, value, position)`` tuples and a parser that indexes a token list
ending in an ``end`` sentinel.  Its observable behaviour must not move, so
the token-at-a-time tokenizer and the clamping parser it replaced are
kept here, verbatim, as the reference:

* every input yields the same AST, or a :class:`ParseError` with the same
  message and offset, on the seeded workload corpora and on tens of
  thousands of random strings over the token alphabet;
* every successful scan yields the same tokens;
* a golden table of ``query_key`` values, recorded with the previous
  parser, pins the decision-cache keys, so decisions persisted in state
  dirs and tiers stay warm across the change.
"""

from __future__ import annotations

import random
import re
import time
from dataclasses import dataclass

import pytest

from repro.dtd import parse_dtd
from repro.errors import ParseError
from repro.workloads import batch_jobs, random_query, syntactic_variant
from repro.xpath import ast, parse_query
from repro.xpath import fragments as frag
from repro.xpath.ast import Path, Qualifier
from repro.xpath.canonical import canonicalize, query_key
from repro.xpath.parser import _tokenize, parse_qualifier


# -- the reference: the previous tokenizer and parser, verbatim -----------------

_REF_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<dstar>\*\*)
  | (?P<star>\*)
  | (?P<aos>\^\*)
  | (?P<parent>\^)
  | (?P<rss>>\*)
  | (?P<rs>>)
  | (?P<lss><\*)
  | (?P<ls><)
  | (?P<neq>!=)
  | (?P<eq>=)
  | (?P<slash>/)
  | (?P<bar>\|)
  | (?P<lbracket>\[)
  | (?P<rbracket>\])
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<at>@)
  | (?P<dot>\.)
  | (?P<string>'[^']*')
  | (?P<number>\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_.:-]*)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _RefToken:
    kind: str
    value: str
    position: int


def _ref_tokenize(text: str) -> list[_RefToken]:
    tokens: list[_RefToken] = []
    index = 0
    while index < len(text):
        match = _REF_TOKEN_RE.match(text, index)
        if match is None:
            raise ParseError("unexpected character in query", text, index)
        kind = match.lastgroup or ""
        if kind != "ws":
            tokens.append(_RefToken(kind, match.group(), index))
        index = match.end()
    tokens.append(_RefToken("end", "", len(text)))
    return tokens


_REF_AXIS_TOKENS = {
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

_REF_KEYWORDS = {"and", "or", "not", "lab"}


class _RefParser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _ref_tokenize(text)
        self.index = 0

    # -- token plumbing -----------------------------------------------------
    def peek(self, ahead: int = 0) -> _RefToken:
        index = min(self.index + ahead, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self) -> _RefToken:
        token = self.tokens[self.index]
        if token.kind != "end":
            self.index += 1
        return token

    def expect(self, kind: str) -> _RefToken:
        token = self.peek()
        if token.kind != kind:
            raise ParseError(
                f"expected {kind}, found {token.kind}", self.text, token.position
            )
        return self.advance()

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.text, self.peek().position)

    # -- paths ---------------------------------------------------------------
    def parse_union(self, in_qualifier: bool = False) -> Path:
        parts = [self.parse_sequence(in_qualifier)]
        while self.peek().kind == "bar":
            self.advance()
            parts.append(self.parse_sequence(in_qualifier))
        return ast.union_of(*parts)

    def parse_sequence(self, in_qualifier: bool) -> Path:
        node = self.parse_step(in_qualifier)
        while self.peek().kind == "slash":
            # inside qualifiers, '/@attr' terminates the path part of a
            # comparison; leave it for the caller.
            if in_qualifier and self.peek(1).kind == "at":
                break
            self.advance()
            node = ast.Seq(node, self.parse_step(in_qualifier))
        return node

    def parse_step(self, in_qualifier: bool) -> Path:
        node = self.parse_primary(in_qualifier)
        while self.peek().kind == "lbracket":
            self.advance()
            qualifier = self.parse_qualifier_expr()
            self.expect("rbracket")
            node = ast.Filter(node, qualifier)
        return node

    def parse_primary(self, in_qualifier: bool) -> Path:
        token = self.peek()
        if token.kind in _REF_AXIS_TOKENS:
            self.advance()
            return _REF_AXIS_TOKENS[token.kind]()
        if token.kind == "name":
            if token.value in _REF_KEYWORDS:
                raise self.error(f"keyword {token.value!r} cannot start a path")
            self.advance()
            return ast.Label(token.value)
        if token.kind == "lparen":
            self.advance()
            node = self.parse_union(in_qualifier)
            self.expect("rparen")
            return node
        raise self.error(f"expected a path step, found {token.kind}")

    # -- qualifiers ------------------------------------------------------------
    def parse_qualifier_expr(self) -> Qualifier:
        return self.parse_q_or()

    def parse_q_or(self) -> Qualifier:
        parts = [self.parse_q_and()]
        while self.peek().kind == "name" and self.peek().value == "or":
            self.advance()
            parts.append(self.parse_q_and())
        return ast.or_of(*parts)

    def parse_q_and(self) -> Qualifier:
        parts = [self.parse_q_prim()]
        while self.peek().kind == "name" and self.peek().value == "and":
            self.advance()
            parts.append(self.parse_q_prim())
        return ast.and_of(*parts)

    def parse_q_prim(self) -> Qualifier:
        token = self.peek()
        if token.kind == "name" and token.value == "not" and self.peek(1).kind == "lparen":
            self.advance()
            self.advance()
            inner = self.parse_qualifier_expr()
            self.expect("rparen")
            return ast.Not(inner)
        if token.kind == "name" and token.value == "lab" and self.peek(1).kind == "lparen":
            self.advance()
            self.expect("lparen")
            self.expect("rparen")
            op_token = self.advance()
            if op_token.kind not in ("eq", "neq"):
                raise self.error("expected '=' or '!=' after lab()")
            name = self.expect("name")
            test = ast.LabelTest(name.value)
            return test if op_token.kind == "eq" else ast.Not(test)
        if token.kind == "lparen":
            # Could be a grouped qualifier or a parenthesized path; try the
            # qualifier reading first and backtrack if its continuation is
            # not qualifier-like.
            saved = self.index
            try:
                self.advance()
                inner = self.parse_qualifier_expr()
                self.expect("rparen")
            except ParseError:
                self.index = saved
            else:
                follow = self.peek()
                if follow.kind in ("rbracket", "rparen", "end") or (
                    follow.kind == "name" and follow.value in ("and", "or")
                ):
                    return inner
                self.index = saved
        return self.parse_comparison_or_path()

    def parse_comparison_or_path(self) -> Qualifier:
        path, attr = self.parse_qpath()
        op_token = self.peek()
        if op_token.kind in ("eq", "neq"):
            if attr is None:
                raise self.error("comparison requires an attribute on the left")
            self.advance()
            op: ast.CompareOp = "=" if op_token.kind == "eq" else "!="
            return self.parse_comparison_rhs(path, attr, op)
        if attr is not None:
            raise self.error("attribute paths must be compared with = or !=")
        return ast.PathExists(path)

    def parse_comparison_rhs(self, left_path: Path, left_attr: str, op: ast.CompareOp) -> Qualifier:
        token = self.peek()
        if token.kind == "string":
            self.advance()
            return ast.AttrConstCmp(left_path, left_attr, op, token.value[1:-1])
        if token.kind == "number":
            self.advance()
            return ast.AttrConstCmp(left_path, left_attr, op, token.value)
        right_path, right_attr = self.parse_qpath()
        if right_attr is None:
            raise self.error(
                "right-hand side of a comparison must be a constant or an "
                "attribute path (quote string constants)"
            )
        return ast.AttrAttrCmp(left_path, left_attr, op, right_path, right_attr)

    def parse_qpath(self) -> tuple[Path, str | None]:
        if self.peek().kind == "at":
            self.advance()
            name = self.expect("name")
            return ast.Empty(), name.value
        path = self.parse_union(in_qualifier=True)
        if self.peek().kind == "slash" and self.peek(1).kind == "at":
            self.advance()
            self.advance()
            name = self.expect("name")
            return path, name.value
        return path, None


def ref_parse_query(text: str) -> Path:
    parser = _RefParser(text)
    node = parser.parse_union()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ParseError("trailing input after query", text, trailing.position)
    return node


def ref_parse_qualifier(text: str) -> Qualifier:
    parser = _RefParser(text)
    node = parser.parse_qualifier_expr()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ParseError("trailing input after qualifier", text, trailing.position)
    return node


# -- comparison helpers ----------------------------------------------------------

def outcome(parse, text: str):
    """What ``parse`` makes of ``text``: the AST (dataclass equality
    compares node classes at every level) with its rendering, or the
    error's message and offset."""
    try:
        node = parse(text)
    except ParseError as error:
        return ("error", error.args[0], error.position)
    return ("ok", node, str(node))


def assert_same(text: str) -> None:
    assert outcome(parse_query, text) == outcome(ref_parse_query, text), text


#: token texts, including the awkward ones: an unterminated quote, a lone
#: ``!``, ``lab()``, ``not(`` and a trailing ``/@``
ALPHABET = (
    "**", "*", "^*", "^", ">*", ">", "<*", "<", "!=", "=", "/", "|",
    "[", "]", "(", ")", "@", ".", "'a'", "'7 x'", "''", "'", "!", "0", "42",
    "A", "B", "c1", "x.y", "a-b", "and", "or", "not", "lab", "lab()", "not(",
    "/@", "@a", "#", " ", "  ", "\t",
)


def random_text(rng: random.Random, max_pieces: int = 12) -> str:
    pieces = [rng.choice(ALPHABET) for _ in range(rng.randint(0, max_pieces))]
    separator = rng.choice(("", " ", ""))
    return separator.join(pieces)


SCHEMAS_DTD = """
root doc
doc -> head, body
head -> title?
body -> (sec + para)*
sec -> title, para*
title -> eps
para -> eps
"""

LABELS = ["doc", "head", "body", "sec", "title", "para"]


def fragment_queries(seed: int, per_fragment: int) -> list[Path]:
    rng = random.Random(seed)
    return [
        random_query(rng, frag.FRAGMENTS[name], LABELS, max_depth=3)
        for name in sorted(frag.FRAGMENTS)
        for _ in range(per_fragment)
    ]


# -- the tests -------------------------------------------------------------------

class TestWorkloadCorpora:
    def test_batch_jobs_and_variants_match(self):
        rng = random.Random(1505)
        schemas = {"doc": parse_dtd(SCHEMAS_DTD)}
        jobs = batch_jobs(
            rng, schemas, 400,
            fragments=tuple(frag.FRAGMENTS[name] for name in sorted(frag.FRAGMENTS)),
            max_depth=3, duplicate_rate=0.3,
        )
        texts = [job.query for job in jobs]
        texts += [str(syntactic_variant(rng, parse_query(text))) for text in texts]
        assert len(set(texts)) > 300
        for text in texts:
            assert_same(text)

    def test_every_fragment_matches(self):
        for query in fragment_queries(seed=77, per_fragment=20):
            assert_same(str(query))


class TestRandomStrings:
    def test_random_token_strings_match(self):
        rng = random.Random(20261017)
        parsed = 0
        for _ in range(20_000):
            text = random_text(rng)
            assert_same(text)
            parsed += outcome(parse_query, text)[0] == "ok"
        # the alphabet is wide, so only a few random strings parse; the
        # mutation test below covers well-formed inputs densely
        assert parsed > 100

    def test_mutated_queries_match(self):
        rng = random.Random(9)
        for query in fragment_queries(seed=3, per_fragment=40):
            text = str(query)
            for _ in range(6):
                position = rng.randint(0, len(text))
                cut = rng.randint(0, 3)
                insert = rng.choice(ALPHABET) if rng.random() < 0.7 else ""
                assert_same(text[:position] + insert + text[position + cut:])

    def test_qualifier_entry_matches(self):
        rng = random.Random(4)
        texts = [random_text(rng, max_pieces=8) for _ in range(3_000)]
        # and every qualifier of the fragment queries, whole and cut short
        for query in fragment_queries(seed=6, per_fragment=10):
            for node in query.walk():
                if isinstance(node, ast.Filter):
                    text = str(node.qualifier)
                    texts += [text, f"({text})", text[:rng.randint(0, len(text))]]
        for text in texts:
            assert outcome(parse_qualifier, text) == outcome(ref_parse_qualifier, text)

    def test_tokens_match_where_the_scan_succeeds(self):
        rng = random.Random(5)
        scanned = 0
        for _ in range(5_000):
            text = random_text(rng)
            try:
                expected = [
                    (token.kind, token.value, token.position)
                    for token in _ref_tokenize(text)
                ]
            except ParseError as error:
                with pytest.raises(ParseError) as raised:
                    _tokenize(text)
                assert (raised.value.args[0], raised.value.position) == (
                    error.args[0], error.position
                ), text
                continue
            assert _tokenize(text) == expected, text
            scanned += 1
        assert scanned > 1_000

    def test_long_whitespace_runs_scan_in_linear_time(self):
        # 200k characters: a scan that retried the run from each of its
        # positions would take hours; a linear one takes milliseconds
        run = " " * 200_000
        started = time.perf_counter()
        for text in (run + "#", "A" + run + "#", run, "A" + run + "B"):
            assert_same(text)
        assert time.perf_counter() - started < 10.0

    @pytest.mark.parametrize("text", [
        "", " ", "'", "A '", "'abc", "!", "A != !", "lab()", "lab() = ", "not(",
        "not(A", "A/@", "A[B/@]", "A[@a = '1", "A  #  B", "A\tB", "A[lab() A]",
        "((A)", "A[(B) C]", "A[(B)/C]", "A[(B and C)", "A[(B or C) and D",
        "A[(B and C) or D]", "A[(not(B)) or C]",
        "x.y:z-w", "A[@a = 007]",
    ])
    def test_edge_cases_match(self, text):
        assert_same(text)


# -- golden decision-cache keys ----------------------------------------------------

#: ``query_key(canonicalize(parse_query(text)))`` recorded with the
#: previous parser over a seeded corpus (``batch_jobs`` plus one query
#: and one syntactic variant per fragment)
GOLDEN_KEYS = (
    ('**/**', 'P:581c7cff240ec7f9778aead1f0241c8d'),
    ('**/sec/**', 'P:6f0e33d5aa799ab97e6efd99a06a7e56'),
    ('sec', 'P:352dbf4f595b240e1a96b7edd14df2ec'),
    ('doc/*', 'P:056dcac034fa8f6ed99df85eecc44acd'),
    ('(** | */*)[* and lab() = body and lab() = title]', 'P:5eca62be2e92d97f9ddab2805213b488'),
    ('*/** | (** | para)[para]', 'P:d79feef87b4762e075289b6a792ac5af'),
    ('body/**/**', 'P:d61ffcd223a3ea866592d177808f558d'),
    ('*[lab() = head][lab() = sec][not(lab() = para) and *]', 'P:7ccef52141ca2416ad159f7000e9af49'),
    ('doc[not(lab() = body)][*[*]]', 'P:69b3769b04ca2fa91da2bfd8150acc94'),
    ('*/**/*', 'P:5c39e74fa44a3008cc454a7871e340ce'),
    ('*[lab() = para][lab() = sec][not(*) and *]', 'P:349b65b2522a7c465a4b899c705438ca'),
    ('(body/*)[**][lab() = doc or lab() = head or **]', 'P:686f7055a5c810a0f44a0cb988370384'),
    ('*/para/para', 'P:25a516058df518d0bda06eb871ebe6ed'),
    ('*/*/*', 'P:ff5e81f16ebf55d40a5d2aa12659e2d1'),
    (
        '*[lab() = sec][not(lab() = para)][title[lab() = body]]',
        'P:b729de5ced83b83f4350556972b5af36',
    ),
    ('*[not(para)][lab() = doc]', 'P:20ad0c88e67c0c47daede6ddea83518f'),
    ('**/**/*', 'P:f9c5b740dd913594e0702197bfdd800b'),
    ('*/doc', 'P:f92eb8eadcd2f73f4c23da6c1361c0bc'),
    ('body/*', 'P:3f793a2ea7a307258eab00e76cfb27e8'),
    ('(head/sec/*)[* | *]', 'P:fecab5dbd77345329b9d111509803e7e'),
    ('(< | *)[not(head)][</>/**]', 'P:aacf5809de80c0faa303640660d19b23'),
    ("(*/^)[**][^*/doc/^/@b = '0']", 'P:2bce37a12a83617a551cbea3c6877575'),
    ('**/**/* | **/**/*', 'P:f9c5b740dd913594e0702197bfdd800b'),
    ('**[** and lab() = sec][not(* or *)]', 'P:2db9d0c91b69e988b1423602af5bb3ab'),
    ('title[head | head]', 'P:22259cbf4c07b34555edb5323ea9498e'),
    (
        'para[lab() = sec][lab() = para][not(lab() = sec and lab() = title)]',
        'P:b06ff6060fb40758f9d96e13c77f2f69',
    ),
    (
        'para[lab() = sec][lab() = para][not(lab() = title and lab() = sec)]',
        'P:b06ff6060fb40758f9d96e13c77f2f69',
    ),
    ('sec[** and sec][lab() = title]', 'P:953347b9e9e94d6d2782a870b94e5dfa'),
    ('**', 'P:f5e155b12001c1dfc423cf03eb027802'),
    ('*', 'P:1d30b9060a0a3e5f170d24d01884e555'),
    (
        '*[lab() = head][lab() = head] | body[sec][body and lab() = para]',
        'P:eda5ef9e912fac54cabb9c375c444e56',
    ),
    (
        'body[sec][body and lab() = para] | *[lab() = head][lab() = head]',
        'P:eda5ef9e912fac54cabb9c375c444e56',
    ),
    ('(*/para)[not(not(lab() = head))]', 'P:53a6c1192b92b2e73a82c960de5b8d3b'),
    ('para', 'P:f52b0dc7e3fcc57319cbe7e2b59f6816'),
    ("(sec/para)[^/@a = ^/@b and ^/@b = '0'][not(para)]", 'P:2ae7aafee4f7e7e901853a48d4690fea'),
    ('>/>', 'P:926f3af6d5c6854b41741004fe0453e3'),
    ('(body/title/>)[> and title and para]', 'P:1606a6993e11ed7849a1245b3bff5d14'),
    ('para/sec/head', 'P:f7f85fb19b6eba56c67f72d9eb15f466'),
    ('para/sec/head | para/sec/head', 'P:f7f85fb19b6eba56c67f72d9eb15f466'),
    ('<', 'P:800374bde465fbddc3b7f4245af3d7e5'),
)


def test_golden_query_keys_are_unchanged():
    assert len(GOLDEN_KEYS) >= 40
    for text, key in GOLDEN_KEYS:
        assert query_key(canonicalize(parse_query(text))) == key, text
