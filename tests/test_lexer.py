"""Tests for the MiniJ lexer."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.lang.errors import LexError
from repro.lang.lexer import tokenize
from repro.lang.tokens import (T_EOF, T_IDENT, T_INT, T_KEYWORD,
                               T_STRING)


def kinds(source):
    return [t.kind for t in tokenize(source)]


def texts(source):
    return [t.text for t in tokenize(source)[:-1]]


class TestBasics:
    def test_empty_source_yields_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind == T_EOF

    def test_identifiers_and_keywords(self):
        tokens = tokenize("class Foo whilex while")
        assert [t.kind for t in tokens[:-1]] == [
            T_KEYWORD, T_IDENT, T_IDENT, T_KEYWORD]

    def test_underscore_identifiers(self):
        tokens = tokenize("_x x_y _")
        assert all(t.kind == T_IDENT for t in tokens[:-1])

    def test_integer_literal(self):
        tokens = tokenize("0 42 1234567890")
        assert [t.text for t in tokens[:-1]] == ["0", "42", "1234567890"]
        assert all(t.kind == T_INT for t in tokens[:-1])

    def test_malformed_number_rejected(self):
        with pytest.raises(LexError, match="malformed number"):
            tokenize("12abc")

    @pytest.mark.parametrize("digit", ["\u00b2", "\u0663", "\uff11"])
    def test_non_ascii_digits_rejected(self, digit):
        # str.isdigit() accepts these, but they are no MiniJ literal.
        with pytest.raises(LexError, match="unexpected character"):
            tokenize(f"int x = {digit};")
        with pytest.raises(LexError, match="unexpected character"):
            tokenize(f"1{digit}")

    def test_unicode_identifiers_still_lex(self):
        tokens = tokenize("\u00e9t\u00e9 x\u00b2")
        assert [(t.kind, t.text) for t in tokens[:-1]] == [
            (T_IDENT, "\u00e9t\u00e9"), (T_IDENT, "x\u00b2")]

    def test_punctuation_longest_match(self):
        assert texts("<= < << = == ++ + +=") == [
            "<=", "<", "<<", "=", "==", "++", "+", "+="]

    def test_unknown_character_rejected(self):
        with pytest.raises(LexError, match="unexpected character"):
            tokenize("@")

    def test_positions_tracked(self):
        tokens = tokenize("a\n  b")
        assert (tokens[0].line, tokens[0].col) == (1, 1)
        assert (tokens[1].line, tokens[1].col) == (2, 3)


class TestStrings:
    def test_simple_string(self):
        tokens = tokenize('"hello"')
        assert tokens[0].kind == T_STRING
        assert tokens[0].text == "hello"

    def test_escapes(self):
        tokens = tokenize(r'"a\nb\tc\"d\\e"')
        assert tokens[0].text == 'a\nb\tc"d\\e'

    def test_unterminated_string_rejected(self):
        with pytest.raises(LexError, match="unterminated string"):
            tokenize('"abc')

    def test_newline_in_string_rejected(self):
        with pytest.raises(LexError, match="newline in string"):
            tokenize('"ab\ncd"')

    def test_unknown_escape_rejected(self):
        with pytest.raises(LexError, match="unknown escape"):
            tokenize(r'"\q"')

    def test_empty_string(self):
        assert tokenize('""')[0].text == ""


class TestComments:
    def test_line_comment_skipped(self):
        assert texts("a // comment here\nb") == ["a", "b"]

    def test_block_comment_skipped(self):
        assert texts("a /* x\ny\nz */ b") == ["a", "b"]

    def test_unterminated_block_comment_rejected(self):
        with pytest.raises(LexError, match="unterminated block comment"):
            tokenize("/* never ends")

    def test_comment_at_eof(self):
        assert texts("a //done") == ["a"]

    def test_division_still_lexes(self):
        assert texts("a / b") == ["a", "/", "b"]

    def test_block_comment_tracks_lines(self):
        tokens = tokenize("/* a\nb */ x")
        assert tokens[0].line == 2


@given(st.integers(min_value=0, max_value=10**12))
def test_integer_roundtrip(value):
    tokens = tokenize(str(value))
    assert tokens[0].kind == T_INT
    assert int(tokens[0].text) == value


@given(st.from_regex(r"[a-zA-Z_][a-zA-Z0-9_]{0,10}", fullmatch=True))
def test_identifier_or_keyword_roundtrip(name):
    tokens = tokenize(name)
    assert tokens[0].text == name
    assert tokens[0].kind in (T_IDENT, T_KEYWORD)


@given(st.text(alphabet=st.sampled_from("abc123 +-*/%<>=!&|^(){}[];,."),
               max_size=40))
def test_lexer_total_on_benign_alphabet(source):
    """On this alphabet the lexer either succeeds or raises LexError
    (malformed numbers like '1a'); it never crashes otherwise."""
    try:
        tokens = tokenize(source)
    except LexError:
        return
    assert tokens[-1].kind == T_EOF


@given(st.lists(st.sampled_from(
    ["if", "x", "42", "(", ")", "{", "}", "+", "==", '"s"', "while"]),
    max_size=15))
def test_token_stream_concatenation(parts):
    """Lexing space-joined tokens yields exactly those tokens."""
    source = " ".join(parts)
    tokens = tokenize(source)
    assert len(tokens) == len(parts) + 1
