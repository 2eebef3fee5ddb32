"""Hand-written lexer for MiniJ.

Supports ``//`` line comments, ``/* ... */`` block comments, decimal
integer literals, double-quoted string literals with the usual escape
sequences, identifiers, keywords, and punctuation.
"""

from __future__ import annotations

from .errors import LexError
from .tokens import (KEYWORDS, PUNCT_1, PUNCT_2PLUS, T_EOF, T_IDENT, T_INT,
                     T_KEYWORD, T_PUNCT, T_STRING, Token)

_ESCAPES = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    "0": "\0",
    '"': '"',
    "\\": "\\",
    "'": "'",
}


def tokenize(source: str) -> list:
    """Lex ``source`` into a list of tokens ending with an EOF token."""
    tokens = []
    pos = 0
    line = 1
    col = 1
    n = len(source)

    def error(message: str):
        raise LexError(message, line, col)

    while pos < n:
        ch = source[pos]

        # Whitespace.
        if ch == "\n":
            pos += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            pos += 1
            col += 1
            continue

        # Comments.
        if ch == "/" and pos + 1 < n:
            nxt = source[pos + 1]
            if nxt == "/":
                while pos < n and source[pos] != "\n":
                    pos += 1
                continue
            if nxt == "*":
                start_line, start_col = line, col
                pos += 2
                col += 2
                while pos < n:
                    if source[pos] == "*" and pos + 1 < n \
                            and source[pos + 1] == "/":
                        pos += 2
                        col += 2
                        break
                    if source[pos] == "\n":
                        line += 1
                        col = 1
                    else:
                        col += 1
                    pos += 1
                else:
                    raise LexError("unterminated block comment",
                                   start_line, start_col)
                continue

        # Identifiers and keywords.
        if ch.isalpha() or ch == "_":
            start = pos
            start_col = col
            while pos < n and (source[pos].isalnum() or source[pos] == "_"):
                pos += 1
                col += 1
            text = source[start:pos]
            kind = T_KEYWORD if text in KEYWORDS else T_IDENT
            tokens.append(Token(kind, text, line, start_col))
            continue

        # Integer literals: ASCII digits only (str.isdigit() also
        # accepts digits such as '²' that int() rejects).
        if "0" <= ch <= "9":
            start = pos
            start_col = col
            while pos < n and "0" <= source[pos] <= "9":
                pos += 1
                col += 1
            if pos < n and (source[pos].isalpha() or source[pos] == "_"):
                error(f"malformed number near {source[start:pos + 1]!r}")
            tokens.append(Token(T_INT, source[start:pos], line, start_col))
            continue

        # String literals.
        if ch == '"':
            start_line, start_col = line, col
            pos += 1
            col += 1
            chunks = []
            while True:
                if pos >= n:
                    raise LexError("unterminated string literal",
                                   start_line, start_col)
                c = source[pos]
                if c == '"':
                    pos += 1
                    col += 1
                    break
                if c == "\n":
                    raise LexError("newline in string literal",
                                   start_line, start_col)
                if c == "\\":
                    if pos + 1 >= n:
                        raise LexError("dangling escape in string literal",
                                       line, col)
                    esc = source[pos + 1]
                    if esc not in _ESCAPES:
                        raise LexError(f"unknown escape \\{esc}", line, col)
                    chunks.append(_ESCAPES[esc])
                    pos += 2
                    col += 2
                    continue
                chunks.append(c)
                pos += 1
                col += 1
            tokens.append(Token(T_STRING, "".join(chunks), start_line,
                                start_col))
            continue

        # Punctuation, longest match first.
        two = source[pos:pos + 2]
        if two in PUNCT_2PLUS:
            tokens.append(Token(T_PUNCT, two, line, col))
            pos += 2
            col += 2
            continue
        if ch in PUNCT_1:
            tokens.append(Token(T_PUNCT, ch, line, col))
            pos += 1
            col += 1
            continue

        error(f"unexpected character {ch!r}")

    tokens.append(Token(T_EOF, "", line, col))
    return tokens
