"""Character-at-a-time scanner for the ``.casm`` DSL: the slow reference
that ``casmkit.parser.tokenize`` is tested against.

It walks the text one character at a time and keeps line and column
counters as it goes.  Numbers are ASCII digits only, and the end-of-input
token sits one past the last character before any trailing comment.
"""
from __future__ import annotations

from casmkit.parser import (
    KEYWORDS, _PUNCT, Diagnostic, SourceSpan, Token,
)

DIGITS = "0123456789"


def reference_tokenize(text: str) -> tuple[list[Token], list[Diagnostic]]:
    tokens: list[Token] = []
    diags: list[Diagnostic] = []
    line, col, i, n = 1, 1, 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        two = text[i:i + 2]
        if len(two) == 2 and two in _PUNCT:
            tokens.append(Token(_PUNCT[two], two, line, col))
            i += 2
            col += 2
            continue
        if ch in _PUNCT:
            tokens.append(Token(_PUNCT[ch], ch, line, col))
            i += 1
            col += 1
            continue
        if ch in DIGITS or (ch == "-" and i + 1 < n and text[i + 1] in DIGITS):
            j = i + 1
            while j < n and text[j] in DIGITS:
                j += 1
            tokens.append(Token("NUMBER", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch == "_" or ch.isascii() and ch.isalpha():
            j = i
            while j < n and (text[j] == "_" or text[j].isascii() and text[j].isalnum()):
                j += 1
            word = text[i:j]
            ttype = word if word in KEYWORDS else "IDENT"
            tokens.append(Token(ttype, word, line, col))
            col += j - i
            i = j
            continue
        diags.append(Diagnostic("error", "E-SYNTAX",
                                f"unexpected character {ch!r}",
                                SourceSpan(line, col)))
        i += 1
        col += 1
    tokens.append(Token("EOF", "", line, col))
    return tokens, diags
