"""Tokenizer for the PML markup dialect.

PML looks like XML but is deliberately more lenient, because prompt modules
routinely carry text that would break an XML parser — source code with
``<`` and ``&`` (the Fig 6 code-generation schema), math, logs. Rules:

- ``<`` starts a tag only when followed by a letter, ``_``, ``/`` or ``!``;
  otherwise it is literal text.
- ``<!-- ... -->`` comments are skipped.
- ``<![CDATA[ ... ]]>`` passes its payload through verbatim.
- Attribute values use single or double quotes; bare (unquoted) values are
  accepted for simple tokens.
- The entities ``&lt; &gt; &amp; &quot; &apos;`` are decoded in text and
  attribute values; a bare ``&`` is literal.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.pml.errors import ParseError

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_\-.]*")
_BARE_VALUE_RE = re.compile(r"[^\s>/]+")
_ENTITIES = {"lt": "<", "gt": ">", "amp": "&", "quot": '"', "apos": "'"}
_ENTITY_RE = re.compile(r"&(lt|gt|amp|quot|apos);")


def decode_entities(text: str) -> str:
    return _ENTITY_RE.sub(lambda m: _ENTITIES[m.group(1)], text)


@dataclass
class Token:
    """One lexical unit; ``kind`` is ``"open"``, ``"close"`` or ``"text"``."""

    kind: str
    line: int
    column: int
    name: str = ""  # tag name for open/close
    attrs: dict[str, str] = field(default_factory=dict)
    self_closing: bool = False
    text: str = ""


class Lexer:
    """Single-pass scanner producing a flat token stream."""

    def __init__(self, source: str) -> None:
        self.source = source
        self.pos = 0
        self.line = 1
        self.column = 1

    def tokens(self) -> list[Token]:
        out: list[Token] = []
        text_parts: list[str] = []
        text_line, text_col = self.line, self.column

        def flush_text() -> None:
            nonlocal text_parts, text_line, text_col
            if text_parts:
                out.append(
                    Token(
                        "text",
                        text_line,
                        text_col,
                        text=decode_entities("".join(text_parts)),
                    )
                )
                text_parts = []

        while self.pos < len(self.source):
            ch = self.source[self.pos]
            if ch == "<" and self._tag_follows():
                flush_text()
                token = self._lex_tag()
                if token is not None:  # comments yield None
                    if token.kind == "text":
                        # CDATA payload joins the surrounding text run.
                        text_line, text_col = token.line, token.column
                        text_parts.append(token.text)
                    else:
                        out.append(token)
                text_line, text_col = self.line, self.column
            else:
                if not text_parts:
                    text_line, text_col = self.line, self.column
                # The whole run up to the next "<" in one step.
                end = self.source.find("<", self.pos + 1)
                if end < 0:
                    end = len(self.source)
                text_parts.append(self.source[self.pos : end])
                self._advance(end - self.pos)
        flush_text()
        return out

    # -- internals ------------------------------------------------------------

    def _tag_follows(self) -> bool:
        nxt = self.source[self.pos + 1 : self.pos + 2]
        return bool(nxt) and (nxt.isalpha() or nxt in "_/!")

    def _advance(self, n: int = 1) -> None:
        end = self.pos + n
        newlines = self.source.count("\n", self.pos, end)
        if newlines:
            self.line += newlines
            self.column = end - self.source.rfind("\n", self.pos, end)
        else:
            self.column += n
        self.pos = end

    def _error(self, message: str) -> ParseError:
        return ParseError(message, self.line, self.column)

    def _lex_tag(self) -> Token | None:
        start_line, start_col = self.line, self.column
        if self.source.startswith("<!--", self.pos):
            end = self.source.find("-->", self.pos + 4)
            if end < 0:
                raise self._error("unterminated comment")
            self._advance(end + 3 - self.pos)
            return None
        if self.source.startswith("<![CDATA[", self.pos):
            end = self.source.find("]]>", self.pos + 9)
            if end < 0:
                raise self._error("unterminated CDATA section")
            payload = self.source[self.pos + 9 : end]
            self._advance(end + 3 - self.pos)
            return Token("text", start_line, start_col, text=payload)
        if self.source.startswith("</", self.pos):
            self._advance(2)
            name = self._lex_name()
            self._skip_spaces()
            self._expect(">")
            return Token("close", start_line, start_col, name=name)

        self._advance(1)  # consume '<'
        name = self._lex_name()
        attrs: dict[str, str] = {}
        while True:
            self._skip_spaces()
            if self.pos >= len(self.source):
                raise self._error(f"unterminated <{name}> tag")
            ch = self.source[self.pos]
            if ch == ">":
                self._advance()
                return Token("open", start_line, start_col, name=name, attrs=attrs)
            if self.source.startswith("/>", self.pos):
                self._advance(2)
                return Token(
                    "open", start_line, start_col, name=name, attrs=attrs,
                    self_closing=True,
                )
            key = self._lex_name()
            self._skip_spaces()
            if self.pos < len(self.source) and self.source[self.pos] == "=":
                self._advance()
                self._skip_spaces()
                attrs[key] = self._lex_attr_value()
            else:
                attrs[key] = ""  # valueless attribute

    def _lex_name(self) -> str:
        match = _NAME_RE.match(self.source, self.pos)
        if not match:
            raise self._error("expected a tag or attribute name")
        self._advance(match.end() - self.pos)
        return match.group()

    def _lex_attr_value(self) -> str:
        if self.pos >= len(self.source):
            raise self._error("expected an attribute value")
        quote = self.source[self.pos]
        if quote in "\"'":
            end = self.source.find(quote, self.pos + 1)
            if end < 0:
                raise self._error("unterminated attribute value")
            value = self.source[self.pos + 1 : end]
            self._advance(end + 1 - self.pos)
            return decode_entities(value)
        match = _BARE_VALUE_RE.match(self.source, self.pos)
        if not match:
            raise self._error("expected an attribute value")
        self._advance(match.end() - self.pos)
        return decode_entities(match.group())

    def _skip_spaces(self) -> None:
        while self.pos < len(self.source) and self.source[self.pos].isspace():
            self._advance()

    def _expect(self, literal: str) -> None:
        if not self.source.startswith(literal, self.pos):
            raise self._error(f"expected {literal!r}")
        self._advance(len(literal))
