"""PML lexer: the lenient XML dialect."""

from __future__ import annotations

import pytest

from repro.pml.errors import ParseError
from repro.pml.lexer import Lexer, decode_entities


def lex(source: str):
    return Lexer(source).tokens()


class TestTags:
    def test_open_close(self):
        tokens = lex("<module name='a'>hi</module>")
        assert [t.kind for t in tokens] == ["open", "text", "close"]
        assert tokens[0].name == "module"
        assert tokens[0].attrs == {"name": "a"}

    def test_self_closing(self):
        (token,) = lex('<miami/>')
        assert token.kind == "open" and token.self_closing

    def test_multiple_attributes(self):
        (token,) = lex('<param name="duration" len="3" default="one day"/>')
        assert token.attrs == {"name": "duration", "len": "3", "default": "one day"}

    def test_unquoted_attribute(self):
        (token,) = lex("<param len=5/>")
        assert token.attrs == {"len": "5"}

    def test_valueless_attribute(self):
        (token,) = lex("<module pinned/>")
        assert token.attrs == {"pinned": ""}

    def test_single_quotes_and_entities_in_values(self):
        (token,) = lex("<m note='a &lt; b'/>")
        assert token.attrs["note"] == "a < b"

    def test_hyphen_and_dot_in_names(self):
        (token,) = lex("<trip-plan.v2/>")
        assert token.name == "trip-plan.v2"

    def test_unterminated_tag_raises_with_position(self):
        with pytest.raises(ParseError) as exc:
            lex("<module name='a'")
        assert exc.value.line == 1


class TestTextLeniency:
    def test_bare_angle_bracket_is_text(self):
        """Code-like module content must survive (Fig 6 schemas)."""
        tokens = lex("<m>if x < 3: y = a <b> done</m>")
        text = "".join(t.text for t in tokens if t.kind == "text")
        assert "x < 3" in text
        # "<b>" IS a valid tag start, so it lexes as a tag.
        assert any(t.kind == "open" and t.name == "b" for t in tokens)

    def test_angle_before_space_or_digit_is_text(self):
        tokens = lex("a < b and x <3")
        assert len(tokens) == 1 and tokens[0].kind == "text"
        assert tokens[0].text == "a < b and x <3"

    def test_entities_decoded_in_text(self):
        (token,) = lex("x &lt; y &amp;&amp; z &gt; w")
        assert token.text == "x < y && z > w"

    def test_bare_ampersand_is_literal(self):
        (token,) = lex("salt & pepper")
        assert token.text == "salt & pepper"

    def test_cdata_passes_verbatim(self):
        tokens = lex("<m><![CDATA[<module> is not parsed & neither is this]]></m>")
        text = [t for t in tokens if t.kind == "text"][0].text
        assert text == "<module> is not parsed & neither is this"

    def test_comments_skipped(self):
        tokens = lex("a<!-- hidden <tags> -->b")
        assert [t.text for t in tokens if t.kind == "text"] == ["a", "b"]

    def test_unterminated_comment(self):
        with pytest.raises(ParseError):
            lex("<!-- forever")

    def test_line_column_tracking(self):
        tokens = lex("line one\n  <module name='x'/>")
        tag = [t for t in tokens if t.kind == "open"][0]
        assert tag.line == 2 and tag.column == 3

    def test_positions_across_runs_cdata_and_comments(self):
        """Text is scanned a run at a time; every token's line and column
        — and an error's after them — are what a character-by-character
        scan gives."""
        source = (
            "<schema name='s'>\n"
            "  first line of text\n"
            "  if a < 3 and b <= 4:\n"
            "    x = y <\n"
            "<![CDATA[raw <tag>\nspanning]]> after\n"
            "  <!-- a\ncomment --> tail <m/>"
        )
        assert [(t.kind, t.line, t.column, t.text) for t in lex(source)] == [
            ("open", 1, 1, ""),
            ("text", 1, 18, "\n  first line of text\n  if a < 3 and b <= 4:\n    x = y <\n"),
            ("text", 6, 12, "raw <tag>\nspanning after\n  "),
            ("text", 8, 12, " tail "),
            ("open", 8, 18, ""),
        ]
        with pytest.raises(ParseError) as exc:
            lex(source + "\n  more <module name='x'")
        assert (exc.value.line, exc.value.column) == (9, 24)
        with pytest.raises(ParseError) as exc:
            lex(source + '\n  more <m name="x></m>')
        assert (exc.value.line, exc.value.column) == (9, 16)
        with pytest.raises(ParseError) as exc:
            lex(source + "\n\n <m v=>")
        assert (exc.value.line, exc.value.column) == (10, 7)


class TestEntities:
    def test_all_five(self):
        assert decode_entities("&lt;&gt;&amp;&quot;&apos;") == "<>&\"'"

    def test_unknown_entity_left_alone(self):
        assert decode_entities("&nbsp;") == "&nbsp;"
