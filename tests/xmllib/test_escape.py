"""Escaping and entity resolution."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.xmllib.escape import escape_attr, escape_text, unescape


class TestEscapeText:
    def test_specials(self):
        assert escape_text("a & b < c > d") == "a &amp; b &lt; c &gt; d"

    @pytest.mark.parametrize("ch, ref", [("&", "&amp;"), ("<", "&lt;"),
                                         (">", "&gt;")])
    def test_single_special_is_escaped(self, ch, ref):
        assert escape_text(f"plain {ch} text") == f"plain {ref} text"

    def test_quotes_untouched_in_text(self):
        assert escape_text('say "hi"') == 'say "hi"'

    def test_identity_on_plain(self):
        assert escape_text("plain text 123") == "plain text 123"

    def test_plain_text_is_not_copied(self):
        payload = "QUJD+/==" * 1000
        assert escape_text(payload) is payload


class TestEscapeAttr:
    def test_quotes_escaped(self):
        assert escape_attr('v="x"') == "v=&quot;x&quot;"

    def test_whitespace_escaped(self):
        assert escape_attr("a\nb\tc\rd") == "a&#10;b&#9;c&#13;d"


class TestUnescape:
    def test_named_entities(self):
        assert unescape("&amp;&lt;&gt;&quot;&apos;") == "&<>\"'"

    def test_numeric_decimal(self):
        assert unescape("&#65;") == "A"

    def test_numeric_hex(self):
        assert unescape("&#x41;&#X42;") == "AB"

    def test_unknown_entity_rejected(self):
        with pytest.raises(ValueError):
            unescape("&bogus;")

    def test_unterminated_rejected(self):
        with pytest.raises(ValueError):
            unescape("abc &amp")

    def test_unterminated_offset_names_the_ampersand(self):
        with pytest.raises(ValueError, match="offset 4"):
            unescape("abc &amp")

    def test_references_between_plain_runs(self):
        assert unescape("ab&amp;cd&#65;ef&lt;") == "ab&cdAef<"
        assert unescape("x" * 5000 + "&gt;" + "y" * 5000) \
            == "x" * 5000 + ">" + "y" * 5000

    @given(st.text(max_size=200))
    def test_text_roundtrip(self, text):
        assert unescape(escape_text(text)) == text

    @given(st.text(max_size=200))
    def test_attr_roundtrip(self, text):
        assert unescape(escape_attr(text)) == text
