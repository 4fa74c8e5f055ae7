"""XML character escaping for text nodes and attribute values."""

from __future__ import annotations

_TEXT_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;"}
_ATTR_ESCAPES = {**_TEXT_ESCAPES, '"': "&quot;", "\n": "&#10;", "\t": "&#9;", "\r": "&#13;"}

_ENTITY_MAP = {
    "amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'",
}


# str.translate with a precomputed table is the fastest pure-Python way
# to escape; these run on every serialized text node.
_TEXT_TABLE = str.maketrans(_TEXT_ESCAPES)
_ATTR_TABLE = str.maketrans(_ATTR_ESCAPES)


def escape_text(text: str) -> str:
    """Escape character data for a text node."""
    if "&" not in text and "<" not in text and ">" not in text:
        return text  # base64 payloads: three memchr scans instead of a copy
    return text.translate(_TEXT_TABLE)


def escape_attr(text: str) -> str:
    """Escape character data for a double-quoted attribute value."""
    return text.translate(_ATTR_TABLE)


def unescape(text: str) -> str:
    """Resolve the five predefined entities plus numeric references.

    Runs of plain characters between references are copied as slices, so
    text without ``&`` (base64 payloads, most element text) costs one
    ``find``.
    """
    out: list[str] = []
    i = 0
    while True:
        amp = text.find("&", i)
        if amp == -1:
            out.append(text[i:])
            return "".join(out)
        out.append(text[i:amp])
        end = text.find(";", amp + 1)
        if end == -1:
            raise ValueError(f"unterminated entity reference at offset {amp}")
        name = text[amp + 1:end]
        if name.startswith("#x") or name.startswith("#X"):
            out.append(chr(int(name[2:], 16)))
        elif name.startswith("#"):
            out.append(chr(int(name[1:])))
        elif name in _ENTITY_MAP:
            out.append(_ENTITY_MAP[name])
        else:
            raise ValueError(f"unknown entity &{name};")
        i = end + 1
