"""The exported names and the documented ones are the same set."""

import re
from pathlib import Path

import focusfl

README = Path(__file__).resolve().parent.parent / "README.md"


def library_code_spans():
    """The inline code spans of README's "Library" section, fenced blocks left out."""
    text = README.read_text(encoding="utf-8")
    section = re.search(r"^## Library\n(.*?)^## ", text, re.S | re.M).group(1)
    prose = re.sub(r"^```.*?^```", "", section, flags=re.S | re.M)
    return re.findall(r"`([^`]+)`", prose)


def test_every_export_exists_and_is_named_in_the_library_section():
    spans = library_code_spans()
    assert len(set(focusfl.__all__)) == len(focusfl.__all__)
    missing = [name for name in focusfl.__all__ if not hasattr(focusfl, name)]
    assert missing == []
    undocumented = [name for name in focusfl.__all__ if not any(re.search(rf"\b{name}\b", s) for s in spans)]
    assert undocumented == []
