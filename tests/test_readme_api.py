"""README's documented API exists: every function or constant that the
"Algorithms" section names in backticks is an attribute of `galaxia`,
so removing a public name without updating README fails here."""
import re
from pathlib import Path

import galaxia

README = Path(__file__).resolve().parent.parent / "README.md"
FORMULA_SYMBOLS = {"ceil", "k", "n"}  # used in the bounds, not API


def algorithms_section_names():
    """Backticked identifiers of the section, alone or called: `f(d)`."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Algorithms\n", 1)[1].split("\n## ", 1)[0]
    names = set()
    for span in re.findall(r"`([^`]+)`", section):
        match = re.match(r"[A-Za-z_]\w*(?=\(|$)", span)
        if match:
            names.add(match.group())
    return names - FORMULA_SYMBOLS


def test_readme_algorithms_names_are_exported():
    names = algorithms_section_names()
    assert len(names) >= 20  # the extraction found the section
    missing = sorted(name for name in names if not hasattr(galaxia, name))
    assert missing == []
