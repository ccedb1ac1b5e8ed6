"""The library's regexes keep no backtracking frame per turn of a repeat.

A greedy or lazy repeat whose body can match runs of different widths
keeps one frame per turn, so one match over a long run of input grows in
memory with it; a possessive repeat, or one whose body has one width,
keeps none.  The one exception, ``_ESCAPED_RUN_RE``, bounds its repeat
at ``_MAX_TURNS`` turns.
"""

import importlib
import pkgutil
import re

import pytest

import pdfmlp
from pdfmlp.pdf import parser

_sre = getattr(re, "_parser", None)  # private; its layout is checked on Python 3.11
_NODES = ("MAX_REPEAT", "MIN_REPEAT", "POSSESSIVE_REPEAT", "SubPattern")
if _sre is None or not all(hasattr(_sre, node) for node in _NODES):
    pytest.skip(
        "re._parser lacks the repeat nodes this rule reads; its layout is private to CPython",
        allow_module_level=True,
    )


def library_patterns() -> dict[str, re.Pattern]:
    """Every compiled pattern held by a pdfmlp module, by its qualified name."""
    found = {}
    for info in pkgutil.walk_packages(pdfmlp.__path__, "pdfmlp."):
        if info.name.endswith("__main__"):  # importing it runs the CLI
            continue
        module = importlib.import_module(info.name)
        for attribute, value in vars(module).items():
            if isinstance(value, re.Pattern):
                found[f"{info.name}.{attribute}"] = value
    return found


def _subpatterns(av):
    """The parsed subpatterns an opcode's argument holds, however nested."""
    if isinstance(av, _sre.SubPattern):
        yield av
    elif isinstance(av, (tuple, list)):
        for item in av:
            yield from _subpatterns(item)


def backtracking_repeats(tree) -> list[str]:
    """The greedy and lazy repeats in a parsed pattern that can run more than
    once over a body of varying width."""
    found = []
    for op, av in tree:
        if op in (_sre.MAX_REPEAT, _sre.MIN_REPEAT):
            _, most, body = av
            least_width, most_width = body.getwidth()
            if most > 1 and least_width != most_width:
                found.append(f"{op} {av}")
        for sub in _subpatterns(av):
            found += backtracking_repeats(sub)
    return found


def offending_patterns() -> set[str]:
    return {
        name
        for name, pattern in library_patterns().items()
        if backtracking_repeats(_sre.parse(pattern.pattern, pattern.flags))
    }


def test_the_walk_finds_the_lexer_patterns():
    names = library_patterns()
    assert len(names) >= 13
    assert names["pdfmlp.pdf.parser._TOKEN_RE"] is parser._TOKEN_RE
    assert names["pdfmlp.pdf.parser._OBJECT_END_RE"] is parser._OBJECT_END_RE


def test_no_library_pattern_backtracks_per_turn_but_the_bounded_escape_run():
    assert offending_patterns() == {"pdfmlp.pdf.parser._ESCAPED_RUN_RE"}


@pytest.mark.parametrize(
    "pattern, offends",
    [
        (rb"\s*+(?:%[^\n]*+\s*+)*+", False),  # possessive throughout
        (rb"\d+(?:\.\d*)?", False),  # one width per turn; the optional part turns once
        (rb"(?:ab)*", False),
        (rb"(?:a|bc)*", True),
        (rb"(?:a\d*)+?", True),
        (rb"x(?:(?=y)(?:a|bc){2,})", True),  # found inside groups and assertions
    ],
)
def test_the_rule_tells_backtracking_repeats(pattern, offends):
    assert bool(backtracking_repeats(_sre.parse(pattern))) is offends
