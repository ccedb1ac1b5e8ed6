"""Former feature-extractor code, kept as oracles for the code that replaced it.

``_nesting_depth`` is the recursive depth walk and ``_iter_dicts`` with
``_obfuscation_score`` the dict walk for the JavaScript payload score;
``PdfDocument._graph`` finds both, and the name counts, in one walk.
``graph_facts`` gives their results in its shape.  ``_longest_hex_run`` is
the per-byte scan that ``features._longest_hex_run`` replaced with a
translate table.
"""

from typing import Any, Iterable, Optional

from pdfmlp.features import _OBFUSCATION_TOKENS, _info_string_values, _resolve
from pdfmlp.pdf import PdfDocument, PdfStream, PdfString
from pdfmlp.pdf.objects import HEX_DIGITS


def graph_facts(doc: PdfDocument) -> tuple[int, int]:
    depth = max((_nesting_depth(v) for v in doc.objects.values()), default=0)
    return depth, _obfuscation_score(doc)


def _nesting_depth(value: Any, depth: int = 0) -> int:
    if depth > 80:
        return depth
    if isinstance(value, dict):
        return 1 + max((_nesting_depth(v, depth + 1) for v in value.values()), default=0)
    if isinstance(value, list):
        return 1 + max((_nesting_depth(v, depth + 1) for v in value), default=0)
    if isinstance(value, PdfStream):
        return 1 + _nesting_depth(value.dictionary, depth + 1)
    return 0


def _iter_dicts(doc: PdfDocument) -> Iterable[dict]:
    seen: set[int] = set()
    stack: list[Any] = list(doc.trailer_dicts) + list(doc.objects.values())
    while stack:
        value = stack.pop()
        if isinstance(value, PdfStream):
            value = value.dictionary
        if isinstance(value, dict):
            if id(value) in seen:
                continue
            seen.add(id(value))
            yield value
            stack.extend(value.values())
        elif isinstance(value, list):
            if id(value) in seen:
                continue
            seen.add(id(value))
            stack.extend(value)


def _obfuscation_score(doc: PdfDocument) -> int:
    score = 0
    for d in _iter_dicts(doc):
        for key in ("/JS", "/JavaScript"):
            if key not in d:
                continue
            payload = _resolve(doc, d[key])
            if isinstance(payload, PdfString):
                data = payload.data
            elif isinstance(payload, PdfStream):
                data = payload.data
            else:
                continue
            score += sum(data.count(tok) for tok in _OBFUSCATION_TOKENS)
    return score


def _longest_hex_run(info: Optional[dict]) -> int:
    longest = 0
    for data in _info_string_values(info):
        run = 0
        for b in data:
            if b in HEX_DIGITS:
                run += 1
                if run > longest:
                    longest = run
            else:
                run = 0
    return longest
