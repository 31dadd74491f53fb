"""In-memory span recorder for the traced benchmark run.

A span records its name, optional family tag (``cf``/``mc``), start, end,
parent span and run id, plus the ``RepairWarning`` events raised inside it,
counted by kind.  Spans are only opened around calls made from the
benchmark's own files.
"""

from __future__ import annotations

import re
import time
import warnings
from collections import Counter
from contextlib import contextmanager, nullcontext

from graphcoarsen.exceptions import RepairWarning

_NUMBERS = re.compile(r"[\[(][\d\s,()\[\]-]*[\])]|\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def warning_kind(message) -> str:
    """A RepairWarning message with its ids and counts blanked out."""
    return _NUMBERS.sub("#", str(message))


class Tracer:
    """Records nested spans of one sweep process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, tag: str | None = None):
        record = {"id": len(self.spans), "name": name, "tag": tag,
                  "parent": self._open[-1] if self._open else None,
                  "run": self.run_id, "repair_warnings": {}}
        self.spans.append(record)
        self._open.append(record["id"])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            record["start"] = time.perf_counter()
            try:
                yield record
            finally:
                record["end"] = time.perf_counter()
                self._open.pop()
        kinds = Counter(warning_kind(w.message) for w in caught
                        if issubclass(w.category, RepairWarning))
        record["repair_warnings"] = dict(kinds)
        for w in caught:  # anything else goes on to the enclosing handler
            if not issubclass(w.category, RepairWarning):
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)


class NullTracer:
    """Tracing off: every span is a no-op."""

    def span(self, name: str, tag: str | None = None):
        return nullcontext()

