"""In-memory span recorder for the traced benchmark run.

A span is (name, parent, start_ns, end_ns). Spans are stored flat in an
``array('q')`` in pre-order, so a request's spans follow its root span and
the whole run costs 32 bytes per span. Functions are traced by replacing
them, for the duration of one request, at the names the calling module looks
them up under; ``patched()`` installs the replacements and restores the
originals on exit, so nothing stays patched between requests or after the
run.
"""

from __future__ import annotations

import contextlib
import time
from array import array

import numpy as np

ROOT = "request"


class Tracer:
    """Records spans and counters around wrapped calls."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans = array("q")  # (name_id, parent, start_ns, end_ns) per span
        self.counts: dict[str, int] = {}
        self._stack = [-1]
        self._patches: list[tuple[object, str, object, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, count=None):
        """Return ``fn`` wrapped so that each call records one span.

        ``count(args, result)``, when given, yields (counter, increment)
        pairs that are added to ``self.counts`` after the span has closed.
        """
        nid = self._name_id(name)
        spans = self.spans
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans) >> 2
            spans.extend((nid, stack[-1], 0, 0))
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[(idx << 2) + 2] = start
                spans[(idx << 2) + 3] = end
            if count is not None:
                for key, inc in count(args, result):
                    counts[key] = counts.get(key, 0) + inc
            return result

        return traced

    def patch(self, module, attr: str, name: str, count=None) -> None:
        """Register ``module.attr`` to be traced as span ``name`` while patched."""
        original = getattr(module, attr)
        self._patches.append((module, attr, original, self.wrap(original, name, count)))

    @contextlib.contextmanager
    def patched(self):
        """Install every registered wrapper; restore the originals on exit."""
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        try:
            yield
        finally:
            for module, attr, original, _ in reversed(self._patches):
                setattr(module, attr, original)

    def table(self) -> np.ndarray:
        """Spans as an int64 array of shape (spans, 4)."""
        return np.frombuffer(self.spans, dtype=np.int64).reshape(-1, 4)

    def self_times(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per span: (duration ns, self ns, index of its request).

        Self time is the duration minus the time covered by direct children.
        """
        s = self.table()
        duration = s[:, 3] - s[:, 2]
        child = np.zeros(len(s), dtype=np.int64)
        has_parent = s[:, 1] >= 0
        np.add.at(child, s[has_parent, 1], duration[has_parent])
        request = np.cumsum(s[:, 0] == self._name_id(ROOT)) - 1
        return duration, duration - child, request

    def save(self, path, meta: str) -> None:
        """Write the spans, their name table and a JSON metadata string."""
        np.savez(
            path, spans=self.table(), names=np.array(self.names), meta=np.array(meta)
        )
