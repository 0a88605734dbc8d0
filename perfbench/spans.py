"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent, op, attrs): parent is the index of the
enclosing span (-1 at top level), op the id of the operation it belongs to
and attrs a dict of counts read from the call's arguments and result.
Spans are kept in memory and summarised after the run.
"""

from __future__ import annotations

import time


class SpanRecorder:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []
        self._op_span = None
        self.op = -1

    def _open(self, name, parent):
        self.spans.append([name, self.clock(), None, parent, self.op, {}])
        return len(self.spans) - 1

    def begin_op(self, name):
        """Close the open operation span, if any, and start the next one."""
        self.end_op()
        self.op += 1
        self._op_span = self._open(name, -1)
        self._stack = [self._op_span]

    def end_op(self):
        if self._op_span is not None:
            self.spans[self._op_span][2] = self.clock()
            self._op_span = None
            self._stack = []

    def wrap(self, name, fn, attrs=None):
        """fn with a span around each call.

        attrs(args, kwargs, result) returns counts stored on the span; it
        runs after the span has ended, so its cost is not timed.
        """
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            idx = self._open(name, parent)
            self._stack.append(idx)
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                self.spans[idx][2] = self.clock()
                self._stack.pop()
                if attrs is not None and out is not None:
                    self.spans[idx][5] = attrs(args, kwargs, out)

        return traced


def self_times(spans):
    """Per span: its duration minus the union of its children's intervals."""
    children = {}
    for idx, span in enumerate(spans):
        if span[3] >= 0:
            children.setdefault(span[3], []).append(idx)
    out = []
    for idx, (_, start, end, _, _, _) in enumerate(spans):
        covered, cursor = 0.0, start
        for c in sorted(children.get(idx, ()), key=lambda i: spans[i][1]):
            c_start, c_end = max(spans[c][1], cursor), min(spans[c][2], end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append(end - start - covered)
    return out
