"""Span tracing from outside the package: wrap public functions, record spans.

A ``Tracer`` replaces each listed function at every module attribute the
package reaches it through (``nfisac.squint.spherical_delay_matrix``,
``nfisac.experiments.focal_points``, the ``nfisac`` namespace, ...) with one
wrapper. A span target records a span (name, start, end, parent); a counted
target (``numpy.exp``, ``numpy.fft.fft2``) records no span. Either kind may
add work counts measured on the call's arguments and result, and the counter
is told which layer's span the call was made in. ``uninstall`` puts every
original back, so untraced timing in the same process sees the package
exactly as shipped. Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

_clock = time.perf_counter
PACKAGE = "nfisac"


class Tracer:
    def __init__(self, targets, counted):
        """targets: (layer name, module, attribute, counter or None), spans.

        counted: (name, module, attribute, counter), counted calls without a
        span. A counter is f(counts, layer, args, kwargs, result); it adds
        to the ``counts`` defaultdict, and ``layer`` is the name of the
        innermost open span (None outside every span).
        """
        self.targets = list(targets)
        self.counted = list(counted)
        self.spans = []  # (name, start, end, parent index or -1, tag)
        self.counts = defaultdict(int)
        self.tag = ""
        self._stack = []
        self._patched = []  # (owner, attribute, original)

    def _current_layer(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    def _wrap_span(self, name, fn, counter):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append((name, 0.0, 0.0, parent, self.tag))
            stack.append(index)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.tag)
            if counter is not None:
                counter(self.counts, name, args, kwargs, result)
            return result

        return traced

    def _wrap_counted(self, fn, counter):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counter(self.counts, self._current_layer(), args, kwargs, result)
            return result

        return counted

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        owners = [
            mod
            for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        wrapped = [(module, attr, self._wrap_span(name, getattr(module, attr), counter))
                   for name, module, attr, counter in self.targets]
        wrapped += [(module, attr, self._wrap_counted(getattr(module, attr), counter))
                    for _, module, attr, counter in self.counted]
        for module, attr, wrapper in wrapped:
            original = getattr(module, attr)
            wrapper.__wrapped__ = original
            wrapper.__name__ = getattr(original, "__name__", attr)
            wrapper.__doc__ = getattr(original, "__doc__", None)
            reached = {(id(module), attr): module}
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        reached[(id(owner), key)] = owner
            for (_, key), owner in reached.items():
                self._patched.append((owner, key, original))
                setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched = []

    def reached_through(self):
        """Dotted attribute paths currently wrapped, for the report."""
        return sorted(f"{owner.__name__}.{key}" for owner, key, _ in self._patched)

    def layer_times(self, tag):
        """Per layer: (calls, total seconds, self seconds) over spans with tag.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because the workload is single-threaded.
        Also returns the summed duration of root spans with that tag.
        """
        child = defaultdict(float)
        for name, start, end, parent, span_tag in self.spans:
            if span_tag == tag and parent >= 0:
                child[parent] += end - start
        out = {}
        roots = 0.0
        for index, (name, start, end, parent, span_tag) in enumerate(self.spans):
            if span_tag != tag:
                continue
            dur = end - start
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + dur, own + dur - child[index])
            if parent < 0:
                roots += dur
        return out, roots

    def write_spans(self, path, origin):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for index, (name, start, end, parent, tag) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start_s": start - origin,
                            "end_s": end - origin,
                            "parent": parent,
                            "phase": tag,
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )
