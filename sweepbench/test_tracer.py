"""Self time and span parents of the tracer's wrappers.

    python3 -m pytest sweepbench/test_tracer.py
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import HOT, Tracer  # noqa: E402


def test_self_time_excludes_traced_children():
    tracer = Tracer(".")
    hot_name = next(iter(HOT))
    inner = tracer.wrap("x.inner", lambda: time.sleep(0.02))
    kernel = tracer.wrap(hot_name, lambda: time.sleep(0.01))

    def outer_body():
        time.sleep(0.03)
        inner()
        kernel()

    outer = tracer.wrap("x.outer", outer_body)
    outer()
    calls, total, self_s = tracer.stats["x.outer"]
    assert calls == 1
    assert total >= 0.06
    assert 0.03 <= self_s < total - 0.029
    assert tracer.stats[hot_name][0] == 1
    # the hot kernel is counted but kept out of the spans
    names = [s[0] for s in tracer.spans]
    assert names == ["x.inner", "x.outer"]
    inner_span, outer_span = tracer.spans
    assert inner_span[2] == outer_span[1]  # inner's parent is outer
    assert outer_span[2] == -1


def test_reset_keeps_the_wrappers_recording():
    tracer = Tracer(".")
    f = tracer.wrap("x.f", lambda: None)
    f()
    tracer.reset()
    assert tracer.stats["x.f"] == [0, 0.0, 0.0] and tracer.spans == []
    f()
    assert tracer.stats["x.f"][0] == 1 and len(tracer.spans) == 1
