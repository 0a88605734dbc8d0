from spans import SpanRecorder, self_times


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_spans_nest_under_the_open_op_and_self_time_excludes_children():
    clock = FakeClock()
    rec = SpanRecorder(clock)

    def leaf():
        clock.now += 2.0
        return 1

    def outer():
        clock.now += 1.0
        inner()
        clock.now += 1.0
        return 2

    inner = rec.wrap("inner", leaf, lambda a, k, out: {"out": out})
    traced_outer = rec.wrap("outer", outer)

    rec.begin_op("op")
    clock.now += 0.5
    assert traced_outer() == 2
    clock.now += 0.5
    rec.begin_op("op")  # closes the first op
    inner()
    rec.end_op()

    names = [s[0] for s in rec.spans]
    assert names == ["op", "outer", "inner", "op", "inner"]
    op0, outer_span, inner_span, op1, inner2 = rec.spans
    assert outer_span[3] == 0 and inner_span[3] == 1 and inner2[3] == 3
    assert [s[4] for s in rec.spans] == [0, 0, 0, 1, 1]
    assert inner_span[5] == {"out": 1}
    selfs = self_times(rec.spans)
    assert selfs == [1.0, 2.0, 2.0, 0.0, 2.0]
    assert op0[2] - op0[1] == 5.0


def test_span_is_closed_when_the_call_raises():
    clock = FakeClock()
    rec = SpanRecorder(clock)

    def boom():
        clock.now += 1.0
        raise ValueError

    traced = rec.wrap("boom", boom)
    try:
        traced()
    except ValueError:
        pass
    (span,) = rec.spans
    assert span[2] - span[1] == 1.0 and span[5] == {}
