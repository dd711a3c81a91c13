import pytest

from spans import Span, Tracer, self_times, summarize, total


def tree():
    # 0: root [0, 10] with children 1 [1, 3] and 2 [2, 5] (overlapping) and
    #    3 [8, 12], which runs past its parent's end
    # 2 has a grandchild 4 [2.5, 4]
    # 5: probe [10, 14] with child 6 [11, 12]
    # 7: root [14, 15]
    return [
        Span("root", 0.0, 10.0, None, 0, False),
        Span("a", 1.0, 3.0, 0, 0, False),
        Span("b", 2.0, 5.0, 0, 0, False),
        Span("c", 8.0, 12.0, 0, 0, False),
        Span("a", 2.5, 4.0, 2, 0, False),
        Span("probe", 10.0, 14.0, None, 1, True),
        Span("a", 11.0, 12.0, 5, 1, False),
        Span("root", 14.0, 15.0, None, 2, False),
    ]


def test_self_time_subtracts_the_union_of_children():
    selfs = self_times(tree())
    # root covers [1, 5] and [8, 10] by its children: 10 - 4 - 2
    assert selfs == pytest.approx([4.0, 2.0, 1.5, 4.0, 1.5, 3.0, 1.0, 1.0])


def test_summary_totals_probe_time_and_coverage():
    summary = summarize(tree(), wall=16.0)
    assert total(summary, "a") == pytest.approx(2.0 + 1.5 + 1.0)
    assert total(summary, "a", "count") == 3
    assert total(summary, "root", "self_s") == pytest.approx(5.0)
    assert total(summary, "missing") == 0
    assert summary["probe_s"] == pytest.approx(4.0)
    # blocking roots cover 11 of the 12 s that remain once the probe is removed
    assert summary["coverage"] == pytest.approx(11.0 / 12.0)


def test_tracer_records_parents_and_refuses_nested_probes():
    tracer = Tracer()
    with tracer.span("outer", op=3):
        with tracer.span("inner", op=3):
            pass
        with pytest.raises(ValueError):
            with tracer.span("probe", probe=True):
                pass
    outer, inner = tracer.spans
    assert (outer.parent, inner.parent, inner.op) == (None, 0, 3)
    assert outer.start <= inner.start <= inner.end <= outer.end
