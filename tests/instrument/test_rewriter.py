"""Tests for the AST instrumentor (the code-instrumentation route)."""

import pytest

from repro.core import all_accesses, relevant_writes
from repro.instrument import InstrumentedRuntime, InstrumentError, instrument_function


# Module-level functions so inspect.getsource works.

def _simple():
    x = 5
    y = x + 1
    return y


def _augmented():
    c = c + 0  # noqa: F821 - read then write of shared c
    c += 3
    c *= 2
    return 0


def _control_flow():
    if flag == 1:  # noqa: F821
        out = 10
    else:
        out = 20
    total = 0
    for _i in range(3):
        total = total + out  # noqa: F821
    return 0


def _locals_untouched():
    local = 1
    local += 2
    x = local  # only x is shared
    return local


def _chained():
    x = y = 7  # noqa: F841 - both shared
    return 0


def _mixed_chain():
    x = tmp = 4  # x shared, tmp local
    return tmp


def _deleter():
    del x  # noqa: F821


def _globaler():
    global x
    x = 1


def _tuple_target():
    x, y = 1, 2  # noqa: F841


def _while_loop():
    n = 0
    while x > 0:  # noqa: F821
        x -= 1  # noqa: F821
        n += 1
    return n


def _nested_expression():
    return (x + y) * x  # noqa: F821


class TestRewriting:
    def test_plain_assignments(self):
        rt = InstrumentedRuntime({"x": 0, "y": 0})
        f = instrument_function(_simple, {"x", "y"}, rt)
        assert f() == 6
        assert rt.store == {"x": 5, "y": 6}

    def test_event_stream_shape(self):
        rt = InstrumentedRuntime({"x": 0, "y": 0}, relevance=all_accesses())
        f = instrument_function(_simple, {"x", "y"}, rt)
        f()
        assert [(e.kind.name, e.var) for e in rt.events] == [
            ("WRITE", "x"), ("READ", "x"), ("WRITE", "y"), ("READ", "y")]

    def test_augmented_assignments(self):
        rt = InstrumentedRuntime({"c": 5})
        f = instrument_function(_augmented, {"c"}, rt)
        f()
        assert rt.store["c"] == 16  # ((5+0)+3)*2

    def test_augmented_emits_read_and_write(self):
        rt = InstrumentedRuntime({"c": 0}, relevance=all_accesses())
        f = instrument_function(_augmented, {"c"}, rt)
        f()
        kinds = [e.kind.name for e in rt.events]
        assert kinds == ["READ", "WRITE"] * 3

    def test_control_flow_reads(self):
        rt = InstrumentedRuntime({"flag": 1, "out": 0, "total": 0})
        f = instrument_function(_control_flow, {"flag", "out", "total"}, rt)
        f()
        assert rt.store["out"] == 10
        assert rt.store["total"] == 30

    def test_locals_not_instrumented(self):
        rt = InstrumentedRuntime({"x": 0}, relevance=all_accesses())
        f = instrument_function(_locals_untouched, {"x"}, rt)
        assert f() == 3
        # only one shared event: the write of x
        assert [(e.kind.name, e.var) for e in rt.events] == [("WRITE", "x")]

    def test_chained_shared_targets(self):
        rt = InstrumentedRuntime({"x": 0, "y": 0})
        f = instrument_function(_chained, {"x", "y"}, rt)
        f()
        assert rt.store == {"x": 7, "y": 7}

    def test_mixed_chain_shared_and_local(self):
        rt = InstrumentedRuntime({"x": 0})
        f = instrument_function(_mixed_chain, {"x"}, rt)
        assert f() == 4
        assert rt.store["x"] == 4

    def test_while_loop_over_shared(self):
        rt = InstrumentedRuntime({"x": 3})
        f = instrument_function(_while_loop, {"x"}, rt)
        assert f() == 3
        assert rt.store["x"] == 0

    def test_nested_expression_reads(self):
        rt = InstrumentedRuntime({"x": 2, "y": 3}, relevance=all_accesses())
        f = instrument_function(_nested_expression, {"x", "y"}, rt)
        assert f() == 10
        reads = [e.var for e in rt.events]
        assert reads == ["x", "y", "x"]


class TestRejections:
    def test_delete_shared_rejected(self):
        rt = InstrumentedRuntime({"x": 0})
        with pytest.raises(InstrumentError, match="delete"):
            instrument_function(_deleter, {"x"}, rt)

    def test_global_shared_rejected(self):
        rt = InstrumentedRuntime({"x": 0})
        with pytest.raises(InstrumentError, match="global"):
            instrument_function(_globaler, {"x"}, rt)

    def test_tuple_target_rejected(self):
        rt = InstrumentedRuntime({"x": 0, "y": 0})
        with pytest.raises(InstrumentError, match="write pattern"):
            instrument_function(_tuple_target, {"x", "y"}, rt)

    def test_undeclared_shared_name_rejected(self):
        rt = InstrumentedRuntime({"x": 0})
        with pytest.raises(InstrumentError, match="not declared"):
            instrument_function(_simple, {"x", "y"}, rt)

    def test_lambda_rejected(self):
        rt = InstrumentedRuntime({"x": 0})
        with pytest.raises(InstrumentError):
            instrument_function(lambda: x, {"x"}, rt)  # noqa: F821


class TestSemanticsPreservation:
    def test_uninstrumented_names_see_globals(self):
        rt = InstrumentedRuntime({"x": 0})

        f = instrument_function(_uses_helper, {"x"}, rt)
        assert f() == 42
        assert rt.store["x"] == 42

    def test_signature_preserved(self):
        rt = InstrumentedRuntime({"acc": 0})
        f = instrument_function(_with_args, {"acc"}, rt)
        assert f(4, k=5) == 9
        assert rt.store["acc"] == 9

    def test_instrumented_marker(self):
        rt = InstrumentedRuntime({"x": 0})
        f = instrument_function(_simple, {"x"}, rt)
        assert f.__instrumented_shared__ == frozenset({"x"})


def _helper():
    return 42


def _uses_helper():
    x = _helper()  # noqa: F841
    return x


def _with_args(n, k=0):
    acc = n + k  # noqa: F841
    return acc


def _floordiv_aug():
    c //= 2  # noqa: F821
    return 0


def _chained_aug():
    # consecutive augmented assignments where each RHS reads other shared
    # names — the written value must thread through the runtime store.
    a += b  # noqa: F821
    b += a  # noqa: F821
    a += a  # noqa: F821
    return 0


def _walrus_shared():
    if (x := 3) > 2:  # noqa: F821
        pass


def _comp_target_shared():
    return [x for x in range(3)]  # noqa: F821


def _comp_reads_shared():
    return [i + x for i in range(3)]  # noqa: F821


def _lambda_param_shadow():
    f = lambda x: x + 1  # noqa: E731,F821
    return f(1)


def _nested_def_param_shadow():
    def inner(x):
        return x

    return inner(1)


def _with_as_shared():
    with open("/dev/null") as x:  # noqa: F821
        pass


def _starred_target():
    x, *rest = [1, 2, 3]  # noqa: F821,F841


def _ann_assign():
    x: int = 41  # noqa: F821
    y: int  # bare annotation: neither read nor write
    x += 1  # noqa: F821
    return 0


def _noisy_mix():
    noise = noise + 1  # noqa: F821
    x = noise * 10  # noqa: F821
    noise += 1  # noqa: F821
    return 0


def _nested_reader():
    def helper():
        return x + 1  # noqa: F821 - shared read inside a nested function

    y = helper()  # noqa: F841
    return 0


class TestMorePatterns:
    def test_floordiv_augmented(self):
        rt = InstrumentedRuntime({"c": 9})
        f = instrument_function(_floordiv_aug, {"c"}, rt)
        f()
        assert rt.store["c"] == 4

    def test_shared_read_inside_nested_function(self):
        rt = InstrumentedRuntime({"x": 5, "y": 0})
        f = instrument_function(_nested_reader, {"x", "y"}, rt)
        f()
        assert rt.store["y"] == 6

    def test_chained_augmented_assignments(self):
        rt = InstrumentedRuntime({"a": 1, "b": 2}, relevance=all_accesses())
        f = instrument_function(_chained_aug, {"a", "b"}, rt)
        f()
        # a=1+2=3, b=2+3=5, a=3+3=6 — every read sees the prior write.
        assert rt.store == {"a": 6, "b": 5}
        kinds = [(e.kind.name, e.var) for e in rt.events]
        assert kinds == [
            ("READ", "a"), ("READ", "b"), ("WRITE", "a"),
            ("READ", "b"), ("READ", "a"), ("WRITE", "b"),
            ("READ", "a"), ("READ", "a"), ("WRITE", "a")]

    def test_comprehension_reading_shared_allowed(self):
        rt = InstrumentedRuntime({"x": 10}, relevance=all_accesses())
        f = instrument_function(_comp_reads_shared, {"x"}, rt)
        assert f() == [10, 11, 12]
        assert [e.var for e in rt.events] == ["x", "x", "x"]

    def test_ann_assign_shared(self):
        rt = InstrumentedRuntime({"x": 0, "y": 0}, relevance=all_accesses())
        f = instrument_function(_ann_assign, {"x", "y"}, rt)
        f()
        assert rt.store["x"] == 42
        # bare `y: int` produced no event at all
        assert all(e.var == "x" for e in rt.events)


class TestScopeRebindRejections:
    """Constructs that would silently rebind a shared name must be refused
    (satellite: comprehensions, lambdas, nested defs — support or reject)."""

    def test_walrus_target_rejected(self):
        rt = InstrumentedRuntime({"x": 0})
        with pytest.raises(InstrumentError, match=":="):
            instrument_function(_walrus_shared, {"x"}, rt)

    def test_comprehension_target_rejected(self):
        rt = InstrumentedRuntime({"x": 0})
        with pytest.raises(InstrumentError,
                           match="comprehension target rebinds"):
            instrument_function(_comp_target_shared, {"x"}, rt)

    def test_lambda_param_shadow_rejected(self):
        rt = InstrumentedRuntime({"x": 0})
        with pytest.raises(InstrumentError, match="lambda parameter"):
            instrument_function(_lambda_param_shadow, {"x"}, rt)

    def test_nested_def_param_shadow_rejected(self):
        rt = InstrumentedRuntime({"x": 0})
        with pytest.raises(InstrumentError,
                           match="nested function parameter"):
            instrument_function(_nested_def_param_shadow, {"x"}, rt)

    def test_with_as_rejected(self):
        rt = InstrumentedRuntime({"x": 0})
        with pytest.raises(InstrumentError, match="'with ... as' rebinds"):
            instrument_function(_with_as_shared, {"x"}, rt)

    def test_starred_target_rejected(self):
        rt = InstrumentedRuntime({"x": 0})
        with pytest.raises(InstrumentError, match="write pattern"):
            instrument_function(_starred_target, {"x"}, rt)

    def test_entry_param_shadow_rejected(self):
        rt = InstrumentedRuntime({"acc": 0, "n": 0})
        with pytest.raises(InstrumentError, match="shadows the shared"):
            instrument_function(_with_args, {"acc", "n"}, rt)


class TestErrorSpans:
    """InstrumentError carries the offending construct's real file:line:col
    in the repository's shared span format."""

    def test_delete_span_points_into_this_file(self):
        rt = InstrumentedRuntime({"x": 0})
        with pytest.raises(InstrumentError) as exc:
            instrument_function(_deleter, {"x"}, rt)
        err = exc.value
        assert err.filename.endswith("test_rewriter.py")
        assert err.line == _deleter.__code__.co_firstlineno + 1
        assert err.col >= 1
        assert str(err).startswith(f"{err.filename}:{err.line}:{err.col}: ")
        assert "cannot delete shared variable 'x'" in err.problem

    def test_starred_span(self):
        rt = InstrumentedRuntime({"x": 0})
        with pytest.raises(InstrumentError) as exc:
            instrument_function(_starred_target, {"x"}, rt)
        assert exc.value.line == _starred_target.__code__.co_firstlineno + 1
        assert "unsupported write pattern to shared variable 'x'" in \
            exc.value.problem

    def test_global_span(self):
        rt = InstrumentedRuntime({"x": 0})
        with pytest.raises(InstrumentError) as exc:
            instrument_function(_globaler, {"x"}, rt)
        assert exc.value.line == _globaler.__code__.co_firstlineno + 1

    def test_traceback_lines_match_source_file(self):
        # compile() gets the real filename + line offsets, so runtime
        # tracebacks through instrumented code point at this file.
        rt = InstrumentedRuntime({"x": 0})
        f = instrument_function(_simple, {"x"}, rt)
        assert f.__code__.co_filename.endswith("test_rewriter.py")
        assert f.__code__.co_firstlineno == _simple.__code__.co_firstlineno


class TestPredicateSlicing:
    """AST-route slicing is the runtime's relevance predicate: the rewrite
    is the same, irrelevant writes emit no message, every access is still
    an event."""

    def test_irrelevant_writes_send_no_message(self):
        rt = InstrumentedRuntime({"noise": 0, "x": 0},
                                 relevance=relevant_writes({"x"}))
        instrument_function(_noisy_mix, {"noise", "x"}, rt)()
        assert rt.store == {"noise": 2, "x": 10}
        assert [m.event.var for m in rt.messages] == ["x"]
        assert [e.var for e in rt.events] == [
            "noise", "noise", "noise", "x", "noise", "noise"]

    def test_full_run_matches_sliced_store(self):
        rt_full = InstrumentedRuntime({"noise": 0, "x": 0})
        instrument_function(_noisy_mix, {"noise", "x"}, rt_full)()
        rt_sliced = InstrumentedRuntime({"noise": 0, "x": 0},
                                        relevance=relevant_writes({"x"}))
        instrument_function(_noisy_mix, {"noise", "x"}, rt_sliced)()
        assert rt_full.store == rt_sliced.store


class TestRoundTripEquivalence:
    """Instrumented functions compute exactly what the plain Python would."""

    CASES = [
        (_augmented, {"c": 5}, {"c": 16}),
        (_chained_aug, {"a": 1, "b": 2}, {"a": 6, "b": 5}),
        (_control_flow, {"flag": 0, "out": 0, "total": 0},
         {"flag": 0, "out": 20, "total": 60}),
        (_ann_assign, {"x": 0, "y": 9}, {"x": 42, "y": 9}),
        (_while_loop, {"x": 5}, {"x": 0}),
    ]

    @pytest.mark.parametrize("fn,initial,expected", CASES,
                             ids=[c[0].__name__ for c in CASES])
    def test_final_store(self, fn, initial, expected):
        rt = InstrumentedRuntime(dict(initial))
        instrument_function(fn, set(initial), rt)()
        assert rt.store == expected
