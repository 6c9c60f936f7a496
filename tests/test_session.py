from __future__ import annotations

import inspect
import os
import signal
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retrans.corpus import detokenize, tokenize
from retrans.errors import (
    DataError,
    EmptySentenceError,
    EventOrderError,
    EventParseError,
    NoOpEventWarning,
    TranslatorError,
)
from retrans.session import (
    CommandTranslator,
    SessionLog,
    UpdateEvent,
    apply_event,
    dictionary_translator,
    evaluate_sessions,
    load_tsv_map,
    read_events,
    run_session,
    scripted_translator,
)

from oracles import event_lines

# The running worked example: three replace updates for one utterance, with
# the mid-sentence hallucination that costs three corrected words.
EXAMPLE_SCRIPT = {
    "i": "yo",
    "i encourage all of": "yo animo a todo el mundo",
    "i encourage all of you": "yo animo a todos ustedes",
}
EXAMPLE_EVENTS = [
    UpdateEvent(0, "replace", "i"),
    UpdateEvent(0, "replace", "i encourage all of"),
    UpdateEvent(0, "replace", "i encourage all of you"),
]


class TestApplyEvent:
    def test_replace_retokenizes(self):
        current = tokenize("i")
        event = UpdateEvent(0, "replace", "i encourage all of")
        assert apply_event(current, event) == ("i", "encourage", "all", "of")

    def test_extend_concatenates(self):
        current = ("i", "encourage")
        assert apply_event(current, UpdateEvent(0, "extend", "all of")) == (
            "i",
            "encourage",
            "all",
            "of",
        )

    def test_replace_from_empty(self):
        assert apply_event((), UpdateEvent(0, "replace", "i")) == ("i",)

    def test_empty_extend_warns_and_keeps_state(self):
        current = ("a", "b")
        with pytest.warns(NoOpEventWarning):
            result = apply_event(current, UpdateEvent(0, "extend", "  "))
        assert result == current

    def test_empty_replace_is_an_error(self):
        with pytest.raises(EmptySentenceError):
            apply_event(("a",), UpdateEvent(0, "replace", ""))

    def test_bad_kind_rejected_on_construction(self):
        with pytest.raises(ValueError):
            UpdateEvent(0, "restart", "x")


class TestRunSession:
    def test_worked_example_translations(self):
        logs = run_session(EXAMPLE_EVENTS, scripted_translator(EXAMPLE_SCRIPT))
        assert len(logs) == 1
        assert logs[0].translations == [
            ("yo",),
            ("yo", "animo", "a", "todo", "el", "mundo"),
            ("yo", "animo", "a", "todos", "ustedes"),
        ]
        assert logs[0].final_translation == ("yo", "animo", "a", "todos", "ustedes")

    def test_single_event_utterance(self):
        logs = run_session([UpdateEvent(3, "replace", "hello")], dictionary_translator({}))
        assert len(logs) == 1
        assert logs[0].utterance_id == 3
        assert logs[0].steps == ((("hello",), ("hello",)),)

    def test_step_count_equals_event_count(self):
        events = [
            UpdateEvent(0, "replace", "a"),
            UpdateEvent(0, "extend", "b"),
            UpdateEvent(1, "replace", "c"),
        ]
        logs = run_session(events, dictionary_translator({}))
        assert [len(log.steps) for log in logs] == [2, 1]

    def test_sources_follow_cumulative_semantics(self):
        events = [
            UpdateEvent(0, "replace", "a"),
            UpdateEvent(0, "extend", "b c"),
            UpdateEvent(0, "replace", "d"),
        ]
        logs = run_session(events, dictionary_translator({}))
        assert [source for source, _ in logs[0].steps] == [
            ("a",),
            ("a", "b", "c"),
            ("d",),
        ]

    def test_interleaved_utterances_rejected(self):
        events = [
            UpdateEvent(0, "replace", "a"),
            UpdateEvent(1, "replace", "b"),
            UpdateEvent(0, "replace", "c"),
        ]
        with pytest.raises(EventOrderError):
            run_session(events, dictionary_translator({}))

    def test_translator_failure_reports_position(self):
        def broken(source):
            if len(source) > 1:
                raise RuntimeError("boom")
            return source

        events = [UpdateEvent(7, "replace", "a"), UpdateEvent(7, "extend", "b")]
        with pytest.raises(TranslatorError) as err:
            run_session(events, broken)
        assert err.value.utterance_id == 7
        assert err.value.step == 1

    def test_replay_is_deterministic(self):
        translator = scripted_translator(EXAMPLE_SCRIPT)
        assert run_session(EXAMPLE_EVENTS, translator) == run_session(
            EXAMPLE_EVENTS, translator
        )

    def test_empty_event_list(self):
        assert run_session([], dictionary_translator({})) == []

    def test_peak_grows_by_the_steps_alone(self, traced_peak):
        # Each event's step holds its source and its translation: sources of 2,
        # 5, 6 and 8 tokens peaked at 288-305 B an event on Python 3.10-3.13.
        steps = [("replace", "a b"), ("extend", "c d e"), ("extend", "f"), ("extend", "g h")]
        translate = dictionary_translator({"a": "x"})
        peaks = []
        for n in (250, 1_000):
            events = [UpdateEvent(u, kind, text) for u in range(n) for kind, text in steps]
            peaks.append(traced_peak(lambda: run_session(events, translate)))
        assert peaks[1] - peaks[0] < 400 * 750 * len(steps)


class TestTranslators:
    def test_dictionary_lookup_with_copy_through(self):
        translate = dictionary_translator({"I": "yo"})
        assert translate(("I", "you")) == ("yo", "you")

    def test_empty_lexicon_is_identity(self):
        translate = dictionary_translator({})
        assert translate(("a", "b")) == ("a", "b")

    def test_scripted_replay_baseline_column(self):
        script = load_tsv_map(
            ["now, I should\tahora debería , debería , debería ."], what="script"
        )
        translate = scripted_translator(script)
        assert translate(("now,", "I", "should")) == (
            "ahora",
            "debería",
            ",",
            "debería",
            ",",
            "debería",
            ".",
        )

    def test_scripted_replay_multitask_column(self):
        translate = scripted_translator({"now, I should": "ahora debería"})
        assert translate(("now,", "I", "should")) == ("ahora", "debería")

    def test_scripted_fallback_is_identity(self):
        translate = scripted_translator({"a": "b"})
        assert translate(("hello",)) == ("hello",)


class TestCommandTranslator:
    def test_cat_behaves_as_identity(self):
        with CommandTranslator([sys.executable, "-u", "-c", _ECHO_CHILD]) as translate:
            assert list(translate.stream([("a", "b"), ("c",)])) == [("a", "b"), ("c",)]

    def test_line_protocol_transform(self):
        with CommandTranslator(
            [sys.executable, "-u", "-c", _UPPER_CHILD], timeout=10
        ) as translate:
            assert list(translate.stream([("ab", "cd")])) == [("AB", "CD")]

    def test_timeout_raises(self):
        with CommandTranslator(
            [sys.executable, "-u", "-c", _SILENT_CHILD], timeout=0.3
        ) as translate:
            with pytest.raises(TimeoutError, match="no output within 0.3s"):
                list(translate.stream([("a",)]))

    def test_timeout_poisons_later_calls(self):
        # The child answers its first source late, then echoes at once; the
        # late reply must never be returned, by this stream or another.
        with CommandTranslator(
            [sys.executable, "-u", "-c", _LATE_FIRST_CHILD], timeout=0.2
        ) as translate:
            replies = translate.stream([("a",), ("b",)])
            with pytest.raises(TimeoutError, match="no output within 0.2s"):
                next(replies)
            time.sleep(0.8)
            assert list(replies) == []
            start = time.monotonic()
            with pytest.raises(RuntimeError, match="served its one stream"):
                translate.stream([("c",)])
            assert time.monotonic() - start < 1

    def test_dead_process_raises(self):
        with CommandTranslator(
            [sys.executable, "-c", "pass"], timeout=5
        ) as translate:
            with pytest.raises(RuntimeError, match="closed its output"):
                list(translate.stream([("a",)]))

    def test_shell_style_command_string(self):
        with CommandTranslator(
            f"{sys.executable} -u -c '{_ECHO_CHILD}'", timeout=10
        ) as translate:
            assert list(translate.stream([("x",)])) == [("x",)]

    def test_lone_carriage_return_stays_inside_the_reply(self):
        with CommandTranslator(
            [sys.executable, "-u", "-c", _CR_INSIDE_CHILD], timeout=10
        ) as translate:
            assert list(translate.stream([("x",), ("y",)])) == [("A", "B", "x"), ("A", "B", "y")]

    def test_crlf_replies(self):
        with CommandTranslator(
            [sys.executable, "-u", "-c", _CRLF_CHILD], timeout=10
        ) as translate:
            assert list(translate.stream([("x",), ("y", "z")])) == [("x",), ("y", "z")]

    def test_invalid_utf8_raises_at_once(self):
        with CommandTranslator(
            [sys.executable, "-u", "-c", _BAD_UTF8_CHILD], timeout=10
        ) as translate:
            start = time.monotonic()
            with pytest.raises(UnicodeDecodeError):
                list(translate.stream([("x",), ("y",)]))
            assert time.monotonic() - start < 5

    def test_extra_line_poisons_later_calls(self):
        # The reply and the extra line arrive in one flush; every later reply
        # is shifted by one, so the last runs past the end of the session.
        events = [UpdateEvent(0, "replace", "a"), UpdateEvent(0, "extend", "b")]
        with CommandTranslator(
            [sys.executable, "-u", "-c", _EXTRA_LINE_CHILD], timeout=10
        ) as translate:
            with pytest.raises(TranslatorError, match="ran past the last reply") as err:
                run_session(events, translate)
            assert (err.value.utterance_id, err.value.step) == (0, 1)
            assert repr(b"a b\n") in str(err.value)
            with pytest.raises(RuntimeError, match="served its one stream"):
                translate.stream([("c",)])

    def test_close_returns_while_a_grandchild_holds_the_pipe(self, tmp_path):
        pid_file = tmp_path / "grandchild.pid"
        translate = CommandTranslator(
            [sys.executable, "-u", "-c", _GRANDCHILD_CHILD, str(pid_file)], timeout=10
        )
        try:
            start = time.monotonic()
            assert list(translate.stream([("a",)])) == [("a",)]
            translate.close()
            assert time.monotonic() - start < 5
        finally:
            os.kill(int(pid_file.read_text()), signal.SIGKILL)
        assert translate._proc.stdin.closed and translate._proc.stdout.closed

    def test_run_session_wraps_failures(self):
        with CommandTranslator(
            [sys.executable, "-u", "-c", _SILENT_CHILD], timeout=0.3
        ) as translate:
            with pytest.raises(TranslatorError):
                run_session([UpdateEvent(0, "replace", "a")], translate)

    def test_stream_failure_names_the_step_that_failed(self):
        events = [UpdateEvent(4, "replace", "a"), UpdateEvent(5, "replace", "b"),
                  UpdateEvent(5, "extend", "c"), UpdateEvent(5, "extend", "d")]
        with CommandTranslator(
            [sys.executable, "-u", "-c", _BAD_THIRD_REPLY_CHILD], timeout=10
        ) as translate:
            with pytest.raises(TranslatorError) as err:
                run_session(events, translate)
            assert isinstance(err.value.__cause__, UnicodeDecodeError)
            assert (err.value.utterance_id, err.value.step) == (5, 1)
            with pytest.raises(RuntimeError, match="served its one stream"):
                translate.stream([("e",)])

    def test_event_order_is_checked_before_any_translation(self):
        calls = []
        events = [UpdateEvent(0, "replace", "a"), UpdateEvent(1, "replace", "b"),
                  UpdateEvent(0, "extend", "c")]
        with pytest.raises(EventOrderError):
            run_session(events, lambda source: calls.append(source) or source)
        assert calls == []

    def test_close_closes_every_pipe(self):
        translate = CommandTranslator([sys.executable, "-u", "-c", _ECHO_CHILD], timeout=10)
        assert run_session([UpdateEvent(0, "replace", "a")], translate)[0].steps == (
            (("a",), ("a",)),
        )
        translate.close()
        proc = translate._proc
        assert proc.stdin.closed and proc.stdout.closed and proc.stderr.closed
        assert proc.returncode is not None


def _crc_rule(line):
    """Deterministic like perfbench/translator.py: the reply depends on a CRC of
    the whole line, so a shifted or dropped reply changes the logs."""
    import zlib

    words = line.split()
    h = zlib.crc32(line.encode())
    if h % 3 == 0:
        words.append(str(h % 97))
    elif h % 3 == 1 and len(words) > 1:
        words[-2], words[-1] = words[-1], words[-2]
    return " ".join(words)


# The child runs the same definition of the rule as the in-process oracle.
_CRC_CHILD = (
    inspect.getsource(_crc_rule)
    + "import sys\nfor line in sys.stdin: print(_crc_rule(line), flush=True)"
)

grouped_events_st = st.lists(
    st.tuples(
        st.lists(st.sampled_from(["a", "b", "cd", "é"]), min_size=1, max_size=3),
        st.lists(
            st.tuples(st.sampled_from(["replace", "extend"]),
                      st.lists(st.sampled_from(["a", "b", "cd", "é"]), min_size=1, max_size=3)),
            max_size=4,
        ),
    ),
    min_size=1,
    max_size=4,
).map(
    lambda utterances: [
        UpdateEvent(u, kind, " ".join(words))
        for u, (first, rest) in enumerate(utterances)
        for kind, words in [("replace", first), *rest]
    ]
)


@given(grouped_events_st)
@settings(max_examples=15, deadline=None)
def test_stream_matches_the_rule_run_in_process(events):
    with CommandTranslator([sys.executable, "-u", "-c", _CRC_CHILD], timeout=10) as child:
        logs = run_session(events, child)
    # run_session maps a plain function over the sources, one at a time.
    assert run_session(events, lambda s: tokenize(_crc_rule(detokenize(s) + "\n"))) == logs
    assert [len(log.steps) for log in logs] == [
        sum(1 for e in events if e.utterance_id == log.utterance_id) for log in logs
    ]


_ECHO_CHILD = "import sys\nfor line in sys.stdin: print(line.rstrip())"
_UPPER_CHILD = "import sys\nfor line in sys.stdin: print(line.rstrip().upper())"
_SILENT_CHILD = "import time\ntime.sleep(60)"
_LATE_FIRST_CHILD = (
    "import sys, time\n"
    "for k, line in enumerate(sys.stdin):\n"
    "    time.sleep(0.5 if k == 0 else 0)\n"
    "    print(line.rstrip())"
)
_CR_INSIDE_CHILD = (
    "import sys\n"
    "for line in sys.stdin.buffer:\n"
    "    sys.stdout.buffer.write(b'A\\rB ' + line)\n"
    "    sys.stdout.buffer.flush()"
)
_CRLF_CHILD = (
    "import sys\n"
    "for line in sys.stdin.buffer:\n"
    "    sys.stdout.buffer.write(line.rstrip(b'\\n') + b'\\r\\n')\n"
    "    sys.stdout.buffer.flush()"
)
_BAD_UTF8_CHILD = (
    "import sys\n"
    "for line in sys.stdin.buffer:\n"
    "    sys.stdout.buffer.write(b'\\xff ' + line)\n"
    "    sys.stdout.buffer.flush()"
)
_GRANDCHILD_CHILD = (
    "import subprocess, sys\n"
    "sleeper = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])\n"
    "with open(sys.argv[1], 'w') as f: f.write(str(sleeper.pid))\n"
    "for line in sys.stdin: print(line.rstrip())"
)
_BAD_THIRD_REPLY_CHILD = (
    "import sys\n"
    "for k, line in enumerate(sys.stdin.buffer):\n"
    "    sys.stdout.buffer.write((b'\\xff ' if k == 2 else b'') + line)\n"
    "    sys.stdout.buffer.flush()"
)
_EXTRA_LINE_CHILD = (
    "import sys\n"
    "for k, line in enumerate(sys.stdin):\n"
    "    sys.stdout.write(line + ('EXTRA\\n' if k == 0 else ''))\n"
    "    sys.stdout.flush()"
)


class TestEvaluateSessions:
    def test_worked_example_composed(self):
        logs = run_session(EXAMPLE_EVENTS, scripted_translator(EXAMPLE_SCRIPT))
        report = evaluate_sessions(logs, [tokenize("yo animo a todos ustedes")])
        assert report.bleu == 1.0
        assert report.words_updated == 3
        assert report.messages_updated == 1
        assert report.updates_total == 2

    def test_monotone_logs_report_zero_updates(self):
        events = [
            UpdateEvent(0, "replace", "a"),
            UpdateEvent(0, "extend", "b"),
            UpdateEvent(1, "replace", "c d"),
        ]
        logs = run_session(events, dictionary_translator({}))
        report = evaluate_sessions(logs, [tokenize("a b"), tokenize("c d")])
        assert report.words_updated == 0
        assert report.messages_updated == 0
        assert report.bleu == 1.0

    def test_empty_logs_rejected(self):
        with pytest.raises(ValueError):
            evaluate_sessions([], [tokenize("a")])

    def test_without_references_counts_only(self):
        logs = run_session(EXAMPLE_EVENTS, scripted_translator(EXAMPLE_SCRIPT))
        report = evaluate_sessions(logs)
        assert (report.words_updated, report.messages_updated, report.updates_total) == (3, 1, 2)
        assert report.bleu is None
        assert evaluate_sessions([]) == evaluate_sessions([], None)
        assert evaluate_sessions([]).lines() == ["word_up: 0", "mssg_up: 0", "updates_total: 0"]

    def test_bleu_invariant_to_simulator_segmentation(self):
        refs = [tokenize("yo animo"), tokenize("a todos ustedes")]
        split_logs = [
            SessionLog(0, ((("x",), tokenize("yo animo a")),)),
            SessionLog(1, ((("y",), tokenize("todos ustedes")),)),
        ]
        merged_logs = [
            SessionLog(0, ((("x",), tokenize("yo animo a todos ustedes")),))
        ]
        split = evaluate_sessions(split_logs, refs)
        merged = evaluate_sessions(merged_logs, refs)
        assert split.bleu == merged.bleu == 1.0


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_prefix_stable_translator_never_corrects(data):
    vocab = ["uno", "dos", "tres", "cuatro"]
    lexicon = {"a": "x", "b": "y", "c": "z"}
    translate = dictionary_translator(lexicon)
    n_utterances = data.draw(st.integers(1, 4))
    events = []
    for utt in range(n_utterances):
        first = data.draw(st.lists(st.sampled_from(list(lexicon) + vocab), min_size=1, max_size=3))
        events.append(UpdateEvent(utt, "replace", " ".join(first)))
        for _ in range(data.draw(st.integers(0, 4))):
            more = data.draw(st.lists(st.sampled_from(list(lexicon) + vocab), min_size=1, max_size=3))
            events.append(UpdateEvent(utt, "extend", " ".join(more)))
    logs = run_session(events, translate)
    for log in logs:
        for prev, new in zip(log.translations, log.translations[1:]):
            assert new[: len(prev)] == prev
    totals = evaluate_sessions(logs, [("uno",)])
    assert totals.words_updated == 0
    assert totals.messages_updated == 0


class TestEventIO:
    def test_round_trip(self):
        events = [
            UpdateEvent(0, "replace", "a b"),
            UpdateEvent(0, "extend", "c"),
            UpdateEvent(1, "replace", "dí"),
        ]
        assert read_events(event_lines(events)) == events

    def test_blank_lines_skipped(self):
        lines = ['{"utterance_id": 0, "kind": "replace", "text": "a"}', "", "  "]
        assert len(read_events(lines)) == 1

    @pytest.mark.parametrize(
        "line",
        [
            "not json",
            "[1, 2]",
            '{"utterance_id": "x", "kind": "replace", "text": "a"}',
            '{"utterance_id": 0, "kind": "restart", "text": "a"}',
            '{"utterance_id": 0, "kind": "replace"}',
            '{"utterance_id": true, "kind": "replace", "text": "a"}',
        ],
    )
    def test_malformed_events_rejected(self, line):
        with pytest.raises(EventParseError):
            read_events([line])

    def test_tsv_map_rejects_missing_tab(self):
        with pytest.raises(DataError):
            load_tsv_map(["no tab here"], what="lexicon")

    def test_tsv_map_skips_blank_lines(self):
        mapping = load_tsv_map(["a\tb", ""], what="lexicon")
        assert mapping == {"a": "b"}
