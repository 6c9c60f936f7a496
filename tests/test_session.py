from __future__ import annotations

import inspect
import json
import os
import re
import signal
import sys
import time
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retrans.corpus import detokenize, tokenize
from retrans.errors import DataError, NoOpEventWarning, TranslatorError
from retrans.session import (
    CommandTranslator,
    SessionLog,
    UpdateEvent,
    apply_event,
    dictionary_translator,
    evaluate_sessions,
    load_tsv_map,
    log_lines,
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

    def test_a_blank_extend_keeps_the_state_and_says_nothing(self):
        # read_events reports a blank extend at its line; the fold and the replay are silent.
        events = [UpdateEvent(0, "replace", "a b"), UpdateEvent(0, "extend", "  ")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert apply_event(("a", "b"), events[1]) == ("a", "b")
            [log] = run_session(events, lambda sources: sources)
        assert [source for source, _ in log.steps] == [("a", "b"), ("a", "b")]

    def test_empty_replace_is_an_error(self):
        # Refused when the event is built, so apply_event and run_session never see one.
        with pytest.raises(ValueError, match="^replace event for utterance 0 has no tokens$"):
            UpdateEvent(0, "replace", "")

    def test_bad_kind_rejected_on_construction(self):
        with pytest.raises(ValueError, match="^bad kind or text$"):
            UpdateEvent(0, "restart", "x")

    @pytest.mark.parametrize(
        "args, message",
        [
            ((7, "replace", "  "), "replace event for utterance 7 has no tokens"),
            ((True, "extend", "a"), "utterance_id must be an integer"),
            (("7", "extend", "a"), "utterance_id must be an integer"),
            ((0, "extend", None), "bad kind or text"),
            ((None, "restart", None), "utterance_id must be an integer"),  # the first rule wins
        ],
    )
    def test_every_event_rule_is_checked_on_construction(self, args, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            UpdateEvent(*args)


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
        with pytest.raises(DataError, match="^utterance 0 reappears after other events$"):
            run_session(events, dictionary_translator({}))

    def test_translator_failure_reports_position(self):
        def broken(source):
            if len(source) > 1:
                raise RuntimeError("boom")
            return source

        events = [UpdateEvent(7, "replace", "a"), UpdateEvent(7, "extend", "b")]
        with pytest.raises(TranslatorError) as err:
            run_session(events, lambda sources: map(broken, sources))
        assert err.value.utterance_id == 7
        assert err.value.step == 1

    @pytest.mark.parametrize("drop, step", [(1, 2), (3, 0)])
    def test_too_few_translations_fail_the_first_step_without_one(self, drop, step):
        with pytest.raises(TranslatorError, match="shorter") as err:
            run_session(EXAMPLE_EVENTS, lambda sources: sources[drop:])
        assert (err.value.utterance_id, err.value.step) == (0, step)

    def test_an_extra_translation_fails_the_last_step(self):
        events = [*EXAMPLE_EVENTS, UpdateEvent(1, "replace", "a")]
        with pytest.raises(TranslatorError, match="longer") as err:
            run_session(events, lambda sources: [*sources, ("x",)])
        assert (err.value.utterance_id, err.value.step) == (1, 0)

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
        assert list(translate([("I", "you"), ("I",)])) == [("yo", "you"), ("yo",)]

    def test_empty_lexicon_is_identity(self):
        translate = dictionary_translator({})
        assert list(translate([("a", "b")])) == [("a", "b")]

    @pytest.mark.parametrize("key, value", [("a", "b c"), ("a", ""), ("a b", "c"), (" a", "b")])
    def test_a_lexicon_entry_that_is_not_one_token_a_side_is_refused(self, key, value):
        with pytest.raises(ValueError) as err:
            dictionary_translator({"x": "y", key: value})
        assert str(err.value) == f"lexicon entry {key!r} -> {value!r} is not word-to-word"

    def test_scripted_replay_baseline_column(self):
        script = load_tsv_map(
            ["now, I should\tahora debería , debería , debería ."], what="script"
        )
        translate = scripted_translator(script)
        assert list(translate([("now,", "I", "should")])) == [
            ("ahora", "debería", ",", "debería", ",", "debería", "."),
        ]

    def test_scripted_replay_multitask_column(self):
        translate = scripted_translator({"now, I should": "ahora debería"})
        assert list(translate([("now,", "I", "should")])) == [("ahora", "debería")]

    def test_a_blank_scripted_translation_replays_empty(self):
        assert list(scripted_translator({"a": ""})([("a",)])) == [()]

    def test_scripted_fallback_is_identity(self):
        translate = scripted_translator({"a": "b"})
        assert list(translate([("hello",)])) == [("hello",)]

    @pytest.mark.parametrize("make", [dictionary_translator, scripted_translator])
    def test_a_failing_lookup_is_charged_to_its_own_step(self, make):
        class Table(dict):
            def get(self, key, default=None):
                if "b" in key:
                    raise LookupError("no entry for b")
                return default

        events = [UpdateEvent(2, "replace", "a"), UpdateEvent(2, "extend", "b")]
        with pytest.raises(TranslatorError, match="no entry for b") as err:
            run_session(events, make(Table()))
        assert (err.value.utterance_id, err.value.step) == (2, 1)


def _pid_child(pid_file) -> list[str]:
    """An echo child that first writes its pid to pid_file."""
    code = f"import os\nopen({str(pid_file)!r}, 'w').write(str(os.getpid()))\n" + _ECHO_CHILD
    return [sys.executable, "-u", "-c", code]


def _open_fds() -> int:
    """How many file descriptors this process has open (Linux)."""
    return len(os.listdir("/proc/self/fd"))


class TestCommandTranslator:
    def test_cat_behaves_as_identity(self):
        translate = CommandTranslator([sys.executable, "-u", "-c", _ECHO_CHILD])
        assert list(translate([("a", "b"), ("c",)])) == [("a", "b"), ("c",)]

    def test_line_protocol_transform(self):
        translate = CommandTranslator([sys.executable, "-u", "-c", _UPPER_CHILD], timeout=10)
        assert list(translate([("ab", "cd")])) == [("AB", "CD")]

    @pytest.mark.parametrize("command", [[], "", "   "], ids=["empty-list", "empty", "blank"])
    def test_empty_command_raises(self, command):
        with pytest.raises(ValueError, match="command is empty"):
            CommandTranslator(command)

    @pytest.mark.parametrize("timeout", [float("nan"), float("inf"), 0, -1])
    def test_bad_timeout_raises_before_any_child_starts(self, tmp_path, timeout):
        pid_file = tmp_path / "child.pid"
        with pytest.raises(ValueError, match="timeout must be a finite number > 0"):
            list(CommandTranslator(_pid_child(pid_file), timeout)([("a",)]))
        assert not pid_file.exists()

    def test_child_starts_at_the_first_reply(self, tmp_path):
        pid_file = tmp_path / "child.pid"
        translate = CommandTranslator(_pid_child(pid_file), timeout=10)
        replies = translate([("a",)])
        time.sleep(0.5)
        assert not pid_file.exists()
        del replies  # replies never asked for have no child to end
        assert not pid_file.exists()

    def test_abandoned_stream_ends_its_child(self, tmp_path):
        pid_file = tmp_path / "child.pid"
        replies = CommandTranslator(_pid_child(pid_file), timeout=10)([("a",), ("b",)])
        assert next(replies) == ("a",)
        pid = int(pid_file.read_text(encoding="utf-8"))
        start = time.monotonic()
        del replies
        assert time.monotonic() - start < 5
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)

    def test_timeout_raises(self):
        translate = CommandTranslator([sys.executable, "-u", "-c", _SILENT_CHILD], timeout=0.3)
        with pytest.raises(TimeoutError, match="no output within 0.3s"):
            list(translate([("a",)]))

    def test_timeout_poisons_later_calls(self):
        # The child answers its first source late, then echoes at once; the
        # late reply must never be returned, by this call or another.
        translate = CommandTranslator(
            [sys.executable, "-u", "-c", _LATE_FIRST_CHILD], timeout=0.2
        )
        replies = translate([("a",), ("b",)])
        with pytest.raises(TimeoutError, match="no output within 0.2s"):
            next(replies)
        time.sleep(0.8)
        assert list(replies) == []
        # A second call runs a child of its own, which is late on its own first reply.
        with pytest.raises(TimeoutError, match="no output within 0.2s"):
            next(translate([("c",)]))

    def test_dead_process_raises(self):
        translate = CommandTranslator([sys.executable, "-c", "pass"], timeout=5)
        with pytest.raises(RuntimeError, match="closed its output"):
            list(translate([("a",)]))

    def test_a_child_that_closes_its_input_fails_the_first_step(self):
        # 200 KB of sources overfill the pipe, so a write meets the closed input:
        # the broken pipe is swallowed and the missing reply is what fails.
        events = [UpdateEvent(0, "replace", "x" * 2000) for _ in range(100)]
        translate = CommandTranslator([sys.executable, "-c", _CLOSED_INPUT_CHILD], timeout=10)
        with pytest.raises(TranslatorError, match="closed its output") as err:
            run_session(events, translate)
        assert (err.value.utterance_id, err.value.step) == (0, 0)
        assert str(err.value.__cause__) == "translator process closed its output"

    def test_shell_style_command_string(self):
        translate = CommandTranslator(f"{sys.executable} -u -c '{_ECHO_CHILD}'", timeout=10)
        assert list(translate([("x",)])) == [("x",)]

    def test_lone_carriage_return_stays_inside_the_reply(self):
        translate = CommandTranslator(
            [sys.executable, "-u", "-c", _CR_INSIDE_CHILD], timeout=10
        )
        assert list(translate([("x",), ("y",)])) == [("A", "B", "x"), ("A", "B", "y")]

    def test_crlf_replies(self):
        translate = CommandTranslator([sys.executable, "-u", "-c", _CRLF_CHILD], timeout=10)
        assert list(translate([("x",), ("y", "z")])) == [("x",), ("y", "z")]

    def test_invalid_utf8_raises_at_once(self):
        translate = CommandTranslator([sys.executable, "-u", "-c", _BAD_UTF8_CHILD], timeout=10)
        start = time.monotonic()
        with pytest.raises(UnicodeDecodeError):
            list(translate([("x",), ("y",)]))
        assert time.monotonic() - start < 5

    def test_extra_line_poisons_later_calls(self):
        # The reply and the extra line arrive in one flush; every later reply
        # is shifted by one, so the last runs past the end of the session.
        events = [UpdateEvent(0, "replace", "a"), UpdateEvent(0, "extend", "b")]
        translate = CommandTranslator(
            [sys.executable, "-u", "-c", _EXTRA_LINE_CHILD], timeout=10
        )
        with pytest.raises(TranslatorError, match="ran past the last reply") as err:
            run_session(events, translate)
        assert (err.value.utterance_id, err.value.step) == (0, 1)
        assert repr(b"a b\n") in str(err.value)
        # A second call runs a child of its own, which answers its own first source.
        assert next(translate([("c",)])) == ("c",)

    def test_stream_end_returns_while_a_grandchild_holds_the_pipe(self, tmp_path):
        pid_file = tmp_path / "pids"
        translate = CommandTranslator(
            [sys.executable, "-u", "-c", _GRANDCHILD_CHILD, str(pid_file)], timeout=10
        )
        fds = _open_fds()
        try:
            start = time.monotonic()
            assert list(translate([("a",)])) == [("a",)]
            assert time.monotonic() - start < 5
        finally:
            child, grandchild = map(int, pid_file.read_text(encoding="utf-8").split())
            os.kill(grandchild, signal.SIGKILL)
        assert _open_fds() == fds
        with pytest.raises(ProcessLookupError):
            os.kill(child, 0)

    def test_run_session_wraps_failures(self):
        translate = CommandTranslator([sys.executable, "-u", "-c", _SILENT_CHILD], timeout=0.3)
        with pytest.raises(TranslatorError):
            run_session([UpdateEvent(0, "replace", "a")], translate)

    def test_stream_failure_names_the_step_that_failed(self):
        events = [UpdateEvent(4, "replace", "a"), UpdateEvent(5, "replace", "b"),
                  UpdateEvent(5, "extend", "c"), UpdateEvent(5, "extend", "d")]
        translate = CommandTranslator(
            [sys.executable, "-u", "-c", _BAD_THIRD_REPLY_CHILD], timeout=10
        )
        with pytest.raises(TranslatorError) as err:
            run_session(events, translate)
        assert isinstance(err.value.__cause__, UnicodeDecodeError)
        assert (err.value.utterance_id, err.value.step) == (5, 1)
        # A second call runs a child of its own, whose third reply is the invalid one.
        assert list(translate([("e",)])) == [("e",)]

    def test_event_order_is_checked_before_any_translation(self):
        calls = []
        events = [UpdateEvent(0, "replace", "a"), UpdateEvent(1, "replace", "b"),
                  UpdateEvent(0, "extend", "c")]
        with pytest.raises(DataError, match="^utterance 0 reappears after other events$"):
            run_session(events, lambda sources: calls.append(sources) or sources)
        assert calls == []

    def test_stream_end_closes_every_pipe(self, tmp_path):
        pid_file = tmp_path / "child.pid"
        translate = CommandTranslator(_pid_child(pid_file), timeout=10)
        fds = _open_fds()
        start = time.monotonic()
        assert run_session([UpdateEvent(0, "replace", "a")], translate)[0].steps == (
            (("a",), ("a",)),
        )
        assert time.monotonic() - start < 5
        assert _open_fds() == fds  # the three pipes and the selector
        with pytest.raises(ProcessLookupError):  # reaped
            os.kill(int(pid_file.read_text(encoding="utf-8")), 0)


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
    child = CommandTranslator([sys.executable, "-u", "-c", _CRC_CHILD], timeout=10)
    logs = run_session(events, child)
    # The same rule run in-process, one source at a time.
    rule = lambda sources: (tokenize(_crc_rule(detokenize(s) + "\n")) for s in sources)  # noqa: E731
    assert run_session(events, rule) == logs
    assert [len(log.steps) for log in logs] == [
        sum(1 for e in events if e.utterance_id == log.utterance_id) for log in logs
    ]


def _plan_reply(line, k):
    """The plan child's reply to input line k: the line's words reversed, then "#k"."""
    return " ".join([*reversed(line.split()), f"#{k}"])


def _step_bytes(reply, step):
    """The plan child's output for one reply: the text, with 0xff before character
    step["bad"] if that is set, the line end, then an extra line if step["extra"]."""
    data = reply.encode()
    if step["bad"] is not None:
        at = len(reply[: step["bad"]].encode())
        data = data[:at] + b"\xff" + data[at:]
    return data + step["end"].encode() + (b"EXTRA\n" if step["extra"] else b"")


# A child that follows a plan (argv[1], JSON): each reply is written in pieces,
# each piece after its stderr text and its pause. "stop" ends the child before
# reply "at" (len(steps): after the last): exit, hang, or close stdout and hang.
# It exits quietly right after an invalid reply, and with "status" at the end.
_PLAN_CHILD = inspect.getsource(_plan_reply) + inspect.getsource(_step_bytes) + """
import json, os, sys, time
plan = json.loads(sys.argv[1])
steps, stop = plan["steps"], plan["stop"]
for k in range(len(steps) + 1):
    if stop["at"] == k:
        os.write(2, stop["err"].encode())
        if stop["how"] == "exit":
            sys.exit(3)
        if stop["how"] == "close":
            os.close(1)
        time.sleep(60)
    if k == len(steps):
        break
    data = _step_bytes(_plan_reply(sys.stdin.buffer.readline().decode(), k), steps[k])
    start = 0
    for cut, pause, err in steps[k]["pieces"]:
        os.write(2, err.encode())
        time.sleep(pause)
        os.write(1, data[start:cut])
        start = cut
    if steps[k]["bad"] is not None:
        sys.exit(0)
sys.exit(plan["status"])
"""

_stderr_st = st.sampled_from(["", "", "", "log é\n", "w"])


@pytest.mark.parametrize("fault", [None, "exit", "close", "hang", "hang-after-last", "invalid", "extra"])
@given(events=grouped_events_st, data=st.data())
@settings(max_examples=3, derandomize=True, database=None, deadline=None)
def test_command_protocol_matches_its_model(fault, events, data):
    """A child that follows a generated plan gives what a pure model of the protocol predicts.

    Replies come in random pieces (inside a multi-byte character, between "\r"
    and "\n"), after pauses below the timeout and stderr writes, with at most
    one fault. The model gives the translations, or the TranslatorError's
    utterance, step and message with the stderr tail; an exit status is not read.
    """
    logs = run_session(events, lambda source: source)
    sources = [source for log in logs for source, _ in log.steps]
    positions = [(log.utterance_id, k) for log in logs for k in range(len(log.steps))]
    n = len(sources)
    at = n if fault == "hang-after-last" else data.draw(st.integers(0, n - 1))
    fault = "hang" if fault == "hang-after-last" else fault
    steps, outputs = [], []
    for k, source in enumerate(sources):
        reply = _plan_reply(detokenize(source), k)
        step = {
            "bad": data.draw(st.integers(0, len(reply))) if (fault, at) == ("invalid", k) else None,
            "extra": (fault, at) == ("extra", k),
            "end": data.draw(st.sampled_from(["\n", "\r\n"])),
        }
        outputs.append(_step_bytes(reply, step))
        cuts = sorted(data.draw(st.sets(st.integers(1, len(outputs[-1]) - 1), max_size=3)))
        pause_st = st.sampled_from([0, 0, 0.002])
        step["pieces"] = [[cut, data.draw(pause_st), data.draw(_stderr_st)] for cut in [*cuts, None]]
        steps.append(step)
    stops = fault in ("exit", "hang", "close")
    stop = {"at": at if stops else None, "how": fault, "err": data.draw(_stderr_st) if stops else ""}
    plan = {"steps": steps, "stop": stop, "status": data.draw(st.sampled_from([0, 3]))}
    timeout = 0.3 if fault == "hang" else 10.0

    # The model: stderr before the fault, the message, and the position charged.
    errs = ["".join(err for _, _, err in step["pieces"]) for step in steps]
    if fault in ("exit", "close", "hang") and at < n:
        stderr, charged = "".join(errs[:at]) + stop["err"], at
        message = "translator process closed its output"
        if fault == "hang":
            message = f"translator produced no output within {timeout}s"
    elif fault == "hang":
        stderr, charged = "".join(errs) + stop["err"], n - 1
        message = f"translator output did not end within {timeout}s of its input closing"
    elif fault == "invalid":
        stderr, charged = "".join(errs[: at + 1]), at
        position = outputs[at].index(b"\xff")
        message = f"'utf-8' codec can't decode byte 0xff in position {position}: invalid start byte"
    elif fault == "extra":
        # The extra line shifts every later reply by one; line n is left over.
        leftover = b"".join(outputs).split(b"\n")[n] + b"\n"
        stderr, charged = "".join(errs), n - 1
        message = f"translator output ran past the last reply: {leftover[:80]!r}"

    child = CommandTranslator(
        [sys.executable, "-I", "-S", "-c", _PLAN_CHILD, json.dumps(plan)], timeout=timeout
    )
    if fault is None:
        got = [translation for log in run_session(events, child) for _, translation in log.steps]
        assert got == [(*reversed(source), f"#{k}") for k, source in enumerate(sources)]
        return
    with pytest.raises(TranslatorError) as err:
        run_session(events, child)
    tail = stderr.encode()[-2048:].decode("utf-8", "replace")
    u, step = positions[charged]
    detail = message + (f"; its stderr ends {tail!r}" if tail else "")
    assert (err.value.utterance_id, err.value.step) == (u, step)
    assert str(err.value) == f"translator failed on utterance {u}, step {step}: {detail}"


_ECHO_CHILD = "import sys\nfor line in sys.stdin: print(line.rstrip())"
_UPPER_CHILD = "import sys\nfor line in sys.stdin: print(line.rstrip().upper())"
_SILENT_CHILD = "import time\ntime.sleep(60)"
_CLOSED_INPUT_CHILD = "import os, time; os.close(0); time.sleep(0.3)"
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
    "import os, subprocess, sys\n"
    "sleeper = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])\n"
    "with open(sys.argv[1], 'w') as f: f.write(f'{os.getpid()} {sleeper.pid}')\n"
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


def test_log_lines_are_one_json_object_per_step():
    logs = [
        SessionLog(3, ((("a",), ()), (("a", "b"), ("é", "\u2028")))),
        SessionLog(0, ()),
        SessionLog(1, ((("c",), ("z",)),)),
    ]
    assert list(log_lines(logs)) == [
        '{"utterance_id": 3, "step": 0, "source": "a", "translation": ""}',
        '{"utterance_id": 3, "step": 1, "source": "a b", "translation": "é \u2028"}',
        '{"utterance_id": 1, "step": 0, "source": "c", "translation": "z"}',
    ]


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

    @pytest.mark.parametrize("logs", [[], [SessionLog(0, ())]], ids=["no-logs", "no-steps"])
    def test_nothing_displayed_scores_zero(self, logs):
        # SessionLog.final_translation of a log without steps is empty, as is the stream.
        assert evaluate_sessions(logs).lines() == ["word_up: 0", "mssg_up: 0", "updates_total: 0"]
        report = evaluate_sessions(logs, [tokenize("a")])
        assert (report.words_updated, report.messages_updated, report.updates_total) == (0, 0, 0)
        assert report.bleu == 0.0

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


# Each malformed event line, and the refusal after its "events line 1: ".
MALFORMED_EVENTS = {
    "not json": "invalid JSON: Expecting value: line 1 column 1 (char 0)",
    "[1, 2]": "expected an object",
    '{"utterance_id": "x", "kind": "replace", "text": "a"}': "utterance_id must be an integer",
    '{"utterance_id": 0, "kind": "restart", "text": "a"}': "bad kind or text",
    '{"utterance_id": 0, "kind": "replace"}': "missing key 'text'",
    '{"utterance_id": true, "kind": "replace", "text": "a"}': "utterance_id must be an integer",
}


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

    def test_a_blank_extend_is_kept_and_warned_at_its_line(self):
        lines = ['{"utterance_id": 0, "kind": "replace", "text": "a"}', "",
                 '{"utterance_id": 0, "kind": "extend", "text": "\\t"}']
        with pytest.warns(NoOpEventWarning) as record:
            events = read_events(lines, what="e.jsonl")
        assert events[1] == UpdateEvent(0, "extend", "\t")
        assert [(w.filename, w.lineno, str(w.message)) for w in record] == [
            ("e.jsonl", 3, "extend event with empty text on utterance 0")
        ]

    @pytest.mark.parametrize("line", list(MALFORMED_EVENTS))
    def test_malformed_events_rejected(self, line):
        with pytest.raises(DataError, match=f"^events line 1: {re.escape(MALFORMED_EVENTS[line])}$"):
            read_events([line])

    def test_tsv_map_rejects_missing_tab(self):
        with pytest.raises(DataError):
            load_tsv_map(["no tab here"], what="lexicon")

    def test_tsv_map_rejects_a_key_that_normalises_to_an_earlier_one(self):
        lines = ["i encourage\tyo animo", "", "x\ty", "i  encourage\tyo"]
        message = "^lexicon line 4: duplicate source 'i encourage' \\(first on line 1\\)$"
        with pytest.raises(DataError, match=message):
            load_tsv_map(lines, what="lexicon")

    def test_tsv_map_loads_a_blank_target_column_as_empty(self):
        assert load_tsv_map(["a\t"], what="t") == {"a": ""}

    def test_tsv_map_skips_blank_lines(self):
        mapping = load_tsv_map(["a\tb", ""], what="lexicon")
        assert mapping == {"a": "b"}
