from __future__ import annotations

import ast
import builtins
import importlib
import inspect
from pathlib import Path

import pytest

import retrans

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"

# The public names as of release 0.1.0, less the retired SessionReport,
# identity_translator, read_alignment_line, subsample, Alignment (a pair's
# alignment is its set of 1-based links), PartialPair and PartialCorpus (a
# prefix row is a SentencePair), Method (a prefix rule is its name, "ratio" or
# "alignment"), and with the two prefix rules' one-position
# functions replaced by the every-i ratio_prefix_lens and alignment_prefix_lens.
EXPORTED = {
    "CommandTranslator",
    "CorrectionReport",
    "MixManifest",
    "NULL",
    "ParallelCorpus",
    "SentencePair",
    "SessionLog",
    "Tokens",
    "TranslationTable",
    "Translator",
    "UpdateEvent",
    "align_corpus",
    "alignment_prefix_lens",
    "apply_event",
    "bleu",
    "corrected_words",
    "correction_report",
    "detokenize",
    "dictionary_translator",
    "edit_distance",
    "evaluate_sessions",
    "format_alignment",
    "generate_partial",
    "gleu",
    "log_likelihood",
    "mean_gleu",
    "mix",
    "ratio_prefix_lens",
    "read_alignments",
    "read_events",
    "read_parallel",
    "resegment",
    "run_session",
    "scripted_translator",
    "tokenize",
    "train_model1",
    "viterbi_align",
    "wer",
}


def test_exported_names_are_pinned():
    assert retrans.__all__ == sorted(EXPORTED)


def test_each_name_is_its_home_module_object():
    for name in retrans.__all__:
        home = importlib.import_module(f"retrans.{retrans._HOME[name]}")
        assert getattr(retrans, name) is getattr(home, name), name


def test_every_traced_name_is_a_callable_of_retrans():
    # perfbench/tracing.py rebinds (module, attribute) pairs listed in TARGETS,
    # and their name functions and counters read the call's arguments as
    # b["parameter"]; read from its source, as the tracer is not imported by the tests.
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    targets = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]
    )
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    read = set()
    assert targets.elts
    for entry in targets.elts:
        module, attr = (node.value for node in entry.elts[:2])
        target = getattr(importlib.import_module(f"retrans.{module}"), attr, None)
        assert callable(target), f"retrans.{module}.{attr}"
        parameters = inspect.signature(target).parameters
        for reader in entry.elts[2:]:
            reader = functions.get(getattr(reader, "id", None), reader)
            if not isinstance(reader, (ast.Lambda, ast.FunctionDef)):
                continue  # a fixed span name, or no counter
            bound = reader.args.args[0].arg
            keys = {
                node.slice.value for node in ast.walk(reader)
                if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == bound
            }
            assert keys <= parameters.keys(), f"retrans.{module}.{attr} lacks {keys - parameters.keys()}"
            read |= keys
    assert {"method", "partial", "argv"} <= read


def test_the_traced_translator_call_is_the_translators_own():
    # perfbench/tracing.py wraps CommandTranslator.__call__ as session.translator,
    # so the class must define the call itself; inherited, it would be type.__call__.
    from retrans.session import CommandTranslator

    assert "CommandTranslator.__call__" in TRACING.read_text(encoding="utf-8")
    assert "__call__" in vars(CommandTranslator)
    assert "sources" in inspect.signature(CommandTranslator.__call__).parameters


def test_each_exit_path_has_one_exception_type():
    # Every data fault is a DataError whose message says what went wrong, so a
    # new exception or warning class, per raise site or otherwise, shows up here.
    bases = {
        f"{path.stem}.{node.name}": [ast.unparse(base).rsplit(".", 1)[-1] for base in node.bases]
        for path in (ROOT / "src" / "retrans").glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
    }
    by_name = {name.rsplit(".", 1)[1]: names for name, names in bases.items()}

    def is_exception(name: str) -> bool:
        found = getattr(builtins, name, None)
        if isinstance(found, type):
            return issubclass(found, BaseException)
        return any(map(is_exception, by_name.get(name, ())))

    exceptions = {name for name, names in bases.items() if any(map(is_exception, names))}
    assert exceptions == {
        "errors.DataError", "errors.TranslatorError", "errors.NoOpEventWarning", "cli.UsageError"
    }


def test_only_corpus_opens_a_file():
    # Every input is read by corpus._line_blocks and every output written by
    # corpus.write_files, so a command cannot write a file some other way.
    opened = set()

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{where}.{child.name}"
            if isinstance(child, ast.Call):
                name = getattr(child.func, "id", None) or getattr(child.func, "attr", None)
                if name in {"open", "fdopen", "read_text", "read_bytes", "write_text", "write_bytes"}:
                    opened.add(f"{inner}: {name}")
            visit(child, inner)

    for path in (ROOT / "src" / "retrans").glob("*.py"):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert opened == {"corpus._line_blocks: open", "corpus.write_files: open"}


def test_every_cli_write_is_inside_an_outputs_block():
    # cli._outputs stages each output and commits or deletes it, so a write outside
    # `with _outputs(...)` would escape the rule that a failed run leaves nothing.
    stray = []

    def visit(node: ast.AST, guarded: bool, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner, guard = where, guarded
            if isinstance(child, ast.FunctionDef):
                inner = child.name
            if isinstance(child, ast.With):
                guard |= any(
                    isinstance(item.context_expr, ast.Call)
                    and getattr(item.context_expr.func, "id", None) == "_outputs"
                    for item in child.items
                )
            if isinstance(child, ast.Call) and getattr(child.func, "attr", None) in {
                "write_lines", "write_files"
            }:
                if not guard:
                    stray.append(f"{inner} line {child.lineno}")
            visit(child, guard, inner)

    visit(ast.parse((ROOT / "src" / "retrans" / "cli.py").read_text(encoding="utf-8")), False, "")
    assert [place.split()[0] for place in stray] == ["_outputs"], stray


def test_star_import_and_dir_list_every_name():
    namespace: dict = {}
    exec("from retrans import *", namespace)
    assert set(retrans.__all__) <= namespace.keys()
    assert set(retrans.__all__) <= set(dir(retrans))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'retrans' has no attribute 'no_such_name'"):
        retrans.no_such_name  # noqa: B018
    with pytest.raises(AttributeError, match="'retrans' has no attribute 'Method'"):
        retrans.Method  # noqa: B018


_THREADED_LOOKUP = """
import random, threading
import retrans

names = retrans.__all__
barrier = threading.Barrier(16)
seen = [None] * 16

def resolve(k):
    order = random.Random(k).sample(names, len(names))
    barrier.wait()
    seen[k] = {name: getattr(retrans, name) for name in order}

threads = [threading.Thread(target=resolve, args=(k,)) for k in range(16)]
for t in threads:
    t.start()
for t in threads:
    t.join()
serial = {name: getattr(retrans, name) for name in names}
assert all(s is not None and all(s[n] is serial[n] for n in names) for s in seen), seen
print("ok")
"""


def test_concurrent_first_lookups_agree_with_a_serial_one(fresh_python):
    proc = fresh_python("-c", _THREADED_LOOKUP)
    assert (proc.returncode, proc.stdout) == (0, "ok\n"), proc.stderr


@pytest.mark.parametrize(
    "module", ["", "aligner", "corpus", "errors", "metrics", "mixing", "partials", "session"]
)
def test_plain_imports_leave_no_lazy_placeholder(module, fresh_python):
    target = f"retrans.{module}" if module else "retrans"
    proc = fresh_python(
        "-c",
        f"import sys, types\nimport {target}\nimport retrans\nretrans.bleu\n"
        "print(*sorted(n for n, m in sys.modules.items()\n"
        "              if n.startswith('retrans') and type(m) is not types.ModuleType))\n",
    )
    assert (proc.returncode, proc.stdout) == (0, "\n"), proc.stderr


def test_importing_mixing_executes_no_partials(fresh_python):
    proc = fresh_python(
        "-c",
        "import sys, types\nimport retrans.mixing\n"
        "print(*sorted(n for n, m in sys.modules.items()\n"
        "              if n.startswith('retrans') and type(m) is types.ModuleType))\n",
    )
    assert (proc.returncode, proc.stdout) == (
        0, "retrans retrans.corpus retrans.errors retrans.mixing\n"
    ), proc.stderr
