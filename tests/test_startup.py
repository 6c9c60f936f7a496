"""Start-up guard: importing the CLI executes no command module, and each
command executes only the modules it uses. Each check runs in a new
interpreter, so it sees what an invocation from the shell would load."""

from __future__ import annotations

import pytest
from run_pipeline import pipeline, steps

from retrans import cli

# Print the retrans modules that have executed; a LazyLoader placeholder that
# nothing has touched yet is not a plain module.
_EXECUTED = (
    "import types\n"
    "print(*sorted(n for n, m in sys.modules.items()\n"
    "              if n.startswith('retrans') and type(m) is types.ModuleType))\n"
)
_ALWAYS = ["retrans", "retrans.cli", "retrans.errors"]


def test_importing_the_cli_executes_no_command_module(fresh_python):
    heavy = ("dataclasses", "json", "subprocess", "selectors")
    proc = fresh_python(
        "-c",
        "import sys\n"
        f"heavy = {heavy!r}\n"
        "before = {m for m in heavy if m in sys.modules}\n"
        "import retrans.cli\n"
        "retrans.cli.build_parser()\n"
        "print(*sorted(m for m in heavy if m in sys.modules and m not in before))\n"
        + _EXECUTED,
    )
    assert proc.returncode == 0, proc.stderr
    added, executed = proc.stdout.splitlines()
    assert added == ""
    assert executed.split() == _ALWAYS


# The modules each command needs besides the three that are always executed.
NEEDS = {
    "align": ["aligner", "corpus"],
    "gen-partial": ["corpus", "partials"],
    "mix": ["corpus", "mixing", "partials"],
    "simulate": ["corpus", "metrics", "session"],
    "reseg": ["corpus", "metrics"],
    "score": ["corpus", "metrics"],
}


@pytest.fixture(scope="module")
def walked(tmp_path_factory, fixtures):
    """The fixture walk run once in this process, so every step has its inputs."""
    workdir = tmp_path_factory.mktemp("walk")
    pipeline(workdir, cli.DEFAULT_SEED)
    return {argv[0]: argv for argv in steps(fixtures, workdir, cli.DEFAULT_SEED)}


@pytest.mark.parametrize("command", list(NEEDS))
def test_each_command_executes_only_its_modules(command, walked, fresh_python):
    # Also prints the modules from outside retrans and the standard library that
    # the command imports; what site imported before retrans.cli is not counted.
    proc = fresh_python(
        "-c",
        "import sys\n"
        "before = set(sys.modules)\n"
        "import retrans.cli\n"
        "code = retrans.cli.main(sys.argv[1:])\n"
        "ours = {'retrans', *sys.stdlib_module_names}\n"
        "print(*sorted(n for n in sys.modules\n"
        "              if n not in before and n.partition('.')[0] not in ours))\n"
        + _EXECUTED + "sys.exit(code)\n",
        *walked[command],
    )
    assert proc.returncode == 0, proc.stderr
    *_, foreign, executed = proc.stdout.splitlines()
    assert foreign == "", "imports from outside retrans and the standard library"
    assert executed.split() == sorted(_ALWAYS + [f"retrans.{m}" for m in NEEDS[command]])
