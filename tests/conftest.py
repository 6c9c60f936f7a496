from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc
from collections.abc import Callable
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "data" / "fixtures"


@pytest.fixture(scope="session")
def fixtures() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def fresh_python() -> Callable[..., subprocess.CompletedProcess[str]]:
    """Run a new interpreter with the given arguments, importing retrans from src/."""
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{path}" if path else src}

    def run(*args: str) -> subprocess.CompletedProcess[str]:
        return subprocess.run(
            [sys.executable, *args], env=env, capture_output=True, encoding="utf-8", timeout=60
        )

    return run


@pytest.fixture(scope="session")
def traced_peak() -> Callable[[Callable[[], object]], int]:
    """Bytes fn() allocates at its peak above what is allocated when it starts.

    Works whether or not tracemalloc is already tracing, as under -X tracemalloc.
    """

    def measure(fn: Callable[[], object]) -> int:
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            fn()
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            if not tracing:
                tracemalloc.stop()

    return measure
