import os
import subprocess
import sys
from pathlib import Path

import pytest


@pytest.mark.parametrize("module", [
    "ubern",
    "ubern.padic",
    "ubern.partitions",
    "ubern.bernoulli",
    "ubern.congruences",
    "ubern.lemmas",
])
def test_star_import_finds_every_exported_name(module):
    # a name left in __all__ after its deletion breaks star-import only:
    # there it raises AttributeError, while a plain import still works
    exec(f"from {module} import *", {})


def test_cli_imports_neither_dataclasses_nor_inspect(tmp_path):
    # each benchmark pass starts a fresh interpreter and pays for every
    # import; the modules already loaded by a bare interpreter (a site hook
    # may load either one) are subtracted, and a lemma run covers the
    # imports the sweeps could make at call time
    script = (
        "import contextlib, io, sys\n"
        "bare = set(sys.modules)\n"
        "import ubern.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert ubern.cli.main(['lemma', '--name', '4.7', '--n-max', '3']) == 0\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - bare)))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, cwd=tmp_path,
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    assert out == "[]\n"
