"""README's Python examples run as written.

The ``python`` blocks run in order in one namespace, as a reader pastes them,
inside a directory that holds a copy of the fixture at the path the examples
name and README's JSON configuration as ``run.json``. A failing block's
traceback points at its line in README.md.
"""

import re
import shutil
from pathlib import Path

from conftest import FIXTURE_LIBSVM

README = Path(__file__).resolve().parents[1] / "README.md"


def fenced_blocks(language):
    """(first line number, source) of each ```language block in README."""
    text = README.read_text(encoding="utf-8")
    return [
        (text.count("\n", 0, match.start(1)) + 1, match.group(1))
        for match in re.finditer(rf"^```{language}\n(.*?)^```$", text, re.M | re.S)
    ]


def test_readme_python_blocks_run_in_order(tmp_path, monkeypatch, capsys):
    data = tmp_path / "tests" / "data"
    data.mkdir(parents=True)
    shutil.copy(FIXTURE_LIBSVM, data / FIXTURE_LIBSVM.name)
    ((_, config),) = fenced_blocks("json")
    (tmp_path / "run.json").write_text(config, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("CEQN_DATA_DIR", raising=False)

    blocks = fenced_blocks("python")
    assert blocks, "README has no python example"
    namespace = {"__name__": "readme"}
    for line, source in blocks:
        # padding keeps README's line numbers in a traceback
        exec(compile("\n" * (line - 1) + source, str(README), "exec"), namespace)

    # the last block writes the run's artifacts from run.json
    assert (tmp_path / "trace.csv").is_file()
    assert (tmp_path / "summary.json").is_file()
