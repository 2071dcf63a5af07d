"""README's Python examples run as written, and its config table is the schema.

The ``python`` blocks run in order in one namespace, as a reader pastes them,
inside a directory that holds a copy of the fixture at the path the examples
name and README's JSON configuration as ``run.json``. A failing block's
traceback points at its line in README.md.
"""

import re
import shutil
from pathlib import Path

from ceqn.data_io import _SPEC_SCHEMA

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


def config_table():
    """{key: default cell} of README's configuration key table; a row that
    lists several keys lists their defaults in the same order."""
    text = README.read_text(encoding="utf-8")
    table = re.search(r"^\| key \| meaning \| default \|\n\| --- .*\n((?:\|.*\n)+)", text, re.M)
    assert table, "README has no configuration key table"
    cells = {}
    for row in table.group(1).splitlines():
        keys, _, defaults = (cell.strip() for cell in row.strip("|").split("|"))
        keys, defaults = keys.split(", "), defaults.split(", ")
        assert len(keys) == len(defaults), row
        cells.update(zip((key.strip("`") for key in keys), defaults))
    return cells


def test_readme_config_table_matches_the_schema():
    cells = config_table()
    assert sorted(cells) == sorted(_SPEC_SCHEMA)
    for key, (_, default) in _SPEC_SCHEMA.items():
        cell = cells[key]
        if default is None:
            assert cell.split()[0] in ("required", "inferred", "none"), (key, cell)
            continue
        assert cell.startswith("`") and cell.endswith("`"), (key, cell)
        text = cell.strip("`")
        if isinstance(default, str):
            assert text == default, key
        else:
            assert float(text) == float(default), key
