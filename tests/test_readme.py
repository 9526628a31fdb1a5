"""The README's library quick start runs as written."""

import re
from pathlib import Path
from types import ModuleType

import vocmap
from vocmap.vocab import load_gold

ROOT = Path(__file__).resolve().parent.parent


def test_library_quick_start_runs(monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text("utf-8")
    block = re.search(r"## Library quick start\n+```python\n(.*?)```",
                      readme, re.S).group(1)
    monkeypatch.chdir(ROOT)
    exec(compile(block, "README.md", "exec"), {})
    assert len(load_gold(capsys.readouterr().out)) > 0


def test_package_exports_the_documented_names():
    # the submodules are attributes of the package once imported
    public = {name for name, value in vars(vocmap).items()
              if not name.startswith("_")
              and not isinstance(value, ModuleType)}
    assert public == {"MapperConfig", "map_vocabulary", "load_gold",
                      "parse_vocabulary_ntriples",
                      "serialize_mappings_ntriples", "load_fixture",
                      "load_wndb_dir"}
