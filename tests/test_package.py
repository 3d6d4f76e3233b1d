import re
import types
from pathlib import Path

import duelbandits

README = Path(__file__).resolve().parents[1] / "README.md"


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from duelbandits import *", namespace)
    missing = [name for name in duelbandits.__all__ if name not in namespace]
    assert not missing
    # __all__ is derived from the imports: no submodule, no private name, sorted, no repeats
    assert not [name for name in duelbandits.__all__
                if isinstance(getattr(duelbandits, name), types.ModuleType)]
    assert not [name for name in duelbandits.__all__ if name.startswith("_")]
    assert duelbandits.__all__ == sorted(set(duelbandits.__all__))


def test_readme_library_example_runs():
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README}:Library example", "exec"), {})
