"""The package namespace re-exports the public names of its modules, and
importing it loads no heavy standard modules."""

import subprocess
import sys
from pathlib import Path

import ternwords
from ternwords import morphism, search, triplepair, words

MODULES = (words, triplepair, morphism, search)


def test_module_names_are_the_same_objects():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(ternwords, name) is getattr(module, name), (module.__name__, name)


def test_all_is_the_union_of_the_module_lists():
    names = [name for module in MODULES for name in module.__all__]
    assert len(set(names)) == len(names)
    assert ternwords.__all__ == [*names, "__version__"]
    namespace = {}
    exec("from ternwords import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(ternwords.__all__)


def test_the_cli_imports_no_heavy_modules():
    # -S skips site, which may load some of these on its own
    src = str(Path(ternwords.__file__).resolve().parents[1])
    heavy = ("dataclasses", "inspect", "typing", "pathlib", "multiprocessing")
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import ternwords.cli; "
        f"print(sorted(set({heavy!r}) & set(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert (out.returncode, out.stdout, out.stderr) == (0, "[]\n", "")
