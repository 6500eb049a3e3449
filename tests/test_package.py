"""The package namespace re-exports the public names of its modules,
importing it loads no heavy standard modules, and each command loads only
the package modules it runs."""

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


def loaded_after(code: str) -> list:
    """The package's modules loaded once ``code`` has run in a fresh
    interpreter, under -S as above."""
    src = str(Path(ternwords.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r})\n{code}\n"
        "print(*sorted(m for m in sys.modules if m.partition('.')[0] == 'ternwords'))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert (out.returncode, out.stderr) == (0, ""), out.stderr
    return out.stdout.splitlines()[-1].split()


def loaded_by(*argv) -> list:
    """The package's modules that the command ``argv`` loads."""
    return loaded_after(f"from ternwords.cli import main\nmain({list(argv)!r})")


def test_count_loads_words_alone():
    assert loaded_by("count", "30") == ["ternwords", "ternwords.cli", "ternwords.words"]


def test_each_command_loads_only_what_it_runs(tmp_path):
    pair = tmp_path / "pair.txt"
    pair.write_text(ternwords.pair_text(ternwords.builtin_pair()))
    assert "ternwords.search" not in loaded_by("bound", "18")
    verify = loaded_by("pair", "verify", str(pair))
    assert "ternwords.triplepair" in verify
    assert not {"ternwords.morphism", "ternwords.search"} & set(verify)
    search = loaded_by("pair", "search", "--k", "18", "--limit", "1")
    assert "ternwords.search" in search
    assert "ternwords.morphism" not in search


def test_names_load_their_module_on_first_use():
    assert loaded_after("import ternwords") == ["ternwords", "ternwords.words"]
    # a name the package does not have loads nothing
    assert loaded_after("import ternwords; assert not hasattr(ternwords, '_pool')") == [
        "ternwords", "ternwords.words",
    ]
    assert loaded_after(
        "import ternwords\n"
        "from ternwords import search, triplepair\n"
        "assert ternwords.verify is triplepair.verify\n"
        "assert ternwords.find_pairs is search.find_pairs"
    ) == ["ternwords", "ternwords.search", "ternwords.triplepair", "ternwords.words"]


def test_star_import_gives_the_module_objects():
    namespace = {}
    exec("from ternwords import *", namespace)
    for module in MODULES:
        for name in module.__all__:
            assert namespace[name] is getattr(module, name), (module.__name__, name)
