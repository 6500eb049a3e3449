"""The package namespace re-exports the public names of its modules."""

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
