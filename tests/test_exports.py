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
