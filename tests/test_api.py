"""The package re-exports exactly the submodules' public names."""

import htbounds
from htbounds import bounds, distributions, experiments, numerics, oracle

SUBMODULES = (bounds, distributions, experiments, numerics, oracle)


def test_all_is_the_union_of_submodule_exports():
    # A name added to a submodule's __all__ reaches the package, and a
    # helper retired from one cannot linger there.
    want = [name for m in SUBMODULES for name in m.__all__] + ["__version__"]
    assert len(set(want)) == len(want), "a public name is declared by two submodules"
    assert sorted(htbounds.__all__) == sorted(want)


def test_every_public_name_is_a_submodule_export():
    for m in SUBMODULES:
        for name in m.__all__:
            assert getattr(htbounds, name) is getattr(m, name), f"htbounds.{name}"
