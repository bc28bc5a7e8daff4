"""The package's re-exports match the submodules' public names."""

import htbounds
from htbounds import bounds, distributions, experiments, numerics, oracle

SUBMODULES = (bounds, distributions, experiments, numerics, oracle)


def test_every_public_name_is_a_submodule_export():
    # A helper retired from a submodule cannot linger in htbounds.__all__.
    for name in htbounds.__all__:
        obj = getattr(htbounds, name)
        if name == "__version__":
            continue
        owners = [m for m in SUBMODULES if name in m.__all__ and getattr(m, name) is obj]
        assert owners, f"htbounds.{name} is not in any submodule's __all__"
