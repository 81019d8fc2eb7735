"""The package's public names all resolve."""

import romstab


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from romstab import *", namespace)
    assert set(romstab.__all__) <= set(namespace)
