"""The package surface."""

import fullerene_belyi


def test_every_exported_name_resolves():
    missing = [name for name in fullerene_belyi.__all__
               if not hasattr(fullerene_belyi, name)]
    assert not missing
    assert len(set(fullerene_belyi.__all__)) == len(fullerene_belyi.__all__)
