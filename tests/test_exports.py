"""The package's public names all resolve."""

import facetproc


def test_every_exported_name_resolves():
    missing = [name for name in facetproc.__all__
               if not hasattr(facetproc, name)]
    assert not missing
    assert len(set(facetproc.__all__)) == len(facetproc.__all__)
