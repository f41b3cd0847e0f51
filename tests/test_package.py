"""The package's public surface."""

import diffeoflow


def test_every_exported_name_resolves():
    assert len(set(diffeoflow.__all__)) == len(diffeoflow.__all__)
    missing = [name for name in diffeoflow.__all__ if not hasattr(diffeoflow, name)]
    assert missing == []
