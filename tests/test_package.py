"""The package's public names."""

import arid


def test_every_exported_name_resolves():
    missing = [name for name in arid.__all__ if not hasattr(arid, name)]
    assert not missing, f"names in arid.__all__ that do not resolve: {missing}"
    assert len(set(arid.__all__)) == len(arid.__all__)
    # The batch fit and its windowing, which the README documents, are among them.
    assert {"fit_ar_batch", "delay_windows"} <= set(arid.__all__)
