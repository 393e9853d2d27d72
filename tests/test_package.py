import lqframes


def test_public_names_are_exported_once():
    # The package star-imports its submodules, so a name exported by two of
    # them would silently shadow the other; it would show here as a duplicate.
    names = lqframes.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(lqframes, name), name
    assert {"cell_key", "split_nsp_constant", "split_nsp_condition"} <= set(names)
