import formkit as fk


def test_public_names_resolve_once():
    names = fk.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(fk, name)]
    assert missing == []
