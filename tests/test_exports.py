import sll


def test_every_exported_name_resolves():
    assert [name for name in sll.__all__ if not hasattr(sll, name)] == []
