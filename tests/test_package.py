import smtde


def test_every_export_resolves():
    assert [name for name in smtde.__all__ if not hasattr(smtde, name)] == []
