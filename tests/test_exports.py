"""Package surface: every exported name exists."""
import entrobound


def test_every_exported_name_resolves():
    missing = [name for name in entrobound.__all__ if not hasattr(entrobound, name)]
    assert missing == []


def test_exports_are_unique():
    assert len(entrobound.__all__) == len(set(entrobound.__all__))
