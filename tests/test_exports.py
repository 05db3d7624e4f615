"""Package surface: every exported name exists."""
import entrobound


def test_every_exported_name_resolves():
    missing = [name for name in entrobound.__all__ if not hasattr(entrobound, name)]
    assert missing == []


def test_exports_are_unique():
    assert len(entrobound.__all__) == len(set(entrobound.__all__))


def test_gibbs_family_distance_stays_in_its_module():
    # No preset covers it; it is kept only as a known-bad mixing witness.
    import entrobound.gibbs

    assert "gibbs_family_distance" not in entrobound.__all__
    assert not hasattr(entrobound, "gibbs_family_distance")
    assert callable(entrobound.gibbs.gibbs_family_distance)
