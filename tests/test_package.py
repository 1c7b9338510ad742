"""The package's public surface: `caster.__all__`."""

import caster


def test_all_names_resolve_once():
    names = caster.__all__
    assert len(names) == len(set(names)), sorted(n for n in names if names.count(n) > 1)
    missing = [name for name in names if not hasattr(caster, name)]
    assert not missing
