import f1zeta


def test_all_lists_each_public_name_once_and_every_name_resolves():
    assert len(f1zeta.__all__) == len(set(f1zeta.__all__))
    for name in f1zeta.__all__:
        assert hasattr(f1zeta, name), name
