import duelbandits


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from duelbandits import *", namespace)
    missing = [name for name in duelbandits.__all__ if name not in namespace]
    assert not missing
