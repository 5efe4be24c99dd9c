import pytest

import gcdcipher
from gcdcipher import analysis, block, filecodec


def test_every_public_name_is_its_modules_object():
    for name in gcdcipher.__all__:
        owner = next(m for m in (block, filecodec, analysis) if name in vars(m))
        assert getattr(gcdcipher, name) is getattr(owner, name), name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from gcdcipher import *", namespace)
    assert set(gcdcipher.__all__) <= namespace.keys()


def test_a_name_rebound_in_its_module_reads_the_same_through_the_package(monkeypatch):
    monkeypatch.setattr(filecodec, "encrypt_file", lambda data: "rebound")
    assert gcdcipher.encrypt_file(b"in") == "rebound"
    # analysis imports encrypt_file from filecodec; the package reads filecodec's
    monkeypatch.setattr(analysis, "encrypt_file", lambda data: "analysis")
    assert gcdcipher.encrypt_file is filecodec.encrypt_file


@pytest.mark.parametrize("name", ["no_such_name", "block_table"])  # block_table: filecodec only
def test_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(gcdcipher, name)
