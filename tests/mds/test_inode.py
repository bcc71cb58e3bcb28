"""Tests for inodes and directory fragments."""

import copy
import pickle

import pytest

from repro.mds.inode import INODE_BYTES, DirFragment, Inode


def test_inode_positive_ino():
    with pytest.raises(ValueError):
        Inode(ino=0)
    with pytest.raises(ValueError):
        Inode(ino=-5)


def test_directory_and_regular_constructors():
    d = Inode.directory(10)
    f = Inode.regular(11)
    assert d.is_dir and not d.is_file
    assert f.is_file and not f.is_dir


def test_mode_bits_preserved():
    d = Inode.directory(10, mode=0o700)
    assert d.mode & 0o7777 == 0o700
    f = Inode.regular(11, mode=0o600)
    assert f.mode & 0o7777 == 0o600


def test_inodes_are_slot_backed_and_still_plain_values():
    f = Inode.regular(11, uid=3, mtime=2.5)
    assert not hasattr(f, "__dict__")
    with pytest.raises(AttributeError):
        f.scratch = 1
    f.size = 4096  # fields stay assignable: setattr / close update in place
    assert repr(f) == (
        "Inode(ino=11, mode=33188, uid=3, gid=0, size=4096, mtime=2.5, "
        "nlink=1)"
    )
    for clone in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
        assert clone == f and clone is not f
    assert f != Inode.regular(12, uid=3, mtime=2.5)


def test_constructors_take_ownership_and_mtime_by_position():
    # The replay path (apply_event -> create / mkdir -> regular /
    # directory) passes every field by position.
    f = Inode.regular(11, 0o600, 3, 4, 2.5)
    d = Inode.directory(12, 0o700, 5, 6, 7.5)
    assert (f.ino, f.mode, f.uid, f.gid, f.mtime) == (11, 0o100600, 3, 4, 2.5)
    assert (d.ino, d.mode, d.uid, d.gid, d.mtime) == (12, 0o040700, 5, 6, 7.5)
    assert f.size == d.size == 0 and f.nlink == d.nlink == 1
    with pytest.raises(TypeError):
        Inode.regular(13, size=1)  # no keyword catch-all


def test_minted_modes_are_shared_and_other_modes_kept():
    # Every default-mode inode points at one mode object; an unusual
    # mode is stored as given.
    assert Inode.regular(5).mode is Inode.regular(6).mode
    assert Inode.directory(5).mode is Inode.directory(6).mode
    assert Inode.regular(5).mode == 0o100644
    assert Inode.directory(5).mode == 0o040755
    assert Inode.regular(7, mode=0o7777 | 0o100000).mode == 0o107777


def test_footprint_is_about_1400_bytes():
    # "inodes in CephFS are about 1400 bytes" (§IV-C): a fragment object
    # charges that much per entry, whatever the inode holds.
    assert INODE_BYTES == 1400
    frag = DirFragment(1)
    frag.link("f", 5)
    frag.link("d", 6)
    assert frag.serialized_bytes() == 64 + 2 * (1 + INODE_BYTES)


def test_dirfrag_link_lookup_unlink():
    frag = DirFragment(1)
    frag.link("a", 10)
    frag.link("b", 11)
    assert len(frag) == 2
    assert "a" in frag
    assert frag.lookup("a") == 10
    assert frag.lookup("missing") is None
    assert frag.unlink("a") == 10
    assert "a" not in frag


def test_dirfrag_duplicate_link_rejected():
    frag = DirFragment(1)
    frag.link("a", 10)
    with pytest.raises(FileExistsError):
        frag.link("a", 99)


def test_dirfrag_unlink_missing_rejected():
    frag = DirFragment(1)
    with pytest.raises(FileNotFoundError):
        frag.unlink("nope")


def test_dirfrag_invalid_names():
    frag = DirFragment(1)
    with pytest.raises(ValueError):
        frag.link("", 1)
    with pytest.raises(ValueError):
        frag.link("a/b", 1)


def test_dirfrag_version_bumps():
    frag = DirFragment(1)
    v0 = frag.version
    frag.link("a", 10)
    assert frag.version == v0 + 1
    frag.unlink("a")
    assert frag.version == v0 + 2


def test_dirfrag_items_sorted():
    frag = DirFragment(1)
    for name, ino in [("z", 3), ("a", 1), ("m", 2)]:
        frag.link(name, ino)
    assert list(frag.items()) == [("a", 1), ("m", 2), ("z", 3)]


def test_dirfrag_object_name_matches_cephfs_convention():
    frag = DirFragment(0x123, frag_id=0)
    assert frag.object_name() == "123.00000000"


def test_dirfrag_serialized_bytes_scales_with_entries():
    frag = DirFragment(1)
    empty = frag.serialized_bytes()
    for i in range(10, 20):
        frag.link(f"f{i}", i)
    full = frag.serialized_bytes()
    assert full > empty + 10 * INODE_BYTES


def test_dirfrag_encode_decode_round_trip():
    inodes = {10: Inode.regular(10, mode=0o640), 11: Inode.directory(11)}
    frag = DirFragment(7, frag_id=2)
    frag.link("file", 10)
    frag.link("dir", 11)
    data = frag.encode(inodes)
    decoded, dec_inodes = DirFragment.decode(data)
    assert decoded.dir_ino == 7
    assert decoded.frag_id == 2
    assert decoded.entries == {"file": 10, "dir": 11}
    assert dec_inodes[10].is_file
    assert dec_inodes[11].is_dir


def test_dirfrag_encoding_keeps_every_inode_field():
    inode = Inode(10, 0o100600, uid=7, gid=8, size=4096, mtime=2.5, nlink=2)
    frag = DirFragment(7)
    frag.link("file", 10)
    _, dec_inodes = DirFragment.decode(frag.encode({10: inode}))
    assert dec_inodes[10] == inode
