"""Tests for inodes and directory fragments."""

import copy
import pickle

import pytest

from repro.mds.inode import INODE_BYTES, DirFragment, Inode
from repro.mds.inotable import InoTable
from repro.mds.mdstore import MetadataStore


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
        "Inode(ino=11, mode=33188, uid=3, gid=0, size=4096, mtime=2.5)"
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
    assert f.size == d.size == 0
    # ... and the record's size last, after mtime.
    assert Inode.regular(13, 0o600, 3, 4, 2.5, 4096).size == 4096
    assert Inode.directory(14, 0o700, 5, 6, 7.5, 512).size == 512
    with pytest.raises(TypeError):
        Inode.regular(15, nlink=1)  # no keyword catch-all


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
    frag = DirFragment()
    frag.link("f", 5)
    frag.link("d", 6)
    assert frag.serialized_bytes() == 64 + 2 * (1 + INODE_BYTES)


def test_dirfrag_link_lookup_unlink():
    frag = DirFragment()
    frag.link("a", 10)
    frag.link("b", 11)
    assert len(frag) == 2
    assert "a" in frag
    assert frag.lookup("a") == 10
    assert frag.lookup("missing") is None
    assert frag.unlink("a") == 10
    assert "a" not in frag


def test_dirfrag_duplicate_link_rejected():
    frag = DirFragment()
    frag.link("a", 10)
    with pytest.raises(FileExistsError):
        frag.link("a", 99)


def test_dirfrag_unlink_missing_rejected():
    frag = DirFragment()
    with pytest.raises(FileNotFoundError):
        frag.unlink("nope")


def test_dirfrag_invalid_names():
    frag = DirFragment()
    with pytest.raises(ValueError):
        frag.link("", 1)
    with pytest.raises(ValueError):
        frag.link("a/b", 1)


def test_dirfrag_items_sorted():
    frag = DirFragment()
    for name, ino in [("z", 3), ("a", 1), ("m", 2)]:
        frag.link(name, ino)
    assert list(frag.items()) == [("a", 1), ("m", 2), ("z", 3)]


def test_dirfrag_serialized_bytes_scales_with_entries():
    frag = DirFragment()
    empty = frag.serialized_bytes()
    for i in range(10, 20):
        frag.link(f"f{i}", i)
    full = frag.serialized_bytes()
    assert full > empty + 10 * INODE_BYTES


def _image_store():
    md = MetadataStore()
    md.mkdir("/d", mode=0o700, uid=3, gid=4, mtime=1.5)
    md.create("/d/f", mode=0o640, uid=7, gid=8, mtime=2.5)
    md.setattr("/d/f", size=4096)
    md.mkdir("/d/e")
    md.setattr("/", mode=0o711, uid=9)
    return md


def test_dirfrag_encode_decode_round_trip():
    md = _image_store()
    loaded, through = MetadataStore.decode_image(md.encode_image(42), InoTable())
    assert through == 42
    assert {ino: frag.entries for ino, frag in loaded.dirfrags.items()} == {
        ino: frag.entries for ino, frag in md.dirfrags.items()
    }
    assert loaded.resolve("/d/f").is_file
    assert loaded.resolve("/d/e").is_dir


def test_dirfrag_encoding_keeps_every_inode_field():
    md = _image_store()
    loaded, _ = MetadataStore.decode_image(md.encode_image(42), InoTable())
    assert loaded.inodes == md.inodes  # root included
    assert loaded.inotable.next_free == md.inotable.next_free


def test_image_holds_only_what_the_root_reaches():
    md = _image_store()
    md.inodes[99] = Inode.regular(99)  # in the map, linked nowhere
    loaded, _ = MetadataStore.decode_image(md.encode_image(0), InoTable())
    assert 99 not in loaded.inodes
    assert set(loaded.inodes) == set(md.inodes) - {99}


def test_image_with_a_byte_missing_or_added_does_not_decode():
    data = _image_store().encode_image(7)
    for bad in [data[:n] for n in range(len(data))] + [data + b"\0"]:
        with pytest.raises(ValueError):
            MetadataStore.decode_image(bad, InoTable())
