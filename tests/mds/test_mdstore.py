"""Tests for the in-memory metadata store: POSIX semantics + replay."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.journal.events import EventType, JournalEvent
from repro.journal.tool import JournalTool
from repro.mds.inode import ROOT_INO
from repro.mds.mdstore import FsError, MetadataStore


@pytest.fixture
def md():
    return MetadataStore()


def test_root_exists(md):
    root = md.resolve("/")
    assert root.ino == ROOT_INO and root.is_dir


def test_relative_path_rejected(md):
    with pytest.raises(FsError):
        md.resolve("not/absolute")


def test_mkdir_create_resolve(md):
    md.mkdir("/home")
    md.mkdir("/home/alice")
    f = md.create("/home/alice/notes.txt")
    assert f.is_file
    assert md.resolve("/home/alice/notes.txt").ino == f.ino
    assert md.exists("/home/alice")
    assert not md.exists("/home/bob")


def test_mkdir_missing_parent(md):
    with pytest.raises(FsError) as e:
        md.mkdir("/a/b")
    assert e.value.code == "ENOENT"


def test_create_duplicate_eexist(md):
    md.create("/f")
    with pytest.raises(FsError) as e:
        md.create("/f")
    assert e.value.code == "EEXIST"


def test_create_under_file_enotdir(md):
    md.create("/f")
    with pytest.raises(FsError) as e:
        md.create("/f/child")
    assert e.value.code == "ENOTDIR"


def test_create_with_explicit_ino(md):
    f = md.create("/f", ino=999_999)
    assert f.ino == 999_999
    with pytest.raises(FsError):
        md.create("/g", ino=999_999)  # inode reuse rejected


def test_unlink(md):
    md.create("/f")
    md.unlink("/f")
    assert not md.exists("/f")
    with pytest.raises(FsError):
        md.unlink("/f")


def test_unlink_dir_eisdir(md):
    md.mkdir("/d")
    with pytest.raises(FsError) as e:
        md.unlink("/d")
    assert e.value.code == "EISDIR"


def test_rmdir(md):
    md.mkdir("/d")
    md.rmdir("/d")
    assert not md.exists("/d")


def test_rmdir_nonempty(md):
    md.mkdir("/d")
    md.create("/d/f")
    with pytest.raises(FsError) as e:
        md.rmdir("/d")
    assert e.value.code == "ENOTEMPTY"


def test_rmdir_on_file(md):
    md.create("/f")
    with pytest.raises(FsError) as e:
        md.rmdir("/f")
    assert e.value.code == "ENOTDIR"


def test_rename_file(md):
    md.mkdir("/a")
    md.mkdir("/b")
    md.create("/a/f")
    md.rename("/a/f", "/b/g")
    assert not md.exists("/a/f")
    assert md.exists("/b/g")


def test_rename_conflict(md):
    md.create("/f")
    md.create("/g")
    with pytest.raises(FsError) as e:
        md.rename("/f", "/g")
    assert e.value.code == "EEXIST"


def test_rename_missing_source(md):
    with pytest.raises(FsError) as e:
        md.rename("/nope", "/dst")
    assert e.value.code == "ENOENT"


def test_rename_dir_into_itself_rejected(md):
    md.mkdir("/a")
    md.mkdir("/a/b")
    with pytest.raises(FsError) as e:
        md.rename("/a", "/a/b/evil")
    assert e.value.code == "EINVAL"


def test_rename_dir_moves_subtree(md):
    md.mkdir("/src")
    md.create("/src/f")
    md.mkdir("/dst")
    md.rename("/src", "/dst/moved")
    assert md.exists("/dst/moved/f")


# -- the directory cursor must never outlive the directory it names --------
def _create_under_a_b(md):
    md.mkdir("/a")
    md.mkdir("/a/b")
    md.create("/a/b/seed")  # resolve_parent now remembers /a/b


def test_create_after_parent_renamed_away(md):
    _create_under_a_b(md)
    md.rename("/a/b", "/a/c")
    with pytest.raises(FsError) as e:
        md.create("/a/b/x")
    assert e.value.code == "ENOENT"
    assert not md.exists("/a/b/seed") and md.exists("/a/c/seed")
    moved = md.resolve("/a/c")
    md.create("/a/c/y")
    assert md.listdir("/a/c") == ["seed", "y"]
    assert md.dirfrags[moved.ino].lookup("y") == md.resolve("/a/c/y").ino


def test_create_after_parent_replaced_by_a_file(md):
    _create_under_a_b(md)
    md.unlink("/a/b/seed")
    md.rmdir("/a/b")
    assert not md.exists("/a/b/seed")
    md.create("/a/b")
    with pytest.raises(FsError) as e:
        md.create("/a/b/x")
    assert e.value.code == "ENOTDIR"
    assert not md.exists("/a/b/x")


def test_create_after_parent_exported(md):
    _create_under_a_b(md)
    rows = md.export_subtree("/a/b")
    assert [path for path, _ in rows] == ["/a/b", "/a/b/seed"]
    with pytest.raises(FsError) as e:
        md.create("/a/b/x")
    assert e.value.code == "ENOENT"
    assert not md.exists("/a/b/seed")
    md.import_subtree(rows)
    md.create("/a/b/x")
    assert md.listdir("/a/b") == ["seed", "x"]


def test_sibling_paths_spelled_differently_share_one_parent(md):
    _create_under_a_b(md)
    md.create("/a//b/t")      # another spelling of the same parent
    md.create("/a/b/u/")      # trailing slash: the name is still "u"
    assert md.listdir("/a/b") == ["seed", "t", "u"]
    assert md.exists("/a/b/u") and md.exists("/") and not md.exists("a/b/u")
    with pytest.raises(FsError) as e:
        md.create("b/v")      # relative, even with the cursor on a parent
    assert e.value.code == "EINVAL"


def test_setattr(md):
    md.create("/f")
    md.setattr("/f", mode=0o600, uid=5, gid=6, mtime=1.5, size=100)
    inode = md.resolve("/f")
    assert inode.mode & 0o7777 == 0o600
    assert (inode.uid, inode.gid, inode.mtime, inode.size) == (5, 6, 1.5, 100)


def test_setattr_unknown_attr(md):
    md.create("/f")
    with pytest.raises(FsError):
        md.setattr("/f", bogus=1)


def test_listdir(md):
    md.mkdir("/d")
    for n in ("c", "a", "b"):
        md.create(f"/d/{n}")
    assert md.listdir("/d") == ["a", "b", "c"]
    md.create("/f")
    with pytest.raises(FsError):
        md.listdir("/f")


def test_set_policy_stored_in_inode(md):
    md.mkdir("/sub")
    md.set_policy("/sub", "consistency=invisible")
    assert md.resolve("/sub").policy_blob == "consistency=invisible"


def test_path_of_reverse_lookup(md):
    md.mkdir("/a")
    md.mkdir("/a/b")
    f = md.create("/a/b/f")
    assert md.path_of(f.ino) == "/a/b/f"
    assert md.path_of(ROOT_INO) == "/"
    assert md.path_of(10**9) is None


def test_counts(md):
    md.mkdir("/d")
    md.create("/d/f1")
    md.create("/d/f2")
    assert md.dir_count == 2  # root + /d
    assert md.file_count == 2


def test_memory_bytes_grows(md):
    before = md.memory_bytes()
    md.create("/f")
    assert md.memory_bytes() == before + 1400


# -- journal replay --------------------------------------------------------


def test_apply_event_create_mkdir(md):
    md.apply_event(JournalEvent(EventType.MKDIR, "/d", ino=2_000_000))
    md.apply_event(JournalEvent(EventType.CREATE, "/d/f", ino=2_000_001))
    assert md.exists("/d/f")
    assert md.resolve("/d/f").ino == 2_000_001
    assert md.events_applied == 2


def test_apply_event_full_lifecycle(md):
    events = [
        JournalEvent(EventType.MKDIR, "/d", ino=2_000_000),
        JournalEvent(EventType.CREATE, "/d/a", ino=2_000_001),
        JournalEvent(EventType.RENAME, "/d/a", target_path="/d/b"),
        JournalEvent(EventType.SETATTR, "/d/b", mode=0o600),
        JournalEvent(EventType.UNLINK, "/d/b"),
        JournalEvent(EventType.RMDIR, "/d"),
    ]
    n = JournalTool.apply(events, md)
    assert n == 6
    assert not md.exists("/d")


def test_apply_event_policy(md):
    md.mkdir("/sub")
    md.apply_event(
        JournalEvent(EventType.SUBTREE_POLICY, "/sub", target_path="c=weak")
    )
    assert md.resolve("/sub").policy_blob == "c=weak"


def test_apply_event_noop(md):
    before = md.events_applied
    md.apply_event(JournalEvent(EventType.NOOP, "/"))
    assert md.events_applied == before


def test_replay_conflict_raises_without_skip(md):
    md.create("/f")
    with pytest.raises(FsError):
        JournalTool.apply([JournalEvent(EventType.CREATE, "/f")], md)
    # and is skipped with skip_errors
    n = JournalTool.apply(
        [JournalEvent(EventType.CREATE, "/f")], md, skip_errors=True
    )
    assert n == 0


@settings(max_examples=30, deadline=None)
@given(
    names=st.lists(
        st.text(alphabet="abcdefg", min_size=1, max_size=6),
        min_size=1,
        max_size=12,
        unique=True,
    )
)
def test_property_journal_replay_rebuilds_namespace(names):
    """A namespace built by ops equals one built by replaying its journal."""
    direct = MetadataStore()
    direct.mkdir("/dir", ino=2_000_000)
    events = [JournalEvent(EventType.MKDIR, "/dir", ino=2_000_000)]
    for i, name in enumerate(names):
        ino = 2_000_001 + i
        direct.create(f"/dir/{name}", ino=ino)
        events.append(JournalEvent(EventType.CREATE, f"/dir/{name}", ino=ino))

    replayed = MetadataStore()
    JournalTool.apply(events, replayed)
    assert replayed.listdir("/dir") == direct.listdir("/dir")
    assert {
        n: replayed.resolve(f"/dir/{n}").ino for n in names
    } == {n: direct.resolve(f"/dir/{n}").ino for n in names}
