"""Recovery is the identity: a crash and recovery rebuild the live store.

Hypothesis drives random RPC sequences (mkdir, create, unlink, rmdir,
rename, setattr, open/close-write, and a second client's stat of a
file open for writing, which recalls the writer's size) against one
materialized MDS rank, with journal flushes, checkpoints (between
requests, or with one request racing them), crashes and restarts mixed
in.  The oracle is the live store itself, so it is stated independently
of the replay code: at each durable point (a flush or a checkpoint, both
of which wait for every journal write to land) the machine snapshots
every path's inode and the inode table.  After a crash and recovery, or
a restart, it checks four things:

* every path resolves to an inode equal, field by field (ino, mode,
  uid, gid, size, mtime), to the snapshot's;
* the store holds no inode but those reachable from ``/``;
* the next create succeeds;
* it mints a number the snapshot's inode table had not consumed.

A second property writes hostile, checksum-valid event frames into the
MDS's journal: recovery replays them through the store's one replay
loop, which refuses what it cannot apply and raises nothing else.
"""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from repro.cluster import Cluster
from repro.journal.events import EventType, JournalEvent
from repro.mds.inode import ROOT_INO

NAMES = ["a", "b", "c"]
DIRS = ["", "a", "b"]  # container dirs under /
PATHS = [("/" + d + "/" + n).replace("//", "/") for d in DIRS for n in NAMES]
paths = st.sampled_from(PATHS)


def _image(md):
    """Every path of ``md`` (walked from ``/``) -> its inode's fields."""
    image = {}
    stack = [("", ROOT_INO)]
    while stack:
        path, ino = stack.pop()
        inode = md.inodes[ino]
        image[path or "/"] = (
            inode.ino, inode.mode, inode.uid, inode.gid, inode.size,
            inode.mtime,
        )
        if inode.is_dir:
            for name, child in md.dirfrags[ino].items():
                stack.append((path + "/" + name, child))
    return image


class RecoveryIdentityMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.cluster = Cluster(seed=0)
        self.mds = self.cluster.mds
        self.client = self.cluster.new_client()
        self.reader = self.cluster.new_client()
        self.fresh = 0
        self._durable()

    def _run(self, gen):
        return self.cluster.run(gen)

    def _durable(self):
        """Everything journaled so far has landed: remember the store."""
        self.image = _image(self.mds.mdstore)
        self.table = copy.deepcopy(self.mds.mdstore.inotable)

    @rule(path=paths)
    def mkdir(self, path):
        self._run(self.client.mkdir(path))

    @rule(path=paths)
    def create(self, path):
        self._run(self.client.create(path))

    @rule(path=paths)
    def unlink(self, path):
        self._run(self.client.unlink(path))

    @rule(path=paths)
    def rmdir(self, path):
        self._run(self.client.rmdir(path))

    @rule(src=paths, dst=paths)
    def rename(self, src, dst):
        self._run(self.client.rename(src, dst))

    @rule(
        path=paths,
        attrs=st.fixed_dictionaries({}, optional={
            "mode": st.sampled_from([0o600, 0o700, 0o4755]),
            "uid": st.integers(0, 3),
            "gid": st.integers(0, 3),
            "mtime": st.sampled_from([1.5, 2.0, 7.25]),
        }),
    )
    def setattr(self, path, attrs):
        self._run(self.client.setattr(path, **attrs))

    @rule(path=paths, size=st.integers(0, 8192))
    def open_close_write(self, path, size):
        try:
            handle = self._run(self.client.open_write(path))
        except OSError:
            return
        handle.write(size)
        self._run(self.client.close_write(handle))

    @rule(path=paths, size=st.integers(1, 8192), grown=st.integers(0, 64))
    def stat_while_writing(self, path, size, grown):
        """The writer buffers ``size`` bytes, the reader's stat recalls
        them, then the writer closes at ``size + grown``."""
        try:
            handle = self._run(self.client.open_write(path))
        except OSError:
            return
        handle.write(size)
        resp = self._run(self.reader.stat(path))
        assert resp.ok and resp.value.size == size, resp
        handle.write(grown)
        self._run(self.client.close_write(handle))

    @rule()
    def flush(self):
        self._run(self.mds.journal.flush())
        self._durable()

    @rule()
    def checkpoint(self):
        self._run(self.mds.checkpoint())
        self._durable()

    @rule(
        op=st.sampled_from(["mkdir", "create", "unlink", "rmdir", "rename"]),
        src=paths, dst=paths, lead=st.integers(0, 25),
    )
    def background_checkpoint(self, op, src, dst, lead):
        """One request, and a checkpoint started ``lead`` tenths of a
        millisecond after it is issued: an RPC takes about 2 ms, so the
        request lands before, during or after the checkpoint's writes.
        Then the journal is flushed, so the request is durable either
        way."""
        engine = self.cluster.engine
        args = (src, dst) if op == "rename" else (src,)
        engine.process(getattr(self.client, op)(*args))
        self.cluster.run(until=engine.now + lead * 1e-4)
        ckpt = engine.process(self.mds.checkpoint())
        self.cluster.run()
        assert ckpt.ok, ckpt.value
        self.flush()

    @rule(flush_first=st.booleans())
    def crash_and_recover(self, flush_first):
        if flush_first:
            self.flush()
        self.mds.crash()
        self._run(self.mds.recover())
        self._check_recovered()

    @rule()
    def restart(self):
        """A restart drains and flushes before its crash, so it keeps
        the live store exactly."""
        self._durable()
        self._run(self.mds.restart())
        self._check_recovered()

    def _check_recovered(self):
        got = _image(self.mds.mdstore)
        assert got == self.image, {
            path: (self.image.get(path), got.get(path))
            for path in sorted(set(got) | set(self.image))
            if got.get(path) != self.image.get(path)
        }
        reachable = {fields[0] for fields in got.values()}
        assert set(self.mds.mdstore.inodes) == reachable, "orphaned inodes"
        self.fresh += 1
        name = f"/new{self.fresh}"
        resp = self._run(self.client.create(name))
        assert resp.ok, resp.error
        ino = self.mds.mdstore.resolve(name).ino
        assert not self.table.is_consumed(ino), f"{ino} minted again"
        self._run(self.client.unlink(name))


RecoveryIdentityMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=25, deadline=None
)
TestRecoveryIdentity = RecoveryIdentityMachine.TestCase


def _replay(*steps):
    """Run ``steps`` — (rule, args...) — through a fresh machine."""
    machine = RecoveryIdentityMachine()
    for name, *args in steps:
        getattr(machine, name)(*args)


def test_a_file_of_a_removed_directory_is_not_recovered():
    """Pinned: a fragment object the first checkpoint wrote outlived its
    directory and came back, its file an orphan in the store."""
    _replay(
        ("mkdir", "/a"), ("create", "/a/a"), ("checkpoint",),
        ("unlink", "/a/a"), ("rmdir", "/a"), ("checkpoint",),
        ("crash_and_recover", False),
    )


def test_a_rename_anywhere_in_a_checkpoint_is_recovered_once():
    """Pinned: the rename swept across the checkpoint, 0.1 ms a step;
    landing between two fragment writes once linked it twice."""
    for lead in range(26):
        _replay(
            ("mkdir", "/a"), ("create", "/a/a"), ("mkdir", "/b"),
            ("background_checkpoint", "rename", "/a/a", "/b/a", lead),
            ("crash_and_recover", False),
        )


def test_a_restart_replays_a_rename_chain_once():
    """Pinned: a restart replayed the whole journal onto the live store,
    so the renames applied twice and ``{a, c}`` came back as ``{b, c}``."""
    _replay(
        ("mkdir", "/a"), ("create", "/a/a"), ("rename", "/a/a", "/a/b"),
        ("create", "/a/a"), ("rename", "/a/b", "/a/c"), ("flush",),
        ("restart",),
    )


def test_a_closed_file_keeps_its_size_through_journal_replay():
    """Pinned: the journal record had no size field, so replaying a
    close's SETATTR rebuilt the file at size 0."""
    _replay(("open_close_write", "/a", 1), ("crash_and_recover", True))


# -- hostile journal bytes ---------------------------------------------------

_BASE = 1 << 20  # a single rank's first inode number
_parts = st.lists(st.sampled_from(["a", "b", ".", "..", ""]), max_size=4)
hostile_paths = st.builds(
    lambda parts, slash: "/" + "/".join(parts) + ("/" if slash else ""),
    _parts, st.booleans(),
)
hostile_events = st.builds(
    lambda op, path, target, ino, mode, uid, size: JournalEvent.trusted(
        op, path, ino, mode, uid, uid, 0.0,
        target if op is EventType.RENAME else None, 0, 0, size,
    ),
    st.sampled_from(list(EventType)),
    hostile_paths,
    hostile_paths,
    st.sampled_from([0, 1, _BASE, _BASE + 1, (1 << 64) - 1]),
    st.integers(0, (1 << 32) - 1),
    st.sampled_from([0, 7, (1 << 32) - 1]),
    st.sampled_from([0, 1, 1 << 63, (1 << 64) - 1]),
)


@settings(max_examples=150, deadline=None)
@given(events=st.lists(hostile_events, max_size=24))
def test_hostile_journal_frames_never_stop_recovery(events):
    cluster = Cluster(seed=0)
    mds = cluster.mds
    assert mds.mdstore.inotable.next_free == _BASE
    cluster.run(mds.journal.log_events(events=events))
    cluster.run(mds.journal.flush())
    mds.crash()
    assert cluster.run(mds.recover()) == len(events)
    resp = cluster.run(cluster.new_client().create("/fresh"))
    assert resp.ok, resp.error
