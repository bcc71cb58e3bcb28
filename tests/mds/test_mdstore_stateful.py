"""Model-based testing: MetadataStore against a dict oracle.

Hypothesis drives random op sequences (mkdir/create/unlink/rmdir/
rename/exists, some renames aimed at the directory just created
under) against both the real metadata store and a trivial
path-set oracle; after every step the visible namespace must match.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.mds.mdstore import FsError, MetadataStore

NAMES = ["a", "b", "c", "d"]
DIRS = ["", "a", "b"]  # relative container dirs under /


class NamespaceOracle:
    """Ground truth: a set of absolute paths plus their kinds."""

    def __init__(self):
        self.kind = {"/": "dir"}  # path -> "dir" | "file"

    def parent_ok(self, path):
        parent = path.rsplit("/", 1)[0] or "/"
        return self.kind.get(parent) == "dir"

    def children(self, path):
        prefix = path.rstrip("/") + "/"
        return [p for p in self.kind if p != path and p.startswith(prefix)
                and "/" not in p[len(prefix):]]

    def mkdir(self, path):
        if path in self.kind or not self.parent_ok(path):
            raise FsError("EEXIST", path)
        self.kind[path] = "dir"

    def create(self, path):
        if path in self.kind or not self.parent_ok(path):
            raise FsError("EEXIST", path)
        self.kind[path] = "file"

    def unlink(self, path):
        if self.kind.get(path) != "file":
            raise FsError("ENOENT", path)
        del self.kind[path]

    def rmdir(self, path):
        if self.kind.get(path) != "dir" or self.children(path):
            raise FsError("ENOTEMPTY", path)
        del self.kind[path]

    def rename(self, src, dst):
        if src == "/" or src not in self.kind:
            raise FsError("ENOENT", src)
        if dst in self.kind or not self.parent_ok(dst):
            raise FsError("EEXIST", dst)
        if (dst + "/").startswith(src + "/"):
            raise FsError("EINVAL", f"cannot move {src} into itself")
        moved = [p for p in self.kind if p == src or p.startswith(src + "/")]
        for p in moved:
            self.kind[dst + p[len(src):]] = self.kind.pop(p)


class MetadataStoreMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.md = MetadataStore()
        self.oracle = NamespaceOracle()


    def both(self, fn_md, fn_oracle, *paths):
        """Apply to both; they must agree on success/failure."""
        md_err = oracle_err = None
        try:
            fn_md(*paths)
        except FsError:
            md_err = True
        try:
            fn_oracle(*paths)
        except FsError:
            oracle_err = True
        assert md_err == oracle_err, (
            f"divergence on {paths}: store_err={md_err} oracle_err={oracle_err}"
        )

    @rule(d=st.sampled_from(DIRS), name=st.sampled_from(NAMES))
    def do_mkdir(self, d, name):
        path = ("/" + d + "/" + name).replace("//", "/")
        self.both(self.md.mkdir, self.oracle.mkdir, path)

    @rule(d=st.sampled_from(DIRS), name=st.sampled_from(NAMES))
    def do_create(self, d, name):
        path = ("/" + d + "/" + name).replace("//", "/")
        self.both(self.md.create, self.oracle.create, path)

    @rule(sd=st.sampled_from(DIRS), sname=st.sampled_from(NAMES),
          dd=st.sampled_from(DIRS), dname=st.sampled_from(NAMES))
    def do_rename(self, sd, sname, dd, dname):
        src = ("/" + sd + "/" + sname).replace("//", "/")
        dst = ("/" + dd + "/" + dname).replace("//", "/")
        self.both(self.md.rename, self.oracle.rename, src, dst)

    @rule(d=st.sampled_from(DIRS), name=st.sampled_from(NAMES),
          dd=st.sampled_from(DIRS), other=st.sampled_from(NAMES),
          how=st.sampled_from(["out", "into", "itself"]))
    def do_rename_under_cursor(self, d, name, dd, other, how):
        """Create under a directory (parking the store's directory cursor
        there), move an entry out of / into it or move the directory
        itself, then create under its old spelling again."""
        parent = "/" + d
        inside = (parent + "/" + name).replace("//", "/")
        elsewhere = ("/" + dd + "/" + other).replace("//", "/")
        self.both(self.md.create, self.oracle.create, inside)
        src, dst = {
            "out": (inside, elsewhere),
            "into": (elsewhere, inside),
            "itself": (parent, elsewhere),
        }[how]
        self.both(self.md.rename, self.oracle.rename, src, dst)
        again = (parent + "/" + other).replace("//", "/")
        self.both(self.md.create, self.oracle.create, again)

    @rule(d=st.sampled_from(DIRS), name=st.sampled_from(NAMES))
    def do_exists(self, d, name):
        path = ("/" + d + "/" + name).replace("//", "/")
        assert self.md.exists(path) == (path in self.oracle.kind), path

    @rule(d=st.sampled_from(DIRS), name=st.sampled_from(NAMES))
    def do_unlink(self, d, name):
        path = ("/" + d + "/" + name).replace("//", "/")
        self.both(self.md.unlink, self.oracle.unlink, path)

    @rule(d=st.sampled_from(DIRS), name=st.sampled_from(NAMES))
    def do_rmdir(self, d, name):
        path = ("/" + d + "/" + name).replace("//", "/")
        self.both(self.md.rmdir, self.oracle.rmdir, path)

    @invariant()
    def namespaces_match(self):
        for path, kind in self.oracle.kind.items():
            if path == "/":
                continue
            inode = self.md.resolve(path)
            assert (inode.is_dir and kind == "dir") or (
                inode.is_file and kind == "file"
            ), f"{path}: kind mismatch"
        # and nothing extra exists in the store
        store_paths = {
            self.md.path_of(ino)
            for ino in self.md.inodes
            if ino != 1
        }
        assert store_paths == set(self.oracle.kind) - {"/"}

    @invariant()
    def listings_match(self):
        for path, kind in list(self.oracle.kind.items()):
            if kind != "dir":
                continue
            expect = sorted(
                p.rsplit("/", 1)[-1] for p in self.oracle.children(path)
            )
            assert self.md.listdir(path) == expect


MetadataStoreMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
TestMetadataStoreModel = MetadataStoreMachine.TestCase
