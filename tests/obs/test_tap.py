"""The observer tap: routing, the fixed vocabulary, subscriber turnover."""

import pytest

from repro.cluster import Cluster
from repro.conformance.recorder import HistoryRecorder
from repro.obs import Observability
from repro.obs.core import SECTION_TABLE
from repro.obs.tap import MARKS, SECTIONS, Tap


class _Listener:
    def __init__(self, sections=(), marks=()):
        self.tap_sections = sections
        self.calls = []
        self.tap_marks = {
            kind: (lambda actor, detail, kind=kind:
                   self.calls.append(("mark", kind, actor, detail)))
            for kind in marks
        }

    def begin(self, name, daemon, mechanism, fields):
        self.calls.append(("begin", name, daemon, mechanism, fields))
        return len(self.calls)

    def end(self, token, result):
        self.calls.append(("end", token, result))


def test_routes_only_what_a_subscriber_asked_for():
    a = _Listener(sections=("osd.write",), marks=("crash",))
    b = _Listener(marks=("crash", "visible"))
    tap = Tap([a, b])
    section = tap.begin("osd.write", "osd.0", "rados", obj="o")
    tap.end(section, extra=1)
    assert tap.begin("osd.read", "osd.0", "rados", obj="o") is None
    tap.mark("crash", "mds0", lost=2)
    tap.mark("visible", "mds0", path="/p")
    tap.mark("submit", "mds0")  # in the vocabulary, nobody listening
    assert a.calls == [
        ("begin", "osd.write", "osd.0", "rados", {"obj": "o"}),
        ("end", 1, {"extra": 1}),
        ("mark", "crash", "mds0", {"lost": 2}),
    ]
    assert b.calls == [
        ("mark", "crash", "mds0", {"lost": 2}),
        ("mark", "visible", "mds0", {"path": "/p"}),
    ]


def test_names_outside_the_vocabulary_are_rejected():
    with pytest.raises(KeyError, match="osd.scrub"):
        Tap([_Listener(sections=("osd.scrub",))])
    with pytest.raises(KeyError, match="scrubbed"):
        Tap([_Listener(marks=("scrubbed",))])
    tap = Tap([_Listener()])
    with pytest.raises(KeyError):
        tap.begin("osd.scrub", "osd.0", "rados")
    with pytest.raises(KeyError):
        tap.mark("scrubbed", "osd.0")


def test_the_two_subscribers_cover_the_vocabulary():
    cluster = Cluster(seed=0)
    obs, recorder = Observability(cluster), HistoryRecorder(cluster)
    assert set(SECTION_TABLE) == set(SECTIONS)
    assert set(recorder.tap_sections) <= set(SECTIONS)
    assert set(obs.tap_marks) | set(recorder.tap_marks) == set(MARKS)


def test_a_section_ends_at_the_subscribers_that_saw_it_begin():
    cluster = Cluster(seed=0)
    listener = _Listener(sections=("client.rpc",))
    cluster.attach_observer(listener)
    with pytest.raises(RuntimeError):
        cluster.attach_observer(listener)
    tap = cluster.tap
    section = tap.begin("client.rpc", "client1", "rpc", op="stat")
    cluster.detach_observer(listener)
    assert cluster.tap is None
    tap.end(section, ok=True)
    assert listener.calls[-1] == ("end", 1, {"ok": True})
