"""ScheduleController: replay, clamping, expose modes, rendering."""

import pytest

from repro.analysis.schedule import (
    Alternative,
    Decision,
    ScheduleController,
)
from repro.sim.engine import Engine, Timeout


def _two_client_engine(schedule=(), expose="tagged", tag_b="b"):
    """Two tagged processes racing at the same instant; returns the
    execution order and the controller."""
    eng = Engine()
    ctl = ScheduleController(eng, schedule=schedule, expose=expose)
    order = []

    def prog(tag):
        yield Timeout(eng, 1.0)
        order.append(tag)

    pa = eng.process(prog("a"), name="a")
    pb = eng.process(prog("b"), name="b")
    ctl.tag_process(pa, "a")
    ctl.tag_process(pb, tag_b)
    ctl.attach()
    eng.run()
    ctl.detach()
    return order, ctl


# -- decision recording and replay ------------------------------------------


def test_empty_schedule_takes_default_order():
    order, ctl = _two_client_engine(schedule=())
    assert order == ["a", "b"]
    assert all(c == 0 for c in ctl.taken)


def test_schedule_flips_a_cross_client_tie():
    order0, ctl0 = _two_client_engine(schedule=())
    assert len(ctl0.decisions) >= 1
    flipped = tuple(
        1 if i == 0 else 0 for i in range(len(ctl0.taken))
    )
    order1, ctl1 = _two_client_engine(schedule=flipped)
    assert order1 == list(reversed(order0))


def test_replaying_taken_reproduces_decisions():
    _, ctl0 = _two_client_engine(schedule=(1,))
    order1, ctl1 = _two_client_engine(schedule=tuple(ctl0.taken))
    assert ctl1.taken == ctl0.taken
    assert [d.chosen for d in ctl1.decisions] == \
        [d.chosen for d in ctl0.decisions]


def test_out_of_range_choice_clamps_to_default():
    order, ctl = _two_client_engine(schedule=(99,))
    assert order == ["a", "b"]
    assert ctl.taken[0] == 0


def test_expose_tagged_skips_same_client_ties():
    # Both processes share one tag: no cross-client tie exists, so no
    # decision is recorded and the schedule is never consumed.
    order, ctl = _two_client_engine(schedule=(1,), tag_b="a")
    assert ctl.decisions == []
    assert ctl.taken == []
    assert order == ["a", "b"]


def test_expose_all_records_every_tie():
    order, ctl = _two_client_engine(schedule=(), expose="all", tag_b="a")
    assert len(ctl.decisions) >= 1


def test_expose_validation():
    with pytest.raises(ValueError):
        ScheduleController(Engine(), expose="sometimes")


def test_decision_alternatives_carry_tags_and_targets():
    eng = Engine()
    ctl = ScheduleController(eng)
    done = []

    def prog(tag):
        yield Timeout(eng, 1.0)
        done.append(tag)

    pa = eng.process(prog("a"), name="client-a")
    pb = eng.process(prog("b"), name="client-b")
    ctl.tag_process(pa, "a")
    ctl.tag_process(pb, "b")
    ctl.set_target("a", "/job/x")
    ctl.set_target("b", "/job/y", rpc=True)
    ctl.attach()
    eng.run()
    ctl.detach()
    (dec,) = ctl.decisions[:1]
    tags = {alt.tag for alt in dec.alts}
    assert tags == {"a", "b"}
    by_tag = {alt.tag: alt for alt in dec.alts}
    assert by_tag["a"].path == "/job/x" and not by_tag["a"].rpc
    assert by_tag["b"].path == "/job/y" and by_tag["b"].rpc
    assert "decision" in dec.render()


def test_children_inherit_spawner_tag():
    eng = Engine()
    ctl = ScheduleController(eng)
    seen = {}

    def child():
        yield Timeout(eng, 0.5)

    def parent():
        yield Timeout(eng, 1.0)
        proc = eng.process(child(), name="child")
        seen["child"] = proc

    p = eng.process(parent(), name="parent")
    ctl.tag_process(p, "owner")
    ctl.attach()
    eng.run()
    ctl.detach()
    assert ctl._tags[seen["child"]] == "owner"


def test_detach_restores_engine():
    eng = Engine()
    orig_process = eng.process
    ctl = ScheduleController(eng).attach()
    assert eng.scheduler is ctl
    assert eng.process is not orig_process
    ctl.detach()
    assert eng.scheduler is None
    assert eng.process == orig_process


# -- rendering --------------------------------------------------------------


def test_decision_render_prints_declared_targets():
    # Every counterexample carries these lines, so their bytes are pinned.
    dec = Decision(index=2, t=0.5, size=3, chosen=1, alts=[
        Alternative(label="owner:model-owner", tag="owner",
                    path="/job/x", rpc=False),
        Alternative(label="intf:model-intf", tag="intf",
                    path="/job/i0", rpc=True),
        Alternative(label="-:Event", tag=None, path=None, rpc=False),
    ])
    assert dec.render() == (
        "decision 2 at t=0.500000000 (3 ready):\n"
        "   [0] owner:model-owner (op /job/x)\n"
        "  *[1] intf:model-intf (rpc /job/i0)\n"
        "   [2] -:Event (op ?)"
    )
