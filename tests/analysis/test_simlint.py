"""simlint rule, suppression, and CLI behavior against the fixtures."""

from pathlib import Path

import pytest

from repro.analysis.__main__ import main as cli_main
from repro.analysis.simlint import lint_paths, lint_source

FIXTURES = Path(__file__).parent / "fixtures"

RULE_FIXTURES = {
    "wall-clock": "bad_wall_clock.py",
    "global-random": "bad_global_random.py",
    "unordered-iter": "bad_unordered_iter.py",
    "float-accum": "bad_float_accum.py",
    "yieldless-process": "bad_yieldless.py",
    "shared-state": "bad_shared_state.py",
    "hash-order-key": "bad_hash_order_key.py",
    "unsorted-listdir": "bad_unsorted_listdir.py",
    "engine-internal-access": "bad_engine_internal.py",
}


@pytest.mark.parametrize("rule_id,fixture", sorted(RULE_FIXTURES.items()))
def test_each_rule_fires_on_its_fixture(rule_id, fixture):
    report = lint_paths([str(FIXTURES / fixture)])
    assert not report.ok
    assert {f.rule for f in report.findings} == {rule_id}
    for f in report.findings:
        assert f.path.endswith(fixture)
        assert f.line > 0


@pytest.mark.parametrize("rule_id,fixture", sorted(RULE_FIXTURES.items()))
def test_cli_exits_nonzero_per_rule_fixture(rule_id, fixture, capsys):
    assert cli_main([str(FIXTURES / fixture)]) == 1
    out = capsys.readouterr().out
    assert rule_id in out


def test_clean_fixture_passes():
    report = lint_paths([str(FIXTURES / "clean.py")])
    assert report.ok
    assert report.files_checked == 1


def test_suppressions_honored_and_counted():
    report = lint_paths([str(FIXTURES / "suppressed_ok.py")])
    assert report.ok
    assert len(report.suppressed) == 2
    assert {f.rule for f in report.suppressed} == {"wall-clock", "float-accum"}
    counts = report.suppression_counts
    assert len(counts) == 2
    assert all(n == 1 for n in counts.values())


def test_unused_suppression_is_a_finding():
    report = lint_paths([str(FIXTURES / "unused_suppression.py")])
    assert [f.rule for f in report.findings] == ["unused-suppression"]


def test_unknown_rule_in_suppression_is_a_finding():
    report = lint_source(
        "x = 1  # simlint: ignore[no-such-rule]\n", "inline.py"
    )
    assert [f.rule for f in report.findings] == ["unknown-suppression"]


def test_standalone_comment_covers_next_line():
    src = (
        "import time\n"
        "# simlint: ignore[wall-clock] host-side justification\n"
        "t = time.time()\n"
    )
    report = lint_source(src, "inline.py")
    assert report.ok
    assert len(report.suppressed) == 1


def test_suppression_does_not_cover_other_rules():
    src = "import time\nt = time.time()  # simlint: ignore[float-accum] wrong rule\n"
    report = lint_source(src, "inline.py")
    rules = sorted(f.rule for f in report.findings)
    # The wall-clock finding survives and the mismatch is flagged stale.
    assert rules == ["unused-suppression", "wall-clock"]


def test_syntax_error_reported_as_finding():
    report = lint_source("def broken(:\n", "inline.py")
    assert [f.rule for f in report.findings] == ["syntax-error"]


def test_rule_selection_subset():
    report = lint_paths(
        [str(FIXTURES / "bad_wall_clock.py")], rules=["float-accum"]
    )
    assert report.ok  # wall-clock violations invisible to a float-accum run
    with pytest.raises(ValueError):
        lint_paths([str(FIXTURES)], rules=["no-such-rule"])


def test_seeded_default_rng_is_allowed():
    report = lint_source(
        "import numpy as np\ngen = np.random.default_rng(42)\n", "inline.py"
    )
    assert report.ok


def test_order_free_reducers_not_flagged():
    src = (
        "def f(d):\n"
        "    return any(v for v in d.values()), max(d.keys()), len(d)\n"
    )
    report = lint_source(src, "inline.py")
    assert report.ok


def test_directory_walk_collects_all_fixtures():
    report = lint_paths([str(FIXTURES)])
    assert report.files_checked == len(list(FIXTURES.glob("*.py")))
    assert not report.ok


def test_cli_rules_and_usage(capsys):
    assert cli_main(["rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in RULE_FIXTURES:
        assert rule_id in out
    assert cli_main([]) == 2
    assert cli_main(["lint"]) == 2
    assert cli_main(["lint", "--rules"]) == 2
    assert cli_main([str(FIXTURES / "no_such_file.py")]) == 2


def test_engine_internal_access_exempt_inside_sim_kernel():
    src = "def f(engine):\n    return engine._heap[0]\n"
    # The kernel package owns the fields; everyone else is flagged.
    assert lint_source(src, "src/repro/sim/engine.py").ok
    report = lint_source(src, "src/repro/mds/server.py")
    assert [f.rule for f in report.findings] == ["engine-internal-access"]


def test_sorted_listings_and_stable_keys_are_clean():
    src = (
        "import os\n"
        "from pathlib import Path\n"
        "def f(root, names, table):\n"
        "    for n in sorted(os.listdir(root)):\n"
        "        yield n\n"
        "    count = sum(1 for _ in Path(root).iterdir())\n"
        "    h = hash(root)  # not a sort key\n"
        "    return sorted(names, key=str.lower), count, h\n"
    )
    report = lint_source(src, "inline.py")
    assert report.ok


def test_new_rules_honor_suppressions_with_stats():
    src = (
        "import os\n"
        "def f(root, xs):\n"
        "    for n in os.listdir(root):  "
        "# simlint: ignore[unsorted-listdir] host-side tooling\n"
        "        print(n)\n"
        "    return sorted(xs, key=id)  "
        "# simlint: ignore[hash-order-key] debug dump only\n"
    )
    report = lint_source(src, "inline.py")
    assert report.ok
    assert {f.rule for f in report.suppressed} == {
        "unsorted-listdir", "hash-order-key",
    }
    assert len(report.suppression_counts) == 2
