"""Tests for JSON artifact export/import and the bench CLI."""

import json


from repro.bench.harness import ExperimentResult, Series
from repro.bench.report import dump_json, load_json


def sample():
    return ExperimentResult(
        "figX", "demo", "clients", "speedup",
        series=[Series("a", [1, 2], [1.0, 2.5], [0.0, 0.1])],
        notes=["hello"],
        meta={"scale": "tiny", "ops": 100, "skip_me": object()},
    )


def test_dump_and_load_round_trip(tmp_path):
    path = dump_json(sample(), tmp_path)
    assert path.name == "figX.json"
    loaded = load_json(path)
    assert loaded.exp_id == "figX"
    assert loaded.get("a").y == [1.0, 2.5]
    assert loaded.get("a").yerr == [0.0, 0.1]
    assert loaded.notes == ["hello"]
    assert loaded.meta["scale"] == "tiny"
    assert "skip_me" not in loaded.meta  # non-serializable meta dropped


def test_dump_to_explicit_file(tmp_path):
    path = dump_json(sample(), tmp_path / "custom.json")
    assert path.name == "custom.json"
    assert json.loads(path.read_text())["exp_id"] == "figX"


def test_cli_writes_artifacts(tmp_path, monkeypatch, capsys):
    from repro.bench.__main__ import main

    monkeypatch.setenv("REPRO_SCALE", "tiny")
    rc = main(["--json", str(tmp_path), "fig6c"])
    assert rc == 0
    artifact = tmp_path / "fig6c.json"
    assert artifact.exists()
    loaded = load_json(artifact)
    assert loaded.exp_id == "fig6c"
    out = capsys.readouterr().out
    assert "fig6c" in out


def test_cli_rejects_unknown_experiment(monkeypatch, capsys):
    from repro.bench.__main__ import main

    monkeypatch.setenv("REPRO_SCALE", "tiny")
    assert main(["not_an_experiment"]) == 2


def test_cli_json_requires_dir(capsys):
    from repro.bench.__main__ import main

    assert main(["--json"]) == 2


def test_format_result_of_loaded_artifact_matches_original(tmp_path):
    """format_result + dump_json/load_json round-trip: rendering the
    reloaded result is identical to rendering the original."""
    from repro.bench.report import format_result

    original = sample()
    loaded = load_json(dump_json(original, tmp_path))
    assert format_result(loaded) == format_result(original)


def test_cli_unknown_experiment_does_not_create_json_dir(tmp_path, capsys):
    from repro.bench.__main__ import main

    target = tmp_path / "artifacts"
    assert main(["--json", str(target), "not_an_experiment"]) == 2
    assert not target.exists()


def test_cli_unknown_scale_exits_2_and_creates_nothing(tmp_path,
                                                       monkeypatch, capsys):
    from repro.bench.__main__ import main

    monkeypatch.setenv("REPRO_SCALE", "huge")
    target = tmp_path / "artifacts"
    assert main(["--json", str(target), "fig2"]) == 2
    assert "unknown scale 'huge'" in capsys.readouterr().err
    assert not target.exists()


def test_cli_jobs_requires_integer(capsys):
    from repro.bench.__main__ import main

    assert main(["--jobs"]) == 2
    assert main(["--jobs", "many"]) == 2


def test_cli_compare_missing_file_exits_2(tmp_path, capsys):
    from repro.bench.__main__ import main

    assert main(["compare", str(tmp_path / "a.json"),
                 str(tmp_path / "b.json")]) == 2
    assert "missing artifact" in capsys.readouterr().err


def test_cli_compare_malformed_json_exits_2(tmp_path, capsys):
    from repro.bench.__main__ import main

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    good = dump_json(sample(), tmp_path)
    assert main(["compare", str(bad), str(good)]) == 2
    assert "malformed" in capsys.readouterr().err


def test_cli_compare_missing_keys_exits_2(tmp_path, capsys):
    from repro.bench.__main__ import main

    bad = tmp_path / "empty.json"
    bad.write_text("{}")
    good = dump_json(sample(), tmp_path)
    assert main(["compare", str(bad), str(good)]) == 2


def test_cli_compare_bad_tolerance_exits_2(tmp_path, capsys):
    from repro.bench.__main__ import main

    good = dump_json(sample(), tmp_path)
    assert main(["compare", str(good), str(good), "lots"]) == 2
