"""The chaos smoke CLI: exit codes and the per-run journal dumps."""

from __future__ import annotations

from repro.chaos import smoke
from repro.chaos.runner import ChaosRunner
from repro.chaos.scenarios import SCENARIOS


def test_trace_dir_holds_each_runs_journal_dump(tmp_path, capsys):
    out = tmp_path / "journals"
    code = smoke.main(
        ["--scenario", "torn_upload_retry_storm", "--seeds", "0", "--trace-dir", str(out)]
    )
    assert code == 0
    assert "1 run(s), 0 failure(s)" in capsys.readouterr().out
    assert [path.name for path in out.iterdir()] == ["torn_upload_retry_storm-seed0.journal"]
    rerun = ChaosRunner("torn_upload_retry_storm", seed=0).run()
    assert (out / "torn_upload_retry_storm-seed0.journal").read_text() == rerun.journal.dump()


def test_unknown_scenario_exits_2_without_running(tmp_path, capsys):
    out = tmp_path / "journals"
    assert smoke.main(["--scenario", "no_such_scenario", "--trace-dir", str(out)]) == 2
    assert "no_such_scenario" in capsys.readouterr().err
    assert not out.exists()


def test_list_names_every_scenario(capsys):
    assert smoke.main(["--list"]) == 0
    listed = [line.split(":", 1)[0] for line in capsys.readouterr().out.splitlines()]
    assert listed == sorted(SCENARIOS)
