"""Unit tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main


class TestCLI:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Dagum" in out
        assert "7.2" in out

    def test_timing_model(self, capsys):
        assert main(["timing", "--processors", "1024"]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.strip() and l.strip()[0].isdigit()]
        assert len(lines) == 5
        # Monotone decline of us/particle down the VPR column.
        times = [float(l.split()[-1]) for l in lines]
        assert all(a > b for a, b in zip(times, times[1:]))

    def test_heatbath_small(self, capsys):
        assert main([
            "heatbath", "--particles", "2000", "--cells", "20",
            "--steps", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "mcdonald-baganoff" in out
        assert "bird-time-counter" in out
        assert "nanbu-ploss" in out

    def test_wedge_small(self, capsys, tmp_path):
        save = tmp_path / "field.npz"
        code = main([
            "wedge", "--nx", "49", "--ny", "32", "--density", "10",
            "--transient", "180", "--average", "180",
            "--save", str(save),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "shock angle" in out
        assert save.exists()
        rho = np.load(save)["density_ratio"]
        assert rho.shape == (49, 32)

    def test_wedge_vtk_export(self, capsys, tmp_path):
        vtk = tmp_path / "field.vtk"
        code = main([
            "wedge", "--nx", "40", "--ny", "26", "--density", "6",
            "--transient", "40", "--average", "40",
            "--vtk", str(vtk),
        ])
        assert code == 0
        text = vtk.read_text()
        assert "STRUCTURED_POINTS" in text
        assert "SCALARS density_ratio" in text
        assert "SCALARS mach" in text

    def test_wedge_unconverged_degrades_gracefully(self, capsys):
        code = main([
            "wedge", "--nx", "30", "--ny", "20", "--density", "2",
            "--transient", "3", "--average", "3",
        ])
        assert code == 0  # prints a diagnostic instead of crashing

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["fly"])

    def test_invalid_configuration_is_a_clean_error(self, capsys):
        # A library failure exits 2 with one "error:" line, no traceback.
        assert main(["wedge", "--nx", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "2x2" in err
        assert "Traceback" not in err


class TestRunSubcommand:
    def test_list_scenarios(self, capsys):
        assert main(["run", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("wedge", "flat_plate", "cylinder", "channel",
                     "impulsive_start", "wedge3d"):
            assert name in out

    def test_no_scenario_prints_usage(self, capsys):
        assert main(["run"]) == 2
        assert "repro run" in capsys.readouterr().err

    def test_unknown_scenario_lists_registered(self, capsys):
        assert main(["run", "nope"]) == 2
        assert "cylinder" in capsys.readouterr().err

    def test_smoke_run_cylinder(self, capsys):
        assert main(["run", "cylinder", "--steps", "15"]) == 0
        out = capsys.readouterr().out
        assert "peak compression" in out

    def test_smoke_run_3d(self, capsys):
        assert main(["run", "wedge3d", "--steps", "10"]) == 0
        out = capsys.readouterr().out
        assert "grid 40x26x4, 1 worker(s)" in out

    def test_3d_accepts_infrastructure_flags(self, capsys, tmp_path):
        """The slab is a domain of the one driver: every run mode the
        2-D scenarios have, it has."""
        run_dir = str(tmp_path / "run")
        smoke = ["run", "wedge3d", "--steps", "20"]
        assert main(smoke + [
            "--supervised", "--run-dir", run_dir, "--checkpoint-every", "10",
            "--audit-every", "10", "--telemetry",
        ]) == 0
        assert (tmp_path / "run" / "events.jsonl").exists()
        assert "supervised run dir" in capsys.readouterr().out
        assert main(["run", "wedge3d", "--resume", run_dir]) == 0
        assert "finished at step 20" in capsys.readouterr().out
        assert main(smoke + ["--workers", "2"]) == 0
        assert "grid 40x26x4, 2 worker(s)" in capsys.readouterr().out

    def test_run_wedge_output_matches_wedge_alias(self, capsys):
        """The alias contract: 'wedge' and 'run wedge' with the same
        parameters produce identical reports (same RNG stream, same
        field, same metrology)."""
        flags = [
            "--nx", "49", "--ny", "32", "--density", "8",
            "--transient", "60", "--average", "80", "--seed", "5",
        ]
        assert main(["wedge"] + flags) == 0
        legacy = capsys.readouterr().out
        assert main(["run", "wedge"] + flags) == 0
        registry = capsys.readouterr().out
        strip = lambda text: [  # noqa: E731
            ln for ln in text.splitlines() if "steps in" not in ln
        ]
        assert strip(legacy) == strip(registry)


class TestEnsembleRun:
    def test_replicas_reports_confidence_intervals(self, capsys):
        code = main([
            "run", "wedge", "--replicas", "2", "--nx", "32", "--ny", "20",
            "--density", "6", "--steps", "10", "--seed", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 replicas" in out
        # Whatever metrology succeeded is reported as a t-interval.
        assert "CI, n=2" in out or "metrology unavailable" in out

    def test_replicas_below_one_rejected(self, capsys):
        assert main(["run", "wedge", "--replicas", "0"]) == 2
        assert "--replicas" in capsys.readouterr().err

    def test_replicas_rejects_workers(self, capsys):
        assert main([
            "run", "wedge", "--replicas", "2", "--workers", "2",
            "--steps", "5",
        ]) == 2
        assert "--workers" in capsys.readouterr().err

    def test_replicas_runs_3d_scenario(self, capsys):
        # The slab's replicas are blocks like any other's.
        assert main([
            "run", "wedge3d", "--replicas", "2", "--steps", "5",
        ]) == 0
        assert "grid 40x26x4, 1 worker(s), 2 replicas" in (
            capsys.readouterr().out
        )

    def test_replicas_supervised_resume_and_vtk(self, capsys, tmp_path):
        """--replicas goes wherever a run goes: supervised, resumed (the
        replicas come back from the checkpoint) and exported."""
        run_dir = str(tmp_path / "run")
        vtk = tmp_path / "mean.vtk"
        assert main([
            "run", "wedge", "--replicas", "2", "--nx", "49", "--ny", "32",
            "--density", "8", "--transient", "60", "--average", "60",
            "--supervised", "--run-dir", run_dir, "--checkpoint-every", "25",
            "--audit-every", "10", "--vtk", str(vtk),
        ]) == 0
        first = capsys.readouterr().out
        assert "2 replicas" in first and "supervised run dir" in first
        assert "CI, n=2" in first
        assert "SCALARS temperature_ratio" in vtk.read_text()
        # Drop the newest checkpoint: the resume replays the tail.
        ckpts = sorted((tmp_path / "run").glob("ckpt_*.npz"))
        ckpts[-1].unlink()
        assert main(["run", "wedge", "--resume", run_dir]) == 0
        resumed = capsys.readouterr().out
        assert "finished at step 120" in resumed
        strip = lambda text: [  # noqa: E731
            ln for ln in text.splitlines() if "CI, n=2" in ln
        ]
        assert strip(resumed) == strip(first)
