"""End-to-end command-line behavior, driven in-process through main()."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dendrosim
from dendrosim import SimParams
from dendrosim.cli import PRESETS, main
from dendrosim.io import (
    CONFIG_KEYS,
    DIAGNOSTICS_HEADER,
    read_manifest,
    read_snapshot,
    write_snapshot,
)

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")

BASE = ["--set", "nx=24", "--set", "ny=24", "--set", "total_steps=30",
        "--set", "snapshot_every=15", "--set", "diagnostics_every=10"]


def run_files(outdir):
    return sorted(p.name for p in outdir.iterdir())


def tree_bytes(outdir, skip=("manifest.json",)):
    return {
        p.name: p.read_bytes()
        for p in sorted(outdir.iterdir())
        if p.name not in skip
    }


class TestRun:
    def test_zero_steps_emits_single_snapshot(self, tmp_path):
        out = tmp_path / "o"
        assert main(["run", "--set", "total_steps=0", "--set", "nx=16",
                     "--set", "ny=16", "--out", str(out)]) == 0
        assert run_files(out) == [
            "diagnostics.csv", "manifest.json", "phi_000000.pfds",
            "phi_final.pgm", "temp_000000.pfds",
        ]
        field, meta = read_snapshot(out / "phi_000000.pfds")
        assert meta["step"] == 0
        assert (field.nx, field.ny) == (16, 16)
        assert (out / "diagnostics.csv").read_text().count("\n") == 2

    def test_short_run_artifacts_and_cadence(self, tmp_path):
        out = tmp_path / "o"
        assert main(["run", *BASE, "--out", str(out)]) == 0
        names = run_files(out)
        for step in (0, 15, 30):
            assert f"phi_{step:06d}.pfds" in names
            assert f"temp_{step:06d}.pfds" in names
        csv = (out / "diagnostics.csv").read_text().splitlines()
        assert csv[0] == DIAGNOSTICS_HEADER
        assert [int(line.split(",")[0]) for line in csv[1:]] == [0, 10, 20, 30]
        manifest = read_manifest(out / "manifest.json")
        assert sorted(manifest["outputs"]) == names
        assert manifest["params"]["nx"] == 24
        assert "dendrosim" in manifest["versions"]

    def test_grid_too_large_to_allocate_exits_1(self, tmp_path, capsys, monkeypatch):
        message = "Unable to allocate 7.28 PiB for an array with shape (1000000, 1000000)"

        def no_memory(params, **sinks):
            raise MemoryError(message)

        monkeypatch.setattr(dendrosim.cli, "run", no_memory)
        assert main(["run", *BASE, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    def test_success_summary_printed(self, tmp_path, capsys):
        out = tmp_path / "o"
        main(["run", *BASE, "--out", str(out)])
        assert "completed 30 steps" in capsys.readouterr().out

    def test_unstable_step_rejected(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["run", "--set", "dt=1.0", "--out", str(out)])
        assert code == 2
        assert "stability" in capsys.readouterr().err

    def test_force_overrides_stability_gate(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["run", *BASE, "--set", "dt=3.4e-4", "--force", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert "warning" in captured.err
        assert (out / "phi_final.pgm").exists()

    def test_unknown_override_key(self, tmp_path, capsys):
        assert main(["run", "--set", "latent_heta=2.0", "--out", str(tmp_path / "o")]) == 2
        assert "latent_heta" in capsys.readouterr().err

    def test_malformed_override(self, tmp_path, capsys):
        assert main(["run", "--set", "nx", "--out", str(tmp_path / "o")]) == 2
        assert "KEY=VALUE" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_config_file_and_overrides_layer(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nx = 20\nny = 20\ntotal_steps = 4\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--set", "ny=16",
                     "--out", str(out)]) == 0
        manifest = read_manifest(out / "manifest.json")
        assert manifest["params"]["nx"] == 20
        assert manifest["params"]["ny"] == 16

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_blowup_reports_failure_but_keeps_partial_outputs(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["run", "--set", "nx=16", "--set", "ny=16", "--set", "dt=1.0",
                     "--set", "total_steps=400", "--set", "snapshot_every=1000",
                     "--force", "--out", str(out)])
        assert code == 1
        assert "non-finite" in capsys.readouterr().err
        names = run_files(out)
        assert "diagnostics.csv" in names
        assert "manifest.json" in names
        assert "phi_final.pgm" not in names
        # last-good state was flushed before the error propagated
        last = max(n for n in names if n.startswith("phi_"))
        field, meta = read_snapshot(out / last)
        assert meta["step"] > 0
        assert np.isfinite(field.data).all()


class TestDeterminism:
    def test_identical_invocations_identical_bytes(self, tmp_path):
        noise = ["--set", "noise_amp=0.01", "--set", "rng_seed=7"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", *BASE, *noise, "--out", str(a)]) == 0
        assert main(["run", *BASE, *noise, "--out", str(b)]) == 0
        assert tree_bytes(a) == tree_bytes(b)


class TestCheck:
    def parse(self, out):
        values = {}
        for line in out.splitlines():
            if " = " in line:
                key, _, value = line.partition(" = ")
                values[key] = value
        return values

    def test_default_parameters_stable(self, capsys):
        assert main(["check"]) == 0
        values = self.parse(capsys.readouterr().out)
        assert values["stable"] == "true"
        assert float(values["dt_max_thermal"]) == pytest.approx(3.375e-4, rel=1e-12)
        assert float(values["dt_max_phase"]) > float(values["dt_max_thermal"])
        assert int(values["cell_updates"]) == 500 * 500 * 2000
        assert values["nx"] == "500"

    def test_unstable_step_flagged(self, capsys):
        assert main(["check", "--set", "dt=5e-4"]) == 1
        assert self.parse(capsys.readouterr().out)["stable"] == "false"

    def test_isotropic_config_loosens_phase_bound(self, capsys):
        main(["check"])
        dt_aniso = float(self.parse(capsys.readouterr().out)["dt_max_phase"])
        main(["check", "--set", "delta=0.0"])
        dt_iso = float(self.parse(capsys.readouterr().out)["dt_max_phase"])
        assert dt_iso > dt_aniso

    def test_config_error_exits_two(self, capsys):
        assert main(["check", "--set", "bogus=1"]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_non_utf8_config_file_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"nx = 64\n# caf\xe9\n")
        assert main(["check", "--config", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_desk_preset_resolves_grid(self, capsys):
        assert main(["check", "--preset", "desk"]) == 0
        values = self.parse(capsys.readouterr().out)
        assert (values["nx"], values["ny"]) == ("300", "300")
        assert values["total_steps"] == "1500"

    def test_hexagonal_preset_resolves_schedule(self, capsys):
        assert main(["check", "--preset", "paper-s6"]) == 0
        values = self.parse(capsys.readouterr().out)
        assert values["j_mode"] == "6"
        assert float(values["dt"]) == 2e-4
        assert values["total_steps"] == "500"


class TestRender:
    @pytest.fixture
    def snapshot(self, tmp_path):
        out = tmp_path / "o"
        main(["run", "--set", "total_steps=0", "--set", "nx=16", "--set", "ny=16",
              "--out", str(out)])
        return out / "phi_000000.pfds"

    def test_pgm_dimensions_match(self, snapshot, tmp_path):
        target = tmp_path / "r.pgm"
        assert main(["render", str(snapshot), "--out", str(target)]) == 0
        assert target.read_bytes().startswith(b"P5\n16 16\n255\n")

    def test_csv_matches_snapshot_bitwise(self, snapshot, tmp_path):
        target = tmp_path / "r.csv"
        assert main(["render", str(snapshot), "--csv", str(target)]) == 0
        field, _ = read_snapshot(snapshot)
        rows = [
            [float(tok) for tok in line.split(",")]
            for line in target.read_text().splitlines()
        ]
        np.testing.assert_array_equal(np.array(rows), field.data)

    def test_requires_a_target(self, snapshot, capsys):
        assert main(["render", str(snapshot)]) == 2
        assert "--out" in capsys.readouterr().err

    def test_truncated_snapshot_fails(self, snapshot, tmp_path, capsys):
        broken = tmp_path / "broken.pfds"
        broken.write_bytes(snapshot.read_bytes()[:-100])
        assert main(["render", str(broken), "--out", str(tmp_path / "r.pgm")]) == 1
        assert "size mismatch" in capsys.readouterr().err

    def test_nan_spacing_snapshot_fails(self, snapshot, tmp_path, capsys):
        broken = tmp_path / "nan.pfds"
        broken.write_bytes(snapshot.read_bytes().replace(b"\ndx 0.03\n", b"\ndx nan\n", 1))
        assert main(["render", str(broken), "--out", str(tmp_path / "r.pgm")]) == 1
        assert "cell spacing must be positive" in capsys.readouterr().err

    def test_nan_cell_snapshot_fails_without_pgm(self, snapshot, tmp_path, capsys):
        field, meta = read_snapshot(snapshot)
        field.data[3, 5] = np.nan
        broken = tmp_path / "nan-cell.pfds"
        write_snapshot(field, broken, name=meta["field"], step=meta["step"], dt=meta["dt"])
        target = tmp_path / "r.pgm"
        assert main(["render", str(broken), "--out", str(target)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot render NaN cell (3, 5)")
        assert "Traceback" not in err
        assert not target.exists()

    def test_missing_snapshot_fails(self, tmp_path, capsys):
        assert main(["render", str(tmp_path / "nope.pfds"),
                     "--out", str(tmp_path / "r.pgm")]) == 1
        assert "error" in capsys.readouterr().err


class TestSweep:
    def test_two_value_sweep_layout(self, tmp_path, capsys):
        out = tmp_path / "s"
        code = main(["sweep", *BASE, "--param", "latent_heat",
                     "--values", "1.0,2.0", "--out", str(out)])
        assert code == 0
        assert (out / "latent_heat=1.0" / "phi_final.pgm").exists()
        assert (out / "latent_heat=2.0" / "phi_final.pgm").exists()
        summary = (out / "sweep_summary.csv").read_text().splitlines()
        assert summary[0] == "value,status,solid_fraction,tip_px,tip_mx,tip_py,tip_my,arm_count"
        assert summary[1].startswith("1.0,ok,")
        assert summary[2].startswith("2.0,ok,")
        assert "2/2 runs ok" in capsys.readouterr().out

    def test_single_value_sweep_matches_plain_run(self, tmp_path):
        run_out = tmp_path / "r"
        sweep_out = tmp_path / "s"
        assert main(["run", *BASE, "--set", "latent_heat=1.4",
                     "--out", str(run_out)]) == 0
        assert main(["sweep", *BASE, "--param", "latent_heat", "--values", "1.4",
                     "--out", str(sweep_out)]) == 0
        sub = sweep_out / "latent_heat=1.4"
        assert tree_bytes(sub) == tree_bytes(run_out)
        assert read_manifest(sub / "manifest.json")["params"] == \
            read_manifest(run_out / "manifest.json")["params"]

    def test_parallel_jobs_reproduce_sequential_summary(self, tmp_path):
        seq, par = tmp_path / "seq", tmp_path / "par"
        args = ["sweep", *BASE, "--param", "delta", "--values", "0.01,0.02,0.03"]
        assert main([*args, "--out", str(seq)]) == 0
        assert main([*args, "--out", str(par), "--jobs", "3"]) == 0
        assert (seq / "sweep_summary.csv").read_bytes() == \
            (par / "sweep_summary.csv").read_bytes()
        for value in ("0.01", "0.02", "0.03"):
            sub = f"delta={value}"
            assert tree_bytes(seq / sub) == tree_bytes(par / sub)

    def test_run_out_of_memory_is_a_failed_row(self, tmp_path, capsys, monkeypatch):
        def no_memory(params, **sinks):
            if params.latent_heat == 2.0:
                raise MemoryError
            return real_run(params, **sinks)

        real_run = dendrosim.cli.run
        monkeypatch.setattr(dendrosim.cli, "run", no_memory)
        out = tmp_path / "s"
        assert main(["sweep", *BASE, "--param", "latent_heat",
                     "--values", "1.0,2.0", "--out", str(out)]) == 1
        summary = (out / "sweep_summary.csv").read_text().splitlines()
        assert summary[1].startswith("1.0,ok,")
        assert summary[2] == "2.0,failed,nan,nan,nan,nan,nan,nan"
        captured = capsys.readouterr()
        assert "error: latent_heat=2.0: MemoryError" in captured.err
        assert "1/2 runs ok" in captured.out

    def test_unknown_parameter_rejected_before_any_run(self, tmp_path, capsys):
        out = tmp_path / "s"
        assert main(["sweep", "--param", "bogus", "--values", "1,2",
                     "--out", str(out)]) == 2
        assert "bogus" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_value_rejected_before_any_run(self, tmp_path, capsys):
        out = tmp_path / "s"
        assert main(["sweep", "--param", "latent_heat", "--values", "1.0,fast",
                     "--out", str(out)]) == 2
        assert "latent_heat" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_value_rejected_before_any_run(self, tmp_path, capsys):
        # both runs would write the one latent_heat=1.0/ directory at once
        out = tmp_path / "s"
        assert main(["sweep", *BASE, "--param", "latent_heat", "--values", "1.0, 1.0",
                     "--jobs", "2", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: repeated --values token '1.0'\n"
        assert not out.exists()

    def test_zero_jobs_rejected_before_any_run(self, tmp_path, capsys):
        out = tmp_path / "s"
        assert main(["sweep", *BASE, "--param", "latent_heat", "--values", "1.0",
                     "--jobs", "0", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: --jobs must be at least 1\n"
        assert not out.exists()

    def test_empty_values_list_rejected_before_any_run(self, tmp_path, capsys):
        out = tmp_path / "s"
        assert main(["sweep", *BASE, "--param", "latent_heat", "--values", ",",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: empty --values list\n"
        assert not out.exists()

    def test_blocked_run_directory_fails_only_that_run(self, tmp_path, capsys):
        out = tmp_path / "s"
        out.mkdir()
        (out / "latent_heat=1.2").write_text("in the way\n")
        code = main(["sweep", *BASE, "--param", "latent_heat", "--values", "1.0,1.2,1.4",
                     "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        summary = (out / "sweep_summary.csv").read_text().splitlines()
        assert [row.split(",")[:2] for row in summary[1:]] == \
            [["1.0", "ok"], ["1.2", "failed"], ["1.4", "ok"]]
        assert "latent_heat=1.2" in captured.err
        assert "2/3 runs ok" in captured.out

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_failed_run_marked_and_others_continue(self, tmp_path, capsys):
        out = tmp_path / "s"
        code = main(["sweep", "--set", "nx=16", "--set", "ny=16",
                     "--set", "total_steps=30", "--param", "noise_amp",
                     "--values", "0.0,1e12", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        summary = (out / "sweep_summary.csv").read_text().splitlines()
        assert summary[1].startswith("0.0,ok,")
        assert summary[2] == "1e12,failed,nan,nan,nan,nan,nan,nan"
        assert "1/2 runs ok" in captured.out
        assert (out / "noise_amp=0.0" / "phi_final.pgm").exists()


class TestTopLevel:
    def test_runtime_loads_no_scipy(self, tmp_path):
        # 300 steps on 48x48 grow a profile whose swing clears the two-cell
        # floor, so the run reaches the spectrum and reads 4 arms
        script = (
            "import sys, dendrosim, dendrosim.cli\n"
            "argv = ['run', '--set', 'nx=48', '--set', 'ny=48', '--set', 'total_steps=300',\n"
            "        '--set', 'diagnostics_every=300', '--set', 'snapshot_every=300',\n"
            "        '--out', sys.argv[1]]\n"
            "assert dendrosim.cli.main(argv) == 0\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(dendrosim.__file__).resolve().parents[1])}
        out = tmp_path / "o"
        proc = subprocess.run([sys.executable, "-c", script, str(out)], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.splitlines()[-1] == "[]"
        last = (out / "diagnostics.csv").read_text().splitlines()[-1]
        assert last.startswith("300,") and last.endswith(",4")

    def test_every_public_name_resolves(self):
        import dendrosim

        missing = [name for name in dendrosim.__all__ if not hasattr(dendrosim, name)]
        assert missing == []

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "dendrosim" in capsys.readouterr().out

    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["explode"]) == 2

    @pytest.mark.parametrize("command", ["run", "sweep", "check"])
    def test_negative_rng_seed_is_config_error(self, command, tmp_path, capsys):
        extra = {
            "run": ["--out", str(tmp_path / "o")],
            "sweep": ["--param", "latent_heat", "--values", "1.0", "--out", str(tmp_path / "s")],
            "check": [],
        }[command]
        assert main([command, *BASE, "--set", "rng_seed=-1", *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "rng_seed" in err

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_output_path_naming_a_file_exits_one_without_traceback(self, command, tmp_path):
        # python -m runs main_entry, as the console script does, so an
        # exception that escaped main would show as a traceback here
        extra = {"run": [], "sweep": ["--param", "latent_heat", "--values", "1.0"]}[command]
        taken = tmp_path / "taken"
        taken.write_text("")
        env = {**os.environ, "PYTHONPATH": str(Path(dendrosim.__file__).resolve().parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "dendrosim.cli", command, *BASE, *extra, "--out", str(taken)],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("setting", ["dx=nan", "tau=nan", "gamma=inf", "seed_radius_sq=nan"])
    @pytest.mark.parametrize("command", ["run", "sweep", "check"])
    def test_non_finite_float_is_config_error(self, command, setting, tmp_path, capsys):
        extra = {
            "run": ["--out", str(tmp_path / "o")],
            "sweep": ["--param", "latent_heat", "--values", "1.0", "--out", str(tmp_path / "s")],
            "check": [],
        }[command]
        assert main([command, *BASE, "--force", "--set", setting, *extra]) == 2
        err = capsys.readouterr().err
        key = setting.partition("=")[0]
        assert err.startswith(f"config error: {key} must be finite")


class TestReadme:
    def test_config_key_block_lists_the_keys_in_order(self):
        section = README.split("\n## Configuration\n", 1)[1]
        block = section.split("```\n", 2)[1]
        assert block.split() == list(CONFIG_KEYS)

    def test_preset_table_names_every_preset(self):
        names = re.findall(r"^\| `([\w-]+)` +\|", README, flags=re.MULTILINE)
        assert names == list(PRESETS)

    def test_defaults_paragraph_matches_simparams(self):
        paragraph = README.split("The baseline defaults are ", 1)[1].split("\n\n", 1)[0]
        text = " ".join(paragraph.split())
        stated = {key: float(value) for key, value in re.findall(r"`(\w+) = ([^`]+)`", text)}
        grid = re.match(r"a (\d+)x(\d+) grid, .*? (\d+) steps, .* squared radius (\d+) cells",
                        text)
        stated.update(zip(("nx", "ny", "total_steps", "seed_radius_sq"), map(float, grid.groups())))
        defaults = SimParams()
        assert len(stated) == 16
        assert stated == {key: getattr(defaults, key) for key in stated}
