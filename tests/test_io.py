"""Config text, snapshot format, PGM, diagnostics CSV, and manifest."""

import os

import numpy as np
import pytest
from hypothesis import given, strategies as st

import reference as R
from dendrosim.diagnostics import DiagnosticsRecord
from dendrosim.io import (
    CONFIG_KEYS,
    DIAGNOSTICS_HEADER,
    SNAPSHOT_MAGIC,
    ConfigError,
    SnapshotFormatError,
    format_config,
    params_from_dict,
    params_to_dict,
    parse_config,
    parse_config_text,
    parse_value,
    read_manifest,
    read_snapshot,
    write_diagnostics_csv,
    write_field_csv,
    write_manifest,
    write_pgm,
    write_snapshot,
)
from dendrosim.lattice import Field
from dendrosim.solver import SimParams


FLOAT_KEYS = [key for key, value in params_to_dict(SimParams()).items()
              if isinstance(value, float)]
HEADER_KEYS = (b"nx", b"ny", b"dx", b"dt", b"step", b"field")
HEADER_VALUES = st.one_of(
    st.sampled_from([b"-4", b"0", b"2", b"3", b"4", b"1e400", b"nan", b"9" * 30]),
    st.binary(max_size=6),
)


def snapshot_bodies():
    """Complete headers with odd values, followed by a payload of whole cells."""
    header = st.tuples(*[HEADER_VALUES] * len(HEADER_KEYS)).map(
        lambda vs: b"".join(k + b" " + v + b"\n" for k, v in zip(HEADER_KEYS, vs))
    )
    payload = st.integers(0, 20).map(lambda n: b"\x00" * (8 * n))
    return st.tuples(header, payload).map(lambda hp: hp[0] + b"\n" + hp[1])


def config_texts():
    """Lines of known keys with arbitrary values, mixed with arbitrary lines."""
    line = st.one_of(
        st.tuples(st.sampled_from(CONFIG_KEYS), st.text(max_size=12)).map(" = ".join),
        st.text(max_size=30),
    )
    return st.lists(line, max_size=6).map("\n".join)


class TestConfigParsing:
    def test_empty_document_yields_defaults(self):
        assert parse_config("") == SimParams()

    def test_comments_and_blanks_ignored(self):
        text = "# latent heat study\n\n   \nlatent_heat = 2.0\n# done\n"
        p = parse_config(text)
        assert p.latent_heat == 2.0
        assert p.nx == 500

    def test_single_override_keeps_other_defaults(self):
        p = parse_config("latent_heat = 2.0\n")
        d = params_to_dict(p)
        base = params_to_dict(SimParams())
        base["latent_heat"] = 2.0
        assert d == base

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_float_rejected(self, key, value):
        # --force too, so no stability bound stands in for the finiteness check
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            parse_config(f"{key} = {value}\n", allow_unstable=True)

    def test_unknown_key_named_in_error(self):
        with pytest.raises(ConfigError, match="latent_heta"):
            parse_config("latent_heta = 2.0\n")

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config("nx = 64\nny = 64\ntotal_steps 5\n")

    @pytest.mark.parametrize(
        "line, key",
        [
            ("nx = 3.5", "nx"),
            ("dt = fast", "dt"),
            ("replicate_appendix_bug = yes", "replicate_appendix_bug"),
            ("divisor_mode = upwind", "divisor_mode"),
            ("j_mode = four", "j_mode"),
        ],
    )
    def test_unparsable_value_names_the_key(self, line, key):
        with pytest.raises(ConfigError, match=key):
            parse_config(line + "\n")

    def test_typed_values(self):
        assert parse_value("nx", " 128 ") == 128
        assert parse_value("dt", "2e-4") == 2e-4
        assert parse_value("replicate_appendix_bug", "true") is True
        assert parse_value("replicate_appendix_bug", "false") is False
        assert parse_value("divisor_mode", "centered") == "centered"

    def test_key_set_is_exactly_the_documented_one(self):
        assert len(CONFIG_KEYS) == 21
        assert set(params_to_dict(SimParams())) == set(CONFIG_KEYS)

    def test_stability_violation_fails_parse(self):
        with pytest.raises(ConfigError, match="stability"):
            parse_config("dt = 5e-4\n")

    def test_stability_violation_allowed_with_flag(self):
        p = parse_config("dt = 5e-4\n", allow_unstable=True)
        assert p.dt == 5e-4

    def test_invariant_violation_reports_the_field(self):
        with pytest.raises(ConfigError, match="alpha"):
            parse_config("alpha = 1.5\n")

    def test_parse_config_text_collects_raw_overrides(self):
        overrides = parse_config_text("nx = 64\nnoise_amp = 0.01\n")
        assert overrides == {"nx": 64, "noise_amp": 0.01}

    def test_unknown_key_in_dict_rejected(self):
        with pytest.raises(ConfigError, match="workers"):
            params_from_dict({"workers": 4})

    @given(st.one_of(st.text(), config_texts()))
    def test_arbitrary_text_raises_only_config_error(self, text):
        try:
            parse_config(text)
        except ConfigError:
            pass


class TestConfigRoundTrip:
    def test_defaults_round_trip(self):
        p = SimParams()
        assert parse_config(format_config(p)) == p

    def test_nondefault_round_trip(self):
        text = "\n".join(
            [
                "nx = 64",
                "ny = 48",
                "dx = 0.05",
                "dt = 0.0002",
                "total_steps = 123",
                "tau = 0.0004",
                "eps_bar = 0.011",
                "delta = 0.02",
                "j_mode = 6",
                "theta0 = 0.0",
                "alpha = 0.8",
                "gamma = 12.0",
                "t_eq = 0.9",
                "latent_heat = 1.4",
                "noise_amp = 0.01",
                "rng_seed = 77",
                "seed_radius_sq = 10.5",
                "divisor_mode = centered",
                "snapshot_every = 50",
                "diagnostics_every = 25",
                "replicate_appendix_bug = true",
            ]
        )
        p = parse_config(text)
        assert p.j_mode == 6
        assert p.replicate_appendix_bug is True
        assert parse_config(format_config(p)) == p

    def test_format_emits_every_key_once_in_order(self):
        lines = format_config(SimParams()).splitlines()
        assert [ln.split(" = ")[0] for ln in lines] == list(CONFIG_KEYS)

    def test_key_order_is_the_documented_one(self):
        # the key list in README, section Configuration
        documented = [
            "nx", "ny", "dx", "dt", "total_steps", "tau", "eps_bar", "delta", "j_mode",
            "theta0", "alpha", "gamma", "t_eq", "latent_heat", "noise_amp", "rng_seed",
            "seed_radius_sq", "divisor_mode", "snapshot_every", "diagnostics_every",
            "replicate_appendix_bug",
        ]
        lines = format_config(SimParams()).splitlines()
        assert [ln.split(" = ")[0] for ln in lines] == documented


class TestSnapshot:
    def test_small_field_round_trips_bitwise(self, tmp_path):
        values = np.array(
            [
                [0.0, 1.0, 0.5, -1.0],
                [0.25, -0.0, np.pi, 2.0],
                [1e-300, 5e-324, -1.7e308, 7.5],
            ]
        )
        f = Field(values, 0.05)
        path = tmp_path / "f.pfds"
        write_snapshot(f, path, name="phi", step=7, dt=1e-4)
        g, meta = read_snapshot(path)
        assert g.data.tobytes() == f.data.tobytes() == values.tobytes()
        assert (g.nx, g.ny, g.dx) == (f.nx, f.ny, f.dx) == (3, 4, 0.05)
        assert meta == {"step": 7, "dt": 1e-4, "field": "phi"}

    def test_numpy_scalar_spacing_and_step_round_trip(self, tmp_path):
        f = Field(np.ones((3, 4)), np.float64(0.03))
        path = tmp_path / "f.pfds"
        write_snapshot(f, path, dt=np.float64(1e-4))
        assert b"dx 0.03\ndt 0.0001\n" in path.read_bytes()
        g, meta = read_snapshot(path)
        assert (g.dx, meta["dt"]) == (0.03, 1e-4)
        assert type(g.dx) is float and type(meta["dt"]) is float

    def test_random_field_round_trips_bitwise(self, tmp_path):
        f = Field(np.random.default_rng(0).normal(size=(17, 9)), 0.25)
        path = tmp_path / "f.pfds"
        write_snapshot(f, path)
        g, _ = read_snapshot(path)
        assert g.data.tobytes() == f.data.tobytes()

    def test_payload_size_arithmetic(self, tmp_path):
        f = Field.zeros(500, 500, 0.03)
        path = tmp_path / "f.pfds"
        written = write_snapshot(f, path, name="phi", step=0, dt=1e-4)
        blob = path.read_bytes()
        assert written == len(blob) == os.path.getsize(path)
        header_end = blob.index(b"\n\n") + 2
        assert len(blob) - header_end == 2_000_000

    def test_file_is_the_header_then_the_little_endian_payload(self, tmp_path):
        data = np.random.default_rng(1).normal(size=(5, 7))
        path = tmp_path / "f.pfds"
        written = write_snapshot(Field(data, 0.03), path, name="temp", step=3, dt=1e-4)
        header = b"PFDS1\nnx 5\nny 7\ndx 0.03\ndt 0.0001\nstep 3\nfield temp\n\n"
        assert path.read_bytes() == header + data.astype("<f8").tobytes()
        assert written == len(header) + 8 * data.size

    def test_header_is_human_readable(self, tmp_path):
        f = Field.zeros(4, 5, 0.03)
        path = tmp_path / "f.pfds"
        write_snapshot(f, path, name="temp", step=42, dt=2e-4)
        head = path.read_bytes()[:200].split(b"\n\n")[0].decode("ascii")
        for token in ("nx 4", "ny 5", "step 42", "field temp"):
            assert token in head

    def test_future_version_rejected_with_version_message(self, tmp_path):
        path = tmp_path / "f.pfds"
        f = Field.zeros(3, 3, 0.03)
        write_snapshot(f, path)
        blob = path.read_bytes()
        path.write_bytes(b"PFDS9\n" + blob[len(SNAPSHOT_MAGIC):])
        with pytest.raises(SnapshotFormatError, match="version"):
            read_snapshot(path)

    def test_foreign_bytes_rejected(self, tmp_path):
        path = tmp_path / "f.pfds"
        path.write_bytes(b"P5\n3 3\n255\n" + b"\x00" * 9)
        with pytest.raises(SnapshotFormatError, match="magic"):
            read_snapshot(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "f.pfds"
        path.write_bytes(SNAPSHOT_MAGIC + b"nx 3\nny 3")
        with pytest.raises(SnapshotFormatError, match="header"):
            read_snapshot(path)

    def test_truncated_payload_reports_size_mismatch(self, tmp_path):
        path = tmp_path / "f.pfds"
        write_snapshot(Field.zeros(10, 10, 0.03), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-40])
        with pytest.raises(SnapshotFormatError, match="size mismatch"):
            read_snapshot(path)

    def test_missing_header_key_rejected(self, tmp_path):
        path = tmp_path / "f.pfds"
        header = SNAPSHOT_MAGIC + b"nx 3\nny 3\ndx 0.03\nstep 0\nfield phi\n\n"
        path.write_bytes(header + b"\x00" * 72)
        with pytest.raises(SnapshotFormatError, match="dt"):
            read_snapshot(path)

    @pytest.mark.parametrize(
        "changed, payload_cells, message",
        [
            ({"nx": b"abc"}, 16, "malformed"),
            ({"nx": b"2"}, 8, "invalid"),
            ({"nx": b"-4", "ny": b"-4"}, 16, "malformed"),
            ({"dx": b"0"}, 16, "invalid"),
            ({"step": b"x"}, 16, "malformed"),
            ({"field": b"ph\xefi"}, 16, "not ASCII"),
            ({"dx": b"nan"}, 16, "invalid"),
            ({"dx": b"inf"}, 16, "invalid"),
            ({"nx": b"3_0"}, 120, "malformed"),
            ({"nx": b"+3"}, 12, "malformed"),
            ({"nx": b"-1", "ny": b"9"}, 9, "malformed"),
            ({"nx": b"-3", "ny": b"-3"}, 9, "malformed"),
            ({"step": b"-5"}, 16, "malformed"),
            ({"step": b"1_0"}, 16, "malformed"),
            ({"step": b" +3"}, 16, "malformed"),
        ],
        ids=["nx-not-int", "nx-too-small", "negative-extents", "zero-dx", "step-not-int",
             "non-ascii", "nan-dx", "inf-dx", "nx-underscore", "nx-plus-sign",
             "one-negative-extent", "negative-odd-extents", "step-negative",
             "step-underscore", "step-space-plus-sign"],
    )
    def test_malformed_header_value_rejected(self, tmp_path, changed, payload_cells, message):
        header = {b"nx": b"4", b"ny": b"4", b"dx": b"0.03", b"dt": b"0.0001",
                  b"step": b"0", b"field": b"phi"}
        header.update((k.encode(), v) for k, v in changed.items())
        path = tmp_path / "f.pfds"
        path.write_bytes(SNAPSHOT_MAGIC + b"".join(k + b" " + v + b"\n" for k, v in header.items())
                         + b"\n" + b"\x00" * (8 * payload_cells))
        with pytest.raises(SnapshotFormatError, match=message):
            read_snapshot(path)

    @given(st.one_of(st.binary(max_size=200), snapshot_bodies()))
    def test_arbitrary_bytes_after_magic_raise_only_format_error(self, tmp_path_factory, body):
        path = tmp_path_factory.getbasetemp() / "fuzz.pfds"
        path.write_bytes(SNAPSHOT_MAGIC + body)
        try:
            read_snapshot(path)
        except SnapshotFormatError:
            pass


class TestPgm:
    def read(self, path):
        blob = path.read_bytes()
        header, _, rest = blob.partition(b"255\n")
        return header + b"255\n", rest

    def test_matches_longhand_writer(self, tmp_path):
        a = np.random.default_rng(3).uniform(-0.3, 1.3, size=(13, 7))
        path = tmp_path / "f.pgm"
        write_pgm(Field(a, 0.03), path)
        assert path.read_bytes() == R.naive_pgm_bytes(a)

    def test_solid_field_saturates_white(self, tmp_path):
        path = tmp_path / "f.pgm"
        write_pgm(Field(np.ones((4, 4)), 0.03), path)
        header, pixels = self.read(path)
        assert header == b"P5\n4 4\n255\n"
        assert pixels == b"\xff" * 16

    def test_midpoint_rounds_half_up(self, tmp_path):
        path = tmp_path / "f.pgm"
        write_pgm(Field(np.full((3, 3), 0.5), 0.03), path)
        _, pixels = self.read(path)
        assert pixels == bytes([128] * 9)

    def test_out_of_range_values_clamp(self, tmp_path):
        a = np.zeros((3, 3))
        a[0, 0] = 1.3
        a[1, 1] = -0.2
        a[2, 2] = np.inf
        a[0, 2] = -np.inf
        path = tmp_path / "f.pgm"
        write_pgm(Field(a, 0.03), path)
        _, pixels = self.read(path)
        assert max(pixels) == 255
        assert sorted(set(pixels)) == [0, 255]

    def test_top_row_is_highest_y(self, tmp_path):
        a = np.zeros((4, 4))
        a[0, 3] = 1.0  # smallest x, largest y -> top-left pixel
        path = tmp_path / "f.pgm"
        write_pgm(Field(a, 0.03), path)
        _, pixels = self.read(path)
        assert pixels[0] == 255
        assert pixels.count(b"\xff") == 1

    def test_depends_only_on_values(self, tmp_path):
        a = np.random.default_rng(5).uniform(size=(6, 6))
        p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        write_pgm(Field(a, 0.03), p1)
        write_pgm(Field(a, 2.0), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_nan_cell_rejected_before_writing(self, tmp_path):
        a = np.full((4, 4), 0.5)
        a[2, 1] = np.nan
        path = tmp_path / "f.pgm"
        with pytest.raises(ValueError, match=r"NaN cell \(2, 1\)"):
            write_pgm(Field(a, 0.03), path)
        assert not path.exists()


def sample_records():
    return [
        DiagnosticsRecord(0, 0.0, 0.001, 0.12, 0.12, 0.12, 0.12, -0.098, -0.003, 0),
        DiagnosticsRecord(100, 0.01, 0.0123456789012345678, 0.15, 0.12, 0.15,
                          0.12, -0.0988, -0.0031, 4),
    ]


class TestDiagnosticsCsv:
    def test_header_only_when_no_records(self, tmp_path):
        path = tmp_path / "d.csv"
        write_diagnostics_csv([], path)
        assert path.read_text() == DIAGNOSTICS_HEADER + "\n"

    def test_header_field_order(self):
        assert DIAGNOSTICS_HEADER == (
            "step,time,solid_fraction,tip_px,tip_mx,tip_py,tip_my,"
            "conservation_sum,free_energy,arm_count"
        )

    def test_rows_are_exact_text(self, tmp_path):
        path = tmp_path / "d.csv"
        write_diagnostics_csv(sample_records(), path)
        assert path.read_text().splitlines()[1:] == [
            "0,0.0,0.001,0.12,0.12,0.12,0.12,-0.098,-0.003,0",
            "100,0.01,0.012345678901234568,0.15,0.12,0.15,0.12,-0.0988,-0.0031,4",
        ]

    def test_values_round_trip_through_text(self, tmp_path):
        records = sample_records()
        path = tmp_path / "d.csv"
        write_diagnostics_csv(records, path)
        lines = path.read_text().splitlines()
        assert lines[0] == DIAGNOSTICS_HEADER
        assert len(lines) == 3
        for rec, line in zip(records, lines[1:]):
            tokens = line.split(",")
            assert int(tokens[0]) == rec.step
            assert float(tokens[1]) == rec.time
            assert float(tokens[2]) == rec.solid_fraction
            assert float(tokens[8]) == rec.free_energy
            assert tokens[9] == str(rec.arm_count)
            assert "." not in tokens[9]


class TestFieldCsv:
    def test_full_precision_round_trip(self, tmp_path):
        a = np.random.default_rng(11).normal(size=(5, 8))
        path = tmp_path / "f.csv"
        write_field_csv(Field(a, 0.03), path)
        rows = [
            [float(tok) for tok in line.split(",")]
            for line in path.read_text().splitlines()
        ]
        np.testing.assert_array_equal(np.array(rows), a)

    def test_one_line_per_grid_row(self, tmp_path):
        path = tmp_path / "f.csv"
        write_field_csv(Field.zeros(5, 8, 0.03), path)
        lines = path.read_text().splitlines()
        assert len(lines) == 5
        assert all(len(line.split(",")) == 8 for line in lines)


class TestManifest:
    def test_round_trip(self, tmp_path):
        p = SimParams(nx=64, ny=64, total_steps=10)
        path = tmp_path / "manifest.json"
        write_manifest(
            path, p, ["phi_000000.pfds", "diagnostics.csv"],
            {"dendrosim": "0.1.0"}, created="2026-08-24T00:00:00+00:00",
        )
        doc = read_manifest(path)
        assert doc["params"] == params_to_dict(p)
        assert doc["outputs"] == ["phi_000000.pfds", "diagnostics.csv"]
        assert doc["versions"] == {"dendrosim": "0.1.0"}
        assert doc["created_utc"] == "2026-08-24T00:00:00+00:00"

    def test_created_stamp_defaults_to_now(self, tmp_path):
        path = tmp_path / "manifest.json"
        write_manifest(path, SimParams(), [], {})
        doc = read_manifest(path)
        assert doc["created_utc"].startswith("20")

    def test_params_reparse_to_identical_simparams(self, tmp_path):
        p = SimParams(dx=0.05, dt=2e-4)
        path = tmp_path / "manifest.json"
        write_manifest(path, p, [], {})
        doc = read_manifest(path)
        assert params_from_dict(doc["params"]) == p
