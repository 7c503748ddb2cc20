"""Config parsing, snapshot/PGM/CSV serialization, and the run manifest.

The config format is flat "key = value" text; unknown keys are a hard error so
typos in sweep scripts fail loudly.  Snapshots are a short human-readable
header followed by raw little-endian float64 payload, lossless by design.
"""

from __future__ import annotations

import dataclasses
import json
from datetime import datetime, timezone

import numpy as np

from .diagnostics import DiagnosticsRecord
from .lattice import Field
from .solver import FIELD_TYPES, SimParams

SNAPSHOT_MAGIC = b"PFDS1\n"


# config key -> value type, in document order: the SimParams fields but
# allow_unstable, which comes from the caller (the --force flag)
_KEY_TYPES = {k: t for k, t in FIELD_TYPES.items() if k != "allow_unstable"}
CONFIG_KEYS = tuple(_KEY_TYPES)


class ConfigError(ValueError):
    pass


class SnapshotFormatError(ValueError):
    pass


def parse_value(key: str, text: str):
    """Parse one config value with the type that key demands; SimParams
    validates the value itself."""
    if key not in CONFIG_KEYS:
        raise ConfigError(f"unknown config key '{key}'")
    text = text.strip()
    kind = _KEY_TYPES[key]
    try:
        if kind is bool:
            if text in ("true", "false"):
                return text == "true"
            raise ValueError(text)
        return kind(text)
    except ValueError:
        raise ConfigError(f"could not parse value {text!r} for config key '{key}'") from None


def parse_config_text(text: str) -> dict:
    """Parse "key = value" lines into a typed override dict (no defaults applied)."""
    overrides = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        overrides[key] = parse_value(key, value)
    return overrides


def params_from_dict(values: dict, allow_unstable: bool = False) -> SimParams:
    """Build validated SimParams from a typed config dict, partial or
    complete; the keys it leaves out take the SimParams defaults."""
    for key in values:
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key '{key}'")
    try:
        return SimParams(**values, allow_unstable=allow_unstable)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def parse_config(text: str, allow_unstable: bool = False) -> SimParams:
    """Parse a config document merged over the shipped defaults."""
    return params_from_dict(parse_config_text(text), allow_unstable=allow_unstable)


def params_to_dict(p: SimParams) -> dict:
    """Resolved params as a config key -> value dict in CONFIG_KEYS order."""
    return {k: getattr(p, k) for k in CONFIG_KEYS}


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def format_config(p: SimParams) -> str:
    """Serialize resolved params so that parse_config round-trips exactly."""
    d = params_to_dict(p)
    return "".join(f"{key} = {_format_value(d[key])}\n" for key in CONFIG_KEYS)


def write_snapshot(field: Field, path, name: str = "phi", step: int = 0, dt: float = 0.0) -> int:
    """Write a field as header + raw float64 payload; returns bytes written."""
    header = SNAPSHOT_MAGIC + (
        f"nx {field.nx}\n"
        f"ny {field.ny}\n"
        f"dx {float(field.dx)!r}\n"
        f"dt {float(dt)!r}\n"
        f"step {step}\n"
        f"field {name}\n"
        "\n"
    ).encode("ascii")
    # written through the buffer protocol: no copy of a little-endian field
    payload = np.ascontiguousarray(field.data, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)
    return len(header) + payload.nbytes


def read_snapshot(path) -> tuple[Field, dict]:
    """Read a snapshot back; returns (field, meta) with meta holding step/dt/name."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(SNAPSHOT_MAGIC):
        if blob.startswith(b"PFDS"):
            raise SnapshotFormatError(
                f"unsupported snapshot version {blob[:5]!r}, expected {SNAPSHOT_MAGIC[:-1]!r}"
            )
        raise SnapshotFormatError("bad magic: not a snapshot file")
    try:
        end = blob.index(b"\n\n", len(SNAPSHOT_MAGIC))
    except ValueError:
        raise SnapshotFormatError("truncated snapshot header") from None
    try:
        lines = blob[len(SNAPSHOT_MAGIC):end].decode("ascii").splitlines()
    except UnicodeDecodeError:
        raise SnapshotFormatError("snapshot header is not ASCII") from None
    header = {}
    for line in lines:
        key, _, value = line.partition(" ")
        header[key] = value
    for key in ("nx", "ny", "dx", "dt", "step", "field"):
        if key not in header:
            raise SnapshotFormatError(f"snapshot header missing '{key}'")
    try:
        for key in ("nx", "ny", "step"):
            # int() would also take a sign, spaces and "_" separators
            if not (header[key].isascii() and header[key].isdigit()):
                raise ValueError(f"{key} must be decimal digits, got {header[key]!r}")
        nx, ny = int(header["nx"]), int(header["ny"])
        dx = float(header["dx"])
        meta = {"step": int(header["step"]), "dt": float(header["dt"]), "field": header["field"]}
    except ValueError as exc:
        raise SnapshotFormatError(f"malformed snapshot header: {exc}") from None
    payload = blob[end + 2:]
    expected = 8 * nx * ny
    if len(payload) != expected:
        raise SnapshotFormatError(
            f"payload size mismatch: expected {expected} bytes for {nx}x{ny}, got {len(payload)}"
        )
    try:
        data = np.frombuffer(payload, dtype="<f8").reshape(nx, ny)
        field = Field(data.copy(), dx)
    except ValueError as exc:
        raise SnapshotFormatError(f"invalid snapshot header: {exc}") from None
    return field, meta


def write_pgm(field: Field, path) -> None:
    """8-bit binary graymap of a field, clamped to [0, 1], round-half-up.

    Image width is nx and height ny; row 0 (top) is the j = ny-1 grid row, so
    +y points up when viewed.  A NaN cell has no gray level and is a
    ValueError; +-inf clamp to 1 and 0.
    """
    nan = np.argwhere(np.isnan(field.data))
    if nan.size:
        raise ValueError(f"cannot render NaN cell ({nan[0, 0]}, {nan[0, 1]}) as a gray level")
    q = np.clip(field.data, 0.0, 1.0)
    pixels = np.floor(q * 255.0 + 0.5).astype(np.uint8)
    img = np.ascontiguousarray(pixels.T[::-1, :])
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (field.nx, field.ny))
        fh.write(img.tobytes())


DIAGNOSTICS_FIELDS = tuple(f.name for f in dataclasses.fields(DiagnosticsRecord))
DIAGNOSTICS_HEADER = ",".join(DIAGNOSTICS_FIELDS)


def csv_row(record, names=DIAGNOSTICS_FIELDS) -> str:
    """The named fields of a record as one CSV line: repr for floats, str for ints."""
    return ",".join(_format_value(getattr(record, name)) for name in names)


def write_diagnostics_csv(records, path) -> None:
    lines = [DIAGNOSTICS_HEADER, *(csv_row(r) for r in records)]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def write_field_csv(field: Field, path) -> None:
    """Field values as CSV, one line per grid row (fixed i), full precision."""
    with open(path, "w", encoding="ascii") as fh:
        for row in field.data:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def write_manifest(path, params: SimParams, outputs, versions: dict, created: str | None = None) -> None:
    """Record the exact resolved params, tool versions, and emitted files.

    `created_utc` is the only non-reproducible entry; everything else depends
    solely on the run inputs.
    """
    doc = {
        "versions": dict(versions),
        "created_utc": created or datetime.now(timezone.utc).isoformat(),
        "params": params_to_dict(params),
        "outputs": list(outputs),
    }
    with open(path, "w", encoding="ascii") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def read_manifest(path) -> dict:
    with open(path, "r", encoding="ascii") as fh:
        return json.load(fh)
