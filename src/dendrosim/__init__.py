"""Deterministic 2D phase-field simulation of dendritic crystal growth.

A solid seed grows into a supercooled melt under an anisotropic
Ginzburg-Landau order-parameter equation coupled to thermal diffusion,
advanced with an explicit nine-point finite-difference scheme on a periodic
grid.  The package exposes the solver as a library plus a batch CLI
(`dendrosim run / sweep / check / render`).
"""

__version__ = "0.1.0"

from .diagnostics import (
    DiagnosticsRecord,
    arm_count,
    conservation_sum,
    free_energy,
    measure,
    solid_fraction,
    tip_extent,
)
from .io import (
    ConfigError,
    SnapshotFormatError,
    format_config,
    params_from_dict,
    params_to_dict,
    parse_config,
    read_manifest,
    read_snapshot,
    write_diagnostics_csv,
    write_field_csv,
    write_manifest,
    write_pgm,
    write_snapshot,
)
from .lattice import (
    CENTERED,
    PAPER_CODE,
    Field,
    lattice_sum,
)
from .physics import (
    ModelParams,
    RngStream,
    double_well,
    epsilon_of_theta,
    interface_angle,
    m_of_temperature,
    noise_term,
    reaction_term,
)
from .solver import (
    BlowupError,
    SimParams,
    SimState,
    initialize,
    run,
    stability_check,
    step,
)

__all__ = [
    "__version__",
    "BlowupError",
    "CENTERED",
    "ConfigError",
    "DiagnosticsRecord",
    "Field",
    "ModelParams",
    "PAPER_CODE",
    "RngStream",
    "SimParams",
    "SimState",
    "SnapshotFormatError",
    "arm_count",
    "conservation_sum",
    "double_well",
    "epsilon_of_theta",
    "format_config",
    "free_energy",
    "initialize",
    "interface_angle",
    "lattice_sum",
    "m_of_temperature",
    "measure",
    "noise_term",
    "params_from_dict",
    "params_to_dict",
    "parse_config",
    "read_manifest",
    "read_snapshot",
    "reaction_term",
    "run",
    "solid_fraction",
    "stability_check",
    "step",
    "tip_extent",
    "write_diagnostics_csv",
    "write_field_csv",
    "write_manifest",
    "write_pgm",
    "write_snapshot",
]
