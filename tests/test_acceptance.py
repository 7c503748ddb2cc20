"""Top-level acceptance checks: conservation, fixed points, morphology,
qualitative trends, determinism, symmetry, energy decay, and the stability
gate.  Each criterion records one summary line, replayed after the run.  The
desk runs' final states also check arm_count against the longhand oracle."""

import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import reference as R
from dendrosim.cli import PRESETS, main
from dendrosim.diagnostics import ARM_MIN_CELLS, arm_count, measure
from dendrosim.io import csv_row, params_from_dict
from dendrosim.lattice import Field, lattice_sum
from dendrosim.physics import (
    double_well,
    epsilon_of_theta,
    reaction_term,
)
from dendrosim.solver import SimParams, SimState, initialize, run, stability_check, step

DX = 0.03
DESK = dict(nx=300, ny=300, total_steps=1500)
FINGERPRINT = Path(__file__).resolve().parents[1] / "bench" / "fingerprint.json"


def timed_run(params):
    t0 = time.perf_counter()
    state, records = run(params)
    return state, records, time.perf_counter() - t0


@pytest.fixture(scope="module")
def conservation_run():
    p = SimParams(nx=128, ny=128)
    state, records, elapsed = timed_run(p)
    baseline = abs(p.latent_heat * lattice_sum(initialize(p).phi)) + 1.0
    drift = max(abs(r.conservation_sum - records[0].conservation_sum) for r in records)
    return drift / baseline, elapsed


@pytest.fixture(scope="module")
def desk_j4():
    return timed_run(SimParams(**DESK))


@pytest.fixture(scope="module")
def desk_j6():
    return timed_run(SimParams(j_mode=6, **DESK))


@pytest.fixture(scope="module")
def desk_wide_anisotropy():
    return timed_run(SimParams(delta=0.011, **DESK))


def max_axis_tip(record):
    return max(record.tip_px, record.tip_mx, record.tip_py, record.tip_my)


def test_acceptance_01_enthalpy_conservation(acceptance, conservation_run):
    drift, elapsed = conservation_run
    acceptance(
        f"criterion 01 {'PASS' if drift <= 1e-10 and elapsed <= 10.0 else 'FAIL'}: "
        f"conservation drift {drift:.3e} (tol 1e-10) over 2000 steps on 128x128, "
        f"{elapsed:.1f}s (target 10s)"
    )
    assert drift <= 1e-10
    assert elapsed <= 10.0


def test_acceptance_02_uniform_fixed_points(acceptance):
    p = SimParams(nx=64, ny=64, total_steps=100)
    outcomes = []
    for phi_value, temp_value in ((0.0, 0.0), (1.0, 0.3)):
        st = SimState(
            phi=Field(np.full((64, 64), phi_value), p.dx),
            temp=Field(np.full((64, 64), temp_value), p.dx),
        )
        for _ in range(100):
            st = step(st, p)
        outcomes.append(
            (st.phi.data == phi_value).all() and (st.temp.data == temp_value).all()
        )
    ok = all(outcomes)
    acceptance(
        f"criterion 02 {'PASS' if ok else 'FAIL'}: uniform (0, 0) and (1, 0.3) "
        f"states bitwise unchanged after 100 steps"
    )
    assert ok


def test_acceptance_03_term_consistency(acceptance):
    phis = np.linspace(-0.5, 1.5, 100)
    ms = np.linspace(-0.4, 0.4, 100)
    P, M = np.meshgrid(phis, ms, indexing="ij")
    h = 1e-6
    fd = (double_well(P + h, M) - double_well(P - h, M)) / (2 * h)
    reaction_err = float(np.max(np.abs(reaction_term(P, M) + fd)))

    p = SimParams(delta=0.03)
    thetas = np.linspace(-math.pi, math.pi, 1000)
    h = 1e-7

    def eps_at(theta):  # eps and eps' of the unit gradient at angle theta
        return epsilon_of_theta(np.cos(theta), np.sin(theta), p)

    _, eps_prime = eps_at(thetas)
    fd = (eps_at(thetas + h)[0] - eps_at(thetas - h)[0]) / (2 * h)
    eps_err = float(np.max(np.abs(eps_prime - fd)))

    ok = reaction_err < 1e-8 and eps_err < 1e-7
    acceptance(
        f"criterion 03 {'PASS' if ok else 'FAIL'}: reaction vs -dF/dphi "
        f"{reaction_err:.2e} (tol 1e-8); eps' vs finite difference {eps_err:.2e} (tol 1e-7)"
    )
    assert reaction_err < 1e-8
    assert eps_err < 1e-7


def test_acceptance_04_tetragonal_morphology(acceptance, desk_j4):
    state, records, elapsed = desk_j4
    arms = records[-1].arm_count
    most = max(r.arm_count for r in records)
    # the desk preset shipped with the CLI is exactly this parameter set
    assert params_from_dict(PRESETS["desk"]) == SimParams(**DESK)
    ok = arms == 4 and most <= 4 and elapsed <= 90.0
    acceptance(
        f"criterion 04 {'PASS' if ok else 'FAIL'}: mode-4 desk run arm_count = {arms} "
        f"(want 4; at most 4 in every sample, max {most}), {elapsed:.0f}s (target 90s)"
    )
    assert arms == 4
    # a split tip is one arm: no sample may count more arms than j_mode
    assert most <= 4
    assert elapsed <= 90.0


def test_acceptance_05_hexagonal_morphology(acceptance, desk_j6):
    state, records, elapsed = desk_j6
    arms = records[-1].arm_count
    most = max(r.arm_count for r in records)
    ok = arms == 6 and most <= 6 and elapsed <= 90.0
    acceptance(
        f"criterion 05 {'PASS' if ok else 'FAIL'}: mode-6 desk run arm_count = {arms} "
        f"(want 6; at most 6 in every sample, max {most}), {elapsed:.0f}s (target 90s)"
    )
    assert arms == 6
    assert most <= 6
    assert elapsed <= 90.0


def test_acceptance_06_anisotropy_strength_trend(acceptance, desk_j4, desk_wide_anisotropy):
    narrow = max_axis_tip(desk_j4[1][-1])
    wide = max_axis_tip(desk_wide_anisotropy[1][-1])
    most = max(r.arm_count for r in desk_wide_anisotropy[1])
    # direction frozen from a pilot: stronger anisotropy grows at least as far
    ok = wide >= narrow and most <= 4
    acceptance(
        f"criterion 06 {'PASS' if ok else 'FAIL'}: tip extent at delta = 0.011 "
        f"({wide:.4f}) >= at delta = 0.01 ({narrow:.4f}); at most 4 arms in every "
        f"delta = 0.011 sample (max {most})"
    )
    assert wide >= narrow
    # the lobe pairs between the axis arms are side structure, not arms
    assert most <= 4


def test_desk_arm_counts_match_the_longhand_spectrum(desk_j4, desk_j6, desk_wide_anisotropy):
    for state, _, _ in (desk_j4, desk_j6, desk_wide_anisotropy):
        assert arm_count(state.phi) == R.longhand_arm_count(state.phi, ARM_MIN_CELLS * DX)


def test_acceptance_07_latent_heat_sweep(acceptance):
    fractions = []
    for k in (0.8, 1.0, 1.4, 1.8, 2.0):
        p = SimParams(j_mode=6, latent_heat=k, nx=300, ny=300, dt=2e-4, total_steps=500)
        _, records, _ = timed_run(p)
        fractions.append(records[-1].solid_fraction)
    # direction frozen from a pilot: higher latent heat self-heats the
    # interface harder and slows growth, so solid fraction falls
    decreasing = all(a > b for a, b in zip(fractions, fractions[1:]))
    acceptance(
        f"criterion 07 {'PASS' if decreasing else 'FAIL'}: solid fraction strictly "
        f"decreasing over latent heat sweep {[round(f, 5) for f in fractions]}"
    )
    assert decreasing


def test_acceptance_08_run_determinism(acceptance, tmp_path):
    base = ["--set", "nx=128", "--set", "ny=128", "--set", "total_steps=200",
            "--set", "snapshot_every=100", "--set", "diagnostics_every=50",
            "--set", "noise_amp=0.01", "--set", "rng_seed=11"]
    trees = {}
    for label in ("a", "b"):
        out = tmp_path / label
        assert main(["run", *base, "--out", str(out)]) == 0
        trees[label] = {
            p.name: p.read_bytes()
            for p in sorted(out.iterdir())
            if p.suffix == ".pfds" or p.name == "diagnostics.csv"
        }
    ok = trees["a"] == trees["b"]
    acceptance(
        f"criterion 08 {'PASS' if ok else 'FAIL'}: repeated runs byte-identical "
        f"across {len(trees['a'])} snapshot/CSV files"
    )
    assert ok


def test_run_matches_the_recorded_fingerprint():
    # the fixed noisy config and final-field SHA-256 the benchmark checks;
    # its crystal grows in a small window for the first ~57 steps
    spec = json.loads(FINGERPRINT.read_text(encoding="utf-8"))
    state, _ = run(params_from_dict(spec["config"]))
    digest = hashlib.sha256()
    for f in (state.phi, state.temp):
        digest.update(np.ascontiguousarray(f.data, dtype="<f8").tobytes())
    assert digest.hexdigest() == spec["sha256"]


@pytest.mark.parametrize("config, sha256, fields_sha256", [
    (json.loads(FINGERPRINT.read_text(encoding="utf-8"))["config"],
     "92143225af55554f1e260de9fe7ca3cb680ac1805a02410fe20b8bb1f901c421", None),
    # the bench's sample-dense run: a record every step
    (dict(nx=128, ny=128, total_steps=100, diagnostics_every=1, snapshot_every=10, rng_seed=1),
     "99a6695127f0181da591a1354f501211a32f2a5da860e59990ee5a130fcc068f", None),
    # the bench's desk-noisy run, all growth phase, sampled every step
    (dict(nx=300, ny=300, total_steps=25, noise_amp=0.01, rng_seed=1, diagnostics_every=1,
          snapshot_every=25),
     "0670fa92988fbe11f15dcf2202318229788de5dc370cdb0a4a82f743d0767941",
     "7f752aecd222ca48f890fc762adac811face96484b3c82bbb1e423daae3eb1f8"),
], ids=["fingerprint", "sample-dense", "desk-noisy"])
def test_run_records_match_the_recorded_bytes(config, sha256, fields_sha256):
    # SHA-256 of the CSV rows of every record, one line each: the bytes of
    # diagnostics.csv less its header; and, where given, that of the final
    # fields, as test_run_matches_the_recorded_fingerprint takes it
    state, records = run(params_from_dict(config))
    digest = hashlib.sha256()
    for r in records:
        digest.update((csv_row(r) + "\n").encode("ascii"))
    assert digest.hexdigest() == sha256
    if fields_sha256 is not None:
        digest = hashlib.sha256()
        for f in (state.phi, state.temp):
            digest.update(np.ascontiguousarray(f.data, dtype="<f8").tobytes())
        assert digest.hexdigest() == fields_sha256


def test_acceptance_09_dihedral_symmetry(acceptance):
    p = SimParams(theta0=math.pi / 2.0, nx=201, ny=201, total_steps=1000)
    state, _, _ = timed_run(p)
    phi = state.phi.data
    deviation = 0.0
    for base in (phi, phi.T):
        for k in range(4):
            deviation = max(deviation, float(np.max(np.abs(phi - np.rot90(base, k)))))
    ok = deviation <= 1e-9
    acceptance(
        f"criterion 09 {'PASS' if ok else 'FAIL'}: max deviation across the 8 "
        f"square symmetries {deviation:.2e} (tol 1e-9) after 1000 steps on 201x201"
    )
    assert deviation <= 1e-9


def test_acceptance_10_isotropic_energy_decay(acceptance):
    # no latent heat: T stays +0.0 from the start, so the bath is fixed
    p = SimParams(nx=128, ny=128, delta=0.0, latent_heat=0.0)
    st = initialize(p)

    def energy(state):
        return measure(state, p).free_energy

    previous = energy(st)
    worst = -math.inf
    for _ in range(500):
        st = step(st, p)
        current = energy(st)
        worst = max(worst, current - previous - 1e-12 * abs(previous))
        previous = current
    ok = worst <= 0.0
    acceptance(
        f"criterion 10 {'PASS' if ok else 'FAIL'}: free energy non-increasing over "
        f"500 steps without latent heat (worst slack-adjusted rise {worst:.2e})"
    )
    assert ok


def test_acceptance_11_stability_gate(acceptance, tmp_path):
    with pytest.raises(ValueError, match="stability"):
        SimParams(dt=5e-4)
    rejected = main(["run", "--set", "dt=5e-4", "--out", str(tmp_path / "r")]) == 2
    accepted = main(["run", "--set", "dt=1e-4", "--set", "total_steps=0",
                     "--out", str(tmp_path / "ok")]) == 0
    _, dt_thermal, _ = stability_check(SimParams())
    bound_ok = dt_thermal == pytest.approx(3.375e-4, rel=1e-12)
    ok = rejected and accepted and bound_ok
    acceptance(
        f"criterion 11 {'PASS' if ok else 'FAIL'}: dt = 5e-4 rejected without "
        f"--force, dt = 1e-4 accepted (bound {dt_thermal:.6g})"
    )
    assert rejected
    assert accepted
    assert bound_ok
