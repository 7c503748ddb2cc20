"""A sampled state's pass 1 is shared: run computes solver.stencil_pass once
and hands it to diagnostics.measure and to step.  The records must be the
whole-grid longhand ones, the states those of step on its own, and the
facts the paper_code reuse rests on must hold on this numpy build's SIMD
targets (CI runs this file once more with numpy's AVX-512 targets off)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as hst

import dendrosim.solver as solver
from dendrosim.diagnostics import measure
from dendrosim.lattice import CENTERED, Field, nonzero_box, widen
from dendrosim.physics import RngStream
from dendrosim.solver import SimParams, SimState, initialize, run, step, stencil_pass
from test_diagnostics import whole_grid_record

# the bench's sample-dense config: 128^2, noise-free, a sample every step
SAMPLE_DENSE = SimParams(nx=128, ny=128, total_steps=100, diagnostics_every=1,
                         snapshot_every=10)
NOISY_300 = SimParams(nx=300, ny=300, total_steps=40, noise_amp=0.01, rng_seed=1,
                      diagnostics_every=5)
BUG_CENTERED = SimParams(nx=96, ny=80, total_steps=150, j_mode=6, noise_amp=0.01,
                         rng_seed=5, replicate_appendix_bug=True, divisor_mode=CENTERED,
                         diagnostics_every=3)


def states(p):
    """The states of a run of p, the initial one first."""
    st = initialize(p)
    rng = RngStream(p.rng_seed)
    yield st
    for _ in range(p.total_steps):
        st = step(st, p, rng)
        yield st


def record_bytes(rec):
    return {name: np.float64(value).tobytes() for name, value in dataclasses.asdict(rec).items()}


def assert_shared_pass_record(st, p):
    shared = measure(st, p, stencils=stencil_pass(st, p))
    assert record_bytes(shared) == record_bytes(whole_grid_record(st, p))


class TestMeasureWithPassOne:
    """measure with the state's pass 1 equals the whole-grid longhand record."""

    @pytest.mark.parametrize("p", [SAMPLE_DENSE, NOISY_300, BUG_CENTERED],
                             ids=["sample-dense", "noisy-300", "bug-centered"])
    def test_states_of_a_run(self, p):
        spans = set()
        for st in states(p):
            if st.step % p.diagnostics_every == 0:
                rows, cols = widen(st.box, (p.nx, p.ny))
                spans.add((rows == slice(0, p.nx), cols == slice(0, p.ny)))
                assert_shared_pass_record(st, p)
        assert (False, False) in spans

    @pytest.mark.parametrize("layout, spans", [("row-edge", (True, False)),
                                               ("corner", (True, True))])
    def test_window_touching_the_grid_edge(self, layout, spans):
        p = SimParams(nx=40, ny=47, noise_amp=0.01, rng_seed=8, j_mode=6)
        st = list(states(dataclasses.replace(p, total_steps=8)))[-1]
        shift = (p.nx // 2, 0) if layout == "row-edge" else (p.nx // 2, p.ny // 2)
        moved = SimState(phi=Field(np.roll(st.phi.data, shift, axis=(0, 1)), p.dx),
                         temp=Field(np.roll(st.temp.data, shift, axis=(0, 1)), p.dx))
        rows, cols = widen(nonzero_box((moved.phi.data, moved.temp.data)), (p.nx, p.ny))
        assert (rows == slice(0, p.nx), cols == slice(0, p.ny)) == spans
        assert_shared_pass_record(moved, p)


class TestRunSharesPassOne:
    """run's states equal those of a plain step loop, and its records the
    whole-grid longhand ones of those states."""

    @pytest.mark.parametrize("p", [SAMPLE_DENSE, BUG_CENTERED,
                                   SimParams(nx=40, ny=47, total_steps=120, noise_amp=0.02,
                                             rng_seed=9, j_mode=6, diagnostics_every=1),
                                   SimParams(nx=48, ny=40, total_steps=50, noise_amp=0.01,
                                             rng_seed=3, diagnostics_every=7)],
                             ids=["sample-dense", "bug-centered", "across-the-edge",
                                  "final-off-cadence"])
    def test_records_and_final_state(self, p):
        expected, last = [], None
        for st in states(p):
            if st.step % p.diagnostics_every == 0 or st.step == p.total_steps:
                expected.append(record_bytes(whole_grid_record(st, p)))
            last = st
        final, records = run(p)
        assert [record_bytes(r) for r in records] == expected
        assert final.phi.data.tobytes() == last.phi.data.tobytes()
        assert final.temp.data.tobytes() == last.temp.data.tobytes()
        assert final.box == last.box

    def test_each_stepped_state_gets_one_pass(self, monkeypatch):
        p = dataclasses.replace(SAMPLE_DENSE, total_steps=6, diagnostics_every=2)
        passes, given_to_step = [], []
        real_pass, real_step = solver.stencil_pass, solver.step

        def counting_pass(st, q):
            passes.append(st.step)
            return real_pass(st, q)

        def recording_step(st, q, rng=None, *, stencils=None, spare=None):
            given_to_step.append((st.step, stencils is not None))
            return real_step(st, q, rng, stencils=stencils, spare=spare)

        monkeypatch.setattr(solver, "stencil_pass", counting_pass)
        monkeypatch.setattr(solver, "step", recording_step)
        run(p)
        # sampled states 0, 2, 4 are stepped with run's pass 1, and the final
        # state 6 gets one for its sample alone; the others compute theirs
        # in step
        assert given_to_step == [(n, n % 2 == 0) for n in range(6)]
        assert passes == [0, 1, 2, 3, 4, 5, 6]


def normal_or_zero(limit):
    """Finite floats that are 0 or normal, of magnitude at most `limit`."""
    return hst.floats(-limit, limit, allow_nan=False, allow_infinity=False,
                      allow_subnormal=False)


TINY = np.finfo(np.float64).tiny


class TestPaperCodeReuse:
    """Under paper_code, measure halves the step's gradient (differences
    over dx) for the centred one (over 2 dx), and takes eps of the step's
    angle, the arctan2 of the doubled gradient.  Both are exact for normal
    values; arrays, so numpy's SIMD loops are the ones checked."""

    @given(hst.lists(hst.tuples(normal_or_zero(1e300), normal_or_zero(1e300)),
                     min_size=1, max_size=80))
    def test_arctan2_of_doubled_arguments(self, pairs):
        y, x = np.array(pairs).T
        assert np.arctan2(2 * y, 2 * x).tobytes() == np.arctan2(y, x).tobytes()

    @given(hst.lists(normal_or_zero(1e150), min_size=1, max_size=80),
           hst.floats(1e-150, 1e150))
    def test_halved_difference_quotient(self, diffs, dx):
        # |d / dx| <= 1e300, so only a quotient below the normal range is
        # left out
        d = np.array(diffs)
        halved, centred = (d / dx) * 0.5, d / (2 * dx)
        normal = (np.abs(centred) >= TINY) | (d == 0.0)
        assert halved[normal].tobytes() == centred[normal].tobytes()
