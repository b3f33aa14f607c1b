"""The default kernel's tick-native trace equals the Fraction kernel's.

The integer kernels append raw ticks to flat trace columns and build the
``Segment``/``Fraction`` records only when a field is read.  Over 25
seeded platforms, with numpy and with the pure-Python array backend
(``REPRO_NO_NUMPY=1``), the default kernel's trace must be ``==`` field by
field to the ``Fraction`` kernel's, in every recording mode, when:

* a link degradation with an incommensurate factor rescales the timeline
  mid-run;
* the trace is read while the run is paused, and the run then continues.
"""

from __future__ import annotations

import functools
from fractions import Fraction

import pytest

from repro.faults.inject import apply_to_simulation
from repro.faults.plan import FaultPlan, LinkDegradation
from repro.schedule.periods import global_period
from repro.sim.simulator import Simulation

from .test_timeline import SEEDS, random_tree, solved

#: the recording modes: full, completions without segments, counts only
MODES = {
    "full": {},
    "no_segments": dict(record_segments=False),
    "counts_only": dict(record_segments=False, record_buffers=False,
                        record_events=False),
}

#: 97 divides no rate denominator of the random trees, so a transfer
#: scaled by this factor grows the tick kernels' timeline
FACTOR = Fraction(101, 97)


@pytest.fixture(params=["numpy", "no_numpy"])
def backend(request, monkeypatch):
    if request.param == "no_numpy":
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
    else:
        monkeypatch.delenv("REPRO_NO_NUMPY", raising=False)
    return request.param


def observed(trace):
    """A copy of every field a reader can see."""
    return (list(trace.segments), list(trace.completions),
            list(trace.arrivals), list(trace.buffer_deltas),
            list(trace.releases), trace.completed, trace.end_time)


def build(seed: int, mode: str, **kernel):
    """A simulation over one global period ``t`` whose first active link
    is slowed by :data:`FACTOR` from ``t/3`` on."""
    tree = random_tree(seed)
    _, periods, schedules = solved(tree)
    t = Fraction(global_period(periods))
    sim = Simulation(tree, dict(schedules), dict(periods), horizon=t,
                     **MODES[mode], **kernel)
    child = next(n for n in schedules if n != tree.root)
    apply_to_simulation(sim, FaultPlan(degradations=(
        LinkDegradation(child, FACTOR, t / 3, t),)))
    return sim, (t / 4, t * Fraction(3, 4))


def snapshots(sim, pauses):
    """What a reader sees at each pause, then after the run completes."""
    seen = []
    for pause in pauses:
        sim.run_until(pause)
        seen.append(observed(sim.trace))
    seen.append(observed(sim.run().trace))
    return seen


@functools.lru_cache(maxsize=None)
def reference(seed: int, mode: str):
    return snapshots(*build(seed, mode, kernel="fraction"))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", SEEDS)
def test_default_kernel_trace_matches_fraction(seed, mode, backend):
    sim, pauses = build(seed, mode)
    assert snapshots(sim, pauses) == reference(seed, mode)
    assert sim._timeline.rescales > 0  # the degradation rescaled mid-run
