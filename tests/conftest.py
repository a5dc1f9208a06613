import gc
import tracemalloc
from collections import Counter

import pytest
from hypothesis import settings

from coronagrid import MultigridSpec, Patch, corona_sequence, nearest_crossing
from coronagrid.multigrid import Crossing

# Every property test: a fixed, replayable example sequence and no deadline.
settings.register_profile("coronagrid", max_examples=40, deadline=None,
                          derandomize=True, database=None)
settings.load_profile("coronagrid")
# A long run by hand: `pytest --hypothesis-profile coronagrid-deep` draws
# 3,000 fresh random examples per property test (the flag overrides the
# load_profile above).
settings.register_profile("coronagrid-deep", max_examples=3000, deadline=None,
                          derandomize=False, database=None)


@pytest.fixture(scope="session")
def pentagrid():
    return MultigridSpec.dfold(5, 0.5)


@pytest.fixture(scope="session")
def square():
    return MultigridSpec.from_angles([0, 90], [0.0, 0.0])


@pytest.fixture(scope="session")
def pentagrid_run(pentagrid):
    """Single-tile corona run to n=80, shared by the slower analysis tests."""
    seed = Patch(frozenset([nearest_crossing(pentagrid)]))
    return corona_sequence(pentagrid, seed, 80)


@pytest.fixture
def count_constructions(monkeypatch):
    """Call it to start counting the Crossings built from then on, under
    "Crossing" in the Counter it returns."""
    def start():
        counts = Counter()

        def counted(self, *args, _init=Crossing.__init__, **kwargs):
            counts["Crossing"] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(Crossing, "__init__", counted)
        return counts
    return start


@pytest.fixture
def traced_memory():
    """Call it with a function and its arguments: it runs the call under
    tracemalloc and returns (result, bytes held, peak bytes), both counted
    from the start of the call.  A full collection, which also empties the
    interpreter's free lists, runs before the trace starts, so the peak
    does not depend on what the process ran before, and again before the
    held bytes are read, so they count what the result keeps alive."""
    def measure(fn, *args, **kwargs):
        gc.collect()
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            result = fn(*args, **kwargs)
            gc.collect()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, held - start, peak - start
    return measure
