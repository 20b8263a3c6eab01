"""The serve engine and the garbage collector.

Every job ends with ``gc.freeze()``: what is alive then, the session
caches above all, moves to the collector's permanent generation, so
later full collections do not walk it again.  That is sound only while
no job leaves cyclic garbage behind and no cached payload is cyclic:
reference counting must free a frozen entry once the LRU evicts it.
"""

import gc
import weakref

import pytest

from repro.core import FlowConfig
from repro.library import CORELIB018
from repro.obs import Tracer
from repro.place import Floorplan
from repro.serve import CacheBounds, Job, ServeEngine
from repro.serve import engine as engine_mod

CLEAN = dict(cmd="ksweep", source="spla@0.01", rows=12, k=(0.0, 0.005))

#: Every command kind, then two jobs that fail: an unknown source and
#: a die too small to place on.
STREAM = (
    Job(id="flow", cmd="flow", source="spla@0.01", rows=12,
        k=(0.0, 0.005)),
    Job(id="sweep", cmd="ksweep", source="pdc@0.01", rows=10,
        k=(0.0, 0.001)),
    Job(id="bisect", cmd="ksearch", source="spla@0.02", rows=16,
        k=(0.0, 0.001, 0.01), strategy="bisect"),
    Job(id="portfolio", cmd="ksearch", source="spla@0.02", rows=16,
        k=(0.0, 0.001, 0.01), strategy="portfolio"),
    Job(id="unknown", cmd="flow", source="no_such_bench@0.01"),
    Job(id="too_small", cmd="ksweep", source="spla@0.01", rows=3,
        k=(0.0,)),
)

#: Three netlists, each on its own die.
THREE = (CLEAN,
         dict(cmd="flow", source="pdc@0.01", rows=10, k=(0.0, 0.005)),
         dict(cmd="ksweep", source="spla@0.02", rows=16, k=(0.0, 0.001)))


def _engine(**kwargs):
    return ServeEngine(FlowConfig(library=CORELIB018), **kwargs)


def _entries(engine, fields):
    """The matcher, route pool and evaluation memo of a job's netlist
    and die (each must be resident)."""
    caches = engine.caches
    key, _network, base = caches.network(fields["source"])
    floorplan = Floorplan.for_gates(base.num_gates(), fields["rows"])
    return (caches.matcher(key, base), caches.route_pool(key, floorplan),
            caches.evaluation(key, floorplan))


def test_job_end_freezes_the_session_caches():
    engine = _engine()
    [result] = engine.run([Job(id="a", **CLEAN)])
    assert result.ok
    tracked = {id(obj) for obj in gc.get_objects()}
    assert not [entry for entry in _entries(engine, CLEAN)
                if id(entry) in tracked]


@pytest.mark.parametrize("setting", ["untraced", "traced", "bounded"])
def test_jobs_leave_no_cyclic_garbage(setting):
    """With automatic collection off, every cycle a job creates is still
    there when it ends: the job must create none, failing or not."""
    engine = _engine(**{"untraced": {},
                        "traced": {"tracer": Tracer("run")},
                        "bounded": {"bounds": CacheBounds(max_entries=1)},
                        }[setting])
    found = []

    def collect(result):
        gc.unfreeze()
        found.append((result.id, result.ok, gc.collect()))

    gc.unfreeze()
    gc.collect()
    gc.disable()
    try:
        engine.run(STREAM, on_result=collect)
    finally:
        gc.enable()
    assert found == [(job.id, job.id not in ("unknown", "too_small"), 0)
                     for job in STREAM]


def test_evicted_frozen_entries_are_freed():
    engine = _engine(bounds=CacheBounds(max_entries=1))

    def run_pass(tag):
        results = engine.run([Job(id=f"{tag}{i}", **fields)
                              for i, fields in enumerate(THREE)])
        assert all(result.ok for result in results)
        return gc.get_freeze_count()

    first = run_pass("a")
    entries = _entries(engine, THREE[-1])
    mapping = next(iter(entries[-1]._mapped.values()))[0]
    last = [weakref.ref(obj) for obj in entries + (mapping,)]
    del entries, mapping
    second = run_pass("b")
    # The second pass evicted every entry the first one left frozen,
    # and reference counting freed them, with the mappings a memo kept.
    assert [ref() for ref in last] == [None, None, None, None]
    assert abs(second - first) <= 0.02 * first


def test_jobs_time_the_collections():
    tracer = Tracer("run")
    _engine()
    engine = _engine(tracer=tracer)
    assert gc.callbacks.count(engine_mod._time_collection) == 1
    engine.run([Job(id="a", **CLEAN), Job(id="b", **CLEAN)])
    jobs = [span for span in tracer.close().iter_spans()
            if span.name == "job"]
    assert len(jobs) == 2
    stats = engine.stats()
    for key in ("gc.t_full", "gc.t_young"):
        assert stats.kind(key) == "time"
        assert all(job.counters.kind(key) == "time" for job in jobs)
        assert stats[key] == pytest.approx(
            sum(job.counters[key] for job in jobs))
