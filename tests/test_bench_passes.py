"""The traced benchmark's two-pass check, at a small scale.

`bench/run.py --trace 1` runs the pipeline twice in one process, first under
`bench/layers.instrument`'s wrappers, then plain, and requires both passes
to fail no operation and to give equal outputs.  State kept between calls,
such as a module-level cache, breaks that check; this test finds it without
running a benchmark.
"""

import dataclasses
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_traced_and_plain_passes_agree(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    from layers import instrument
    from tracing import Tracer
    from workloads import RECIPES, Pass, pipeline

    # the desk recipe at mid's beam, on 24 held-out sentences
    desk = RECIPES["desk"]
    recipe = dataclasses.replace(desk, dims={**desk.dims, "beam_size": 12}, heldout=24)
    tracer = Tracer()
    traced = Pass(str(tmp_path), seed=12, seconds=1.0, fixed=True, tracer=tracer)
    instrument(tracer, traced.counters)
    try:
        pipeline(traced, recipe, "desk")
    finally:
        tracer.restore()
    plain = Pass(str(tmp_path), seed=12, seconds=1.0, fixed=True)
    pipeline(plain, recipe, "desk")

    assert traced.failures == [] and plain.failures == []
    assert traced.attempted == plain.attempted > 0
    assert traced.outputs == plain.outputs
