"""The program names the traced benchmark wraps exist.

`bench/layers.instrument` looks every traced function up by name; a refactor
that deletes or renames one breaks the traced benchmark run.  This test
fails first, without running a benchmark.
"""

from pathlib import Path

from mnmt import cli, memory

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_instrument_finds_and_restores_every_traced_name(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from layers import instrument
    from tracing import Tracer

    originals = (cli.sentence_memory, memory.MemoryHook.__call__, memory.train_memory_attention)
    tracer = Tracer()
    try:
        instrument(tracer, {})
        assert cli.sentence_memory is not originals[0]
    finally:
        tracer.restore()
    assert (cli.sentence_memory, memory.MemoryHook.__call__,
            memory.train_memory_attention) == originals
