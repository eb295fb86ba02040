"""The benchmark's tracer and kernel timings find every name they look up.

benchmarks/tracing.py wraps library functions under the names their
callers use, and benchmarks/kernels.py calls the stepper's kernels by
name. Deleting or renaming one of them breaks the benchmark, so the
suite installs the tracer and runs each kernel call once.
"""

from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def test_tracer_installs_and_kernels_run(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import kernels
    import tracing

    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in tracing.WRAPPED]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for call in kernels._calls(63, 1).values():
            call()
    finally:
        tracer.uninstall()
    assert len(tracer) > 0
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original
