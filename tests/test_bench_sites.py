"""The benchmark's tracer patches camgeom functions where callers look them up.

``bench/tracer.py`` wraps each boundary function in its defining module and
in every module listed as importing it, and fails the traced run if a site
no longer holds the original.  This check keeps a refactor from breaking the
benchmark without running it.
"""

import importlib.util
from importlib import import_module
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_patch_site_holds_the_defining_function():
    spec = importlib.util.spec_from_file_location("camgeom_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    broken = []
    for name, (_, home, attr, importers) in tracer.BOUNDARIES.items():
        original = getattr(import_module(home), attr, None)
        if original is None:
            broken.append(f"{name}: {home}.{attr} is gone")
        broken += [f"{name}: {m}.{attr} is not {home}.{attr}"
                   for m in importers if getattr(import_module(m), attr, None) is not original]
    assert not broken, broken
