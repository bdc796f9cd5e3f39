"""Every span target of the benchmark tracer names a layer entry point that exists.

``bench/spans.py`` wraps the functions and methods of its ``TARGETS`` list;
a target it cannot find makes its layer read zero in a traced run.  This
check loads the list by file path and resolves each target the way
``Tracer.install`` does, ``vars(owner).get(leaf)`` on the module or class,
so a renamed entry point fails here too.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _targets()


def test_targets_listed():
    assert len(TARGETS) > 0


@pytest.mark.parametrize("mod_name, attr", [(m, a) for m, a, _ in TARGETS],
                         ids=[f"{m}.{a}" for m, a, _ in TARGETS])
def test_target_resolves(mod_name, attr):
    owner = importlib.import_module(f"entrogeo.{mod_name}")
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        assert owner is not None, f"entrogeo.{mod_name} has no {part}"
    assert callable(vars(owner).get(leaf)), f"entrogeo.{mod_name}.{attr} not found"
