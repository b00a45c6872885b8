import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    """The benchmark's tracer module, loaded from its file; nothing is
    installed, so the package stays unwrapped."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(module_name, path):
    # the attribute walk of Tracer.install
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    try:
        for part in parents:
            owner = getattr(owner, part)
        getattr(owner, attr)
    except AttributeError:
        return False
    return True


def test_every_traced_metric_keeps_a_live_wrap_target():
    """Each per-layer metric that sums spans has at least one wrap target
    that still exists, so a renamed or removed call cannot silently blank
    it."""
    tracer = _load_tracer()
    live = {span for module, path, span in tracer.TARGETS if _resolves(module, path)}
    blank = [name for name, _, sources in tracer.METRICS if sources and not live & set(sources)]
    assert blank == []
