"""The benchmark's tracer wraps program functions by name; keep those names alive."""

import importlib
import importlib.util
from pathlib import Path

import flockstab as fs
from flockstab import cli
from flockstab.figures import figure1, figure2

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_traced_names_resolve_to_callables():
    spans = _spans_module()
    missing = [
        f"flockstab.{module}.{name}"
        for module, names in spans.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"flockstab.{module}"), name, None))
    ]
    assert spans.TRACED
    assert missing == []


def test_tracer_installed_after_a_first_command_sees_the_next(tmp_path, capsys):
    # the benchmark installs the tracer after its first, untraced pass has run main
    path = tmp_path / "fig1.json"
    fs.save_spec(figure1(), path)
    argv = ["check", "--spec", str(path)]
    assert cli.main(argv) == 0
    tracer = _spans_module().Tracer()
    with tracer.installed():
        assert cli.main(argv) == 0
    names = [span[0] for span in tracer.spans]
    command = names.index("cli.cmd_check")
    assert [name for name, _, _, parent, _ in tracer.spans if parent == command] == [
        "conditions.conditions"]


def test_traced_scan_keeps_every_span_on_one_stack(tmp_path):
    # the scan's runs go on worker threads, through the untraced _run only: each
    # span closes inside its parent, and no simulation span nests in scan_N
    path = tmp_path / "fig2.json"
    fs.save_spec(figure2(), path)
    module = _spans_module()
    tracer = module.Tracer()
    with tracer.installed():
        assert cli.main(["scan", "--spec", str(path), "--N-list", "24,12,36",
                         "--out", str(tmp_path / "scan")]) == 0
    spans = tracer.spans
    assert tracer._stack == []
    assert None not in spans
    for idx, (_, start, end, parent, _) in enumerate(spans):
        assert -1 <= parent < idx
        if parent >= 0:
            assert spans[parent][1] <= start <= end <= spans[parent][2]
    names = [span[0] for span in spans]
    assert names.count("simulation.scan_N") == 1
    assert [name for idx, name in enumerate(names) if name.startswith("simulation.")
            and module.has_ancestor(spans, idx, "simulation.scan_N")] == []
