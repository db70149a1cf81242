"""The benchmark's tracer wraps program functions by name; keep those names alive."""

import importlib
import importlib.util
from pathlib import Path

import flockstab as fs
from flockstab import cli
from flockstab.figures import figure1

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
