"""The README's Library example runs as written, so a removed export it uses fails here."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, re.S)
    return block


def test_library_example_runs_as_written():
    namespace = {}
    exec(compile(_library_example(), f"{README} (## Library)", "exec"), namespace)
    assert namespace["alpha"] == pytest.approx(2.948e-6, rel=1e-3)  # its inline comment
    assert namespace["force"] > 0.0
    # 100 pN read back through the linear actuator's 8.854e-9 N/V
    assert namespace["readout"] == pytest.approx(100e-12 / 8.854e-9, rel=1e-2)
