"""The README's Python API example runs as written."""

import re
from pathlib import Path

from helpers import residual_block_fixture
from reslice.graph import save_model

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example_runs(tmp_path, monkeypatch):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    graph, weights = residual_block_fixture(width=6)
    save_model(graph, weights, tmp_path / "net.model.json", tmp_path / "net.weights.json")
    monkeypatch.chdir(tmp_path)
    exec(compile(blocks[0], str(README), "exec"), {})
