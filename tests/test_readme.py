"""README's library example runs as written."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    command = namespace["tick"].command
    assert np.array(command.currents).shape == (8,)
    assert 0.0 <= command.residual_norm < 1e-5
    assert capsys.readouterr().out
