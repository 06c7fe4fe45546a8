"""The README's Python code blocks and command lines run as written."""

import re
import shlex
from pathlib import Path

import numpy as np

from vortexfront.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run(tmp_path, monkeypatch, capsys):
    # The field generator writes field.vfgrid in the working directory, and
    # the library sketch and every line of the command-line block read it
    # back: a renamed or removed public name or flag fails here.
    text = README.read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.MULTILINE | re.DOTALL)
    assert len(blocks) == 2
    monkeypatch.chdir(tmp_path)
    generator, sketch = {}, {}
    exec(compile(blocks[0], f"{README.name} (field generator)", "exec"), generator)
    exec(compile(blocks[1], f"{README.name} (library sketch)", "exec"), sketch)
    assert (tmp_path / "field.vfgrid").exists()
    assert np.isfinite(sketch["sol"].f_phys).all()
    assert len(sketch["report"].rows) == 7
    (commands,) = re.findall(r"^## Command line\n\n```sh\n(.*?)^```", text,
                             re.MULTILINE | re.DOTALL)
    lines = commands.splitlines()
    assert len(lines) == 7
    for line in lines:
        prog, *args = shlex.split(line)
        assert prog == "vortexfront"
        assert main(args) == 0, (line, capsys.readouterr().err)
