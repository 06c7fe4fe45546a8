"""The README's Python code blocks run as written against the package."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    # The field generator writes field.vfgrid in the working directory, and
    # the library sketch reads it back: a renamed or removed public name
    # fails here.
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 2
    monkeypatch.chdir(tmp_path)
    generator, sketch = {}, {}
    exec(compile(blocks[0], f"{README.name} (field generator)", "exec"), generator)
    exec(compile(blocks[1], f"{README.name} (library sketch)", "exec"), sketch)
    assert (tmp_path / "field.vfgrid").exists()
    assert np.isfinite(sketch["sol"].f_phys).all()
    assert len(sketch["report"].rows) == 7
