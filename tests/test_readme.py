"""The README's library example runs against the package as it is."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    section = README.read_text().split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope = {}
    exec(compile(code, f"{README}:Library example", "exec"), scope)
    assert sorted(scope["final"]) == list(range(1, 101))
    assert sorted(scope["mse_at_20"]) == list(range(1, 101))
    assert "uploads in 40 rounds" in capsys.readouterr().out
