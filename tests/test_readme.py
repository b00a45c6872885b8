import re
from pathlib import Path

from test_data import FIXTURE_LABELS, FIXTURE_PIXELS, write_idx_pair

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_tour_runs(tmp_path, monkeypatch, capsys):
    """Every line of the README's python block runs, with the IDX files it
    names in the working directory."""
    (tour,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    write_idx_pair(tmp_path, FIXTURE_PIXELS, FIXTURE_LABELS, prefix="train-")
    monkeypatch.chdir(tmp_path)
    exec(compile(tour, str(README), "exec"), {})
    accuracy = float(capsys.readouterr().out.strip().splitlines()[-1])
    assert 0.0 <= accuracy <= 1.0
