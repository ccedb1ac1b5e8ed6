"""The README's library example runs as written."""

import re
from pathlib import Path

from pdfmlp import TrainConfig, save, train

from pdfbuild import minimal_pdf
from synth import separable_dataset

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The first python block under the "## Library" heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    model, scaler, _ = train(separable_dataset(n=120, seed=1), TrainConfig(epochs=2, seed=1))
    save(model, scaler, str(tmp_path / "model.bin"))
    (tmp_path / "sample.pdf").write_bytes(minimal_pdf())
    monkeypatch.chdir(tmp_path)
    exec(compile(library_example(), str(README), "exec"), {"__name__": "readme"})
    p, verdict = capsys.readouterr().out.split()
    assert 0.0 < float(p) < 1.0
    assert verdict in ("benign", "malicious")
