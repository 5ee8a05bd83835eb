"""README examples: the library block runs and the sample document decides tight."""

import io
import json
import pathlib
import re

from charfol.cli import main

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.M | re.S)


def test_library_example_runs(capsys):
    (code,) = [body for lang, body in BLOCKS if lang == "python"]
    exec(compile(code, "README.md", "exec"), {})
    assert "zero-cell" in capsys.readouterr().out


def test_sample_document_decides_tight(monkeypatch, capsys):
    (document,) = [body for lang, body in BLOCKS if body.startswith("foliation v1\n")]
    monkeypatch.setattr("sys.stdin", io.StringIO(document))
    assert main(["decide", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "tight"
