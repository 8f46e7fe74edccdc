import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_mutant_old_texts_occur_once():
    # tools/mutants.py applies each edit only where its old text occurs
    # exactly once; a code change that strands an entry fails here, on
    # every run, not in the tool's long manual run
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.MUTANTS and tool.EQUIVALENT
    for m in tool.MUTANTS + tool.EQUIVALENT:
        assert (ROOT / m.file).read_text().count(m.old) == 1, (m.file, m.reason)
        assert m.new != m.old, m.reason
