"""``hybridmp validate`` prints what the committed corpus records, byte for byte."""

from __future__ import annotations

import json

from _validate_corpus import CORPUS, run_validate


def test_validate_output_matches_the_corpus(tmp_path):
    cases = json.loads(CORPUS.read_text())
    # every case that moved, not only the first
    moved = []
    for name, case in cases.items():
        code, stdout = run_validate(case["spec"], tmp_path)
        if (code, stdout) != (case["exit"], case["stdout"]):
            moved.append(f"{name}: exit {code}, corpus {case['exit']}\n"
                         f"  printed {stdout!r}\n  corpus  {case['stdout']!r}")
    assert not moved, "validate output differs from the corpus:\n" + "\n".join(moved)
