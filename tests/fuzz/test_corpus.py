"""The committed regression corpus.

Every case under ``tests/fuzz/corpus/`` pins an adversarial
(program, stream) scenario — found by campaigns or distilled from
hardening work — and must replay with zero divergences on every
engine×mode combination, forever.  A failure here means a regression
in an engine, the codec, or the containment path.
"""

from pathlib import Path

import pytest

from repro.fuzz import load_case, run_case
from repro.tools import fuzzx

CORPUS = Path(__file__).parent / "corpus"
CASES = sorted(CORPUS.glob("*.json"))


def test_corpus_is_not_empty():
    assert CASES, f"no committed cases under {CORPUS}"


@pytest.mark.parametrize("path", CASES, ids=lambda p: p.stem)
def test_corpus_case_replays_clean(path):
    case = load_case(path)
    assert case["program"].strip(), path
    assert case["packets"], path
    result = run_case(case)
    assert result.ok, (
        f"{path.name}: {'; '.join(f'{d.backend}/{d.mode}: {d.detail}' for d in result.divergences)}")


def test_fuzzx_replays_the_corpus_directory(capsys):
    # both case kinds, found by walking the directory
    assert fuzzx.main(["replay", str(CORPUS)]) == 0
    out = capsys.readouterr().out
    assert out.count("ok ") == len(list(CORPUS.rglob("*.json")))
    assert "wire-retype" in out and "binop-eval-order" in out
