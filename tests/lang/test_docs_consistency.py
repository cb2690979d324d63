"""Documentation consistency: LANGUAGE.md and DESIGN.md match the
implementation."""

import dataclasses
import re
from pathlib import Path

from repro.interp.primitives import BUILTIN_EXCEPTIONS, PRIMITIVES
from repro.runtime import LifecyclePolicy, RetryPolicy

ROOT = Path(__file__).resolve().parents[2]
DOC = ROOT / "docs" / "LANGUAGE.md"


def doc_text() -> str:
    return DOC.read_text(encoding="utf-8")


def documented_primitives() -> set[str]:
    """Primitive names from the reference's family table."""
    names: set[str] = set()
    in_table = False
    for line in doc_text().splitlines():
        if line.startswith("| family |"):
            in_table = True
            continue
        if in_table:
            if not line.startswith("|"):
                break
            cells = [c.strip() for c in line.strip("|").split("|")]
            if len(cells) == 2 and not cells[1].startswith("-"):
                names.update(cells[1].replace("`", "").split())
    return names


def test_every_primitive_documented():
    missing = set(PRIMITIVES) - documented_primitives()
    assert not missing, f"primitives absent from LANGUAGE.md: {missing}"


def test_no_phantom_primitives_documented():
    phantom = documented_primitives() - set(PRIMITIVES)
    assert not phantom, f"LANGUAGE.md documents non-existent: {phantom}"


def test_builtin_exceptions_documented():
    text = doc_text()
    for name in BUILTIN_EXCEPTIONS:
        assert name in text, f"exception {name} missing from LANGUAGE.md"


def test_emission_forms_documented():
    text = doc_text()
    for form in ("OnRemote", "OnNeighbor", "deliver", "drop"):
        assert form in text


def test_grammar_keywords_documented():
    text = doc_text()
    for keyword in ("initstate", "channel", "handle", "andalso",
                    "orelse", "hash_table"):
        assert keyword in text


def test_policy_knobs_match_design():
    """Every ``LifecyclePolicy``/``RetryPolicy`` field is named in
    DESIGN.md, and everything §7a/§7b attributes to either class (as
    ``Class.field``) is a field of it — a knob cannot outlive its
    documentation, nor the documentation a knob."""
    design = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    control_plane = design[design.index("### 7a."):design.index("### 7c.")]
    for cls in (LifecyclePolicy, RetryPolicy):
        fields = {f.name for f in dataclasses.fields(cls)}
        pattern = rf"`{cls.__name__}\.(\w+)`"
        undocumented = fields - set(re.findall(pattern, design))
        assert not undocumented, (
            f"{cls.__name__} fields absent from DESIGN.md: {undocumented}")
        phantom = set(re.findall(pattern, control_plane)) - fields
        assert not phantom, (
            f"DESIGN §7a/§7b documents non-existent {cls.__name__} "
            f"fields: {phantom}")


TOP_LEVEL_DOCS = ("README.md", "EXPERIMENTS.md", "DESIGN.md")


def test_quoted_repository_paths_exist():
    """Every back-ticked path under ``src/``, ``tests/``, ``bench/``,
    ``examples/`` or ``docs/``, and every root ``*.json``, exists
    (``*`` must match something; ``::test`` suffixes are ignored)."""
    path = re.compile(r"(?:(?:src|tests|bench|examples|docs)/[\w./*-]+"
                      r"|[\w-]+\.json)(?:::[\w:\[\]-]+)?")
    missing = []
    for doc in TOP_LEVEL_DOCS:
        text = (ROOT / doc).read_text(encoding="utf-8")
        for token in re.findall(r"`([^`\n]+)`", text):
            if not path.fullmatch(token):
                continue
            name = token.split("::")[0].rstrip("/")
            found = any(ROOT.glob(name)) if "*" in name \
                else (ROOT / name).exists()
            if not found:
                missing.append(f"{doc}: {token}")
    assert not missing, f"documents name paths that do not exist: {missing}"


def test_quoted_scenario_names_are_in_a_matrix():
    """Every ``<matrix prefix>/<name>`` the documents quote, back-ticked
    or inside a command, is a scenario of some matrix."""
    from repro.harness import matrix

    names = {scenario.name for scenario in matrix("all")}
    prefixes = "|".join(sorted({name.split("/")[0] for name in names}))
    quoted = re.compile(rf"(?<![\w/.-])(?:{prefixes})/[a-z0-9][\w/-]*")
    unknown = []
    for doc in TOP_LEVEL_DOCS:
        text = (ROOT / doc).read_text(encoding="utf-8")
        unknown += [f"{doc}: {name}" for name in quoted.findall(text)
                    if name not in names]
    assert not unknown, f"documents quote unknown scenarios: {unknown}"
