"""Fixed program corpora for before/after (differential) tests.

A test that shows a rewritten stage equal to what it replaced wants
every real program the repository has: the eleven shipped ASP
templates, the benchmark's own program, every program in the committed
fuzz corpus and a seeded sample of the fuzz grammar.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from repro import asps
from repro.fuzz import grammar

_ROOT = Path(__file__).parent.parent

#: All ``repro.asps`` templates, by name.
SHIPPED: dict[str, str] = {
    "audio_router_asp": asps.audio_router_asp(),
    "audio_client_asp": asps.audio_client_asp(),
    "http_gateway_asp": asps.http_gateway_asp(
        "10.0.1.2", ["10.0.2.2", "10.0.3.2"]),
    "mpeg_monitor_asp": asps.mpeg_monitor_asp(),
    "mpeg_client_asp": asps.mpeg_client_asp(),
    "link_compressor_asp": asps.link_compressor_asp(app_port=4444),
    "link_decompressor_asp": asps.link_decompressor_asp(app_port=4444),
    "content_filter_asp": asps.content_filter_asp("/x", "10.0.9.9"),
    "image_distiller_asp": asps.image_distiller_asp(),
    "firewall_asp": asps.firewall_asp([23, 111, 2049]),
    "shedding_asp": asps.shedding_asp(),
}

#: The two templates the delivery analysis refuses (they drop packets).
REJECTED = ("firewall_asp", "shedding_asp")


def corpus_programs() -> dict[str, str]:
    """Every program text under ``tests/fuzz/corpus`` (engine cases carry
    one, wire cases two), plus ``bench/programs/burst.planp``."""
    found = {"burst.planp":
             (_ROOT / "bench" / "programs" / "burst.planp").read_text()}
    for path in sorted((_ROOT / "tests" / "fuzz" / "corpus")
                       .rglob("*.json")):
        case = json.loads(path.read_text())
        for field in ("program", "program_a", "program_b"):
            if field in case:
                found[f"{path.stem}:{field}"] = case[field]
    return found


def grammar_programs(count: int, seed: int = 0) -> list[str]:
    """``count`` well-typed programs from the ``repro.fuzz`` grammar."""
    return [grammar.gen_program(random.Random(f"{seed}/{i}"))
            for i in range(count)]
