"""JIT compilation for PLAN-P, generated from the interpreter.

Two backends reproduce the paper's Tempo-generated JIT:

* :class:`repro.jit.specializer.ClosureEngine` — closure specialization
  (the first Futamura projection, staged by hand);
* :class:`repro.jit.codegen.CompiledSourceEngine` — Python source
  emission compiled with ``compile()`` (the machine-code-template
  analogue).
"""

from .codegen import CompiledSourceEngine, SourceArtifact
from .pipeline import (BACKENDS, DEFAULT_BACKEND, PROGRAM_CACHE, CacheStats,
                       Engine, LoadedProgram, ProgramCache,
                       count_source_lines, load_program, make_engine)
from .specializer import ClosureEngine

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "PROGRAM_CACHE",
    "CacheStats",
    "ClosureEngine",
    "CompiledSourceEngine",
    "Engine",
    "LoadedProgram",
    "ProgramCache",
    "SourceArtifact",
    "count_source_lines",
    "load_program",
    "make_engine",
]
