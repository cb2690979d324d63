"""The PLAN-P execution engine: values, primitives, interpreter, context."""

from .context import Emission, ExecutionContext, RecordingContext
from . import compress_prims  # noqa: F401  (registers blobCompress etc.)
from . import image_prims  # noqa: F401  (registers the image primitives)
from .env import Env
from .interpreter import Interpreter
from .primitives import PRIMITIVES, Primitive, register
from .values import UNIT, PlanPList, PlanPTable, default_value, format_value

__all__ = [
    "Emission",
    "ExecutionContext",
    "RecordingContext",
    "Env",
    "Interpreter",
    "PRIMITIVES",
    "Primitive",
    "register",
    "UNIT",
    "PlanPList",
    "PlanPTable",
    "default_value",
    "format_value",
]
