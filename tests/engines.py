"""Run an experiment's ASPs on an engine other than the default.

The experiments install their programs through
:meth:`repro.runtime.deployment.Deployment.install` at the product's
default engine.  A test that compares engines on a whole experiment
substitutes an install that names the engine under test.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.runtime.deployment import Deployment


@contextmanager
def installs_on(backend: str):
    """Inside the block, every ``Deployment.install`` uses ``backend``."""
    install = Deployment.install

    def on_backend(self, source, nodes, **kwargs):
        return install(self, source, nodes, **{**kwargs, "backend": backend})

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Deployment, "install", on_backend)
        yield
