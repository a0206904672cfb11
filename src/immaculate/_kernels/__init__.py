"""Kernel backend selection.

The compiled ``_speedups`` extension is preferred when it imported cleanly;
otherwise the pure-Python twin ``_pure`` takes over with identical behaviour.
Set the environment variable IMMACULATE_PURE=1 to force the pure backend, for
debugging or benchmarking.  BACKEND_REASON says why the active backend was
chosen (for the pure fallback, the text of the swallowed ImportError); both
are logged at DEBUG level on the ``immaculate`` logger when this module first
loads, if ``logging`` was imported before it.  Without it no handler can
exist yet to take the record, so the package does not load ``logging`` only
to drop it.
"""

from __future__ import annotations

import importlib
import os
import sys

if os.environ.get("IMMACULATE_PURE", "").strip() not in ("", "0"):
    from . import _pure as _backend

    BACKEND_REASON = "forced by the IMMACULATE_PURE environment variable"
else:
    try:
        # import_module reports the missing submodule itself; a from-import
        # inside this package would blame a circular import instead
        _backend = importlib.import_module(f"{__name__}._speedups")

        BACKEND_REASON = "compiled extension imported"
    except ImportError as exc:
        from . import _pure as _backend

        BACKEND_REASON = f"compiled extension unavailable: {exc}"

ShapeOps = _backend.ShapeOps
BACKEND: str = _backend.BACKEND

if "logging" in sys.modules:
    import logging

    logging.getLogger("immaculate").debug("kernel backend %s (%s)", BACKEND, BACKEND_REASON)


def get_backend(name: str | None = None):
    """Kernel module by name: 'pure', 'compiled', or None for the active one.

    Asking for 'compiled' raises ImportError when the extension is missing.
    """
    if name is None or name == BACKEND:
        return _backend
    if name == "pure":
        from . import _pure

        return _pure
    if name == "compiled":
        return importlib.import_module(f"{__name__}._speedups")
    raise ValueError(f"unknown backend {name!r}; expected 'pure' or 'compiled'")
