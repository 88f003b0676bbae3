"""Extremal Sobolev functions, sharp constants, and reverse Holder verification.

The public names resolve on first access (PEP 562): importing the package
loads no submodule, and `sobolev_lab.DomainSpec` loads `core` alone.
"""

import importlib

__version__ = "0.1.0"

# the modules whose __all__, in this order, make up the package's
_SOURCES = ("core", "radial", "elliptic", "rearrange", "chiti")


def __getattr__(name):
    if name in _SOURCES or name == "formats":
        return importlib.import_module(f"{__name__}.{name}")
    if name == "__all__":
        return [*(n for source in _SOURCES for n in __getattr__(source).__all__),
                "formats", "__version__"]
    for source in _SOURCES:
        module = __getattr__(source)
        if name in module.__all__:
            return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
