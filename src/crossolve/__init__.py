"""Simulator for crosspoint resistive feedback circuits that solve Ax = b.

The library models the closed-loop dynamics of an analog crosspoint array
with operational-amplifier feedback, its device-level conductance
quantization and noise, the computing-time law that follows from the
loop's eigenvalues, and a set of reproducible experiment scenarios with
CSV outputs and a command line front end.

Each module's __all__ is its public surface, and the package offers every
module's but cli's as its own. Importing the package imports none of them:
a name is looked up on first use (PEP 562) in the layer modules, lightest
first, so a process loads only the modules that define what it uses, and
the modules those import. Names are looked up again on every use and never
stored in the package, so rebinding a function in its module reaches
callers of the package name too.
"""

from importlib import import_module

__version__ = "0.1.0"

# Light to heavy: each module imports only modules listed before it.
_MODULES = ("errors", "spectral", "dynamics", "devices", "generators", "baselines", "experiments")


def __getattr__(name: str):
    if name in _MODULES:
        return import_module(f".{name}", __name__)
    if name == "__all__":
        return ["__version__", *(item for short in _MODULES for item in __getattr__(short).__all__)]
    if not name.startswith("__"):
        for short in _MODULES:
            module = __getattr__(short)
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULES, *__getattr__("__all__")})
