"""Exact Albanese data of hyperelliptic varieties from rational lattice presentations."""

import importlib

__version__ = "0.1.0"


def __getattr__(name):
    # Only the `catalog` command reads the catalog, so `hyperelliptic.cli`
    # does not import it and the other commands start without loading its
    # sixteen entries; `hyperelliptic.catalog` is imported here on first
    # attribute access.  (`from . import catalog` would call this hook
    # again and recurse.)
    if name == "catalog":
        return importlib.import_module("hyperelliptic.catalog")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
