"""The two compiled scipy extensions a solve calls, loaded on their own.

The march needs only LAPACK ``dgbtrf``/``dgbtrs`` from
``scipy.linalg._flapack``, and the tempered-stable, VG and NIG closed
forms only ``gamma``, ``gammaincc``, ``exp1``, ``zetac`` and ``k1e`` from
``scipy.special._special_ufuncs``.  Importing ``scipy.linalg`` or
``scipy.special`` for them runs the packages' Python layers, which cost
about 0.3 s of start-up per run (``scipy._lib._array_api`` alone pulls in
``numpy.testing`` and ``numpy.f2py``).  :func:`_load` loads the extension
file itself, under its real dotted name, so the routines are the very
objects the public modules re-export.  It relies on scipy's private
layout, so any failure falls back to the public module.
"""

from __future__ import annotations

import importlib
import importlib.util
import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

#: extension module -> the public module that re-exports its routines
_PUBLIC = {"scipy.linalg._flapack": "scipy.linalg.lapack",
           "scipy.special._special_ufuncs": "scipy.special"}


def _find(name: str):
    """Spec of the extension file for ``name``; imports no scipy package."""
    root = importlib.util.find_spec("scipy")
    if root is None:
        return None
    package = name.split(".")[1:-1]
    for base in root.submodule_search_locations:
        finder = FileFinder(os.path.join(base, *package),
                            (ExtensionFileLoader, EXTENSION_SUFFIXES))
        spec = finder.find_spec(name)
        if spec is not None:
            return spec
    return None


def _load(name: str):
    """The extension module ``name``, or its public module if that fails."""
    if name in sys.modules:
        return sys.modules[name]
    try:
        spec = _find(name)
        if spec is None:
            raise ImportError(f"no extension file for {name}")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
        return module
    except (ImportError, OSError):
        sys.modules.pop(name, None)
        return importlib.import_module(_PUBLIC[name])
