"""scipy's LAPACK wrappers, without importing scipy.linalg.

flatpoly calls six LAPACK routines: dpotrf, dtrtrs, dgeqrf, dormqr, dgetrf
and dgetrs.  scipy.linalg.lapack takes them from the extension module
scipy.linalg._flapack, but importing scipy.linalg also runs its package
__init__, which loads scipy's array-API layer: about 140 ms of every
flatpoly process's start-up, against a few ms for the extension module.

This module loads that extension module from its file, under the name scipy
imports it by, and registers it in sys.modules, so a later
``import scipy.linalg`` reuses it.  The routines of `lapack` are therefore
the very objects scipy.linalg.lapack exposes, and every result keeps its
bits.  numpy.linalg is no substitute: it links a different OpenBLAS build
and has no dormqr, dtrtrs or dgetrs.
"""

import importlib.machinery
import importlib.util
import os
import sys

_NAME = "scipy.linalg._flapack"


def _load():
    if _NAME in sys.modules:  # scipy.linalg was imported first
        return sys.modules[_NAME]
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        raise ImportError("flatpoly needs scipy, which is not installed",
                          name="scipy")
    where = os.path.join(os.path.dirname(scipy_spec.origin), "linalg")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(where, "_flapack" + suffix)
        if os.path.isfile(path):
            break
    else:
        raise ImportError(f"no scipy LAPACK module _flapack in {where}",
                          name=_NAME, path=where)
    spec = importlib.util.spec_from_file_location(_NAME, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[_NAME] = module
    spec.loader.exec_module(module)
    return module


lapack = _load()
