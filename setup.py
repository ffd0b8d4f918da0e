"""Builds the optional compiled kernel module.

The package is fully functional without it: ``sumrank.core`` falls back
to the pure-Python kernels when the extension is missing, so a failed or
skipped compile only costs speed.
"""

import os

from setuptools import Extension, setup

ext_modules = []
if os.environ.get("SUMRANK_SKIP_EXT", "") in ("", "0"):
    try:
        from Cython.Build import cythonize
    except ImportError:
        # no Cython: compile the committed C that Cython generated from the .pyx
        ext_modules = [Extension("sumrank._core_c", ["src/sumrank/_core_c.c"])]
    else:
        ext_modules = cythonize(
            [Extension("sumrank._core_c", ["src/sumrank/_core_c.pyx"])],
            compiler_directives={"language_level": "3"},
        )

setup(ext_modules=ext_modules)
