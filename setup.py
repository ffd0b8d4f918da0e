"""Builds the optional compiled kernel module, sumrank._core_c.

The package is fully functional without it: ``sumrank.core`` falls back
to the pure-Python kernels when the extension is missing, so a failed
compile only costs speed (the extension is optional, and the build
carries on without it).
"""

from setuptools import Extension, setup

setup(ext_modules=[Extension("sumrank._core_c", ["src/sumrank/_core_c.c"], optional=True)])
