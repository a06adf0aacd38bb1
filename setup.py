"""Build script: compiles the optional Cython kernel extension.

The package is fully functional without the extension (a NumPy fallback is
selected at import time), so without Cython or NumPy the build says so and
installs pure Python. With Cython present a failed compile fails the build.
"""

import sys

from setuptools import setup


def _extensions():
    try:
        import numpy
        from Cython.Build import cythonize
        from setuptools import Extension
    except ImportError as exc:
        print(f"mhdlab: Cython/NumPy unavailable ({exc}); building pure-Python only",
              file=sys.stderr)
        return []
    ext = Extension(
        "mhdlab._kernels._core",
        ["src/mhdlab/_kernels/_core.pyx"],
        include_dirs=[numpy.get_include()],
        define_macros=[("NPY_NO_DEPRECATED_API", "NPY_1_7_API_VERSION")],
        extra_compile_args=["-O3"],
    )
    return cythonize(
        [ext],
        compiler_directives={
            "language_level": "3",
            "boundscheck": False,
            "wraparound": False,
            "cdivision": True,
        },
    )


setup(ext_modules=_extensions())
