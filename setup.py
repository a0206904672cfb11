"""Build hook: compile the speedup extension.

The extension is generated from _speedups.pyx when Cython is available and
built from the committed _speedups.c otherwise.  It is optional: when no C
compiler works the package still installs, and immaculate._kernels falls
back to the pure-Python twin whenever the extension is missing.
"""

from setuptools import Extension, setup

try:
    from Cython.Build import cythonize
except ImportError:
    cythonize = None

source = "_speedups.pyx" if cythonize else "_speedups.c"
ext_modules = [
    Extension(
        "immaculate._kernels._speedups",
        [f"src/immaculate/_kernels/{source}"],
        extra_compile_args=["-O3"],
        optional=True,
    )
]
if cythonize:
    ext_modules = cythonize(ext_modules, compiler_directives={"language_level": "3"})
    for ext in ext_modules:
        ext.optional = True

setup(ext_modules=ext_modules)
