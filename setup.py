"""Build hook: compile the speedup extension.

The extension is the hand-written C99 source _speedups.c, built against the
CPython API with no code generator.  It is optional: when no C compiler
works the package still installs, and immaculate._kernels falls back to the
pure-Python twin whenever the extension is missing.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "immaculate._kernels._speedups",
            ["src/immaculate/_kernels/_speedups.c"],
            extra_compile_args=["-O3"],
            optional=True,
        )
    ]
)
