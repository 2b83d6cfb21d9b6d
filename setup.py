import numpy
from setuptools import Extension, setup

# optional: without a working C compiler the pure-Python kernel is installed.
# -ffp-contract=off keeps multiply-adds unfused, so the compiled sweeps stay
# bit-identical to the numpy/Python fallback on every architecture.
kernel = Extension(
    "susypep._kernels._numerov_cy",
    ["src/susypep/_kernels/_numerov_cy.c"],
    include_dirs=[numpy.get_include()],
    extra_compile_args=["-O3", "-ffp-contract=off"],
    optional=True,
)

setup(ext_modules=[kernel])
