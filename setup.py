from setuptools import Extension, setup

# The compiled kernels, as (module, source, extra compile flags). Both builds
# are optional: without a working C compiler the package installs without
# them and falls back at import time, to the pure-Python GED kernel and to
# the NumPy Adam step. tests/conftest.py builds the same list.
#
# _adam's results must equal the NumPy step's bit for bit, so it is built
# with -ffp-contract=off (no fused multiply-add, which rounds once where
# NumPy rounds twice) and never with -ffast-math or -Ofast (which flush
# subnormals to zero). -fno-math-errno lets gcc vectorize its sqrt; it
# changes no result, only that sqrt of a negative number leaves errno alone.
EXTENSIONS = [
    ("gedraft.ged._astar", "src/gedraft/ged/_astar.c", []),
    ("gedraft._adam", "src/gedraft/_adam.c", ["-ffp-contract=off", "-fno-math-errno"]),
]

if __name__ == "__main__":
    setup(
        ext_modules=[
            Extension(name, [source], extra_compile_args=flags, optional=True)
            for name, source, flags in EXTENSIONS
        ]
    )
