from setuptools import Extension, setup

# The exact-GED search has a compiled kernel, a plain C extension. The build
# is optional: without a working C compiler the package installs without it
# and falls back to the pure-Python kernel at import time.
setup(
    ext_modules=[
        Extension("gedraft.ged._astar", ["src/gedraft/ged/_astar.c"], optional=True)
    ]
)
