"""Package metadata for the DSPatch reproduction.

``pip install -e .`` installs the ``repro`` package from ``src/`` and the
``repro`` command-line entry point (the same as ``python -m repro``).
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(r'^__version__ = "([^"]+)"', _INIT.read_text(), re.M).group(1)

setup(
    name="repro",
    version=_VERSION,
    description="Reproduction of DSPatch: Dual Spatial Pattern Prefetcher (MICRO 2019)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
