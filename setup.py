"""Packaging for the ``repro`` package and the ``udp-prove`` command.

``pip install -e .`` installs the package from ``src/`` and puts the
``udp-prove`` console script on the path; without installing, run
``PYTHONPATH=src python -m repro.frontend.cli``.  There are no runtime
dependencies.
"""

import os
import re

from setuptools import find_packages, setup


def _version() -> str:
    """``repro.__version__``, read without importing the package."""
    here = os.path.dirname(os.path.abspath(__file__))
    init = os.path.join(here, "src", "repro", "__init__.py")
    with open(init, encoding="utf-8") as handle:
        return re.search(r'^__version__ = "([^"]+)"', handle.read(), re.M)[1]


setup(
    name="repro-udp",
    version=_version(),
    description=(
        "Deciding semantic equivalence of SQL queries with the "
        "U-semiring procedure (UDP)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    entry_points={
        "console_scripts": ["udp-prove = repro.frontend.cli:main"],
    },
)
