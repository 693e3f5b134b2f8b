"""Packaging metadata for the ``repro`` library.

Also serves legacy editable installs (``pip install -e .``) in offline
environments that lack the ``wheel`` package.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION = re.search(
    r'__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "version.py").read_text(
        encoding="utf-8"
    ),
).group(1)

setup(
    name="repro",
    version=VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy", "scipy"],
)
