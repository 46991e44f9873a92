"""Setuptools packaging for :mod:`repro`.

The offline environment ships setuptools 65 without the ``wheel`` package, so
PEP 660 editable installs (which require ``bdist_wheel``) fail.  Install with
``pip install -e . --no-build-isolation --no-use-pep517`` (or plain
``python setup.py develop``); all metadata lives in the ``setup()`` call
below, and the version is read from ``src/repro/_version.py``.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_VERSION_FILE = Path(__file__).parent / "src" / "repro" / "_version.py"
_VERSION = re.search(
    r'^__version__ = "([^"]+)"$', _VERSION_FILE.read_text(), re.MULTILINE
).group(1)

setup(
    name="repro",
    version=_VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy", "scipy"],
)
