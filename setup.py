"""Legacy setup shim.

The offline CI image lacks the ``wheel`` package, so PEP-660 editable
installs fail; with this file (and no ``[build-system]`` table in
pyproject.toml) ``pip install -e .`` takes the classic setuptools
``develop`` path, which needs nothing beyond setuptools itself.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'Hardware Support for Constant-Time Programming' "
        "(MICRO 2023)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
)
