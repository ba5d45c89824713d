"""Legacy setup shim so ``pip install -e .`` works without the wheel package."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    # Runtime dependencies only: networkx and the rest of
    # requirements-dev.txt serve the tests.
    install_requires=["numpy", "scipy"],
)
