"""Placeholder setup script; it declares no package metadata.

The package is used from the source tree, not installed: put ``src`` on
the path and run the CLI as a module, as the README and CI do::

    PYTHONPATH=src python -m repro.cli all --fast
"""

from setuptools import setup

setup()
