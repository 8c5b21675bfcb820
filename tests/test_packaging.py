"""The committed ``pyproject.toml`` describes the package that exists."""

from __future__ import annotations

import importlib
import tomllib
from pathlib import Path

import repro

_PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def _project() -> dict:
    with _PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)


def test_console_script_resolves_to_cli_main():
    target = _project()["project"]["scripts"]["repro"]
    module_name, _, attr = target.partition(":")
    assert (module_name, attr) == ("repro.cli", "main")
    assert getattr(importlib.import_module(module_name), attr) is repro.cli.main


def test_metadata_matches_the_package():
    data = _project()
    assert data["project"]["name"] == "repro"
    assert data["project"]["version"] == repro.__version__
    assert data["project"]["dependencies"] == ["numpy"]
    # Installed copies compile the C kernels from the shipped source.
    assert "_kernels.c" in data["tool"]["setuptools"]["package-data"]["repro.core"]
