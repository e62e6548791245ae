import json
import shutil
import sys
from importlib import resources
from pathlib import Path

import pytest

# make the shared oracle helpers importable from every test module
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def data_dir(tmp_path, monkeypatch):
    """A directory of copies of the shipped catalogs, which the test may
    edit; for the test, catalog.load reads them from there (afresh on
    each call) instead of the cached package data."""
    from tauhunt import catalog

    for name in ("curve_tables.json", "defect_tables.json", "thue_tables.json"):
        with resources.as_file(resources.files("tauhunt.data").joinpath(name)) as src:
            shutil.copy(src, tmp_path / name)
    monkeypatch.setattr(catalog, "load", lambda name: json.loads((tmp_path / name).read_text()))
    return tmp_path
