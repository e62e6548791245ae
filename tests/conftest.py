import json
import shutil
import sys
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

    shipped = Path(catalog.__file__).with_name("data")  # where catalog.load reads
    for name in ("curve_tables.json", "thue_tables.json"):
        shutil.copy(shipped / name, tmp_path / name)
    monkeypatch.setattr(catalog, "load", lambda name: json.loads((tmp_path / name).read_text()))
    return tmp_path
